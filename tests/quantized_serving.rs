//! End-to-end quantized serving and thread-budget clamping.
//!
//! * `ServeConfig::backend` — each engine dispatches on its own
//!   configured backend (visible in `m2ai_kernels_backend_active`
//!   while it lives), and an int8-prepared model serves int8 end to
//!   end through the fabric, every stream bit-matching a bare engine
//!   on the same prepared model.
//! * the `m2ai-par` worker budget — a fabric with `shards == cores`
//!   must clamp tile-parallel GEMM down to one thread per worker so
//!   shard workers plus GEMM tiles never oversubscribe the machine,
//!   and the reservation must be released on shutdown.

mod support;

use m2ai::core::network::Architecture;
use m2ai::core::online::HealthState;
use m2ai::core::serve::{ServeConfig, ServeEngine, ServePrediction};
use m2ai::fabric::{FabricConfig, PushOutcome, ServeFabric};
use m2ai::kernels::{Backend, KernelScratch};
use m2ai::nn::model::SequenceClassifier;
use m2ai::obs::MetricValue;
use m2ai::par::budget;
use std::sync::Mutex;
use support::{builder, synth_frame};

/// Sliding window length (the serving `T`).
const HISTORY: usize = 3;

/// Serialises the tests that build a fabric: every fabric reserves
/// workers from the process-wide `m2ai-par` thread budget, which the
/// clamping test counts exactly.
static BUDGET_LOCK: Mutex<()> = Mutex::new(());

/// Restores the default thread budget when a test body exits (even on
/// panic).
struct RestoreBudget;
impl Drop for RestoreBudget {
    fn drop(&mut self) {
        budget::set_total_threads(0);
    }
}

fn model() -> SequenceClassifier {
    support::model(Architecture::CnnLstm)
}

/// A small calibration corpus shaped like the serving traffic.
fn calib_sequences() -> Vec<Vec<Vec<f32>>> {
    (0..4u64)
        .map(|s| (0..HISTORY).map(|t| synth_frame(s, t)).collect())
        .collect()
}

fn quantized_model() -> SequenceClassifier {
    let mut m = model();
    let calib = calib_sequences();
    m.prepare_quantized(calib.iter().map(|s| s.as_slice()));
    assert!(m.is_quantized(), "calibration must freeze quant state");
    m
}

/// Live engines the `m2ai_kernels_backend_active` gauge counts under
/// `backend`.
fn engines_on(backend: &str) -> i64 {
    match m2ai::obs::find("m2ai_kernels_backend_active", &[("backend", backend)]) {
        Some(MetricValue::Gauge(v)) => v,
        _ => 0,
    }
}

#[test]
fn serve_engine_applies_configured_backend() {
    // Each engine steps on its own configured backend: a Reference
    // engine bit-matches the model stepped on a Reference scratch, a
    // Fast engine the model on a Fast scratch, side by side.
    let m = model();
    let frames: Vec<Vec<f32>> = (0..HISTORY).map(|t| synth_frame(3, t)).collect();
    let mut last = Vec::new();
    for backend in [Backend::Reference, Backend::Fast] {
        let mut eng = ServeEngine::new(
            m.clone(),
            builder(),
            ServeConfig {
                history_len: HISTORY,
                backend,
                ..ServeConfig::default()
            },
        );
        let id = eng.open_session().expect("capacity");
        for (t, f) in frames.iter().enumerate() {
            eng.push_frame(id, t as f64, f.clone(), HealthState::Healthy)
                .expect("queue capacity");
        }
        let got = eng.drain();
        let mut scratch = KernelScratch::with_backend(backend);
        let mut state = m.stream_state(HISTORY);
        let mut want = Vec::new();
        for f in &frames {
            want = m.step_with(f, &mut state, &mut scratch);
        }
        assert_eq!(got.len(), 1, "{backend:?}: one full window");
        assert_eq!(got[0].probabilities, want, "{backend:?}: engine backend");
        last.push(want);
    }
    assert_ne!(
        last[0], last[1],
        "Reference and Fast round differently here, so the check bites"
    );

    // The gauge counts this engine under its backend while it lives;
    // no other test in this binary builds a Reference engine.
    let before = engines_on("reference");
    let eng = ServeEngine::new(
        m,
        builder(),
        ServeConfig {
            backend: Backend::Reference,
            ..ServeConfig::default()
        },
    );
    assert_eq!(engines_on("reference"), before + 1);
    drop(eng);
    assert_eq!(engines_on("reference"), before);
}

fn fields(p: &ServePrediction) -> (f64, usize, &[f32], f32, HealthState) {
    (p.time_s, p.class, &p.probabilities, p.confidence, p.health)
}

#[test]
fn fabric_serves_quantized_end_to_end() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serve = ServeConfig {
        history_len: HISTORY,
        queue_capacity: 1024,
        ..ServeConfig::default()
    };
    let cfg = FabricConfig {
        shards: 2,
        vnodes: 16,
        ingress_capacity: 4096,
        serve: serve.clone(),
        supervision: Default::default(),
    };
    let qm = quantized_model();
    let fabric = ServeFabric::new(qm.clone(), builder(), cfg);
    let mut bare = ServeEngine::new(qm, builder(), serve);
    let keys: Vec<_> = (0..4)
        .map(|_| fabric.open_session().expect("capacity"))
        .collect();
    let ids: Vec<_> = keys
        .iter()
        .map(|_| bare.open_session().expect("capacity"))
        .collect();
    for t in 0..6 {
        for (s, &key) in keys.iter().enumerate() {
            let frame = synth_frame(s as u64, t);
            bare.push_frame(ids[s], t as f64, frame.clone(), HealthState::Healthy)
                .expect("queue capacity");
            loop {
                match fabric
                    .push_frame(key, t as f64, frame.clone(), HealthState::Healthy)
                    .expect("session open")
                {
                    PushOutcome::Enqueued => break,
                    PushOutcome::Shed => std::thread::yield_now(),
                }
            }
        }
    }
    let out = fabric.flush();
    fabric.shutdown();
    let want = bare.drain();
    assert!(
        !out.is_empty(),
        "quantized fabric must emit predictions once windows fill"
    );
    let f32_probs =
        model().predict_proba(&(0..HISTORY).map(|t| synth_frame(0, t)).collect::<Vec<_>>());
    for (s, &key) in keys.iter().enumerate() {
        let got: Vec<_> = out.iter().filter(|p| p.session == key).collect();
        let mine: Vec<_> = want.iter().filter(|p| p.session == ids[s]).collect();
        assert!(!mine.is_empty(), "stream {s}: the oracle emitted nothing");
        assert_eq!(got.len(), mine.len(), "stream {s}: prediction count");
        for (g, w) in got.iter().zip(&mine) {
            assert!(
                g.prediction.probabilities.iter().all(|v| v.is_finite()),
                "int8 serving must produce finite probabilities"
            );
            assert_eq!(
                fields(&g.prediction),
                fields(w),
                "stream {s} (shard {}): must bit-match the bare int8 engine",
                g.shard
            );
        }
    }
    let first = out
        .iter()
        .find(|p| p.session == keys[0])
        .expect("stream 0 emitted");
    assert_ne!(
        first.prediction.probabilities, f32_probs,
        "the fabric must serve through the int8 state, not f32"
    );
}

#[test]
fn fabric_with_shards_eq_cores_clamps_gemm_to_one_thread() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = RestoreBudget;
    // Pretend the machine has 4 cores so the test is deterministic on
    // any host.
    budget::set_total_threads(4);
    let reserved_before = budget::reserved_workers();

    let cfg = FabricConfig {
        shards: 4,
        vnodes: 16,
        ingress_capacity: 64,
        serve: ServeConfig {
            history_len: HISTORY,
            ..ServeConfig::default()
        },
        supervision: Default::default(),
    };
    let fabric = ServeFabric::new(model(), builder(), cfg);
    assert_eq!(
        budget::reserved_workers(),
        reserved_before + 4,
        "the fabric must reserve one budget slot per shard"
    );
    assert_eq!(
        budget::gemm_threads(),
        1,
        "shards == cores must leave GEMM single-threaded (no oversubscription)"
    );
    fabric.shutdown();
    assert_eq!(
        budget::reserved_workers(),
        reserved_before,
        "shutdown must release the reservation"
    );
}
