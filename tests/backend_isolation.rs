//! Engines own their kernel backend.
//!
//! The backend is a value carried by each engine's `KernelScratch`, so
//! engines with different backends, or an int8-prepared model beside
//! its f32 parent, can serve in one process at the same time without
//! touching each other's numerics. Each engine here runs on its own
//! thread, concurrently with its partner, and must bit-match its solo
//! run.

mod support;

use m2ai::core::network::Architecture;
use m2ai::core::online::HealthState;
use m2ai::core::serve::{ServeConfig, ServeEngine};
use m2ai::kernels::{Backend, KernelScratch};
use m2ai::nn::model::SequenceClassifier;
use m2ai::nn::Parameterized;
use std::sync::Barrier;
use support::{builder, model, synth_frame};

/// Sliding window length (the serving `T`).
const HISTORY: usize = 3;

/// Sessions per engine.
const STREAMS: usize = 4;

/// Frames pushed per session.
const STEPS: usize = 8;

/// Times each engine is rebuilt and replayed while its partner runs,
/// so the two threads overlap for many ticks.
const ROUNDS: usize = 6;

/// One engine over the fixed trace: `(time_s, class, probabilities)`
/// of every prediction, in emission order.
fn serve(m: &SequenceClassifier, backend: Backend) -> Vec<(f64, usize, Vec<f32>)> {
    let mut eng = ServeEngine::new(
        m.clone(),
        builder(),
        ServeConfig {
            history_len: HISTORY,
            backend,
            ..ServeConfig::default()
        },
    );
    let ids: Vec<_> = (0..STREAMS)
        .map(|_| eng.open_session().expect("capacity"))
        .collect();
    let mut out = Vec::new();
    for t in 0..STEPS {
        for (s, &id) in ids.iter().enumerate() {
            eng.push_frame(id, t as f64, synth_frame(s as u64, t), HealthState::Healthy)
                .expect("queue capacity");
        }
        // Tick as frames arrive, so the partner thread interleaves
        // with many small batched steps.
        out.extend(
            eng.tick()
                .into_iter()
                .map(|p| (p.time_s, p.class, p.probabilities)),
        );
    }
    out.extend(
        eng.drain()
            .into_iter()
            .map(|p| (p.time_s, p.class, p.probabilities)),
    );
    out
}

/// Runs `a` and `b` on two threads at once, `ROUNDS` times each, and
/// checks every round against the solo run computed beforehand.
fn assert_side_by_side(a: (&SequenceClassifier, Backend), b: (&SequenceClassifier, Backend)) {
    let solo_a = serve(a.0, a.1);
    let solo_b = serve(b.0, b.1);
    assert!(!solo_a.is_empty(), "trace too short to emit");
    assert_ne!(
        solo_a, solo_b,
        "the two engines must differ for the test to bite"
    );
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for ((m, backend), solo) in [(a, &solo_a), (b, &solo_b)] {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    assert_eq!(
                        &serve(m, backend),
                        solo,
                        "{backend:?} engine diverged from its solo run in round {round}"
                    );
                }
            });
        }
    });
}

#[test]
fn reference_and_fast_engines_serve_side_by_side() {
    let m = model(Architecture::CnnLstm);
    assert_side_by_side((&m, Backend::Reference), (&m, Backend::Fast));
}

fn prepared(m: &SequenceClassifier) -> SequenceClassifier {
    let calib: Vec<Vec<Vec<f32>>> = (0..STREAMS as u64)
        .map(|s| (0..HISTORY).map(|t| synth_frame(s, t)).collect())
        .collect();
    let mut q = m.clone();
    q.prepare_quantized(calib.iter().map(Vec::as_slice));
    assert!(q.is_quantized());
    q
}

#[test]
fn int8_engine_serves_beside_its_f32_parent() {
    let parent = model(Architecture::CnnLstm);
    let int8 = prepared(&parent);
    assert_side_by_side((&int8, Backend::Fast), (&parent, Backend::Fast));
}

fn grads(m: &mut SequenceClassifier) -> Vec<f32> {
    let mut out = Vec::new();
    m.visit_params(&mut |_, g| out.extend_from_slice(g));
    out
}

#[test]
fn prepared_model_trains_like_its_unprepared_parent() {
    let mut parent = model(Architecture::CnnLstm);
    let mut int8 = prepared(&parent);
    let frames: Vec<Vec<f32>> = (0..HISTORY).map(|t| synth_frame(9, t)).collect();
    let loss_f32 = parent.loss_and_backprop_with(&frames, 4, &mut KernelScratch::new());
    let loss_int8 = int8.loss_and_backprop_with(&frames, 4, &mut KernelScratch::new());
    assert_eq!(
        loss_int8.to_bits(),
        loss_f32.to_bits(),
        "training forward is f32"
    );
    assert_eq!(grads(&mut int8), grads(&mut parent));
    assert!(!int8.is_quantized(), "training drops the stale int8 state");
}
