//! End-to-end and per-layer benchmark of the M²AI reads-to-predictions
//! path. See README.md in this directory for the workloads, the
//! metrics and what each layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <live-6tag|frames-64|offline-train|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones.

mod inputs;
mod offline;
mod replay;
mod serve;
mod spans;
mod stats;
mod windows;

use inputs::Deployment;
use serve::{Checked, FabricCalls, OpenLoop, Rig, Saturate, ServeSpec, Setups};
use spans::Tracer;
use stats::{median, quantile, tail};
use std::collections::BTreeMap;
use std::time::Instant;

const USAGE: &str = "usage: m2ai-perfbench --workload <live-6tag|frames-64|offline-train|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 3] = ["live-6tag", "frames-64", "offline-train"];

/// Set-ups per untraced run; `setup_s` is their median. A serve run
/// makes [`SETUPS_BEFORE`] of them before its phases (serving from the
/// last) and the rest after its checks, so that they sample the host
/// at different times.
const SETUP_REPEATS: usize = 5;
const SETUPS_BEFORE: usize = 2;

/// The quantile a run reports of its rate samples (half-second chunks of
/// serving, serve set-ups, `generate_dataset` calls): the lower
/// quartile, a rate sustained three quarters of the time. A small
/// shared host switches every few seconds between a fast and a slow
/// state ~40% apart, so a median or mean of a run's samples lands
/// wherever the run's mix of states puts it; the lower quartile lands in
/// the slow state whenever a quarter of the run was slow.
const RATE_QUANTILE: f64 = 0.25;

/// Share of a serve run spent open-loop; the rest saturates. Latency
/// needs a few half-second segments; throughput gets the longer phase
/// because the host's speed drifts over seconds.
const OPEN_LOOP_SHARE: f64 = 0.25;

/// Open-loop and saturating stretches a serve run alternates between,
/// so that both phases sample the host's fast and slow states over the
/// whole run rather than in one stretch each.
const PHASE_BLOCKS: usize = 3;

/// Share of an `offline-train` run spent generating datasets; training
/// and held-out classification do a fixed amount of work.
const OFFLINE_GEN_SHARE: f64 = 0.4;

/// Latency segments a run needs for its medians.
const MIN_SEGMENTS: usize = 3;

/// Replay passes per traced run, each traced and untraced.
const REPLAY_PASSES: usize = 3;

/// Raw reads, one inventory round per push, into 32 sessions. The
/// offered rate is about a third of the one-shard capacity of a 2-core
/// x86-64 box, whose capacity drifts between ~3.4k and ~8k
/// predictions/s with the host's load: at 1800/s its slowest minutes
/// pushed the open loop into queueing, and at 1000/s the idle worker's
/// wake-ups set the latency (see README.md).
const LIVE: ServeSpec = ServeSpec {
    sessions: 32,
    frames: false,
    offered_per_s: 1400.0,
};

/// Pre-extracted frames into 64 sessions, the engine's default cap; the
/// offered rate is likewise about a quarter of the capacity (~15–27k
/// predictions/s).
const FRAMES: ServeSpec = ServeSpec {
    sessions: 64,
    frames: true,
    offered_per_s: 5000.0,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One reported metric with the sample count behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: u64,
}

fn m(name: &'static str, value: f64, unit: &'static str, n: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    notes: Vec<String>,
    errors: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Process high-water resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Adds `latency_p50_ms`: the median, over the segments of the run, of
/// each segment's median, which a minority of segments caught in a
/// stall or a queueing spell cannot move. The tail — p90, p99 and the whole
/// run's highest supported percentile, with the sample count — is
/// reported but not gated: on a 2-core box it is set by
/// multi-millisecond scheduling stalls whose run-to-run spread is
/// several times any usable bound.
fn latency_metrics(r: &mut Report, what: &str, segments: &[Vec<f64>]) {
    let all: Vec<f64> = segments.iter().flatten().copied().collect();
    let full: Vec<&Vec<f64>> = segments.iter().filter(|s| tail(s).is_some()).collect();
    let Some(t) = tail(&all).filter(|_| full.len() >= MIN_SEGMENTS) else {
        r.errors.push(format!(
            "{what}: {} segments support a median, need {MIN_SEGMENTS}",
            full.len()
        ));
        return;
    };
    let p50 = median(&full.iter().map(|s| median(s)).collect::<Vec<_>>());
    r.metrics
        .push(m("latency_p50_ms", p50, "ms", all.len() as u64));
    r.notes.push(format!(
        "{what}: n={} in {} segments; whole run p50={:.4} ms, p90={:.4} ms, p99={:.4} ms, highest supported p{}={:.4} ms",
        t.n,
        full.len(),
        t.p50,
        quantile(&all, 0.9),
        quantile(&all, 0.99),
        t.tail_pct,
        t.tail
    ));
}

/// Records failures, each term as `(name, failures, attempts)`, against
/// `attempted` operations in all (terms may share an attempt base).
fn failure_terms(r: &mut Report, attempted: u64, terms: &[(&str, u64, u64)]) {
    r.attempted = attempted;
    r.failed = terms.iter().map(|t| t.1).sum();
    let parts: Vec<String> = terms
        .iter()
        .map(|(name, f, a)| format!("{name} {f}/{a}"))
        .collect();
    r.notes.push(format!(
        "failed_ratio {:.6} ({})",
        r.failed as f64 / r.attempted.max(1) as f64,
        parts.join(", ")
    ));
}

fn check_terms(c: &Checked) -> Vec<(&'static str, u64, u64)> {
    vec![
        ("missing predictions", c.missing, c.expected),
        ("duplicated predictions", c.duplicated, c.expected),
        ("wrong predictions", c.wrong, c.expected),
        ("engine-queue sheds", c.engine_shed, c.expected),
    ]
}

fn run_serve(spec: ServeSpec, a: &Args) -> Report {
    let mut r = Report::default();
    let mut setups = Setups::default();
    let mut rig = setups.run(spec, a.seed, SETUPS_BEFORE, None);
    let (mut open, mut sat) = (OpenLoop::default(), Saturate::default());
    let block_s = a.seconds / PHASE_BLOCKS as f64;
    for _ in 0..PHASE_BLOCKS {
        open.extend(rig.open_loop(OPEN_LOOP_SHARE * block_s));
        sat.extend(rig.saturate((1.0 - OPEN_LOOP_SHARE) * block_s));
    }
    // The high-water mark of serving, before the checks' replay.
    let peak_rss = peak_rss_mb();
    let c = rig.finish();
    drop(setups.run(spec, a.seed, SETUP_REPEATS - SETUPS_BEFORE, None));
    r.metrics.push(m(
        "setup_s",
        median(&setups.secs),
        "s",
        SETUP_REPEATS as u64,
    ));
    r.metrics.push(m(
        "throughput_per_s",
        quantile(&sat.chunk_rates, RATE_QUANTILE),
        "1/s",
        sat.predictions,
    ));
    r.notes.push(format!(
        "saturating: {} predictions in {:.3} s from first push to flush ({:.1}/s); half-second chunks: n={} min {:.1} lower quartile {:.1} median {:.1} max {:.1}",
        sat.predictions,
        sat.secs,
        sat.predictions as f64 / sat.secs,
        sat.chunk_rates.len(),
        quantile(&sat.chunk_rates, 0.0),
        quantile(&sat.chunk_rates, RATE_QUANTILE),
        median(&sat.chunk_rates),
        quantile(&sat.chunk_rates, 1.0)
    ));
    latency_metrics(
        &mut r,
        &format!("open loop at {} predictions/s", spec.offered_per_s),
        &open.latency_ms,
    );
    r.metrics.push(m(
        "gen_samples_per_s",
        quantile(&setups.gen_rates, RATE_QUANTILE),
        "samples/s",
        (spec.sessions * inputs::SESSION_RECORDINGS * SETUP_REPEATS) as u64,
    ));
    r.metrics.push(m("peak_rss_mb", peak_rss, "MiB", 1));
    r.notes.push(format!(
        "generator lag p99 {:.4} ms over {} pushes",
        quantile(&open.lag_ms, 0.99),
        open.lag_ms.len()
    ));
    failure_terms(&mut r, c.expected, &check_terms(&c));
    r.notes.push(format!(
        "edge refusals, all retried: fabric {} (open loop {} of {} pushes, then set-up and saturating)",
        c.fabric_edge_shed, open.retried, open.attempts
    ));
    r.errors.extend(c.errors);
    r
}

fn run_offline(a: &Args) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t0 = Instant::now();
        let s = offline::setup(a.seed);
        setups.push(t0.elapsed().as_secs_f64());
        s
    };
    for _ in 1..SETUPS_BEFORE {
        timed_setup();
    }
    let o = offline::run(&timed_setup(), a.seed, OFFLINE_GEN_SHARE * a.seconds);
    for _ in SETUPS_BEFORE..SETUP_REPEATS {
        timed_setup();
    }
    r.metrics
        .push(m("setup_s", median(&setups), "s", SETUP_REPEATS as u64));
    let trained = (o.train_samples * offline::EPOCHS) as u64;
    r.metrics.push(m(
        "throughput_per_s",
        trained as f64 / o.train_s,
        "1/s",
        trained,
    ));
    latency_metrics(&mut r, "held-out classification", &o.latency_ms);
    r.metrics.push(m(
        "gen_samples_per_s",
        o.dataset_samples as f64 / quantile(&o.gen_s, 1.0 - RATE_QUANTILE),
        "samples/s",
        (o.dataset_samples * o.gen_s.len()) as u64,
    ));
    r.metrics.push(m("peak_rss_mb", peak_rss_mb(), "MiB", 1));
    r.notes.push(format!(
        "held-out accuracy {:.4} (floor {}), {} epochs",
        o.accuracy,
        offline::ACCURACY_FLOOR,
        offline::EPOCHS
    ));
    failure_terms(
        &mut r,
        o.batches,
        &[(
            "non-finite training batches skipped",
            o.skipped_batches,
            o.batches,
        )],
    );
    r.errors.extend(o.errors);
    r
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

fn obs_hist(name: &str, labels: &[(&str, &str)]) -> Option<m2ai_obs::HistogramSnapshot> {
    match m2ai_obs::find(name, labels) {
        Some(m2ai_obs::MetricValue::Histogram(h)) => Some(h),
        _ => None,
    }
}

fn obs_counter(name: &str) -> u64 {
    match m2ai_obs::find(name, &[]) {
        Some(m2ai_obs::MetricValue::Counter(c)) => c,
        _ => 0,
    }
}

/// The program's histograms and counters the traced fabric run reads.
struct ObsPoint {
    hists: Vec<Option<m2ai_obs::HistogramSnapshot>>,
    checkpoints: u64,
}

const OBS_HISTS: [(&str, &[(&str, &str)]); 5] = [
    ("m2ai_fabric_ingress_wait_seconds", &[("shard", "0")]),
    ("m2ai_fabric_checkpoint_seconds", &[]),
    ("m2ai_serve_batch_size", &[]),
    ("m2ai_serve_prediction_seconds", &[]),
    ("m2ai_nn_forward_seconds", &[("path", "step")]),
];

fn obs_point() -> ObsPoint {
    ObsPoint {
        hists: OBS_HISTS.iter().map(|(n, l)| obs_hist(n, l)).collect(),
        checkpoints: obs_counter("m2ai_fabric_checkpoints_total"),
    }
}

fn hist_delta(
    after: &Option<m2ai_obs::HistogramSnapshot>,
    before: &Option<m2ai_obs::HistogramSnapshot>,
) -> Option<m2ai_obs::HistogramSnapshot> {
    match (after, before) {
        (Some(a), Some(b)) => Some(a.delta(b)),
        (Some(a), None) => Some(a.clone()),
        _ => None,
    }
}

/// A traced fabric run (sampling every trace): open loop, then
/// saturating, for half the untraced durations. Returns its metrics and
/// leaves the rig's checks to the report.
fn traced_fabric(r: &mut Report, mut rig: Rig, seed: u64, seconds: f64) {
    m2ai_obs::trace::seed_trace_ids(seed);
    m2ai_obs::trace::set_trace_config(m2ai_obs::TraceConfig { sample_one_in_n: 1 });
    rig.calls = Some(FabricCalls::default());
    let before = obs_point();
    let shed_before = rig.edge_sheds_seen;
    let open = rig.open_loop(0.5 * OPEN_LOOP_SHARE * seconds);
    let sat = rig.saturate(0.5 * (1.0 - OPEN_LOOP_SHARE) * seconds);
    let after = obs_point();
    let calls = rig.calls.expect("set above");
    let edge_shed = rig.edge_sheds_seen - shed_before;
    let c = rig.finish();
    m2ai_obs::trace::set_trace_config(m2ai_obs::TraceConfig { sample_one_in_n: 0 });
    drop(m2ai_obs::trace::take_spans());

    let d: Vec<_> = after
        .hists
        .iter()
        .zip(&before.hists)
        .map(|(a, b)| hist_delta(a, b))
        .collect();
    let q = |h: &Option<m2ai_obs::HistogramSnapshot>, p: f64| {
        h.as_ref().map_or(f64::NAN, |h| h.quantile(p).value)
    };
    let mean = |h: &Option<m2ai_obs::HistogramSnapshot>| h.as_ref().map_or(f64::NAN, |h| h.mean());
    let count = |h: &Option<m2ai_obs::HistogramSnapshot>| h.as_ref().map_or(0, |h| h.count);
    let windows: usize = open.latency_ms.iter().map(Vec::len).sum();
    r.metrics.extend([
        m(
            "fabric.push_us",
            calls.push.mean_us(),
            "us",
            calls.push.calls,
        ),
        m(
            "fabric.poll_us",
            calls.poll.mean_us(),
            "us",
            calls.poll.calls,
        ),
        m("fabric.edge_shed", edge_shed as f64, "count", 1),
        m(
            "fabric.ingress_wait_p50_ms",
            q(&d[0], 0.5) * 1e3,
            "ms",
            count(&d[0]),
        ),
        m(
            "fabric.ingress_wait_p99_ms",
            q(&d[0], 0.99) * 1e3,
            "ms",
            count(&d[0]),
        ),
        m(
            "fabric.checkpoints",
            (after.checkpoints - before.checkpoints) as f64,
            "count",
            1,
        ),
        m(
            "fabric.checkpoint_ms",
            mean(&d[1]) * 1e3,
            "ms",
            count(&d[1]),
        ),
        m("serve.batch_rows_mean", mean(&d[2]), "rows", count(&d[2])),
        m("serve.engine_shed", c.engine_shed as f64, "count", 1),
        m(
            "nn.step_rows_per_call",
            count(&d[3]) as f64 / count(&d[4]).max(1) as f64,
            "rows",
            count(&d[4]),
        ),
        m(
            "harness.gen_lag_p99_ms",
            quantile(&open.lag_ms, 0.99),
            "ms",
            open.lag_ms.len() as u64,
        ),
    ]);
    r.notes.push(format!(
        "traced fabric: {} open-loop windows, {} saturating predictions, flush {:.1} us x{}",
        windows,
        sat.predictions,
        calls.flush.mean_us(),
        calls.flush.calls
    ));
    r.errors.extend(c.errors);
}

/// The single-threaded layer replay, untraced and traced.
fn replay_metrics(
    r: &mut Report,
    dep: &Deployment,
    model: &m2ai_nn::model::SequenceClassifier,
    seed: u64,
) {
    // Warm lazily built state (steering tables, registries) first.
    replay::pass(&mut Tracer::new(false), dep, model, seed);
    let dsp0 = replay::dsp_snapshot();
    let mut walls = (Vec::new(), Vec::new());
    let mut span_sets = Vec::new();
    let mut counts = replay::Counts::default();
    for _ in 0..REPLAY_PASSES {
        walls
            .0
            .push(replay::pass(&mut Tracer::new(false), dep, model, seed).0);
        let mut tr = Tracer::new(true);
        let (wall, c) = replay::pass(&mut tr, dep, model, seed);
        walls.1.push(wall);
        span_sets.push(tr.spans().to_vec());
        counts.recordings += c.recordings;
        counts.reads += c.reads;
        counts.windows += c.windows;
        counts.refresh_windows += c.refresh_windows;
        counts.step_rows += c.step_rows;
        counts.predictions += c.predictions;
        counts.serve_gemm_calls += c.serve_gemm_calls;
        counts.train_samples += c.train_samples;
        counts.train_gemm_calls += c.train_gemm_calls;
    }
    let dsp1 = replay::dsp_snapshot();
    let l = replay::layers(&span_sets);
    let get = |name: &str| l.get(name).cloned().unwrap_or_default();
    let root = get("replay");
    let closure = (root.total - root.self_time) / root.total;
    let per = |x: f64, n: usize| x / n.max(1) as f64;
    let extract = get("stream_extract.extract").total + get("stream_extract.refresh").total;
    let dsp_us = |stage: &str| {
        let (c0, s0) = dsp0[stage];
        let (c1, s1) = dsp1[stage];
        (s1 - s0) / (c1 - c0).max(1) as f64 * 1e6
    };
    let dsp_n = |stage: &str| dsp1[stage].0 - dsp0[stage].0;
    let tick = get("serve.tick");
    let w = counts.windows;
    r.metrics.extend([
        m(
            "online.self_us_per_window",
            per(get("online.push").self_time, w) * 1e6,
            "us",
            w as u64,
        ),
        m(
            "stream_extract.ingest_us_per_read",
            per(get("stream_extract.ingest").total, counts.reads) * 1e6,
            "us",
            counts.reads as u64,
        ),
        m(
            "stream_extract.extract_us_per_window",
            per(extract, w) * 1e6,
            "us",
            w as u64,
        ),
        m(
            "stream_extract.refresh_us_per_window",
            per(get("stream_extract.refresh").total, counts.refresh_windows) * 1e6,
            "us",
            counts.refresh_windows as u64,
        ),
        m(
            "stream_extract.refresh_ratio",
            per(counts.refresh_windows as f64, w),
            "ratio",
            w as u64,
        ),
        m(
            "dsp.calibration_us",
            dsp_us("calibration"),
            "us",
            dsp_n("calibration"),
        ),
        m("dsp.music_us", dsp_us("music"), "us", dsp_n("music")),
        m(
            "dsp.periodogram_us",
            dsp_us("periodogram"),
            "us",
            dsp_n("periodogram"),
        ),
        m(
            "dsp.stream_window_us",
            dsp_us("stream_window"),
            "us",
            dsp_n("stream_window"),
        ),
        m("dsp.scan_us", dsp_us("scan"), "us", dsp_n("scan")),
        m(
            "frames.build_us_per_window",
            per(get("frames.build").total, get("frames.build").count) * 1e6,
            "us",
            get("frames.build").count as u64,
        ),
        m(
            "rfsim.run_ms_per_sample",
            per(get("rfsim.run").total, counts.recordings) * 1e3,
            "ms",
            counts.recordings as u64,
        ),
        m(
            "nn.step_us_per_row",
            per(get("nn.step").total, counts.step_rows) * 1e6,
            "us",
            counts.step_rows as u64,
        ),
        m(
            "kernels.gemm_calls_per_pred",
            per(counts.serve_gemm_calls as f64, counts.predictions),
            "count",
            counts.predictions as u64,
        ),
        m(
            "kernels.gemm_us_per_call",
            dsp_us("gemm"),
            "us",
            dsp_n("gemm"),
        ),
        m(
            "kernels.gemm_calls_per_train_sample",
            per(counts.train_gemm_calls as f64, counts.train_samples),
            "count",
            counts.train_samples as u64,
        ),
        m(
            "serve.tick_self_us",
            per(tick.self_time, tick.count) * 1e6,
            "us",
            tick.count as u64,
        ),
        m(
            "trace.overhead_ratio",
            median(&walls.1) / median(&walls.0),
            "ratio",
            REPLAY_PASSES as u64,
        ),
        m(
            "trace.closure_ratio",
            closure,
            "ratio",
            REPLAY_PASSES as u64,
        ),
    ]);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, t) in &l {
        if *name != "replay" {
            *by_layer
                .entry(name.split('.').next().unwrap_or(name))
                .or_default() += t.self_time;
        }
    }
    let shares: Vec<String> = by_layer
        .iter()
        .map(|(k, v)| format!("{k} {:.1}%", 100.0 * v / root.total))
        .collect();
    r.notes.push(format!(
        "replay self time by layer ({:.1} ms per pass): {}",
        root.total / REPLAY_PASSES as f64 * 1e3,
        shares.join(", ")
    ));
    if closure < 0.9 {
        r.errors.push(format!(
            "layer self times cover only {:.1}% of the replay",
            closure * 100.0
        ));
    }
}

fn run_traced(name: &str, a: &Args) -> Report {
    let mut r = Report::default();
    let par_before = obs_counter("m2ai_par_tasks_total");
    let spec = match name {
        "live-6tag" => Some(LIVE),
        "frames-64" => Some(FRAMES),
        _ => None,
    };
    match spec {
        Some(spec) => {
            let rig = Setups::default().run(spec, a.seed, 1, None);
            replay_metrics(&mut r, rig.deployment(), rig.model(), a.seed);
            traced_fabric(&mut r, rig, a.seed, a.seconds);
        }
        None => {
            // Offline training has no fabric of its own: its per-layer
            // fabric and serve figures come from serving the model it
            // trained, frames-64 style.
            let setup = offline::setup(a.seed);
            let o = offline::run(&setup, a.seed, 0.0);
            r.errors.extend(o.errors);
            let dep = Deployment::new(a.seed);
            replay_metrics(&mut r, &dep, &o.outcome.model, a.seed);
            let (rig, _) = Rig::setup(FRAMES, a.seed, Some(o.outcome.model.clone()));
            traced_fabric(&mut r, rig, a.seed, a.seconds);
        }
    }
    r.metrics.push(m(
        "par.tasks",
        (obs_counter("m2ai_par_tasks_total") - par_before) as f64,
        "count",
        1,
    ));
    r.attempted = 1;
    r
}

fn run(name: &str, a: &Args) -> Report {
    match (name, a.trace) {
        (_, true) => run_traced(name, a),
        ("live-6tag", false) => run_serve(LIVE, a),
        ("frames-64", false) => run_serve(FRAMES, a),
        _ => run_offline(a),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut reports = Vec::new();
    for name in &names {
        let t0 = Instant::now();
        let r = run(name, &args);
        println!(
            "== {name} (seed {}, {} s, trace {}, {cores} cores) in {:.1} s",
            args.seed,
            args.seconds,
            args.trace as u8,
            t0.elapsed().as_secs_f64()
        );
        for note in &r.notes {
            println!("   {note}");
        }
        for x in &r.metrics {
            println!(
                "   {:<40} {:>14.6} {:<10} n={}",
                x.name, x.value, x.unit, x.n
            );
        }
        for e in &r.errors {
            println!("   CHECK FAILED: {e}");
        }
        reports.push((name, r));
    }
    let correct = reports.iter().all(|(_, r)| r.correct());
    let prefixed = names.len() > 1;
    let metrics: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|(name, r)| {
            r.metrics.iter().map(move |x| {
                let key = if prefixed {
                    format!("{name}/{}", x.name)
                } else {
                    x.name.to_string()
                };
                (key, x)
            })
        })
        .collect();
    let attempted = reports.iter().map(|(_, r)| r.attempted).sum::<u64>().max(1);
    let failed = reports.iter().map(|(_, r)| r.failed).sum();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
