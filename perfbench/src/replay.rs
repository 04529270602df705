//! Single-threaded replay of a workload's inputs through each layer's
//! public entry point, with the benchmark's spans around every call.
//!
//! The replay regenerates a slice of the workload's sessions with
//! `Reader::run` and drives the same recordings through
//! `SessionWindow::push`, `StreamExtractor::{ingest,extract}`,
//! `FrameBuilder::build_frame_with_quality`,
//! `SequenceClassifier::step_batch_with` (serving steps and training
//! samples) and `ServeEngine::{push_frame,tick}`. Work inside a call
//! that the benchmark cannot wrap is read from the program's own
//! histograms around the call and recorded as child spans.

use crate::inputs::{
    serve_config, serve_inputs, Deployment, Push, SessionInput, RECORDING_WINDOWS,
    ROUNDS_PER_WINDOW, SESSION_RECORDINGS,
};
use crate::spans::{layer_times, LayerTime, SpanRecord, Tracer};
use crate::windows::{WindowClock, HISTORY, WINDOW_S};
use m2ai_core::online::{SessionWindow, WindowEvent};
use m2ai_core::serve::ServeEngine;
use m2ai_core::stream_extract::{StreamExtractor, StreamingExtract};
use m2ai_kernels::KernelScratch;
use m2ai_nn::model::SequenceClassifier;
use m2ai_obs::Histogram;
use m2ai_rfsim::reading::TagReading;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sessions in the replayed slice.
pub const SESSIONS: usize = 8;

/// Program histograms the replay reads around its calls.
struct Hists {
    stages: [(&'static str, Histogram); 4],
    scan: Histogram,
    gemm: [Histogram; 3],
    step: Histogram,
}

fn hist(name: &'static str, labels: m2ai_obs::LabelSet) -> Histogram {
    m2ai_obs::histogram(name, "", labels, &m2ai_obs::latency_buckets())
}

impl Hists {
    fn resolve() -> Self {
        let stage = "m2ai_extract_stage_seconds";
        let gemm = "m2ai_kernels_gemm_seconds";
        Hists {
            stages: [
                ("calibration", hist(stage, &[("stage", "calibration")])),
                ("music", hist(stage, &[("stage", "music")])),
                ("periodogram", hist(stage, &[("stage", "periodogram")])),
                ("stream_window", hist(stage, &[("stage", "stream_window")])),
            ],
            scan: hist("m2ai_extract_stream_scan_seconds", &[]),
            gemm: [
                hist(gemm, &[("shape_class", "small")]),
                hist(gemm, &[("shape_class", "medium")]),
                hist(gemm, &[("shape_class", "large")]),
            ],
            step: hist("m2ai_nn_forward_seconds", &[("path", "step")]),
        }
    }

    /// Seconds inside the DSP kernels proper: the batch stages and the
    /// streaming scan (everything but the `stream_window` envelope).
    fn dsp(&self) -> f64 {
        self.stages[..3].iter().map(|(_, h)| h.sum()).sum::<f64>() + self.scan.sum()
    }

    fn stream_window(&self) -> f64 {
        self.stages[3].1.sum()
    }

    fn gemm(&self) -> (f64, u64) {
        self.gemm
            .iter()
            .fold((0.0, 0), |(s, n), h| (s + h.sum(), n + h.count()))
    }
}

/// Runs `f` in a span of `name`. `children` reads, per child layer, a
/// cumulative seconds total from the program's histograms; what each
/// total grows by across the call becomes a child span of that layer.
fn call<R>(
    tr: &mut Tracer,
    name: &'static str,
    children: impl Fn() -> Vec<(&'static str, f64)>,
    f: impl FnOnce() -> R,
) -> R {
    if !tr.enabled() {
        return f();
    }
    tr.span(name, |tr| {
        let before = children();
        let out = f();
        for ((layer, b), (_, a)) in before.into_iter().zip(children()) {
            tr.child_time(layer, a - b);
        }
        out
    })
}

/// What one replay pass did, besides its spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub recordings: usize,
    pub reads: usize,
    pub windows: usize,
    pub refresh_windows: usize,
    pub step_rows: usize,
    pub predictions: usize,
    pub serve_gemm_calls: u64,
    pub train_samples: usize,
    pub train_gemm_calls: u64,
}

/// One pass over the slice. Returns wall seconds and counts.
pub fn pass(
    tr: &mut Tracer,
    dep: &Deployment,
    model: &SequenceClassifier,
    seed: u64,
) -> (f64, Counts) {
    let h = Hists::resolve();
    let mut c = Counts::default();
    let t0 = Instant::now();
    tr.span("replay", |tr| {
        let inputs = call(tr, "rfsim.run", Vec::new, || {
            serve_inputs(dep, seed, SESSIONS, false)
        });
        c.recordings = inputs.recordings;
        let rounds: Vec<&Vec<Vec<TagReading>>> = inputs
            .sessions
            .iter()
            .map(|s| match s {
                SessionInput::Rounds(r) => r,
                SessionInput::Frames(_) => unreachable!("replay inputs are rounds"),
            })
            .collect();
        let frames = online(tr, &h, dep, &inputs.sessions);
        stream_extract(tr, &h, dep, &rounds, &mut c);
        frames_build(tr, &h, dep, &rounds);
        nn_step(tr, &h, model, &frames, &mut c);
        serve(tr, &h, dep, model, &frames, &mut c);
        train(tr, &h, model, &frames, &mut c);
    });
    (t0.elapsed().as_secs_f64(), c)
}

/// `SessionWindow::push` per round, as the serve engine's raw path
/// runs it; returns each session's frames.
fn online(
    tr: &mut Tracer,
    h: &Hists,
    dep: &Deployment,
    sessions: &[SessionInput],
) -> Vec<Vec<Vec<f32>>> {
    let mut out = Vec::new();
    let mut events = Vec::new();
    for s in sessions {
        let mut window = SessionWindow::new(dep.builder.clone(), HISTORY, serve_config().health)
            .with_streaming(StreamingExtract::default());
        let mut frames = Vec::new();
        // One extra round closes the last window.
        let pushes = s.pushes_per_window() * (SESSION_RECORDINGS * RECORDING_WINDOWS) as u64 + 1;
        for j in 0..pushes {
            let Push::Reads(r) = s.push(j) else {
                unreachable!("replay inputs are rounds")
            };
            call(
                tr,
                "online.push",
                || {
                    vec![
                        ("stream_extract", h.stream_window() - h.dsp()),
                        ("dsp", h.dsp()),
                    ]
                },
                || window.push(&r, &mut events),
            );
            for ev in events.drain(..) {
                if let WindowEvent::Frame { frame, .. } = ev {
                    frames.push(frame);
                }
            }
        }
        out.push(frames);
    }
    out
}

/// `StreamExtractor` driven directly: ingest per round, extract per
/// window once a round past its end has been ingested.
fn stream_extract(
    tr: &mut Tracer,
    h: &Hists,
    dep: &Deployment,
    rounds: &[&Vec<Vec<TagReading>>],
    c: &mut Counts,
) {
    for session in rounds {
        let mut ex = StreamExtractor::try_new(&dep.builder, StreamingExtract::default())
            .expect("paper timing is round-aligned");
        let mut clock = WindowClock::default();
        for round in session.iter() {
            c.reads += round.len();
            call(tr, "stream_extract.ingest", Vec::new, || {
                for r in round {
                    ex.ingest(r);
                }
            });
            let max_t = round.iter().map(|r| r.time_s).reduce(f64::max);
            for k in clock.advance(max_t) {
                let refresh = ex.next_is_refresh();
                c.windows += 1;
                c.refresh_windows += refresh as usize;
                let name = if refresh {
                    "stream_extract.refresh"
                } else {
                    "stream_extract.extract"
                };
                call(
                    tr,
                    name,
                    || vec![("dsp", h.dsp())],
                    || ex.extract(k as f64 * WINDOW_S),
                );
            }
        }
    }
}

/// The batch builder over each window of each recording, as dataset
/// generation runs it.
fn frames_build(tr: &mut Tracer, h: &Hists, dep: &Deployment, rounds: &[&Vec<Vec<TagReading>>]) {
    let per_recording = ROUNDS_PER_WINDOW * RECORDING_WINDOWS;
    for session in rounds {
        for (m, rec) in session.chunks(per_recording).enumerate() {
            let readings: Vec<TagReading> = rec.iter().flatten().cloned().collect();
            for w in 0..RECORDING_WINDOWS {
                let t0 = ((m * RECORDING_WINDOWS + w) as f64) * WINDOW_S;
                call(
                    tr,
                    "frames.build",
                    || vec![("dsp", h.dsp())],
                    || dep.builder.build_frame_with_quality(&readings, t0),
                );
            }
        }
    }
}

/// One batched model step per window across the slice's sessions.
fn nn_step(
    tr: &mut Tracer,
    h: &Hists,
    model: &SequenceClassifier,
    frames: &[Vec<Vec<f32>>],
    c: &mut Counts,
) {
    let mut states: Vec<_> = frames.iter().map(|_| model.stream_state(HISTORY)).collect();
    let mut scratch = KernelScratch::new();
    let windows = frames.iter().map(Vec::len).min().unwrap_or(0);
    for w in 0..windows {
        let rows: Vec<&[f32]> = frames.iter().map(|f| f[w].as_slice()).collect();
        let mut refs: Vec<_> = states.iter_mut().collect();
        c.step_rows += rows.len();
        call(
            tr,
            "nn.step",
            || vec![("kernels", h.gemm().0)],
            || model.step_batch_with(&rows, &mut refs, &mut scratch),
        );
    }
}

/// A bare engine over the same frames: push every session's frame,
/// then tick until drained.
fn serve(
    tr: &mut Tracer,
    h: &Hists,
    dep: &Deployment,
    model: &SequenceClassifier,
    frames: &[Vec<Vec<f32>>],
    c: &mut Counts,
) {
    let mut engine = ServeEngine::new(model.clone(), dep.builder.clone(), serve_config());
    let ids: Vec<_> = frames
        .iter()
        .map(|_| engine.open_session().expect("slice fits the engine"))
        .collect();
    let windows = frames.iter().map(Vec::len).min().unwrap_or(0);
    let gemm_before = h.gemm().1;
    for w in 0..windows {
        for (id, f) in ids.iter().zip(frames) {
            let frame = f[w].clone();
            call(tr, "serve.push", Vec::new, || {
                engine.push_frame(
                    *id,
                    (w + 1) as f64 * WINDOW_S,
                    frame,
                    m2ai_core::online::HealthState::Healthy,
                )
            })
            .expect("session is open");
        }
        while engine.pending() > 0 {
            let preds = call(
                tr,
                "serve.tick",
                || {
                    let gemm = h.gemm().0;
                    vec![("nn", h.step.sum() - gemm), ("kernels", gemm)]
                },
                || engine.tick(),
            );
            c.predictions += preds.len();
        }
    }
    c.serve_gemm_calls += h.gemm().1 - gemm_before;
}

/// Training samples: forward and backward over the first recording's
/// frames of each session.
fn train(
    tr: &mut Tracer,
    h: &Hists,
    model: &SequenceClassifier,
    frames: &[Vec<Vec<f32>>],
    c: &mut Counts,
) {
    let mut model = model.clone();
    let mut scratch = KernelScratch::new();
    let gemm_before = h.gemm().1;
    for (i, f) in frames.iter().enumerate() {
        let seq: Vec<Vec<f32>> = f.iter().take(RECORDING_WINDOWS).cloned().collect();
        call(
            tr,
            "nn.train",
            || vec![("kernels", h.gemm().0)],
            || model.loss_and_backprop_with(&seq, i % model.n_classes(), &mut scratch),
        );
        c.train_samples += 1;
    }
    c.train_gemm_calls += h.gemm().1 - gemm_before;
}

/// Per-stage `(count, sum)` of the DSP histograms, for per-call means.
pub fn dsp_snapshot() -> BTreeMap<&'static str, (u64, f64)> {
    let h = Hists::resolve();
    let mut out: BTreeMap<&'static str, (u64, f64)> = h
        .stages
        .iter()
        .map(|(name, hist)| (*name, (hist.count(), hist.sum())))
        .collect();
    out.insert("scan", (h.scan.count(), h.scan.sum()));
    let (sum, count) = h.gemm();
    out.insert("gemm", (count, sum));
    out
}

/// Layer self times, summed over several passes' spans.
pub fn layers(passes: &[Vec<SpanRecord>]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for spans in passes {
        for (name, t) in layer_times(spans) {
            let e = out.entry(name).or_default();
            e.total += t.total;
            e.self_time += t.self_time;
            e.count += t.count;
        }
    }
    out
}
