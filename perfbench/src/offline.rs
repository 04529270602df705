//! The offline-train workload: paper-default dataset generation and
//! training on two worker threads, then held-out classification.

use crate::inputs::experiment;
use m2ai_core::dataset::{generate_dataset, DatasetBundle, ExperimentConfig};
use m2ai_core::pipeline::{train_m2ai, TrainOptions, TrainOutcome};
use m2ai_nn::train::train_test_split;
use std::time::Instant;

/// Training epochs: enough for held-out accuracy far above chance on
/// every seed tried while a run stays within its time budget (at 30,
/// seed 402 reached only 12.5%).
pub const EPOCHS: usize = 60;

/// Learning rate. At the paper default (0.05) some seeds stay near
/// chance (seed 64: 6% held-out after 30 epochs); at 0.02 and 60 epochs
/// seeds 1–12, 61–68 and 401–410 reached 23–46%.
const LR: f32 = 0.02;

/// Held-out accuracy every seed must clear: about twice chance (1/12),
/// and well below the lowest accuracy measured at [`EPOCHS`] and [`LR`].
pub const ACCURACY_FLOOR: f64 = 0.15;

/// Timed `generate_dataset` calls: at least this many, and more until
/// they have taken `gen_secs`.
const GEN_REPEATS: usize = 3;

/// Recordings per class regenerated serially for the determinism check.
const CHECK_PER_CLASS: usize = 2;

/// Held-out classification latency is measured in segments of at least
/// this many classifications (whole passes over the test split).
const SEGMENT_CLASSIFICATIONS: usize = 1000;

/// Latency segments per run.
const SEGMENTS: usize = 10;

/// What set-up leaves for the timed phases: the configuration and the
/// serially generated subset the parallel dataset must reproduce.
pub struct OfflineSetup {
    pub config: ExperimentConfig,
    subset: DatasetBundle,
}

pub fn setup(seed: u64) -> OfflineSetup {
    let config = experiment(seed);
    let subset = generate_dataset(&ExperimentConfig {
        samples_per_class: CHECK_PER_CLASS,
        n_threads: 1,
        ..config.clone()
    });
    OfflineSetup { config, subset }
}

fn train_options(seed: u64) -> TrainOptions {
    TrainOptions {
        epochs: EPOCHS,
        lr: LR,
        n_threads: 2,
        seed,
        ..TrainOptions::paper_default()
    }
}

/// Measured outcome of one offline run.
pub struct Offline {
    pub dataset_samples: usize,
    /// Seconds of each `generate_dataset` call.
    pub gen_s: Vec<f64>,
    pub train_samples: usize,
    pub train_s: f64,
    /// Classification latency, ms, per segment.
    pub latency_ms: Vec<Vec<f64>>,
    pub accuracy: f64,
    pub batches: u64,
    pub skipped_batches: u64,
    pub outcome: TrainOutcome,
    pub errors: Vec<String>,
}

fn same_samples(a: &(Vec<Vec<f32>>, usize), b: &(Vec<Vec<f32>>, usize)) -> bool {
    a.1 == b.1
        && a.0.len() == b.0.len()
        && a.0.iter().zip(&b.0).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Generates the dataset for at least `gen_secs` (each call timed),
/// trains on it, and classifies the held-out split.
pub fn run(s: &OfflineSetup, seed: u64, gen_secs: f64) -> Offline {
    let mut errors = Vec::new();
    let mut gen_times = Vec::new();
    let mut bundle = None;
    while gen_times.len() < GEN_REPEATS || gen_times.iter().sum::<f64>() < gen_secs {
        let t0 = Instant::now();
        let b = generate_dataset(&s.config);
        gen_times.push(t0.elapsed().as_secs_f64());
        bundle = Some(b);
    }
    let bundle = bundle.expect("generated at least once");
    let per_class = s.config.samples_per_class;
    for (i, sub) in s.subset.samples.iter().enumerate() {
        let (class, k) = (i / CHECK_PER_CLASS, i % CHECK_PER_CLASS);
        if !same_samples(sub, &bundle.samples[class * per_class + k]) {
            errors.push(format!(
                "sample (class {class}, {k}) differs between 1 and 2 threads"
            ));
        }
    }

    let opts = train_options(seed);
    let t0 = Instant::now();
    let outcome = train_m2ai(&bundle, &opts);
    let train_s = t0.elapsed().as_secs_f64();
    let (train, test) = train_test_split(bundle.samples.clone(), opts.test_fraction, opts.seed);

    let mut latency_ms = vec![Vec::new(); SEGMENTS];
    let mut correct = 0usize;
    for (n, segment) in latency_ms.iter_mut().enumerate() {
        while segment.len() < SEGMENT_CLASSIFICATIONS {
            let first_pass = n == 0 && segment.is_empty();
            for (frames, label) in &test {
                let t0 = Instant::now();
                let pred = outcome.model.try_predict(frames);
                segment.push(t0.elapsed().as_secs_f64() * 1e3);
                if first_pass && pred == Ok(*label) {
                    correct += 1;
                }
            }
        }
    }
    let accuracy = correct as f64 / test.len() as f64;
    if accuracy != outcome.test_accuracy {
        errors.push(format!(
            "held-out accuracy {accuracy} differs from training's {}",
            outcome.test_accuracy
        ));
    }
    if accuracy < ACCURACY_FLOOR {
        errors.push(format!(
            "held-out accuracy {accuracy:.3} below the {ACCURACY_FLOOR} floor"
        ));
    }
    Offline {
        dataset_samples: bundle.samples.len(),
        gen_s: gen_times,
        train_samples: train.len(),
        train_s,
        latency_ms,
        accuracy,
        batches: (train.len().div_ceil(opts.batch_size) * opts.epochs) as u64,
        skipped_batches: outcome.report.skipped_batches as u64,
        outcome,
        errors,
    }
}
