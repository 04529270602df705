//! The serve workloads: seeded sessions pushed into a one-shard
//! `ServeFabric`, first open-loop at a fixed offered rate, then
//! saturating, followed by checks against a bare `ServeEngine` replay.

use crate::inputs::{serve_config, serve_inputs, Deployment, Push, ServeInputs};
use crate::windows::{
    expects_prediction, window_of_end, Schedule, WindowClock, HISTORY, WARMUP_WINDOWS,
};
use m2ai_core::dataset::N_CLASSES;
use m2ai_core::network::{build_model, Architecture};
use m2ai_core::serve::ServeEngine;
use m2ai_nn::model::SequenceClassifier;
use m2ai_serve_fabric::{FabricConfig, PushOutcome, ServeFabric, SessionKey};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Length of the slices serving is sampled in, seconds: open-loop
/// latency per slice of the schedule, saturating throughput per slice
/// of wall time.
pub const SLICE_S: f64 = 0.5;

/// Longest gap between two output polls of an idle open-loop
/// generator; bounds how late a prediction can be seen.
const POLL_S: f64 = 10e-6;

/// Shape and load of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub sessions: usize,
    /// Push extracted frames (`push_frame`) instead of raw rounds.
    pub frames: bool,
    /// Open-loop offered load, predictions per second.
    pub offered_per_s: f64,
}

/// Wall time and call count of one kind of fabric call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTime {
    pub secs: f64,
    pub calls: u64,
}

impl CallTime {
    pub fn mean_us(&self) -> f64 {
        self.secs / self.calls.max(1) as f64 * 1e6
    }
}

/// Spans the benchmark wraps around its fabric calls (traced runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricCalls {
    pub push: CallTime,
    pub poll: CallTime,
    pub flush: CallTime,
}

/// A live fabric with its seeded sessions and everything the checks
/// need to know about what was sent and received.
pub struct Rig {
    spec: ServeSpec,
    model: SequenceClassifier,
    dep: Deployment,
    inputs: ServeInputs,
    fabric: ServeFabric,
    keys: Vec<SessionKey>,
    index: HashMap<SessionKey, usize>,
    schedule: Schedule,
    clocks: Vec<WindowClock>,
    /// Pushes enqueued per session.
    sent: Vec<u64>,
    /// Per session, what its predictions looked like.
    logs: Vec<PredictionLog>,
    /// Edge refusals the generator saw; each push was retried until
    /// enqueued.
    pub edge_sheds_seen: u64,
    /// `Some` when the benchmark times its fabric calls.
    pub calls: Option<FabricCalls>,
}

/// Outcome of the open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Read-to-prediction latency per window, ms, grouped by the
    /// [`SLICE_S`] segment of the schedule its completing push was due
    /// in.
    pub latency_ms: Vec<Vec<f64>>,
    /// How late each push went out, ms.
    pub lag_ms: Vec<f64>,
    pub attempts: u64,
    /// Edge refusals, each retried until the push was enqueued.
    pub retried: u64,
}

impl OpenLoop {
    /// Adds a later open-loop stretch.
    pub fn extend(&mut self, later: OpenLoop) {
        self.latency_ms.extend(later.latency_ms);
        self.lag_ms.extend(later.lag_ms);
        self.attempts += later.attempts;
        self.retried += later.retried;
    }
}

/// Outcome of the saturating phase.
#[derive(Debug, Clone, Default)]
pub struct Saturate {
    pub predictions: u64,
    pub secs: f64,
    /// Predictions per second in each whole [`SLICE_S`] chunk.
    pub chunk_rates: Vec<f64>,
}

impl Saturate {
    /// Adds a later saturating stretch.
    pub fn extend(&mut self, later: Saturate) {
        self.predictions += later.predictions;
        self.secs += later.secs;
        self.chunk_rates.extend(later.chunk_rates);
    }
}

/// Failure accounting after a run.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    pub expected: u64,
    pub missing: u64,
    pub duplicated: u64,
    /// Predictions not bit-equal to the bare-engine replay, or for a
    /// window that expects none.
    pub wrong: u64,
    pub engine_shed: u64,
    pub fabric_edge_shed: u64,
    /// Problems that make the run incorrect.
    pub errors: Vec<String>,
}

impl Rig {
    /// Generates the inputs, builds the model, opens the sessions and
    /// fills every session's 12-frame ring. Returns the rig and the
    /// seconds spent generating inputs.
    pub fn setup(spec: ServeSpec, seed: u64, model: Option<SequenceClassifier>) -> (Rig, f64) {
        let t0 = Instant::now();
        let dep = Deployment::new(seed);
        let inputs = serve_inputs(&dep, seed, spec.sessions, spec.frames);
        let gen_s = t0.elapsed().as_secs_f64();
        let model = model.unwrap_or_else(|| {
            build_model(&dep.config.layout(), N_CLASSES, Architecture::CnnLstm, seed)
        });
        let fabric = ServeFabric::new(
            model.clone(),
            dep.builder.clone(),
            FabricConfig {
                shards: 1,
                serve: serve_config(),
                ..FabricConfig::default()
            },
        );
        let keys: Vec<SessionKey> = (0..spec.sessions)
            .map(|_| fabric.open_session().expect("sessions fit one shard"))
            .collect();
        assert_eq!(
            serve_config().history_len,
            HISTORY,
            "ring warm-up assumes the default history"
        );
        let ppw = inputs.sessions[0].pushes_per_window();
        let first = HISTORY as u64 * ppw;
        let interval = spec.sessions as f64 / (spec.offered_per_s * ppw as f64);
        let mut rig = Rig {
            index: keys.iter().enumerate().map(|(i, k)| (*k, i)).collect(),
            schedule: Schedule::new(interval, first, inputs.phases.clone()),
            clocks: vec![WindowClock::default(); spec.sessions],
            sent: vec![0; spec.sessions],
            logs: vec![PredictionLog::default(); spec.sessions],
            edge_sheds_seen: 0,
            calls: None,
            spec,
            model,
            dep,
            inputs,
            fabric,
            keys,
        };
        for j in 0..first {
            for i in 0..spec.sessions {
                rig.send_until_enqueued(i, j);
            }
        }
        rig.flush(|_, _| {});
        (rig, gen_s)
    }

    /// Recordings simulated during set-up.
    pub fn recordings(&self) -> usize {
        self.inputs.recordings
    }

    pub fn deployment(&self) -> &Deployment {
        &self.dep
    }

    pub fn model(&self) -> &SequenceClassifier {
        &self.model
    }

    fn time<R>(slot: Option<&mut CallTime>, f: impl FnOnce() -> R) -> R {
        match slot {
            None => f(),
            Some(t) => {
                let t0 = Instant::now();
                let out = f();
                t.secs += t0.elapsed().as_secs_f64();
                t.calls += 1;
                out
            }
        }
    }

    fn send(&mut self, i: usize, push: Push) -> PushOutcome {
        let key = self.keys[i];
        let fabric = &self.fabric;
        let outcome = Self::time(self.calls.as_mut().map(|c| &mut c.push), || match push {
            Push::Reads(r) => fabric.push(key, r),
            Push::Frame(t, f, h) => fabric.push_frame(key, t, f, h),
        })
        .expect("session is open");
        if outcome == PushOutcome::Shed {
            self.edge_sheds_seen += 1;
        }
        outcome
    }

    /// Sends push `j` of session `i`, retrying while the edge refuses
    /// it; returns the windows it completed.
    fn send_until_enqueued(&mut self, i: usize, j: u64) -> std::ops::Range<u64> {
        let push = self.inputs.sessions[i].push(j);
        let max_t = push.max_time();
        while self.send(i, push.clone()) == PushOutcome::Shed {
            // The ingress holds milliseconds of work: back off rather
            // than compete with the worker for the CPU (two vCPUs of a
            // small box can share one physical core).
            std::thread::sleep(Duration::from_micros(200));
        }
        self.sent[i] = j + 1;
        self.clocks[i].advance(max_t)
    }

    fn take(
        &mut self,
        preds: Vec<m2ai_serve_fabric::FabricPrediction>,
        mut on: impl FnMut(usize, u64),
    ) {
        for p in preds {
            let i = self.index[&p.session];
            if let Some(k) = window_of_end(p.prediction.time_s) {
                on(i, k);
            }
            let completed = self.clocks[i].completed();
            let q = &p.prediction;
            self.logs[i].record(q.time_s, q.class, &q.probabilities, completed);
        }
    }

    fn poll(&mut self, on: impl FnMut(usize, u64)) {
        let fabric = &self.fabric;
        let preds = Self::time(self.calls.as_mut().map(|c| &mut c.poll), || fabric.poll());
        self.take(preds, on);
    }

    fn flush(&mut self, on: impl FnMut(usize, u64)) {
        let fabric = &self.fabric;
        let preds = Self::time(self.calls.as_mut().map(|c| &mut c.flush), || fabric.flush());
        self.take(preds, on);
    }

    /// Open loop: pushes go out on the staggered schedule for `secs`
    /// regardless of how the fabric keeps up. A push refused at the edge
    /// is retried until enqueued; its windows' latency still runs from
    /// the scheduled time, so the wait shows as latency, not as loss.
    /// The schedule resumes where the last phase left it, its next push
    /// due now.
    pub fn open_loop(&mut self, secs: f64) -> OpenLoop {
        let mut out = OpenLoop::default();
        let mut latency_ms: Vec<Vec<f64>> = vec![Vec::new(); (secs / SLICE_S).ceil() as usize];
        let mut due_of: HashMap<(usize, u64), f64> = HashMap::new();
        let base = self.schedule.peek_due();
        let start = Instant::now();
        let mut record = |due_of: &mut HashMap<(usize, u64), f64>, i: usize, k: u64| {
            if let Some(due) = due_of.remove(&(i, k)) {
                latency_ms[(due / SLICE_S) as usize]
                    .push((start.elapsed().as_secs_f64() - due) * 1e3);
            }
        };
        let mut last_poll = 0.0;
        while self.schedule.peek_due() - base < secs {
            let now = start.elapsed().as_secs_f64();
            if now < self.schedule.peek_due() - base {
                // Poll at most every POLL_S while waiting, so the
                // generator does not contend with the worker for the
                // output channel on every spin.
                if now - last_poll >= POLL_S {
                    self.poll(|i, k| record(&mut due_of, i, k));
                    last_poll = now;
                }
                std::thread::yield_now();
                continue;
            }
            let (i, j, due) = self.schedule.pop();
            let due = due - base;
            out.lag_ms.push((start.elapsed().as_secs_f64() - due) * 1e3);
            out.attempts += 1;
            let sheds = self.edge_sheds_seen;
            for k in self.send_until_enqueued(i, j) {
                if expects_prediction(k) {
                    due_of.insert((i, k), due);
                }
            }
            out.retried += self.edge_sheds_seen - sheds;
            self.poll(|i, k| record(&mut due_of, i, k));
        }
        self.flush(|i, k| record(&mut due_of, i, k));
        out.latency_ms = latency_ms;
        out
    }

    /// Saturating: pushes go out as fast as the edge accepts them for
    /// `secs`; time runs from the first push until `flush` returns.
    /// Predictions are also counted per [`SLICE_S`] chunk.
    pub fn saturate(&mut self, secs: f64) -> Saturate {
        let count = |rig: &Rig| rig.logs.iter().map(|l| l.n).sum::<u64>();
        let before = count(self);
        let mut chunk_start = (0.0, before);
        let mut chunk_rates = Vec::new();
        let start = Instant::now();
        loop {
            let now = start.elapsed().as_secs_f64();
            if now - chunk_start.0 >= SLICE_S {
                let n = count(self);
                chunk_rates.push((n - chunk_start.1) as f64 / (now - chunk_start.0));
                chunk_start = (now, n);
            }
            if now >= secs {
                break;
            }
            for _ in 0..self.spec.sessions {
                let (i, j, _) = self.schedule.pop();
                self.send_until_enqueued(i, j);
            }
            self.poll(|_, _| {});
        }
        self.flush(|_, _| {});
        Saturate {
            predictions: count(self) - before,
            secs: start.elapsed().as_secs_f64(),
            chunk_rates,
        }
    }

    /// Shuts the fabric down and checks every session's predictions
    /// against expectations and a serial bare-engine replay.
    pub fn finish(self) -> Checked {
        let Rig {
            fabric,
            model,
            dep,
            inputs,
            clocks,
            sent,
            logs,
            edge_sheds_seen,
            ..
        } = self;
        let stats = fabric.shutdown();
        let mut c = Checked {
            engine_shed: stats.shards.iter().map(|s| s.engine_shed).sum(),
            fabric_edge_shed: stats.ingress_shed,
            ..Checked::default()
        };
        if stats.ingress_shed != edge_sheds_seen {
            c.errors.push(format!(
                "fabric counted {} edge sheds, generator saw {edge_sheds_seen}",
                stats.ingress_shed
            ));
        }
        if stats.restarts + stats.quarantined + stats.lost_inflight > 0 {
            c.errors.push(format!("supervision intervened: {stats:?}"));
        }

        let bare = replay_bare(&model, &dep, &inputs, &sent);
        for (i, (log, clock)) in logs.iter().zip(&clocks).enumerate() {
            // Every window after the ring warm-up yields one prediction.
            let expected = clock.completed().saturating_sub(WARMUP_WINDOWS);
            c.expected += expected;
            c.missing += log.missing + clock.completed().saturating_sub(log.next);
            c.duplicated += log.duplicated;
            c.wrong += log.wrong;
            if (log.n, log.hash) != (bare[i].n, bare[i].hash) {
                c.wrong += 1;
                c.errors.push(format!(
                    "session {i}: {} predictions differ from the {} of the bare-engine replay",
                    log.n, bare[i].n
                ));
            }
        }
        if c.missing + c.duplicated + c.wrong > 0 {
            c.errors.push(format!(
                "{} missing, {} duplicated, {} wrong of {} expected predictions",
                c.missing, c.duplicated, c.wrong, c.expected
            ));
        }
        c
    }
}

/// One session's predictions, folded as they arrive: their count, a
/// 64-bit FNV-1a digest of every prediction's time, class and
/// probability bits in order (equal digests stand for bit-equal
/// sequences, at a fixed size however long a run goes), and the
/// one-prediction-per-window accounting.
#[derive(Debug, Clone, Copy)]
struct PredictionLog {
    n: u64,
    hash: u64,
    /// The next window that should yield a prediction.
    next: u64,
    missing: u64,
    duplicated: u64,
    /// Predictions for no window, a warm-up window or a window not yet
    /// completed.
    wrong: u64,
}

impl Default for PredictionLog {
    fn default() -> Self {
        PredictionLog {
            n: 0,
            hash: 0xcbf2_9ce4_8422_2325,
            next: WARMUP_WINDOWS,
            missing: 0,
            duplicated: 0,
            wrong: 0,
        }
    }
}

impl PredictionLog {
    /// Folds in a prediction received after the session's first
    /// `completed` windows completed.
    fn record(&mut self, time_s: f64, class: usize, probabilities: &[f32], completed: u64) {
        self.n += 1;
        let words = [time_s.to_bits(), class as u64]
            .into_iter()
            .chain(probabilities.iter().map(|v| u64::from(v.to_bits())));
        for w in words {
            for b in w.to_le_bytes() {
                self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        match window_of_end(time_s) {
            Some(k) if expects_prediction(k) && k < completed => {
                if k < self.next {
                    self.duplicated += 1;
                } else {
                    self.missing += k - self.next;
                    self.next = k + 1;
                }
            }
            _ => self.wrong += 1,
        }
    }
}

/// Replays every enqueued push, in per-session order, through bare
/// engines — one per half of the sessions, on two threads; sessions are
/// independent, so the split changes nothing — and returns each
/// session's prediction log.
fn replay_bare(
    model: &SequenceClassifier,
    dep: &Deployment,
    inputs: &ServeInputs,
    sent: &[u64],
) -> Vec<PredictionLog> {
    let half = sent.len().div_ceil(2);
    std::thread::scope(|scope| {
        let parts: Vec<_> = (0..sent.len())
            .step_by(half)
            .map(|lo| {
                let sessions = lo..(lo + half).min(sent.len());
                scope.spawn(move || replay_sessions(model, dep, inputs, sent, sessions))
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

fn replay_sessions(
    model: &SequenceClassifier,
    dep: &Deployment,
    inputs: &ServeInputs,
    sent: &[u64],
    sessions: std::ops::Range<usize>,
) -> Vec<PredictionLog> {
    let mut engine = ServeEngine::new(model.clone(), dep.builder.clone(), serve_config());
    let ids: Vec<_> = sessions
        .clone()
        .map(|_| engine.open_session().expect("sessions fit the engine"))
        .collect();
    let slot: HashMap<_, usize> = ids.iter().enumerate().map(|(n, id)| (*id, n)).collect();
    let mut out = vec![PredictionLog::default(); ids.len()];
    let rounds = sent[sessions.clone()].iter().copied().max().unwrap_or(0);
    for j in 0..rounds {
        for (i, id) in sessions.clone().zip(&ids) {
            if j >= sent[i] {
                continue;
            }
            match inputs.sessions[i].push(j) {
                Push::Reads(r) => engine.push(*id, &r),
                Push::Frame(t, f, h) => engine.push_frame(*id, t, f, h),
            }
            .expect("session is open");
        }
        for p in engine.drain() {
            out[slot[&p.session]].record(p.time_s, p.class, &p.probabilities, u64::MAX);
        }
    }
    out
}

/// Timings of repeated set-ups.
#[derive(Debug, Clone, Default)]
pub struct Setups {
    /// Seconds per set-up.
    pub secs: Vec<f64>,
    /// Recordings simulated per second of input generation, per set-up.
    pub gen_rates: Vec<f64>,
}

impl Setups {
    /// Sets up `repeats` times, timing each, and keeps the last rig.
    pub fn run(
        &mut self,
        spec: ServeSpec,
        seed: u64,
        repeats: usize,
        model: Option<SequenceClassifier>,
    ) -> Rig {
        let mut rig = None;
        for _ in 0..repeats {
            drop(rig.take());
            let t0 = Instant::now();
            let (r, gen_s) = Rig::setup(spec, seed, model.clone());
            self.secs.push(t0.elapsed().as_secs_f64());
            self.gen_rates.push(r.recordings() as f64 / gen_s);
            rig = Some(r);
        }
        rig.expect("at least one set-up")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windows::window_end;

    /// Folds predictions `(window, class)`, each one-hot on its class.
    fn fold(log: &mut PredictionLog, preds: &[(u64, usize)], completed: u64) {
        for &(k, class) in preds {
            let mut probabilities = vec![0.0; N_CLASSES];
            probabilities[class] = 1.0;
            log.record(window_end(k), class, &probabilities, completed);
        }
    }

    #[test]
    fn log_counts_each_window_once_after_warm_up() {
        let mut log = PredictionLog::default();
        fold(&mut log, &[(11, 0), (12, 0), (14, 0), (14, 0), (13, 0)], 20);
        // Window 13 was skipped when 14 arrived; 14 came twice, and the
        // late 13 counts as a repeat, not as a fill.
        assert_eq!((log.n, log.missing, log.duplicated, log.wrong), (5, 1, 2, 0));
        assert_eq!(log.next, 15);
        // Warm-up windows, windows not yet completed and times that end
        // no window are wrong.
        fold(&mut log, &[(10, 0), (20, 0)], 20);
        log.record(7.3, 0, &[1.0], 20);
        assert_eq!((log.n, log.wrong), (8, 3));
    }

    #[test]
    fn log_digest_tells_sequences_apart() {
        let digest = |preds: &[(u64, usize)]| {
            let mut log = PredictionLog::default();
            fold(&mut log, preds, u64::MAX);
            (log.n, log.hash)
        };
        let a = [(11, 1), (12, 2)];
        assert_eq!(digest(&a), digest(&[(11, 1), (12, 2)]));
        assert_ne!(digest(&a), digest(&[(11, 1), (12, 3)]));
        assert_ne!(digest(&a), digest(&[(12, 2), (11, 1)]));
        assert_ne!(digest(&a), digest(&a[..1]));
        // One ulp of one probability is a different prediction.
        let mut log = PredictionLog::default();
        fold(&mut log, &a[..1], u64::MAX);
        let mut probabilities = vec![0.0; N_CLASSES];
        probabilities[2] = f32::from_bits(1.0f32.to_bits() + 1);
        log.record(window_end(12), 2, &probabilities, u64::MAX);
        assert_ne!(digest(&a), (log.n, log.hash));
    }
}
