//! Self-healing battery for the serve fabric (supervision PR).
//!
//! Each scenario corrupts the fabric the way production would — a
//! crashed worker, a permanently dead shard, a silent stall, a session
//! whose input panics the engine — and then asserts the supervisor's
//! contract: restarts happen, checkpointed sessions resume with *zero*
//! prediction loss, poison is quarantined without collateral damage,
//! and every blocking control-plane call surfaces a typed timeout
//! instead of hanging. Every scenario runs under a watchdog so a
//! supervision bug deadlocks into a test failure, not a hung CI job.
//!
//! Conservation here means the same thing as in the soak: a session
//! that pushed `N` clean frames with no sheds must emit exactly
//! `N - HISTORY + 1` predictions across its whole life, *including*
//! any crash/restore or migration in the middle.

mod support;

use m2ai::core::network::Architecture;
use m2ai::core::online::HealthState;
use m2ai::core::serve::ServeConfig;
use m2ai::fabric::{
    FabricConfig, FabricError, FabricPrediction, PushOutcome, ServeFabric, SessionKey,
    ShardThrottle, SupervisionConfig,
};
use std::collections::HashMap;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};
use support::{builder, layout, model, synth_frame};

/// Sliding window length (small model keeps the battery fast).
const HISTORY: usize = 3;

/// Frames pushed before the injected failure.
const WARM: usize = 5;

/// Frames pushed after recovery.
const MORE: usize = 4;

/// Hard wall-clock ceiling per scenario.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Generous bound for "the supervisor noticed and recovered".
const RECOVERY: Duration = Duration::from_secs(30);

fn fabric(shards: usize, supervision: SupervisionConfig) -> ServeFabric {
    ServeFabric::new(
        model(Architecture::CnnLstm),
        builder(),
        FabricConfig {
            shards,
            vnodes: 32,
            ingress_capacity: 256,
            serve: ServeConfig {
                max_sessions: 32,
                history_len: HISTORY,
                queue_capacity: 256,
                ..ServeConfig::default()
            },
            supervision,
        },
    )
}

/// Aggressive supervision knobs so failures are noticed in
/// milliseconds, not the production-default second.
fn fast_supervision() -> SupervisionConfig {
    SupervisionConfig {
        heartbeat_interval: Duration::from_millis(2),
        stall_deadline: Duration::from_millis(60),
        // Checkpoints are taken explicitly (`checkpoint_now`) so every
        // scenario knows exactly which state survives the failure.
        checkpoint_interval: Duration::ZERO,
        restart_backoff: Duration::from_millis(2),
        backoff_max: Duration::from_millis(50),
        ..SupervisionConfig::default()
    }
}

/// Runs a scenario body on a watchdog-supervised thread.
fn under_watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(out) => {
            worker.join().expect("scenario thread panicked");
            out
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("scenario deadlocked: no result within {WATCHDOG:?}")
        }
        Err(RecvTimeoutError::Disconnected) => {
            worker.join().expect("scenario thread panicked");
            unreachable!("disconnected without panic")
        }
    }
}

/// Spins until `cond` holds or `RECOVERY` elapses (then panics with
/// `what`).
fn await_cond(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < RECOVERY, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Opens sessions until both shards of a two-shard fabric own at
/// least one, so a shard-0 failure provably hits real sessions.
fn open_covering_both(fabric: &ServeFabric) -> Vec<SessionKey> {
    let mut keys = Vec::new();
    let mut covered = [false; 2];
    for _ in 0..32 {
        let key = fabric.open_session().expect("fabric sized for test");
        covered[fabric.shard_of(key).expect("open")] = true;
        keys.push(key);
        if covered[0] && covered[1] && keys.len() >= 4 {
            break;
        }
    }
    assert!(
        covered[0] && covered[1],
        "32 opens never covered both shards — ring misconfigured"
    );
    keys
}

/// Pushes `count` frames (global step offset `from`) into every
/// session, riding restarts via the deadline path.
fn push_all(fabric: &ServeFabric, keys: &[SessionKey], from: usize, count: usize) {
    for t in from..from + count {
        for (s, &key) in keys.iter().enumerate() {
            fabric
                .push_frame_with_deadline(
                    key,
                    t as f64 * 0.5,
                    synth_frame(s as u64, t),
                    HealthState::Healthy,
                    Duration::from_secs(20),
                )
                .expect("push must survive a recovery window");
        }
    }
}

/// Groups predictions by raw session key, preserving arrival order.
fn per_session(preds: &[FabricPrediction]) -> HashMap<u64, Vec<&FabricPrediction>> {
    let mut map: HashMap<u64, Vec<&FabricPrediction>> = HashMap::new();
    for p in preds {
        map.entry(p.session.raw()).or_default().push(p);
    }
    map
}

/// Exact conservation + per-session monotone times for clean streams.
fn assert_conserved(preds: &[FabricPrediction], keys: &[SessionKey], pushed: usize) {
    let by_key = per_session(preds);
    for &key in keys {
        let got = by_key.get(&key.raw()).map_or(0, Vec::len);
        assert_eq!(
            got,
            pushed - HISTORY + 1,
            "session {}: pushed {pushed} clean frames across the failure, \
             expected exactly {} predictions, got {got}",
            key.raw(),
            pushed - HISTORY + 1
        );
    }
    for (key, stream) in &by_key {
        for w in stream.windows(2) {
            assert!(
                w[1].prediction.time_s > w[0].prediction.time_s,
                "session {key}: prediction times regressed — duplicate or \
                 reorder across the restart"
            );
        }
    }
}

/// A crashed worker is restarted by the supervisor and every
/// checkpointed session resumes with zero prediction loss.
#[test]
fn killed_shard_restarts_and_conserves_predictions() {
    let (stats, preds, keys) = under_watchdog(|| {
        let fabric = fabric(2, fast_supervision());
        let keys = open_covering_both(&fabric);

        push_all(&fabric, &keys, 0, WARM);
        let mut preds = fabric.flush();
        // Snapshot the drained state: this is exactly what the
        // replacement worker must resume from.
        let snapped = fabric.checkpoint_now().expect("live shards checkpoint");
        assert_eq!(snapped, keys.len(), "every open session is snapshotted");
        assert_eq!(fabric.checkpointed_sessions(), keys.len());

        fabric.kill_shard(0).expect("shard 0 is alive");
        await_cond("shard 0 restart", || {
            fabric.restarts() >= 1 && fabric.shard_alive(0)
        });

        push_all(&fabric, &keys, WARM, MORE);
        preds.extend(fabric.flush());
        (fabric.shutdown(), preds, keys)
    });

    assert_conserved(&preds, &keys, WARM + MORE);
    assert!(stats.restarts >= 1, "the kill must register as a restart");
    assert_eq!(stats.stalls, 0, "a crash is not a stall");
    assert_eq!(stats.evicted, 0, "no session may be evicted");
    assert_eq!(
        stats.lost_inflight, 0,
        "the queue was drained before the kill"
    );
    let restored: u64 = stats.shards.iter().map(|s| s.restored).sum();
    assert!(
        restored >= 1,
        "shard 0 owned sessions, so the restart must restore some"
    );
}

/// With the restart budget exhausted the shard is declared dead and
/// its sessions migrate to the survivor — still with zero loss.
#[test]
fn dead_shard_migrates_sessions_to_survivor() {
    let (stats, preds, keys, migrated) = under_watchdog(|| {
        let fabric = fabric(
            2,
            SupervisionConfig {
                restart_budget: 0,
                ..fast_supervision()
            },
        );
        let keys = open_covering_both(&fabric);
        let on_zero: Vec<SessionKey> = keys
            .iter()
            .copied()
            .filter(|&k| fabric.shard_of(k) == Ok(0))
            .collect();

        push_all(&fabric, &keys, 0, WARM);
        let mut preds = fabric.flush();
        fabric.checkpoint_now().expect("live shards checkpoint");

        fabric.kill_shard(0).expect("shard 0 is alive");
        await_cond("migration off the dead shard", || {
            !fabric.shard_alive(0) && on_zero.iter().all(|&k| fabric.shard_of(k) == Ok(1))
        });

        push_all(&fabric, &keys, WARM, MORE);
        preds.extend(fabric.flush());
        assert_eq!(
            fabric.kill_shard(0),
            Err(FabricError::ShardDown),
            "a dead shard refuses further control traffic"
        );
        (fabric.shutdown(), preds, keys, on_zero.len())
    });

    assert_conserved(&preds, &keys, WARM + MORE);
    assert_eq!(stats.restarts, 0, "budget 0 means death, not restart");
    assert_eq!(stats.evicted, 0, "the survivor had capacity for everyone");
    assert_eq!(stats.lost_inflight, 0);
    assert!(
        stats.shards[1].restored >= migrated as u64,
        "every migrated session must be checkpoint-restored on shard 1"
    );
}

/// A worker whose heartbeat flatlines (simulated with the `Stall`
/// throttle) is abandoned on the deadline and replaced; its sessions
/// resume from their checkpoints.
#[test]
fn stalled_worker_is_abandoned_and_replaced() {
    let (stats, preds, keys) = under_watchdog(|| {
        let fabric = fabric(1, fast_supervision());
        let keys = vec![fabric.open_session().expect("capacity")];

        push_all(&fabric, &keys, 0, WARM);
        let mut preds = fabric.flush();
        fabric.checkpoint_now().expect("live shard checkpoints");

        // The worker keeps acking throttles but stops beating — the
        // shape of a genuine hang, minus the hang.
        fabric.set_throttle(0, ShardThrottle::Stall);
        await_cond("stall abandonment + replacement", || {
            fabric.restarts() >= 1 && fabric.shard_alive(0)
        });

        push_all(&fabric, &keys, WARM, MORE);
        preds.extend(fabric.flush());
        (fabric.shutdown(), preds, keys)
    });

    assert_conserved(&preds, &keys, WARM + MORE);
    assert!(stats.stalls >= 1, "the flatline must register as a stall");
    assert!(stats.restarts >= 1);
    assert_eq!(
        stats.lost_inflight, 0,
        "the abandoned queue was empty — nothing in flight to lose"
    );
}

/// Input that repeatedly panics the engine quarantines exactly its own
/// session; the neighbor on the same shard keeps its conservation
/// guarantee through every poison-triggered restart.
#[test]
fn poisoned_session_is_quarantined_without_collateral() {
    let (stats, preds, clean) = under_watchdog(|| {
        let fabric = fabric(
            1,
            SupervisionConfig {
                poison_threshold: 2,
                restart_budget: 100,
                ..fast_supervision()
            },
        );
        let clean = fabric.open_session().expect("capacity");
        let victim = fabric.open_session().expect("capacity");

        push_all(&fabric, &[clean], 0, WARM);
        let mut preds = fabric.flush();
        fabric.checkpoint_now().expect("live shard checkpoints");

        // A wrong-dimension frame passes admission (the fabric never
        // inspects payloads) and panics the encoder at tick time.
        let poison = vec![0.25f32; layout().frame_dim() + 3];
        let t0 = Instant::now();
        while !fabric.is_quarantined(victim) {
            assert!(
                t0.elapsed() < RECOVERY,
                "poison never tripped the quarantine threshold"
            );
            match fabric.push_frame(victim, 0.0, poison.clone(), HealthState::Healthy) {
                Ok(_) => std::thread::sleep(Duration::from_millis(5)),
                Err(FabricError::Quarantined) => break,
                Err(e) => panic!("unexpected push error while poisoning: {e}"),
            }
        }
        assert!(fabric.is_quarantined(victim));
        assert_eq!(fabric.quarantined(), 1, "exactly one session quarantined");
        assert_eq!(
            fabric.push_frame(victim, 1.0, synth_frame(9, 0), HealthState::Healthy),
            Err(FabricError::Quarantined),
            "a quarantined key refuses even well-formed data"
        );
        assert!(
            !fabric.is_quarantined(clean),
            "quarantine must not leak to the neighbor"
        );

        // The neighbor sailed through every poison restart: its
        // checkpointed window resumes and conservation stays exact.
        push_all(&fabric, &[clean], WARM, MORE);
        preds.extend(fabric.flush());
        fabric
            .close_session(victim)
            .expect("closing a quarantined session is an ack, not an error");
        (fabric.shutdown(), preds, clean)
    });

    assert_conserved(&preds, &[clean], WARM + MORE);
    assert_eq!(stats.quarantined, 1);
    assert!(
        stats.shards[0].poison_events >= 2,
        "each caught engine panic must be counted"
    );
    assert!(
        stats.restarts >= 1,
        "the first (unattributed) panic costs one restart"
    );
}

/// Blocking control-plane calls against an unresponsive shard come
/// back as `FabricError::Timeout`, never a hang.
#[test]
fn flush_and_throttle_deadlines_surface_typed_timeouts() {
    under_watchdog(|| {
        // Freeze parks the worker: the flush barrier cannot complete.
        let frozen = fabric(
            1,
            SupervisionConfig {
                stall_deadline: Duration::from_secs(60),
                ..fast_supervision()
            },
        );
        let key = frozen.open_session().expect("capacity");
        frozen.set_throttle(0, ShardThrottle::Freeze);
        assert_eq!(
            frozen
                .push_frame(key, 0.0, synth_frame(0, 0), HealthState::Healthy)
                .expect("ingress has room"),
            PushOutcome::Enqueued
        );
        assert_eq!(
            frozen.try_flush(Duration::from_millis(120)),
            Err(FabricError::Timeout),
            "a frozen shard must time the barrier out, not wedge it"
        );
        // Thawing completes the same barrier; the timed-out attempt
        // lost nothing.
        frozen.set_throttle(0, ShardThrottle::Run);
        let drained = frozen
            .try_flush(Duration::from_secs(30))
            .expect("thawed shard drains");
        assert!(
            drained.is_empty(),
            "one frame cannot fill a {HISTORY}-deep window"
        );
        frozen.shutdown();

        // With supervision disabled, a killed worker is never
        // replaced: the ack handshake must report Timeout instead of
        // spinning forever (and the fabric itself stays responsive).
        let orphaned = fabric(
            1,
            SupervisionConfig {
                enabled: false,
                ..SupervisionConfig::default()
            },
        );
        // `down` starts true and is cleared by the worker thread at
        // startup, so handshake first (open_session is synchronous
        // with the worker) — otherwise `!shard_alive` can be observed
        // before the worker even runs, and the late-starting worker
        // would ack the throttle below.
        orphaned.open_session().expect("worker is up and serving");
        orphaned.kill_shard(0).expect("shard 0 is alive");
        await_cond("worker exit without supervision", || {
            !orphaned.shard_alive(0)
        });
        assert_eq!(
            orphaned.try_set_throttle(0, ShardThrottle::Freeze, Duration::from_millis(120)),
            Err(FabricError::Timeout),
            "no worker will ever ack — the handshake must surface a timeout"
        );
        orphaned.shutdown();
    });
}
