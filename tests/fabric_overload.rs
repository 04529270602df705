//! Overload and shed semantics of the serve fabric (serve-fabric PR).
//!
//! The fabric has exactly two shed points and one refusal, and each is
//! made *deterministic* here with the throttle test hooks:
//!
//! * **ingress shed** — [`ShardThrottle::Freeze`] parks the worker
//!   (acknowledged before `set_throttle` returns), so the bounded
//!   ingress fills after exactly `ingress_capacity` pushes and every
//!   further push must report [`PushOutcome::Shed`];
//! * **engine queue shed** — [`ShardThrottle::HoldTicks`] lets the
//!   worker drain ingress into the per-session queue without ever
//!   ticking, so pushing past `queue_capacity` sheds the *oldest*
//!   events, visible in the shutdown stats per session;
//! * **admission refusal** — `FabricFull` only when every shard is at
//!   `max_sessions`; one shard full merely spills.
//!
//! Alongside the ground-truth counters (plain atomics inside the
//! fabric), each scenario checks that the `m2ai-obs` families tell the
//! same story — the whole point of per-shard instrumentation is that
//! an operator can trust it during an incident.
//!
//! The obs registry is process-global and cumulative, so every test
//! here takes deltas around its own traffic and the suite serialises
//! on one lock.

mod support;

use m2ai::core::network::Architecture;
use m2ai::core::online::HealthState;
use m2ai::core::serve::ServeConfig;
use m2ai::fabric::{FabricConfig, FabricError, PushOutcome, ServeFabric, ShardThrottle};
use m2ai::obs;
use std::sync::Mutex;
use support::builder;

/// Sliding window length (small model keeps the suite fast).
const HISTORY: usize = 3;

/// Serialises the tests in this binary: they assert on deltas of
/// process-global metric families.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Payload of push `t`: the first frame of stream `t`.
fn synth_frame(t: usize) -> Vec<f32> {
    support::synth_frame(t as u64, 0)
}

/// Sum of a gauge family across label children.
fn gauge_family_total(name: &str) -> i64 {
    obs::snapshot()
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match &m.value {
            obs::MetricValue::Gauge(v) => *v,
            _ => 0,
        })
        .sum()
}

#[test]
fn frozen_ingress_sheds_exactly_past_capacity_and_obs_agrees() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const INGRESS: usize = 4;
    const EXTRA: usize = 3;
    let shed_before = obs::counter_family_total("m2ai_fabric_ingress_shed_total");
    let preds_before = obs::counter_family_total("m2ai_fabric_predictions_total");
    let depth_before = gauge_family_total("m2ai_fabric_ingress_depth");

    let fabric = ServeFabric::new(
        support::model(Architecture::CnnLstm),
        builder(),
        FabricConfig {
            shards: 2,
            vnodes: 16,
            ingress_capacity: INGRESS,
            serve: ServeConfig {
                max_sessions: 8,
                history_len: HISTORY,
                queue_capacity: 64,
                ..ServeConfig::default()
            },
            supervision: Default::default(),
        },
    );
    // Open first (a sync round-trip with the worker), then freeze the
    // owning shard — the ack guarantees the worker consumes nothing
    // more, so the ingress arithmetic below is exact, not racy.
    let key = fabric.open_session().expect("capacity");
    let shard = fabric.shard_of(key).expect("open");
    fabric.set_throttle(shard, ShardThrottle::Freeze);

    for t in 0..INGRESS {
        assert_eq!(
            fabric
                .push_frame(key, t as f64 * 0.5, synth_frame(t), HealthState::Healthy)
                .expect("session open"),
            PushOutcome::Enqueued,
            "push {t} fits in the ingress bound"
        );
    }
    for t in INGRESS..INGRESS + EXTRA {
        assert_eq!(
            fabric
                .push_frame(key, t as f64 * 0.5, synth_frame(t), HealthState::Healthy)
                .expect("session open"),
            PushOutcome::Shed,
            "push {t} must shed at the full frozen ingress"
        );
    }

    // Ground truth: per-session and fabric-wide counters.
    assert_eq!(fabric.session_shed(key).expect("open"), EXTRA as u64);
    assert_eq!(fabric.ingress_shed(), EXTRA as u64);
    // Obs agreement while the fabric is live.
    assert_eq!(
        obs::counter_family_total("m2ai_fabric_ingress_shed_total") - shed_before,
        EXTRA as u64,
        "obs shed family must match ground truth"
    );

    // Thaw, drain, and check the survivors: the INGRESS enqueued
    // frames reach the engine, the shed ones never existed.
    fabric.set_throttle(shard, ShardThrottle::Run);
    let out = fabric.flush();
    assert_eq!(
        out.len(),
        INGRESS - (HISTORY - 1),
        "exactly the enqueued frames past the ring fill must emit"
    );
    assert!(out.iter().all(|p| p.session == key));
    assert_eq!(
        obs::counter_family_total("m2ai_fabric_predictions_total") - preds_before,
        out.len() as u64,
        "obs prediction family must match delivered predictions"
    );
    assert_eq!(
        gauge_family_total("m2ai_fabric_ingress_depth"),
        depth_before,
        "ingress depth gauge must return to its pre-test level"
    );

    let stats = fabric.shutdown();
    assert_eq!(stats.ingress_shed, EXTRA as u64);
    let emitted: u64 = stats.shards.iter().map(|s| s.predictions).sum();
    assert_eq!(emitted, out.len() as u64);
}

#[test]
fn held_engine_queue_sheds_oldest_and_reports_per_session() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const QUEUE: usize = 2;
    const PUSHES: usize = 6;
    let fabric = ServeFabric::new(
        support::model(Architecture::CnnLstm),
        builder(),
        FabricConfig {
            shards: 1,
            vnodes: 16,
            ingress_capacity: 64,
            serve: ServeConfig {
                max_sessions: 4,
                history_len: HISTORY,
                queue_capacity: QUEUE,
                ..ServeConfig::default()
            },
            supervision: Default::default(),
        },
    );
    let key = fabric.open_session().expect("capacity");
    // HoldTicks: the worker keeps draining ingress into the engine's
    // per-session queue but never ticks, so the queue provably
    // overflows and sheds its *oldest* events.
    fabric.set_throttle(0, ShardThrottle::HoldTicks);
    for t in 0..PUSHES {
        loop {
            match fabric
                .push_frame(key, t as f64 * 0.5, synth_frame(t), HealthState::Healthy)
                .expect("session open")
            {
                PushOutcome::Enqueued => break,
                PushOutcome::Shed => std::thread::yield_now(),
            }
        }
    }
    // flush() overrides HoldTicks: it drains the 2 surviving events.
    // 2 frames < HISTORY, so the window never fills — nothing emits.
    let out = fabric.flush();
    assert!(
        out.is_empty(),
        "only {QUEUE} frames survived a {QUEUE}-deep queue; the window \
         cannot have filled"
    );
    let stats = fabric.shutdown();
    assert_eq!(stats.ingress_shed, 0, "ingress was never the bottleneck");
    assert_eq!(
        stats.shards[0].engine_shed,
        (PUSHES - QUEUE) as u64,
        "engine queue must shed exactly the overflow, oldest first"
    );
    assert_eq!(
        stats.shards[0].session_engine_shed,
        vec![(key.raw(), (PUSHES - QUEUE) as u64)],
        "per-session shed attribution must name the overloaded session"
    );
}

#[test]
fn admission_spills_before_refusing_and_obs_agrees() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rejections_before = obs::counter_family_total("m2ai_fabric_rejections_total");
    let spills_before = obs::counter_family_total("m2ai_fabric_spill_total");
    let sessions_before = gauge_family_total("m2ai_fabric_sessions");

    let fabric = ServeFabric::new(
        support::model(Architecture::CnnLstm),
        builder(),
        FabricConfig {
            shards: 2,
            vnodes: 16,
            ingress_capacity: 16,
            serve: ServeConfig {
                max_sessions: 1, // 1 per shard => 2 fabric-wide
                history_len: HISTORY,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
            supervision: Default::default(),
        },
    );
    // Graceful degradation: both opens succeed even though one of them
    // must land on a non-preferred shard once its twin is taken.
    let a = fabric.open_session().expect("first shard has room");
    let b = fabric
        .open_session()
        .expect("degrades by spilling, not refusing");
    assert_ne!(
        fabric.shard_of(a).expect("open"),
        fabric.shard_of(b).expect("open"),
        "capacity 1 per shard forces distinct shards"
    );
    // Global refusal only with *every* shard full.
    assert_eq!(fabric.open_session(), Err(FabricError::FabricFull));
    assert_eq!(fabric.rejections(), 1);

    // Freeing one slot restores admission on exactly that shard.
    let freed_shard = fabric.shard_of(a).expect("open");
    fabric.close_session(a).expect("open");
    let c = fabric
        .open_session()
        .expect("released capacity is reusable");
    assert_eq!(fabric.shard_of(c).expect("open"), freed_shard);

    // Obs agreement: rejection and spill counters mirror ground truth,
    // and the sessions gauge nets out to the live population.
    assert_eq!(
        obs::counter_family_total("m2ai_fabric_rejections_total") - rejections_before,
        fabric.rejections(),
    );
    assert_eq!(
        obs::counter_family_total("m2ai_fabric_spill_total") - spills_before,
        fabric.spills(),
    );
    assert_eq!(
        gauge_family_total("m2ai_fabric_sessions") - sessions_before,
        fabric.sessions() as i64,
        "sessions gauge must equal the live session count"
    );
    fabric.close_session(b).expect("open");
    fabric.close_session(c).expect("open");
    assert_eq!(
        gauge_family_total("m2ai_fabric_sessions"),
        sessions_before,
        "sessions gauge must return to its pre-test level"
    );
    fabric.shutdown();
}
