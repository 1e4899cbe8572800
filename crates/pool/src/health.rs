//! The pool health model and windowed-stats plumbing: a typed
//! `Healthy` / `Degraded` / `Unhealthy` verdict computed **without any
//! worker round-trip**, plus the snapshot ring that gives the pool
//! windowed rates and quantiles (`obs::window`).
//!
//! # Why no round-trip
//!
//! [`Pool::stats`] asks every replica for a report over its request queue
//! — exactly the channel that is wedged when the operator most needs an
//! answer. Health reads only what the router can see lock-free: the
//! [`crate::worker::WorkerShared`] atomics each worker publishes (queue
//! depth, applied offset, replay errors), thread liveness
//! (`JoinHandle::is_finished`), the log length, and — when windowing is
//! on — the windowed busy/error rates from the snapshot ring. That makes
//! [`Pool::health`] cheap enough for a load-balancer probe and safe to
//! call while every queue is full, which is the contract the network
//! door's `health` wire op relies on (it answers as an immediate, like
//! `ping`).
//!
//! # Windowing is pull-driven
//!
//! The pool never spawns a timer thread: whoever serves `stats` calls
//! [`Pool::tick_window`], which reads the telemetry clock **once** and
//! pushes a snapshot only if the configured interval has elapsed. With
//! windowing disabled ([`crate::PoolConfig::stats_window`] unset) the
//! tick is a single branch and performs **zero clock reads** — the same
//! discipline (and the same [`polyview::obs::ManualClock::reads`]
//! proof) the disabled-telemetry path follows.

use crate::router::Pool;
use polyview::obs::window::{RegistrySnapshot, SnapshotRing, WindowView};
use std::sync::atomic::Ordering;

/// Windowed-stats knobs (see [`crate::PoolConfig::stats_window`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowConfig {
    /// Snapshots kept in the ring (clamped to ≥ 2): the window spans at
    /// most `capacity − 1` intervals.
    pub capacity: usize,
    /// Minimum time between snapshots; ticks inside the interval are
    /// no-ops, so callers may tick as often as they like.
    pub interval_ns: u64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            capacity: 16,
            interval_ns: 1_000_000_000,
        }
    }
}

/// Thresholds the health verdict folds worker state against
/// ([`crate::PoolConfig::health`]). Defaults are deliberately permissive:
/// health is for load balancers, which must not flap on routine jitter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthThresholds {
    /// A replica whose replay lag (sequenced − applied) reaches this many
    /// entries is degraded: reads routed to it stall catching up.
    pub max_replay_lag: u64,
    /// A replica whose queue depth reaches this percentage of
    /// `queue_capacity` is degraded (admission is about to reject).
    pub queue_watermark_pct: u8,
    /// Windowed backpressure-rejection rate (per second) above which the
    /// pool is degraded. Only meaningful with windowing on.
    pub max_busy_rate: f64,
    /// Windowed replay-error rate (per second) above which the pool is
    /// degraded. Only meaningful with windowing on.
    pub max_error_rate: f64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            max_replay_lag: 256,
            queue_watermark_pct: 90,
            max_busy_rate: 100.0,
            max_error_rate: 1.0,
        }
    }
}

/// The typed verdict. `Degraded` means "serves, but something needs
/// attention"; `Unhealthy` means "stop sending traffic here" (a dead
/// replica awaiting respawn, or every queue at capacity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Health {
    Healthy,
    Degraded { reasons: Vec<String> },
    Unhealthy { reasons: Vec<String> },
}

impl Health {
    /// The wire/display name: `healthy`, `degraded`, or `unhealthy`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded { .. } => "degraded",
            Health::Unhealthy { .. } => "unhealthy",
        }
    }

    pub fn is_healthy(&self) -> bool {
        matches!(self, Health::Healthy)
    }

    /// The reasons behind a non-healthy verdict (empty for `Healthy`).
    pub fn reasons(&self) -> &[String] {
        match self {
            Health::Healthy => &[],
            Health::Degraded { reasons } | Health::Unhealthy { reasons } => reasons,
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())?;
        if !self.reasons().is_empty() {
            write!(f, " ({})", self.reasons().join("; "))?;
        }
        Ok(())
    }
}

/// The verdict plus the observations it was folded from — what the
/// `health` wire op serializes.
#[derive(Clone, Debug)]
pub struct HealthReport {
    pub health: Health,
    pub workers: usize,
    pub log_len: u64,
    /// Worst replay lag across replicas.
    pub max_replay_lag: u64,
    /// Deepest queue across replicas.
    pub max_queue_depth: u64,
    /// Windowed `Submit::Full` rejections per second (0 without a window).
    pub busy_rate: f64,
    /// Windowed replay errors per second (0 without a window).
    pub error_rate: f64,
    /// Span of the window the rates came from (0 without a window).
    pub window_span_ns: u64,
}

/// One replica's router-visible state — everything the health model and
/// the `stats` wire op's per-worker rows read, all lock-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerRow {
    pub worker: usize,
    /// Respawn generation of the thread currently in the slot.
    pub generation: u64,
    /// Whether the worker thread is running (a dead slot respawns on the
    /// next pool interaction).
    pub live: bool,
    /// Log offset applied (exclusive).
    pub applied: u64,
    /// Sequenced-but-unapplied entries.
    pub replay_lag: u64,
    pub queue_depth: u64,
    pub replay_errors: u64,
}

/// The router-side window state: the ring plus the tick gate.
pub(crate) struct PoolWindow {
    pub(crate) ring: SnapshotRing,
    pub(crate) interval_ns: u64,
    pub(crate) last_ns: Option<u64>,
}

impl PoolWindow {
    pub(crate) fn new(cfg: WindowConfig) -> PoolWindow {
        PoolWindow {
            ring: SnapshotRing::new(cfg.capacity),
            interval_ns: cfg.interval_ns,
            last_ns: None,
        }
    }
}

impl Pool {
    /// Every replica's router-visible state, lock-free (`&self`, no
    /// worker round-trip — safe while replicas are paused or wedged).
    pub fn worker_rows(&self) -> Vec<WorkerRow> {
        let log_len = self.log.len();
        self.workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let applied = w.shared.applied.load(Ordering::Relaxed);
                WorkerRow {
                    worker: i,
                    generation: w.generation,
                    live: !w.join.is_finished(),
                    applied,
                    replay_lag: log_len.saturating_sub(applied),
                    queue_depth: w.shared.depth.load(Ordering::Relaxed),
                    replay_errors: w.shared.replay_errors.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Take a windowed snapshot if the configured interval has elapsed,
    /// reading the telemetry clock once. Returns whether a snapshot was
    /// taken. With windowing disabled this is **one branch and zero clock
    /// reads** — provable under an injected
    /// [`polyview::obs::ManualClock`].
    pub fn tick_window(&mut self) -> bool {
        if self.window.is_none() {
            return false;
        }
        let now = self.telemetry.clock.now_ns();
        self.tick_window_at(now)
    }

    /// [`Pool::tick_window`] with a caller-supplied timestamp — the
    /// deterministic entry point for manual-clock tests (no clock read at
    /// all).
    pub fn tick_window_at(&mut self, now_ns: u64) -> bool {
        let Some(w) = self.window.as_ref() else {
            return false;
        };
        if let Some(last) = w.last_ns {
            if now_ns.saturating_sub(last) < w.interval_ns {
                return false;
            }
        }
        let snap = self.window_snapshot(now_ns);
        let w = self.window.as_mut().expect("checked above");
        w.last_ns = Some(now_ns);
        w.ring.push(snap);
        true
    }

    /// The current window (oldest ring snapshot → newest), or `None`
    /// until windowing is enabled and two snapshots exist.
    pub fn window(&self) -> Option<WindowView> {
        self.window.as_ref().and_then(|w| w.ring.window())
    }

    /// A point-in-time copy of every cumulative pool metric — the shared
    /// telemetry registry plus the router-only counters and per-worker
    /// gauges — stamped with the caller-supplied time. This is both what
    /// the window ring stores and what the `stats` wire op serializes as
    /// its cumulative section.
    pub fn registry_snapshot(&self, at_ns: u64) -> RegistrySnapshot {
        self.window_snapshot(at_ns)
    }

    /// One windowed snapshot: the shared telemetry registry (latency
    /// histograms) plus the pool counters and per-worker gauges only the
    /// router can see. The timestamp is caller-supplied (see the module
    /// docs on clock discipline).
    fn window_snapshot(&self, at_ns: u64) -> RegistrySnapshot {
        let mut snap = self.telemetry.registry.snapshot(at_ns);
        let log_len = self.log.len();
        let c = &mut snap.counters;
        c.insert("pool.submitted_reads".to_string(), self.submitted_reads);
        c.insert("pool.submitted_writes".to_string(), self.submitted_writes);
        c.insert("pool.rejected_full".to_string(), self.rejected_full);
        c.insert("pool.respawns".to_string(), self.respawns);
        c.insert("pool.log_len".to_string(), log_len);
        c.insert("pool.log_base".to_string(), self.log.base());
        let mut replay_errors = 0u64;
        let mut checkpoints = 0u64;
        let mut checkpoint_ns = 0u64;
        let mut respawn_replayed = 0u64;
        for (i, w) in self.workers.iter().enumerate() {
            let applied = w.shared.applied.load(Ordering::Relaxed);
            snap.gauges.insert(
                format!("pool.worker{i}.queue_depth"),
                w.shared.depth.load(Ordering::Relaxed),
            );
            snap.gauges.insert(
                format!("pool.worker{i}.replay_lag"),
                log_len.saturating_sub(applied),
            );
            snap.gauges.insert(
                format!("pool.worker{i}.respawn_replayed"),
                w.shared.respawn_replayed.load(Ordering::Relaxed),
            );
            replay_errors =
                replay_errors.saturating_add(w.shared.replay_errors.load(Ordering::Relaxed));
            checkpoints = checkpoints.saturating_add(w.shared.checkpoints.load(Ordering::Relaxed));
            checkpoint_ns =
                checkpoint_ns.saturating_add(w.shared.checkpoint_ns.load(Ordering::Relaxed));
            respawn_replayed =
                respawn_replayed.saturating_add(w.shared.respawn_replayed.load(Ordering::Relaxed));
        }
        // Summed across replicas; a respawn resets one replica's tally,
        // which the windowed saturating delta absorbs.
        c.insert("pool.replay_errors".to_string(), replay_errors);
        c.insert("pool.checkpoints".to_string(), checkpoints);
        c.insert("pool.checkpoint_ns".to_string(), checkpoint_ns);
        c.insert("pool.respawn_replayed".to_string(), respawn_replayed);
        snap
    }

    /// Fold worker liveness, replay lag, queue watermarks, and windowed
    /// busy/error rates into a [`HealthReport`] against
    /// [`crate::PoolConfig::health`]. `&self`, lock-free, no worker
    /// round-trip — callable while every queue is full.
    pub fn health(&self) -> HealthReport {
        let t = &self.cfg.health;
        let rows = self.worker_rows();
        let capacity = self.cfg.queue_capacity as u64;
        let mut degraded: Vec<String> = Vec::new();
        let mut unhealthy: Vec<String> = Vec::new();
        for r in &rows {
            if !r.live {
                unhealthy.push(format!(
                    "worker {} dead (gen {}, respawn pending)",
                    r.worker, r.generation
                ));
                continue;
            }
            if r.replay_lag >= t.max_replay_lag {
                degraded.push(format!(
                    "worker {} replay lag {} >= {}",
                    r.worker, r.replay_lag, t.max_replay_lag
                ));
            }
            if r.queue_depth.saturating_mul(100)
                >= capacity.saturating_mul(t.queue_watermark_pct as u64)
            {
                degraded.push(format!(
                    "worker {} queue depth {}/{} >= {}%",
                    r.worker, r.queue_depth, capacity, t.queue_watermark_pct
                ));
            }
        }
        if !rows.is_empty() && rows.iter().all(|r| r.queue_depth >= capacity) {
            unhealthy.push("every worker queue is at capacity".to_string());
        }
        // Replay errors are deterministic across replicas (same entry,
        // same state), so *any* error means a sequenced write failed on
        // every replica that has reached it — the log carries a statement
        // the pool cannot apply. That is broken state, not load: surface
        // it as unhealthy, not merely as a windowed rate.
        let replay_errors: u64 = rows.iter().map(|r| r.replay_errors).sum();
        if replay_errors > 0 {
            unhealthy.push(format!(
                "{replay_errors} replay error(s): a sequenced write fails on every replica"
            ));
        }
        let (busy_rate, error_rate, window_span_ns) = match self.window() {
            Some(w) => (
                w.rate_per_sec("pool.rejected_full"),
                w.rate_per_sec("pool.replay_errors"),
                w.span_ns(),
            ),
            None => (0.0, 0.0, 0),
        };
        if busy_rate > t.max_busy_rate {
            degraded.push(format!(
                "busy rate {busy_rate:.1}/s > {:.1}/s",
                t.max_busy_rate
            ));
        }
        if error_rate > t.max_error_rate {
            degraded.push(format!(
                "replay error rate {error_rate:.1}/s > {:.1}/s",
                t.max_error_rate
            ));
        }
        let health = if !unhealthy.is_empty() {
            unhealthy.extend(degraded);
            Health::Unhealthy { reasons: unhealthy }
        } else if !degraded.is_empty() {
            Health::Degraded { reasons: degraded }
        } else {
            Health::Healthy
        };
        HealthReport {
            health,
            workers: rows.len(),
            log_len: self.log.len(),
            max_replay_lag: rows.iter().map(|r| r.replay_lag).max().unwrap_or(0),
            max_queue_depth: rows.iter().map(|r| r.queue_depth).max().unwrap_or(0),
            busy_rate,
            error_rate,
            window_span_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pool, PoolConfig};
    use polyview::obs::ManualClock;
    use std::sync::Arc;

    #[test]
    fn health_is_healthy_on_an_idle_pool() {
        let pool = Pool::new(PoolConfig::default().workers(2));
        let report = pool.health();
        assert!(report.health.is_healthy(), "{:?}", report.health);
        assert_eq!(report.health.as_str(), "healthy");
        assert_eq!(report.workers, 2);
        assert_eq!(report.max_replay_lag, 0);
        assert!(report.health.reasons().is_empty());
        pool.shutdown();
    }

    #[test]
    fn windowing_disabled_performs_zero_clock_reads() {
        let clock = Arc::new(ManualClock::new());
        let mut pool = Pool::new(
            PoolConfig::default()
                .workers(1)
                .telemetry_clock(clock.clone()),
        );
        pool.run(0, "1 + 1").expect("read");
        for _ in 0..10 {
            assert!(!pool.tick_window(), "no window configured");
        }
        let _ = pool.health();
        assert!(pool.window().is_none());
        assert_eq!(
            clock.reads(),
            0,
            "disabled windowing (and disabled telemetry) never read the clock"
        );
        pool.shutdown();
    }

    #[test]
    fn windowed_rates_are_deterministic_under_a_manual_clock() {
        let mut pool = Pool::new(PoolConfig::default().workers(1).stats_window(WindowConfig {
            capacity: 4,
            interval_ns: 1_000_000_000,
        }));
        assert!(pool.tick_window_at(0), "first tick always snapshots");
        assert!(
            !pool.tick_window_at(999_999_999),
            "inside the interval: no-op"
        );
        for _ in 0..10 {
            pool.run(0, "1 + 1").expect("read");
        }
        pool.run(0, "val hw = 2;").expect("write");
        assert!(pool.tick_window_at(2_000_000_000));
        let w = pool.window().expect("two snapshots make a window");
        assert_eq!(w.span_ns(), 2_000_000_000);
        assert_eq!(w.counter_delta("pool.submitted_reads"), 10);
        assert_eq!(w.counter_delta("pool.submitted_writes"), 1);
        assert_eq!(w.rate_per_sec("pool.submitted_reads"), 5.0);
        // The ring bounds history: 3 more ticks evict the origin.
        for i in 3..6u64 {
            assert!(pool.tick_window_at(i * 1_000_000_000));
        }
        let w = pool.window().expect("window");
        assert_eq!(w.span_ns(), 3_000_000_000, "capacity 4 spans 3 intervals");
        assert_eq!(
            w.counter_delta("pool.submitted_reads"),
            0,
            "load is old news"
        );
        pool.shutdown();
    }

    #[test]
    fn degraded_drill_replay_lag_and_recovery() {
        // Healthy → Degraded{replay lag} while a paused replica falls
        // behind → Healthy on resume. Deterministic: the pause gate holds
        // the replica, writes go to the log, and no sleeps are needed —
        // lag is read from shared atomics, and the barrier bounds resume.
        let mut pool = Pool::new(
            PoolConfig::default()
                .workers(2)
                .queue_capacity(64)
                .health_thresholds(HealthThresholds {
                    max_replay_lag: 3,
                    ..HealthThresholds::default()
                }),
        );
        assert!(pool.health().health.is_healthy());

        let paused = 0usize;
        let gate = pool.pause_worker(paused).expect("pause");
        // Drive writes through a session pinned to the *other* replica,
        // so they complete while the paused replica's lag grows.
        let session = (0..u64::MAX)
            .find(|s| pool.worker_for(*s) != paused)
            .expect("some session maps elsewhere");
        for i in 0..4 {
            pool.run(session, &format!("val drill{i} = {i};"))
                .expect("write");
        }
        let report = pool.health();
        match &report.health {
            Health::Degraded { reasons } => {
                assert!(
                    reasons.iter().any(|r| r.contains("replay lag")),
                    "expected a replay-lag reason, got {reasons:?}"
                );
            }
            other => panic!("expected Degraded, got {other:?} ({report:?})"),
        }
        assert!(report.max_replay_lag >= 3);

        gate.release();
        pool.barrier().expect("barrier");
        let report = pool.health();
        assert!(
            report.health.is_healthy(),
            "healthy again after resume: {:?}",
            report.health
        );
        assert_eq!(report.max_replay_lag, 0);
        pool.shutdown();
    }

    #[test]
    fn dead_worker_is_unhealthy_until_respawned() {
        let mut pool = Pool::new(PoolConfig::default().workers(2));
        pool.queue_worker_panic(0);
        pool.await_worker_exit(0);
        let report = pool.health();
        match &report.health {
            Health::Unhealthy { reasons } => {
                assert!(reasons.iter().any(|r| r.contains("dead")), "{reasons:?}");
            }
            other => panic!("expected Unhealthy, got {other:?}"),
        }
        // Any pool interaction respawns; health recovers.
        pool.barrier().expect("barrier respawns");
        assert!(pool.health().health.is_healthy());
        pool.shutdown();
    }

    #[test]
    fn health_display_includes_reasons() {
        let h = Health::Degraded {
            reasons: vec!["worker 1 replay lag 9 >= 3".to_string()],
        };
        assert_eq!(h.to_string(), "degraded (worker 1 replay lag 9 >= 3)");
        assert_eq!(Health::Healthy.to_string(), "healthy");
    }
}
