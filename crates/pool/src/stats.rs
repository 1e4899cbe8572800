//! Pool-level observability: one snapshot function naming every pool
//! metric, one row type per replica, and a JSON-lines metrics export.
//!
//! A replica's engine is thread-confined, but its metrics are not: every
//! part of [`polyview::EngineMetrics`] is atomic, and each replica shares
//! a handle on it with the router at boot, in its
//! [`crate::worker::WorkerShared`] beside its gauges and its sampled
//! profile. So every read here is a load of shared state. None sends a
//! message to a worker, and none waits behind a paused or wedged replica.
//!
//! [`Pool::registry_snapshot`] is the only list of pool metrics: the
//! shared telemetry registry, what only the router counts
//! (submit/backpressure counters, log length, respawns), each replica's
//! gauges, and the replicas' engine counters summed under their usual
//! names (`engine.parses`, `types.unify_steps`, …). The window ring, the
//! `stats` wire op and [`Pool::metrics_json`] all read it; `metrics_json`
//! adds each replica's full registry under a `workerN.` prefix
//! (`worker3.phase.eval_ns`, …). [`WorkerStats`] is the one per-replica
//! row: [`Pool::health`] folds its verdict from the rows and hands them
//! out in its report, which is where the `stats` wire op reads them, and
//! [`Pool::stats`] adds each replica's merged profile. A replica that is
//! still booting has a provisional row ([`WorkerStats::booted`]).

use crate::router::Pool;
use crate::telemetry::SlowRequest;
use crate::worker::WorkerShared;
use polyview::obs::{HistogramSnapshot, RegistrySnapshot};
use polyview::EngineStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// One replica's slice of [`PoolStats`].
#[derive(Clone, Debug)]
pub struct WorkerStats {
    pub worker: usize,
    /// Respawn generation (0 = original spawn).
    pub generation: u64,
    /// Whether the worker thread is running (a dead slot respawns on the
    /// next pool interaction).
    pub live: bool,
    /// Whether this incarnation has booted: restored its checkpoint,
    /// replayed the log tail and shared its engine metrics. A row read
    /// before that (just after a spawn or respawn) is provisional:
    /// `applied` is the boot offset, `respawn_replayed` and `env_epoch`
    /// are 0, `engine` is all zeros and `profile` is `None`.
    /// [`Pool::barrier`] waits until every replica has booted.
    pub booted: bool,
    /// Log offset applied (exclusive).
    pub applied: u64,
    /// Writes sequenced but not yet applied by this replica.
    pub replay_lag: u64,
    /// Requests currently queued for this replica.
    pub queue_depth: u64,
    /// Replayed entries that failed (identical across in-sync replicas).
    pub replay_errors: u64,
    /// Log entries this incarnation replayed at bootstrap: the tail above
    /// its boot checkpoint, or the whole log without one. The acceptance
    /// number for bounded recovery — crash at offset L with a checkpoint
    /// at K means exactly L−K here.
    pub respawn_replayed: u64,
    /// The replica's declaration epoch.
    pub env_epoch: u64,
    pub engine: EngineStats,
    /// Requests whose evaluation was profiled on this replica
    /// ([`crate::PoolConfig::profile_sample_every`]); 0 when sampling is
    /// off.
    pub profile_samples: u64,
    /// The merged attribution profile of this replica's sampled requests.
    pub profile: Option<polyview::Profile>,
}

/// A fleet-level snapshot: pool counters plus every replica's state and
/// the component-wise sum of their engine counters.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    pub workers: usize,
    /// Writes sequenced through the declaration log.
    pub log_len: u64,
    pub submitted_reads: u64,
    pub submitted_writes: u64,
    /// Submissions rejected with [`crate::Submit::Full`] (backpressure).
    pub rejected_full: u64,
    /// Reads a replica promoted to writes because they tried to change
    /// earlier state (each one appended one log entry).
    pub reads_promoted: u64,
    /// Workers respawned after a panic, each caught up from the newest
    /// checkpoint plus the log tail (the whole log without one).
    pub respawns: u64,
    /// Merged engine counters across all replicas.
    pub engine: EngineStats,
    pub per_worker: Vec<WorkerStats>,
    /// Time spent queued, enqueue → dequeue (telemetry-tracked requests
    /// only; empty when telemetry is off).
    pub queue_wait: HistogramSnapshot,
    /// Pre-serve log replay time.
    pub catchup: HistogramSnapshot,
    /// End-to-end latency of reads, submit → completion.
    pub e2e_read: HistogramSnapshot,
    /// End-to-end latency of writes.
    pub e2e_write: HistogramSnapshot,
    /// The slow-request ring (oldest first); see [`Pool::slow_requests`].
    pub slow_requests: Vec<SlowRequest>,
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pool       workers={} log={} reads={} writes={} promoted={} full={} respawns={}",
            self.workers,
            self.log_len,
            self.submitted_reads,
            self.submitted_writes,
            self.reads_promoted,
            self.rejected_full,
            self.respawns
        )?;
        for w in &self.per_worker {
            writeln!(
                f,
                "worker {}   gen={} applied={} lag={} depth={} replay-errors={} respawn-replayed={} epoch={}{}",
                w.worker,
                w.generation,
                w.applied,
                w.replay_lag,
                w.queue_depth,
                w.replay_errors,
                w.respawn_replayed,
                w.env_epoch,
                if w.booted { "" } else { " booting" }
            )?;
            if let Some(p) = &w.profile {
                let hot = p.hot_nodes();
                let hottest = hot
                    .first()
                    .map(|h| format!("{} {}", h.kind, h.span))
                    .unwrap_or_else(|| "-".to_string());
                writeln!(
                    f,
                    "profile {}  samples={} nodes={} fallback-sites={} hottest={:?}",
                    w.worker,
                    w.profile_samples,
                    p.node_count(),
                    p.fallback_sites.len(),
                    hottest
                )?;
            }
        }
        for (name, h) in [
            ("queue_wait", &self.queue_wait),
            ("catchup   ", &self.catchup),
            ("e2e read  ", &self.e2e_read),
            ("e2e write ", &self.e2e_write),
        ] {
            if h.count > 0 {
                writeln!(
                    f,
                    "latency    {name} n={} p50={}ns p95={}ns p99={}ns max={}ns",
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.max
                )?;
            }
        }
        for s in &self.slow_requests {
            writeln!(
                f,
                "slow       id={} session={} worker={} gen={} class={} e2e={}ns queue={}ns catchup={}ns src={:?}",
                s.id,
                s.session,
                s.worker,
                s.generation,
                s.class,
                s.e2e_ns,
                s.queue_wait_ns,
                s.catchup_ns,
                s.src
            )?;
        }
        write!(f, "{}", self.engine)
    }
}

impl Pool {
    /// Snapshot the whole fleet. Dead workers are respawned first (the
    /// respawn shows up in [`PoolStats::respawns`]), so every row reports
    /// a live replica; one that has not finished booting yet is marked
    /// by [`WorkerStats::booted`], and its row is provisional until
    /// [`Pool::barrier`]. Reads only shared state: safe while a replica
    /// is paused or wedged.
    pub fn stats(&mut self) -> PoolStats {
        self.supervise();
        let mut per_worker = self.worker_stats();
        for (row, w) in per_worker.iter_mut().zip(&self.workers) {
            if row.profile_samples > 0 {
                let merged = w.shared.profile.lock().unwrap_or_else(|e| e.into_inner());
                row.profile = Some(merged.clone());
            }
        }
        let engine = per_worker
            .iter()
            .fold(EngineStats::default(), |acc, w| acc.merged(w.engine));
        PoolStats {
            workers: self.workers.len(),
            log_len: self.log.len(),
            submitted_reads: self.submitted_reads,
            submitted_writes: self.submitted_writes,
            rejected_full: self.rejected_full,
            reads_promoted: self.telemetry.reads_promoted.get(),
            respawns: self.respawns,
            engine,
            per_worker,
            queue_wait: self.telemetry.queue_wait_ns.snapshot(),
            catchup: self.telemetry.catchup_ns.snapshot(),
            e2e_read: self.telemetry.e2e_read_ns.snapshot(),
            e2e_write: self.telemetry.e2e_write_ns.snapshot(),
            slow_requests: self.telemetry.slow_requests(),
        }
    }

    /// Every replica's row, as its slot stands (no respawn), without the
    /// merged profile, which only [`Pool::stats`] copies out.
    pub(crate) fn worker_stats(&self) -> Vec<WorkerStats> {
        let log_len = self.log.len();
        self.workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let s = &w.shared;
                let applied = s.applied.load(Ordering::Relaxed);
                let engine = s.engine.get();
                WorkerStats {
                    worker: i,
                    generation: w.generation,
                    live: !w.join.is_finished(),
                    booted: engine.is_some(),
                    applied,
                    replay_lag: log_len.saturating_sub(applied),
                    queue_depth: s.depth.load(Ordering::Relaxed),
                    replay_errors: s.replay_errors.load(Ordering::Relaxed),
                    respawn_replayed: s.respawn_replayed.load(Ordering::Relaxed),
                    env_epoch: s.env_epoch.load(Ordering::Relaxed),
                    engine: engine.map(|m| m.stats()).unwrap_or_default(),
                    profile_samples: s.profile_samples.load(Ordering::Relaxed),
                    profile: None,
                }
            })
            .collect()
    }

    /// A point-in-time copy of every cumulative pool metric, stamped with
    /// the caller-supplied time (the `health` module docs explain why):
    /// the shared telemetry registry (latency histograms,
    /// `pool.reads_promoted`), the router's counters, per-worker
    /// `pool.workerN.*` gauges read from each replica's shared atomics,
    /// and the replicas' engine counters summed under their usual names.
    /// This is the one place a pool metric is named; the window ring
    /// stores it, the `stats` wire op serializes it as its cumulative
    /// section, and [`Pool::metrics_json`] renders it.
    pub fn registry_snapshot(&self, at_ns: u64) -> RegistrySnapshot {
        let mut snap = self.telemetry.registry.snapshot(at_ns);
        let log_len = self.log.len();
        let c = &mut snap.counters;
        c.insert("pool.workers".to_string(), self.workers.len() as u64);
        c.insert("pool.submitted_reads".to_string(), self.submitted_reads);
        c.insert("pool.submitted_writes".to_string(), self.submitted_writes);
        c.insert("pool.rejected_full".to_string(), self.rejected_full);
        c.insert("pool.respawns".to_string(), self.respawns);
        c.insert("pool.log_len".to_string(), log_len);
        c.insert("pool.log_base".to_string(), self.log.base());
        // Summed across replicas; a respawn resets one replica's tally,
        // which the windowed saturating delta absorbs.
        let sum = |tally: fn(&WorkerShared) -> &AtomicU64| {
            self.workers.iter().fold(0u64, |acc, w| {
                acc.saturating_add(tally(&w.shared).load(Ordering::Relaxed))
            })
        };
        c.insert("pool.replay_errors".to_string(), sum(|s| &s.replay_errors));
        c.insert("pool.checkpoints".to_string(), sum(|s| &s.checkpoints));
        c.insert("pool.checkpoint_ns".to_string(), sum(|s| &s.checkpoint_ns));
        c.insert(
            "pool.respawn_replayed".to_string(),
            sum(|s| &s.respawn_replayed),
        );
        for m in self.workers.iter().filter_map(|w| w.shared.engine.get()) {
            for (name, v) in m.snapshot(at_ns).counters {
                let total = c.entry(name).or_default();
                *total = total.saturating_add(v);
            }
        }
        let g = &mut snap.gauges;
        g.insert("pool.slow_requests".to_string(), self.telemetry.slow_len());
        for (i, w) in self.workers.iter().enumerate() {
            let applied = w.shared.applied.load(Ordering::Relaxed);
            for (gauge, v) in [
                ("queue_depth", w.shared.depth.load(Ordering::Relaxed)),
                ("replay_lag", log_len.saturating_sub(applied)),
                ("applied", applied),
                (
                    "respawn_replayed",
                    w.shared.respawn_replayed.load(Ordering::Relaxed),
                ),
                (
                    "profile_samples",
                    w.shared.profile_samples.load(Ordering::Relaxed),
                ),
            ] {
                g.insert(format!("pool.worker{i}.{gauge}"), v);
            }
        }
        snap
    }

    /// Export pool metrics as JSON lines: [`Pool::registry_snapshot`],
    /// then every replica's full engine registry (histograms included)
    /// under a `workerN.` prefix. Same format contract as
    /// [`polyview::Engine::metrics_json`]: exactly one JSON object per
    /// line.
    pub fn metrics_json(&self) -> String {
        let mut out = self.registry_snapshot(0).to_json_lines("");
        for (i, w) in self.workers.iter().enumerate() {
            if let Some(m) = w.shared.engine.get() {
                out.push_str(&m.snapshot(0).to_json_lines(&format!("worker{i}.")));
            }
        }
        out
    }
}
