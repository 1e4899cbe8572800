//! Pool-level observability: per-worker reports merged into one fleet
//! snapshot, plus a JSON-lines metrics export.
//!
//! Aggregation is by message, not by sharing a registry: each replica's
//! inference and machine work counters live in its thread-confined engine
//! and sync into the engine's registry only at export
//! ([`polyview::Engine::metrics_json`]). So a `Stats` request makes the
//! worker snapshot its own counters and render its own registry, and the
//! pool merges the snapshots ([`polyview::EngineStats::merged`]) and
//! re-namespaces the registries (`worker3.phase.eval_ns`, …). On top of
//! the engine counters the pool adds what only it can see: queue depths,
//! replay lag (log length minus applied offset), submit/backpressure
//! counters, and respawns.

use crate::router::Pool;
use crate::telemetry::SlowRequest;
use crate::worker::{Request, WorkerReport};
use polyview::obs::{HistogramSnapshot, Registry};
use polyview::EngineStats;
use std::sync::atomic::Ordering;
use std::sync::mpsc::sync_channel;

/// One replica's slice of [`PoolStats`].
#[derive(Clone, Debug)]
pub struct WorkerStats {
    pub worker: usize,
    /// Respawn generation (0 = original spawn).
    pub generation: u64,
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
                "worker {}   gen={} applied={} lag={} depth={} replay-errors={} respawn-replayed={} epoch={}",
                w.worker,
                w.generation,
                w.applied,
                w.replay_lag,
                w.queue_depth,
                w.replay_errors,
                w.respawn_replayed,
                w.env_epoch
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
    /// a live replica.
    pub fn stats(&mut self) -> PoolStats {
        let reports = self.collect_reports();
        self.assemble(&reports)
    }

    /// Pool-side counters only — no worker round-trip, so safe to call
    /// while a replica is paused or wedged (`per_worker` and the merged
    /// engine counters are empty).
    pub fn stats_local(&self) -> PoolStats {
        PoolStats {
            workers: self.workers.len(),
            log_len: self.log.len(),
            submitted_reads: self.submitted_reads,
            submitted_writes: self.submitted_writes,
            rejected_full: self.rejected_full,
            reads_promoted: self.telemetry.reads_promoted.get(),
            respawns: self.respawns,
            engine: EngineStats::default(),
            per_worker: Vec::new(),
            queue_wait: self.telemetry.queue_wait_ns.snapshot(),
            catchup: self.telemetry.catchup_ns.snapshot(),
            e2e_read: self.telemetry.e2e_read_ns.snapshot(),
            e2e_write: self.telemetry.e2e_write_ns.snapshot(),
            slow_requests: self.telemetry.slow_requests(),
        }
    }

    /// Export pool metrics as JSON lines, in three layers:
    ///
    /// 1. `pool.*` counters — submissions, backpressure rejections,
    ///    respawns, log length, promoted reads — and per-worker `pool.workerN.queue_depth`
    ///    / `pool.workerN.replay_lag` / `pool.workerN.applied` **gauges**
    ///    (`"kind":"gauge"`: levels, not monotone counts);
    /// 2. merged engine counters under their usual names
    ///    (`engine.parses`, `types.unify_steps`, …), summed across
    ///    replicas;
    /// 3. the pool's request-latency histograms (`pool.queue_wait_ns`,
    ///    `pool.catchup_ns`, `pool.e2e_read_ns`, `pool.e2e_write_ns` —
    ///    all zero while telemetry is disabled) and one
    ///    `pool.slow_requests` gauge;
    /// 4. every replica's full registry (histograms included),
    ///    re-namespaced as `workerN.<metric>`.
    ///
    /// Same format contract as [`polyview::Engine::metrics_json`]: exactly
    /// one JSON object per line.
    pub fn metrics_json(&mut self) -> String {
        let reports = self.collect_reports();
        let stats = self.assemble(&reports);

        let reg = Registry::new();
        reg.counter("pool.workers").set(stats.workers as u64);
        reg.counter("pool.log_len").set(stats.log_len);
        reg.counter("pool.submitted_reads")
            .set(stats.submitted_reads);
        reg.counter("pool.submitted_writes")
            .set(stats.submitted_writes);
        reg.counter("pool.rejected_full").set(stats.rejected_full);
        reg.counter("pool.respawns").set(stats.respawns);
        reg.counter("pool.log_base").set(self.log.base());
        let mut checkpoints = 0u64;
        let mut checkpoint_ns = 0u64;
        let mut respawn_replayed = 0u64;
        for w in &self.workers {
            checkpoints = checkpoints.saturating_add(w.shared.checkpoints.load(Ordering::Relaxed));
            checkpoint_ns =
                checkpoint_ns.saturating_add(w.shared.checkpoint_ns.load(Ordering::Relaxed));
            respawn_replayed =
                respawn_replayed.saturating_add(w.shared.respawn_replayed.load(Ordering::Relaxed));
        }
        reg.counter("pool.checkpoints").set(checkpoints);
        reg.counter("pool.checkpoint_ns").set(checkpoint_ns);
        reg.counter("pool.respawn_replayed").set(respawn_replayed);
        reg.gauge("pool.slow_requests")
            .set(stats.slow_requests.len() as u64);
        for w in &stats.per_worker {
            let i = w.worker;
            reg.gauge(&format!("pool.worker{i}.queue_depth"))
                .set(w.queue_depth);
            reg.gauge(&format!("pool.worker{i}.replay_lag"))
                .set(w.replay_lag);
            reg.gauge(&format!("pool.worker{i}.applied")).set(w.applied);
            reg.gauge(&format!("pool.worker{i}.respawn_replayed"))
                .set(w.respawn_replayed);
            reg.gauge(&format!("pool.worker{i}.profile_samples"))
                .set(w.profile_samples);
        }
        set_engine_counters(&reg, &stats.engine);
        let mut out = reg.to_json_lines();
        // The shared telemetry registry renders its own lines (same
        // one-object-per-line contract): the latency histograms.
        out.push_str(&self.telemetry.registry.to_json_lines());

        for r in reports.iter().flatten() {
            let prefix = format!("\"name\":\"worker{}.", r.worker);
            for line in r.metrics_json.lines() {
                out.push_str(&line.replacen("\"name\":\"", &prefix, 1));
                out.push('\n');
            }
        }
        out
    }

    /// Ask every worker for a report. A worker that dies between the
    /// supervision check and the reply is respawned and asked once more;
    /// if the respawn dies too, its slot reports `None` rather than
    /// wedging the stats path.
    fn collect_reports(&mut self) -> Vec<Option<WorkerReport>> {
        self.supervise();
        (0..self.workers.len())
            .map(|i| {
                self.request_report(i).or_else(|| {
                    self.supervise();
                    self.request_report(i)
                })
            })
            .collect()
    }

    fn request_report(&mut self, worker: usize) -> Option<WorkerReport> {
        let (reply, rx) = sync_channel(1);
        self.blocking_send(worker, Request::Stats { reply }).ok()?;
        rx.recv().ok()
    }

    fn assemble(&self, reports: &[Option<WorkerReport>]) -> PoolStats {
        let log_len = self.log.len();
        let mut engine = EngineStats::default();
        let mut per_worker = Vec::with_capacity(reports.len());
        for (i, report) in reports.iter().enumerate() {
            let Some(r) = report else { continue };
            engine = engine.merged(r.stats);
            per_worker.push(WorkerStats {
                worker: r.worker,
                generation: r.generation,
                applied: r.applied,
                replay_lag: log_len.saturating_sub(r.applied),
                queue_depth: self.workers[i].shared.depth.load(Ordering::Relaxed),
                replay_errors: r.replay_errors,
                respawn_replayed: r.respawn_replayed,
                env_epoch: r.env_epoch,
                engine: r.stats,
                profile_samples: r.profile_samples,
                profile: r.profile.clone(),
            });
        }
        PoolStats {
            workers: self.workers.len(),
            log_len,
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
}

/// Mirror a merged [`EngineStats`] into a registry under the same metric
/// names each engine uses locally, so fleet dashboards read one namespace.
fn set_engine_counters(reg: &Registry, s: &EngineStats) {
    reg.counter("engine.parses").set(s.parses);
    reg.counter("engine.inferences").set(s.inferences);
    reg.counter("engine.stmt_cache_hits").set(s.stmt_cache_hits);
    reg.counter("engine.stmt_cache_misses")
        .set(s.stmt_cache_misses);
    reg.counter("engine.stmt_cache_evictions")
        .set(s.stmt_cache_evictions);
    reg.counter("engine.stmt_cache_dep_invalidations")
        .set(s.stmt_cache_dep_invalidations);
    reg.counter("engine.epoch_invalidations")
        .set(s.epoch_invalidations);
    reg.counter("parser.tokens_lexed").set(s.tokens_lexed);
    reg.counter("parser.nodes_parsed").set(s.nodes_parsed);
    reg.counter("types.unify_steps").set(s.unify_steps);
    reg.counter("types.occurs_checks").set(s.occurs_checks);
    reg.counter("types.kind_merges").set(s.kind_merges);
    reg.counter("types.instantiations").set(s.instantiations);
    reg.counter("eval.fuel_consumed").set(s.fuel_consumed);
    reg.counter("eval.records_allocated")
        .set(s.records_allocated);
    reg.counter("eval.sets_allocated").set(s.sets_allocated);
    reg.counter("eval.field_offsets_resolved")
        .set(s.field_offsets_resolved);
    reg.counter("eval.dyn_field_fallbacks")
        .set(s.dyn_field_fallbacks);
}
