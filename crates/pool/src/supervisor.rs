//! Worker supervision: spawning, liveness detection, and respawn-with-
//! replay.
//!
//! The failure model is crash-only: a worker that panics (evaluator bug,
//! injected crash) takes its whole replica down — there is no partial
//! state to repair, because the replacement rebuilds the replica
//! deterministically: it restores the pool's newest checkpoint
//! ([`crate::checkpoint::CheckpointStore`]) when one exists and replays
//! only the declaration-log tail above it ([`crate::log::DeclLog`]) —
//! from offset 0 when no checkpoint has been published yet. In-flight requests on the dead worker's
//! queue are lost; their tickets resolve to
//! [`crate::PoolError::WorkerLost`] (the reply senders drop with the
//! queue). What a caller does next depends on what was lost: a **read**
//! had no effect and is safely resubmitted, but a **write** was sequenced
//! into the log *before* it was enqueued, so the respawn's replay (and
//! every other replica) applies it anyway — only its outcome string is
//! gone, and resubmitting would double-apply it. `WorkerLost::sequenced`
//! carries the write's log offset so callers can tell the two apart.
//!
//! Supervision is pull-based: the router checks `JoinHandle::is_finished`
//! on every pool interaction ([`Pool::supervise`]) rather than running a
//! monitor thread — a dead worker is respawned before the next request
//! could be routed to it, which is the only moment liveness matters.

use crate::checkpoint::CheckpointStore;
use crate::log::DeclLog;
use crate::router::Pool;
use crate::telemetry::Telemetry;
use crate::worker::{worker_main, Request, WorkerCfg, WorkerShared};
use crate::PoolConfig;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The router's handle on one worker slot.
pub(crate) struct WorkerHandle {
    /// Respawn generation of the thread currently in this slot.
    pub generation: u64,
    pub tx: SyncSender<Request>,
    pub join: JoinHandle<()>,
    pub shared: Arc<WorkerShared>,
}

/// Spawn a worker thread for `index` at `generation`. The thread gets the
/// pool's configured stack size — engines must never run on a default
/// spawned-thread stack (see [`polyview::engine::with_stack_size`]) — and
/// constructs its engine locally, since engines cannot cross threads.
pub(crate) fn spawn_worker(
    index: usize,
    generation: u64,
    cfg: &PoolConfig,
    log: &Arc<DeclLog>,
    telemetry: &Arc<Telemetry>,
    checkpoints: &Arc<CheckpointStore>,
) -> WorkerHandle {
    let (tx, rx) = sync_channel(cfg.queue_capacity);
    let shared = Arc::new(WorkerShared::default());
    let wcfg = WorkerCfg {
        fuel: cfg.fuel,
        load_prelude: cfg.load_prelude,
        profile_sample_every: cfg.profile_sample_every,
        checkpoint_every: cfg.checkpoint_every,
    };
    // The boot checkpoint and the replay horizon must both be read on
    // *this* (router) thread, checkpoint first: checkpoint offsets only
    // grow and never exceed the log head, so this order guarantees
    // `backlog >= boot.offset`. And only the router sequences entries
    // that reach a worker as `Write` requests, so none can be sequenced
    // between the `backlog` read and the handle becoming routable — every
    // such offset >= `backlog` reaches the worker as an explicit request.
    // (Entries a replica appends when it promotes a read never become
    // requests anywhere else; other replicas pick them up by catch-up.)
    // Reading the length on the worker thread instead would race with a
    // write sequenced right after spawn and double-apply its entry.
    let boot = checkpoints.latest();
    let backlog = log.len();
    // Seed the lag gauge with the boot offset *before* the thread runs:
    // the router's compaction pass takes the min over `shared.applied`,
    // and a freshly spawned worker reporting 0 while bootstrapping from a
    // checkpoint at offset K would stall truncation (harmless) — but a
    // respawn during compaction must never make the pass think offset 0
    // is still needed when the replica will in fact never read below K.
    let boot_offset = boot.as_ref().map_or(0, |cp| cp.offset);
    shared.applied.store(boot_offset, Ordering::Relaxed);
    let join = std::thread::Builder::new()
        .name(format!("pool-worker-{index}"))
        .stack_size(cfg.stack_bytes)
        .spawn({
            let log = Arc::clone(log);
            let shared = Arc::clone(&shared);
            let telemetry = Arc::clone(telemetry);
            let checkpoints = Arc::clone(checkpoints);
            move || {
                worker_main(
                    index,
                    generation,
                    wcfg,
                    log,
                    shared,
                    telemetry,
                    checkpoints,
                    boot,
                    rx,
                    backlog,
                )
            }
        })
        .expect("spawn pool worker thread");
    WorkerHandle {
        generation,
        tx,
        join,
        shared,
    }
}

impl Pool {
    /// Respawn every worker whose thread has exited (panic or poison).
    /// The replacement bootstraps from the newest checkpoint (or offset 0
    /// without one) and replays the log tail before serving; respawns are
    /// counted in [`crate::PoolStats::respawns`]. Returns how many workers
    /// were respawned by this call.
    pub(crate) fn supervise(&mut self) -> usize {
        let mut respawned = 0;
        for i in 0..self.workers.len() {
            if self.workers[i].join.is_finished() {
                let generation = self.workers[i].generation + 1;
                let fresh = spawn_worker(
                    i,
                    generation,
                    &self.cfg,
                    &self.log,
                    &self.telemetry,
                    &self.checkpoints,
                );
                let old = std::mem::replace(&mut self.workers[i], fresh);
                // Reap the dead thread; a panic here is already accounted
                // for (that's why we are respawning).
                let _ = old.join.join();
                respawned += 1;
            }
        }
        self.respawns += respawned as u64;
        respawned
    }
}
