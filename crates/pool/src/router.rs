//! The pool front-end: classification, session-affinity routing, write
//! sequencing, barriers, and shutdown.
//!
//! A [`Pool`] is driven from one coordinating thread (`&mut self`
//! methods); all concurrency lives behind the workers' queues. That makes
//! the ordering story easy to state: offsets are assigned under the log
//! lock and enqueued before the lock drops, so each queue sees
//! non-decreasing offsets, and a worker's catch-up-then-serve loop never
//! observes a gap.

use crate::checkpoint::CheckpointStore;
use crate::log::DeclLog;
use crate::supervisor::{spawn_worker, WorkerHandle};
use crate::telemetry::{RequestTrace, SlowRequest, Telemetry};
use crate::worker::{BatchItem, Request};
use crate::{PoolConfig, PoolError};
use polyview::obs::{Clock, EventSink};
use polyview::{EffectSet, StmtClass};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, TrySendError};
use std::sync::Arc;

/// Outcome of a submit against a bounded queue.
#[derive(Debug)]
pub enum Submit<T> {
    /// Accepted; the `T` resolves when the worker serves it.
    Queued(T),
    /// The target worker's queue is at capacity — backpressure. Retry,
    /// shed, or route elsewhere; nothing was enqueued and (for writes)
    /// nothing was sequenced.
    Full,
}

impl<T> Submit<T> {
    pub fn is_full(&self) -> bool {
        matches!(self, Submit::Full)
    }

    pub fn queued(self) -> Option<T> {
        match self {
            Submit::Queued(t) => Some(t),
            Submit::Full => None,
        }
    }
}

/// A pending reply from a worker.
#[derive(Debug)]
pub struct Ticket {
    worker: usize,
    /// For writes, the log offset the statement was sequenced at.
    sequenced: Option<u64>,
    rx: Receiver<Result<String, PoolError>>,
    /// Telemetry context, carried so a dead worker still yields a
    /// terminal `pool.worker_lost` event and an e2e observation.
    trace: Option<TicketTrace>,
}

/// The ticket's half of the trace: enough to emit the terminal event if
/// the worker never replies.
struct TicketTrace {
    telemetry: Arc<Telemetry>,
    trace: RequestTrace,
}

impl std::fmt::Debug for TicketTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketTrace")
            .field("trace", &self.trace)
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Which worker is serving this request.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The log offset this request was sequenced at, if it is a write.
    /// A write ticket's statement is durably in the declaration log — it
    /// will be applied by every replica whether or not the reply arrives.
    pub fn sequenced(&self) -> Option<u64> {
        self.sequenced
    }

    /// The telemetry trace id minted for this request, `None` when
    /// telemetry is disabled. This is the join key a front end (the
    /// network door) uses to stamp its own events — `net.read`,
    /// `net.decoded` — onto the same trace the pool and engine are
    /// already writing.
    pub fn trace_id(&self) -> Option<u64> {
        self.trace.as_ref().map(|tt| tt.trace.id)
    }

    /// Block until the worker replies. If the worker dies first, resolves
    /// to [`PoolError::WorkerLost`] (the supervisor respawns the worker on
    /// the pool's next interaction). A lost *read* is safe to resubmit; a
    /// lost *write* carries `sequenced: Some(offset)` and **must not be
    /// resubmitted** — it is already in the log and will be applied by
    /// every replica, only its outcome string was lost.
    pub fn wait(self) -> Result<String, PoolError> {
        match self.rx.recv() {
            Ok(res) => res,
            Err(_) => {
                // The serving worker died with the request in flight: the
                // worker-side terminal event never fired, so the ticket
                // emits it — the trace still ends, and the e2e histogram
                // still counts the request.
                if let Some(tt) = &self.trace {
                    tt.telemetry.note_worker_lost(&tt.trace, self.worker);
                }
                Err(PoolError::WorkerLost {
                    sequenced: self.sequenced,
                })
            }
        }
    }
}

/// A pending reply for a pipelined batch ([`Pool::submit_batch`]): N
/// statements, one queue slot, one ticket.
#[derive(Debug)]
pub struct BatchTicket {
    worker: usize,
    /// For batches containing writes: the contiguous log range
    /// `[first, first + count)` the writes were sequenced at.
    sequenced: Option<(u64, u64)>,
    rx: Receiver<Vec<Result<String, PoolError>>>,
    trace: Option<TicketTrace>,
}

impl BatchTicket {
    /// Which worker is serving this batch.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The `(first_offset, count)` log range this batch's writes were
    /// sequenced at, if any. Like a single write's offset, the range is
    /// durable the moment the ticket exists: every replica will apply the
    /// writes whether or not the reply arrives.
    pub fn sequenced(&self) -> Option<(u64, u64)> {
        self.sequenced
    }

    /// The telemetry trace id of the batch (see [`Ticket::trace_id`]).
    pub fn trace_id(&self) -> Option<u64> {
        self.trace.as_ref().map(|tt| tt.trace.id)
    }

    /// Block until the worker replies with one result per statement, in
    /// submission order. A lost worker resolves to
    /// [`PoolError::WorkerLost`] carrying the first sequenced offset:
    /// batch writes, like single writes, are already in the log and must
    /// not be resubmitted.
    pub fn wait(self) -> Result<Vec<Result<String, PoolError>>, PoolError> {
        match self.rx.recv() {
            Ok(res) => Ok(res),
            Err(_) => {
                if let Some(tt) = &self.trace {
                    tt.telemetry.note_worker_lost(&tt.trace, self.worker);
                }
                Err(PoolError::WorkerLost {
                    sequenced: self.sequenced.map(|(first, _)| first),
                })
            }
        }
    }
}

/// Holds one worker inside its `Pause` request until dropped (or
/// [`WorkerGate::release`]d). Deterministic backpressure for tests and
/// demos: a paused worker dequeues nothing, so its bounded queue fills.
#[derive(Debug)]
pub struct WorkerGate {
    _tx: Sender<()>,
}

impl WorkerGate {
    /// Unblock the worker (equivalent to dropping the gate).
    pub fn release(self) {}
}

/// A replicated engine pool. See the crate docs for the model; the
/// API surface is [`Pool::submit`] / [`Pool::submit_read`] /
/// [`Pool::submit_write`] (non-blocking, backpressured), [`Pool::run`]
/// (blocking convenience), [`Pool::barrier`], [`Pool::stats`] /
/// [`Pool::metrics_json`], and [`Pool::shutdown`].
pub struct Pool {
    pub(crate) cfg: PoolConfig,
    pub(crate) log: Arc<DeclLog>,
    pub(crate) workers: Vec<WorkerHandle>,
    /// Names declared effectful by sequenced writes — the router-side half
    /// of classification ([`polyview::EffectSet`]). Kept in lockstep with
    /// the log: updated the moment a write is sequenced, so a later
    /// `f(o)` routes as a write even though it is syntactically pure.
    pub(crate) effects: EffectSet,
    /// Shared request telemetry (trace events, latency histograms, slow
    /// log) — one instance for the pool's lifetime, shared with every
    /// worker across respawns.
    pub(crate) telemetry: Arc<Telemetry>,
    /// The newest engine checkpoint (workers publish, the router reads it
    /// for bootstrap, log truncation, and snapshot-dir persistence).
    pub(crate) checkpoints: Arc<CheckpointStore>,
    pub(crate) respawns: u64,
    pub(crate) submitted_reads: u64,
    pub(crate) submitted_writes: u64,
    pub(crate) rejected_full: u64,
    /// Windowed-stats state ([`crate::PoolConfig::stats_window`]); `None`
    /// keeps ticking a zero-clock-read branch.
    pub(crate) window: Option<crate::health::PoolWindow>,
}

impl Pool {
    pub fn new(cfg: PoolConfig) -> Pool {
        assert!(cfg.workers >= 1, "a pool needs at least one worker");
        // With a snapshot directory, restart resumes from the newest
        // persisted checkpoint: the log starts fully compacted at the
        // checkpoint's offset and every replica bootstraps from its
        // engine bytes. Writes sequenced *after* the last persisted
        // checkpoint did not survive the previous process — the log is
        // in-memory by design; the checkpoint interval is the durability
        // granularity.
        let (checkpoints, restored) = match &cfg.snapshot_dir {
            Some(dir) => CheckpointStore::open(dir.clone()),
            None => (CheckpointStore::in_memory(), None),
        };
        let checkpoints = Arc::new(checkpoints);
        let log = Arc::new(match &restored {
            Some(r) => DeclLog::with_base(r.offset),
            None => DeclLog::new(),
        });
        let mut effects = EffectSet::new();
        if cfg.load_prelude {
            // Replicas load the prelude before serving; classification
            // must see the same declarations (the prelude is pure today,
            // but that is not this module's invariant to assume).
            let _ = effects.observe_program(polyview::prelude::PRELUDE);
        }
        if let Some(r) = &restored {
            // Re-arm classification: the sources that declared these
            // names effectful live in the compacted prefix and can never
            // be re-observed. The persisted set was taken at (or after)
            // the checkpoint's offset, so it is a superset of the names
            // effectful *at* the offset — conservative-safe: an extra
            // name only routes some pure statements through the log.
            for name in &r.effects {
                effects.mark_effectful(name.as_str());
            }
        }
        let telemetry = Arc::new(Telemetry::new(&cfg));
        let workers = (0..cfg.workers)
            .map(|i| spawn_worker(i, 0, &cfg, &log, &telemetry, &checkpoints))
            .collect();
        let window = cfg.stats_window.map(crate::health::PoolWindow::new);
        Pool {
            cfg,
            log,
            workers,
            effects,
            telemetry,
            checkpoints,
            respawns: 0,
            submitted_reads: 0,
            submitted_writes: 0,
            rejected_full: 0,
            window,
        }
    }

    /// A pool of `n` replicas with default queue/stack settings.
    pub fn with_workers(n: usize) -> Pool {
        Pool::new(PoolConfig::default().workers(n))
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of writes sequenced so far (absolute — compaction does not
    /// shrink it).
    pub fn log_len(&self) -> u64 {
        self.log.len()
    }

    /// The log's truncation point: entries below this offset have been
    /// compacted away (0 until checkpointing produces one).
    pub fn log_base(&self) -> u64 {
        self.log.base()
    }

    /// Grow the pool by `k` replicas. New workers bootstrap from the
    /// newest checkpoint and replay only the log tail above it — growth
    /// cost is bounded by the checkpoint interval, not by the full write
    /// history (without checkpointing they replay from offset 0, exactly
    /// like a respawn). Session affinity remaps over the new width, so
    /// some existing sessions migrate; replicas are interchangeable, so
    /// only their statement-cache warmth is lost.
    pub fn add_workers(&mut self, k: usize) {
        for _ in 0..k {
            let index = self.workers.len();
            self.workers.push(spawn_worker(
                index,
                0,
                &self.cfg,
                &self.log,
                &self.telemetry,
                &self.checkpoints,
            ));
        }
        self.cfg.workers = self.workers.len();
    }

    /// The declaration log (shared with every replica).
    pub fn log(&self) -> &Arc<DeclLog> {
        &self.log
    }

    /// Session affinity: which worker serves `session`'s requests. A
    /// bijective finalizer (splitmix64) spreads adjacent session ids
    /// across replicas while keeping the mapping stable for a session's
    /// lifetime — so a REPL-style session reuses one replica's warmed
    /// statement cache.
    pub fn worker_for(&self, session: u64) -> usize {
        (splitmix64(session) % self.workers.len() as u64) as usize
    }

    /// Classify `src` against the pool's [`EffectSet`] — syntax *plus*
    /// names that sequenced writes made effectful (`classify`'s module
    /// docs explain why bare syntax is not enough: `f(o)` after
    /// `fun f x = insert(C, x);` must be a write).
    pub fn classify(&self, src: &str) -> Result<StmtClass, PoolError> {
        Ok(self.effects.classify_program(src)?)
    }

    /// Classify `src` ([`Pool::classify`]) and route it: reads to the
    /// session's affinity worker, writes through the declaration log.
    pub fn submit(&mut self, session: u64, src: &str) -> Result<Submit<Ticket>, PoolError> {
        match self.classify(src)? {
            StmtClass::Read => {
                let worker = self.worker_for(session);
                let trace = self.telemetry.begin(session, StmtClass::Read);
                Ok(self.dispatch_read(worker, src, trace))
            }
            StmtClass::Write => {
                let worker = self.worker_for(session);
                let trace = self.telemetry.begin(session, StmtClass::Write);
                Ok(self.dispatch_write(worker, src, trace))
            }
        }
    }

    /// Submit a statement that must be a read; a write is rejected with
    /// [`PoolError::Misrouted`] *before* anything is enqueued, so a
    /// mis-labelled mutation can never bypass log sequencing.
    pub fn submit_read(&mut self, session: u64, src: &str) -> Result<Submit<Ticket>, PoolError> {
        match self.classify(src)? {
            StmtClass::Read => {
                let worker = self.worker_for(session);
                let trace = self.telemetry.begin(session, StmtClass::Read);
                Ok(self.dispatch_read(worker, src, trace))
            }
            got @ StmtClass::Write => Err(PoolError::Misrouted {
                expected: StmtClass::Read,
                got,
            }),
        }
    }

    /// Submit a statement that must be a write. Rejecting reads keeps the
    /// log free of no-op entries (every replica would replay them
    /// forever). For the one classification blind spot — calling an
    /// effectful closure reached through *data* rather than a name (see
    /// `classify`'s module docs) — wrap the call in a declaration
    /// (`val it = …;`): declarations always classify as writes, which
    /// forces sequencing.
    pub fn submit_write(&mut self, session: u64, src: &str) -> Result<Submit<Ticket>, PoolError> {
        match self.classify(src)? {
            StmtClass::Write => {
                let worker = self.worker_for(session);
                let trace = self.telemetry.begin(session, StmtClass::Write);
                Ok(self.dispatch_write(worker, src, trace))
            }
            got @ StmtClass::Read => Err(PoolError::Misrouted {
                expected: StmtClass::Write,
                got,
            }),
        }
    }

    /// Submit a pipelined batch: N statements, one queue slot, one
    /// [`BatchTicket`] — the front door's amortization lever. All write
    /// items are sequenced **contiguously under one log-lock hold**
    /// (instead of N lock acquisitions and N queue slots), and the batch
    /// is served in order on the session's affinity replica, so a read
    /// item observes every write item before it. Backpressure is
    /// all-or-nothing: a full queue rejects the whole batch with
    /// [`Submit::Full`] and sequences nothing.
    pub fn submit_batch(
        &mut self,
        session: u64,
        stmts: &[&str],
    ) -> Result<Submit<BatchTicket>, PoolError> {
        if stmts.is_empty() {
            return Err(PoolError::Internal("empty batch".to_string()));
        }
        let mut classes = Vec::with_capacity(stmts.len());
        for src in stmts {
            classes.push(self.classify(src)?);
        }
        let worker = self.worker_for(session);
        let class = if classes.iter().any(|c| matches!(c, StmtClass::Write)) {
            StmtClass::Write
        } else {
            StmtClass::Read
        };
        let mut trace = self.telemetry.begin(session, class);
        self.supervise();
        let (reply, rx) = sync_channel(1);
        // Same atomicity discipline as `dispatch_write`, generalized:
        // reserve a contiguous offset range for the write items and
        // enqueue the batch while holding the log lock — nothing is
        // sequenced unless the queue accepted the request.
        let mut entries = self.log.lock();
        let base = entries.next_offset();
        let mut next = base;
        let mut items = Vec::with_capacity(stmts.len());
        let mut writes = Vec::new();
        for (src, class) in stmts.iter().zip(&classes) {
            match class {
                StmtClass::Write => {
                    items.push(BatchItem::Write { offset: next });
                    next += 1;
                    writes.push(*src);
                }
                StmtClass::Read => items.push(BatchItem::Read {
                    src: (*src).to_string(),
                }),
            }
        }
        let n_writes = writes.len() as u64;
        if let Some(t) = trace.as_mut() {
            self.telemetry.stamp_enqueue(t);
        }
        self.workers[worker]
            .shared
            .depth
            .fetch_add(1, Ordering::Relaxed);
        match self.workers[worker].tx.try_send(Request::Batch {
            items,
            min_offset: base,
            src: stmts.join(" ; "),
            reply,
            trace,
        }) {
            Ok(()) => {
                for src in &writes {
                    entries.push(src);
                }
                drop(entries);
                for src in &writes {
                    let _ = self.effects.observe_program(src);
                }
                self.submitted_writes += n_writes;
                self.submitted_reads += stmts.len() as u64 - n_writes;
                let sequenced = (n_writes > 0).then_some(base);
                if let Some(t) = &trace {
                    self.telemetry.note_enqueued(t, worker, sequenced);
                }
                if n_writes > 0 {
                    for i in 0..self.workers.len() {
                        if i != worker {
                            let _ = self.try_send(i, Request::CatchUp { upto: next });
                        }
                    }
                    self.compact_log();
                }
                Ok(Submit::Queued(BatchTicket {
                    worker,
                    sequenced: (n_writes > 0).then_some((base, n_writes)),
                    rx,
                    trace: trace.map(|trace| TicketTrace {
                        telemetry: Arc::clone(&self.telemetry),
                        trace,
                    }),
                }))
            }
            Err(_) => {
                self.workers[worker]
                    .shared
                    .depth
                    .fetch_sub(1, Ordering::Relaxed);
                drop(entries);
                self.rejected_full += 1;
                if let Some(t) = &trace {
                    self.telemetry.note_rejected(t, worker);
                }
                Ok(Submit::Full)
            }
        }
    }

    /// Whether request telemetry is enabled (fixed at construction).
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.enabled
    }

    /// The shared time source every telemetry timestamp comes from. A
    /// front end (the network door) reads the same clock so its events —
    /// `net.read`, `net.decoded` — land on the same timeline as the
    /// pool's and the engines'.
    pub fn telemetry_clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.telemetry.clock)
    }

    /// The shared sink telemetry events are emitted to, for front ends
    /// stamping their own lifecycle events onto a request's trace.
    pub fn event_sink(&self) -> Arc<dyn EventSink> {
        Arc::clone(&self.telemetry.sink)
    }

    /// Flush everything already accepted: every request queued on every
    /// replica is served and every sequenced write applied before this
    /// returns. This is the pool-side half of a graceful drain (the
    /// network door stops accepting, drains its connections, then calls
    /// this); a barrier gives exactly that, since barrier requests queue
    /// behind all earlier work.
    pub fn drain(&mut self) -> Result<(), PoolError> {
        self.barrier().map(|_| ())
    }

    /// Blocking convenience over [`Pool::submit`]: waits out backpressure
    /// (sleeping with capped exponential backoff between retries — never a
    /// hot spin) and waits for the reply. Classification runs **once**,
    /// not per retry. REPL-style callers want exactly this; servers should
    /// use `submit` and handle [`Submit::Full`] themselves.
    pub fn run(&mut self, session: u64, src: &str) -> Result<String, PoolError> {
        let class = self.classify(src)?;
        let worker = self.worker_for(session);
        // One trace for the whole call: a backpressured retry re-stamps
        // its enqueue time (after a `pool.rejected_full` event) rather
        // than minting a fresh id, so the final timeline shows the waits.
        let trace = self.telemetry.begin(session, class);
        let mut backoff = std::time::Duration::from_micros(50);
        loop {
            let submit = match class {
                StmtClass::Read => self.dispatch_read(worker, src, trace),
                StmtClass::Write => self.dispatch_write(worker, src, trace),
            };
            match submit {
                Submit::Queued(ticket) => return ticket.wait(),
                Submit::Full => {
                    // The queue is full because the worker is busy (or
                    // paused): sleep rather than spin, backing off to a
                    // bound that keeps a wedged worker from pinning this
                    // core while staying responsive once it drains.
                    // `dispatch_*` re-runs supervision each retry, so a
                    // *dead* worker is respawned, not waited on.
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(std::time::Duration::from_millis(5));
                }
            }
        }
    }

    /// Route a read to a *specific* replica (bypassing affinity), waiting
    /// for the reply. The request still carries the current log length, so
    /// the replica catches up before answering — this is the probe the
    /// convergence tests use to check that every replica answers a query
    /// identically. A statement classifying as a write is rejected
    /// ([`PoolError::Misrouted`]): executing it on one replica only would
    /// diverge the pool.
    pub fn probe_worker(&mut self, worker: usize, src: &str) -> Result<String, PoolError> {
        if let got @ StmtClass::Write = self.classify(src)? {
            return Err(PoolError::Misrouted {
                expected: StmtClass::Read,
                got,
            });
        }
        self.supervise();
        let min_offset = self.log.len();
        let (reply, rx) = sync_channel(1);
        let req = Request::Read {
            src: src.to_string(),
            min_offset,
            reply,
            trace: None,
        };
        if self.blocking_send(worker, req).is_err() {
            return Err(PoolError::WorkerLost { sequenced: None });
        }
        rx.recv()
            .unwrap_or(Err(PoolError::WorkerLost { sequenced: None }))
    }

    /// The slow-request log, oldest first: every telemetry-tracked
    /// request whose end-to-end latency met
    /// [`crate::PoolConfig::slow_threshold_ns`], up to the configured ring
    /// capacity. Empty when no threshold is set (the default).
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.telemetry.slow_requests()
    }

    /// Wait until every replica has applied every write sequenced so far.
    /// Returns each worker's applied offset (all ≥ the log length observed
    /// at entry). Dead workers are respawned — and therefore fully caught
    /// up by replay — as part of the barrier.
    pub fn barrier(&mut self) -> Result<Vec<u64>, PoolError> {
        self.supervise();
        let upto = self.log.len();
        let mut pending = Vec::with_capacity(self.workers.len());
        for i in 0..self.workers.len() {
            let (reply, rx) = sync_channel(1);
            if self
                .blocking_send(i, Request::Barrier { upto, reply })
                .is_err()
            {
                return Err(PoolError::WorkerLost { sequenced: None });
            }
            pending.push(rx);
        }
        let mut applied = Vec::with_capacity(pending.len());
        for rx in pending {
            applied.push(
                rx.recv()
                    .map_err(|_| PoolError::WorkerLost { sequenced: None })?,
            );
        }
        Ok(applied)
    }

    /// Hold `worker` inside a `Pause` request until the returned gate is
    /// dropped. While paused, the worker dequeues nothing, so submissions
    /// to it observe real [`Submit::Full`] backpressure — the hook the
    /// tier-1 backpressure test and the example server use. (The pause
    /// request itself is sent blocking, so it always lands.)
    pub fn pause_worker(&mut self, worker: usize) -> Result<WorkerGate, PoolError> {
        self.supervise();
        let (gtx, grx) = channel();
        if self
            .blocking_send(worker, Request::Pause { gate: grx })
            .is_err()
        {
            return Err(PoolError::WorkerLost { sequenced: None });
        }
        Ok(WorkerGate { _tx: gtx })
    }

    /// Make `worker` panic, and wait until its thread is actually dead —
    /// a deterministic chaos hook for supervision tests. The next pool
    /// interaction ([`Pool::supervise`] runs on every submit, barrier, and
    /// stats call) respawns it with a full log replay. Do not call while
    /// the worker is paused (it would never dequeue the crash); use
    /// [`Pool::queue_worker_panic`] + [`Pool::await_worker_exit`] there.
    pub fn inject_worker_panic(&mut self, worker: usize) {
        self.supervise();
        let _ = self.blocking_send(worker, Request::Crash);
        self.await_worker_exit(worker);
    }

    /// Enqueue a panic without waiting for it to be served — composes with
    /// [`Pool::pause_worker`] to order a crash deterministically between
    /// other queued requests. Returns false if the queue was full.
    pub fn queue_worker_panic(&mut self, worker: usize) -> bool {
        self.try_send(worker, Request::Crash).is_ok()
    }

    /// Spin until `worker`'s current thread has exited.
    pub fn await_worker_exit(&self, worker: usize) {
        while !self.workers[worker].join.is_finished() {
            std::thread::yield_now();
        }
    }

    /// Stop every worker and join their threads. Workers finish whatever
    /// is already queued first (the queue drains before the disconnect is
    /// observed), so shutdown is clean, not abortive.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Compact the log: persist the newest checkpoint to the snapshot
    /// directory (no-op without one), then drop every entry below
    /// `min(newest checkpoint offset, min over replicas of applied)`.
    /// Both bounds are necessary: a future bootstrap reads from the
    /// checkpoint offset, and a live replica (or a dead one about to be
    /// respawned — its frozen `applied` gauge is conservative) reads from
    /// its own `applied`. Returns the new truncation point. Runs after
    /// every sequenced write; without checkpointing it never truncates
    /// anything, which is exactly the pre-checkpoint behavior.
    pub fn compact_log(&mut self) -> u64 {
        let Some(cp) = self.checkpoints.latest_offset() else {
            return self.log.base();
        };
        self.persist_checkpoint();
        let min_applied = self
            .workers
            .iter()
            .map(|w| w.shared.applied.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0);
        self.log.truncate_below(cp.min(min_applied));
        self.log.base()
    }

    /// Write the newest checkpoint (plus the router's current effect
    /// names — see `Pool::new` on why they must travel with it) to the
    /// snapshot directory. No-op without a directory or when the newest
    /// checkpoint is already on disk.
    fn persist_checkpoint(&self) {
        let effects: Vec<String> = self
            .effects
            .effectful_names()
            .map(|n| n.as_str().to_string())
            .collect();
        self.checkpoints.persist_latest(&effects);
    }

    fn shutdown_inner(&mut self) {
        for handle in self.workers.drain(..) {
            // Best effort explicit shutdown, then disconnect the queue —
            // the worker exits on whichever it sees first. Never block on
            // a full queue here.
            let _ = handle.tx.try_send(Request::Shutdown);
            drop(handle.tx);
            let _ = handle.join.join();
        }
        // Final durability point, after the drain so the slot holds the
        // newest checkpoint any worker published while finishing its
        // queue: a shutdown between compaction passes must not lose it.
        self.persist_checkpoint();
    }

    // ----- dispatch internals -----

    fn dispatch_read(
        &mut self,
        worker: usize,
        src: &str,
        mut trace: Option<RequestTrace>,
    ) -> Submit<Ticket> {
        self.supervise();
        let min_offset = self.log.len();
        // Stamp the enqueue time *before* the send: the worker can
        // dequeue (and read the clock) the instant the send lands, and
        // its reading must be ordered after ours for the queue wait to be
        // well-defined.
        if let Some(t) = trace.as_mut() {
            self.telemetry.stamp_enqueue(t);
        }
        let (reply, rx) = sync_channel(1);
        let req = Request::Read {
            src: src.to_string(),
            min_offset,
            reply,
            trace,
        };
        match self.try_send(worker, req) {
            Ok(()) => {
                self.submitted_reads += 1;
                if let Some(t) = &trace {
                    self.telemetry.note_enqueued(t, worker, None);
                }
                Submit::Queued(self.ticket(worker, None, rx, trace))
            }
            Err(()) => {
                self.rejected_full += 1;
                if let Some(t) = &trace {
                    self.telemetry.note_rejected(t, worker);
                }
                Submit::Full
            }
        }
    }

    fn ticket(
        &self,
        worker: usize,
        sequenced: Option<u64>,
        rx: Receiver<Result<String, PoolError>>,
        trace: Option<RequestTrace>,
    ) -> Ticket {
        Ticket {
            worker,
            sequenced,
            rx,
            trace: trace.map(|trace| TicketTrace {
                telemetry: Arc::clone(&self.telemetry),
                trace,
            }),
        }
    }

    fn dispatch_write(
        &mut self,
        worker: usize,
        src: &str,
        mut trace: Option<RequestTrace>,
    ) -> Submit<Ticket> {
        self.supervise();
        let (reply, rx) = sync_channel(1);
        // Reserve the next offset and enqueue the apply-request while
        // holding the log lock: nothing is sequenced unless the affinity
        // worker accepted the request (backpressure must not grow the
        // log), and no other thread can observe the offset before the
        // entry is in place.
        let mut entries = self.log.lock();
        let offset = entries.next_offset();
        // Enqueue stamp before the send (see `dispatch_read`).
        if let Some(t) = trace.as_mut() {
            self.telemetry.stamp_enqueue(t);
        }
        // Gauge before send, so the worker's decrement-on-dequeue can
        // never observe (and wrap below) a count that excludes its own
        // request; undone if the send fails.
        self.workers[worker]
            .shared
            .depth
            .fetch_add(1, Ordering::Relaxed);
        match self.workers[worker].tx.try_send(Request::Write {
            offset,
            reply,
            trace,
        }) {
            Ok(()) => {
                entries.push(src);
                drop(entries);
                // The write is sequenced: record the names it makes
                // effectful, so later statements that *use* them classify
                // as writes too (the declared-function escape).
                let _ = self.effects.observe_program(src);
                self.submitted_writes += 1;
                if let Some(t) = &trace {
                    self.telemetry.note_enqueued(t, worker, Some(offset));
                }
                // Eager propagation: nudge every other replica to replay
                // the new entry now rather than on its next read. Best
                // effort — a full queue just means that replica catches up
                // lazily (its next offset-carrying request replays the
                // gap).
                for i in 0..self.workers.len() {
                    if i != worker {
                        let _ = self.try_send(i, Request::CatchUp { upto: offset + 1 });
                    }
                }
                self.compact_log();
                Submit::Queued(self.ticket(worker, Some(offset), rx, trace))
            }
            Err(_) => {
                self.workers[worker]
                    .shared
                    .depth
                    .fetch_sub(1, Ordering::Relaxed);
                drop(entries);
                self.rejected_full += 1;
                if let Some(t) = &trace {
                    self.telemetry.note_rejected(t, worker);
                }
                Submit::Full
            }
        }
    }

    /// Non-blocking send with depth accounting — the gauge is incremented
    /// *before* the send and rolled back on failure, so the worker's
    /// decrement at dequeue always finds its own increment already in
    /// place (no transient wrap past zero). `Err(())` covers both a full
    /// queue and a disconnected (dead) worker; for reads the caller
    /// reports backpressure either way and the dead worker is respawned on
    /// the next interaction.
    fn try_send(&mut self, worker: usize, req: Request) -> Result<(), ()> {
        let depth = &self.workers[worker].shared.depth;
        depth.fetch_add(1, Ordering::Relaxed);
        match self.workers[worker].tx.try_send(req) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.workers[worker]
                    .shared
                    .depth
                    .fetch_sub(1, Ordering::Relaxed);
                Err(())
            }
        }
    }

    /// Blocking send for control-plane requests (barrier, stats, pause,
    /// probe): waits out a momentarily full queue, errs only if the worker
    /// is gone. Same gauge discipline as [`Pool::try_send`].
    pub(crate) fn blocking_send(&mut self, worker: usize, req: Request) -> Result<(), ()> {
        let depth = &self.workers[worker].shared.depth;
        depth.fetch_add(1, Ordering::Relaxed);
        match self.workers[worker].tx.send(req) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.workers[worker]
                    .shared
                    .depth
                    .fetch_sub(1, Ordering::Relaxed);
                Err(())
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// splitmix64's finalizer: a cheap bijective mixer, plenty for spreading
/// session ids across a handful of replicas.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_is_stable_and_spread() {
        let pool = Pool::new(PoolConfig::default().workers(4));
        let w = pool.worker_for(42);
        assert_eq!(pool.worker_for(42), w, "affinity must be stable");
        let hit: std::collections::BTreeSet<usize> = (0..64).map(|s| pool.worker_for(s)).collect();
        assert!(hit.len() > 1, "sessions must spread across replicas");
        pool.shutdown();
    }

    #[test]
    fn splitmix_is_not_identity_like() {
        // Adjacent inputs should not map to adjacent outputs mod small n.
        let outs: Vec<u64> = (0..8).map(|i| splitmix64(i) % 4).collect();
        assert!(outs.iter().collect::<std::collections::BTreeSet<_>>().len() > 1);
    }
}
