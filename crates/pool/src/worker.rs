//! A pool worker: one thread owning one full engine replica.
//!
//! The worker's only interface is its bounded request queue. Every request
//! that depends on log state carries an offset, and the worker *catches up*
//! — replays log entries it has not applied yet — before serving it, so
//! ordering guarantees are local and simple:
//!
//! * The router is single-threaded per pool and assigns offsets under the
//!   log lock, so offsets arriving on one queue are non-decreasing.
//! * A `Write { offset }` therefore always finds `applied == offset` and
//!   executes the entry itself, capturing its outcome for the caller; the
//!   same entry reaches every other replica as plain replay.
//! * A `Read { min_offset }` first replays to `min_offset` — the log length
//!   at submit time — which is what makes read-your-writes hold on *any*
//!   replica, not just the session's affinity worker.
//!
//! The engine is constructed inside the spawned thread (its `Rc`-based
//! values never cross threads), and the thread itself is spawned with the
//! pool's configured stack size, so deep translations and non-tail `fix`
//! recursion get the same headroom [`polyview::engine::with_stack_size`]
//! provides on the single-engine path.

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::log::DeclLog;
use crate::telemetry::{RequestTrace, Telemetry};
use crate::PoolError;
use polyview::{Engine, EngineStats, Outcome, Profile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

/// A request to a worker. Reply channels are rendezvous-sized
/// (`sync_channel(1)`); exactly one reply is ever sent, so a worker never
/// blocks on a reply — if the caller dropped its ticket, the reply is
/// discarded.
pub(crate) enum Request {
    /// Evaluate a read after replaying the log to at least `min_offset`.
    Read {
        src: String,
        min_offset: u64,
        reply: SyncSender<Result<String, PoolError>>,
        /// Telemetry context minted at submit (`None` when disabled, and
        /// always for control-plane probes).
        trace: Option<RequestTrace>,
    },
    /// Apply the log entry at `offset` (replaying any gap first) and reply
    /// with its outcome.
    Write {
        offset: u64,
        reply: SyncSender<Result<String, PoolError>>,
        trace: Option<RequestTrace>,
    },
    /// Serve a pipelined batch: one queue slot, one reply, one catch-up to
    /// `min_offset`, then every item in order on this replica. Write items
    /// were sequenced contiguously under the log lock at submit, so a
    /// read item placed after a write item observes that write — batches
    /// are read-your-writes *internally*, not just across requests.
    Batch {
        items: Vec<BatchItem>,
        min_offset: u64,
        /// Truncated source summary for the slow log (the items themselves
        /// carry only offsets for writes).
        src: String,
        reply: SyncSender<Vec<Result<String, PoolError>>>,
        trace: Option<RequestTrace>,
    },
    /// Replay the log to at least `upto` (eager write propagation; safe to
    /// drop when the queue is full — the next offset-carrying request
    /// replays the gap anyway).
    CatchUp { upto: u64 },
    /// Replay to at least `upto`, then reply with the applied offset.
    Barrier { upto: u64, reply: SyncSender<u64> },
    /// Reply with a full observability report.
    Stats { reply: SyncSender<WorkerReport> },
    /// Block until the gate's sender is dropped — a deterministic way to
    /// hold a worker busy (backpressure tests, demos).
    Pause { gate: Receiver<()> },
    /// Panic on purpose (supervision tests).
    Crash,
    /// Exit the serve loop (queue disconnection does the same).
    Shutdown,
}

/// One statement of a pipelined batch ([`Request::Batch`]). Writes were
/// already sequenced (the offset is the item's identity — the entry text
/// lives in the log); reads carry their source.
#[derive(Debug)]
pub(crate) enum BatchItem {
    Write { offset: u64 },
    Read { src: String },
}

/// One worker's observability snapshot, produced on its own thread (the
/// engine itself is thread-confined, and its inference and machine
/// counters sync into its registry only at export, so the JSON export is
/// rendered worker-side).
#[derive(Clone, Debug)]
pub struct WorkerReport {
    pub worker: usize,
    /// Respawn generation: 0 for the original spawn, +1 per respawn.
    pub generation: u64,
    /// Log offset this replica has applied up to (exclusive).
    pub applied: u64,
    /// Replayed entries that failed (deterministic across replicas).
    pub replay_errors: u64,
    /// Log entries this incarnation replayed at bootstrap — the log tail
    /// above its boot checkpoint (or the whole log without one). The
    /// number the checkpoint tier exists to bound.
    pub respawn_replayed: u64,
    /// The replica's declaration epoch — equal on all replicas that have
    /// applied the same log prefix.
    pub env_epoch: u64,
    pub stats: EngineStats,
    /// The replica's full metrics registry as JSON lines.
    pub metrics_json: String,
    /// Requests whose evaluation was profiled
    /// ([`crate::PoolConfig::profile_sample_every`]).
    pub profile_samples: u64,
    /// The merged attribution profile of every sampled request, `None`
    /// until something has been sampled.
    pub profile: Option<Profile>,
}

/// Gauges shared between a worker and the router: current queue depth
/// (incremented at enqueue, decremented at dequeue), replay progress, and
/// replay error count.
#[derive(Debug, Default)]
pub(crate) struct WorkerShared {
    pub depth: AtomicU64,
    pub applied: AtomicU64,
    pub replay_errors: AtomicU64,
    /// Entries replayed by this incarnation's bootstrap (stored once,
    /// after catch-up; per-incarnation, not cumulative).
    pub respawn_replayed: AtomicU64,
    /// Checkpoints this incarnation has published.
    pub checkpoints: AtomicU64,
    /// Total nanoseconds this incarnation spent encoding checkpoints.
    pub checkpoint_ns: AtomicU64,
}

/// The engine-affecting slice of [`crate::PoolConfig`], shipped to the
/// worker thread at spawn.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkerCfg {
    pub fuel: Option<u64>,
    pub load_prelude: bool,
    pub profile_sample_every: Option<u64>,
    pub checkpoint_every: Option<u64>,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn worker_main(
    index: usize,
    generation: u64,
    cfg: WorkerCfg,
    log: Arc<DeclLog>,
    shared: Arc<WorkerShared>,
    telemetry: Arc<Telemetry>,
    checkpoints: Arc<CheckpointStore>,
    boot: Option<Checkpoint>,
    rx: Receiver<Request>,
    backlog: u64,
) {
    // Bootstrap from the newest checkpoint when one exists: restore the
    // checkpointed engine and start replay at its offset instead of 0. A
    // restored engine keeps the *snapshot's* remaining fuel rather than
    // taking a fresh `cfg.fuel` budget — fuel is a total per-replica
    // budget and the checkpoint producer already spent its share
    // deterministically; granting a refill at respawn would let a
    // crash-looping replica outrun its siblings.
    let (engine, boot_offset) = match &boot {
        Some(cp) => {
            let engine = Engine::from_snapshot(&cp.engine).unwrap_or_else(|e| {
                // In-memory checkpoint bytes are this binary's own encode
                // output and dir-loaded bytes were validated at open; a
                // decode failure here is corruption, not a recoverable
                // state — crash loudly and let supervision respawn (the
                // next boot re-reads the slot).
                panic!(
                    "pool worker {index}: checkpoint at offset {} failed to restore: {e}",
                    cp.offset
                )
            });
            (engine, cp.offset)
        }
        None => (
            match cfg.fuel {
                Some(f) => Engine::with_fuel(f),
                None => Engine::new(),
            },
            0,
        ),
    };
    let mut w = Worker {
        engine,
        log,
        shared,
        index,
        generation,
        applied: boot_offset,
        sample_every: cfg.profile_sample_every,
        served: 0,
        profile_acc: Profile::default(),
        profile_samples: 0,
        checkpoints,
        checkpoint_every: cfg.checkpoint_every,
        respawn_replayed: 0,
    };
    w.shared.applied.store(w.applied, Ordering::Relaxed);
    if telemetry.enabled {
        // Put the replica's engine on the pool's shared timeline and emit
        // its `engine.*` phase spans straight into the shared event
        // stream, stamped with this replica's identity; `begin_serve`
        // sets the serving request's trace id — this is what stitches the
        // router's and the replica's views of one request together. Only
        // wired when telemetry is on: the disabled pool never touches the
        // shared clock or sink.
        w.engine.set_clock(Arc::clone(&telemetry.clock));
        w.engine.set_trace_sink(Arc::clone(&telemetry.sink));
        w.engine.set_trace_attrs(vec![
            ("worker".to_string(), index as u64),
            ("generation".to_string(), generation),
        ]);
    }
    let telemetry = &*telemetry;
    if cfg.load_prelude && boot.is_none() {
        // Deterministic: every replica loads the same prelude before any
        // log entry, so epochs stay aligned. A checkpointed engine
        // already contains the prelude state — loading it again would
        // double the declarations and desync epochs.
        let _ = w.engine.load_prelude();
    }
    // A respawned replica replays only the log tail above its boot
    // checkpoint (the whole log when none exists) before serving
    // anything. `backlog` is the log length observed *on the router
    // thread* at spawn time, read *after* the checkpoint slot — that
    // order guarantees `backlog >= boot_offset`, and reading `log.len()`
    // here instead would race with a write sequenced after the spawn,
    // whose `Write { offset }` request is already in this queue and must
    // find its entry unapplied.
    w.catch_up(backlog);
    w.respawn_replayed = w.applied - boot_offset;
    w.shared
        .respawn_replayed
        .store(w.respawn_replayed, Ordering::Relaxed);

    while let Ok(req) = rx.recv() {
        // Saturating: every routed request increments the gauge before it
        // is sent, but shutdown's best-effort `Shutdown` bypasses the
        // accounting — clamp at zero rather than wrapping the gauge.
        let _ = w
            .shared
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
        match req {
            Request::Read {
                src,
                min_offset,
                reply,
                trace,
            } => {
                let serve = w.begin_serve(telemetry, trace);
                let before = w.applied;
                w.catch_up(min_offset);
                let serve = w.note_catchup(telemetry, serve, w.applied - before);
                let sampled = w.maybe_profile_start();
                let res = w.eval_read(&src);
                let profile = w.maybe_profile_stop(sampled);
                w.finish_serve(telemetry, serve, res.is_ok(), &src, profile);
                let _ = reply.try_send(res);
            }
            Request::Write {
                offset,
                reply,
                trace,
            } => {
                let serve = w.begin_serve(telemetry, trace);
                // Time the *gap* replay separately from the write itself:
                // after this catch-up, `apply_write`'s own catch-up is a
                // no-op and the write's cost lands in the engine phases.
                let before = w.applied;
                w.catch_up(offset);
                let serve = w.note_catchup(telemetry, serve, w.applied - before);
                let src = serve
                    .is_some()
                    .then(|| w.log.get(offset).ok().flatten())
                    .flatten()
                    .unwrap_or_default();
                let sampled = w.maybe_profile_start();
                let res = w.apply_write(offset);
                let profile = w.maybe_profile_stop(sampled);
                w.finish_serve(telemetry, serve, res.is_ok(), &src, profile);
                let _ = reply.try_send(res);
            }
            Request::Batch {
                items,
                min_offset,
                src,
                reply,
                trace,
            } => {
                let serve = w.begin_serve(telemetry, trace);
                let before = w.applied;
                w.catch_up(min_offset);
                let serve = w.note_catchup(telemetry, serve, w.applied - before);
                let sampled = w.maybe_profile_start();
                let mut results = Vec::with_capacity(items.len());
                let mut all_ok = true;
                for item in items {
                    let res = match item {
                        BatchItem::Write { offset } => w.apply_write(offset),
                        BatchItem::Read { src } => w.eval_read(&src),
                    };
                    all_ok &= res.is_ok();
                    results.push(res);
                }
                let profile = w.maybe_profile_stop(sampled);
                w.finish_serve(telemetry, serve, all_ok, &src, profile);
                let _ = reply.try_send(results);
            }
            Request::CatchUp { upto } => w.catch_up(upto),
            Request::Barrier { upto, reply } => {
                w.catch_up(upto);
                let _ = reply.try_send(w.applied);
            }
            Request::Stats { reply } => {
                let _ = reply.try_send(w.report(index, generation));
            }
            Request::Pause { gate } => {
                // Held until the router-side WorkerGate drops its sender.
                let _ = gate.recv();
            }
            Request::Crash => panic!("pool worker {index}: injected crash"),
            Request::Shutdown => break,
        }
    }
}

struct Worker {
    engine: Engine,
    log: Arc<DeclLog>,
    shared: Arc<WorkerShared>,
    index: usize,
    generation: u64,
    /// Entries applied so far (exclusive upper offset). Mirrored into
    /// `shared.applied` for the router's lag gauge.
    applied: u64,
    /// Profile every Nth served request (`None`: never).
    sample_every: Option<u64>,
    /// Read/write requests served (the sampling counter; replay and
    /// control requests don't count).
    served: u64,
    /// Merged profile of every sampled request on this replica.
    profile_acc: Profile,
    profile_samples: u64,
    /// The pool's shared checkpoint slot (publish side).
    checkpoints: Arc<CheckpointStore>,
    /// Publish a checkpoint every N applied entries (`None`: never).
    checkpoint_every: Option<u64>,
    /// Entries this incarnation replayed at bootstrap.
    respawn_replayed: u64,
}

/// Worker-side timing state for one traced request, between dequeue and
/// completion.
struct ServeTrace {
    trace: RequestTrace,
    dequeued_ns: u64,
    queue_wait_ns: u64,
    catchup_ns: u64,
}

impl Worker {
    /// Traced-request prologue: stamp the dequeue (queue-wait event +
    /// histogram) and hand the engine the trace id its phase spans carry. Untraced requests pass straight through (`None`).
    fn begin_serve(
        &mut self,
        telemetry: &Telemetry,
        trace: Option<RequestTrace>,
    ) -> Option<ServeTrace> {
        let trace = trace?;
        let dequeued_ns = telemetry.note_dequeued(&trace, self.index, self.generation);
        self.engine.set_trace_id(Some(trace.id));
        Some(ServeTrace {
            trace,
            dequeued_ns,
            queue_wait_ns: dequeued_ns.saturating_sub(trace.enqueued_ns),
            catchup_ns: 0,
        })
    }

    /// Stamp the end of pre-serve log replay (catch-up event + histogram).
    fn note_catchup(
        &mut self,
        telemetry: &Telemetry,
        serve: Option<ServeTrace>,
        replayed: u64,
    ) -> Option<ServeTrace> {
        let mut serve = serve?;
        serve.catchup_ns = telemetry.note_catchup(&serve.trace, serve.dequeued_ns, replayed);
        Some(serve)
    }

    /// Traced-request epilogue: clear the engine's trace id, stamp
    /// completion (e2e event + histogram), and feed the slow log.
    fn finish_serve(
        &mut self,
        telemetry: &Telemetry,
        serve: Option<ServeTrace>,
        ok: bool,
        src: &str,
        profile: Option<Profile>,
    ) {
        let Some(serve) = serve else { return };
        self.engine.set_trace_id(None);
        telemetry.note_completed(
            &serve.trace,
            self.index,
            self.generation,
            ok,
            serve.queue_wait_ns,
            serve.catchup_ns,
            src,
            profile,
        );
    }

    /// Sampling prologue: count the request and, when it lands on the
    /// sample grid (first request, then every Nth), attach the profiler.
    /// Returns whether this request is being profiled.
    fn maybe_profile_start(&mut self) -> bool {
        let Some(n) = self.sample_every else {
            return false;
        };
        let sampled = self.served.is_multiple_of(n);
        self.served += 1;
        if sampled {
            self.engine.start_profiling();
        }
        sampled
    }

    /// Sampling epilogue: detach the profiler, merge what it saw into the
    /// worker's accumulated profile, and hand back the request's own
    /// profile (for the slow log).
    fn maybe_profile_stop(&mut self, sampled: bool) -> Option<Profile> {
        if !sampled {
            return None;
        }
        let profile = self.engine.stop_profiling()?;
        self.profile_acc.absorb(&profile);
        self.profile_samples += 1;
        Some(profile)
    }

    /// Replay log entries until `applied >= upto`. Entry errors are
    /// deterministic across replicas (same entry, same engine state), so
    /// they are counted, never propagated — exactly
    /// [`polyview::Engine::replay`]'s contract, incrementalized.
    fn catch_up(&mut self, upto: u64) {
        while self.applied < upto {
            let entry = match self.log.get(self.applied) {
                Ok(Some(entry)) => entry,
                // Not sequenced yet: the caller's `upto` was a stale log
                // length; later offset-carrying requests replay the gap.
                Ok(None) => break,
                // Below the truncation point: the router only compacts
                // offsets every replica (and every future bootstrap, via
                // the checkpoint) is past, so this replica's state is
                // unaccountable — crash rather than skip history.
                Err(truncated) => {
                    panic!("pool worker {}: {truncated}", self.index)
                }
            };
            let _ = self.apply_entry(&entry);
        }
    }

    fn apply_entry(&mut self, src: &str) -> Result<String, PoolError> {
        let res = self
            .engine
            .exec(src)
            .map(|out| render_outcomes(&out))
            .map_err(PoolError::from);
        if res.is_err() {
            self.shared.replay_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.applied += 1;
        self.shared.applied.store(self.applied, Ordering::Relaxed);
        self.maybe_checkpoint();
        res
    }

    /// Publish a checkpoint when this apply landed on the checkpoint grid
    /// and nobody has checkpointed this far yet. Sits in the apply path —
    /// not the write path — so catch-up replay also makes progress
    /// checkpoints: a replica replaying a long tail re-arms the bound for
    /// the *next* crash as it goes.
    fn maybe_checkpoint(&mut self) {
        let Some(every) = self.checkpoint_every else {
            return;
        };
        if self.applied == 0 || !self.applied.is_multiple_of(every) {
            return;
        }
        // Replicas apply the same prefix, so a checkpoint at or past this
        // offset makes ours redundant — skip the encode entirely.
        if self
            .checkpoints
            .latest_offset()
            .is_some_and(|o| o >= self.applied)
        {
            return;
        }
        let start = std::time::Instant::now();
        let engine = self.engine.snapshot();
        self.checkpoints.publish(Checkpoint {
            offset: self.applied,
            engine: engine.into(),
        });
        self.shared.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.shared
            .checkpoint_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Apply the write sequenced at `offset`, capturing its outcome.
    /// Per-queue offsets are non-decreasing (router invariant), so by the
    /// time this dequeues, `catch_up(offset)` leaves `applied == offset`.
    fn apply_write(&mut self, offset: u64) -> Result<String, PoolError> {
        self.catch_up(offset);
        if self.applied != offset {
            return Err(PoolError::Internal(format!(
                "write at offset {offset} already replayed (applied = {})",
                self.applied
            )));
        }
        let entry = match self.log.get(offset) {
            Ok(Some(entry)) => entry,
            Ok(None) => {
                return Err(PoolError::Internal(format!(
                    "write at offset {offset} not in the log (len = {})",
                    self.log.len()
                )));
            }
            Err(truncated) => {
                return Err(PoolError::Internal(truncated.to_string()));
            }
        };
        self.apply_entry(&entry)
    }

    /// Serve a read. The hot path is a single expression through the
    /// engine's statement cache (repeats cost zero parse/inference work);
    /// a read-classified *program* (e.g. `"1 + 1; 2 + 2;"`) falls back to
    /// uncached execution.
    fn eval_read(&mut self, src: &str) -> Result<String, PoolError> {
        match self.engine.eval_to_string(src) {
            Ok(s) => Ok(s),
            Err(polyview::Error::Parse(_)) => self
                .engine
                .exec(src)
                .map(|out| render_outcomes(&out))
                .map_err(PoolError::from),
            Err(e) => Err(e.into()),
        }
    }

    fn report(&self, index: usize, generation: u64) -> WorkerReport {
        WorkerReport {
            worker: index,
            generation,
            applied: self.applied,
            replay_errors: self.shared.replay_errors.load(Ordering::Relaxed),
            respawn_replayed: self.respawn_replayed,
            env_epoch: self.engine.env_epoch(),
            stats: self.engine.stats(),
            metrics_json: self.engine.metrics_json(),
            profile_samples: self.profile_samples,
            profile: (self.profile_samples > 0).then(|| self.profile_acc.clone()),
        }
    }
}

/// Render an executed statement's outcomes the way the REPL would: one
/// line per declaration, `name : scheme` for bindings, the rendered value
/// for bare expressions.
fn render_outcomes(out: &[Outcome]) -> String {
    let lines: Vec<String> = out
        .iter()
        .map(|o| match o {
            Outcome::Defined(binds) => binds
                .iter()
                .map(|(n, s)| format!("{n} : {s}"))
                .collect::<Vec<_>>()
                .join(", "),
            Outcome::Value { rendered, .. } => rendered.clone(),
        })
        .collect();
    lines.join("\n")
}
