//! A pool worker: one thread owning one full engine replica.
//!
//! The worker's only interface is its bounded request queue. Every request
//! that depends on log state carries an offset, and the worker *catches up*
//! — replays log entries it has not applied yet — before serving it, so
//! ordering guarantees are local and simple:
//!
//! * The router is single-threaded per pool and assigns offsets under the
//!   log lock, so offsets arriving on one queue are non-decreasing.
//! * Every statement travels in one request shape, `Serve { items,
//!   min_offset }`; a single read or write is a batch of one. The worker
//!   first replays to `min_offset` — the log length at submit time — which
//!   is what makes read-your-writes hold on *any* replica, not just the
//!   session's affinity worker.
//! * A write item `Write { offset }` therefore always finds
//!   `applied == offset` and executes the entry itself, capturing its
//!   outcome for the caller; the same entry reaches every other replica as
//!   plain replay.
//! * A read item runs as a region ([`polyview::Engine::read`]): it leaves no
//!   trace in the replica's machine. A read that tries to change earlier
//!   state is *promoted*: the worker appends its source to the log, replays
//!   up to it, and applies it as a write — every other replica replays the
//!   entry on its next catch-up. This is the one place a worker appends, so
//!   it is also the one place a catch-up can pass a write item still
//!   waiting in this worker's queue; the outcomes of the entries it passes
//!   are kept until those items ask for them.
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
use polyview::eval::RuntimeError;
use polyview::{Engine, EngineMetrics, Outcome, Profile};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};

/// A request to a worker. Reply channels are rendezvous-sized
/// (`sync_channel(1)`); exactly one reply is ever sent, so a worker never
/// blocks on a reply — if the caller dropped its ticket, the reply is
/// discarded.
pub(crate) enum Request {
    /// Serve statements: one queue slot, one reply, one catch-up to
    /// `min_offset`, then every item in order on this replica. A single
    /// read or write is a batch of one. Write items were sequenced
    /// contiguously under the log lock at submit, so a read item placed
    /// after a write item observes that write — batches are
    /// read-your-writes *internally*, not just across requests.
    Serve {
        items: Vec<Item>,
        min_offset: u64,
        reply: SyncSender<Vec<Result<String, PoolError>>>,
        /// Telemetry context minted at submit (`None` when disabled, and
        /// always for control-plane probes).
        trace: Option<RequestTrace>,
    },
    /// Replay the log to at least `upto` (eager write propagation; safe to
    /// drop when the queue is full — the next offset-carrying request
    /// replays the gap anyway).
    CatchUp { upto: u64 },
    /// Replay to at least `upto`, then reply with the applied offset.
    Barrier { upto: u64, reply: SyncSender<u64> },
    /// Send on `ack`, then block until the gate's sender is dropped — a
    /// deterministic way to hold a worker busy (backpressure tests, demos).
    /// The ack tells the sender the request has left the queue.
    Pause {
        ack: SyncSender<()>,
        gate: Receiver<()>,
    },
    /// Panic on purpose (supervision tests).
    Crash,
    /// Exit the serve loop (queue disconnection does the same).
    Shutdown,
}

/// One statement of a [`Request::Serve`]. Writes were already sequenced
/// (the offset is the item's identity — the entry text lives in the log);
/// reads carry their source.
#[derive(Debug)]
pub(crate) enum Item {
    Write { offset: u64 },
    Read { src: String },
}

/// What one worker incarnation shares with the router: gauges (queue
/// depth, incremented at enqueue and decremented at dequeue; replay
/// progress; replay errors), the replica engine's live metrics, and its
/// sampled profile. The worker writes each before it sends the reply of
/// the request that moved it, so a caller holding a reply reads what that
/// request did, with no message to the worker.
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
    /// The replica's declaration epoch, stored with `applied` — equal on
    /// all replicas that have applied the same log prefix.
    pub env_epoch: AtomicU64,
    /// The replica engine's metrics ([`Engine::metrics`]), set once the
    /// incarnation has booted: restored, replayed the log tail and stored
    /// `applied`, `env_epoch` and `respawn_replayed`. Until then the
    /// replica's row is provisional ([`crate::WorkerStats::booted`]).
    pub engine: OnceLock<Arc<EngineMetrics>>,
    /// Requests whose evaluation was profiled
    /// ([`crate::PoolConfig::profile_sample_every`]).
    pub profile_samples: AtomicU64,
    /// The merged attribution profile of every sampled request.
    pub profile: Mutex<Profile>,
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
        checkpoints,
        checkpoint_every: cfg.checkpoint_every,
        owed: BTreeMap::new(),
    };
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
    // whose `Write { offset }` item is already in this queue and must
    // find its entry unapplied.
    w.catch_up(backlog);
    w.publish_applied();
    w.shared
        .respawn_replayed
        .store(w.applied - boot_offset, Ordering::Relaxed);
    // Last: a reader that sees the handle sees every boot value above.
    let _ = w.shared.engine.set(w.engine.metrics());

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
            Request::Serve {
                items,
                min_offset,
                reply,
                trace,
            } => {
                let serve = w.begin_serve(telemetry, trace);
                // Time the *gap* replay separately from the items: after
                // it, a write item's own catch-up is a no-op and its cost
                // lands in the engine phases.
                let before = w.applied;
                w.catch_up(min_offset);
                let serve = w.note_catchup(telemetry, serve, w.applied - before);
                // The slow-log text, only for traced requests. Built before
                // the items run: until then `applied` sits at or below every
                // write item, so compaction cannot have dropped their text.
                let src = if serve.is_some() {
                    w.summary(&items)
                } else {
                    String::new()
                };
                let sampled = w.maybe_profile_start();
                let results: Vec<_> = items
                    .into_iter()
                    .map(|item| match item {
                        Item::Write { offset } => w.apply_write(offset),
                        Item::Read { src } => w.eval_read(&src, telemetry),
                    })
                    .collect();
                let profile = w.maybe_profile_stop(sampled);
                let ok = results.iter().all(Result::is_ok);
                w.finish_serve(telemetry, serve, ok, &src, profile);
                let _ = reply.try_send(results);
            }
            Request::CatchUp { upto } => w.catch_up(upto),
            Request::Barrier { upto, reply } => {
                w.catch_up(upto);
                let _ = reply.try_send(w.applied);
            }
            Request::Pause { ack, gate } => {
                // Held until the router-side WorkerGate drops its sender.
                let _ = ack.send(());
                let _ = gate.recv();
            }
            Request::Crash => panic!("pool worker {index}: injected crash"),
            Request::Shutdown => break,
        }
        // An empty queue holds no write that could still ask for a kept
        // outcome: later writes are sequenced past every kept offset.
        if !w.owed.is_empty() && w.shared.depth.load(Ordering::Relaxed) == 0 {
            w.owed.clear();
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
    /// `Serve` requests served (the sampling counter; replay and control
    /// requests don't count).
    served: u64,
    /// The pool's shared checkpoint slot (publish side).
    checkpoints: Arc<CheckpointStore>,
    /// Publish a checkpoint every N applied entries (`None`: never).
    checkpoint_every: Option<u64>,
    /// Outcomes of entries a promotion replayed ahead of their write
    /// items, by offset (see the module docs).
    owed: BTreeMap<u64, Result<String, PoolError>>,
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

    /// The slow-log text of a request: its statements joined with `" ; "`,
    /// write texts read back from the log.
    fn summary(&self, items: &[Item]) -> String {
        let texts: Vec<String> = items
            .iter()
            .map(|item| match item {
                Item::Write { offset } => self
                    .log
                    .get(*offset)
                    .ok()
                    .flatten()
                    .map(|entry| entry.to_string())
                    .unwrap_or_default(),
                Item::Read { src } => src.clone(),
            })
            .collect();
        texts.join(" ; ")
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
    /// replica's shared profile, and hand back the request's own profile
    /// (for the slow log).
    fn maybe_profile_stop(&mut self, sampled: bool) -> Option<Profile> {
        if !sampled {
            return None;
        }
        let profile = self.engine.stop_profiling()?;
        let mut merged = self
            .shared
            .profile
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        merged.absorb(&profile);
        self.shared.profile_samples.fetch_add(1, Ordering::Relaxed);
        Some(profile)
    }

    /// Replay log entries until `applied >= upto`. Entry errors are
    /// deterministic across replicas (same entry, same engine state), so
    /// they are counted, never propagated — the replay contract of
    /// [`crate::log`], incrementalized.
    fn catch_up(&mut self, upto: u64) {
        while self.applied < upto && self.replay_next().is_some() {}
    }

    /// Apply the entry at `applied`, or return `None` if it is not
    /// sequenced yet (a stale `upto`; later offset-carrying requests
    /// replay the gap).
    fn replay_next(&mut self) -> Option<Result<String, PoolError>> {
        match self.log.get(self.applied) {
            Ok(Some(entry)) => Some(self.apply_entry(&entry)),
            Ok(None) => None,
            // Below the truncation point: the router only compacts
            // offsets every replica (and every future bootstrap, via the
            // checkpoint) is past, so this replica's state is
            // unaccountable — crash rather than skip history.
            Err(truncated) => panic!("pool worker {}: {truncated}", self.index),
        }
    }

    /// Mirror the applied offset and the declaration epoch into the
    /// shared gauges.
    fn publish_applied(&self) {
        self.shared.applied.store(self.applied, Ordering::Relaxed);
        self.shared
            .env_epoch
            .store(self.engine.env_epoch(), Ordering::Relaxed);
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
        self.publish_applied();
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
        // Queue offsets never decrease: no request will ask for an outcome
        // kept below this one.
        self.owed = self.owed.split_off(&offset);
        if let Some(res) = self.owed.remove(&offset) {
            return res;
        }
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

    /// Serve a read as a region ([`polyview::Engine::read`]): a single
    /// expression through the statement cache (repeats cost zero
    /// parse/inference work), a read-classified *program* (e.g.
    /// `"1 + 1; 2 + 2;"`) uncached. A read that tried to change earlier
    /// state left nothing behind and is promoted to a write.
    fn eval_read(&mut self, src: &str, telemetry: &Telemetry) -> Result<String, PoolError> {
        match self.engine.read(src) {
            Err(polyview::Error::Runtime(RuntimeError::EffectInRead)) => {
                telemetry.reads_promoted.inc();
                self.promote(src)
            }
            res => res.map_err(PoolError::from),
        }
    }

    /// Sequence `src` at the log tail and apply it here as a write. Entries
    /// sequenced between this replica's applied offset and the new one may
    /// belong to write items already in this queue; their outcomes are
    /// kept for [`Worker::apply_write`].
    fn promote(&mut self, src: &str) -> Result<String, PoolError> {
        let offset = self.log.append(src);
        loop {
            let at = self.applied;
            let res = self
                .replay_next()
                .expect("every entry up to the promoted one is sequenced");
            if at == offset {
                return res;
            }
            self.owed.insert(at, res);
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
