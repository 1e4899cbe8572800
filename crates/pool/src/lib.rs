//! `polyview-pool` — the concurrent serving layer: a replicated engine
//! pool (DESIGN.md §10).
//!
//! # Replication, not sharing
//!
//! The evaluator's value graphs are `Rc`-shared ([`polyview::Value`] holds
//! `Rc<RecordVal>`, closures capture environments by `Rc`, sets share
//! spines), so an [`polyview::Engine`] is deliberately **not `Send`** —
//! its values must stay confined to the thread that created them, or the
//! non-atomic reference counts race. Instead of wrapping the evaluator in
//! locks (and giving up everything single-threaded evaluation buys), the
//! pool runs **N worker threads, each owning a full replica** of the
//! engine, and keeps the replicas in lock-step with an append-only
//! **declaration log** ([`DeclLog`]):
//!
//! * **writes** (top-level declarations and statements containing
//!   `insert`/`delete`/`update`, by [`polyview::classify_program`]) are
//!   sequenced through the log and replayed deterministically on every
//!   replica, so each worker's top-level environments, prepared-statement
//!   cache, and `env_epoch` evolve identically;
//! * **reads** (everything else) fan out to any replica — each request
//!   carries the log length observed at submit time, and the serving
//!   replica catches up to at least that offset first, which gives
//!   *read-your-writes* to every session on every worker. A replica serves
//!   a read as a region ([`polyview::Engine::read`]): whatever it allocates
//!   is reclaimed, so replica state depends only on the applied log
//!   prefix. A read that reaches an effect syntax cannot see — a call of a
//!   declared `fun f x = insert(C, x)`, a closure stored in a record — is
//!   stopped before it mutates anything and **promoted**: the replica
//!   appends it to the log and applies it as a write, and every other
//!   replica replays it (`pool.reads_promoted` counts these).
//!
//! Requests travel over **bounded** `std::sync::mpsc` queues: when a
//! worker's queue is full the submit returns [`Submit::Full`] instead of
//! growing without bound — callers see backpressure, not latency collapse.
//! Session affinity (hash of the session id → worker,
//! [`Pool::worker_for`]) keeps a REPL-style session on one replica, so its
//! statement-cache locality survives and its own writes are visible with
//! no cross-replica wait.
//!
//! Workers are supervised: a panicked worker's thread is detected and
//! respawned, and the replacement converges with its peers before it
//! serves anything ([`Pool::stats`] counts respawns). With
//! [`PoolConfig::checkpoint_every`] set, replicas periodically publish an
//! engine **checkpoint** ([`polyview::Engine::snapshot`]), so a respawn
//! restores the newest checkpoint and replays only the log *tail* above
//! it — bounding recovery by the checkpoint interval instead of the full
//! write history — and the router **compacts** the log below the
//! checkpoint (offsets stay absolute; [`TruncatedRead`] is loud). With
//! [`PoolConfig::snapshot_dir`] also set, the newest checkpoint is
//! persisted so a *restarted process* resumes from it (DESIGN.md §17).
//! The whole crate is std-only — no external dependencies enter the
//! tier-1 build graph.
//!
//! ```
//! use polyview_pool::{Pool, PoolConfig};
//!
//! let mut pool = Pool::new(PoolConfig::default().workers(2));
//! let session = 7;
//! pool.run(session, "class Staff = class {} end;").unwrap();
//! pool.run(session, "insert(Staff, IDView([Name = \"Ada\"]))").unwrap();
//! let names = pool
//!     .run(session, "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)")
//!     .unwrap();
//! assert_eq!(names, "{\"Ada\"}");
//! pool.shutdown();
//! ```

mod checkpoint;
mod health;
mod log;
mod router;
mod stats;
mod supervisor;
mod telemetry;
mod worker;

pub use crate::log::{DeclLog, TruncatedRead};
pub use health::{Health, HealthReport, HealthThresholds, WindowConfig};
pub use polyview::obs::{
    Clock, CollectingEventSink, EventRecord, EventSink, JsonLinesEventSink, ManualClock,
    NullEventSink, WallClock,
};
pub use polyview::StmtClass;
pub use router::{Pool, Submit, Ticket, WorkerGate};
pub use stats::{PoolStats, WorkerStats};
pub use telemetry::SlowRequest;

use std::sync::Arc;

/// Construction-time knobs for a [`Pool`].
#[derive(Clone)]
pub struct PoolConfig {
    /// Number of engine replicas (worker threads). Each owns a complete
    /// [`polyview::Engine`]; memory scales linearly.
    pub workers: usize,
    /// Bound of each worker's request queue. A full queue reports
    /// [`Submit::Full`] at submit time (backpressure) rather than queueing
    /// without limit.
    pub queue_capacity: usize,
    /// Stack size of each worker thread. The tree-walking evaluator
    /// recurses with the interpreted program (see
    /// [`polyview::engine::with_stack_size`]), so workers must not inherit
    /// the small default stack of spawned threads; deep translations and
    /// non-tail `fix` loops need room.
    pub stack_bytes: usize,
    /// Per-replica evaluation fuel ([`polyview::Engine::with_fuel`]);
    /// `None` is unlimited. Fuel exhaustion is deterministic, so replicas
    /// agree on which statements die. Like the engine's, this is a
    /// *total* budget per replica for the writes it applies — an
    /// exhausted replica stays exhausted. A read runs against the
    /// remaining budget but its region hands the fuel back, so replicas
    /// agree whatever reads they served (size it well below what
    /// `stack_bytes` can absorb, since fuel must run out before the stack
    /// does). A unit is one evaluated node or one application; a
    /// comprehension (`map`, `filter`, view queries) runs as one
    /// `collect` pass and costs about one `f` application per element
    /// (DESIGN.md §13).
    pub fuel: Option<u64>,
    /// Load the standard prelude into every replica at spawn (before any
    /// log replay; all replicas do it, so they stay in lock-step).
    pub load_prelude: bool,
    /// Master switch for request telemetry (trace events, latency
    /// histograms, slow log). Default **off**: the disabled path is a
    /// near-no-op — one branch per submit, no clock reads, no sink calls.
    /// Flipped on automatically by [`PoolConfig::event_sink`] and
    /// [`PoolConfig::slow_threshold_ns`].
    pub telemetry_enabled: bool,
    /// Where trace events go when telemetry is enabled. Default:
    /// [`NullEventSink`] (histograms and the slow log still fill — the
    /// sink only carries the per-event records).
    pub event_sink: Arc<dyn EventSink>,
    /// The shared time source for every telemetry timestamp (router,
    /// workers, and the engines' own phase spans). Default:
    /// [`WallClock`]; inject a [`ManualClock`] for
    /// deterministic timelines in tests.
    pub telemetry_clock: Arc<dyn Clock>,
    /// End-to-end latency at or above which a request is recorded in the
    /// bounded slow-request ring ([`Pool::slow_requests`]). `None`
    /// (default): no slow log.
    pub slow_threshold_ns: Option<u64>,
    /// Capacity of the slow-request ring (oldest entries evicted).
    pub slow_log_capacity: usize,
    /// Profile every Nth served request per worker (the first served
    /// request always profiles, then every Nth after it). Sampled
    /// profiles merge into one per-worker attribution profile, surfaced
    /// in [`PoolStats`]; when the slow log is on, a slow request that was
    /// sampled carries its own profile in its [`SlowRequest`] entry.
    /// `None` (default): never profile — workers pay one flag check per
    /// request and their engines none at all.
    pub profile_sample_every: Option<u64>,
    /// Thresholds the health verdict ([`Pool::health`]) folds worker
    /// state against. The defaults are permissive (load balancers must
    /// not flap); tighten them per deployment.
    pub health: HealthThresholds,
    /// Windowed-stats configuration: `Some` keeps a bounded ring of
    /// registry snapshots ([`Pool::tick_window`]) so windowed rates and
    /// quantiles are computable ([`Pool::window`]). `None` (default):
    /// windowing off — ticking is a single branch with zero clock reads.
    pub stats_window: Option<WindowConfig>,
    /// Publish an engine checkpoint every N applied writes per replica
    /// (the replicas race; only the newest is kept). Bounds what a
    /// respawn replays — at most N−1 entries plus whatever was sequenced
    /// since the last checkpoint landed — and arms log compaction.
    /// `None` (default): never checkpoint, never truncate — respawns
    /// replay the full history (the pre-checkpoint behavior).
    pub checkpoint_every: Option<u64>,
    /// Directory the newest checkpoint is persisted to (atomic
    /// write-then-rename; older files pruned). On construction the pool
    /// restores the newest valid checkpoint found there, making state
    /// survive process restarts at checkpoint granularity — writes after
    /// the last persisted checkpoint are lost. `None` (default): memory
    /// only. Only useful together with [`PoolConfig::checkpoint_every`].
    pub snapshot_dir: Option<std::path::PathBuf>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            queue_capacity: 64,
            stack_bytes: 256 * 1024 * 1024,
            fuel: None,
            load_prelude: false,
            telemetry_enabled: false,
            event_sink: Arc::new(NullEventSink),
            telemetry_clock: Arc::new(WallClock::new()),
            slow_threshold_ns: None,
            slow_log_capacity: 32,
            profile_sample_every: None,
            health: HealthThresholds::default(),
            stats_window: None,
            checkpoint_every: None,
            snapshot_dir: None,
        }
    }
}

impl std::fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The sink and clock are `dyn` trait objects without `Debug`;
        // everything else prints.
        f.debug_struct("PoolConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("stack_bytes", &self.stack_bytes)
            .field("fuel", &self.fuel)
            .field("load_prelude", &self.load_prelude)
            .field("telemetry_enabled", &self.telemetry_enabled)
            .field("slow_threshold_ns", &self.slow_threshold_ns)
            .field("slow_log_capacity", &self.slow_log_capacity)
            .field("profile_sample_every", &self.profile_sample_every)
            .field("health", &self.health)
            .field("stats_window", &self.stats_window)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("snapshot_dir", &self.snapshot_dir)
            .finish_non_exhaustive()
    }
}

impl PoolConfig {
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    pub fn stack_bytes(mut self, n: usize) -> Self {
        self.stack_bytes = n;
        self
    }

    pub fn fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    pub fn load_prelude(mut self, yes: bool) -> Self {
        self.load_prelude = yes;
        self
    }

    /// Explicitly enable or disable request telemetry (the sink and
    /// threshold builders below enable it implicitly).
    pub fn telemetry_enabled(mut self, yes: bool) -> Self {
        self.telemetry_enabled = yes;
        self
    }

    /// Install an event sink **and enable telemetry**.
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.event_sink = sink;
        self.telemetry_enabled = true;
        self
    }

    /// Replace the telemetry time source. Does *not* enable telemetry by
    /// itself — tests inject a [`ManualClock`] precisely to assert
    /// the disabled path never reads it.
    pub fn telemetry_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.telemetry_clock = clock;
        self
    }

    /// Record requests at or above `ns` end-to-end in the slow log, **and
    /// enable telemetry**.
    pub fn slow_threshold_ns(mut self, ns: u64) -> Self {
        self.slow_threshold_ns = Some(ns);
        self.telemetry_enabled = true;
        self
    }

    pub fn slow_log_capacity(mut self, n: usize) -> Self {
        self.slow_log_capacity = n;
        self
    }

    /// Profile every `n`th served request per worker (`n` is clamped to at
    /// least 1). Independent of telemetry: sampling fills the per-worker
    /// profile in [`PoolStats`] either way; the slow-log attachment
    /// additionally needs [`PoolConfig::slow_threshold_ns`].
    pub fn profile_sample_every(mut self, n: u64) -> Self {
        self.profile_sample_every = Some(n.max(1));
        self
    }

    /// Replace the health thresholds ([`Pool::health`] folds against
    /// them).
    pub fn health_thresholds(mut self, t: HealthThresholds) -> Self {
        self.health = t;
        self
    }

    /// Enable windowed stats: keep a ring of registry snapshots so
    /// [`Pool::window`] can answer rates and windowed quantiles. Does
    /// *not* enable telemetry — windowing over the pool's own counters
    /// works either way (the latency histograms only fill when telemetry
    /// is also on).
    pub fn stats_window(mut self, w: WindowConfig) -> Self {
        self.stats_window = Some(w);
        self
    }

    /// Checkpoint every `n` applied writes per replica (`n` clamped to at
    /// least 1), bounding respawn replay and arming log compaction.
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = Some(n.max(1));
        self
    }

    /// Persist the newest checkpoint to `dir` and restore from it at
    /// construction (see the field docs for the durability contract).
    pub fn snapshot_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }
}

/// Errors crossing the pool boundary.
///
/// Worker replies cross threads, and [`polyview::Error`] is not `Send`
/// (type errors carry `Rc`-shared type structure), so engine errors are
/// rendered on the worker and carried as their display strings, tagged
/// with the original kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// The statement failed to parse (rendered [`polyview::Error::Parse`]).
    Parse(String),
    /// The statement failed to type-check (rendered
    /// [`polyview::Error::Type`]).
    Type(String),
    /// The statement failed at runtime (rendered
    /// [`polyview::Error::Runtime`]).
    Runtime(String),
    /// Rendered [`polyview::Error::StalePrepared`].
    StalePrepared,
    /// Rendered [`polyview::Error::Internal`], or a pool invariant
    /// violation.
    Internal(String),
    /// The statement's syntactic [`StmtClass`] does not match the submit
    /// entry point ([`Pool::submit_read`] given a write, or
    /// [`Pool::submit_write`] given a read). Use [`Pool::submit`] to
    /// auto-route.
    Misrouted { expected: StmtClass, got: StmtClass },
    /// The serving worker died before replying. **Whether to resubmit
    /// depends on what was lost:**
    ///
    /// * `sequenced: None` — a read (or control request). It had no
    ///   effect; resubmit freely — unless the replica was promoting it to
    ///   a write ([`Pool::submit_read`]), in which case its entry may
    ///   already be in the log and will be applied like any sequenced
    ///   write.
    /// * `sequenced: Some(offset)` — a **write** (for a batch, its first
    ///   write). It was already pushed into the declaration log at `offset`
    ///   before the worker died, so every replica — including the dead
    ///   worker's respawn, which restores the newest checkpoint and replays
    ///   the log tail above it — **will apply it**. Only its outcome
    ///   string was lost. Resubmitting would sequence it a *second* time
    ///   and double-apply it (e.g. a duplicate `insert`). To observe the
    ///   outcome, re-run an equivalent read after a
    ///   [`Pool::barrier`].
    WorkerLost {
        /// The log offset the lost request was sequenced at, if it was a
        /// write. `None` for reads and control requests.
        sequenced: Option<u64>,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Parse(m)
            | PoolError::Type(m)
            | PoolError::Runtime(m)
            | PoolError::Internal(m) => write!(f, "{m}"),
            PoolError::StalePrepared => write!(f, "stale prepared statement"),
            PoolError::Misrouted { expected, got } => write!(
                f,
                "misrouted statement: submitted as a {expected} but classified as a {got}"
            ),
            PoolError::WorkerLost { sequenced: None } => {
                write!(
                    f,
                    "pool worker died before replying; the request had no effect and is safe to resubmit"
                )
            }
            PoolError::WorkerLost {
                sequenced: Some(offset),
            } => {
                write!(
                    f,
                    "pool worker died before replying, but the write was already sequenced at log \
                     offset {offset} and will be applied by every replica — do not resubmit it"
                )
            }
        }
    }
}

impl std::error::Error for PoolError {}

impl From<polyview::Error> for PoolError {
    fn from(e: polyview::Error) -> Self {
        let rendered = e.to_string();
        match e {
            polyview::Error::Parse(_) => PoolError::Parse(rendered),
            polyview::Error::Type(_) => PoolError::Type(rendered),
            polyview::Error::Runtime(_) => PoolError::Runtime(rendered),
            polyview::Error::StalePrepared => PoolError::StalePrepared,
            polyview::Error::Snapshot(_) | polyview::Error::Internal(_) => {
                PoolError::Internal(rendered)
            }
        }
    }
}

impl From<polyview::parser::ParseError> for PoolError {
    fn from(e: polyview::parser::ParseError) -> Self {
        PoolError::from(polyview::Error::from(e))
    }
}

impl PoolError {
    pub fn is_parse(&self) -> bool {
        matches!(self, PoolError::Parse(_))
    }
    pub fn is_type(&self) -> bool {
        matches!(self, PoolError::Type(_))
    }
    pub fn is_runtime(&self) -> bool {
        matches!(self, PoolError::Runtime(_))
    }
    pub fn is_misrouted(&self) -> bool {
        matches!(self, PoolError::Misrouted { .. })
    }
    pub fn is_worker_lost(&self) -> bool {
        matches!(self, PoolError::WorkerLost { .. })
    }
}
