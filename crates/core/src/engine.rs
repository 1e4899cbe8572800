//! The engine: a persistent top-level session over the calculus.
//!
//! Each declaration is type-checked (inferring a principal scheme), then
//! evaluated; both the type environment and the value environment persist,
//! so later declarations see earlier ones. Static checking happens *before*
//! evaluation — the soundness theorem (Prop. 1) guarantees evaluation of a
//! well-typed program never raises a type-category error, and the engine's
//! tests assert exactly that.
//!
//! The engine is split into two phases (see [`crate::prepare`]):
//! *compilation* (parse + principal type inference, via
//! [`Engine::prepare`]) and *execution* ([`Engine::run`]). Expression entry
//! points ([`Engine::eval_expr`] / [`Engine::eval_to_string`]) route
//! through an LRU statement cache, so a repeated statement is compiled once
//! and then served with zero parser and zero inference work per call;
//! [`Engine::stats`] exposes counters that pin this down.

use crate::error::Error;
use crate::explain::Explain;
use crate::prepare::{
    CacheLookup, Deps, EngineStats, Prepared, StmtCache, StmtKey, DEFAULT_STMT_CACHE_CAPACITY,
};
use crate::profile::ProfileReport;
use polyview_eval::{
    decode_machine, encode_machine, Machine, MachineStats, Profile, RuntimeError, Value,
};
use polyview_obs::{
    Clock, Counter, EventSink, Histogram, Registry, RegistrySnapshot, Span, Tracer,
};
use polyview_parser::{
    fun_decl_to_expr, parse_expr_counted, parse_program_counted, Decl, ParseStats,
};
use polyview_syntax::visit::{check_rec_class_scope, free_vars};
use polyview_syntax::{ClassDef, Expr, GlobalNames, Label, Mono, Name, Scheme};
use polyview_trans::{lower_binding, lower_statement, IndexSig, LowerStats};
use polyview_types::table::node_id;
use polyview_types::{builtins_sig, infer, Infer, InferStats, TypeEnv, TypeError, TypeTable};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Result of executing one declaration.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Names bound by a `val`/`fun`/`class` declaration, with their
    /// principal schemes.
    Defined(Vec<(Name, Scheme)>),
    /// An evaluated bare expression.
    Value { scheme: Scheme, rendered: String },
}

/// One layer work counter as the engine reports it: its registry counter
/// (`None` for one only phase spans carry), its span attribute (`None` for
/// one only the registry carries), and the field of the layer's stats
/// struct that holds it.
type Field<S> = (
    Option<&'static str>,
    Option<&'static str>,
    fn(&mut S) -> &mut u64,
);

#[rustfmt::skip]
const PARSE: &[Field<ParseStats>] = &[
    (Some("parser.tokens_lexed"), Some("tokens"), |s| &mut s.tokens),
    (Some("parser.nodes_parsed"), Some("nodes"), |s| &mut s.nodes),
];

#[rustfmt::skip]
const INFER: &[Field<InferStats>] = &[
    (Some("types.unify_steps"), Some("unify_steps"), |s| &mut s.unify_steps),
    (Some("types.occurs_checks"), Some("occurs_checks"), |s| &mut s.occurs_checks),
    (Some("types.kind_merges"), Some("kind_merges"), |s| &mut s.kind_merges),
    (Some("types.instantiations"), Some("instantiations"), |s| &mut s.instantiations),
];

/// Offsets the compile tier resolved statically, and the *static* residue
/// it left behind, are counted; `eval.dyn_field_fallbacks` counts the
/// fallbacks actually *executed* — the two disagree whenever residue sits
/// on a cold branch or a fallback runs in a loop.
#[rustfmt::skip]
const LOWER: &[Field<LowerStats>] = &[
    (Some("trans.offsets_resolved"), Some("offsets"), |s| &mut s.offsets_resolved),
    (None, Some("index_params"), |s| &mut s.index_params_used),
    (None, Some("abstractions"), |s| &mut s.index_abstractions),
    (Some("trans.dynamic_residue"), Some("residue"), |s| &mut s.dynamic_residue),
    (None, Some("records"), |s| &mut s.records_lowered),
];

#[rustfmt::skip]
const EVAL: &[Field<MachineStats>] = &[
    (Some("eval.fuel_consumed"), Some("fuel"), |s| &mut s.fuel_consumed),
    (Some("eval.records_allocated"), Some("records"), |s| &mut s.records_allocated),
    (Some("eval.sets_allocated"), Some("sets"), |s| &mut s.sets_allocated),
    (Some("eval.field_offsets_resolved"), Some("offsets"), |s| &mut s.field_offsets_resolved),
    (Some("eval.dyn_field_fallbacks"), Some("dyn_fallbacks"), |s| &mut s.dyn_field_fallbacks),
    (Some("eval.extent_fills"), None, |s| &mut s.extent_fills),
    (Some("eval.extent_hits"), None, |s| &mut s.extent_hits),
    (Some("eval.extent_patches"), None, |s| &mut s.extent_patches),
];

/// One layer's counters in the registry, in the order of its [`Field`]s.
#[derive(Debug)]
struct Layer<S: 'static> {
    fields: &'static [Field<S>],
    counters: Vec<Option<Counter>>,
}

impl<S: Copy + Default> Layer<S> {
    fn new(reg: &Registry, fields: &'static [Field<S>]) -> Self {
        let counters = fields.iter().map(|f| f.0.map(|n| reg.counter(n))).collect();
        Layer { fields, counters }
    }

    /// Add one statement's work to the registry and, when there is one,
    /// to its phase span.
    fn add(&self, mut work: S, mut span: Option<&mut Span>) {
        for ((_, attr, field), counter) in self.fields.iter().zip(&self.counters) {
            let n = *field(&mut work);
            if let (Some(span), Some(attr)) = (span.as_deref_mut(), attr) {
                span.attr(attr, n);
            }
            if let Some(c) = counter {
                c.add(n);
            }
        }
    }

    /// The registry's totals; a field with no counter reads 0.
    fn totals(&self) -> S {
        let mut s = S::default();
        for ((_, _, field), counter) in self.fields.iter().zip(&self.counters) {
            if let Some(c) = counter {
                *field(&mut s) = c.get();
            }
        }
        s
    }
}

/// The engine's metrics registry and the handles resolved from it at
/// construction, so the hot paths pay one relaxed atomic update per event
/// and never hash a metric name. This is the one place an engine metric
/// is named, and the one place a layer's work counter ([`ParseStats`],
/// [`InferStats`], [`LowerStats`], [`MachineStats`]) is mapped to its
/// registry counter and its span attribute. The registry is live: each
/// statement's work lands in it as its phase finishes
/// ([`Engine::infer_phase`], [`Engine::on_machine`]).
///
/// Every part is atomic, so the value is `Send + Sync` and shared behind
/// an `Arc` ([`Engine::metrics`]): an embedding layer (a pool replica)
/// hands a clone to another thread, which reads the live counters while
/// the engine runs, with no message to the engine's own thread.
#[derive(Debug)]
pub struct EngineMetrics {
    registry: Registry,
    parses: Counter,
    inferences: Counter,
    stmt_cache_hits: Counter,
    stmt_cache_misses: Counter,
    stmt_cache_evictions: Counter,
    stmt_cache_dep_invalidations: Counter,
    epoch_invalidations: Counter,
    parse_ns: Histogram,
    infer_ns: Histogram,
    lower_ns: Histogram,
    translate_ns: Histogram,
    eval_ns: Histogram,
    translated_size: Histogram,
    parse: Layer<ParseStats>,
    infer: Layer<InferStats>,
    lower: Layer<LowerStats>,
    eval: Layer<MachineStats>,
}

impl EngineMetrics {
    fn new() -> Self {
        let reg = Registry::new();
        EngineMetrics {
            parses: reg.counter("engine.parses"),
            inferences: reg.counter("engine.inferences"),
            stmt_cache_hits: reg.counter("engine.stmt_cache_hits"),
            stmt_cache_misses: reg.counter("engine.stmt_cache_misses"),
            stmt_cache_evictions: reg.counter("engine.stmt_cache_evictions"),
            stmt_cache_dep_invalidations: reg.counter("engine.stmt_cache_dep_invalidations"),
            epoch_invalidations: reg.counter("engine.epoch_invalidations"),
            parse_ns: reg.histogram("phase.parse_ns"),
            infer_ns: reg.histogram("phase.infer_ns"),
            lower_ns: reg.histogram("phase.lower_ns"),
            translate_ns: reg.histogram("phase.translate_ns"),
            eval_ns: reg.histogram("phase.eval_ns"),
            translated_size: reg.histogram("trans.translated_size"),
            parse: Layer::new(&reg, PARSE),
            infer: Layer::new(&reg, INFER),
            lower: Layer::new(&reg, LOWER),
            eval: Layer::new(&reg, EVAL),
            registry: reg,
        }
    }

    /// The pipeline counters: compilation work, statement cache traffic,
    /// inference and evaluation work, read in place.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            parses: self.parses.get(),
            inferences: self.inferences.get(),
            stmt_cache_hits: self.stmt_cache_hits.get(),
            stmt_cache_misses: self.stmt_cache_misses.get(),
            stmt_cache_evictions: self.stmt_cache_evictions.get(),
            stmt_cache_dep_invalidations: self.stmt_cache_dep_invalidations.get(),
            epoch_invalidations: self.epoch_invalidations.get(),
            parse: self.parse.totals(),
            infer: self.infer.totals(),
            eval: self.eval.totals(),
        }
    }

    /// A point-in-time copy of every metric (counters and phase-latency
    /// histograms), stamped `at_ns`.
    pub fn snapshot(&self, at_ns: u64) -> RegistrySnapshot {
        self.registry.snapshot(at_ns)
    }
}

/// One statement through [`Engine::compile`]: the inference result, the
/// lowered form, and each phase's work and duration (only
/// [`Engine::explain`] reads the last four).
struct Compiled<T, L> {
    out: T,
    code: L,
    infer: InferStats,
    infer_ns: u64,
    lower: LowerStats,
    lower_ns: u64,
}

/// How [`Engine::statement`] ends a statement the parser and the type
/// checker accepted: keep its type work, or put it back ([`Engine::read`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Commit,
    Read,
}

/// A persistent session: parser + inference + evaluation with shared
/// top-level environments, and a statement cache serving the
/// compile-once/run-many path.
///
/// Every engine carries an observability layer (DESIGN.md §9): a metrics
/// [`Registry`] always collecting phase latencies and pipeline counters,
/// and a [`Tracer`] that additionally emits per-phase `engine.*` event
/// records to an [`EventSink`] when enabled ([`Engine::set_trace_sink`] /
/// [`Engine::set_tracing`]).
pub struct Engine {
    /// Settled between public calls: no substitution, only the kinds of
    /// variables free in global schemes, the counter at the mark
    /// ([`Engine::statement`]).
    cx: Infer,
    tenv: TypeEnv,
    /// Inside [`Engine::statement`], which never nests.
    in_statement: bool,
    machine: Machine,
    stmts: StmtCache,
    metrics: Arc<EngineMetrics>,
    tracer: Tracer,
    /// Bumped by every declaration (`val`/`fun`/`class`). Staleness of
    /// prepared statements is decided per name ([`Engine::name_epoch`]);
    /// the global epoch is an observability signal only
    /// ([`crate::prepare::EngineStats`], pool convergence checks).
    env_epoch: u64,
    /// Per-name declaration epochs: how many times each top-level name has
    /// been (re)bound. A name absent from the map — every builtin, every
    /// prelude name until someone shadows it — has implicit epoch 0.
    /// [`Engine::prepare`] snapshots the epochs of a statement's free
    /// names; the statement is stale iff one of them moves (DESIGN.md §12).
    name_epochs: HashMap<Name, u64>,
    /// Index signatures of top-level bindings the compile tier (DESIGN.md
    /// §13) has index-abstracted: use sites of these names must apply one index
    /// argument per entry before their real arguments. Maintained in
    /// lock-step with the value environment — entries are cleared when
    /// their name is rebound ([`Engine::bump_epochs`]).
    index_sigs: HashMap<Name, Rc<IndexSig>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    pub fn new() -> Self {
        Engine {
            cx: Infer::new(),
            tenv: builtins_sig::builtin_env(),
            in_statement: false,
            machine: Machine::new(),
            stmts: StmtCache::new(DEFAULT_STMT_CACHE_CAPACITY),
            metrics: Arc::new(EngineMetrics::new()),
            tracer: Tracer::disabled(),
            env_epoch: 0,
            name_epochs: HashMap::new(),
            index_sigs: HashMap::new(),
        }
    }

    /// Cap evaluation steps (useful when running untrusted or generated
    /// programs that may diverge through `fix`). A step is one evaluated
    /// node or one application; a comprehension runs as one `collect`
    /// pass and costs about one `f` application per element (DESIGN.md
    /// §13).
    pub fn with_fuel(fuel: u64) -> Self {
        let mut e = Engine::new();
        e.machine.fuel = Some(fuel);
        e
    }

    /// Serialize the complete session state to the versioned snapshot
    /// format (DESIGN.md §17): the machine section (store, classes, value
    /// globals — object-identity sharing preserved) plus the type side
    /// (the settled global schemes, the kinds of their free variables, the
    /// mark as the fresh-variable counter) and the engine bookkeeping
    /// (epochs, index signatures). The type side is copied as it stands:
    /// between public calls the context is settled, so it is already this
    /// closed form. Identical session state encodes to identical bytes.
    ///
    /// The statement cache, metrics, and tracer are deliberately absent:
    /// all are cold-start derivatives of the persisted state, so
    /// [`Engine::from_snapshot`] ∘ [`Engine::snapshot`] is
    /// observation-equivalent to the original engine (same bindings, same
    /// epochs, same extent renders) without being byte-identical in
    /// telemetry.
    pub fn snapshot(&self) -> Vec<u8> {
        debug_assert!(self.cx.is_settled(), "a statement was left open");
        let mut globals: Vec<(Name, Scheme)> = self
            .tenv
            .globals()
            .map(|(n, s)| (n.clone(), s.clone()))
            .collect();
        globals.sort_by(|a, b| a.0.cmp(&b.0));
        let mut name_epochs: Vec<(Name, u64)> = self
            .name_epochs
            .iter()
            .map(|(n, e)| (n.clone(), *e))
            .collect();
        name_epochs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut index_sigs: Vec<(Name, IndexSig)> = self
            .index_sigs
            .iter()
            .map(|(n, s)| (n.clone(), s.as_ref().clone()))
            .collect();
        index_sigs.sort_by(|a, b| a.0.cmp(&b.0));
        crate::snapshot::encode_parts(&crate::snapshot::EngineParts {
            machine_bytes: encode_machine(&self.machine),
            next_var: self.tenv.mark(),
            free_kinds: self.cx.settled_kinds(),
            globals,
            env_epoch: self.env_epoch,
            name_epochs,
            index_sigs,
        })
    }

    /// Reconstruct a session from [`Engine::snapshot`] bytes. Corrupt or
    /// truncated input, version skew, and snapshots from binaries with
    /// different builtins all fail loudly as [`Error::Snapshot`] — never a
    /// silently wrong engine.
    ///
    /// The restored engine answers every query, epoch probe, and extent
    /// render exactly as the snapshotted one did; replaying a log tail on
    /// top of it is equivalent to replaying the full log on a fresh
    /// engine (the pool's bounded-recovery path, DESIGN.md §17).
    pub fn from_snapshot(bytes: &[u8]) -> Result<Engine, Error> {
        let p = crate::snapshot::decode_parts(bytes)?;
        let machine = decode_machine(&p.machine_bytes)?;
        let mut e = Engine::new();
        e.machine = machine;
        for (n, s) in p.globals {
            e.tenv.define_global(n, s);
        }
        e.tenv.raise_mark(p.next_var);
        e.cx.restore(e.tenv.mark(), p.free_kinds);
        e.env_epoch = p.env_epoch;
        e.name_epochs = p.name_epochs.into_iter().collect();
        e.index_sigs = p
            .index_sigs
            .into_iter()
            .map(|(n, s)| (n, Rc::new(s)))
            .collect();
        Ok(e)
    }

    // ----- instrumented phases -----
    //
    // Each phase helper times one pipeline stage against the tracer clock,
    // feeds the duration into the phase histogram, and attaches the
    // per-statement work-counter deltas as span attributes (emitted only
    // when tracing is enabled). On an error the open span is dropped
    // without emitting; the phase counter has already been bumped.

    /// Record a finished parse: span attributes, latency, token/node
    /// totals. Returns the measured duration.
    fn note_parse(&mut self, mut span: Span, ps: ParseStats) -> u64 {
        self.metrics.parse.add(ps, Some(&mut span));
        let dur = span.finish(&self.tracer);
        self.metrics.parse_ns.observe(dur);
        dur
    }

    /// Run an inference computation as the timed "infer" phase, returning
    /// its result with this run's inference work and duration.
    fn infer_phase<T>(
        &mut self,
        f: impl FnOnce(&mut Infer, &mut TypeEnv) -> Result<T, TypeError>,
    ) -> Result<(T, InferStats, u64), Error> {
        self.metrics.inferences.inc();
        let before = self.cx.stats();
        let mut span = self.tracer.span("engine.infer");
        let r = f(&mut self.cx, &mut self.tenv);
        let work = self.cx.stats().since(&before);
        self.metrics.infer.add(work, Some(&mut span));
        let dur = span.finish(&self.tracer);
        self.metrics.infer_ns.observe(dur);
        Ok((r?, work, dur))
    }

    /// The one place a statement's type work ends (DESIGN.md §10): `body`
    /// starts from the committed type state, and its work is committed
    /// ([`TypeEnv::settle`]) in [`Mode::Commit`] unless it was rejected
    /// before evaluation started, or else the committed kinds are put back.
    /// A commit that bound or re-kinded an older variable evicts the cached
    /// statements whose schemes have free variables (DESIGN.md §12).
    fn statement<T>(
        &mut self,
        mode: Mode,
        body: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<T, Error> {
        debug_assert!(!self.in_statement, "statements never nest");
        self.in_statement = true;
        let kinds = self.cx.settled_kinds();
        let out = body(self);
        if mode == Mode::Commit && !matches!(out, Err(Error::Parse(_) | Error::Type(_))) {
            if self.cx.touched() {
                let evicted = self.stmts.evict_open();
                self.metrics.stmt_cache_evictions.add(evicted as u64);
            }
            self.tenv.settle(&mut self.cx);
        } else {
            self.cx.restore(self.tenv.mark(), kinds);
        }
        self.in_statement = false;
        out
    }

    /// Evaluate an expression as the timed "eval" phase.
    fn eval_phase(&mut self, e: &Expr) -> Result<Value, Error> {
        self.eval_measured(e).map(|(v, _, _)| v)
    }

    /// [`Engine::eval_phase`], also returning this run's evaluation work
    /// and duration.
    fn eval_measured(&mut self, e: &Expr) -> Result<(Value, MachineStats, u64), Error> {
        let mut span = self.tracer.span("engine.eval");
        let (r, work) = self.on_machine(Some(&mut span), |m| m.eval_code(e));
        let dur = span.finish(&self.tracer);
        self.metrics.eval_ns.observe(dur);
        Ok((r?, work, dur))
    }

    /// Run `f` on the machine, adding the evaluation work it did to the
    /// registry's `eval.*` counters and to `span`, and returning that
    /// work. Every evaluation the engine starts runs through here.
    pub(crate) fn on_machine<T>(
        &mut self,
        span: Option<&mut Span>,
        f: impl FnOnce(&mut Machine) -> T,
    ) -> (T, MachineStats) {
        let before = self.machine.stats();
        let out = f(&mut self.machine);
        let work = self.machine.stats().since(&before);
        self.metrics.eval.add(work, span);
        (out, work)
    }

    /// Compile one statement: inference with per-node type recording on
    /// (the timed "infer" phase), then lowering against the recorded
    /// table (the timed "lower" phase). `lower` sees the inference result
    /// (a `val`'s scheme supplies its binders). The only place the engine
    /// turns recording on: every statement, declaration, cache miss and
    /// replayed log entry is lowered through here.
    fn compile<T, L>(
        &mut self,
        infer: impl FnOnce(&mut Infer, &mut TypeEnv) -> Result<T, TypeError>,
        lower: impl FnOnce(
            &T,
            &TypeTable,
            &HashMap<Name, Rc<IndexSig>>,
            &mut GlobalNames,
        ) -> (L, LowerStats),
    ) -> Result<Compiled<T, L>, Error> {
        self.cx.enable_table();
        let (out, infer, infer_ns) = self.infer_phase(infer)?;
        let table = self
            .cx
            .take_table()
            .ok_or_else(|| Error::Internal("inference recorded no type table".into()))?;
        let (code, lower, lower_ns) =
            self.lower_phase(|sigs, slots| lower(&out, &table, sigs, slots));
        Ok(Compiled {
            out,
            code,
            infer,
            infer_ns,
            lower,
            lower_ns,
        })
    }

    /// Execute a program: a sequence of declarations, one statement each.
    pub fn exec(&mut self, src: &str) -> Result<Vec<Outcome>, Error> {
        let decls = self.parse_program_phase(src)?;
        decls
            .iter()
            .map(|d| self.statement(Mode::Commit, |eng| eng.exec_decl(d)))
            .collect()
    }

    fn parse_program_phase(&mut self, src: &str) -> Result<Vec<Decl>, Error> {
        self.metrics.parses.inc();
        let span = self.tracer.span("engine.parse");
        let (decls, ps) = parse_program_counted(src)?;
        self.note_parse(span, ps);
        Ok(decls)
    }

    // ----- compile once / run many -----

    /// Compile a statement: parse it and infer its principal scheme. The
    /// returned [`Prepared`] can be executed any number of times with
    /// [`Engine::run`] without touching the parser or inference again.
    pub fn prepare(&mut self, src: &str) -> Result<Prepared, Error> {
        self.statement(Mode::Commit, |eng| eng.prepare_src(src))
    }

    fn prepare_src(&mut self, src: &str) -> Result<Prepared, Error> {
        let ast = self.parse_counted(src)?;
        self.prepare_parsed(Some(src.to_string()), ast)
    }

    /// Compile a pre-built AST (no parsing at all): infer its principal
    /// scheme and package it for repeated execution. This is the path the
    /// [`crate::Database`] facade uses — operands are spliced as AST nodes,
    /// never as source text.
    pub fn prepare_expr(&mut self, ast: Expr) -> Result<Prepared, Error> {
        self.statement(Mode::Commit, |eng| eng.prepare_parsed(None, ast))
    }

    pub(crate) fn prepare_parsed(
        &mut self,
        src: Option<String>,
        ast: Expr,
    ) -> Result<Prepared, Error> {
        // Pin the AST behind `Rc` *before* inference: the type table keys
        // per-node results by node address, and the lowering pass must see
        // exactly the nodes inference recorded.
        let ast = Rc::new(ast);
        let c = self.compile_expr(&ast)?;
        Ok(self.prepared(src, ast, c))
    }

    /// [`Engine::compile`] for one expression statement.
    fn compile_expr(&mut self, e: &Expr) -> Result<Compiled<Scheme, Expr>, Error> {
        self.compile(
            |cx, tenv| cx.infer_scheme(tenv, e),
            |_, table, sigs, slots| lower_statement(e, table, sigs, slots),
        )
    }

    /// Package a compiled statement for the statement cache and
    /// [`Engine::run`], snapshotting its dependencies now.
    fn prepared(&self, src: Option<String>, ast: Rc<Expr>, c: Compiled<Scheme, Expr>) -> Prepared {
        let deps = self.snapshot_deps(&ast);
        Prepared::new(src, ast, Rc::new(c.code), c.lower, c.out, deps)
    }

    /// The dependency snapshot for an AST about to be prepared: every free
    /// top-level name paired with its current declaration epoch (absent
    /// names — builtins, the prelude — are epoch 0). The free-variable walk
    /// is binder-exact and total, so every statement gets an exact set.
    fn snapshot_deps(&self, ast: &Expr) -> Deps {
        Deps::new(
            free_vars(ast)
                .into_iter()
                .map(|n| {
                    let at = self.name_epochs.get(&n).copied().unwrap_or(0);
                    (n, at)
                })
                .collect(),
        )
    }

    /// Bump the declaration epochs for a declaration that (re)binds
    /// `names`: the global epoch once, and each bound name's own epoch.
    /// Callers must bump *before* the first environment mutation — a group
    /// declaration can fail partway through binding (see
    /// [`Engine::define_group`]), and cached statements must never keep
    /// validating against a partially-applied group.
    ///
    /// Only the rebound names move. An alias `val g = f;` holds `f`'s
    /// value from when it was defined, under its own index signature, so
    /// rebinding `f` changes nothing a statement on `g` was compiled
    /// against (DESIGN.md §12).
    fn bump_epochs(&mut self, names: &[Name]) {
        self.env_epoch += 1;
        for n in names {
            *self.name_epochs.entry(n.clone()).or_insert(0) += 1;
            self.index_sigs.remove(n);
        }
    }

    /// Run the compile tier on one statement as the timed "lower" phase:
    /// `f` lowers it against the top-level index signatures, resolving its
    /// variables against the machine's global slots. Returns the lowered
    /// form, its work counters, and the duration.
    fn lower_phase<T>(
        &mut self,
        f: impl FnOnce(&HashMap<Name, Rc<IndexSig>>, &mut GlobalNames) -> (T, LowerStats),
    ) -> (T, LowerStats, u64) {
        let mut span = self.tracer.span("engine.lower");
        let (out, stats) = f(&self.index_sigs, self.machine.global_names());
        self.metrics.lower.add(stats, Some(&mut span));
        let dur = span.finish(&self.tracer);
        self.metrics.lower_ns.observe(dur);
        (out, stats, dur)
    }

    /// Execute a prepared statement against the current store. No parsing,
    /// no inference: the cached code, its variables already resolved to
    /// slots, runs directly against the current globals. Fails with
    /// [`Error::StalePrepared`] if a name the statement depends on has
    /// been rebound since it was prepared
    /// (re-`prepare` it; the internal statement cache does this
    /// automatically). Declarations of unrelated names do not invalidate.
    /// Run a `Prepared` on the engine that prepared it: its code reads
    /// that engine's global slots, and an engine restored from a snapshot
    /// numbers them afresh.
    pub fn run(&mut self, p: &Prepared) -> Result<Value, Error> {
        if !p.is_fresh(&self.name_epochs) {
            self.metrics.epoch_invalidations.inc();
            return Err(Error::StalePrepared);
        }
        self.eval_phase(p.code())
    }

    /// [`Engine::run`], rendering the result.
    pub fn run_to_string(&mut self, p: &Prepared) -> Result<String, Error> {
        let v = self.run(p)?;
        Ok(self.machine.show(&v))
    }

    /// [`Engine::eval_cached`] as one kept statement.
    pub(crate) fn eval_statement(
        &mut self,
        key: StmtKey,
        build: impl FnOnce(&mut Self) -> Result<Prepared, Error>,
    ) -> Result<(Scheme, Value), Error> {
        self.statement(Mode::Commit, |e| e.eval_cached(Mode::Commit, key, build))
    }

    /// Execute a statement through the LRU statement cache: on a hit the
    /// cached compiled form runs directly; on a miss (or a stale entry)
    /// `build` compiles a fresh [`Prepared`], which [`Engine::cache`] keeps
    /// as soon as it compiles — so a statement whose run fails, or is
    /// refused inside a read region and rerun, is compiled once.
    fn eval_cached(
        &mut self,
        mode: Mode,
        key: StmtKey,
        build: impl FnOnce(&mut Self) -> Result<Prepared, Error>,
    ) -> Result<(Scheme, Value), Error> {
        let p = match self.stmts.lookup(&key, &self.name_epochs) {
            CacheLookup::Hit(p) => {
                self.metrics.stmt_cache_hits.inc();
                p
            }
            lookup => {
                if matches!(lookup, CacheLookup::Stale) {
                    self.metrics.stmt_cache_dep_invalidations.inc();
                }
                self.metrics.stmt_cache_misses.inc();
                let p = build(self)?;
                self.cache(mode, key, &p);
                p
            }
        };
        let v = self.eval_phase(p.code())?;
        Ok((p.scheme().clone(), v))
    }

    /// Keep a statement just compiled if a later hit answers what a cold
    /// compile would: every free variable of its scheme predates the
    /// statement (a younger one dies with it), and a read bound or
    /// re-kinded no older variable (that work is put back when it ends).
    fn cache(&mut self, mode: Mode, key: StmtKey, p: &Prepared) {
        let old = p.scheme().free_vars().iter().all(|v| *v < self.tenv.mark());
        if old && (mode == Mode::Commit || !self.cx.touched()) {
            let evicted = self.stmts.insert(key, p.clone());
            self.metrics.stmt_cache_evictions.add(evicted as u64);
        }
    }

    /// Parse one complete expression: trailing input is a parse error, so a
    /// [`crate::Database`] operand, spliced in as an AST node, can never
    /// smuggle in another statement.
    pub(crate) fn parse_counted(&mut self, src: &str) -> Result<Expr, Error> {
        self.metrics.parses.inc();
        let span = self.tracer.span("engine.parse");
        let (ast, ps) = parse_expr_counted(src)?;
        self.note_parse(span, ps);
        Ok(ast)
    }

    /// A snapshot of the pipeline counters ([`EngineMetrics::stats`]).
    pub fn stats(&self) -> EngineStats {
        self.metrics.stats()
    }

    /// Zero every counter and histogram in the registry. Handles stay
    /// live; environments and caches are untouched.
    pub fn reset_stats(&mut self) {
        self.metrics.registry.reset();
    }

    // ----- observability -----

    /// A shared handle on the live metrics: clones read every counter
    /// and histogram from any thread while this engine runs.
    pub fn metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Export every metric as JSON lines — exactly one JSON object per
    /// line ([`RegistrySnapshot::to_json_lines`]).
    pub fn metrics_json(&self) -> String {
        self.metrics.registry.to_json_lines()
    }

    /// Replace the tracer clock (inject a
    /// [`polyview_obs::ManualClock`] for deterministic phase timings in
    /// tests). The evaluation profiler is wired to the same clock, so one
    /// injection makes phase timings *and* profile trees deterministic.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.machine.set_profile_clock(Arc::clone(&clock));
        self.tracer.set_clock(clock);
    }

    /// Install a trace sink and enable span emission. Phase timings and
    /// histograms are always collected; the sink only receives the
    /// per-phase [`polyview_obs::EventRecord`]s (`engine.parse`,
    /// `engine.infer`, `engine.lower`, `engine.translate`, `engine.eval`).
    pub fn set_trace_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.tracer.set_sink(sink);
    }

    /// Toggle span emission to the installed sink.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// Is span emission currently enabled?
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Set (or clear, with `None`) the request subsequent phase spans run
    /// on behalf of: while set, every emitted record carries it as its
    /// `trace_id` and `parent`; while clear, records carry `trace_id` 0
    /// and no parent. An embedding layer (the serving pool) sets it per
    /// request, so one trace id stitches the router's and the replica's
    /// views together.
    pub fn set_trace_id(&mut self, trace_id: Option<u64>) {
        self.tracer.set_trace_id(trace_id);
    }

    /// Attributes appended to every emitted phase span, after the span's
    /// own — set once by an embedding layer to identify the emitter (a
    /// pool replica's `worker` and `generation`).
    pub fn set_trace_attrs(&mut self, attrs: Vec<(String, u64)>) {
        self.tracer.set_attrs(attrs);
    }

    /// Compile and run `src` with every phase timed and its work counters
    /// diffed, returning a per-statement [`Explain`] report.
    ///
    /// Explain always compiles fresh — a cached compilation would report
    /// zero parse and inference work — but it consults the cache first to
    /// report whether a plain [`Engine::eval_expr`] would have hit, and it
    /// keeps the fresh compilation by [`Engine::cache`]'s rule, so later
    /// calls do.
    pub fn explain(&mut self, src: &str) -> Result<Explain, Error> {
        self.statement(Mode::Commit, |eng| {
            let key = StmtKey::Src(src.to_string());
            let cached_before = eng.stmts.contains_valid(&key, &eng.name_epochs);
            if cached_before {
                eng.metrics.stmt_cache_hits.inc();
            } else {
                eng.metrics.stmt_cache_misses.inc();
            }

            eng.metrics.parses.inc();
            let span = eng.tracer.span("engine.parse");
            let (ast, ps) = parse_expr_counted(src)?;
            let parse_ns = eng.note_parse(span, ps);

            let ast = Rc::new(ast);
            let c = eng.compile_expr(&ast)?;
            let (infer, infer_ns, lower_ns) = (c.infer, c.infer_ns, c.lower_ns);
            let p = eng.prepared(Some(src.to_string()), ast.clone(), c);
            let offset_rows = polyview_trans::offset_report(p.code());

            let mut span = eng.tracer.span("engine.translate");
            let (_core, ts) = polyview_trans::translate_measured(&ast);
            span.attr("core_nodes", ts.translated_size);
            let translate_ns = span.finish(&eng.tracer);
            eng.metrics.translate_ns.observe(translate_ns);
            eng.metrics.translated_size.observe(ts.translated_size);

            let (v, eval, eval_ns) = eng.eval_measured(p.code())?;
            let rendered = eng.machine.show(&v);
            eng.cache(Mode::Commit, key, &p);

            Ok(Explain {
                src: src.to_string(),
                scheme: p.scheme().clone(),
                rendered,
                cached_before,
                deps: p
                    .deps()
                    .names()
                    .iter()
                    .map(|(n, at)| (n.as_str().to_string(), *at))
                    .collect(),
                parse_ns,
                infer_ns,
                lower_ns,
                translate_ns,
                eval_ns,
                parse: ps,
                infer,
                lower: p.lower_stats(),
                offset_rows,
                translated_size: ts.translated_size,
                eval,
            })
        })
    }

    /// Compile and run `src` with the evaluation profiler attached,
    /// returning a per-node attribution report (REPL `:profile`).
    ///
    /// Like [`Engine::explain`], profile compiles fresh — but unlike
    /// explain it does *not* install the compilation in the statement
    /// cache: a profile run exists to be observed, and leaving the cache
    /// untouched keeps `:profile x; :explain x` reporting an honest miss.
    /// The profiler is scoped to the eval phase, so parse/infer/lower work
    /// never appears in the tree.
    pub fn profile(&mut self, src: &str) -> Result<ProfileReport, Error> {
        self.statement(Mode::Commit, |eng| {
            let p = eng.prepare_src(src)?;
            eng.machine.profile_start();
            let r = eng.eval_phase(p.code());
            let profile = eng.machine.profile_stop().unwrap_or_default();
            let rendered = eng.machine.show(&r?);
            Ok(ProfileReport {
                src: src.to_string(),
                scheme: p.scheme().clone(),
                rendered,
                eval_ns: profile.total_ns(),
                profile,
                class_names: eng.class_names(),
            })
        })
    }

    /// Attach the evaluation profiler to the machine: every statement run
    /// from now on accumulates into one profile, until
    /// [`Engine::stop_profiling`]. This is the embedding-layer API (the
    /// serving pool samples requests with it); [`Engine::profile`] is the
    /// one-statement convenience.
    pub fn start_profiling(&mut self) {
        self.machine.profile_start();
    }

    /// Detach the profiler and return what it collected (`None` if
    /// profiling was never started).
    pub fn stop_profiling(&mut self) -> Option<Profile> {
        self.machine.profile_stop()
    }

    /// Class-id → bound-name pairs from the global environment, for
    /// rendering view-recompute attribution. When several names alias one
    /// class the lexically smallest name wins (deterministic).
    pub(crate) fn class_names(&self) -> Vec<(usize, String)> {
        let mut names: Vec<(usize, String)> = Vec::new();
        for (n, v) in self.machine.globals_iter() {
            if let Value::Class(id) = v {
                names.push((*id, n.as_str().to_string()));
            }
        }
        names.sort();
        names.dedup_by_key(|(id, _)| *id);
        names
    }

    /// Number of statements currently held compiled in the cache.
    pub fn stmt_cache_len(&self) -> usize {
        self.stmts.len()
    }

    /// Statement-cache capacity (number of distinct statements kept
    /// compiled).
    pub fn stmt_cache_capacity(&self) -> usize {
        self.stmts.capacity()
    }

    /// Resize the statement cache (0 disables caching: every call
    /// recompiles, the cold path).
    /// Shrinking below the current length evicts oldest-first,
    /// deterministically; the evictions show up in
    /// [`EngineStats::stmt_cache_evictions`].
    pub fn set_stmt_cache_capacity(&mut self, capacity: usize) {
        let evicted = self.stmts.set_capacity(capacity);
        self.metrics.stmt_cache_evictions.add(evicted as u64);
    }

    /// The current declaration epoch (bumped by `val`/`fun`/`class`).
    /// Observability only — staleness is decided per name, see
    /// [`Engine::name_epoch`].
    pub fn env_epoch(&self) -> u64 {
        self.env_epoch
    }

    /// How many times `name` has been (re)bound at top level. Names never
    /// bound by a declaration — builtins, prelude names — are epoch 0.
    pub fn name_epoch(&self, name: &str) -> u64 {
        self.name_epochs
            .get(&Label::new(name))
            .copied()
            .unwrap_or(0)
    }

    /// Type-check and evaluate a single expression. Served from the
    /// statement cache: repeating the same source performs no parsing and
    /// no inference.
    pub fn eval_expr(&mut self, src: &str) -> Result<(Scheme, Value), Error> {
        self.eval_statement(StmtKey::Src(src.to_string()), |eng| eng.prepare_src(src))
    }

    /// Evaluate an expression and render the result.
    ///
    /// Two statements at most, both kept. The expression runs inside a
    /// machine read region first ([`Engine::read`], minus its program
    /// fallback and its type-side put-back), so a pure one leaves no
    /// allocation behind and keeps the extents it filled cached. One that
    /// writes earlier state was refused before mutating and left nothing
    /// behind, so it reruns outside a region and its effects apply exactly
    /// once. Callers that keep the returned [`Value`]s use
    /// [`Engine::eval_expr`] or [`Engine::run`] instead, which never
    /// reclaim.
    pub fn eval_to_string(&mut self, src: &str) -> Result<String, Error> {
        self.read_first(|e| e.eval_expr(src).map(|(_, v)| e.machine.show(&v)))
    }

    /// Run `f` as a read region, and again outside one if it tried to
    /// change earlier state: a pure `f` leaves no allocation behind, and
    /// an effectful one applies its effects once ([`Engine::eval_to_string`]).
    pub(crate) fn read_first<T>(
        &mut self,
        f: impl Fn(&mut Self) -> Result<T, Error>,
    ) -> Result<T, Error> {
        match self.in_read_region(&f) {
            Err(Error::Runtime(RuntimeError::EffectInRead)) => f(self),
            out => out,
        }
    }

    /// Serve `src` as a *read region* and render its result: a single
    /// expression through the statement cache, or a program of bare
    /// expressions (one rendered line each). Whatever the read allocates
    /// is reclaimed before this returns — on success, runtime error and
    /// fuel exhaustion alike — so the machine ends exactly as it began and
    /// a replica's state depends only on the writes it applied
    /// ([`Machine::begin_read`]).
    ///
    /// A read that would change earlier state — `insert`/`delete` on an
    /// existing class, `update` of an existing field, reached directly or
    /// through any function or stored closure — fails with
    /// [`polyview_eval::RuntimeError::EffectInRead`] before mutating, and
    /// so does a program containing a declaration. The caller decides
    /// what to do with such a statement (the pool sequences it as a write).
    ///
    /// The type side is a region too: the read is one [`Mode::Read`]
    /// statement, so its bindings, kinds and fresh variables are dropped
    /// when it ends, and a weak type variable a read instantiates stays
    /// free for the writes every replica applies.
    pub fn read(&mut self, src: &str) -> Result<String, Error> {
        let key = StmtKey::Src(src.to_string());
        self.statement(Mode::Read, |eng| {
            eng.in_read_region(|eng| {
                match eng.eval_cached(Mode::Read, key, |eng| eng.prepare_src(src)) {
                    Ok((_, v)) => Ok(eng.machine.show(&v)),
                    Err(Error::Parse(_)) => {
                        let decls = eng.parse_program_phase(src)?;
                        let lines = decls.iter().map(|d| match d {
                            Decl::Expr(e) => {
                                eng.eval_uncached(e).map(|(_, v)| eng.machine.show(&v))
                            }
                            _ => Err(RuntimeError::EffectInRead.into()),
                        });
                        Ok(lines.collect::<Result<Vec<_>, Error>>()?.join("\n"))
                    }
                    Err(e) => Err(e),
                }
            })
        })
    }

    /// The one read-region bracket: run `f` between
    /// [`Machine::begin_read`] and [`Machine::end_read`], so whatever it
    /// allocates is reclaimed however it ends. `f` renders what it
    /// returns before the region closes.
    fn in_read_region<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mark = self.machine.begin_read();
        let out = f(self);
        self.machine.end_read(mark);
        out
    }

    /// Infer the principal scheme of an expression without evaluating it.
    pub fn infer_expr(&mut self, src: &str) -> Result<Scheme, Error> {
        self.statement(Mode::Commit, |eng| {
            let e = eng.parse_counted(src)?;
            Ok(eng.infer_phase(|cx, tenv| cx.infer_scheme(tenv, &e))?.0)
        })
    }

    /// Type-check and evaluate a pre-built AST (uncached; see
    /// [`Engine::prepare_expr`] for the compile-once path).
    pub fn eval_ast(&mut self, e: &Expr) -> Result<(Scheme, Value), Error> {
        self.statement(Mode::Commit, |eng| eng.eval_uncached(e))
    }

    fn eval_uncached(&mut self, e: &Expr) -> Result<(Scheme, Value), Error> {
        let c = self.compile_expr(e)?;
        let v = self.eval_phase(&c.code)?;
        Ok((c.out, v))
    }

    /// Execute one declaration.
    fn exec_decl(&mut self, d: &Decl) -> Result<Outcome, Error> {
        match d {
            Decl::Val(name, e) => {
                let c = self.compile(
                    |cx, tenv| {
                        let scheme = cx.infer_scheme(tenv, e)?;
                        cx.check_ground_mutables(&scheme.body)?;
                        Ok(scheme)
                    },
                    |scheme, table, sigs, slots| {
                        let (c, s, st) = lower_binding(e, &scheme.binders, table, sigs, slots);
                        ((c, s), st)
                    },
                )?;
                let (scheme, (code, sig)) = (c.out, c.code);
                let v = self.eval_phase(&code)?;
                self.bump_epochs(std::slice::from_ref(name));
                if let Some(s) = sig {
                    self.index_sigs.insert(name.clone(), s);
                }
                self.tenv.define_global(name.clone(), scheme.clone());
                self.machine.define_global(name.clone(), v);
                Ok(Outcome::Defined(vec![(name.clone(), scheme)]))
            }
            Decl::Fun(defs) => self.exec_fun(defs),
            Decl::Classes(binds) => self.exec_classes(binds),
            Decl::Expr(e) => {
                let (scheme, v) = self.eval_uncached(e)?;
                Ok(Outcome::Value {
                    scheme,
                    rendered: self.machine.show(&v),
                })
            }
        }
    }

    /// `fun f x = e and …`: encode with the paper's `fix`/record
    /// construction and bind each function. The group encoding is
    /// expansive, but its value is a closure for every definition, so
    /// top-level generalization is sound; we generalize explicitly.
    ///
    /// The whole group is elaborated **once**: one `fun_and` wrapper whose
    /// body is the tuple of the defined names, one inference run, one
    /// evaluation — then each binding's scheme is generalized from its
    /// component type and its closure projected from the group value. (The
    /// previous implementation re-elaborated the entire group per bound
    /// name, O(n²) in the group size.)
    fn exec_fun(&mut self, defs: &[(Name, Vec<Name>, Expr)]) -> Result<Outcome, Error> {
        let names: Vec<Name> = defs.iter().map(|(f, _, _)| f.clone()).collect();
        let body = if names.len() == 1 {
            Expr::Var(names[0].clone())
        } else {
            Expr::tuple(names.iter().map(|n| Expr::Var(n.clone())))
        };
        let group = fun_decl_to_expr(defs.to_vec(), body);
        let single = names.len() == 1;
        let c = self.compile(
            |cx, tenv| infer::infer(cx, tenv, &group),
            |_, table, sigs, slots| match &group {
                // A single definition elaborates to `let f = fix f => λ… in
                // f end`; index-abstract the `fix` itself (the same node
                // inference recorded) so a record-polymorphic function
                // takes its offsets as parameters. The binders come from
                // the table's recorded *let scheme* — they name the rhs's
                // own type variables, which is what the rhs's operand
                // records refer to. The global scheme, however, is
                // re-generalized from the group's body occurrence (a fresh
                // instantiation), so the sig we register is renamed through
                // that occurrence's instantiation record. Mutually
                // recursive groups are lowered plainly — their bundle
                // encoding is not a λ, so they keep dynamic lookups as
                // documented residue.
                Expr::Let(_, rhs, body) if single => {
                    let binders = table
                        .let_schemes
                        .get(&node_id(&group))
                        .cloned()
                        .unwrap_or_default();
                    let (code, sig, st) = lower_binding(rhs, &binders, table, sigs, slots);
                    let sig = match sig {
                        None => Ok(None),
                        Some(s) => rename_sig(&s, table, body).map(|r| Some(Rc::new(r))),
                    };
                    (sig.map(|s| (code, s)), st)
                }
                _ => {
                    let (code, st) = lower_statement(&group, table, sigs, slots);
                    (Ok((code, None)), st)
                }
            },
        )?;
        let (code, sig) = c.code?;
        let t = self.cx.resolve(&c.out);
        let slots = self.machine.store.len();
        let v = self.eval_phase(&code)?;

        let tys = if single {
            vec![t]
        } else {
            group_component_types(&t, names.len(), "fun group")?
        };
        let bound = self.define_group(&names, tys, v, true)?;
        // A group's `fix` bundle and member tuple only lead to its
        // members, which are closures over the bundle's `fix` closure and
        // older globals: nothing bound reaches a slot the evaluation
        // allocated, so the slots go (a `class` group's extents do hold
        // its slots, so `exec_classes` keeps them).
        self.machine.store.truncate(slots);
        if let Some(s) = sig {
            self.index_sigs.insert(names[0].clone(), s);
        }
        Ok(Outcome::Defined(bound))
    }

    /// Bind the members of an already-elaborated `fun`/`class` group:
    /// project each member's value out of the group tuple and define it
    /// globally, generalizing the scheme when `generalize` holds.
    ///
    /// Epochs (global and per-name) are bumped **before** the first
    /// `define_global` — the per-member projection can fail mid-loop
    /// (`field_of` on a malformed group value), and by then earlier members
    /// have already been redefined. Bumping first means every cached
    /// statement that depends on a group member is invalidated even when
    /// the group only partially applies; the environment may hold a
    /// half-bound group after such an error, but nothing stale can run
    /// against it.
    fn define_group(
        &mut self,
        names: &[Name],
        tys: Vec<Mono>,
        v: Value,
        generalize: bool,
    ) -> Result<Vec<(Name, Scheme)>, Error> {
        self.bump_epochs(names);
        let mut bound = Vec::with_capacity(names.len());
        for (i, (n, ti)) in names.iter().zip(tys).enumerate() {
            let scheme = if generalize {
                self.cx.generalize(&self.tenv, &ti)
            } else {
                Scheme::mono(ti)
            };
            let vi = if names.len() == 1 {
                v.clone()
            } else {
                self.machine.field_of(&v, Label::tuple(i + 1).as_str())?
            };
            self.tenv.define_global(n.clone(), scheme.clone());
            self.machine.define_global(n.clone(), vi);
            bound.push((n.clone(), scheme));
        }
        Ok(bound)
    }

    /// `class A = class … end and …`: a top-level (possibly mutually
    /// recursive) class group, typed by the Fig. 6 rule and bound
    /// persistently.
    fn exec_classes(&mut self, binds: &[(Name, ClassDef)]) -> Result<Outcome, Error> {
        check_rec_class_scope(binds).map_err(polyview_types::TypeError::from)?;
        // Type the group by wrapping it as let-classes returning the tuple
        // of the bound class values; evaluating the same wrapper once
        // yields the values to destructure.
        let names: Vec<Name> = binds.iter().map(|(n, _)| n.clone()).collect();
        let body = if names.len() == 1 {
            Expr::Var(names[0].clone())
        } else {
            Expr::tuple(names.iter().map(|n| Expr::Var(n.clone())))
        };
        let wrapped = Expr::LetClasses(binds.to_vec(), Box::new(body));
        let c = self.compile(
            |cx, tenv| infer::infer(cx, tenv, &wrapped),
            |_, table, sigs, slots| lower_statement(&wrapped, table, sigs, slots),
        )?;
        let t = self.cx.resolve(&c.out);
        let v = self.eval_phase(&c.code)?;

        let tys = if names.len() == 1 {
            vec![t]
        } else {
            group_component_types(&t, names.len(), "class group")?
        };
        let bound = self.define_group(&names, tys, v, false)?;
        Ok(Outcome::Defined(bound))
    }

    /// The principal scheme of a bound name, if any, as the last
    /// statement settled it (a top-level class may start with an
    /// unconstrained element type that later declarations pin down).
    pub fn scheme_of(&self, name: &str) -> Option<Scheme> {
        self.tenv.lookup(&Label::new(name)).cloned()
    }

    /// The current value of a bound name, if any.
    pub fn value_of(&self, name: &str) -> Option<Value> {
        self.machine.global(&Label::new(name)).cloned()
    }

    /// Render any value using the engine's store.
    pub fn show(&self, v: &Value) -> String {
        self.machine.show(v)
    }

    /// Direct access to the evaluation machine (extents, stores, classes).
    /// Work done on it directly is not counted in [`Engine::stats`].
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Load the standard prelude ([`crate::prelude::PRELUDE`]): `count`,
    /// `sum`, `exists`, `forall`, `diff`, `subset`, `flatten`,
    /// `materialize`, `extent`, `csize`, ….
    pub fn load_prelude(&mut self) -> Result<(), Error> {
        self.exec(crate::prelude::PRELUDE)?;
        Ok(())
    }

    /// Translate an expression through the paper's Figs. 3/5 semantics into
    /// a pure core-language term (type-checked first). For the cached
    /// equivalent, use [`Engine::prepare`] + [`Prepared::translation`].
    pub fn translate_expr(&mut self, src: &str) -> Result<Expr, Error> {
        self.statement(Mode::Commit, |eng| {
            let e = eng.parse_counted(src)?;
            eng.infer_phase(|cx, tenv| cx.infer_scheme(tenv, &e))?;
            let mut span = eng.tracer.span("engine.translate");
            let (core, ts) = polyview_trans::translate_measured(&e);
            span.attr("core_nodes", ts.translated_size);
            let dur = span.finish(&eng.tracer);
            eng.metrics.translate_ns.observe(dur);
            eng.metrics.translated_size.observe(ts.translated_size);
            Ok(core)
        })
    }
}

/// Destructure the resolved type of a declaration-group wrapper (`fun … and
/// …` / `class … and …` with a tuple body) into its component types. The
/// wrapper is constructed to type as an n-tuple, so anything else is an
/// engine invariant violation — reported as [`Error::Internal`], never a
/// panic (this path used to `unreachable!` and index unchecked).
fn group_component_types(t: &Mono, n: usize, what: &str) -> Result<Vec<Mono>, Error> {
    let parts = match t {
        Mono::Record(fs) => fs,
        other => {
            return Err(Error::Internal(format!(
                "{what} wrapper must type as a tuple, got {other}"
            )))
        }
    };
    (1..=n)
        .map(|i| {
            parts
                .get(&Label::tuple(i))
                .map(|f| f.ty.clone())
                .ok_or_else(|| {
                    Error::Internal(format!("{what} wrapper type is missing component #{i}"))
                })
        })
        .collect()
}

/// Rename a single `fun` definition's index signature from the binders of
/// its recorded let scheme to the fresh variables its body occurrence
/// instantiated them at — the variables the re-generalized global scheme
/// quantifies. The body occurrence instantiates every let binder at a
/// fresh variable nothing binds afterwards, so a missing or non-variable
/// image is an engine invariant violation ([`Error::Internal`]).
fn rename_sig(sig: &IndexSig, table: &TypeTable, body: &Expr) -> Result<IndexSig, Error> {
    let inst = table.instantiations.get(&node_id(body));
    sig.iter()
        .map(
            |(b, l)| match inst.and_then(|inst| inst.iter().find(|(bb, _)| bb == b)) {
                Some((_, Mono::Var(g))) => Ok((*g, l.clone())),
                other => Err(Error::Internal(format!(
                    "fun index signature: binder t{b} has no variable image in the body \
                     occurrence (got {other:?})"
                ))),
            },
        )
        .collect()
}

/// Run a computation on a dedicated thread with a large stack. The
/// tree-walking evaluator recurses with the interpreted program, so deeply
/// recursive user programs (e.g. non-tail `fix` loops over big inputs) can
/// exhaust the default stack; construct the [`Engine`] inside the closure
/// and size the stack to the workload.
///
/// ```
/// let out = polyview::engine::with_stack_size(256 * 1024 * 1024, || {
///     let mut e = polyview::Engine::new();
///     e.exec("fun sum n = if n = 0 then 0 else n + sum (n - 1);")
///         .expect("defines");
///     e.eval_to_string("sum 5000").expect("runs")
/// });
/// assert_eq!(out, "12502500");
/// ```
pub fn with_stack_size<R: Send>(stack_bytes: usize, f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(stack_bytes)
            .spawn_scoped(scope, f)
            .expect("spawn evaluation thread")
            .join()
            .expect("evaluation thread panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn val_definition_persists() {
        let mut e = Engine::new();
        e.exec("val x = 41;").expect("defines");
        assert_eq!(e.eval_to_string("x + 1").expect("query"), "42");
    }

    #[test]
    fn scheme_of_reports_principal_type() {
        let mut e = Engine::new();
        e.exec("val id = fn x => x;").expect("defines");
        assert_eq!(
            e.scheme_of("id").expect("bound").to_string(),
            "∀t1::U. t1 -> t1"
        );
    }

    #[test]
    fn type_errors_are_static() {
        let mut e = Engine::new();
        // update on an immutable field must be rejected *before* running.
        e.exec("val r = [Name = \"Joe\"];").expect("defines");
        let err = e.eval_expr("update(r, Name, \"P\")").expect_err("rejected");
        assert!(err.is_type_error(), "got {err:?}");
    }

    #[test]
    fn parse_errors_reported() {
        let mut e = Engine::new();
        assert!(e.exec("val = 3").expect_err("bad").is_parse_error());
    }

    #[test]
    fn fun_single_recursive() {
        let mut e = Engine::new();
        e.exec("fun fact n = if n = 0 then 1 else n * fact (n - 1);")
            .expect("defines");
        assert_eq!(e.eval_to_string("fact 6").expect("runs"), "720");
    }

    #[test]
    fn fun_mutually_recursive() {
        let mut e = Engine::new();
        e.exec(
            "fun even n = if n = 0 then true else odd (n - 1) \
             and odd n = if n = 0 then false else even (n - 1);",
        )
        .expect("defines");
        assert_eq!(e.eval_to_string("even 10").expect("runs"), "true");
        assert_eq!(e.eval_to_string("odd 10").expect("runs"), "false");
    }

    #[test]
    fn fun_is_polymorphic_at_top_level() {
        let mut e = Engine::new();
        e.exec("fun twice f x = f (f x);").expect("defines");
        assert_eq!(
            e.eval_to_string("twice (fn n => n + 1) 0").expect("runs"),
            "2"
        );
        assert_eq!(
            e.eval_to_string("twice (fn s => s ^ \"!\") \"hi\"")
                .expect("runs"),
            "\"hi!!\""
        );
    }

    #[test]
    fn multi_param_fun_curries() {
        let mut e = Engine::new();
        e.exec("fun add3 a b c = a + b + c;").expect("defines");
        assert_eq!(e.eval_to_string("add3 1 2 3").expect("runs"), "6");
        assert_eq!(e.eval_to_string("(add3 1 2) 3").expect("runs"), "6");
    }

    #[test]
    fn top_level_class_group() {
        let mut e = Engine::new();
        e.exec(
            "val alice = IDView([Name = \"Alice\", Sex = \"female\"]);\n\
             class Staff = class {alice} end;",
        )
        .expect("defines");
        assert_eq!(
            e.eval_to_string("cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)")
                .expect("runs"),
            "{\"Alice\"}"
        );
    }

    #[test]
    fn top_level_recursive_class_group() {
        let mut e = Engine::new();
        e.exec(
            "val a = IDView([Name = \"Anna\"]);\n\
             val b = IDView([Name = \"Ben\"]);\n\
             class A = class {a} include B as fn x => x where fn x => true end \
             and B = class {b} include A as fn x => x where fn x => true end;",
        )
        .expect("defines");
        assert_eq!(
            e.eval_to_string("cquery(fn s => map(fn o => query(fn x => x.Name, o), s), A)")
                .expect("runs"),
            "{\"Anna\", \"Ben\"}"
        );
    }

    #[test]
    fn bare_expression_outcome() {
        let mut e = Engine::new();
        let out = e.exec("1 + 2;").expect("runs");
        match &out[0] {
            Outcome::Value { scheme, rendered } => {
                assert_eq!(scheme.to_string(), "int");
                assert_eq!(rendered, "3");
            }
            other => panic!("expected value, got {other:?}"),
        }
    }

    #[test]
    fn runtime_division_by_zero_is_runtime_error() {
        let mut e = Engine::new();
        let err = e.eval_expr("1 / 0").expect_err("fails");
        assert!(err.is_runtime_error());
    }

    #[test]
    fn ground_mutable_restriction_enforced_at_val() {
        let mut e = Engine::new();
        // A mutable field whose type stays polymorphic must be rejected.
        let err = e.exec("val r = [Cell := {}];").expect_err("rejected");
        assert!(err.is_type_error(), "got {err:?}");
    }

    #[test]
    fn insert_persists_across_statements() {
        let mut e = Engine::new();
        e.exec(
            "class Staff = class {} end;\n\
             insert(Staff, IDView([Name = \"Eve\"]));",
        )
        .expect("runs");
        assert_eq!(
            e.eval_to_string("cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)")
                .expect("runs"),
            "{\"Eve\"}"
        );
    }

    #[test]
    fn group_destructuring_errors_instead_of_panicking() {
        // Regression: this path used `unreachable!` plus an unchecked
        // tuple-label index; a violated invariant must surface as
        // `Error::Internal`, never a panic.
        let not_a_tuple = Mono::int();
        let err = group_component_types(&not_a_tuple, 2, "class group").expect_err("non-record");
        assert!(err.is_internal(), "got {err:?}");
        assert!(err.to_string().contains("class group"), "got {err}");

        let missing_component = Mono::record_imm([(Label::tuple(1), Mono::int())]);
        let err =
            group_component_types(&missing_component, 2, "fun group").expect_err("missing #2");
        assert!(err.is_internal(), "got {err:?}");
        assert!(err.to_string().contains("component #2"), "got {err}");

        let ok = Mono::record_imm([
            (Label::tuple(1), Mono::int()),
            (Label::tuple(2), Mono::bool()),
        ]);
        let tys = group_component_types(&ok, 2, "class group").expect("tuple");
        assert_eq!(tys, vec![Mono::int(), Mono::bool()]);
    }

    #[test]
    fn name_epochs_track_only_the_names_a_declaration_binds() {
        let mut e = Engine::new();
        assert_eq!(e.name_epoch("map"), 0, "prelude names are epoch 0");
        e.exec("val x = 1;").expect("defines");
        e.exec("fun f a = a and g a = a;").expect("defines");
        assert_eq!(e.name_epoch("x"), 1);
        assert_eq!(e.name_epoch("f"), 1);
        assert_eq!(e.name_epoch("g"), 1);
        assert_eq!(e.name_epoch("map"), 0, "unbound names never move");
        e.exec("val x = 2;").expect("rebinds");
        assert_eq!(e.name_epoch("x"), 2);
        assert_eq!(e.name_epoch("f"), 1);
    }

    #[test]
    fn partial_group_failure_still_invalidates_dependents() {
        // Regression: binding a group redefines members one at a time, and
        // the per-member projection can fail mid-loop. The epoch bump used
        // to happen only *after* the loop, so a mid-loop failure left the
        // type environment mutated while prepared statements kept
        // validating — a stale statement could run against retyped
        // bindings. `define_group` must bump before the first mutation.
        let mut e = Engine::new();
        e.exec("fun f a = a and g a = a;").expect("defines");
        let p = e.prepare("f 1").expect("compiles");
        e.run(&p).expect("fresh runs");

        // Drive `define_group` with a malformed group value: two names and
        // types, but a 1-tuple value, so projecting `g`'s component fails
        // after `f` has already been redefined as an int.
        let one_tuple = Expr::tuple(std::iter::once(Expr::int(7)));
        let (_, v) = e.eval_ast(&one_tuple).expect("builds group value");
        let names = [Label::new("f"), Label::new("g")];
        let err = e
            .define_group(&names, vec![Mono::int(), Mono::int()], v, false)
            .expect_err("projection of #2 fails");
        assert!(err.is_runtime_error(), "got {err:?}");

        // `f` was redefined before the failure …
        assert_eq!(e.scheme_of("f").expect("bound").to_string(), "int");
        // … so the prepared application must be stale, not runnable.
        assert!(matches!(e.run(&p), Err(Error::StalePrepared)));
        // Both group members' epochs moved despite the partial application.
        assert_eq!(e.name_epoch("f"), 2);
        assert_eq!(e.name_epoch("g"), 2);
    }

    #[test]
    fn engine_with_fuel_halts_divergence() {
        let mut e = Engine::with_fuel(1_500);
        let err = e
            .eval_expr("let fun loop x = loop x in loop 0 end")
            .expect_err("halts");
        assert!(matches!(
            err,
            Error::Runtime(polyview_eval::RuntimeError::FuelExhausted)
        ));
    }
}
