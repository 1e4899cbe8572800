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
use polyview_eval::{decode_machine, encode_machine, Machine, Profile, Value};
use polyview_obs::{Clock, Counter, EventSink, Histogram, Registry, Span, Tracer};
use polyview_parser::{parse_expr_counted, parse_program_counted, Decl, ParseStats};
use polyview_syntax::visit::{check_rec_class_scope, free_vars};
use polyview_syntax::{sugar, ClassDef, Expr, Kind, Label, Mono, Name, Scheme, TyVar};
use polyview_trans::{lower_binding, lower_statement, IndexSig, LowerStats};
use polyview_types::{builtins_sig, generalize, infer, Infer, TypeEnv, TypeTable};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// What a declaration-log replay did ([`Engine::replay`] /
/// [`Engine::from_log`]): entries applied, and how many of them failed
/// (failures are deterministic across replicas, so they are counted rather
/// than propagated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    pub applied: u64,
    pub errors: u64,
}

/// Result of executing one declaration.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Names bound by a `val`/`fun`/`class` declaration, with their
    /// principal schemes.
    Defined(Vec<(Name, Scheme)>),
    /// An evaluated bare expression.
    Value { scheme: Scheme, rendered: String },
}

/// Handles into the engine's metrics registry, resolved once at
/// construction so the hot paths pay one relaxed atomic update per event
/// and never hash a metric name. The last block mirrors counters owned by
/// the inference context and the machine; they are synced into the
/// registry only at export time ([`Engine::metrics_json`]).
struct PhaseMetrics {
    parses: Counter,
    inferences: Counter,
    stmt_cache_hits: Counter,
    stmt_cache_misses: Counter,
    stmt_cache_evictions: Counter,
    stmt_cache_dep_invalidations: Counter,
    epoch_invalidations: Counter,
    tokens_lexed: Counter,
    nodes_parsed: Counter,
    parse_ns: Histogram,
    infer_ns: Histogram,
    lower_ns: Histogram,
    translate_ns: Histogram,
    eval_ns: Histogram,
    translated_size: Histogram,
    unify_steps: Counter,
    occurs_checks: Counter,
    kind_merges: Counter,
    instantiations: Counter,
    fuel_consumed: Counter,
    records_allocated: Counter,
    sets_allocated: Counter,
    field_offsets_resolved: Counter,
    dyn_field_fallbacks: Counter,
    /// Lowering-time twins of the two eval counters above: offsets the
    /// compile tier resolved statically, and the *static* residue it left
    /// behind (field ops it could not resolve). Distinct from
    /// `eval.dyn_field_fallbacks`, which counts fallbacks actually
    /// *executed* — the two disagree whenever residue sits on a cold
    /// branch or a fallback runs in a loop.
    lower_offsets: Counter,
    lower_residue: Counter,
}

impl PhaseMetrics {
    fn new(reg: &Registry) -> Self {
        PhaseMetrics {
            parses: reg.counter("engine.parses"),
            inferences: reg.counter("engine.inferences"),
            stmt_cache_hits: reg.counter("engine.stmt_cache_hits"),
            stmt_cache_misses: reg.counter("engine.stmt_cache_misses"),
            stmt_cache_evictions: reg.counter("engine.stmt_cache_evictions"),
            stmt_cache_dep_invalidations: reg.counter("engine.stmt_cache_dep_invalidations"),
            epoch_invalidations: reg.counter("engine.epoch_invalidations"),
            tokens_lexed: reg.counter("parser.tokens_lexed"),
            nodes_parsed: reg.counter("parser.nodes_parsed"),
            parse_ns: reg.histogram("phase.parse_ns"),
            infer_ns: reg.histogram("phase.infer_ns"),
            lower_ns: reg.histogram("phase.lower_ns"),
            translate_ns: reg.histogram("phase.translate_ns"),
            eval_ns: reg.histogram("phase.eval_ns"),
            translated_size: reg.histogram("trans.translated_size"),
            unify_steps: reg.counter("types.unify_steps"),
            occurs_checks: reg.counter("types.occurs_checks"),
            kind_merges: reg.counter("types.kind_merges"),
            instantiations: reg.counter("types.instantiations"),
            fuel_consumed: reg.counter("eval.fuel_consumed"),
            records_allocated: reg.counter("eval.records_allocated"),
            sets_allocated: reg.counter("eval.sets_allocated"),
            field_offsets_resolved: reg.counter("eval.field_offsets_resolved"),
            dyn_field_fallbacks: reg.counter("eval.dyn_field_fallbacks"),
            lower_offsets: reg.counter("trans.offsets_resolved"),
            lower_residue: reg.counter("trans.dynamic_residue"),
        }
    }
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
    cx: Infer,
    tenv: TypeEnv,
    machine: Machine,
    stmts: StmtCache,
    metrics: Registry,
    tracer: Tracer,
    phases: PhaseMetrics,
    /// Bumped by every declaration (`val`/`fun`/`class`). Staleness of
    /// prepared statements is decided per name ([`Engine::name_epoch`]);
    /// the global epoch remains as the fallback for [`Deps::Global`]
    /// statements and as an observability signal
    /// ([`crate::prepare::EngineStats`], pool convergence checks).
    env_epoch: u64,
    /// Per-name declaration epochs: how many times each top-level name has
    /// been (re)bound. A name absent from the map — every builtin, every
    /// prelude name until someone shadows it — has implicit epoch 0.
    /// [`Engine::prepare`] snapshots the epochs of a statement's free
    /// names; the statement is stale iff one of them moves (DESIGN.md §12).
    name_epochs: HashMap<Name, u64>,
    /// Compile tier toggle (DESIGN.md §13): when on (the default), every
    /// prepared statement and declaration is lowered to offset-resolved
    /// form before evaluation. Set it **before the first declaration** —
    /// code compiled under one setting must not run against bindings
    /// compiled under the other (use a fresh engine per backend, as the
    /// differential suite does).
    compile_tier: bool,
    /// Index signatures of top-level bindings the compile tier has
    /// index-abstracted: use sites of these names must apply one index
    /// argument per entry before their real arguments. Maintained in
    /// lock-step with the value environment — entries are cleared when
    /// their name is rebound ([`Engine::bump_epochs`]).
    index_sigs: HashMap<Name, Rc<IndexSig>>,
    /// `val g = f;` alias edges (alias → source). When a name is rebound,
    /// every alias that points at it (transitively) has its epoch bumped
    /// too: the alias's *value* still holds the old binding, so statements
    /// depending on the alias must go stale with the source (DESIGN.md
    /// §12).
    alias_edges: HashMap<Name, Name>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    pub fn new() -> Self {
        let metrics = Registry::new();
        let phases = PhaseMetrics::new(&metrics);
        Engine {
            cx: Infer::new(),
            tenv: builtins_sig::builtin_env(),
            machine: Machine::new(),
            stmts: StmtCache::new(DEFAULT_STMT_CACHE_CAPACITY),
            metrics,
            tracer: Tracer::disabled(),
            phases,
            env_epoch: 0,
            name_epochs: HashMap::new(),
            compile_tier: true,
            index_sigs: HashMap::new(),
            alias_edges: HashMap::new(),
        }
    }

    /// Toggle the compile tier (offset-resolved execution). On by default.
    /// Must be set before the first declaration: bindings compiled with
    /// the tier on hold index-abstracted values that only tier-compiled
    /// statements know how to call. Use a fresh engine per setting.
    pub fn set_compile_tier(&mut self, on: bool) {
        self.compile_tier = on;
    }

    /// Is the compile tier (offset-resolved execution) enabled?
    pub fn compile_tier(&self) -> bool {
        self.compile_tier
    }

    /// Cap evaluation steps (useful when running untrusted or generated
    /// programs that may diverge through `fix`).
    pub fn with_fuel(fuel: u64) -> Self {
        let mut e = Engine::new();
        e.machine.fuel = Some(fuel);
        e
    }

    /// Construct an engine by replaying a declaration log from offset 0 —
    /// how a replica (or a respawned worker) in a serving pool
    /// (`crates/pool`) catches up to its peers. Equivalent to `Engine::new`
    /// followed by [`Engine::replay`].
    pub fn from_log<'a>(entries: impl IntoIterator<Item = &'a str>) -> (Self, ReplaySummary) {
        let mut e = Engine::new();
        let summary = e.replay(entries);
        (e, summary)
    }

    /// Apply a sequence of already-sequenced declaration-log entries.
    ///
    /// Replay is *deterministic*: the engine's pipeline has no hidden
    /// nondeterminism, so two engines replaying the same entries in the
    /// same order end with the same `env_epoch`, the same top-level
    /// bindings, and extents that render identically. An entry that fails
    /// (parse, type, or runtime error) fails identically on every replica —
    /// its error is *counted*, not propagated, so replicas that already
    /// accepted the log's order never diverge on error handling.
    pub fn replay<'a>(&mut self, entries: impl IntoIterator<Item = &'a str>) -> ReplaySummary {
        let mut summary = ReplaySummary::default();
        for src in entries {
            summary.applied += 1;
            if self.exec(src).is_err() {
                summary.errors += 1;
            }
        }
        summary
    }

    /// Serialize the complete session state to the versioned snapshot
    /// format (DESIGN.md §17): the machine section (store, classes, value
    /// globals — object-identity sharing preserved) plus the type side
    /// (schemes resolved through the current substitution, free-variable
    /// kinds, the fresh-variable counter) and the engine bookkeeping
    /// (epochs, compile tier, index signatures, alias edges). Identical
    /// session state encodes to identical bytes.
    ///
    /// The statement cache, metrics, and tracer are deliberately absent:
    /// all are cold-start derivatives of the persisted state, so
    /// [`Engine::from_snapshot`] ∘ [`Engine::snapshot`] is
    /// observation-equivalent to the original engine (same bindings, same
    /// epochs, same extent renders) without being byte-identical in
    /// telemetry.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut globals: Vec<(Name, Scheme)> = self
            .tenv
            .globals()
            .map(|(n, s)| {
                (
                    n.clone(),
                    Scheme {
                        binders: s
                            .binders
                            .iter()
                            .map(|(v, k)| (*v, self.cx.resolve_kind(k)))
                            .collect(),
                        body: self.cx.resolve(&s.body),
                    },
                )
            })
            .collect();
        globals.sort_by(|a, b| a.0.cmp(&b.0));
        // Kinds of the variables still free in the resolved schemes: the
        // only part of the inference context a restored session can ask
        // about (instantiation reads binder kinds from the scheme itself).
        let mut free_kinds: BTreeMap<TyVar, Kind> = BTreeMap::new();
        for (_, s) in &globals {
            let binders: HashSet<TyVar> = s.binders.iter().map(|(v, _)| *v).collect();
            let mut vars = Vec::new();
            let mut seen = HashSet::new();
            self.cx.free_vars_deep(&s.body, &mut vars, &mut seen);
            for v in vars {
                if binders.contains(&v) {
                    continue;
                }
                let k = self.cx.resolve_kind(&self.cx.kind_of(v));
                if !k.is_univ() {
                    free_kinds.insert(v, k);
                }
            }
        }
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
        let mut alias_edges: Vec<(Name, Name)> = self
            .alias_edges
            .iter()
            .map(|(a, s)| (a.clone(), s.clone()))
            .collect();
        alias_edges.sort_by(|a, b| a.0.cmp(&b.0));
        crate::snapshot::encode_parts(&crate::snapshot::EngineParts {
            machine_bytes: encode_machine(&self.machine),
            next_var: self.cx.vars_minted(),
            free_kinds: free_kinds.into_iter().collect(),
            globals,
            env_epoch: self.env_epoch,
            name_epochs,
            compile_tier: self.compile_tier,
            index_sigs,
            alias_edges,
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
        e.cx.ensure_vars_above(p.next_var);
        for (v, k) in p.free_kinds {
            e.cx.set_kind(v, k);
        }
        for (n, s) in p.globals {
            e.tenv.define_global(n, s);
        }
        e.env_epoch = p.env_epoch;
        e.name_epochs = p.name_epochs.into_iter().collect();
        e.compile_tier = p.compile_tier;
        e.index_sigs = p
            .index_sigs
            .into_iter()
            .map(|(n, s)| (n, Rc::new(s)))
            .collect();
        e.alias_edges = p.alias_edges.into_iter().collect();
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
        span.attr("tokens", ps.tokens);
        span.attr("nodes", ps.nodes);
        let dur = span.finish(&self.tracer);
        self.phases.parse_ns.observe(dur);
        self.phases.tokens_lexed.add(ps.tokens);
        self.phases.nodes_parsed.add(ps.nodes);
        dur
    }

    /// Run an inference computation as the timed "infer" phase.
    fn infer_phase<T>(
        &mut self,
        f: impl FnOnce(&mut Infer, &mut TypeEnv) -> Result<T, polyview_types::TypeError>,
    ) -> Result<T, Error> {
        self.phases.inferences.inc();
        let before = self.cx.stats();
        let mut span = self.tracer.span("engine.infer");
        let r = f(&mut self.cx, &mut self.tenv);
        let after = self.cx.stats();
        span.attr("unify_steps", after.unify_steps - before.unify_steps);
        span.attr("occurs_checks", after.occurs_checks - before.occurs_checks);
        span.attr("kind_merges", after.kind_merges - before.kind_merges);
        span.attr(
            "instantiations",
            after.instantiations - before.instantiations,
        );
        let dur = span.finish(&self.tracer);
        self.phases.infer_ns.observe(dur);
        Ok(r?)
    }

    /// Evaluate an expression as the timed "eval" phase.
    fn eval_phase(&mut self, e: &Expr) -> Result<Value, Error> {
        let before = self.machine.stats();
        let mut span = self.tracer.span("engine.eval");
        let r = self.machine.eval_global(e);
        let after = self.machine.stats();
        span.attr("fuel", after.fuel_consumed - before.fuel_consumed);
        span.attr(
            "records",
            after.records_allocated - before.records_allocated,
        );
        span.attr("sets", after.sets_allocated - before.sets_allocated);
        span.attr(
            "offsets",
            after.field_offsets_resolved - before.field_offsets_resolved,
        );
        span.attr(
            "dyn_fallbacks",
            after.dyn_field_fallbacks - before.dyn_field_fallbacks,
        );
        let dur = span.finish(&self.tracer);
        self.phases.eval_ns.observe(dur);
        Ok(r?)
    }

    /// Execute a program: a sequence of declarations.
    pub fn exec(&mut self, src: &str) -> Result<Vec<Outcome>, Error> {
        self.phases.parses.inc();
        let span = self.tracer.span("engine.parse");
        let (decls, ps) = parse_program_counted(src)?;
        self.note_parse(span, ps);
        let mut out = Vec::with_capacity(decls.len());
        for d in &decls {
            out.push(self.exec_decl(d)?);
        }
        Ok(out)
    }

    // ----- compile once / run many -----

    /// Compile a statement: parse it and infer its principal scheme. The
    /// returned [`Prepared`] can be executed any number of times with
    /// [`Engine::run`] without touching the parser or inference again.
    pub fn prepare(&mut self, src: &str) -> Result<Prepared, Error> {
        let ast = self.parse_counted(src)?;
        self.prepare_parsed(Some(src.to_string()), ast)
    }

    /// Compile a pre-built AST (no parsing at all): infer its principal
    /// scheme and package it for repeated execution. This is the path the
    /// [`crate::Database`] facade uses — operands are spliced as AST nodes,
    /// never as source text.
    pub fn prepare_expr(&mut self, ast: Expr) -> Result<Prepared, Error> {
        self.prepare_parsed(None, ast)
    }

    fn prepare_parsed(&mut self, src: Option<String>, ast: Expr) -> Result<Prepared, Error> {
        // Pin the AST behind `Rc` *before* inference: the type table keys
        // per-node results by node address, and the lowering pass must see
        // exactly the nodes inference recorded.
        let ast = Rc::new(ast);
        if self.compile_tier {
            self.cx.enable_table();
        }
        let scheme = self.infer_phase(|cx, tenv| cx.infer_scheme(tenv, &ast))?;
        let deps = self.snapshot_deps(&ast);
        let mut p = Prepared::new(src, ast.clone(), scheme, deps, self.env_epoch);
        if self.compile_tier {
            if let Some((code, stats, _)) =
                self.lower_phase(|table, sigs| lower_statement(&ast, table, sigs))
            {
                p.set_code(Rc::new(code), stats);
            }
        }
        Ok(p)
    }

    /// The dependency snapshot for an AST about to be prepared: every free
    /// top-level name paired with its current declaration epoch (absent
    /// names — builtins, the prelude — are epoch 0). The free-variable walk
    /// is binder-exact and total, so every engine-compiled statement gets
    /// [`Deps::Names`]; [`Deps::Global`] exists only as the defensive
    /// fallback for `Prepared` values built without an AST-derived set.
    fn snapshot_deps(&self, ast: &Expr) -> Deps {
        Deps::Names(
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
    /// Aliases are invalidated transitively: if `g` was declared as
    /// `val g = f;`, its value snapshot of `f` is now stale, so `g`'s
    /// epoch moves with `f`'s — and so on through chains of aliases. Only
    /// the *directly* rebound names lose their alias/index-signature
    /// registry entries: a cascaded alias keeps its (old) value, which its
    /// recorded signature still describes.
    fn bump_epochs(&mut self, names: &[Name]) {
        self.env_epoch += 1;
        let mut bumped: HashSet<Name> = HashSet::new();
        for n in names {
            *self.name_epochs.entry(n.clone()).or_insert(0) += 1;
            self.index_sigs.remove(n);
            self.alias_edges.remove(n);
            bumped.insert(n.clone());
        }
        // Transitive closure over reverse alias edges: a worklist over a
        // src → aliases index, each alias bumped at most once (the
        // `bumped` guard also terminates (impossible) cyclic edge sets).
        let mut rev: HashMap<&Name, Vec<&Name>> = HashMap::new();
        for (alias, src) in &self.alias_edges {
            rev.entry(src).or_default().push(alias);
        }
        let mut work: Vec<Name> = names.to_vec();
        while let Some(n) = work.pop() {
            for alias in rev.get(&n).into_iter().flatten() {
                if bumped.insert((*alias).clone()) {
                    *self.name_epochs.entry((*alias).clone()).or_insert(0) += 1;
                    work.push((*alias).clone());
                }
            }
        }
    }

    /// Run the compile tier on one statement: consume the inference
    /// table recorded for it and lower, timed as the "lower" phase.
    /// Returns `None` when no table was recorded (tier off, or inference
    /// bypassed recording).
    fn lower_phase<T>(
        &mut self,
        f: impl FnOnce(&TypeTable, &HashMap<Name, Rc<IndexSig>>) -> (T, LowerStats),
    ) -> Option<(T, LowerStats, u64)> {
        let table = self.cx.take_table()?;
        let mut span = self.tracer.span("engine.lower");
        let (out, stats) = f(&table, &self.index_sigs);
        self.phases.lower_offsets.add(stats.offsets_resolved);
        self.phases.lower_residue.add(stats.dynamic_residue);
        span.attr("offsets", stats.offsets_resolved);
        span.attr("index_params", stats.index_params_used);
        span.attr("abstractions", stats.index_abstractions);
        span.attr("residue", stats.dynamic_residue);
        span.attr("records", stats.records_lowered);
        let dur = span.finish(&self.tracer);
        self.phases.lower_ns.observe(dur);
        Some((out, stats, dur))
    }

    /// Execute a prepared statement against the current store. No parsing,
    /// no inference: the cached AST is evaluated directly under the global
    /// environment. Fails with [`Error::StalePrepared`] if a name the
    /// statement depends on has been rebound since it was prepared
    /// (re-`prepare` it; the internal statement cache does this
    /// automatically). Declarations of unrelated names do not invalidate.
    pub fn run(&mut self, p: &Prepared) -> Result<Value, Error> {
        if !p.is_fresh(&self.name_epochs, self.env_epoch) {
            self.phases.epoch_invalidations.inc();
            return Err(Error::StalePrepared);
        }
        self.eval_phase(p.code())
    }

    /// [`Engine::run`], rendering the result.
    pub fn run_to_string(&mut self, p: &Prepared) -> Result<String, Error> {
        let v = self.run(p)?;
        Ok(self.machine.show(&v))
    }

    /// Execute a statement through the LRU statement cache: on a hit the
    /// cached compiled form runs directly; on a miss (or a stale entry)
    /// `build` compiles a fresh [`Prepared`], which is cached for next
    /// time.
    pub(crate) fn eval_cached(
        &mut self,
        key: StmtKey,
        build: impl FnOnce(&mut Self) -> Result<Prepared, Error>,
    ) -> Result<(Scheme, Value), Error> {
        match self.stmts.lookup(&key, &self.name_epochs, self.env_epoch) {
            CacheLookup::Hit(p) => {
                self.phases.stmt_cache_hits.inc();
                let scheme = p.scheme().clone();
                let v = self.eval_phase(p.code())?;
                return Ok((scheme, v));
            }
            CacheLookup::Stale => {
                self.phases.stmt_cache_dep_invalidations.inc();
                self.phases.stmt_cache_misses.inc();
            }
            CacheLookup::Miss => self.phases.stmt_cache_misses.inc(),
        }
        let p = build(self)?;
        let scheme = p.scheme().clone();
        let v = self.eval_phase(p.code())?;
        let evicted = self.stmts.insert(key, p);
        self.phases.stmt_cache_evictions.add(evicted as u64);
        Ok((scheme, v))
    }

    fn parse_counted(&mut self, src: &str) -> Result<Expr, Error> {
        self.phases.parses.inc();
        let span = self.tracer.span("engine.parse");
        let (ast, ps) = parse_expr_counted(src)?;
        self.note_parse(span, ps);
        Ok(ast)
    }

    /// Parse one complete expression to be spliced into a larger statement
    /// *as an AST node* (the [`crate::Database`] facade's operands).
    /// Trailing input is a parse error here — an operand can never smuggle
    /// in additional statements — and typing happens once, on the
    /// assembled statement.
    pub(crate) fn parse_operand(&mut self, src: &str) -> Result<Expr, Error> {
        self.parse_counted(src)
    }

    /// A snapshot of the pipeline counters: compilation work, statement
    /// cache traffic, inference and evaluation work.
    pub fn stats(&self) -> EngineStats {
        let i = self.cx.stats();
        let m = self.machine.stats();
        EngineStats {
            parses: self.phases.parses.get(),
            inferences: self.phases.inferences.get(),
            stmt_cache_hits: self.phases.stmt_cache_hits.get(),
            stmt_cache_misses: self.phases.stmt_cache_misses.get(),
            stmt_cache_evictions: self.phases.stmt_cache_evictions.get(),
            stmt_cache_dep_invalidations: self.phases.stmt_cache_dep_invalidations.get(),
            epoch_invalidations: self.phases.epoch_invalidations.get(),
            tokens_lexed: self.phases.tokens_lexed.get(),
            nodes_parsed: self.phases.nodes_parsed.get(),
            unify_steps: i.unify_steps,
            occurs_checks: i.occurs_checks,
            kind_merges: i.kind_merges,
            instantiations: i.instantiations,
            fuel_consumed: m.fuel_consumed,
            records_allocated: m.records_allocated,
            sets_allocated: m.sets_allocated,
            field_offsets_resolved: m.field_offsets_resolved,
            dyn_field_fallbacks: m.dyn_field_fallbacks,
        }
    }

    /// Zero every counter and histogram — the registry's metrics, the
    /// inference work counters, and the machine work counters. Histogram
    /// and counter handles stay live; environments and caches are
    /// untouched.
    pub fn reset_stats(&mut self) {
        self.metrics.reset();
        self.cx.reset_stats();
        self.machine.reset_stats();
    }

    // ----- observability -----

    /// The engine's metrics registry (counters and phase-latency
    /// histograms, always on).
    pub fn metrics_registry(&self) -> &Registry {
        &self.metrics
    }

    /// Export every metric as JSON lines — exactly one JSON object per
    /// line. Counters owned by the inference context and the machine are
    /// synced into the registry first, so the export is a complete,
    /// self-consistent snapshot.
    pub fn metrics_json(&self) -> String {
        let i = self.cx.stats();
        let m = self.machine.stats();
        self.phases.unify_steps.set(i.unify_steps);
        self.phases.occurs_checks.set(i.occurs_checks);
        self.phases.kind_merges.set(i.kind_merges);
        self.phases.instantiations.set(i.instantiations);
        self.phases.fuel_consumed.set(m.fuel_consumed);
        self.phases.records_allocated.set(m.records_allocated);
        self.phases.sets_allocated.set(m.sets_allocated);
        self.phases
            .field_offsets_resolved
            .set(m.field_offsets_resolved);
        self.phases.dyn_field_fallbacks.set(m.dyn_field_fallbacks);
        self.metrics.to_json_lines()
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
    /// stores the fresh compilation so subsequent calls do.
    pub fn explain(&mut self, src: &str) -> Result<Explain, Error> {
        let key = StmtKey::Src(src.to_string());
        let cached_before = self
            .stmts
            .contains_valid(&key, &self.name_epochs, self.env_epoch);
        if cached_before {
            self.phases.stmt_cache_hits.inc();
        } else {
            self.phases.stmt_cache_misses.inc();
        }

        self.phases.parses.inc();
        let span = self.tracer.span("engine.parse");
        let (ast, ps) = parse_expr_counted(src)?;
        let parse_ns = self.note_parse(span, ps);

        let i_before = self.cx.stats();
        self.phases.inferences.inc();
        if self.compile_tier {
            self.cx.enable_table();
        }
        let mut span = self.tracer.span("engine.infer");
        let scheme_res = self.cx.infer_scheme(&mut self.tenv, &ast);
        let i = {
            let after = self.cx.stats();
            polyview_types::InferStats {
                unify_steps: after.unify_steps - i_before.unify_steps,
                occurs_checks: after.occurs_checks - i_before.occurs_checks,
                kind_merges: after.kind_merges - i_before.kind_merges,
                instantiations: after.instantiations - i_before.instantiations,
            }
        };
        span.attr("unify_steps", i.unify_steps);
        span.attr("occurs_checks", i.occurs_checks);
        span.attr("kind_merges", i.kind_merges);
        span.attr("instantiations", i.instantiations);
        let infer_ns = span.finish(&self.tracer);
        self.phases.infer_ns.observe(infer_ns);
        let scheme = scheme_res?;

        // Compile tier: lower to offset-resolved form (timed), keeping the
        // per-op report for the render below.
        let mut lower_ns = 0;
        let mut lower = LowerStats::default();
        let mut offset_rows = Vec::new();
        let code = if self.compile_tier {
            match self.lower_phase(|table, sigs| lower_statement(&ast, table, sigs)) {
                Some((c, st, dur)) => {
                    lower = st;
                    offset_rows = polyview_trans::offset_report(&c);
                    lower_ns = dur;
                    Some(Rc::new(c))
                }
                None => None,
            }
        } else {
            None
        };

        let mut span = self.tracer.span("engine.translate");
        let (_core, ts) = polyview_trans::translate_measured(&ast);
        span.attr("core_nodes", ts.translated_size);
        let translate_ns = span.finish(&self.tracer);
        self.phases.translate_ns.observe(translate_ns);
        self.phases.translated_size.observe(ts.translated_size);

        let m_before = self.machine.stats();
        let mut span = self.tracer.span("engine.eval");
        let v_res = self.machine.eval_global(code.as_deref().unwrap_or(&ast));
        let m = {
            let after = self.machine.stats();
            polyview_eval::MachineStats {
                fuel_consumed: after.fuel_consumed - m_before.fuel_consumed,
                records_allocated: after.records_allocated - m_before.records_allocated,
                sets_allocated: after.sets_allocated - m_before.sets_allocated,
                field_offsets_resolved: after.field_offsets_resolved
                    - m_before.field_offsets_resolved,
                dyn_field_fallbacks: after.dyn_field_fallbacks - m_before.dyn_field_fallbacks,
            }
        };
        span.attr("fuel", m.fuel_consumed);
        span.attr("records", m.records_allocated);
        span.attr("sets", m.sets_allocated);
        span.attr("offsets", m.field_offsets_resolved);
        span.attr("dyn_fallbacks", m.dyn_field_fallbacks);
        let eval_ns = span.finish(&self.tracer);
        self.phases.eval_ns.observe(eval_ns);
        let v = v_res?;
        let rendered = self.machine.show(&v);

        let deps = self.snapshot_deps(&ast);
        let dep_rows = match &deps {
            Deps::Names(ds) => ds
                .iter()
                .map(|(n, at)| (n.as_str().to_string(), *at))
                .collect(),
            Deps::Global(_) => Vec::new(),
        };
        let mut p = Prepared::new(
            Some(src.to_string()),
            Rc::new(ast),
            scheme.clone(),
            deps,
            self.env_epoch,
        );
        if let Some(code) = code {
            p.set_code(code, lower);
        }
        let evicted = self.stmts.insert(key, p);
        self.phases.stmt_cache_evictions.add(evicted as u64);

        Ok(Explain {
            src: src.to_string(),
            scheme,
            rendered,
            cached_before,
            deps: dep_rows,
            parse_ns,
            infer_ns,
            lower_ns,
            translate_ns,
            eval_ns,
            tokens: ps.tokens,
            nodes: ps.nodes,
            unify_steps: i.unify_steps,
            occurs_checks: i.occurs_checks,
            kind_merges: i.kind_merges,
            instantiations: i.instantiations,
            offsets_resolved: lower.offsets_resolved,
            index_params_used: lower.index_params_used,
            index_abstractions: lower.index_abstractions,
            dynamic_residue: lower.dynamic_residue,
            records_lowered: lower.records_lowered,
            offset_rows,
            translated_size: ts.translated_size,
            fuel_consumed: m.fuel_consumed,
            records_allocated: m.records_allocated,
            sets_allocated: m.sets_allocated,
            field_offsets_resolved: m.field_offsets_resolved,
            dyn_field_fallbacks: m.dyn_field_fallbacks,
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
        let ast = self.parse_counted(src)?;
        let p = self.prepare_parsed(Some(src.to_string()), ast)?;
        self.machine.profile_start();
        let r = self.eval_phase(p.code());
        let profile = self.machine.profile_stop().unwrap_or_default();
        let v = r?;
        let rendered = self.machine.show(&v);
        let class_names = self.class_names();
        Ok(ProfileReport {
            src: src.to_string(),
            scheme: p.scheme().clone(),
            rendered,
            eval_ns: profile.total_ns(),
            profile,
            class_names,
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

    /// Resize the statement cache (0 disables caching — every call
    /// recompiles, the "cold" path the prepared bench compares against).
    /// Shrinking below the current length evicts oldest-first,
    /// deterministically; the evictions show up in
    /// [`EngineStats::stmt_cache_evictions`].
    pub fn set_stmt_cache_capacity(&mut self, capacity: usize) {
        let evicted = self.stmts.set_capacity(capacity);
        self.phases.stmt_cache_evictions.add(evicted as u64);
    }

    /// Drop every cached statement (they recompile on next use).
    pub fn clear_stmt_cache(&mut self) {
        self.stmts.clear();
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
        self.eval_cached(StmtKey::Src(src.to_string()), |eng| eng.prepare(src))
    }

    /// Evaluate an expression and render the result.
    pub fn eval_to_string(&mut self, src: &str) -> Result<String, Error> {
        let (_, v) = self.eval_expr(src)?;
        Ok(self.machine.show(&v))
    }

    /// Infer the principal scheme of an expression without evaluating it.
    pub fn infer_expr(&mut self, src: &str) -> Result<Scheme, Error> {
        let e = self.parse_counted(src)?;
        self.infer_phase(|cx, tenv| cx.infer_scheme(tenv, &e))
    }

    /// Type-check and evaluate a pre-built AST (uncached; see
    /// [`Engine::prepare_expr`] for the compile-once path).
    pub fn eval_ast(&mut self, e: &Expr) -> Result<(Scheme, Value), Error> {
        if self.compile_tier {
            self.cx.enable_table();
        }
        let scheme = self.infer_phase(|cx, tenv| cx.infer_scheme(tenv, e))?;
        let code = if self.compile_tier {
            self.lower_phase(|table, sigs| lower_statement(e, table, sigs))
                .map(|(c, _, _)| c)
        } else {
            None
        };
        let v = self.eval_phase(code.as_ref().unwrap_or(e))?;
        Ok((scheme, v))
    }

    /// Execute one declaration.
    pub fn exec_decl(&mut self, d: &Decl) -> Result<Outcome, Error> {
        match d {
            Decl::Val(name, e) => {
                if self.compile_tier {
                    self.cx.enable_table();
                }
                let scheme = self.infer_phase(|cx, tenv| cx.infer_scheme(tenv, e))?;
                self.cx.check_ground_mutables(&scheme.body)?;
                let mut sig = None;
                let lowered = if self.compile_tier {
                    self.lower_phase(|table, sigs| {
                        let (c, s, st) = lower_binding(e, &scheme.binders, table, sigs);
                        ((c, s), st)
                    })
                } else {
                    None
                };
                let v = match &lowered {
                    Some(((code, s), _, _)) => {
                        sig = s.clone();
                        self.eval_phase(code)?
                    }
                    None => self.eval_phase(e)?,
                };
                self.bump_epochs(std::slice::from_ref(name));
                if let Some(s) = sig {
                    self.index_sigs.insert(name.clone(), s);
                }
                if let Expr::Var(src) = e {
                    self.alias_edges.insert(name.clone(), src.clone());
                }
                self.tenv.define_global(name.clone(), scheme.clone());
                self.machine.define_global(name.clone(), v);
                Ok(Outcome::Defined(vec![(name.clone(), scheme)]))
            }
            Decl::Fun(defs) => self.exec_fun(defs),
            Decl::Classes(binds) => self.exec_classes(binds),
            Decl::Expr(e) => {
                if self.compile_tier {
                    self.cx.enable_table();
                }
                let scheme = self.infer_phase(|cx, tenv| cx.infer_scheme(tenv, e))?;
                let code = if self.compile_tier {
                    self.lower_phase(|table, sigs| lower_statement(e, table, sigs))
                        .map(|(c, _, _)| c)
                } else {
                    None
                };
                let v = self.eval_phase(code.as_ref().unwrap_or(e))?;
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
        let singles: Vec<(Label, Label, Expr)> = defs
            .iter()
            .map(|(f, params, e)| {
                let mut params = params.clone();
                let first = params.remove(0);
                let curried = params
                    .into_iter()
                    .rev()
                    .fold(e.clone(), |acc, p| Expr::lam(p, acc));
                (f.clone(), first, curried)
            })
            .collect();
        let names: Vec<Name> = defs.iter().map(|(f, _, _)| f.clone()).collect();
        let body = if names.len() == 1 {
            Expr::Var(names[0].clone())
        } else {
            Expr::tuple(names.iter().map(|n| Expr::Var(n.clone())))
        };
        let group = sugar::fun_and(singles, body);
        if self.compile_tier {
            self.cx.enable_table();
        }
        let t = self.infer_phase(|cx, tenv| infer::infer(cx, tenv, &group))?;
        let t = self.cx.resolve(&t);

        if self.compile_tier && names.len() == 1 {
            // A single definition elaborates to `let f = fix f => λ… in f
            // end`; index-abstract the `fix` itself (the same node
            // inference recorded) so a record-polymorphic function takes
            // its offsets as parameters. The binders come from the table's
            // recorded *let scheme* — they name the rhs's own type
            // variables, which is what the rhs's operand records refer to.
            // The global scheme, however, is re-generalized from the
            // group's body occurrence (a fresh instantiation), so the sig
            // we register must be renamed through that occurrence's
            // instantiation record before use sites can consult it.
            // Mutually recursive groups stay on the plain-lowered path
            // below — their bundle encoding is not a λ, so they keep
            // dynamic lookups as documented residue.
            if let Expr::Let(_, rhs, body) = &group {
                let lowered = self.lower_phase(|table, sigs| {
                    let binders = table
                        .let_schemes
                        .get(&polyview_types::table::node_id(&group))
                        .cloned()
                        .unwrap_or_default();
                    let (c, s, st) = lower_binding(rhs, &binders, table, sigs);
                    let renamed = match s {
                        None => Some((c, None)),
                        Some(s) => table
                            .instantiations
                            .get(&polyview_types::table::node_id(body))
                            .and_then(|inst| {
                                s.iter()
                                    .map(|(b, l)| {
                                        inst.iter().find(|(bb, _)| bb == b).and_then(|(_, m)| {
                                            match m {
                                                Mono::Var(g) => Some((*g, l.clone())),
                                                _ => None,
                                            }
                                        })
                                    })
                                    .collect::<Option<IndexSig>>()
                            })
                            .map(|r| (c, Some(Rc::new(r)))),
                    };
                    (renamed, st)
                });
                if let Some((Some((code, sig)), _, _)) = lowered {
                    let v = self.eval_phase(&code)?;
                    let bound = self.define_group(&names, vec![t], v, true)?;
                    if let Some(s) = sig {
                        self.index_sigs.insert(names[0].clone(), s);
                    }
                    return Ok(Outcome::Defined(bound));
                }
                // Renaming failed (or the table was off): fall through to
                // the plain path, which keeps the un-abstracted encoding.
            }
        }

        let code = if self.compile_tier {
            self.lower_phase(|table, sigs| lower_statement(&group, table, sigs))
                .map(|(c, _, _)| c)
        } else {
            None
        };
        let v = self.eval_phase(code.as_ref().unwrap_or(&group))?;

        let tys = if names.len() == 1 {
            vec![t]
        } else {
            group_component_types(&t, names.len(), "fun group")?
        };
        let bound = self.define_group(&names, tys, v, true)?;
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
        if self.compile_tier {
            self.cx.enable_table();
        }
        let t = self.infer_phase(|cx, tenv| infer::infer(cx, tenv, &wrapped))?;
        let t = self.cx.resolve(&t);
        let code = if self.compile_tier {
            self.lower_phase(|table, sigs| lower_statement(&wrapped, table, sigs))
                .map(|(c, _, _)| c)
        } else {
            None
        };
        let v = self.eval_phase(code.as_ref().unwrap_or(&wrapped))?;

        let tys = if names.len() == 1 {
            vec![t]
        } else {
            group_component_types(&t, names.len(), "class group")?
        };
        let bound = self.define_group(&names, tys, v, false)?;
        Ok(Outcome::Defined(bound))
    }

    /// The principal scheme of a bound name, if any, resolved through the
    /// current substitution (a top-level class may start with an
    /// unconstrained element type that later declarations pin down).
    pub fn scheme_of(&self, name: &str) -> Option<Scheme> {
        self.tenv.lookup(&Label::new(name)).map(|s| Scheme {
            binders: s.binders.clone(),
            body: self.cx.resolve(&s.body),
        })
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
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Direct access to the inference context (for tooling/tests).
    pub fn infer_ctx(&mut self) -> &mut Infer {
        &mut self.cx
    }

    /// Check whether an expression is generalizable (value restriction).
    pub fn is_value_form(e: &Expr) -> bool {
        generalize::is_nonexpansive(e)
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
        let e = self.parse_counted(src)?;
        self.infer_phase(|cx, tenv| cx.infer_scheme(tenv, &e))?;
        let mut span = self.tracer.span("engine.translate");
        let (core, ts) = polyview_trans::translate_measured(&e);
        span.attr("core_nodes", ts.translated_size);
        let dur = span.finish(&self.tracer);
        self.phases.translate_ns.observe(dur);
        self.phases.translated_size.observe(ts.translated_size);
        Ok(core)
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
