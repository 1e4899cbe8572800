//! Compile once, run many: prepared statements and the engine's statement
//! cache.
//!
//! The paper's workflow (Section 4, Figs. 4–6) is a database session:
//! classes are defined once, then many `cquery`/`insert`/`delete`
//! operations are served against them. Compilation — parsing and principal
//! type inference — depends only on the statement text and the top-level
//! environments, so it can be done once per statement; execution depends on
//! the mutable store and must run per request. A [`Prepared`] value is the
//! boundary between the two phases: it owns the resolved AST (shared via
//! `Rc`, so repeated runs never copy it), the principal scheme inferred at
//! compile time, and — on demand — the Fig. 3/5 translation of the
//! statement into the pure core language.
//!
//! Validity: inference reads the engine's top-level type environment, so a
//! `Prepared` is tied to the bindings it was inferred against. Staleness is
//! tracked *per name* ([`Deps`]): at compile time the engine snapshots the
//! declaration epoch of every free top-level name of the statement, and the
//! statement is stale iff one of those names has been rebound since —
//! rebinding an *unrelated* `val` leaves every cached plan valid.
//! Expression-level effects (`insert`/`delete`/`update`) bump no epoch at
//! all — a prepared query stays valid across them and observes the current
//! extents — but rebinding a name a statement depends on does, and running
//! a stale statement reports [`crate::Error::StalePrepared`] rather than
//! risking an unsound execution against retyped bindings.
//!
//! Soundness of the per-name scheme: inference consults the top-level
//! environment only at the statement's free variables, and a name's scheme
//! (and value) can change only when a `val`/`fun`/`class` declaration
//! rebinds *that name*. Names never rebound — including every builtin and
//! prelude name — sit at epoch 0 forever, so a statement over a stable
//! schema never recompiles.

use polyview_eval::MachineStats;
use polyview_parser::ParseStats;
use polyview_syntax::{Expr, Name, Scheme};
use polyview_trans::LowerStats;
use polyview_types::InferStats;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::rc::Rc;

/// What a [`Prepared`] statement's validity is checked against (DESIGN.md
/// §12): the statement's free top-level names, each paired with that
/// name's declaration epoch snapshotted at compile time. The statement is
/// stale iff some dependency's epoch has moved; rebinding a name the
/// statement never mentions leaves it valid. A name absent from the
/// engine's epoch map has implicit epoch 0 (never rebound) — this is how
/// builtins and the prelude stay free.
#[derive(Clone, Debug)]
pub struct Deps(Vec<(Name, u64)>);

impl Deps {
    pub(crate) fn new(names: Vec<(Name, u64)>) -> Self {
        Deps(names)
    }

    /// Each free top-level name with its compile-time epoch.
    pub fn names(&self) -> &[(Name, u64)] {
        &self.0
    }

    /// Is a statement with these dependencies still valid under the given
    /// per-name epochs (`name_epochs`, missing key = 0)?
    pub fn is_fresh(&self, name_epochs: &HashMap<Name, u64>) -> bool {
        self.0
            .iter()
            .all(|(n, at)| name_epochs.get(n).copied().unwrap_or(0) == *at)
    }
}

/// A statement compiled once (parsed + principal type inferred) by
/// [`crate::Engine::prepare`], executable many times with
/// [`crate::Engine::run`] without touching the parser or inference.
#[derive(Clone, Debug)]
pub struct Prepared {
    src: Option<String>,
    ast: Rc<Expr>,
    /// The executable form [`crate::Engine::run`] evaluates: the
    /// offset-resolved lowering of `ast` (DESIGN.md §13).
    code: Rc<Expr>,
    /// Compile-tier work counters for this statement.
    lower: LowerStats,
    scheme: Scheme,
    deps: Deps,
    translation: OnceCell<Rc<Expr>>,
}

impl Prepared {
    pub(crate) fn new(
        src: Option<String>,
        ast: Rc<Expr>,
        code: Rc<Expr>,
        lower: LowerStats,
        scheme: Scheme,
        deps: Deps,
    ) -> Self {
        Prepared {
            src,
            ast,
            code,
            lower,
            scheme,
            deps,
            translation: OnceCell::new(),
        }
    }

    /// The source text this statement was prepared from, when it came from
    /// source rather than a pre-built AST.
    pub fn src(&self) -> Option<&str> {
        self.src.as_deref()
    }

    /// The compiled (resolved) AST, exactly as inferred — *not* the
    /// lowered form (see [`Prepared::code`]).
    pub fn ast(&self) -> &Expr {
        &self.ast
    }

    /// The executable form: the compile tier's offset-resolved lowering.
    pub fn code(&self) -> &Expr {
        &self.code
    }

    /// Compile-tier work counters for this statement.
    pub fn lower_stats(&self) -> LowerStats {
        self.lower
    }

    /// The principal scheme inferred when the statement was prepared.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The dependency snapshot staleness is checked against: the
    /// statement's free top-level names with their compile-time epochs.
    pub fn deps(&self) -> &Deps {
        &self.deps
    }

    /// Is this statement still valid under the given per-name epochs? See
    /// [`Deps::is_fresh`].
    pub fn is_fresh(&self, name_epochs: &HashMap<Name, u64>) -> bool {
        self.deps.is_fresh(name_epochs)
    }

    /// The paper's Figs. 3/5 translation of the statement into the pure
    /// core language, computed on first request and cached.
    pub fn translation(&self) -> &Expr {
        self.translation
            .get_or_init(|| Rc::new(polyview_trans::translate(&self.ast)))
    }
}

/// Key of a cached statement. `Src` is raw source text; the `Query` /
/// `Insert` / `Delete` variants are structured keys for the
/// [`crate::Database`] facade — keeping the operands separate means no
/// string splicing anywhere, so no two distinct (class, operand) pairs can
/// ever collide on one key (and no operand can reparse as extra syntax).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub enum StmtKey {
    Src(String),
    Query { class: String, set_fn: String },
    Insert { class: String, obj: String },
    Delete { class: String, obj: String },
}

/// Outcome of a statement-cache lookup. Distinguishing [`Stale`] from
/// [`Miss`] lets the engine count dependency invalidations separately from
/// cold misses.
///
/// [`Stale`]: CacheLookup::Stale
/// [`Miss`]: CacheLookup::Miss
#[derive(Clone, Debug)]
pub(crate) enum CacheLookup {
    /// Valid entry — every dependency at its compile-time epoch (the clone
    /// shares the AST).
    Hit(Prepared),
    /// Entry existed but a name it depends on has been rebound since it was
    /// compiled; it has been dropped and the caller must re-prepare.
    Stale,
    /// No entry.
    Miss,
}

/// An LRU statement cache: source key → [`Prepared`], with recency tracked
/// by a monotone tick and eviction of the least-recently-used entry at
/// capacity. Stale entries (a dependency was rebound since compilation) are
/// dropped on lookup so the caller transparently re-prepares.
pub(crate) struct StmtCache {
    capacity: usize,
    tick: u64,
    map: HashMap<StmtKey, (u64, Prepared)>,
}

/// Default number of distinct statements kept compiled per engine.
pub const DEFAULT_STMT_CACHE_CAPACITY: usize = 256;

impl StmtCache {
    pub fn new(capacity: usize) -> Self {
        StmtCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up a statement, bumping its recency. An entry whose dependency
    /// snapshot no longer matches the current per-name epochs is stale: it
    /// is dropped and the caller re-prepares.
    pub fn lookup(&mut self, key: &StmtKey, name_epochs: &HashMap<Name, u64>) -> CacheLookup {
        match self.map.get_mut(key) {
            Some((tick, p)) if p.is_fresh(name_epochs) => {
                self.tick += 1;
                *tick = self.tick;
                CacheLookup::Hit(p.clone())
            }
            Some(_) => {
                self.map.remove(key);
                CacheLookup::Stale
            }
            None => CacheLookup::Miss,
        }
    }

    /// Is there a valid entry for `key` under the current epochs? Pure
    /// peek: does not bump recency and does not drop stale entries
    /// (`explain` uses it to report cache state without perturbing it).
    pub fn contains_valid(&self, key: &StmtKey, name_epochs: &HashMap<Name, u64>) -> bool {
        self.map
            .get(key)
            .is_some_and(|(_, p)| p.is_fresh(name_epochs))
    }

    /// Insert (or refresh) an entry, evicting oldest-first to stay within
    /// capacity. Returns the number of entries evicted. At capacity 0
    /// nothing is stored (and nothing needs evicting).
    pub fn insert(&mut self, key: StmtKey, p: Prepared) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let evicted = if self.map.contains_key(&key) {
            0
        } else {
            self.evict_down_to(self.capacity - 1)
        };
        self.tick += 1;
        self.map.insert(key, (self.tick, p));
        evicted
    }

    /// Drop every entry whose scheme has a free variable, returning how
    /// many went (DESIGN.md §12).
    pub fn evict_open(&mut self) -> usize {
        let before = self.map.len();
        self.map
            .retain(|_, (_, p)| p.scheme().free_vars().is_empty());
        before - self.map.len()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Change the capacity, evicting least-recently-used entries as needed
    /// (capacity 0 empties the cache entirely). Returns the number of
    /// entries evicted.
    pub fn set_capacity(&mut self, capacity: usize) -> usize {
        self.capacity = capacity;
        self.evict_down_to(capacity)
    }

    /// Evict least-recently-used entries until at most `target` remain.
    /// Deterministic: ticks are unique and monotone, so "oldest first" is a
    /// total order regardless of hash-map iteration order.
    fn evict_down_to(&mut self, target: usize) -> usize {
        let mut evicted = 0;
        while self.map.len() > target {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    self.map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

/// A snapshot of the engine's pipeline counters, read by
/// [`crate::Engine::stats`] from the live metrics registry. `parse`,
/// `infer` and `eval` hold the layers' work: the totals of the
/// per-statement [`ParseStats`] / [`InferStats`] / [`MachineStats`] the
/// engine adds there as each phase finishes.
///
/// `parses` and `inferences` count compilation work; a warmed statement
/// cache serves repeated statements with both counters flat — the property
/// the prepared-statement tests pin down. All counters are monotone until
/// [`crate::Engine::reset_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Calls into the parser (`parse_expr`/`parse_program`).
    pub parses: u64,
    /// Principal-type inference runs.
    pub inferences: u64,
    /// Statement-cache hits (execution without any compilation).
    pub stmt_cache_hits: u64,
    /// Statement-cache misses (statement compiled, then cached).
    pub stmt_cache_misses: u64,
    /// Entries evicted from the statement cache (LRU pressure or an
    /// explicit capacity shrink).
    pub stmt_cache_evictions: u64,
    /// Cache entries dropped because a name they depend on was rebound
    /// since compilation (per-name invalidation, DESIGN.md §12). Distinct
    /// from cold misses — a dep invalidation also counts as a miss, but a
    /// miss alone means the statement was never cached.
    pub stmt_cache_dep_invalidations: u64,
    /// Explicit [`crate::Engine::run`]s of a stale [`Prepared`] handle
    /// ([`crate::Error::StalePrepared`]): a dependency moved underneath it.
    pub epoch_invalidations: u64,
    /// Tokens lexed and AST nodes parsed.
    pub parse: ParseStats,
    /// Inference work (Fig. 1's unification, kind merges, instantiations).
    pub infer: InferStats,
    /// Evaluation work. `eval.dyn_field_fallbacks` is zero on a fully
    /// lowered workload — the property `scripts/verify.sh` gates.
    pub eval: MachineStats,
}

impl EngineStats {
    /// Component-wise sum — how a replicated pool (`crates/pool`)
    /// aggregates the counters of N engines into one fleet-level snapshot.
    pub fn merged(self, other: EngineStats) -> EngineStats {
        EngineStats {
            parses: self.parses + other.parses,
            inferences: self.inferences + other.inferences,
            stmt_cache_hits: self.stmt_cache_hits + other.stmt_cache_hits,
            stmt_cache_misses: self.stmt_cache_misses + other.stmt_cache_misses,
            stmt_cache_evictions: self.stmt_cache_evictions + other.stmt_cache_evictions,
            stmt_cache_dep_invalidations: self.stmt_cache_dep_invalidations
                + other.stmt_cache_dep_invalidations,
            epoch_invalidations: self.epoch_invalidations + other.epoch_invalidations,
            parse: self.parse.merged(&other.parse),
            infer: self.infer.merged(&other.infer),
            eval: self.eval.merged(&other.eval),
        }
    }

    /// Engine-level health signals, in the serving layer's vocabulary
    /// (`crates/pool`'s `Health::Degraded { reasons }`): an empty list is
    /// "healthy". The engine has no queues or replicas, so its health is
    /// about the *compile tier holding up*:
    ///
    /// * runtime field fallbacks — the offset-resolved tier is being
    ///   bypassed at runtime (counted per operation, so this also catches
    ///   workloads the lowerer resolved but the machine re-dispatched);
    /// * statement-cache thrash — evictions outpacing hits means the
    ///   working set no longer fits and every statement recompiles.
    ///
    /// Surfaced by the REPL's `:health` command and available to any
    /// embedder serving a single engine.
    pub fn health_reasons(&self) -> Vec<String> {
        let mut reasons = Vec::new();
        if self.eval.dyn_field_fallbacks > 0 {
            reasons.push(format!(
                "{} dynamic field fallbacks (offset tier bypassed at runtime)",
                self.eval.dyn_field_fallbacks
            ));
        }
        if self.stmt_cache_evictions > 0 && self.stmt_cache_evictions >= self.stmt_cache_hits {
            reasons.push(format!(
                "statement cache thrashing (evictions {} >= hits {})",
                self.stmt_cache_evictions, self.stmt_cache_hits
            ));
        }
        reasons
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pipeline   parses={} inferences={} tokens={} nodes={}",
            self.parses, self.inferences, self.parse.tokens, self.parse.nodes
        )?;
        writeln!(
            f,
            "stmt-cache hits={} misses={} evictions={} dep-invalidations={} epoch-invalidations={}",
            self.stmt_cache_hits,
            self.stmt_cache_misses,
            self.stmt_cache_evictions,
            self.stmt_cache_dep_invalidations,
            self.epoch_invalidations
        )?;
        let (i, m) = (&self.infer, &self.eval);
        writeln!(
            f,
            "inference  unify-steps={} occurs-checks={} kind-merges={} instantiations={}",
            i.unify_steps, i.occurs_checks, i.kind_merges, i.instantiations
        )?;
        write!(
            f,
            "evaluator  fuel={} records={} sets={} offsets={} dyn-fallbacks={}",
            m.fuel_consumed,
            m.records_allocated,
            m.sets_allocated,
            m.field_offsets_resolved,
            m.dyn_field_fallbacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_syntax::{Expr, Label};

    fn prepared_deps(deps: Vec<(&str, u64)>) -> Prepared {
        let ast = Rc::new(Expr::int(1));
        Prepared::new(
            None,
            ast.clone(),
            ast,
            LowerStats::default(),
            Scheme::mono(polyview_syntax::Mono::int()),
            Deps::new(deps.into_iter().map(|(n, e)| (Label::new(n), e)).collect()),
        )
    }

    /// A prepared statement over the one name `x`, compiled at epoch 0: a
    /// rebind of `x` makes it stale.
    fn prepared() -> Prepared {
        prepared_deps(vec![("x", 0)])
    }

    /// The epochs after `x` has been rebound once.
    fn x_rebound() -> HashMap<Name, u64> {
        epochs(&[("x", 1)])
    }

    fn epochs(entries: &[(&str, u64)]) -> HashMap<Name, u64> {
        entries.iter().map(|(n, e)| (Label::new(n), *e)).collect()
    }

    fn key(s: &str) -> StmtKey {
        StmtKey::Src(s.to_string())
    }

    fn hit(c: &mut StmtCache, s: &str) -> bool {
        matches!(c.lookup(&key(s), &HashMap::new()), CacheLookup::Hit(_))
    }

    #[test]
    fn health_reasons_flag_fallbacks_and_cache_thrash() {
        let healthy = EngineStats::default();
        assert!(healthy.health_reasons().is_empty());

        let fallbacks = EngineStats {
            eval: MachineStats {
                dyn_field_fallbacks: 3,
                ..MachineStats::default()
            },
            ..EngineStats::default()
        };
        let reasons = fallbacks.health_reasons();
        assert_eq!(reasons.len(), 1);
        assert!(reasons[0].contains("3 dynamic field fallbacks"));

        // Evictions at parity with hits: the cache is churning.
        let thrash = EngineStats {
            stmt_cache_evictions: 5,
            stmt_cache_hits: 5,
            ..EngineStats::default()
        };
        assert!(thrash.health_reasons()[0].contains("thrashing"));

        // Plenty of hits per eviction is normal steady-state, not thrash.
        let warm = EngineStats {
            stmt_cache_evictions: 5,
            stmt_cache_hits: 500,
            ..EngineStats::default()
        };
        assert!(warm.health_reasons().is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = StmtCache::new(2);
        assert_eq!(c.insert(key("a"), prepared()), 0);
        assert_eq!(c.insert(key("b"), prepared()), 0);
        assert!(hit(&mut c, "a")); // refresh a
        assert_eq!(c.insert(key("c"), prepared()), 1); // evicts b
        assert_eq!(c.len(), 2);
        assert!(hit(&mut c, "a"));
        assert!(matches!(
            c.lookup(&key("b"), &HashMap::new()),
            CacheLookup::Miss
        ));
        assert!(hit(&mut c, "c"));
    }

    #[test]
    fn stale_epoch_entries_report_stale_and_drop() {
        let mut c = StmtCache::new(4);
        c.insert(key("q"), prepared());
        assert!(matches!(
            c.lookup(&key("q"), &x_rebound()),
            CacheLookup::Stale
        ));
        assert_eq!(c.len(), 0);
        // Once dropped, a further lookup is a plain miss.
        assert!(matches!(
            c.lookup(&key("q"), &x_rebound()),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = StmtCache::new(0);
        assert_eq!(c.insert(key("q"), prepared()), 0);
        assert_eq!(c.len(), 0);
        assert!(matches!(
            c.lookup(&key("q"), &HashMap::new()),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn set_capacity_to_zero_evicts_everything() {
        let mut c = StmtCache::new(4);
        for s in ["a", "b", "c"] {
            c.insert(key(s), prepared());
        }
        assert_eq!(c.set_capacity(0), 3);
        assert_eq!(c.len(), 0);
        // Inserts are now no-ops, and growing again re-enables caching.
        assert_eq!(c.insert(key("a"), prepared()), 0);
        assert_eq!(c.len(), 0);
        assert_eq!(c.set_capacity(2), 0);
        c.insert(key("a"), prepared());
        assert!(hit(&mut c, "a"));
    }

    #[test]
    fn set_capacity_shrinks_by_recency() {
        let mut c = StmtCache::new(8);
        for s in ["a", "b", "c", "d"] {
            c.insert(key(s), prepared());
        }
        assert!(hit(&mut c, "a"));
        assert_eq!(c.set_capacity(2), 2); // evicts b then c, oldest first
        assert_eq!(c.len(), 2);
        assert!(hit(&mut c, "a"));
        assert!(hit(&mut c, "d"));
        assert!(matches!(
            c.lookup(&key("b"), &HashMap::new()),
            CacheLookup::Miss
        ));
        assert!(matches!(
            c.lookup(&key("c"), &HashMap::new()),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn contains_valid_peeks_without_touching_recency() {
        let mut c = StmtCache::new(2);
        c.insert(key("a"), prepared());
        c.insert(key("b"), prepared());
        // Peeking at "a" must NOT refresh it: the next insert still evicts
        // it as the oldest entry.
        assert!(c.contains_valid(&key("a"), &HashMap::new()));
        assert!(!c.contains_valid(&key("a"), &x_rebound())); // dep rebound
        assert!(!c.contains_valid(&key("z"), &HashMap::new()));
        c.insert(key("c"), prepared());
        assert!(matches!(
            c.lookup(&key("a"), &HashMap::new()),
            CacheLookup::Miss
        ));
        // The stale peek above must not have dropped the entry either.
        assert!(c.contains_valid(&key("b"), &HashMap::new()));
    }

    #[test]
    fn name_deps_survive_unrelated_epoch_moves() {
        let mut c = StmtCache::new(4);
        c.insert(key("q"), prepared_deps(vec![("Employee", 0), ("map", 0)]));
        // An unrelated name was rebound: the entry stays a hit.
        let unrelated = epochs(&[("tick", 3)]);
        assert!(matches!(
            c.lookup(&key("q"), &unrelated),
            CacheLookup::Hit(_)
        ));
        assert!(c.contains_valid(&key("q"), &unrelated));
        // A dependency was rebound: stale, dropped.
        let related = epochs(&[("tick", 3), ("Employee", 1)]);
        assert!(!c.contains_valid(&key("q"), &related));
        assert!(matches!(c.lookup(&key("q"), &related), CacheLookup::Stale));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn absent_names_have_implicit_epoch_zero() {
        // Builtins/prelude names never appear in the epoch map; a snapshot
        // taken at 0 matches forever, and a snapshot taken after a rebind
        // (epoch > 0) never matches an empty map.
        let fresh = prepared_deps(vec![("map", 0)]);
        assert!(fresh.is_fresh(&HashMap::new()));
        let rebound = prepared_deps(vec![("map", 2)]);
        assert!(!rebound.is_fresh(&HashMap::new()));
        assert!(rebound.is_fresh(&epochs(&[("map", 2)])));
    }

    #[test]
    fn structured_keys_do_not_collide() {
        // With format!-spliced keys these two would both be
        // "cquery(f, g, C)"; structured keys keep them distinct.
        let k1 = StmtKey::Query {
            class: "C".into(),
            set_fn: "f, g".into(),
        };
        let k2 = StmtKey::Query {
            class: "g, C".into(),
            set_fn: "f".into(),
        };
        assert_ne!(k1, k2);
    }
}
