//! The inference context: fresh type variables, the current substitution,
//! and the kind assignment `K` mapping type variables to kinds.
//!
//! Variables not present in the kind map have kind `U`. The substitution is
//! triangular (a bound variable maps to a type that may itself contain bound
//! variables); [`Infer::resolve`] applies it exhaustively.
//!
//! A context holds one statement's work: variables below its *floor*
//! predate the statement, which ends with the counter back at
//! [`crate::TypeEnv::mark`], committed or put back.

use crate::table::{NodeId, TypeTable};
use polyview_syntax::{FieldReq, Kind, Mono, Scheme, TyVar};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Work counters for the inference engine: each counts one fundamental
/// operation of the Fig. 1 algorithm, so per-statement deltas make
/// inference cost claims checkable (see DESIGN.md §9).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InferStats {
    /// Calls into [`Infer::unify`] (including recursive sub-unifications).
    pub unify_steps: u64,
    /// Occurs checks performed before binding a variable.
    pub occurs_checks: u64,
    /// Record-kind merges between two kinded variables (the `F < F'` join).
    pub kind_merges: u64,
    /// Scheme instantiations (every polymorphic variable use).
    pub instantiations: u64,
}

/// Mutable state threaded through unification and inference.
#[derive(Debug, Default)]
pub struct Infer {
    next_var: TyVar,
    /// `next_var` when the current statement began.
    floor: TyVar,
    /// Did this statement bind or re-kind a variable below `floor`?
    touched: bool,
    subst: HashMap<TyVar, Mono>,
    kinds: HashMap<TyVar, Kind>,
    /// `Cell` so `&self` paths (e.g. the occurs check) can count too.
    stats: Cell<InferStats>,
    /// Per-node recording for the compile tier; `None` (the default)
    /// disables it, so plain type checking pays nothing.
    table: Option<Box<TypeTable>>,
}

impl Infer {
    pub fn new() -> Self {
        Infer::default()
    }

    /// Mint a fresh variable of kind `U`.
    pub fn fresh(&mut self) -> Mono {
        Mono::Var(self.fresh_var_id())
    }

    /// Mint a fresh variable with the given kind.
    pub fn fresh_with_kind(&mut self, k: Kind) -> Mono {
        let v = self.fresh_var_id();
        self.set_kind(v, k);
        Mono::Var(v)
    }

    pub fn fresh_var_id(&mut self) -> TyVar {
        self.next_var += 1;
        self.next_var - 1
    }

    /// The kind currently assigned to `v` (`U` if none).
    pub fn kind_of(&self, v: TyVar) -> Kind {
        self.kinds.get(&v).cloned().unwrap_or(Kind::Univ)
    }

    pub fn set_kind(&mut self, v: TyVar, k: Kind) {
        if v < self.floor && self.kind_of(v) != k {
            self.touched = true;
        }
        if k.is_univ() {
            self.kinds.remove(&v);
        } else {
            self.kinds.insert(v, k);
        }
    }

    pub(crate) fn bind_raw(&mut self, v: TyVar, t: Mono) {
        debug_assert!(!self.subst.contains_key(&v), "double binding of t{v}");
        self.touched |= v < self.floor;
        self.subst.insert(v, t);
    }

    /// Did this statement bind or re-kind a variable that predates it?
    pub fn touched(&self) -> bool {
        self.touched
    }

    /// Make this a settled context: no substitution, exactly `kinds`, and
    /// `next_var` as the counter and the next statement's floor. Committing,
    /// putting back and restoring a snapshot all go through here.
    pub fn restore(&mut self, next_var: TyVar, kinds: impl IntoIterator<Item = (TyVar, Kind)>) {
        self.next_var = next_var;
        self.floor = next_var;
        self.touched = false;
        self.subst.clear();
        self.kinds.clear();
        self.kinds.extend(kinds);
    }

    /// No substitution entry and no statement under way: the state
    /// between public engine calls.
    pub fn is_settled(&self) -> bool {
        self.subst.is_empty() && self.floor == self.next_var
    }

    /// The kind assignment of a settled context, sorted by variable.
    pub fn settled_kinds(&self) -> Vec<(TyVar, Kind)> {
        let mut kinds: Vec<_> = self.kinds.iter().map(|(v, k)| (*v, k.clone())).collect();
        kinds.sort_by_key(|(v, _)| *v);
        kinds
    }

    /// Follow variable links until reaching a non-variable type or an
    /// unbound variable. Does not descend into sub-terms.
    pub fn shallow(&self, t: &Mono) -> Mono {
        let mut cur = t.clone();
        loop {
            match cur {
                Mono::Var(v) => match self.subst.get(&v) {
                    Some(next) => cur = next.clone(),
                    None => return Mono::Var(v),
                },
                other => return other,
            }
        }
    }

    /// Apply the substitution exhaustively.
    pub fn resolve(&self, t: &Mono) -> Mono {
        match self.shallow(t) {
            Mono::Var(v) => Mono::Var(v),
            Mono::Base(b) => Mono::Base(b),
            Mono::Unit => Mono::Unit,
            Mono::Arrow(a, b) => Mono::arrow(self.resolve(&a), self.resolve(&b)),
            Mono::Set(e) => Mono::set(self.resolve(&e)),
            Mono::LVal(e) => Mono::lval(self.resolve(&e)),
            Mono::Obj(e) => Mono::obj(self.resolve(&e)),
            Mono::Class(e) => Mono::class(self.resolve(&e)),
            Mono::Record(fs) => Mono::Record(
                fs.into_iter()
                    .map(|(l, mut ft)| {
                        ft.ty = self.resolve(&ft.ty);
                        (l, ft)
                    })
                    .collect(),
            ),
        }
    }

    /// Resolve the field types inside a kind.
    pub fn resolve_kind(&self, k: &Kind) -> Kind {
        match k {
            Kind::Univ => Kind::Univ,
            Kind::Record(reqs) => Kind::Record(
                reqs.iter()
                    .map(|(l, r)| {
                        (
                            l.clone(),
                            FieldReq {
                                req: r.req,
                                ty: self.resolve(&r.ty),
                            },
                        )
                    })
                    .collect::<BTreeMap<_, _>>(),
            ),
        }
    }

    /// Does variable `v` occur in `t`, looking through the substitution and
    /// through the kinds of encountered variables? (Kinds contain types, so
    /// a cycle through a kind is also an infinite type.)
    pub fn occurs(&self, v: TyVar, t: &Mono) -> bool {
        self.note(|s| s.occurs_checks += 1);
        let mut visited: HashSet<TyVar> = HashSet::new();
        self.occurs_inner(v, t, &mut visited)
    }

    fn occurs_inner(&self, v: TyVar, t: &Mono, visited: &mut HashSet<TyVar>) -> bool {
        match self.shallow(t) {
            Mono::Var(u) => {
                if u == v {
                    return true;
                }
                if !visited.insert(u) {
                    return false;
                }
                match self.kind_of(u) {
                    Kind::Univ => false,
                    Kind::Record(reqs) => {
                        reqs.values().any(|r| self.occurs_inner(v, &r.ty, visited))
                    }
                }
            }
            Mono::Base(_) | Mono::Unit => false,
            Mono::Arrow(a, b) => {
                self.occurs_inner(v, &a, visited) || self.occurs_inner(v, &b, visited)
            }
            Mono::Set(e) | Mono::LVal(e) | Mono::Obj(e) | Mono::Class(e) => {
                self.occurs_inner(v, &e, visited)
            }
            Mono::Record(fs) => fs.values().any(|f| self.occurs_inner(v, &f.ty, visited)),
        }
    }

    /// Free (unbound) variables of the resolved form of `t`, including
    /// variables reachable through the kinds of unbound variables.
    pub fn free_vars_deep(&self, t: &Mono, out: &mut Vec<TyVar>, seen: &mut HashSet<TyVar>) {
        match self.shallow(t) {
            Mono::Var(v) => {
                if seen.insert(v) {
                    out.push(v);
                    if let Kind::Record(reqs) = self.kind_of(v) {
                        for r in reqs.values() {
                            self.free_vars_deep(&r.ty, out, seen);
                        }
                    }
                }
            }
            Mono::Base(_) | Mono::Unit => {}
            Mono::Arrow(a, b) => {
                self.free_vars_deep(&a, out, seen);
                self.free_vars_deep(&b, out, seen);
            }
            Mono::Set(e) | Mono::LVal(e) | Mono::Obj(e) | Mono::Class(e) => {
                self.free_vars_deep(&e, out, seen)
            }
            Mono::Record(fs) => {
                for f in fs.values() {
                    self.free_vars_deep(&f.ty, out, seen);
                }
            }
        }
    }

    /// Snapshot of the inference work counters.
    pub fn stats(&self) -> InferStats {
        self.stats.get()
    }

    /// Begin per-node recording for the next inference run. Any previous
    /// recording is discarded: node ids are raw AST addresses, valid only
    /// for the statement whose inference just ran, and a later allocation
    /// may legitimately reuse an address — stale entries must never be
    /// allowed to alias it.
    pub fn enable_table(&mut self) {
        self.table = Some(Box::default());
    }

    /// Take the recorded table, resolving every stored type against the
    /// current substitution — after inference of a statement completes,
    /// the variables it minted are never bound again, so the resolved
    /// forms are final and the consumer needs no inference context.
    pub fn take_table(&mut self) -> Option<Box<TypeTable>> {
        let mut t = self.table.take()?;
        for ty in t.operand_types.values_mut() {
            *ty = self.resolve(ty);
        }
        for pairs in t.instantiations.values_mut() {
            for (_, ty) in pairs.iter_mut() {
                *ty = self.resolve(ty);
            }
        }
        Some(t)
    }

    pub(crate) fn record_operand(&mut self, node: NodeId, t: Mono) {
        if let Some(tab) = &mut self.table {
            tab.operand_types.insert(node, t);
        }
    }

    pub(crate) fn record_instantiation(&mut self, node: NodeId, pairs: Vec<(TyVar, TyVar)>) {
        if let Some(tab) = &mut self.table {
            tab.instantiations.insert(
                node,
                pairs.into_iter().map(|(b, f)| (b, Mono::Var(f))).collect(),
            );
        }
    }

    pub(crate) fn record_let_scheme(&mut self, node: NodeId, s: &Scheme) {
        if let Some(tab) = &mut self.table {
            tab.let_schemes.insert(node, s.binders.clone());
        }
    }

    /// Bump counters through the `Cell` (usable from `&self` paths).
    pub(crate) fn note(&self, f: impl FnOnce(&mut InferStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TypeEnv;
    use polyview_syntax::Label;

    #[test]
    fn fresh_vars_are_distinct() {
        let mut cx = Infer::new();
        let a = cx.fresh();
        let b = cx.fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn shallow_follows_chains() {
        let mut cx = Infer::new();
        let a = cx.fresh_var_id();
        let b = cx.fresh_var_id();
        cx.bind_raw(a, Mono::Var(b));
        cx.bind_raw(b, Mono::int());
        assert_eq!(cx.shallow(&Mono::Var(a)), Mono::int());
    }

    #[test]
    fn resolve_is_deep() {
        let mut cx = Infer::new();
        let a = cx.fresh_var_id();
        cx.bind_raw(a, Mono::int());
        let t = Mono::set(Mono::arrow(Mono::Var(a), Mono::bool()));
        assert_eq!(
            cx.resolve(&t),
            Mono::set(Mono::arrow(Mono::int(), Mono::bool()))
        );
    }

    #[test]
    fn occurs_direct_and_through_subst() {
        let mut cx = Infer::new();
        let a = cx.fresh_var_id();
        let b = cx.fresh_var_id();
        assert!(cx.occurs(a, &Mono::set(Mono::Var(a))));
        cx.bind_raw(b, Mono::set(Mono::Var(a)));
        assert!(cx.occurs(a, &Mono::Var(b)));
    }

    #[test]
    fn occurs_through_kinds() {
        let mut cx = Infer::new();
        let a = cx.fresh_var_id();
        let b = cx.fresh_var_id();
        cx.set_kind(b, Kind::has_field(Label::new("x"), Mono::Var(a)));
        // a occurs in b "via" b's kind.
        assert!(cx.occurs(a, &Mono::Var(b)));
        let c = cx.fresh_var_id();
        assert!(!cx.occurs(a, &Mono::Var(c)));
    }

    #[test]
    fn free_vars_deep_include_kind_vars() {
        let mut cx = Infer::new();
        let a = cx.fresh_var_id();
        let b = cx.fresh_var_id();
        cx.set_kind(a, Kind::has_field(Label::new("x"), Mono::Var(b)));
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        cx.free_vars_deep(&Mono::Var(a), &mut out, &mut seen);
        assert_eq!(out, vec![a, b]);
    }

    #[test]
    fn kind_default_is_univ() {
        let cx = Infer::new();
        assert_eq!(cx.kind_of(99), Kind::Univ);
    }

    #[test]
    fn unification_binds_the_younger_variable() {
        let mut cx = Infer::new();
        let (a, b, c) = (cx.fresh_var_id(), cx.fresh_var_id(), cx.fresh_var_id());
        cx.unify(&Mono::Var(b), &Mono::Var(a)).expect("links");
        cx.unify(&Mono::Var(b), &Mono::Var(c)).expect("links");
        assert_eq!(cx.subst.get(&b), Some(&Mono::Var(a)));
        assert_eq!(cx.subst.get(&c), Some(&Mono::Var(a)));
        assert!(!cx.subst.contains_key(&a));
    }

    /// A context whose statement began after `old` was minted, with `old`
    /// carrying kind `k`: a free variable of some global scheme.
    fn with_older(k: Kind) -> (Infer, TyVar) {
        let mut cx = Infer::new();
        let old = cx.fresh_var_id();
        cx.restore(old + 1, [(old, k)]);
        (cx, old)
    }

    #[test]
    fn merging_into_an_older_kind_touches_only_if_it_changes() {
        let x = |t: Mono| Kind::has_field(Label::new("x"), t);
        let (mut cx, old) = with_older(x(Mono::int()));
        let same = cx.fresh_with_kind(x(Mono::int()));
        cx.unify(&same, &Mono::Var(old)).expect("merges");
        assert_eq!(cx.stats().kind_merges, 1);
        assert!(!cx.touched(), "the older kind is unchanged");
        let wider = cx.fresh_with_kind(Kind::has_field(Label::new("y"), Mono::int()));
        cx.unify(&Mono::Var(old), &wider).expect("merges");
        assert!(cx.touched(), "the older kind gained a field");

        let (mut cx, old) = with_older(x(Mono::int()));
        cx.unify(
            &Mono::Var(old),
            &Mono::record_imm([(Label::new("x"), Mono::int())]),
        )
        .expect("binds");
        assert!(cx.touched(), "binding an older variable");
    }

    #[test]
    fn settle_keeps_only_the_kinds_free_in_global_schemes() {
        let mut cx = Infer::new();
        let mut env = TypeEnv::new();
        // A weak `w :: {x : e}` in an open global, and a closed polymorphic
        // global whose binder kind stays in its scheme.
        let e = cx.fresh_var_id();
        let w = cx.fresh_with_kind(Kind::has_field(Label::new("x"), Mono::Var(e)));
        let b = cx.fresh_with_kind(Kind::has_field(Label::new("y"), Mono::int()));
        let t = Mono::arrow(b.clone(), w.clone());
        let fresh = Mono::arrow(cx.fresh(), cx.fresh());
        cx.unify(&t, &fresh).expect("links");
        assert!(!cx.subst.is_empty());
        env.define_global("weak", Scheme::mono(w.clone()));
        let Mono::Var(bv) = b else { unreachable!() };
        let poly = Scheme::poly(vec![(bv, cx.kind_of(bv))], Mono::arrow(b, Mono::int()));
        env.define_global("poly", poly);
        env.settle(&mut cx);
        assert!(cx.subst.is_empty());
        let Mono::Var(wv) = w else { unreachable!() };
        assert_eq!(cx.settled_kinds(), vec![(wv, cx.kind_of(wv))]);
        assert!(!cx.kind_of(wv).is_univ());

        // A later statement fixes `w`: its scheme is resolved and no kind
        // is left, since no global has a free variable any more.
        let r = Mono::record_imm([(Label::new("x"), Mono::str())]);
        cx.unify(&Mono::Var(wv), &r).expect("binds");
        assert!(cx.touched());
        env.settle(&mut cx);
        assert!(cx.subst.is_empty());
        assert!(cx.settled_kinds().is_empty());
        assert_eq!(env.lookup(&Label::new("weak")).expect("bound").body, r);
        assert!(env.free_vars(&cx).is_empty());
    }

    #[test]
    fn work_counters_track_unify_occurs_merge_instantiate() {
        let mut cx = Infer::new();
        assert_eq!(cx.stats(), InferStats::default());

        // var–record bind: one unify step + one occurs check.
        let a = cx.fresh();
        cx.unify(&a, &Mono::int()).expect("binds");
        let s = cx.stats();
        assert_eq!(s.unify_steps, 1);
        assert_eq!(s.occurs_checks, 1);
        assert_eq!(s.kind_merges, 0);

        // kinded var–var unification records a kind merge.
        let f1 = cx.fresh();
        let f2 = cx.fresh();
        let k1 = cx.fresh_with_kind(Kind::has_field(Label::new("x"), f1));
        let k2 = cx.fresh_with_kind(Kind::has_field(Label::new("x"), f2));
        cx.unify(&k1, &k2).expect("merges");
        assert_eq!(cx.stats().kind_merges, 1);

        // instantiation of a polytype counts.
        let scheme = polyview_syntax::Scheme::poly(
            vec![(900, Kind::Univ)],
            Mono::arrow(Mono::Var(900), Mono::Var(900)),
        );
        cx.instantiate(&scheme);
        assert_eq!(cx.stats().instantiations, 1);
    }
}
