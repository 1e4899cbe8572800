//! The compile tier: Ohori-style index-passing lowering.
//!
//! Consumes the per-node inference results recorded in a
//! [`TypeTable`] and rewrites field operations into offset-resolved
//! forms ("A polymorphic record calculus and its compilation", TOPLAS
//! 1995, adapted to this calculus's width-exact record types):
//!
//! * `e·l` whose operand type resolved to a concrete record type becomes
//!   `DotAt(e, l, Const i)` — `i` is the label's rank in canonical field
//!   order, which every runtime value of that type shares (record types
//!   never widen, so compile-time offsets are sound).
//! * A polymorphic binding `λ`/`fix` whose scheme quantifies record-kinded
//!   variables is rewritten into *index-abstracted* form: one extra λ
//!   parameter per `(variable, required label)` pair, in binder order.
//!   Field operations on values of that variable's type use the parameter
//!   (`DotAt(e, l, At("#i…", slot))`); use sites of the binding supply index
//!   *arguments* synthesized from the instantiation recorded at the
//!   `Var` node — a constant when the instantiation resolved to a record
//!   type, an enclosing index parameter when it resolved to a
//!   record-kinded variable, and the sentinel `-1` when unresolvable
//!   (the evaluator then falls back to dynamic lookup, counted).
//! * A field operation resolved neither way gets [`Idx::Dynamic`], counted
//!   as residue: the machine looks its label up, as it does for code that
//!   was never lowered. The machine has no other form of field operation.
//! * Record constructions always lower to `RecordAt`, laid out by
//!   [`Expr::record_at`] — labels are syntactically known, no type needed,
//!   and the resolver lays out records that are not lowered by the same
//!   rule.
//! * The union-fold `hom(S, f, λa.λb.union(a, b), {})` that `map`,
//!   `filter`, `prod` and the view queries desugar to becomes
//!   `Collect(S, f)`, which the evaluator runs as one linear pass with the
//!   fold's exact result (DESIGN.md §13). Every other `hom` stays a fold.
//!
//! The same walk resolves every variable (`polyview_syntax::resolve`):
//! locals to frame slots, globals to global slots, and each `λ` to a
//! flat closure, so the code a statement caches looks nothing up by name
//! (DESIGN.md §13).
//!
//! Index parameters are ordinary λ-bound variables named `#i{var}.{label}`
//! (`#`-prefixed names are unreachable from the parser, so capture is
//! impossible), and index application is ordinary application — no new
//! binding forms. The invariant that makes this sound: a binding is
//! index-abstracted *iff* this pass wrapped it, and then **every** `Var`
//! occurrence of that name immediately applies all its index arguments
//! (a monomorphic recursive occurrence inside `fix` re-passes the
//! enclosing parameters; an alias `val g = f` snapshots `f`'s value
//! into a `let`-bound `#src` binder at definition time and applies the
//! indices through the snapshot, so rebinding `f` never changes `g`).
//! Non-function values are never wrapped —
//! instantiating a wrapped record would mint a fresh identity and change
//! `eq` — so bindings whose right-hand side is not a `λ`, a `fix`-bound
//! `λ`, or an alias of an already-abstracted name keep [`Idx::Dynamic`]
//! field operations as documented residue.

use polyview_syntax::resolve::Scope;
use polyview_syntax::{visit, Expr, GlobalNames, Idx, Kind, Label, Mono, Name, TyVar};
use polyview_types::table::{node_id, NodeId, TypeTable};
use std::collections::HashMap;
use std::rc::Rc;

/// The index signature of an abstracted binding: one entry per extra λ
/// parameter, in binder order — `(record-kinded scheme binder, label)`.
pub type IndexSig = Vec<(TyVar, Label)>;

polyview_syntax::work_counters! {
    /// Work counters for one lowering run.
    pub struct LowerStats {
        /// Field operations and index arguments resolved to a constant offset.
        pub offsets_resolved: u64,
        /// Field operations and index arguments routed through an index
        /// parameter of an enclosing abstraction.
        pub index_params_used: u64,
        /// Bindings rewritten into index-abstracted form.
        pub index_abstractions: u64,
        /// Field operations left dynamic and index arguments emitted as the
        /// unresolved sentinel — the residue the evaluator counts at runtime.
        pub dynamic_residue: u64,
        /// Record constructions given a compile-time layout.
        pub records_lowered: u64,
    }
}

/// Lower a statement expression that is not itself a polymorphic binding
/// (bare expressions, class declarations). `globals` maps the names of
/// already-abstracted top-level bindings to their index signatures, and
/// `slots` numbers the top-level names the statement reads.
pub fn lower_statement(
    e: &Expr,
    table: &TypeTable,
    globals: &HashMap<Name, Rc<IndexSig>>,
    slots: &mut GlobalNames,
) -> (Expr, LowerStats) {
    let mut lw = Lowerer::new(table, globals, slots);
    let out = lw.lower(e);
    (out, lw.stats)
}

/// Lower the right-hand side of a top-level binding whose generalized
/// scheme has the given binders, index-abstracting it when possible.
/// Returns the signature iff the binding was wrapped — the caller must
/// then register it so use sites apply index arguments.
pub fn lower_binding(
    rhs: &Expr,
    binders: &[(TyVar, Kind)],
    table: &TypeTable,
    globals: &HashMap<Name, Rc<IndexSig>>,
    slots: &mut GlobalNames,
) -> (Expr, Option<Rc<IndexSig>>, LowerStats) {
    let mut lw = Lowerer::new(table, globals, slots);
    let sig = sig_from_binders(binders);
    if !sig.is_empty() && lw.wrappable(rhs) {
        let sig = Rc::new(sig);
        let out = lw.wrap_and_lower(rhs, &sig);
        (out, Some(sig), lw.stats)
    } else {
        let out = lw.lower(rhs);
        (out, None, lw.stats)
    }
}

/// The index signature a scheme demands: one `(variable, label)` pair per
/// field requirement of each record-kinded binder, in binder order.
pub fn sig_from_binders(binders: &[(TyVar, Kind)]) -> IndexSig {
    let mut sig = Vec::new();
    for (v, k) in binders {
        if let Kind::Record(reqs) = k {
            for l in reqs.keys() {
                sig.push((*v, l.clone()));
            }
        }
    }
    sig
}

/// The reserved name of an index parameter.
fn param_name(v: TyVar, l: &Label) -> Name {
    Label::new(format!("#i{v}.{l}"))
}

struct Lowerer<'a> {
    table: &'a TypeTable,
    globals: &'a HashMap<Name, Rc<IndexSig>>,
    /// Where each variable lives, frame by frame.
    scope: Scope<'a>,
    /// Local binders, innermost last. `Some(sig)` marks an
    /// index-abstracted binding; `None` is a plain binder (which shadows
    /// any outer signature of the same name).
    locals: Vec<(Name, Option<Rc<IndexSig>>)>,
    /// In-scope index parameters, innermost last.
    index_params: Vec<((TyVar, Label), Name)>,
    stats: LowerStats,
}

impl<'a> Lowerer<'a> {
    fn new(
        table: &'a TypeTable,
        globals: &'a HashMap<Name, Rc<IndexSig>>,
        slots: &'a mut GlobalNames,
    ) -> Self {
        Lowerer {
            table,
            globals,
            scope: Scope::new(slots),
            locals: Vec::new(),
            index_params: Vec::new(),
            stats: LowerStats::default(),
        }
    }

    fn sig_of(&self, x: &Name) -> Option<Rc<IndexSig>> {
        for (n, s) in self.locals.iter().rev() {
            if n == x {
                return s.clone();
            }
        }
        self.globals.get(x).cloned()
    }

    fn index_param(&self, v: TyVar, l: &Label) -> Option<Name> {
        self.index_params
            .iter()
            .rev()
            .find(|((pv, pl), _)| *pv == v && pl == l)
            .map(|(_, n)| n.clone())
    }

    /// Can this right-hand side be index-abstracted? Only function values
    /// (and aliases of abstracted names, which snapshot the source value
    /// and η-expand around it): wrapping any other value would
    /// re-evaluate it per instantiation and mint fresh record/set
    /// identities.
    fn wrappable(&self, rhs: &Expr) -> bool {
        match rhs {
            Expr::Lam(..) => true,
            Expr::Fix(_, inner) => matches!(**inner, Expr::Lam(..)),
            Expr::Var(x) => self.sig_of(x).is_some(),
            _ => false,
        }
    }

    /// Lower `rhs` with the signature's index parameters in scope and wrap
    /// the result in the index λs. For `fix f => λ…` the index λs go
    /// *inside* the `fix` (so the fixpoint value is still a λ and
    /// recursive occurrences of `f` — which are in scope with the full
    /// signature — re-pass the parameters).
    fn wrap_and_lower(&mut self, rhs: &Expr, sig: &Rc<IndexSig>) -> Expr {
        self.stats.index_abstractions += 1;
        let depth = self.index_params.len();
        let params: Vec<Name> = sig.iter().map(|(v, l)| param_name(*v, l)).collect();
        for ((v, l), p) in sig.iter().zip(&params) {
            self.index_params.push(((*v, l.clone()), p.clone()));
        }
        let out = match rhs {
            Expr::Fix(f, inner) if matches!(**inner, Expr::Lam(..)) => {
                self.locals.push((f.clone(), Some(sig.clone())));
                self.scope.enter(Some(f), &params[0]);
                let body = self.index_lams(&params[1..], |lw| lw.lower(inner));
                self.locals.pop();
                self.scope.leave(Some(f.clone()), params[0].clone(), body)
            }
            // Alias of an abstracted binding. Bind the source value once
            // (`let #src = x`) and re-apply the indices through that
            // binder: the alias is the value `x` had at definition time.
            // (The index λs would capture `x` at definition time too; the
            // binder keeps the alias's code, and so its fuel, unchanged.)
            Expr::Var(x) => {
                let src = snapshot_name(x);
                let bare = Expr::VarAt(x.clone(), self.scope.var(x));
                let src_sig = self
                    .sig_of(x)
                    .expect("an alias is wrapped only when its source is");
                self.scope.bind(&src);
                let lams = self.index_lams(&params, |lw| {
                    let head = Expr::VarAt(src.clone(), lw.scope.var(&src));
                    lw.index_apply(head, &src_sig, node_id(rhs))
                });
                self.scope.unbind(1);
                Expr::let_(src, bare, lams)
            }
            _ => self.index_lams(&params, |lw| lw.lower(rhs)),
        };
        self.index_params.truncate(depth);
        out
    }

    /// One λ per index parameter around the code `body` lowers.
    fn index_lams(&mut self, params: &[Name], body: impl FnOnce(&mut Self) -> Expr) -> Expr {
        for p in params {
            self.scope.enter(None, p);
        }
        let mut out = body(self);
        for p in params.iter().rev() {
            out = self.scope.leave(None, p.clone(), out);
        }
        out
    }

    /// Apply `head`, an occurrence of a binding with signature `sig`, to
    /// every index argument. The instantiation recorded at `node` says
    /// what each scheme binder became there; a monomorphic occurrence (a
    /// recursive call) has no entry and uses the binder itself, picking
    /// up the enclosing parameters.
    fn index_apply(&mut self, head: Expr, sig: &IndexSig, node: NodeId) -> Expr {
        let table = self.table;
        let inst = table.instantiations.get(&node);
        let mut out = head;
        for (v, l) in sig.iter() {
            let ty = inst
                .and_then(|pairs| pairs.iter().find(|(b, _)| b == v))
                .map(|(_, t)| t.clone())
                .unwrap_or(Mono::Var(*v));
            let arg = self.index_arg(&ty, l);
            out = Expr::app(out, arg);
        }
        out
    }

    /// The index operand for a field operation on an operand whose type
    /// was recorded at `node`: [`Idx::Dynamic`], counted as residue, when
    /// the operation must look its label up.
    fn idx_for(&mut self, node: NodeId, l: &Label) -> Idx {
        let known = match self.table.operand_types.get(&node) {
            Some(Mono::Record(fs)) => fs.keys().position(|k| k == l).map(|i| {
                self.stats.offsets_resolved += 1;
                Idx::Const(i)
            }),
            Some(Mono::Var(w)) => self.index_param(*w, l).map(|p| {
                self.stats.index_params_used += 1;
                let slot = self.scope.var(&p);
                Idx::At(p, slot)
            }),
            _ => None,
        };
        known.unwrap_or_else(|| {
            self.stats.dynamic_residue += 1;
            Idx::Dynamic
        })
    }

    /// The index *argument* supplied for `(binder, label)` of a callee's
    /// signature, given the instantiation type the use site gave that
    /// binder.
    fn index_arg(&mut self, ty: &Mono, l: &Label) -> Expr {
        match ty {
            Mono::Record(fs) => {
                if let Some(i) = fs.keys().position(|k| k == l) {
                    self.stats.offsets_resolved += 1;
                    return Expr::int(i as i64);
                }
                self.stats.dynamic_residue += 1;
                Expr::int(-1)
            }
            Mono::Var(w) => match self.index_param(*w, l) {
                Some(p) => {
                    self.stats.index_params_used += 1;
                    let slot = self.scope.var(&p);
                    Expr::VarAt(p, slot)
                }
                None => {
                    self.stats.dynamic_residue += 1;
                    Expr::int(-1)
                }
            },
            _ => {
                self.stats.dynamic_residue += 1;
                Expr::int(-1)
            }
        }
    }

    fn lower(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::Lit(_) => e.clone(),
            Expr::Var(x) => {
                let head = Expr::VarAt(x.clone(), self.scope.var(x));
                match self.sig_of(x) {
                    Some(sig) => self.index_apply(head, &sig, node_id(e)),
                    None => head,
                }
            }
            Expr::Record(fields) => {
                self.stats.records_lowered += 1;
                Expr::record_at(fields, |fe| self.lower(fe))
            }
            Expr::Dot(obj, l) => {
                let low = Box::new(self.lower(obj));
                Expr::DotAt(low, l.clone(), self.idx_for(node_id(e), l))
            }
            Expr::Extract(obj, l) => {
                let low = Box::new(self.lower(obj));
                Expr::ExtractAt(low, l.clone(), self.idx_for(node_id(e), l))
            }
            Expr::Update(obj, l, v) => {
                let low = Box::new(self.lower(obj));
                let lv = Box::new(self.lower(v));
                let idx = self.idx_for(node_id(e), l);
                Expr::UpdateAt(low, l.clone(), idx, lv)
            }
            Expr::Let(x, rhs, body) => {
                let sig = self
                    .table
                    .let_schemes
                    .get(&node_id(e))
                    .map(|bs| sig_from_binders(bs))
                    .filter(|s| !s.is_empty());
                let (r, sig) = match sig {
                    Some(sig) if self.wrappable(rhs) => {
                        let sig = Rc::new(sig);
                        (self.wrap_and_lower(rhs, &sig), Some(sig))
                    }
                    _ => (self.lower(rhs), None),
                };
                self.locals.push((x.clone(), sig));
                self.scope.bind(x);
                let b = self.lower(body);
                self.scope.unbind(1);
                self.locals.pop();
                Expr::let_(x.clone(), r, b)
            }
            Expr::Lam(x, b) => {
                self.locals.push((x.clone(), None));
                self.scope.enter(None, x);
                let lb = self.lower(b);
                self.locals.pop();
                self.scope.leave(None, x.clone(), lb)
            }
            Expr::Fix(f, lam) => match &**lam {
                Expr::Lam(x, b) => {
                    self.locals.push((f.clone(), None));
                    self.locals.push((x.clone(), None));
                    self.scope.enter(Some(f), x);
                    let lb = self.lower(b);
                    self.locals.truncate(self.locals.len() - 2);
                    self.scope.leave(Some(f.clone()), x.clone(), lb)
                }
                // Evaluating it fails without running the body, which is
                // lowered only so that the machine holds one code form.
                body => {
                    self.locals.push((f.clone(), None));
                    self.scope.bind(f);
                    let lb = self.lower(body);
                    self.scope.unbind(1);
                    self.locals.pop();
                    Expr::Fix(f.clone(), Rc::new(lb))
                }
            },
            Expr::Eq(a, b) => Expr::eq(self.lower(a), self.lower(b)),
            Expr::App(f, a) => Expr::app(self.lower(f), self.lower(a)),
            Expr::If(c, t, e2) => Expr::if_(self.lower(c), self.lower(t), self.lower(e2)),
            Expr::SetLit(es) => Expr::SetLit(es.iter().map(|x| self.lower(x)).collect()),
            Expr::Union(a, b) => Expr::union(self.lower(a), self.lower(b)),
            Expr::Hom(s, f, op, z) if is_union_fold(op, z) => {
                Expr::collect(self.lower(s), self.lower(f))
            }
            Expr::Hom(s, f, op, z) => {
                Expr::hom(self.lower(s), self.lower(f), self.lower(op), self.lower(z))
            }
            Expr::IdView(b) => Expr::IdView(Box::new(self.lower(b))),
            Expr::AsView(a, b) => Expr::as_view(self.lower(a), self.lower(b)),
            Expr::Query(a, b) => Expr::query(self.lower(a), self.lower(b)),
            Expr::Fuse(a, b) => Expr::fuse(self.lower(a), self.lower(b)),
            Expr::RelObj(fs) => Expr::RelObj(
                fs.iter()
                    .map(|(l, fe)| (l.clone(), self.lower(fe)))
                    .collect(),
            ),
            Expr::ClassExpr(cd) => Expr::ClassExpr(self.lower_class(cd)),
            Expr::CQuery(a, b) => Expr::cquery(self.lower(a), self.lower(b)),
            Expr::Insert(a, b) => Expr::insert(self.lower(a), self.lower(b)),
            Expr::Delete(a, b) => Expr::delete(self.lower(a), self.lower(b)),
            Expr::LetClasses(binds, body) => {
                // Mirror inference: every class name is in scope for every
                // member definition and the body (all plain binders).
                let depth = self.locals.len();
                for (n, _) in binds {
                    self.locals.push((n.clone(), None));
                    self.scope.bind(n);
                }
                let lowered_binds = binds
                    .iter()
                    .map(|(n, cd)| (n.clone(), self.lower_class(cd)))
                    .collect();
                let lb = self.lower(body);
                self.scope.unbind(binds.len());
                self.locals.truncate(depth);
                Expr::LetClasses(lowered_binds, Box::new(lb))
            }
            // Inference refuses these in source position, so lowering,
            // which runs on inferred statements only, never meets them.
            Expr::DotAt(..)
            | Expr::ExtractAt(..)
            | Expr::UpdateAt(..)
            | Expr::RecordAt(..)
            | Expr::Collect(..)
            | Expr::VarAt(..)
            | Expr::LamAt(_) => unreachable!("a lowered form reached lowering: {e}"),
        }
    }

    fn lower_class(&mut self, cd: &polyview_syntax::ClassDef) -> polyview_syntax::ClassDef {
        polyview_syntax::ClassDef {
            own: Box::new(self.lower(&cd.own)),
            includes: cd
                .includes
                .iter()
                .map(|inc| polyview_syntax::IncludeClause {
                    sources: inc.sources.iter().map(|s| self.lower(s)).collect(),
                    view: self.lower(&inc.view),
                    pred: self.lower(&inc.pred),
                })
                .collect(),
        }
    }
}

/// Is `hom(S, f, op, z)` the union-fold that [`Expr::Collect`] runs in
/// one pass? Exactly when the source `op` is `λa.λb.union(a, b)` with
/// distinct binders and `z` is `{}` — the operator `map`, `filter`, `prod`
/// and the view queries desugar to. Any other operator (`union(b, a)`, one
/// reached through a variable, `+`, `orelse`) or a non-empty unit keeps
/// the plain fold.
fn is_union_fold(op: &Expr, z: &Expr) -> bool {
    let Expr::Lam(a, outer) = op else {
        return false;
    };
    let Expr::Lam(b, inner) = &**outer else {
        return false;
    };
    let Expr::Union(l, r) = &**inner else {
        return false;
    };
    a != b
        && matches!(&**l, Expr::Var(x) if x == a)
        && matches!(&**r, Expr::Var(y) if y == b)
        && matches!(z, Expr::SetLit(es) if es.is_empty())
}

/// The reserved name binding an alias's definition-time snapshot of its
/// source value.
fn snapshot_name(src: &Name) -> Name {
    Label::new(format!("#src.{src}"))
}

/// Human-readable rows describing every field operation of a compiled
/// statement — resolved offsets, index parameters, layouts, and dynamic
/// residue. Rendered by the REPL's `:explain`.
pub fn offset_report(e: &Expr) -> Vec<String> {
    let mut rows = Vec::new();
    visit::walk(e, &mut |n| match n {
        Expr::DotAt(_, l, idx) => rows.push(format!("dot .{l} {}", show_idx(idx))),
        Expr::ExtractAt(_, l, idx) => rows.push(format!("extract .{l} {}", show_idx(idx))),
        Expr::UpdateAt(_, l, idx, _) => rows.push(format!("update .{l} {}", show_idx(idx))),
        Expr::RecordAt(layout, _) => rows.push(format!("record {layout}")),
        _ => {}
    });
    rows
}

fn show_idx(i: &Idx) -> String {
    match i {
        Idx::Const(n) => format!("@{n}"),
        Idx::At(x, _) => format!("@{x}"),
        Idx::Dynamic => "dynamic".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_syntax::builder as b;
    use polyview_syntax::Slot;
    use polyview_types::{builtins_sig, Infer};

    /// Run inference with recording on, as the engine does, and return
    /// the table (the expression must be kept alive by the caller).
    fn infer_table(e: &Expr) -> (polyview_syntax::Scheme, Box<TypeTable>) {
        let mut cx = Infer::new();
        cx.enable_table();
        let mut env = builtins_sig::builtin_env();
        let s = cx.infer_scheme(&mut env, e).expect("well-typed");
        (s, cx.take_table().expect("table enabled"))
    }

    fn no_globals() -> HashMap<Name, Rc<IndexSig>> {
        HashMap::new()
    }

    /// Does the lowered code still look a label up?
    fn has_dynamic_field_ops(e: &Expr) -> bool {
        let mut found = false;
        visit::walk(e, &mut |n| {
            found |= matches!(
                n,
                Expr::DotAt(_, _, Idx::Dynamic)
                    | Expr::ExtractAt(_, _, Idx::Dynamic)
                    | Expr::UpdateAt(_, _, Idx::Dynamic, _)
            );
        });
        found
    }

    #[test]
    fn monomorphic_dot_gets_constant_offset() {
        // let joe = [Name = "J", Salary := 2] in joe.Salary end
        let e = b::let_(
            "joe",
            b::record([b::imm("Name", b::str("J")), b::mt("Salary", b::int(2))]),
            b::dot(b::v("joe"), "Salary"),
        );
        let (_, table) = infer_table(&e);
        let (low, stats) = lower_statement(&e, &table, &no_globals(), &mut GlobalNames::default());
        assert!(!has_dynamic_field_ops(&low));
        assert_eq!(stats.offsets_resolved, 1);
        assert_eq!(stats.records_lowered, 1);
        assert_eq!(stats.dynamic_residue, 0);
        // Salary is rank 1 (after Name).
        let mut saw = false;
        visit::walk(&low, &mut |n| {
            if let Expr::DotAt(_, l, Idx::Const(i)) = n {
                assert_eq!(l.as_str(), "Salary");
                assert_eq!(*i, 1);
                saw = true;
            }
        });
        assert!(saw, "expected a DotAt in {low}");
    }

    #[test]
    fn polymorphic_binding_is_index_abstracted() {
        // λp. p.Income * 12 + p.Bonus : ∀t::[[Bonus, Income]]. t → int
        let f = b::lam(
            "p",
            b::add(
                b::mul(b::dot(b::v("p"), "Income"), b::int(12)),
                b::dot(b::v("p"), "Bonus"),
            ),
        );
        let (scheme, table) = infer_table(&f);
        let (low, sig, stats) = lower_binding(
            &f,
            &scheme.binders,
            &table,
            &no_globals(),
            &mut GlobalNames::default(),
        );
        let sig = sig.expect("record-kinded scheme must abstract");
        // Two labels in the kind → two index parameters, and both dots go
        // through them (kind field order: Bonus before Income).
        assert_eq!(sig.len(), 2);
        assert_eq!(sig[0].1.as_str(), "Bonus");
        assert_eq!(sig[1].1.as_str(), "Income");
        assert_eq!(stats.index_params_used, 2);
        assert_eq!(stats.dynamic_residue, 0);
        assert!(stats.index_abstractions == 1);
        // Shape: λ#i.λ#i.λp. …
        match &low {
            Expr::LamAt(l) => {
                assert!(l.param.as_str().starts_with("#i"));
                assert!(matches!(l.body, Expr::LamAt(..)));
            }
            other => panic!("expected index λ, got {other}"),
        }
        assert!(!has_dynamic_field_ops(&low));
    }

    #[test]
    fn use_site_supplies_constant_index_arguments() {
        // let f = λp. p.Bonus in f [Bonus = 7, Zed = 1] end
        let e = b::let_(
            "f",
            b::lam("p", b::dot(b::v("p"), "Bonus")),
            b::app(
                b::v("f"),
                b::record([b::imm("Bonus", b::int(7)), b::imm("Zed", b::int(1))]),
            ),
        );
        let (_, table) = infer_table(&e);
        let (low, stats) = lower_statement(&e, &table, &no_globals(), &mut GlobalNames::default());
        assert!(!has_dynamic_field_ops(&low));
        assert_eq!(stats.dynamic_residue, 0);
        // The call must apply the constant 0 (Bonus's rank in the record)
        // before the real argument.
        let mut saw_const_arg = false;
        visit::walk(&low, &mut |n| {
            if let Expr::App(fun, arg) = n {
                if matches!(**fun, Expr::VarAt(ref x, _) if x.as_str() == "f")
                    && matches!(**arg, Expr::Lit(polyview_syntax::Lit::Int(0)))
                {
                    saw_const_arg = true;
                }
            }
        });
        assert!(saw_const_arg, "index argument not supplied in {low}");
    }

    #[test]
    fn recursive_function_repasses_its_index_parameters() {
        // fix go => λr. if r.Stop then 0 else go r
        let f = Expr::fix(
            "go",
            b::lam(
                "r",
                b::if_(
                    b::dot(b::v("r"), "Stop"),
                    b::int(0),
                    b::app(b::v("go"), b::v("r")),
                ),
            ),
        );
        let (scheme, table) = infer_table(&f);
        let (low, sig, stats) = lower_binding(
            &f,
            &scheme.binders,
            &table,
            &no_globals(),
            &mut GlobalNames::default(),
        );
        assert!(sig.is_some());
        assert_eq!(stats.dynamic_residue, 0);
        // Index λs are inside the fix, and the recursive call re-passes
        // the parameter: (go #iN.Stop) r.
        match &low {
            Expr::LamAt(l) => {
                assert_eq!(l.fix.as_ref().map(|f| f.as_str()), Some("go"));
                assert!(l.param.as_str().starts_with("#i"), "index λ inside fix");
            }
            other => panic!("expected fix, got {other}"),
        }
        let mut rec_call_indexed = false;
        visit::walk(&low, &mut |n| {
            if let Expr::App(fun, arg) = n {
                if matches!(**fun, Expr::VarAt(ref x, _) if x.as_str() == "go")
                    && matches!(**arg, Expr::VarAt(ref a, _) if a.as_str().starts_with("#i"))
                {
                    rec_call_indexed = true;
                }
            }
        });
        assert!(
            rec_call_indexed,
            "recursive call not index-applied in {low}"
        );
    }

    #[test]
    fn unresolvable_instantiation_gets_the_sentinel() {
        // let f = λx. x.a in f end — the trailing use never fixes x's
        // type, so the index argument cannot be resolved.
        let e = b::let_("f", b::lam("x", b::dot(b::v("x"), "a")), b::v("f"));
        let (_, table) = infer_table(&e);
        let (low, stats) = lower_statement(&e, &table, &no_globals(), &mut GlobalNames::default());
        assert!(stats.dynamic_residue >= 1);
        let mut saw_sentinel = false;
        visit::walk(&low, &mut |n| {
            if let Expr::App(_, arg) = n {
                if matches!(**arg, Expr::Lit(polyview_syntax::Lit::Int(-1))) {
                    saw_sentinel = true;
                }
            }
        });
        assert!(saw_sentinel, "expected sentinel arg in {low}");
    }

    #[test]
    fn alias_of_abstracted_binding_snapshots_and_eta_expands() {
        // Global f is abstracted over (t, Bonus); val g = f must become
        // let #src = f in λ#i. #src #i end — an index-taking function
        // again, holding f's *value* at definition time.
        let g_rhs = b::v("f");
        let mut cx = Infer::new();
        cx.enable_table();
        let mut env = builtins_sig::builtin_env();
        // f : ∀t::[[Bonus = int]]. t → int, as if previously declared.
        let f_scheme = polyview_syntax::Scheme::poly(
            vec![(77, Kind::has_field(Label::new("Bonus"), Mono::int()))],
            Mono::arrow(Mono::Var(77), Mono::int()),
        );
        env.push(Label::new("f"), f_scheme);
        let scheme = cx.infer_scheme(&mut env, &g_rhs).expect("well-typed");
        let table = cx.take_table().expect("table");
        let mut globals = HashMap::new();
        globals.insert(Label::new("f"), Rc::new(vec![(77, Label::new("Bonus"))]));
        let (low, sig, stats) = lower_binding(
            &g_rhs,
            &scheme.binders,
            &table,
            &globals,
            &mut GlobalNames::default(),
        );
        let sig = sig.expect("alias of abstracted binding must abstract");
        assert_eq!(sig.len(), 1);
        assert_eq!(stats.index_params_used, 1);
        assert_eq!(stats.dynamic_residue, 0);
        // let #src.f = f in λ#i. (#src.f #i) end, with #src.f captured
        // by the λ from the statement's local 0.
        match &low {
            Expr::Let(src, rhs, body) => {
                assert_eq!(src.as_str(), "#src.f");
                assert!(
                    matches!(**rhs, Expr::VarAt(ref x, Slot::Global(_)) if x.as_str() == "f"),
                    "snapshot must bind the bare source, got {rhs}"
                );
                match &**body {
                    Expr::LamAt(l) => {
                        assert!(l.param.as_str().starts_with("#i"));
                        assert_eq!(l.captures, vec![Slot::Local(0)]);
                        assert_eq!(
                            l.body,
                            Expr::app(
                                Expr::VarAt(src.clone(), Slot::Captured(0)),
                                Expr::VarAt(l.param.clone(), Slot::Local(0)),
                            ),
                            "index application must go through the snapshot"
                        );
                    }
                    other => panic!("expected index λ, got {other}"),
                }
            }
            other => panic!("expected snapshot let, got {other}"),
        }
    }

    #[test]
    fn non_function_polymorphic_value_is_not_wrapped() {
        // A set of functions is nonexpansive and record-kinded, but must
        // not be wrapped (instantiation would rebuild the set).
        let e = b::set([b::lam("x", b::dot(b::v("x"), "a"))]);
        let (scheme, table) = infer_table(&e);
        assert!(!sig_from_binders(&scheme.binders).is_empty());
        let (low, sig, _) = lower_binding(
            &e,
            &scheme.binders,
            &table,
            &no_globals(),
            &mut GlobalNames::default(),
        );
        assert!(sig.is_none());
        assert!(matches!(low, Expr::SetLit(_)));
    }

    #[test]
    fn offset_report_lists_resolved_and_dynamic_rows() {
        let e = b::let_(
            "joe",
            b::record([b::imm("Name", b::str("J"))]),
            b::dot(b::v("joe"), "Name"),
        );
        let (_, table) = infer_table(&e);
        let (low, _) = lower_statement(&e, &table, &no_globals(), &mut GlobalNames::default());
        let rows = offset_report(&low);
        assert!(rows.iter().any(|r| r.contains("dot .Name @0")), "{rows:?}");
        assert!(
            rows.iter().any(|r| r.contains("record [Name@0]")),
            "{rows:?}"
        );
    }

    /// Lower a parsed, closed expression and count its `Collect` and
    /// `Hom` nodes.
    fn fold_nodes(e: &Expr) -> (usize, usize) {
        let (_, table) = infer_table(e);
        let (low, _) = lower_statement(e, &table, &no_globals(), &mut GlobalNames::default());
        let (mut collects, mut homs) = (0, 0);
        visit::walk(&low, &mut |n| match n {
            Expr::Collect(..) => collects += 1,
            Expr::Hom(..) => homs += 1,
            _ => {}
        });
        (collects, homs)
    }

    fn parsed(src: &str) -> Expr {
        polyview_parser::parse_expr(src).expect("parses")
    }

    #[test]
    fn union_folds_lower_to_collect() {
        // The sugar's operator, as `map` and `filter` emit it.
        assert_eq!(fold_nodes(&parsed("map(fn x => x + 1, {1, 2})")), (1, 0));
        assert_eq!(fold_nodes(&parsed("filter(fn x => x = 1, {1, 2})")), (1, 0));
        let direct = b::hom(
            b::set([b::int(1)]),
            b::lam("x", b::set([b::v("x")])),
            polyview_syntax::sugar::union2(),
            b::empty(),
        );
        assert_eq!(fold_nodes(&direct), (1, 0));
        // A user-written operator with its own binder names.
        assert_eq!(
            fold_nodes(&parsed(
                "hom({1, 2}, fn x => {x}, fn p => fn q => union(p, q), {})"
            )),
            (1, 0)
        );
        // prod nests one fold per factor.
        assert_eq!(fold_nodes(&parsed("prod({1}, {true})")), (2, 0));
    }

    #[test]
    fn other_folds_keep_hom() {
        for src in [
            // Operands swapped: right-biased, not the fold Collect runs.
            "hom({1, 2}, fn x => {x}, fn a => fn b => union(b, a), {})",
            // A non-empty unit.
            "hom({1, 2}, fn x => {x}, fn a => fn b => union(a, b), {3})",
            // The operator reached through a variable.
            "let u = fn a => fn b => union(a, b) in hom({1, 2}, fn x => {x}, u, {}) end",
            // An integer fold (polybench's COUNT_FN) and `member`'s orelse.
            "fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0)",
            "member(1, {1, 2})",
        ] {
            assert_eq!(fold_nodes(&parsed(src)), (0, 1), "{src}");
        }
        // Equal binders: λa.λa.union(a, a) returns the accumulator.
        let same = b::hom(
            b::set([b::int(1)]),
            b::lam("x", b::set([b::v("x")])),
            b::lam("a", b::lam("a", b::union(b::v("a"), b::v("a")))),
            b::empty(),
        );
        assert_eq!(fold_nodes(&same), (0, 1));
    }

    #[test]
    fn shadowing_disables_index_application() {
        // Global f abstracted; λf. f r must NOT index-apply the parameter.
        let e = b::lam("f", b::app(b::v("f"), b::int(1)));
        let (_, table) = infer_table(&e);
        let mut globals = HashMap::new();
        globals.insert(Label::new("f"), Rc::new(vec![(5u32, Label::new("a"))]));
        let (low, stats) = lower_statement(&e, &table, &globals, &mut GlobalNames::default());
        assert_eq!(stats.dynamic_residue, 0);
        // The body must be exactly (f 1) — no index args inserted.
        match &low {
            Expr::LamAt(l) => match &l.body {
                Expr::App(fun, _) => {
                    assert!(matches!(**fun, Expr::VarAt(_, Slot::Local(0))), "got {low}")
                }
                other => panic!("unexpected body {other}"),
            },
            other => panic!("unexpected {other}"),
        }
    }
}
