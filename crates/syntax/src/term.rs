//! Terms of the calculus. The grammar is the union of the paper's three
//! layers (Sections 2, 3.1, 4.1):
//!
//! ```text
//! e ::= c | () | x | eq(e, e) | λx.e | (e e) | [f,…,f] | e·l
//!     | extract(e, l) | update(e, l, e) | {e,…,e} | union(e, e)
//!     | hom(e, e, e, e) | fix x.e | let x = e in e end
//!     | if e then e else e
//!     | IDView(e) | (e as e) | query(e, e) | fuse(e, e) | relobj(l=e,…)
//!     | class S include … as e where p … end
//!     | c-query(e, e) | insert(e, e) | delete(e, e)
//!     | let c1 = class … and … and cn = class … in e end
//! ```
//!
//! `if` is primitive here (the paper uses it freely in its translation
//! rules, e.g. Fig. 3's `fuse`). All other derived forms live in
//! [`crate::sugar`].

use crate::label::{Label, Name};
use crate::layout::Layout;
use std::rc::Rc;

/// Constants `cτ` plus the unit value `()` and booleans.
#[derive(Clone, Debug, PartialEq)]
pub enum Lit {
    Unit,
    Int(i64),
    Bool(bool),
    Str(String),
}

/// A field in a record expression: `l = e` (immutable) or `l := e`
/// (mutable).
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    pub label: Label,
    pub mutable: bool,
    pub expr: Expr,
}

impl Field {
    pub fn immutable(label: impl Into<Label>, expr: Expr) -> Self {
        Field {
            label: label.into(),
            mutable: false,
            expr,
        }
    }
    pub fn mutable(label: impl Into<Label>, expr: Expr) -> Self {
        Field {
            label: label.into(),
            mutable: true,
            expr,
        }
    }
}

/// One `include C1, …, Cm as e where p` clause of a class definition.
///
/// The class being defined includes every object satisfying `pred` from the
/// intersection (in the sense of `intersect`, i.e. n-ary `fuse`) of the
/// `sources`, manipulated under the viewing function `view`.
#[derive(Clone, Debug, PartialEq)]
pub struct IncludeClause {
    pub sources: Vec<Expr>,
    pub view: Expr,
    pub pred: Expr,
}

/// A class definition `class S include … end`: an own extent expression
/// plus zero or more include clauses.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassDef {
    pub own: Box<Expr>,
    pub includes: Vec<IncludeClause>,
}

/// Terms.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    // ----- core language (Section 2) -----
    Lit(Lit),
    Var(Name),
    /// `eq(e1, e2)` — L-value equality on records and functions, value
    /// equality otherwise.
    Eq(Box<Expr>, Box<Expr>),
    Lam(Name, Rc<Expr>),
    App(Box<Expr>, Box<Expr>),
    /// `[l1 @ e1, …, ln @ en]` — evaluation creates a new identity.
    Record(Vec<Field>),
    /// `e·l` — R-value field extraction.
    Dot(Box<Expr>, Label),
    /// `extract(e, l)` — L-value extraction from a mutable field.
    Extract(Box<Expr>, Label),
    /// `update(e, l, e')` — assign to a mutable field; returns `()`.
    Update(Box<Expr>, Label, Box<Expr>),
    /// `{e1, …, en}`.
    SetLit(Vec<Expr>),
    Union(Box<Expr>, Box<Expr>),
    /// `hom(S, f, op, z) = op(f(e1), op(f(e2), … op(f(en), z)…))`.
    Hom(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
    Fix(Name, Rc<Expr>),
    Let(Name, Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),

    // ----- view extension (Section 3.1) -----
    /// `IDView(e)` — turn a raw object into an object with the identity
    /// view.
    IdView(Box<Expr>),
    /// `(e1 as e2)` — view composition.
    AsView(Box<Expr>, Box<Expr>),
    /// `query(e1, e2)` — materialize `e2`'s view, apply `e1`.
    Query(Box<Expr>, Box<Expr>),
    /// `fuse(e1, e2)` — generalized equality: singleton of the product-view
    /// object when the raw objects coincide, `{}` otherwise.
    Fuse(Box<Expr>, Box<Expr>),
    /// `relobj(l1 = e1, …, ln = en)` — create a relation object (a *new*
    /// identity) over the given objects.
    RelObj(Vec<(Label, Expr)>),

    // ----- class extension (Section 4.1) -----
    ClassExpr(ClassDef),
    /// `c-query(e, C)` — evaluate a set-level query against a class's full
    /// extent.
    CQuery(Box<Expr>, Box<Expr>),
    /// `insert(C, e)` — add `e` to `C`'s own extent.
    Insert(Box<Expr>, Box<Expr>),
    /// `delete(C, e)` — remove `e` from `C`'s own extent.
    Delete(Box<Expr>, Box<Expr>),
    /// `let c1 = class … and … and cn = class … in e end` (Section 4.4).
    /// The bound class identifiers may appear in include *source* positions
    /// of the bodies (cyclically), but not inside `as`/`where` functions or
    /// own-extent expressions.
    LetClasses(Vec<(Name, ClassDef)>, Box<Expr>),

    // ----- offset-resolved forms (the compile tier) -----
    //
    // These variants are produced by the lowering pass in `polyview-trans`
    // (Ohori's index-passing compilation, TOPLAS 1995) and, with
    // [`Idx::Dynamic`] offsets, by `crate::resolve` for code that is not
    // lowered; the parser never emits them and inference rejects them in
    // source position. Each keeps the source label so the dynamic lookup
    // and error messages stay exact.
    /// `e·l` with the field's slot offset resolved at compile time.
    DotAt(Box<Expr>, Label, Idx),
    /// `extract(e, l)` with a resolved slot offset.
    ExtractAt(Box<Expr>, Label, Idx),
    /// `update(e, l, e')` with a resolved slot offset.
    UpdateAt(Box<Expr>, Label, Idx, Box<Expr>),
    /// A record construction with a precomputed [`Layout`]: each entry is
    /// `(slot offset, field expression)` in *source evaluation order*, so
    /// effects run exactly as the un-lowered `Record` would.
    RecordAt(Rc<Layout>, Vec<(usize, Expr)>),
    /// `collect(S, f)` — `hom(S, f, λa.λb.union(a, b), {})` run as one
    /// pass that inserts each `f(e)` into a single set, with exactly the
    /// fold's left-biased result. The lowering pass emits it for that
    /// union-fold shape only.
    Collect(Box<Expr>, Box<Expr>),

    // ----- resolved variable forms (the resolver's output) -----
    //
    // Produced by `crate::resolve` and by the lowering pass, which runs the
    // same scope resolution in its walk; the parser never emits them and
    // inference rejects them. The machine evaluates only code in which
    // every variable, λ, record construction and field operation is
    // resolved (DESIGN.md §13).
    /// A variable resolved to where the machine finds it. The name is
    /// kept for rendering only.
    VarAt(Name, Slot),
    /// A λ (or a `fix`-bound λ) resolved to the code of a flat closure.
    LamAt(Rc<Lambda>),
}

/// Where a resolved variable lives at run time, relative to the frame of
/// the function whose code mentions it (DESIGN.md §13).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The `i`-th local of the frame: a `fix` closure itself (0), then the
    /// parameter, then each enclosing `let` and class binder, outermost
    /// first.
    Local(u32),
    /// The `i`-th variable the closure captured when it was made.
    Captured(u32),
    /// A top-level binding, read from the machine's global vector. Only
    /// code outside every λ reads one; a λ captures the globals it uses.
    Global(u32),
}

/// A resolved λ: the code of a flat closure.
#[derive(Clone, Debug, PartialEq)]
pub struct Lambda {
    /// The `fix` name bound to the closure itself, when this is the λ of a
    /// `fix` (it takes local 0).
    pub fix: Option<Name>,
    pub param: Name,
    /// Where the enclosing frame holds each free variable of the body:
    /// evaluating the λ copies `captures[i]` into the closure, and the
    /// body reads it as `Slot::Captured(i)`.
    pub captures: Vec<Slot>,
    pub body: Expr,
}

/// How a resolved field operation finds its slot.
#[derive(Clone, Debug, PartialEq)]
pub enum Idx {
    /// The offset is a compile-time constant — the operand's record type
    /// was concrete at lowering time.
    Const(usize),
    /// The offset arrives at run time through an index *parameter*: the
    /// slot of an ordinary λ-bound variable (with a reserved `#i`-prefixed
    /// name, kept for rendering only, so source programs cannot capture
    /// it) holding the integer offset supplied at the enclosing function's
    /// instantiation site. A negative value is the "unresolved" sentinel:
    /// the operation looks its label up, and the evaluator counts it.
    At(Name, Slot),
    /// No offset: the operation looks its label up at run time, counted as
    /// a dynamic fallback. The resolver gives it to field operations of
    /// code that was not lowered, and the lowering pass to the residue it
    /// could not resolve.
    Dynamic,
}

impl Expr {
    pub fn unit() -> Expr {
        Expr::Lit(Lit::Unit)
    }
    pub fn int(n: i64) -> Expr {
        Expr::Lit(Lit::Int(n))
    }
    pub fn bool(b: bool) -> Expr {
        Expr::Lit(Lit::Bool(b))
    }
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Lit(Lit::Str(s.into()))
    }
    pub fn var(x: impl Into<Name>) -> Expr {
        Expr::Var(x.into())
    }

    pub fn lam(x: impl Into<Name>, body: Expr) -> Expr {
        Expr::Lam(x.into(), Rc::new(body))
    }

    /// `λ().e` — a function whose domain is `unit` (the paper's notation for
    /// delayed computations). We bind a wildcard-ish name.
    pub fn thunk(body: Expr) -> Expr {
        Expr::lam("_unit", body)
    }

    pub fn app(f: Expr, a: Expr) -> Expr {
        Expr::App(Box::new(f), Box::new(a))
    }

    /// Curried application `f a1 … an`.
    pub fn apps(f: Expr, args: impl IntoIterator<Item = Expr>) -> Expr {
        args.into_iter().fold(f, Expr::app)
    }

    pub fn dot(e: Expr, l: impl Into<Label>) -> Expr {
        Expr::Dot(Box::new(e), l.into())
    }

    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Eq(Box::new(a), Box::new(b))
    }

    pub fn let_(x: impl Into<Name>, rhs: Expr, body: Expr) -> Expr {
        Expr::Let(x.into(), Box::new(rhs), Box::new(body))
    }

    pub fn fix(x: impl Into<Name>, body: Expr) -> Expr {
        Expr::Fix(x.into(), Rc::new(body))
    }

    pub fn if_(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::If(Box::new(c), Box::new(t), Box::new(e))
    }

    pub fn record(fields: impl IntoIterator<Item = Field>) -> Expr {
        Expr::Record(fields.into_iter().collect())
    }

    pub fn set(elems: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::SetLit(elems.into_iter().collect())
    }

    pub fn empty_set() -> Expr {
        Expr::SetLit(Vec::new())
    }

    pub fn union(a: Expr, b: Expr) -> Expr {
        Expr::Union(Box::new(a), Box::new(b))
    }

    pub fn hom(s: Expr, f: Expr, op: Expr, z: Expr) -> Expr {
        Expr::Hom(Box::new(s), Box::new(f), Box::new(op), Box::new(z))
    }

    pub fn extract(e: Expr, l: impl Into<Label>) -> Expr {
        Expr::Extract(Box::new(e), l.into())
    }

    pub fn update(e: Expr, l: impl Into<Label>, v: Expr) -> Expr {
        Expr::Update(Box::new(e), l.into(), Box::new(v))
    }

    pub fn id_view(e: Expr) -> Expr {
        Expr::IdView(Box::new(e))
    }

    pub fn as_view(e: Expr, f: Expr) -> Expr {
        Expr::AsView(Box::new(e), Box::new(f))
    }

    pub fn query(f: Expr, o: Expr) -> Expr {
        Expr::Query(Box::new(f), Box::new(o))
    }

    pub fn fuse(a: Expr, b: Expr) -> Expr {
        Expr::Fuse(Box::new(a), Box::new(b))
    }

    pub fn relobj(fields: impl IntoIterator<Item = (Label, Expr)>) -> Expr {
        Expr::RelObj(fields.into_iter().collect())
    }

    pub fn cquery(f: Expr, c: Expr) -> Expr {
        Expr::CQuery(Box::new(f), Box::new(c))
    }

    pub fn insert(c: Expr, e: Expr) -> Expr {
        Expr::Insert(Box::new(c), Box::new(e))
    }

    pub fn delete(c: Expr, e: Expr) -> Expr {
        Expr::Delete(Box::new(c), Box::new(e))
    }

    /// `(e1, e2)` — pairs abbreviate two-element records with numeric labels
    /// (paper Section 2).
    pub fn pair(a: Expr, b: Expr) -> Expr {
        Expr::tuple([a, b])
    }

    /// `(e1, …, en)` as `[1 = e1, …, n = en]`.
    pub fn tuple(es: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Record(
            es.into_iter()
                .enumerate()
                .map(|(i, e)| Field::immutable(Label::tuple(i + 1), e))
                .collect(),
        )
    }

    /// `e·1` / `e·2` projections.
    pub fn proj(e: Expr, i: usize) -> Expr {
        Expr::dot(e, Label::tuple(i))
    }

    /// `e·l` resolved to a slot offset (lowering-pass output).
    pub fn dot_at(e: Expr, l: impl Into<Label>, idx: Idx) -> Expr {
        Expr::DotAt(Box::new(e), l.into(), idx)
    }

    /// `extract(e, l)` resolved to a slot offset (lowering-pass output).
    pub fn extract_at(e: Expr, l: impl Into<Label>, idx: Idx) -> Expr {
        Expr::ExtractAt(Box::new(e), l.into(), idx)
    }

    /// `update(e, l, v)` resolved to a slot offset (lowering-pass output).
    pub fn update_at(e: Expr, l: impl Into<Label>, idx: Idx, v: Expr) -> Expr {
        Expr::UpdateAt(Box::new(e), l.into(), idx, Box::new(v))
    }

    /// `[f1, …, fn]` with its layout: the fields' labels in canonical
    /// order ([`Layout::new`]), and one entry per field in source order,
    /// its slot with the expression `field` makes of it. Lowering and
    /// resolution both build record constructions with it, so the layout
    /// rule is stated once.
    pub fn record_at(fields: &[Field], mut field: impl FnMut(&Expr) -> Expr) -> Expr {
        let layout = Rc::new(Layout::new(
            fields.iter().map(|f| (f.label.clone(), f.mutable)),
        ));
        let entries = fields
            .iter()
            .map(|f| {
                let off = layout
                    .offset_of(&f.label)
                    .expect("layout built from these labels");
                (off, field(&f.expr))
            })
            .collect();
        Expr::RecordAt(layout, entries)
    }

    /// `collect(s, f)` (lowering-pass output).
    pub fn collect(s: Expr, f: Expr) -> Expr {
        Expr::Collect(Box::new(s), Box::new(f))
    }

    /// Structural size (number of AST nodes). Used by benches and property
    /// test bounds.
    pub fn size(&self) -> usize {
        let mut n = 0;
        crate::visit::walk(self, &mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_desugars_to_numeric_record() {
        let p = Expr::pair(Expr::int(1), Expr::int(2));
        match &p {
            Expr::Record(fs) => {
                assert_eq!(fs.len(), 2);
                assert_eq!(fs[0].label, Label::tuple(1));
                assert!(!fs[0].mutable);
                assert_eq!(fs[1].label, Label::tuple(2));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn apps_folds_left() {
        let e = Expr::apps(Expr::var("f"), [Expr::int(1), Expr::int(2)]);
        assert_eq!(
            e,
            Expr::app(Expr::app(Expr::var("f"), Expr::int(1)), Expr::int(2))
        );
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Expr::int(1).size(), 1);
        assert_eq!(Expr::app(Expr::var("f"), Expr::int(1)).size(), 3);
        let joe = Expr::id_view(Expr::record([
            Field::immutable("Name", Expr::str("Joe")),
            Field::mutable("Salary", Expr::int(2000)),
        ]));
        // IdView + Record + 2 field exprs
        assert_eq!(joe.size(), 4);
    }

    #[test]
    fn proj_uses_numeric_labels() {
        assert_eq!(
            Expr::proj(Expr::var("x"), 1),
            Expr::dot(Expr::var("x"), Label::new("1"))
        );
    }
}
