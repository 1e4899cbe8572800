//! Fig. 5 and Section 4.4: translation of classes into the object language.
//!
//! A class becomes a record `[OwnExt := S, Ext = λ().…]`. We realize the
//! mutable own extent with an indirection cell so that the delayed `Ext`
//! computation reads the *current* extent (the paper's own `extract`
//! L-value sharing makes this expressible in the language itself):
//!
//! ```text
//! tr(class S include C … as e where p … end) =
//!   let cell = [V := tr(S)] in
//!   let src  = tr(C) in … let view = tr(e) in let pred = tr(p) in …
//!   [OwnExt := extract(cell, V),
//!    Ext = λ().  cell·V ∪ₒ (select as view
//!                           from intersect((src·Ext)(), …)
//!                           where pred) ∪ₒ …]
//! ```
//!
//! where `∪ₒ` is the objeq-collapsing left-biased union of Section 3.1,
//! itself definable in the object language. Recursive groups build the
//! `f^i(L)` functions of Section 4.4 with `L` represented as a set of
//! integer class indices; `member`/`union` on `{int}` implement the
//! visited-set test, giving the termination argument of Prop. 5 its literal
//! executable form.

use crate::views::fresh;
use polyview_syntax::sugar;
use polyview_syntax::{ClassDef, Expr, Field, IncludeClause, Label, Name};
use std::collections::HashMap;

const OWN_EXT: &str = "OwnExt";
const EXT: &str = "Ext";
const CELL_FIELD: &str = "V";

/// `memberraw(x, S)` — does `S` contain an object with `x`'s raw object?
fn member_raw(x: Expr, s: Expr) -> Expr {
    let y = fresh("c_y");
    Expr::hom(
        s,
        Expr::lam(y.clone(), sugar::objeq(x, Expr::Var(y))),
        or2(),
        Expr::bool(false),
    )
}

fn or2() -> Expr {
    let a = fresh("c_oa");
    let b = fresh("c_ob");
    Expr::lam(
        a.clone(),
        Expr::lam(b.clone(), sugar::or(Expr::Var(a), Expr::Var(b))),
    )
}

fn union2() -> Expr {
    let a = fresh("c_ua");
    let b = fresh("c_ub");
    Expr::lam(
        a.clone(),
        Expr::lam(b.clone(), Expr::union(Expr::Var(a), Expr::Var(b))),
    )
}

/// Left-biased objeq-collapsing union on sets of objects:
/// `S1 ∪ { x ∈ S2 | raw(x) ∉ raws(S1) }`.
fn union_obj(s1: Expr, s2: Expr) -> Expr {
    let a = fresh("c_l");
    let x = fresh("c_x");
    Expr::let_(
        a.clone(),
        s1,
        Expr::union(
            Expr::Var(a.clone()),
            sugar::filter(
                Expr::lam(
                    x.clone(),
                    sugar::not(member_raw(Expr::Var(x), Expr::Var(a))),
                ),
                s2,
            ),
        ),
    )
}

/// n-ary flat fuse of object *expressions*: a set with the single fused
/// object carrying the flat `[1 = …, …, m = …]` tuple view when all raws
/// coincide, empty otherwise. For `m = 1`, the singleton of the object.
fn fuse_flat(objs: Vec<Expr>) -> Expr {
    let m = objs.len();
    assert!(m >= 1);
    if m == 1 {
        return Expr::set(objs);
    }
    let mut it = objs.into_iter();
    let first = it.next().expect("m >= 1");
    let second = it.next().expect("m >= 2");
    // Chain binary fuses: set of nested-pair-view objects.
    let mut acc = Expr::fuse(first, second);
    for o in it {
        let f = fresh("c_f");
        acc = Expr::hom(
            acc,
            Expr::lam(f.clone(), Expr::fuse(Expr::Var(f), o)),
            union2(),
            Expr::empty_set(),
        );
    }
    if m == 2 {
        // Binary fuse already presents the flat pair view.
        return acc;
    }
    // Flatten the left-nested pair view ((…(v1,v2)…),vm) into [1…m].
    let p = fresh("c_p");
    let fields: Vec<Field> = (1..=m)
        .map(|j| {
            let mut path = Expr::Var(p.clone());
            for _ in 0..(m - j) {
                path = Expr::proj(path, 1);
            }
            if j > 1 {
                path = Expr::proj(path, 2);
            }
            Field::immutable(Label::tuple(j), path)
        })
        .collect();
    let flat = Expr::lam(p, Expr::Record(fields));
    let o = fresh("c_o");
    sugar::map(Expr::lam(o.clone(), Expr::as_view(Expr::Var(o), flat)), acc)
}

/// The candidate set of an include clause: the n-ary intersection of the
/// source extents (each an expression of type `{obj(τ)}`).
fn intersect_exts(exts: Vec<Expr>) -> Expr {
    let m = exts.len();
    assert!(m >= 1);
    if m == 1 {
        return exts.into_iter().next().expect("m = 1");
    }
    let xx = fresh("c_X");
    let components: Vec<Expr> = (1..=m)
        .map(|j| Expr::proj(Expr::Var(xx.clone()), j))
        .collect();
    Expr::hom(
        sugar::prod(exts),
        Expr::lam(xx, fuse_flat(components)),
        union2(),
        Expr::empty_set(),
    )
}

/// How an include source's extent is computed inside `Ext`.
enum SourceExt {
    /// An external class value bound to this variable: `(src·Ext)()`.
    External(Name),
    /// Recursive sibling with this index: the `f^a(L ∪ {a})()` call.
    Recursive(usize),
}

struct IncludePlan {
    sources: Vec<SourceExt>,
    view_var: Name,
    pred_var: Name,
}

/// Build the body of `Ext` (after the λ()): own ∪ₒ select₁ ∪ₒ … ∪ₒ selectₙ.
/// `l_var` is the visited-set variable for recursive groups (`None` for
/// plain classes), `fn_names[i]` the recursive function bound for sibling
/// `i`.
fn ext_body(cell: &Name, plans: &[IncludePlan], l_var: Option<&Name>, fn_names: &[Name]) -> Expr {
    let mut acc = Expr::dot(Expr::Var(cell.clone()), CELL_FIELD);
    for plan in plans {
        let exts: Vec<Expr> = plan
            .sources
            .iter()
            .map(|s| match s {
                SourceExt::External(v) => {
                    Expr::app(Expr::dot(Expr::Var(v.clone()), EXT), Expr::unit())
                }
                SourceExt::Recursive(a) => {
                    let l = l_var.expect("recursive source outside a recursive group");
                    let idx = Expr::int(*a as i64 + 1);
                    Expr::if_(
                        sugar::member(idx.clone(), Expr::Var(l.clone())),
                        Expr::empty_set(),
                        Expr::app(
                            Expr::app(
                                Expr::Var(fn_names[*a].clone()),
                                Expr::union(Expr::Var(l.clone()), Expr::set([idx])),
                            ),
                            Expr::unit(),
                        ),
                    )
                }
            })
            .collect();
        let candidates = intersect_exts(exts);
        let selected = sugar::select_as_from_where(
            Expr::Var(plan.view_var.clone()),
            candidates,
            Expr::Var(plan.pred_var.clone()),
        );
        acc = union_obj(acc, selected);
    }
    acc
}

/// Translate one class definition into lets + the class record, for the
/// non-recursive form (`rec` empty) or as the body skeleton of a recursive
/// group member.
struct ClassParts {
    /// `let` bindings (name, rhs), innermost last.
    lets: Vec<(Name, Expr)>,
    cell: Name,
    plans: Vec<IncludePlan>,
}

fn lower_class_def(cd: &ClassDef, rec_index: &HashMap<Name, usize>) -> ClassParts {
    let cell = fresh("c_cell");
    let mut lets = vec![(
        cell.clone(),
        Expr::Record(vec![Field::mutable(
            Label::new(CELL_FIELD),
            translate_classes(&cd.own),
        )]),
    )];
    let mut plans = Vec::with_capacity(cd.includes.len());
    for IncludeClause {
        sources,
        view,
        pred,
    } in &cd.includes
    {
        let mut plan_sources = Vec::with_capacity(sources.len());
        for s in sources {
            if let Expr::Var(name) = s {
                if let Some(&i) = rec_index.get(name) {
                    plan_sources.push(SourceExt::Recursive(i));
                    continue;
                }
            }
            let v = fresh("c_src");
            lets.push((v.clone(), translate_classes(s)));
            plan_sources.push(SourceExt::External(v));
        }
        let view_var = fresh("c_view");
        lets.push((view_var.clone(), translate_classes(view)));
        let pred_var = fresh("c_pred");
        lets.push((pred_var.clone(), translate_classes(pred)));
        plans.push(IncludePlan {
            sources: plan_sources,
            view_var,
            pred_var,
        });
    }
    ClassParts { lets, cell, plans }
}

fn wrap_lets(lets: Vec<(Name, Expr)>, body: Expr) -> Expr {
    lets.into_iter()
        .rev()
        .fold(body, |acc, (n, rhs)| Expr::let_(n, rhs, acc))
}

/// The class record `[OwnExt := extract(cell, V), Ext = ext]`.
fn class_record(cell: &Name, ext: Expr) -> Expr {
    Expr::Record(vec![
        Field::mutable(
            Label::new(OWN_EXT),
            Expr::extract(Expr::Var(cell.clone()), CELL_FIELD),
        ),
        Field::immutable(Label::new(EXT), ext),
    ])
}

/// Eliminate all class constructs, producing an object-language term.
pub fn translate_classes(e: &Expr) -> Expr {
    match e {
        Expr::ClassExpr(cd) => {
            let parts = lower_class_def(cd, &HashMap::new());
            let ext = Expr::thunk(ext_body(&parts.cell, &parts.plans, None, &[]));
            let record = class_record(&parts.cell, ext);
            wrap_lets(parts.lets, record)
        }
        Expr::CQuery(f, c) => Expr::app(
            translate_classes(f),
            Expr::app(Expr::dot(translate_classes(c), EXT), Expr::unit()),
        ),
        Expr::Insert(c, obj) => {
            // tr: update(C, OwnExt, C·OwnExt ∪ₒ {tr(e)}).
            let cv = fresh("c_c");
            let pv = fresh("c_e");
            Expr::let_(
                cv.clone(),
                translate_classes(c),
                Expr::let_(
                    pv.clone(),
                    translate_classes(obj),
                    Expr::update(
                        Expr::Var(cv.clone()),
                        OWN_EXT,
                        union_obj(
                            Expr::dot(Expr::Var(cv), OWN_EXT),
                            Expr::set([Expr::Var(pv)]),
                        ),
                    ),
                ),
            )
        }
        Expr::Delete(c, obj) => {
            // remove by objeq: keep the own-extent members whose raw
            // differs from tr(e)'s.
            let cv = fresh("c_c");
            let pv = fresh("c_e");
            let x = fresh("c_x");
            Expr::let_(
                cv.clone(),
                translate_classes(c),
                Expr::let_(
                    pv.clone(),
                    translate_classes(obj),
                    Expr::update(
                        Expr::Var(cv.clone()),
                        OWN_EXT,
                        sugar::filter(
                            Expr::lam(
                                x.clone(),
                                sugar::not(sugar::objeq(Expr::Var(x), Expr::Var(pv))),
                            ),
                            Expr::dot(Expr::Var(cv), OWN_EXT),
                        ),
                    ),
                ),
            )
        }
        Expr::LetClasses(binds, body) => {
            let rec_index: HashMap<Name, usize> = binds
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (n.clone(), i))
                .collect();
            let mut all_lets = Vec::new();
            let mut member_parts = Vec::with_capacity(binds.len());
            for (_, cd) in binds {
                let parts = lower_class_def(cd, &rec_index);
                all_lets.extend(parts.lets.clone());
                member_parts.push(parts);
            }
            // The mutually recursive f^i functions of Section 4.4.
            let fn_names: Vec<Name> = (0..binds.len()).map(|_| fresh("c_fn")).collect();
            let l_param = fresh("c_L");
            let defs: Vec<(Label, Label, Expr)> = member_parts
                .iter()
                .zip(&fn_names)
                .map(|(parts, fname)| {
                    let body = Expr::thunk(ext_body(
                        &parts.cell,
                        &parts.plans,
                        Some(&l_param),
                        &fn_names,
                    ));
                    (fname.clone(), l_param.clone(), body)
                })
                .collect();
            // Bind class records: c_i = [OwnExt := extract(cell_i, V),
            //                            Ext = (f_i {i})].
            let mut inner = translate_classes(body);
            for (i, ((name, _), parts)) in binds.iter().zip(&member_parts).enumerate().rev() {
                let ext = Expr::app(
                    Expr::Var(fn_names[i].clone()),
                    Expr::set([Expr::int(i as i64 + 1)]),
                );
                inner = Expr::let_(name.clone(), class_record(&parts.cell, ext), inner);
            }
            let with_funs = sugar::fun_and(defs, inner);
            wrap_lets(all_lets, with_funs)
        }

        // ----- homomorphic cases -----
        // Resolved forms come from lowering, which runs after this
        // pass; they hold no view or class construct.
        Expr::Lit(_) | Expr::Var(_) | Expr::VarAt(..) | Expr::LamAt(_) => e.clone(),
        Expr::Eq(a, b) => Expr::eq(translate_classes(a), translate_classes(b)),
        Expr::Lam(x, b) => Expr::lam(x.clone(), translate_classes(b)),
        Expr::App(f, a) => Expr::app(translate_classes(f), translate_classes(a)),
        Expr::Record(fs) => Expr::Record(
            fs.iter()
                .map(|f| Field {
                    label: f.label.clone(),
                    mutable: f.mutable,
                    expr: translate_classes(&f.expr),
                })
                .collect(),
        ),
        Expr::Dot(b, l) => Expr::Dot(Box::new(translate_classes(b)), l.clone()),
        Expr::Extract(b, l) => Expr::Extract(Box::new(translate_classes(b)), l.clone()),
        Expr::Update(b, l, v) => Expr::Update(
            Box::new(translate_classes(b)),
            l.clone(),
            Box::new(translate_classes(v)),
        ),
        Expr::SetLit(es) => Expr::SetLit(es.iter().map(translate_classes).collect()),
        Expr::Union(a, b) => Expr::union(translate_classes(a), translate_classes(b)),
        Expr::Hom(s, f, op, z) => Expr::hom(
            translate_classes(s),
            translate_classes(f),
            translate_classes(op),
            translate_classes(z),
        ),
        Expr::Fix(x, b) => Expr::fix(x.clone(), translate_classes(b)),
        Expr::Let(x, r, b) => Expr::Let(
            x.clone(),
            Box::new(translate_classes(r)),
            Box::new(translate_classes(b)),
        ),
        Expr::If(c, t, e2) => Expr::if_(
            translate_classes(c),
            translate_classes(t),
            translate_classes(e2),
        ),
        Expr::IdView(b) => Expr::IdView(Box::new(translate_classes(b))),
        Expr::AsView(a, b) => Expr::as_view(translate_classes(a), translate_classes(b)),
        Expr::Query(a, b) => Expr::query(translate_classes(a), translate_classes(b)),
        Expr::Fuse(a, b) => Expr::fuse(translate_classes(a), translate_classes(b)),
        Expr::RelObj(fs) => Expr::RelObj(
            fs.iter()
                .map(|(l, e)| (l.clone(), translate_classes(e)))
                .collect(),
        ),

        // ----- lowered forms (offset-resolved; structure-preserving) -----
        Expr::DotAt(b, l, i) => Expr::DotAt(Box::new(translate_classes(b)), l.clone(), i.clone()),
        Expr::ExtractAt(b, l, i) => {
            Expr::ExtractAt(Box::new(translate_classes(b)), l.clone(), i.clone())
        }
        Expr::UpdateAt(b, l, i, v) => Expr::UpdateAt(
            Box::new(translate_classes(b)),
            l.clone(),
            i.clone(),
            Box::new(translate_classes(v)),
        ),
        Expr::RecordAt(layout, fs) => Expr::RecordAt(
            layout.clone(),
            fs.iter()
                .map(|(off, fe)| (*off, translate_classes(fe)))
                .collect(),
        ),
        Expr::Collect(s, f) => Expr::collect(translate_classes(s), translate_classes(f)),
    }
}

/// Does the expression still contain any class construct?
pub fn has_class_constructs(e: &Expr) -> bool {
    let mut found = false;
    polyview_syntax::visit::walk(e, &mut |n| {
        if matches!(
            n,
            Expr::ClassExpr(_)
                | Expr::CQuery(..)
                | Expr::Insert(..)
                | Expr::Delete(..)
                | Expr::LetClasses(..)
        ) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_syntax::builder as b;

    fn simple_class() -> Expr {
        b::class(
            b::set([b::id_view(b::record([b::imm("Name", b::str("A"))]))]),
            vec![],
        )
    }

    #[test]
    fn class_translation_removes_class_constructs() {
        let t = translate_classes(&simple_class());
        assert!(!has_class_constructs(&t));
    }

    #[test]
    fn class_record_has_ownext_and_ext() {
        let t = translate_classes(&simple_class());
        let printed = t.to_string();
        assert!(printed.contains("OwnExt := extract("), "got: {printed}");
        assert!(printed.contains("Ext = fn _unit =>"), "got: {printed}");
    }

    #[test]
    fn cquery_translation_forces_ext() {
        let t = translate_classes(&b::cquery(b::lam("s", b::v("s")), simple_class()));
        assert!(!has_class_constructs(&t));
        let printed = t.to_string();
        assert!(printed.contains(".Ext ()"), "got: {printed}");
    }

    #[test]
    fn include_translation_mentions_sources_once() {
        let e = b::let_(
            "Src",
            simple_class(),
            b::class(
                b::empty(),
                vec![b::include(
                    vec![b::v("Src")],
                    b::lam("x", b::v("x")),
                    b::lam("x", b::boolean(true)),
                )],
            ),
        );
        let t = translate_classes(&e);
        assert!(!has_class_constructs(&t));
    }

    #[test]
    fn recursive_group_builds_visited_set_functions() {
        let idv = || b::lam("x", b::v("x"));
        let tp = || b::lam("x", b::boolean(true));
        let e = b::let_classes(
            vec![
                (
                    "A",
                    b::class(b::empty(), vec![b::include(vec![b::v("B")], idv(), tp())]),
                ),
                (
                    "B",
                    b::class(b::empty(), vec![b::include(vec![b::v("A")], idv(), tp())]),
                ),
            ],
            b::cquery(b::lam("s", b::v("s")), b::v("A")),
        );
        let t = translate_classes(&e);
        assert!(!has_class_constructs(&t));
        // Translation must be closed: the class names were eliminated.
        assert!(polyview_syntax::visit::free_vars(&t).is_empty());
    }

    #[test]
    fn full_pipeline_is_pure_core() {
        let e = b::cquery(b::lam("s", b::v("s")), simple_class());
        let t = crate::translate(&e);
        assert!(!has_class_constructs(&t));
        assert!(!crate::views::has_view_constructs(&t));
    }

    #[test]
    fn fuse_flat_unary_is_singleton() {
        let t = fuse_flat(vec![b::v("o")]);
        assert_eq!(t, b::set([b::v("o")]));
    }

    #[test]
    fn fuse_flat_ternary_flattens() {
        let t = fuse_flat(vec![b::v("a"), b::v("b"), b::v("c")]);
        let printed = t.to_string();
        // Flattening view builds [1 = p.1.1, 2 = p.1.2, 3 = p.2].
        assert!(printed.contains("1 = "), "got: {printed}");
        assert!(printed.contains(".1.1"), "got: {printed}");
        assert!(printed.contains(".1.2"), "got: {printed}");
    }
}
