//! Fig. 3: translation of objects and views into the core language.
//!
//! ```text
//! tr(IDView(e))        = (tr(e), λx.x)
//! tr(e1 as e2)         = (tr(e1)·1, λx.(tr(e2) (tr(e1)·2 x)))
//! tr(query(e1, e2))    = tr(e1) (tr(e2)·2 (tr(e2)·1))
//! tr(fuse(e1, e2))     = if eq(tr(e1)·1, tr(e2)·1)
//!                        then {(tr(e1)·1, λx.((tr(e1)·2 x), (tr(e2)·2 x)))}
//!                        else {}
//! tr(relobj(l1=e1,…))  = ([l1 = tr(e1)·1, …],
//!                         λx.[l1 = (tr(e1)·2 (x·l1)), …])
//! ```
//!
//! Each duplicated `tr(ei)` is bound once with a `let` so object identities
//! are not re-minted (see the crate docs).

use polyview_syntax::{Expr, Field, Label};
use std::cell::Cell;

thread_local! {
    static COUNTER: Cell<u64> = const { Cell::new(0) };
}

/// A fresh binder name; `#`-prefixed names are unreachable from the parser,
/// so capture is impossible for parsed programs.
pub(crate) fn fresh(base: &str) -> Label {
    COUNTER.with(|c| {
        let n = c.get();
        c.set(n + 1);
        Label::new(format!("#{base}{n}"))
    })
}

/// Eliminate all object/view constructs (the input must already be free of
/// class constructs; see [`crate::classes`]).
pub fn translate_views(e: &Expr) -> Expr {
    match e {
        // ----- the five rules of Fig. 3 (plus query) -----
        Expr::IdView(inner) => {
            let raw = translate_views(inner);
            let x = fresh("v_x");
            Expr::pair(raw, Expr::lam(x.clone(), Expr::Var(x)))
        }
        Expr::AsView(obj, f) => {
            let p = fresh("v_p");
            let g = fresh("v_g");
            let x = fresh("v_x");
            Expr::let_(
                p.clone(),
                translate_views(obj),
                Expr::let_(
                    g.clone(),
                    translate_views(f),
                    Expr::pair(
                        Expr::proj(Expr::Var(p.clone()), 1),
                        Expr::lam(
                            x.clone(),
                            Expr::app(
                                Expr::Var(g),
                                Expr::app(Expr::proj(Expr::Var(p), 2), Expr::Var(x)),
                            ),
                        ),
                    ),
                ),
            )
        }
        Expr::Query(f, obj) => {
            let p = fresh("v_p");
            Expr::let_(
                p.clone(),
                translate_views(obj),
                Expr::app(
                    translate_views(f),
                    Expr::app(
                        Expr::proj(Expr::Var(p.clone()), 2),
                        Expr::proj(Expr::Var(p), 1),
                    ),
                ),
            )
        }
        Expr::Fuse(a, b) => {
            let p1 = fresh("v_p");
            let p2 = fresh("v_q");
            let x = fresh("v_x");
            Expr::let_(
                p1.clone(),
                translate_views(a),
                Expr::let_(
                    p2.clone(),
                    translate_views(b),
                    Expr::if_(
                        Expr::eq(
                            Expr::proj(Expr::Var(p1.clone()), 1),
                            Expr::proj(Expr::Var(p2.clone()), 1),
                        ),
                        Expr::set([Expr::pair(
                            Expr::proj(Expr::Var(p1.clone()), 1),
                            Expr::lam(
                                x.clone(),
                                Expr::pair(
                                    Expr::app(Expr::proj(Expr::Var(p1), 2), Expr::Var(x.clone())),
                                    Expr::app(Expr::proj(Expr::Var(p2), 2), Expr::Var(x)),
                                ),
                            ),
                        )]),
                        Expr::empty_set(),
                    ),
                ),
            )
        }
        Expr::RelObj(fields) => {
            let bound: Vec<(Label, Label, Expr)> = fields
                .iter()
                .map(|(l, e)| (l.clone(), fresh("v_r"), translate_views(e)))
                .collect();
            let x = fresh("v_x");
            let raw = Expr::Record(
                bound
                    .iter()
                    .map(|(l, p, _)| {
                        Field::immutable(l.clone(), Expr::proj(Expr::Var(p.clone()), 1))
                    })
                    .collect(),
            );
            let view_body = Expr::Record(
                bound
                    .iter()
                    .map(|(l, p, _)| {
                        Field::immutable(
                            l.clone(),
                            Expr::app(
                                Expr::proj(Expr::Var(p.clone()), 2),
                                Expr::Dot(Box::new(Expr::Var(x.clone())), l.clone()),
                            ),
                        )
                    })
                    .collect(),
            );
            let mut out = Expr::pair(raw, Expr::lam(x, view_body));
            for (_, p, te) in bound.into_iter().rev() {
                out = Expr::let_(p, te, out);
            }
            out
        }

        // ----- classes must be gone already -----
        Expr::ClassExpr(_)
        | Expr::CQuery(..)
        | Expr::Insert(..)
        | Expr::Delete(..)
        | Expr::LetClasses(..) => {
            panic!("translate_views: class construct remains; run translate_classes first")
        }

        // ----- homomorphic cases -----
        // Resolved forms come from lowering, which runs after this
        // pass; they hold no view or class construct.
        Expr::Lit(_) | Expr::Var(_) | Expr::VarAt(..) | Expr::LamAt(_) => e.clone(),
        Expr::Eq(a, b) => Expr::eq(translate_views(a), translate_views(b)),
        Expr::Lam(x, b) => Expr::lam(x.clone(), translate_views(b)),
        Expr::App(f, a) => Expr::app(translate_views(f), translate_views(a)),
        Expr::Record(fs) => Expr::Record(
            fs.iter()
                .map(|f| Field {
                    label: f.label.clone(),
                    mutable: f.mutable,
                    expr: translate_views(&f.expr),
                })
                .collect(),
        ),
        Expr::Dot(b, l) => Expr::Dot(Box::new(translate_views(b)), l.clone()),
        Expr::Extract(b, l) => Expr::Extract(Box::new(translate_views(b)), l.clone()),
        Expr::Update(b, l, v) => Expr::Update(
            Box::new(translate_views(b)),
            l.clone(),
            Box::new(translate_views(v)),
        ),
        Expr::SetLit(es) => Expr::SetLit(es.iter().map(translate_views).collect()),
        Expr::Union(a, b) => Expr::union(translate_views(a), translate_views(b)),
        Expr::Hom(s, f, op, z) => Expr::hom(
            translate_views(s),
            translate_views(f),
            translate_views(op),
            translate_views(z),
        ),
        Expr::Fix(x, b) => Expr::fix(x.clone(), translate_views(b)),
        Expr::Let(x, r, b) => Expr::Let(
            x.clone(),
            Box::new(translate_views(r)),
            Box::new(translate_views(b)),
        ),
        Expr::If(c, t, e2) => {
            Expr::if_(translate_views(c), translate_views(t), translate_views(e2))
        }

        // ----- lowered forms (offset-resolved; structure-preserving) -----
        Expr::DotAt(b, l, i) => Expr::DotAt(Box::new(translate_views(b)), l.clone(), i.clone()),
        Expr::ExtractAt(b, l, i) => {
            Expr::ExtractAt(Box::new(translate_views(b)), l.clone(), i.clone())
        }
        Expr::UpdateAt(b, l, i, v) => Expr::UpdateAt(
            Box::new(translate_views(b)),
            l.clone(),
            i.clone(),
            Box::new(translate_views(v)),
        ),
        Expr::RecordAt(layout, fs) => Expr::RecordAt(
            layout.clone(),
            fs.iter()
                .map(|(off, fe)| (*off, translate_views(fe)))
                .collect(),
        ),
        Expr::Collect(s, f) => Expr::collect(translate_views(s), translate_views(f)),
    }
}

/// Does the expression still contain any object/view construct?
pub fn has_view_constructs(e: &Expr) -> bool {
    let mut found = false;
    polyview_syntax::visit::walk(e, &mut |n| {
        if matches!(
            n,
            Expr::IdView(_) | Expr::AsView(..) | Expr::Query(..) | Expr::Fuse(..) | Expr::RelObj(_)
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

    #[test]
    fn idview_becomes_identity_pair() {
        let t = translate_views(&b::id_view(b::record([b::imm("a", b::int(1))])));
        assert!(!has_view_constructs(&t));
        // Shape: [1 = [a = 1], 2 = fn x => x]
        match &t {
            Expr::Record(fs) => {
                assert_eq!(fs.len(), 2);
                assert!(matches!(fs[1].expr, Expr::Lam(..)));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn translation_removes_all_view_constructs() {
        let e = b::query(
            b::lam("x", b::dot(b::v("x"), "a")),
            b::as_view(
                b::id_view(b::record([b::imm("a", b::int(1))])),
                b::lam("r", b::v("r")),
            ),
        );
        let t = translate_views(&e);
        assert!(!has_view_constructs(&t));
    }

    #[test]
    fn fuse_translation_compares_raws() {
        let t = translate_views(&b::fuse(
            b::id_view(b::record([])),
            b::id_view(b::record([])),
        ));
        assert!(!has_view_constructs(&t));
        let printed = t.to_string();
        assert!(printed.contains("eq("), "got: {printed}");
        assert!(printed.contains("if"), "got: {printed}");
    }

    #[test]
    fn relobj_translation_builds_raw_record() {
        let t = translate_views(&b::relobj([
            ("x", b::id_view(b::record([b::imm("a", b::int(1))]))),
            ("y", b::id_view(b::record([b::imm("b", b::int(2))]))),
        ]));
        assert!(!has_view_constructs(&t));
    }

    #[test]
    fn homomorphic_on_core() {
        let e = b::let_(
            "f",
            b::lam("x", b::add(b::v("x"), b::int(1))),
            b::app(b::v("f"), b::int(1)),
        );
        assert_eq!(translate_views(&e), e);
    }

    #[test]
    #[should_panic(expected = "class construct remains")]
    fn class_constructs_rejected() {
        translate_views(&b::class(b::empty(), vec![]));
    }

    #[test]
    fn fresh_names_are_distinct() {
        assert_ne!(fresh("a"), fresh("a"));
    }
}
