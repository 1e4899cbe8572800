//! A lightweight pre-order walker over [`Expr`], plus free-variable
//! computation and the scope check for recursive class definitions.

use crate::label::Name;
use crate::term::{ClassDef, Expr, IncludeClause};
use std::collections::BTreeSet;

/// Visit `e` and every sub-expression in pre-order.
pub fn walk(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    for child in children(e) {
        walk(child, f);
    }
}

/// Immediate sub-expressions of `e`, in syntactic order.
pub fn children(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Lit(_) | Expr::Var(_) | Expr::VarAt(..) => Vec::new(),
        Expr::LamAt(l) => vec![&l.body],
        Expr::Eq(a, b)
        | Expr::App(a, b)
        | Expr::Union(a, b)
        | Expr::AsView(a, b)
        | Expr::Query(a, b)
        | Expr::Fuse(a, b)
        | Expr::CQuery(a, b)
        | Expr::Insert(a, b)
        | Expr::Delete(a, b)
        | Expr::Collect(a, b) => vec![a, b],
        Expr::Lam(_, b) | Expr::Fix(_, b) => vec![b],
        Expr::IdView(b) => vec![b],
        Expr::Dot(b, _) | Expr::Extract(b, _) => vec![b],
        Expr::Update(a, _, b) => vec![a, b],
        Expr::DotAt(b, _, _) | Expr::ExtractAt(b, _, _) => vec![b],
        Expr::UpdateAt(a, _, _, b) => vec![a, b],
        Expr::RecordAt(_, fs) => fs.iter().map(|(_, e)| e).collect(),
        Expr::Let(_, a, b) => vec![a, b],
        Expr::If(a, b, c) => vec![a, b, c],
        Expr::Record(fs) => fs.iter().map(|f| &f.expr).collect(),
        Expr::SetLit(es) => es.iter().collect(),
        Expr::Hom(a, b, c, d) => vec![a, b, c, d],
        Expr::RelObj(fs) => fs.iter().map(|(_, e)| e).collect(),
        Expr::ClassExpr(cd) => class_children(cd),
        Expr::LetClasses(binds, body) => {
            let mut v: Vec<&Expr> = Vec::new();
            for (_, cd) in binds {
                v.extend(class_children(cd));
            }
            v.push(body);
            v
        }
    }
}

/// Number of expression nodes in `e` (the term's size, used by the
/// observability layer to report parse output and translation blow-up for
/// the Fig. 3/5 semantics).
pub fn term_size(e: &Expr) -> u64 {
    let mut n = 0u64;
    walk(e, &mut |_| n += 1);
    n
}

/// Total node count of a class definition's constituent expressions.
pub fn class_def_size(cd: &ClassDef) -> u64 {
    class_children(cd).into_iter().map(term_size).sum()
}

/// The constituent expressions of a class definition: its own extent and,
/// per include clause, the sources, viewing function, and predicate.
fn class_children(cd: &ClassDef) -> Vec<&Expr> {
    let mut v: Vec<&Expr> = vec![&cd.own];
    for inc in &cd.includes {
        v.extend(inc.sources.iter());
        v.push(&inc.view);
        v.push(&inc.pred);
    }
    v
}

/// Free term variables of `e`.
pub fn free_vars(e: &Expr) -> BTreeSet<Name> {
    let mut out = BTreeSet::new();
    free_vars_into(e, &mut BTreeSet::new(), &mut out);
    out
}

fn free_vars_into(e: &Expr, bound: &mut BTreeSet<Name>, out: &mut BTreeSet<Name>) {
    match e {
        Expr::Var(x) => {
            if !bound.contains(x) {
                out.insert(x.clone());
            }
        }
        Expr::Lam(x, b) | Expr::Fix(x, b) => {
            let fresh = bound.insert(x.clone());
            free_vars_into(b, bound, out);
            if fresh {
                bound.remove(x);
            }
        }
        Expr::Let(x, rhs, body) => {
            free_vars_into(rhs, bound, out);
            let fresh = bound.insert(x.clone());
            free_vars_into(body, bound, out);
            if fresh {
                bound.remove(x);
            }
        }
        Expr::LetClasses(binds, body) => {
            // Class bodies are scoped with the class names in scope
            // (mutual recursion); the typing rule (Fig. 6) restricts
            // *where* they may appear, checked separately.
            let mut freshly_bound = Vec::new();
            for (c, _) in binds {
                if bound.insert(c.clone()) {
                    freshly_bound.push(c.clone());
                }
            }
            for (_, cd) in binds {
                for child in class_children(cd) {
                    free_vars_into(child, bound, out);
                }
            }
            free_vars_into(body, bound, out);
            for c in freshly_bound {
                bound.remove(&c);
            }
        }
        other => {
            for child in children(other) {
                free_vars_into(child, bound, out);
            }
        }
    }
}

/// A violation of the recursive-class scope restriction of Section 4.4.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecClassViolation {
    /// A recursive class identifier appears in an own-extent expression.
    InOwnExtent(Name),
    /// A recursive class identifier appears inside an `as` viewing function.
    InView(Name),
    /// A recursive class identifier appears inside a `where` predicate.
    InPred(Name),
    /// A recursive class identifier appears *inside* a compound source
    /// expression (a source must be exactly a class identifier, or an
    /// expression not containing any of them).
    InCompoundSource(Name),
}

/// Check the paper's restriction on `let c1 = class … and … in e end`:
/// each source `kCʲᵢ` is either one of the bound identifiers or an
/// expression not containing any of them, and the `as`/`where` functions and
/// own extents contain none of them.
pub fn check_rec_class_scope(binds: &[(Name, ClassDef)]) -> Result<(), RecClassViolation> {
    let names: BTreeSet<Name> = binds.iter().map(|(n, _)| n.clone()).collect();
    let first_mentioned =
        |e: &Expr| -> Option<Name> { free_vars(e).into_iter().find(|v| names.contains(v)) };
    for (_, cd) in binds {
        if let Some(n) = first_mentioned(&cd.own) {
            return Err(RecClassViolation::InOwnExtent(n));
        }
        for IncludeClause {
            sources,
            view,
            pred,
        } in &cd.includes
        {
            for src in sources {
                if matches!(src, Expr::Var(x) if names.contains(x)) {
                    continue; // a bare recursive identifier is fine
                }
                if let Some(n) = first_mentioned(src) {
                    return Err(RecClassViolation::InCompoundSource(n));
                }
            }
            if let Some(n) = first_mentioned(view) {
                return Err(RecClassViolation::InView(n));
            }
            if let Some(n) = first_mentioned(pred) {
                return Err(RecClassViolation::InPred(n));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use crate::term::Field;

    fn cd(own: Expr, includes: Vec<IncludeClause>) -> ClassDef {
        ClassDef {
            own: Box::new(own),
            includes,
        }
    }

    #[test]
    fn free_vars_basic() {
        let e = Expr::lam("x", Expr::app(Expr::var("f"), Expr::var("x")));
        let fv = free_vars(&e);
        assert!(fv.contains("f"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn free_vars_let_shadowing() {
        // let x = y in x end : only y free.
        let e = Expr::let_("x", Expr::var("y"), Expr::var("x"));
        let fv = free_vars(&e);
        assert_eq!(fv.len(), 1);
        assert!(fv.contains("y"));
    }

    #[test]
    fn free_vars_let_rhs_not_shadowed() {
        // let x = x in x end : the rhs x is free.
        let e = Expr::let_("x", Expr::var("x"), Expr::var("x"));
        assert!(free_vars(&e).contains("x"));
    }

    #[test]
    fn shadowed_binder_restores_on_exit() {
        // λx. (λx. x) x — inner binder must not unbind outer.
        let e = Expr::lam(
            "x",
            Expr::app(Expr::lam("x", Expr::var("x")), Expr::var("x")),
        );
        assert!(free_vars(&e).is_empty());
    }

    #[test]
    fn letclasses_binds_names_in_bodies_and_body() {
        let binds = vec![(
            Label::new("C"),
            cd(
                Expr::empty_set(),
                vec![IncludeClause {
                    sources: vec![Expr::var("C")],
                    view: Expr::lam("x", Expr::var("x")),
                    pred: Expr::lam("x", Expr::bool(true)),
                }],
            ),
        )];
        let e = Expr::LetClasses(binds, Box::new(Expr::var("C")));
        assert!(free_vars(&e).is_empty());
    }

    #[test]
    fn rec_scope_allows_bare_identifier_sources() {
        let binds = vec![
            (
                Label::new("C1"),
                cd(
                    Expr::empty_set(),
                    vec![IncludeClause {
                        sources: vec![Expr::var("C2")],
                        view: Expr::lam("x", Expr::var("x")),
                        pred: Expr::lam("x", Expr::bool(true)),
                    }],
                ),
            ),
            (Label::new("C2"), cd(Expr::empty_set(), vec![])),
        ];
        assert_eq!(check_rec_class_scope(&binds), Ok(()));
    }

    #[test]
    fn rec_scope_rejects_identifier_in_pred() {
        // The paper's ill-formed C1 = C \ C2 and C2 = C \ C1 example:
        // the predicate queries the sibling class.
        let mk = |other: &str| {
            cd(
                Expr::empty_set(),
                vec![IncludeClause {
                    sources: vec![Expr::var("C")],
                    view: Expr::lam("x", Expr::var("x")),
                    pred: Expr::lam(
                        "c",
                        Expr::cquery(Expr::lam("s", Expr::bool(true)), Expr::var(other)),
                    ),
                }],
            )
        };
        let binds = vec![(Label::new("C1"), mk("C2")), (Label::new("C2"), mk("C1"))];
        assert_eq!(
            check_rec_class_scope(&binds),
            Err(RecClassViolation::InPred(Label::new("C2")))
        );
    }

    #[test]
    fn rec_scope_rejects_identifier_in_own_extent() {
        let binds = vec![(
            Label::new("C1"),
            cd(
                Expr::cquery(Expr::lam("s", Expr::var("s")), Expr::var("C1")),
                vec![],
            ),
        )];
        assert_eq!(
            check_rec_class_scope(&binds),
            Err(RecClassViolation::InOwnExtent(Label::new("C1")))
        );
    }

    #[test]
    fn rec_scope_rejects_compound_source_mentioning_identifier() {
        let binds = vec![(
            Label::new("C1"),
            cd(
                Expr::empty_set(),
                vec![IncludeClause {
                    // A source that *contains* C1 but is not the bare var.
                    sources: vec![Expr::let_("x", Expr::var("C1"), Expr::var("x"))],
                    view: Expr::lam("x", Expr::var("x")),
                    pred: Expr::lam("x", Expr::bool(true)),
                }],
            ),
        )];
        assert_eq!(
            check_rec_class_scope(&binds),
            Err(RecClassViolation::InCompoundSource(Label::new("C1")))
        );
    }

    #[test]
    fn rec_scope_rejects_identifier_in_view() {
        let binds = vec![(
            Label::new("C1"),
            cd(
                Expr::empty_set(),
                vec![IncludeClause {
                    sources: vec![Expr::var("C1")],
                    view: Expr::lam(
                        "x",
                        Expr::cquery(Expr::lam("s", Expr::var("s")), Expr::var("C1")),
                    ),
                    pred: Expr::lam("x", Expr::bool(true)),
                }],
            ),
        )];
        assert_eq!(
            check_rec_class_scope(&binds),
            Err(RecClassViolation::InView(Label::new("C1")))
        );
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::record([
            Field::immutable("a", Expr::int(1)),
            Field::mutable("b", Expr::pair(Expr::int(2), Expr::int(3))),
        ]);
        let mut count = 0;
        walk(&e, &mut |_| count += 1);
        // record + 1 + pair-record + 2 + 3
        assert_eq!(count, 5);
        assert_eq!(term_size(&e), 5);
    }

    #[test]
    fn term_size_counts_class_definitions() {
        // class {∅} include C as (λx.x) where (λx.true) end
        let e = Expr::ClassExpr(cd(
            Expr::empty_set(),
            vec![IncludeClause {
                sources: vec![Expr::var("C")],
                view: Expr::lam("x", Expr::var("x")),
                pred: Expr::lam("x", Expr::bool(true)),
            }],
        ));
        // ClassExpr + own set + source var + (lam + var) + (lam + true)
        assert_eq!(term_size(&e), 7);
        if let Expr::ClassExpr(cd) = &e {
            assert_eq!(class_def_size(cd), 6);
        }
    }
}
