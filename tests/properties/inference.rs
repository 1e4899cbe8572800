//! Prop. 2 (principal types) and unification properties, over generated
//! types and programs.

use crate::common::{sized_cases, Gen};
use polyview_syntax::{visit, ClassDef, Expr, FieldTy, Mono, Name, Scheme};
use polyview_types::{builtins_sig, infer, instance, Infer};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Alpha-renames `e`: every binder (`fn`, `let`, `fix`, `let class`) and
/// each of its occurrences gets an `_r` suffix. Generated programs never
/// bind a builtin's name, so a variable is bound exactly when it is not
/// free in the whole program.
fn alpha_rename(e: &Expr) -> Expr {
    fn rename(e: &mut Expr, free: &BTreeSet<Name>) {
        let suffix = |x: &mut Name| *x = Name::new(format!("{x}_r"));
        match e {
            Expr::Var(x) if !free.contains(x) => suffix(x),
            Expr::Lam(x, _) | Expr::Fix(x, _) | Expr::Let(x, ..) => suffix(x),
            Expr::LetClasses(binds, _) => binds.iter_mut().for_each(|(c, _)| suffix(c)),
            _ => {}
        }
        for child in children_mut(e) {
            rename(child, free);
        }
    }
    let mut renamed = e.clone();
    rename(&mut renamed, &visit::free_vars(e));
    renamed
}

/// The immediate subterms of a source term, mutably.
fn children_mut(e: &mut Expr) -> Vec<&mut Expr> {
    fn class(cd: &mut ClassDef) -> impl Iterator<Item = &mut Expr> {
        let includes = cd.includes.iter_mut();
        let parts = includes.flat_map(|i| i.sources.iter_mut().chain([&mut i.view, &mut i.pred]));
        std::iter::once(&mut *cd.own).chain(parts)
    }
    match e {
        Expr::Lit(_) | Expr::Var(_) => vec![],
        Expr::Lam(_, b) | Expr::Fix(_, b) => vec![Rc::make_mut(b)],
        Expr::Dot(a, _) | Expr::Extract(a, _) | Expr::IdView(a) => vec![a],
        Expr::Eq(a, b)
        | Expr::App(a, b)
        | Expr::Update(a, _, b)
        | Expr::Union(a, b)
        | Expr::Let(_, a, b)
        | Expr::AsView(a, b)
        | Expr::Query(a, b)
        | Expr::Fuse(a, b)
        | Expr::CQuery(a, b)
        | Expr::Insert(a, b)
        | Expr::Delete(a, b) => vec![a, b],
        Expr::If(a, b, c) => vec![a, b, c],
        Expr::Hom(a, b, c, d) => vec![a, b, c, d],
        Expr::Record(fs) => fs.iter_mut().map(|f| &mut f.expr).collect(),
        Expr::SetLit(es) => es.iter_mut().collect(),
        Expr::RelObj(fs) => fs.iter_mut().map(|(_, e)| e).collect(),
        Expr::ClassExpr(cd) => class(cd).collect(),
        Expr::LetClasses(binds, body) => {
            let classes = binds.iter_mut().flat_map(|(_, cd)| class(cd));
            classes.chain([&mut **body]).collect()
        }
        lowered => unreachable!("lowered form in a source term: {lowered}"),
    }
}

fn principal_scheme(e: &Expr) -> Scheme {
    let mut cx = Infer::new();
    let mut env = builtins_sig::builtin_env();
    let t =
        infer::infer(&mut cx, &mut env, e).unwrap_or_else(|err| panic!("ill-typed ({err}): {e}"));
    cx.generalize(&env, &t)
}

/// Inference is deterministic: the same program always gets the same
/// (alpha-equivalent) principal scheme.
#[test]
fn inference_is_deterministic() {
    sized_cases(96, 1..5, |g, depth| {
        let (e, _) = g.observable_program(depth);
        let s1 = principal_scheme(&e);
        let s2 = principal_scheme(&e);
        assert!(instance::equivalent(&s1, &s2), "{s1} vs {s2} for {e}");
    });
}

/// Alpha-renaming term binders does not change the principal scheme.
#[test]
fn inference_is_stable_under_alpha_renaming() {
    sized_cases(96, 1..4, |g, depth| {
        let (e, _) = g.observable_program(depth);
        let s1 = principal_scheme(&e);
        let s2 = principal_scheme(&alpha_rename(&e));
        assert!(
            instance::equivalent(&s1, &s2),
            "alpha-renaming changed the scheme: {s1} vs {s2} for {e}"
        );
    });
}

/// Every scheme is an instance of itself, and instancehood is
/// transitive down to the by-construction monotype.
#[test]
fn instance_relation_is_reflexive_on_inferred() {
    sized_cases(96, 1..4, |g, depth| {
        let (e, ty) = g.observable_program(depth);
        let s = principal_scheme(&e);
        assert!(
            instance::instance_of(&s, &s),
            "not self-instance: {s} for {e}"
        );
        assert!(
            instance::instance_of(&s, &Scheme::mono(ty.clone())),
            "{ty} not an instance of {s} for {e}"
        );
    });
}

// ---------- unification properties over generated types ----------

/// A ground type with every third leaf replaced by a fresh variable.
fn gen_type_with_vars(g: &mut Gen, cx: &mut Infer, depth: usize) -> Mono {
    fn sprinkle(t: &Mono, cx: &mut Infer, leaves: &mut u32) -> Mono {
        match t {
            Mono::Set(e) => Mono::set(sprinkle(e, cx, leaves)),
            Mono::Record(fs) => Mono::record(
                fs.iter()
                    .map(|(l, f)| {
                        let ty = sprinkle(&f.ty, cx, leaves);
                        (
                            l.clone(),
                            FieldTy {
                                mutable: f.mutable,
                                ty,
                            },
                        )
                    })
                    .collect::<Vec<_>>(),
            ),
            leaf => {
                *leaves += 1;
                if leaves.is_multiple_of(3) {
                    cx.fresh()
                } else {
                    leaf.clone()
                }
            }
        }
    }
    sprinkle(&g.ground_type(depth), cx, &mut 0)
}

/// When unification succeeds, the two types resolve to the same type.
#[test]
fn unification_produces_a_unifier() {
    sized_cases(128, 0..4, |g, depth| {
        let mut cx = Infer::new();
        let a = gen_type_with_vars(g, &mut cx, depth);
        let b = gen_type_with_vars(g, &mut cx, depth);
        if cx.unify(&a, &b).is_ok() {
            assert_eq!(cx.resolve(&a), cx.resolve(&b), "unifying {a} and {b}");
        }
    });
}

/// Unification succeeds symmetrically and produces the same unifier up
/// to resolution.
#[test]
fn unification_is_symmetric() {
    sized_cases(128, 0..4, |g, depth| {
        let mut g2 = g.clone();
        let mut cx1 = Infer::new();
        let a1 = gen_type_with_vars(g, &mut cx1, depth);
        let b1 = gen_type_with_vars(g, &mut cx1, depth);
        let ok1 = cx1.unify(&a1, &b1).is_ok();

        let mut cx2 = Infer::new();
        let a2 = gen_type_with_vars(&mut g2, &mut cx2, depth);
        let b2 = gen_type_with_vars(&mut g2, &mut cx2, depth);
        let ok2 = cx2.unify(&b2, &a2).is_ok();

        assert_eq!(ok1, ok2, "unifying {a1} and {b1}");
        if ok1 {
            assert_eq!(cx1.resolve(&a1), cx2.resolve(&a2), "unifying {a1} and {b1}");
        }
    });
}

/// Unifying a type with itself always succeeds without binding
/// anything observable.
#[test]
fn unification_is_reflexive() {
    sized_cases(128, 0..4, |g, depth| {
        let mut cx = Infer::new();
        let a = gen_type_with_vars(g, &mut cx, depth);
        let before = cx.resolve(&a);
        assert!(cx.unify(&a, &a).is_ok(), "unifying {a} with itself");
        assert_eq!(cx.resolve(&a), before, "unifying {a} with itself");
    });
}

/// Resolution is idempotent after unification.
#[test]
fn resolution_is_idempotent() {
    sized_cases(128, 0..4, |g, depth| {
        let mut cx = Infer::new();
        let a = gen_type_with_vars(g, &mut cx, depth);
        let b = gen_type_with_vars(g, &mut cx, depth);
        let _ = cx.unify(&a, &b);
        let once = cx.resolve(&a);
        let twice = cx.resolve(&once);
        assert_eq!(once, twice, "unifying {a} and {b}");
    });
}
