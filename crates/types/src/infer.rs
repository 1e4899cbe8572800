//! Type inference for the full language (Figs. 1, 2, 4 and 6).
//!
//! The algorithm is W-style: each rule introduces fresh kinded variables and
//! unifies. All rules are syntax-directed, so inference for the view and
//! class layers is a direct extension of the core algorithm — this is the
//! paper's observation that "the extended language also preserves the
//! existence of a complete type inference algorithm".

use crate::ctx::Infer;
use crate::env::TypeEnv;
use crate::error::TypeError;
use polyview_syntax::visit::check_rec_class_scope;
use polyview_syntax::{ClassDef, Expr, FieldTy, Kind, Lit, Mono, Scheme};

/// Infer the type of `e` under `env`, extending the substitution in `cx`.
/// The returned type is *not* resolved; callers resolve or generalize.
pub fn infer(cx: &mut Infer, env: &mut TypeEnv, e: &Expr) -> Result<Mono, TypeError> {
    match e {
        // ---------- core (Fig. 1 and standard rules) ----------
        Expr::Lit(l) => Ok(lit_type(l)),
        Expr::Var(x) => match env.lookup(x) {
            Some(s) => {
                let s = s.clone();
                let (t, pairs) = cx.instantiate_mapped(&s);
                cx.record_instantiation(crate::table::node_id(e), pairs);
                Ok(t)
            }
            None => Err(TypeError::Unbound(x.clone())),
        },
        Expr::Eq(a, b) => {
            let ta = infer(cx, env, a)?;
            let tb = infer(cx, env, b)?;
            cx.unify(&ta, &tb)?;
            Ok(Mono::bool())
        }
        Expr::Lam(x, body) => {
            let a = cx.fresh();
            env.push(x.clone(), Scheme::mono(a.clone()));
            let r = infer(cx, env, body);
            env.pop();
            Ok(Mono::arrow(a, r?))
        }
        Expr::App(f, a) => {
            let tf = infer(cx, env, f)?;
            let ta = infer(cx, env, a)?;
            let r = cx.fresh();
            cx.unify(&tf, &Mono::arrow(ta, r.clone()))?;
            Ok(r)
        }
        Expr::Record(fields) => {
            // (rec): each field expression may have type τ or L(τ); an
            // L-value flows in only from `extract`, transferring the slot.
            let mut tys = std::collections::BTreeMap::new();
            for f in fields {
                let t = infer(cx, env, &f.expr)?;
                let t = match cx.shallow(&t) {
                    Mono::LVal(inner) => *inner,
                    other => other,
                };
                let field = FieldTy {
                    mutable: f.mutable,
                    ty: t,
                };
                if tys.insert(f.label.clone(), field).is_some() {
                    return Err(TypeError::DuplicateField(f.label.clone()));
                }
            }
            Ok(Mono::Record(tys))
        }
        Expr::Dot(obj, l) => {
            // (dot): K,A ▷ e : τ1, K ⊢ τ1 :: [[l = τ2]] ⟹ e·l : τ2.
            let t = infer(cx, env, obj)?;
            cx.record_operand(crate::table::node_id(e), t.clone());
            let f = cx.fresh();
            cx.constrain(&t, Kind::has_field(l.clone(), f.clone()))?;
            Ok(f)
        }
        Expr::Extract(obj, l) => {
            // (ext): requires a *mutable* field; yields L(τ2).
            let t = infer(cx, env, obj)?;
            cx.record_operand(crate::table::node_id(e), t.clone());
            let f = cx.fresh();
            cx.constrain(&t, Kind::has_mutable_field(l.clone(), f.clone()))?;
            Ok(Mono::lval(f))
        }
        Expr::Update(obj, l, v) => {
            // (upd): requires a mutable field; yields unit.
            let t = infer(cx, env, obj)?;
            cx.record_operand(crate::table::node_id(e), t.clone());
            let tv = infer(cx, env, v)?;
            cx.constrain(&t, Kind::has_mutable_field(l.clone(), tv))?;
            Ok(Mono::Unit)
        }
        Expr::SetLit(es) => {
            let elem = cx.fresh();
            for e in es {
                let t = infer(cx, env, e)?;
                cx.unify(&elem, &t)?;
            }
            Ok(Mono::set(elem))
        }
        Expr::Union(a, b) => {
            let ta = infer(cx, env, a)?;
            let tb = infer(cx, env, b)?;
            let elem = cx.fresh();
            cx.unify(&ta, &Mono::set(elem.clone()))?;
            cx.unify(&tb, &Mono::set(elem.clone()))?;
            Ok(Mono::set(elem))
        }
        Expr::Hom(s, f, op, z) => {
            // hom(S, f, op, z) = op(f(e1), op(…, op(f(en), z)…))
            // S : {a}, f : a → b, op : b → c → c, z : c ⟹ c.
            let ts = infer(cx, env, s)?;
            let tf = infer(cx, env, f)?;
            let top = infer(cx, env, op)?;
            let tz = infer(cx, env, z)?;
            let a = cx.fresh();
            let b = cx.fresh();
            cx.unify(&ts, &Mono::set(a.clone()))?;
            cx.unify(&tf, &Mono::arrow(a, b.clone()))?;
            cx.unify(&top, &Mono::arrow(b, Mono::arrow(tz.clone(), tz.clone())))?;
            Ok(tz)
        }
        Expr::Fix(x, body) => {
            let a = cx.fresh();
            env.push(x.clone(), Scheme::mono(a.clone()));
            let t = infer(cx, env, body);
            env.pop();
            cx.unify(&a, &t?)?;
            Ok(a)
        }
        Expr::Let(x, rhs, body) => {
            let t_rhs = infer(cx, env, rhs)?;
            let scheme = if crate::generalize::is_nonexpansive(rhs) {
                cx.generalize(env, &t_rhs)
            } else {
                Scheme::mono(t_rhs)
            };
            cx.record_let_scheme(crate::table::node_id(e), &scheme);
            env.push(x.clone(), scheme);
            let t = infer(cx, env, body);
            env.pop();
            t
        }
        Expr::If(c, t, e2) => {
            let tc = infer(cx, env, c)?;
            cx.unify(&tc, &Mono::bool())?;
            let tt = infer(cx, env, t)?;
            let te = infer(cx, env, e2)?;
            cx.unify(&tt, &te)?;
            Ok(tt)
        }

        // ---------- views (Fig. 2) ----------
        Expr::IdView(e) => {
            // (id): e : τ with K ⊢ τ :: [[ ]] ⟹ IDView(e) : obj(τ).
            let t = infer(cx, env, e)?;
            cx.constrain(&t, Kind::any_record())?;
            Ok(Mono::obj(t))
        }
        Expr::AsView(o, f) => {
            // (vcomp): o : obj(τ1), f : τ1 → τ2 ⟹ (o as f) : obj(τ2).
            let to = infer(cx, env, o)?;
            let tf = infer(cx, env, f)?;
            let t1 = cx.fresh();
            let t2 = cx.fresh();
            cx.unify(&to, &Mono::obj(t1.clone()))?;
            cx.unify(&tf, &Mono::arrow(t1, t2.clone()))?;
            Ok(Mono::obj(t2))
        }
        Expr::Query(f, o) => {
            // (query): f : τ1 → τ2, o : obj(τ1) ⟹ query(f, o) : τ2.
            let tf = infer(cx, env, f)?;
            let to = infer(cx, env, o)?;
            let t1 = cx.fresh();
            let t2 = cx.fresh();
            cx.unify(&tf, &Mono::arrow(t1.clone(), t2.clone()))?;
            cx.unify(&to, &Mono::obj(t1))?;
            Ok(t2)
        }
        Expr::Fuse(a, b) => {
            // (fuse): obj(τ1), obj(τ2) ⟹ {obj(τ1 × τ2)}.
            let ta = infer(cx, env, a)?;
            let tb = infer(cx, env, b)?;
            let t1 = cx.fresh();
            let t2 = cx.fresh();
            cx.unify(&ta, &Mono::obj(t1.clone()))?;
            cx.unify(&tb, &Mono::obj(t2.clone()))?;
            Ok(Mono::set(Mono::obj(Mono::pair(t1, t2))))
        }
        Expr::RelObj(fields) => {
            // (vrel): each ei : obj(τi) ⟹ obj([l1 = τ1, …, ln = τn]).
            let mut tys = std::collections::BTreeMap::new();
            for (l, e) in fields {
                let t = infer(cx, env, e)?;
                let ti = cx.fresh();
                cx.unify(&t, &Mono::obj(ti.clone()))?;
                tys.insert(l.clone(), FieldTy::immutable(ti));
            }
            Ok(Mono::obj(Mono::Record(tys)))
        }

        // ---------- classes (Figs. 4 and 6) ----------
        Expr::ClassExpr(cd) => infer_class_def(cx, env, cd),
        Expr::CQuery(f, c) => {
            // (cquery): f : {obj(τ1)} → τ2, C : class(τ1) ⟹ τ2.
            let tf = infer(cx, env, f)?;
            let tc = infer(cx, env, c)?;
            let t1 = cx.fresh();
            let t2 = cx.fresh();
            cx.unify(
                &tf,
                &Mono::arrow(Mono::set(Mono::obj(t1.clone())), t2.clone()),
            )?;
            cx.unify(&tc, &Mono::class(t1))?;
            Ok(t2)
        }
        Expr::Insert(c, e) | Expr::Delete(c, e) => {
            // (insert)/(delete): C : class(τ1), e : obj(τ1) ⟹ unit.
            let tc = infer(cx, env, c)?;
            let te = infer(cx, env, e)?;
            let t1 = cx.fresh();
            cx.unify(&tc, &Mono::class(t1.clone()))?;
            cx.unify(&te, &Mono::obj(t1))?;
            Ok(Mono::Unit)
        }
        Expr::LetClasses(binds, body) => {
            // (rec-class), Fig. 6. The scope restriction guarantees the
            // class identifiers appear only as include sources, so typing
            // everything under the extended assignment coincides with the
            // rule's split assignment.
            check_rec_class_scope(binds)?;
            let depth = env.depth();
            let tvs: Vec<Mono> = binds.iter().map(|_| cx.fresh()).collect();
            for ((name, _), tv) in binds.iter().zip(&tvs) {
                env.push(name.clone(), Scheme::mono(Mono::class(tv.clone())));
            }
            let result = (|| {
                for ((_, cd), tv) in binds.iter().zip(&tvs) {
                    let tc = infer_class_def(cx, env, cd)?;
                    cx.unify(&tc, &Mono::class(tv.clone()))?;
                }
                infer(cx, env, body)
            })();
            env.truncate(depth);
            result
        }

        // ---------- lowered forms (produced only after inference) ----------
        Expr::DotAt(..) => Err(TypeError::LoweredForm("dot@i")),
        Expr::ExtractAt(..) => Err(TypeError::LoweredForm("extract@i")),
        Expr::UpdateAt(..) => Err(TypeError::LoweredForm("update@i")),
        Expr::RecordAt(..) => Err(TypeError::LoweredForm("record@layout")),
        Expr::Collect(..) => Err(TypeError::LoweredForm("collect")),
        Expr::VarAt(..) => Err(TypeError::LoweredForm("var@slot")),
        Expr::LamAt(_) => Err(TypeError::LoweredForm("fn@captures")),
    }
}

/// The `(class)` rule of Fig. 4:
///
/// ```text
/// S : {obj(τ)}    Cʲᵢ : class(τʲᵢ)
/// eᵢ : τ¹ᵢ × … × τᵐᵢ → τ    pᵢ : obj(τ¹ᵢ × … × τᵐᵢ) → bool
/// ───────────────────────────────────────────────────────────
/// class S include … end : class(τ)
/// ```
fn infer_class_def(cx: &mut Infer, env: &mut TypeEnv, cd: &ClassDef) -> Result<Mono, TypeError> {
    let t = cx.fresh();
    let t_own = infer(cx, env, &cd.own)?;
    cx.unify(&t_own, &Mono::set(Mono::obj(t.clone())))?;
    for inc in &cd.includes {
        let mut source_tys = Vec::with_capacity(inc.sources.len());
        for s in &inc.sources {
            let ts = infer(cx, env, s)?;
            let ti = cx.fresh();
            cx.unify(&ts, &Mono::class(ti.clone()))?;
            source_tys.push(ti);
        }
        let product = Mono::include_product(source_tys);
        let tv = infer(cx, env, &inc.view)?;
        cx.unify(&tv, &Mono::arrow(product.clone(), t.clone()))?;
        let tp = infer(cx, env, &inc.pred)?;
        cx.unify(&tp, &Mono::arrow(Mono::obj(product), Mono::bool()))?;
    }
    Ok(Mono::class(t))
}

fn lit_type(l: &Lit) -> Mono {
    match l {
        Lit::Unit => Mono::Unit,
        Lit::Int(_) => Mono::int(),
        Lit::Bool(_) => Mono::bool(),
        Lit::Str(_) => Mono::str(),
    }
}

/// Convenience: infer and fully resolve.
pub fn infer_resolved(cx: &mut Infer, env: &mut TypeEnv, e: &Expr) -> Result<Mono, TypeError> {
    let t = infer(cx, env, e)?;
    Ok(cx.resolve(&t))
}

/// Convenience used pervasively in tests: infer the principal scheme of a
/// closed expression under the builtin environment.
pub fn infer_closed(e: &Expr) -> Result<Scheme, TypeError> {
    let mut cx = Infer::new();
    let mut env = crate::builtins_sig::builtin_env();
    cx.infer_scheme(&mut env, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_syntax::builder as b;
    use polyview_syntax::Label;

    fn infer_str_of(e: &Expr) -> String {
        infer_closed(e).expect("well-typed").to_string()
    }

    fn infer_err(e: &Expr) -> TypeError {
        infer_closed(e).expect_err("should be ill-typed")
    }

    // ----- core -----

    #[test]
    fn literals() {
        assert_eq!(infer_str_of(&b::int(1)), "int");
        assert_eq!(infer_str_of(&b::str("hi")), "string");
        assert_eq!(infer_str_of(&b::boolean(true)), "bool");
        assert_eq!(infer_str_of(&b::unit()), "unit");
    }

    #[test]
    fn identity_is_polymorphic() {
        assert_eq!(
            infer_closed(&b::lam("x", b::v("x"))).unwrap().to_string(),
            "∀t1::U. t1 -> t1"
        );
    }

    #[test]
    fn unbound_variable() {
        assert!(matches!(infer_err(&b::v("nope")), TypeError::Unbound(_)));
    }

    #[test]
    fn record_and_dot() {
        let e = b::dot(
            b::record([b::imm("Name", b::str("Joe")), b::mt("Salary", b::int(2000))]),
            "Name",
        );
        assert_eq!(infer_str_of(&e), "string");
    }

    #[test]
    fn dot_is_field_polymorphic() {
        // λx. x·Name : ∀t2::U. ∀t1::[[Name = t2]]. t1 → t2 (modulo binder
        // order/naming).
        let s = infer_closed(&b::lam("x", b::dot(b::v("x"), "Name"))).unwrap();
        assert_eq!(s.binders.len(), 2);
        let shown = s.to_string();
        assert!(shown.contains("[[Name = "), "got: {shown}");
    }

    #[test]
    fn update_requires_mutable_field() {
        // update(joe, Name, "Peter") is rejected: Name immutable (paper §2).
        let joe = b::record([b::imm("Name", b::str("Joe")), b::mt("Salary", b::int(2000))]);
        let bad = b::let_(
            "joe",
            joe.clone(),
            b::update(b::v("joe"), "Name", b::str("P")),
        );
        assert!(matches!(
            infer_err(&bad),
            TypeError::MutabilityViolation { .. }
        ));
        let good = b::let_("joe", joe, b::update(b::v("joe"), "Salary", b::int(4000)));
        assert_eq!(infer_str_of(&good), "unit");
    }

    #[test]
    fn extract_requires_mutable_field() {
        // [Name = extract(joe, Name)] is illegal: Name is immutable.
        let joe = b::record([b::imm("Name", b::str("Joe"))]);
        let bad = b::let_("joe", joe, b::extract(b::v("joe"), "Name"));
        assert!(matches!(
            infer_err(&bad),
            TypeError::MutabilityViolation { .. }
        ));
    }

    #[test]
    fn extracted_lvalue_usable_only_as_field_value() {
        // Legal: [Income := extract(joe, Salary)] — shares the slot.
        let joe = b::record([b::mt("Salary", b::int(2000))]);
        let ok = b::let_(
            "joe",
            joe.clone(),
            b::record([
                b::imm("Doe", b::str("D")),
                b::mt("Income", b::extract(b::v("joe"), "Salary")),
            ]),
        );
        assert_eq!(infer_str_of(&ok), "[Doe = string, Income := int]");

        // Legal even into an *immutable* field (the john example in §2).
        let ok2 = b::let_(
            "joe",
            joe.clone(),
            b::record([b::imm("Salary", b::extract(b::v("joe"), "Salary"))]),
        );
        assert_eq!(infer_str_of(&ok2), "[Salary = int]");

        // Illegal: arithmetic on an extracted L-value (paper's first
        // illegal example).
        let bad = b::let_(
            "joe",
            joe,
            b::mul(b::extract(b::v("joe"), "Salary"), b::int(2)),
        );
        assert!(matches!(infer_err(&bad), TypeError::Mismatch(..)));
    }

    #[test]
    fn set_literal_homogeneous() {
        assert_eq!(infer_str_of(&b::set([b::int(1), b::int(2)])), "{int}");
        assert!(matches!(
            infer_err(&b::set([b::int(1), b::str("x")])),
            TypeError::Mismatch(..)
        ));
    }

    #[test]
    fn empty_set_is_polymorphic() {
        assert_eq!(infer_str_of(&b::empty()), "∀t1::U. {t1}");
    }

    #[test]
    fn union_and_hom() {
        let e = b::union(b::set([b::int(1)]), b::set([b::int(2)]));
        assert_eq!(infer_str_of(&e), "{int}");

        // hom({1,2}, λx.x, λa.λb.add a b, 0) : int
        let h = b::hom(
            b::set([b::int(1), b::int(2)]),
            b::lam("x", b::v("x")),
            b::lam("a", b::lam("acc", b::add(b::v("a"), b::v("acc")))),
            b::int(0),
        );
        assert_eq!(infer_str_of(&h), "int");
    }

    #[test]
    fn eq_requires_same_types() {
        assert_eq!(infer_str_of(&b::eq(b::int(1), b::int(2))), "bool");
        assert!(matches!(
            infer_err(&b::eq(b::int(1), b::boolean(true))),
            TypeError::Mismatch(..)
        ));
    }

    #[test]
    fn if_branches_unify() {
        let e = b::if_(b::boolean(true), b::int(1), b::int(2));
        assert_eq!(infer_str_of(&e), "int");
        assert!(infer_closed(&b::if_(b::int(1), b::int(1), b::int(2))).is_err());
        assert!(infer_closed(&b::if_(b::boolean(true), b::int(1), b::str("x"))).is_err());
    }

    #[test]
    fn fix_types_recursion() {
        // fix f. λn. if eq(n, 0) then 0 else f (sub n 1) : int → int
        let e = Expr::fix(
            "f",
            b::lam(
                "n",
                b::if_(
                    b::eq(b::v("n"), b::int(0)),
                    b::int(0),
                    b::app(b::v("f"), b::sub(b::v("n"), b::int(1))),
                ),
            ),
        );
        assert_eq!(infer_str_of(&e), "int -> int");
    }

    #[test]
    fn let_polymorphism() {
        // let id = λx.x in (id 1, id "a") — needs polymorphic id.
        let e = b::let_(
            "id",
            b::lam("x", b::v("x")),
            b::pair(
                b::app(b::v("id"), b::int(1)),
                b::app(b::v("id"), b::str("a")),
            ),
        );
        assert_eq!(infer_str_of(&e), "[1 = int, 2 = string]");
    }

    #[test]
    fn value_restriction_blocks_generalizing_state() {
        // let r = [cell := …] is expansive; using it at two field types
        // must fail. Here: a polymorphic-looking record of an empty set.
        let e = b::let_(
            "r",
            b::record([b::imm("s", b::empty())]),
            b::pair(
                b::union(b::dot(b::v("r"), "s"), b::set([b::int(1)])),
                b::union(b::dot(b::v("r"), "s"), b::set([b::str("a")])),
            ),
        );
        assert!(infer_closed(&e).is_err());
    }

    // ----- views (Fig. 2) -----

    fn joe_raw() -> Expr {
        b::record([
            b::imm("Name", b::str("Joe")),
            b::imm("BirthYear", b::int(1955)),
            b::mt("Salary", b::int(2000)),
            b::mt("Bonus", b::int(5000)),
        ])
    }

    #[test]
    fn idview_types_as_obj() {
        assert_eq!(
            infer_str_of(&b::id_view(joe_raw())),
            "obj([BirthYear = int, Bonus := int, Name = string, Salary := int])"
        );
    }

    #[test]
    fn idview_rejects_non_record() {
        assert!(matches!(
            infer_err(&b::id_view(b::int(1))),
            TypeError::NotARecord(_)
        ));
    }

    #[test]
    fn paper_joe_view_type() {
        // joe_view from §3.3: renames Salary→Income (immutable), hides
        // BirthYear, computes Age, keeps Bonus mutable via extract.
        let joe_view = b::as_view(
            b::id_view(joe_raw()),
            b::lam(
                "x",
                b::record([
                    b::imm("Name", b::dot(b::v("x"), "Name")),
                    b::imm(
                        "Age",
                        b::sub(
                            b::app(b::v("this_year"), b::unit()),
                            b::dot(b::v("x"), "BirthYear"),
                        ),
                    ),
                    b::imm("Income", b::dot(b::v("x"), "Salary")),
                    b::mt("Bonus", b::extract(b::v("x"), "Bonus")),
                ]),
            ),
        );
        assert_eq!(
            infer_str_of(&joe_view),
            "obj([Age = int, Bonus := int, Income = int, Name = string])"
        );
    }

    #[test]
    fn query_applies_view() {
        let q = b::query(
            b::lam("x", b::dot(b::v("x"), "Name")),
            b::id_view(joe_raw()),
        );
        assert_eq!(infer_str_of(&q), "string");
    }

    #[test]
    fn annual_income_scheme_matches_paper() {
        // fun Annual_Income p = p·Income * 12 + p·Bonus
        //   : ∀t::[[Income = int, Bonus = int]]. t → int
        let f = b::lam(
            "p",
            b::add(
                b::mul(b::dot(b::v("p"), "Income"), b::int(12)),
                b::dot(b::v("p"), "Bonus"),
            ),
        );
        assert_eq!(
            infer_str_of(&f),
            "∀t1::[[Bonus = int, Income = int]]. t1 -> int"
        );
    }

    #[test]
    fn adjust_bonus_scheme_matches_paper() {
        // adjustBonus = λp. query(λx. update(x, Bonus, x·Income * 3), p)
        //   : ∀t::[[Income = int, Bonus := int]]. obj(t) → unit
        let f = b::lam(
            "p",
            b::query(
                b::lam(
                    "x",
                    b::update(
                        b::v("x"),
                        "Bonus",
                        b::mul(b::dot(b::v("x"), "Income"), b::int(3)),
                    ),
                ),
                b::v("p"),
            ),
        );
        assert_eq!(
            infer_str_of(&f),
            "∀t1::[[Bonus := int, Income = int]]. obj(t1) -> unit"
        );
    }

    #[test]
    fn fuse_produces_product_view_set() {
        let e = b::fuse(b::id_view(joe_raw()), b::id_view(joe_raw()));
        let s = infer_str_of(&e);
        assert!(s.starts_with("{obj([1 = "), "got {s}");
    }

    #[test]
    fn relobj_builds_record_of_views() {
        let e = b::relobj([
            ("emp", b::id_view(joe_raw())),
            (
                "dept",
                b::id_view(b::record([b::imm("DName", b::str("RIMS"))])),
            ),
        ]);
        let s = infer_str_of(&e);
        assert!(s.starts_with("obj([dept = ["), "got {s}");
    }

    #[test]
    fn relobj_rejects_non_objects() {
        assert!(infer_closed(&b::relobj([("x", b::int(1))])).is_err());
    }

    // ----- classes (Figs. 4 and 6) -----

    fn staff_class() -> Expr {
        // class {IDView([Name = …, Age = …, Sex = …])} end
        b::class(
            b::set([b::id_view(b::record([
                b::imm("Name", b::str("Alice")),
                b::imm("Age", b::int(30)),
                b::imm("Sex", b::str("female")),
            ]))]),
            vec![],
        )
    }

    #[test]
    fn class_of_own_extent() {
        assert_eq!(
            infer_str_of(&staff_class()),
            "class([Age = int, Name = string, Sex = string])"
        );
    }

    #[test]
    fn female_member_class_types() {
        // FemaleMember from §4.2, over one source class.
        let e = b::let_(
            "Staff",
            staff_class(),
            b::class(
                b::empty(),
                vec![b::include(
                    vec![b::v("Staff")],
                    b::lam(
                        "s",
                        b::record([
                            b::imm("Name", b::dot(b::v("s"), "Name")),
                            b::imm("Age", b::dot(b::v("s"), "Age")),
                            b::imm("Category", b::str("staff")),
                        ]),
                    ),
                    b::lam(
                        "s",
                        b::query(
                            b::lam("x", b::eq(b::dot(b::v("x"), "Sex"), b::str("female"))),
                            b::v("s"),
                        ),
                    ),
                )],
            ),
        );
        assert_eq!(
            infer_str_of(&e),
            "class([Age = int, Category = string, Name = string])"
        );
    }

    #[test]
    fn cquery_insert_delete_type() {
        let names = b::lam("s", b::v("s"));
        let e = b::let_("Staff", staff_class(), b::cquery(names, b::v("Staff")));
        let s = infer_str_of(&e);
        assert!(s.starts_with("{obj("), "got {s}");

        let obj = b::id_view(b::record([
            b::imm("Name", b::str("Bob")),
            b::imm("Age", b::int(40)),
            b::imm("Sex", b::str("male")),
        ]));
        let ins = b::let_(
            "Staff",
            staff_class(),
            b::insert(b::v("Staff"), obj.clone()),
        );
        assert_eq!(infer_str_of(&ins), "unit");
        let del = b::let_("Staff", staff_class(), b::delete(b::v("Staff"), obj));
        assert_eq!(infer_str_of(&del), "unit");
    }

    #[test]
    fn insert_of_wrong_view_type_rejected() {
        let wrong = b::id_view(b::record([b::imm("Other", b::int(1))]));
        let e = b::let_("Staff", staff_class(), b::insert(b::v("Staff"), wrong));
        assert!(infer_closed(&e).is_err());
    }

    #[test]
    fn multi_source_include_uses_tuple_views() {
        // StudentStaff from §4.2: include Staff, Student as λp.[… p·1 … p·2 …]
        let staff = staff_class();
        let student = b::class(
            b::set([b::id_view(b::record([
                b::imm("Name", b::str("Carol")),
                b::imm("Degree", b::str("MSc")),
            ]))]),
            vec![],
        );
        let e = b::let_(
            "Staff",
            staff,
            b::let_(
                "Student",
                student,
                b::class(
                    b::empty(),
                    vec![b::include(
                        vec![b::v("Staff"), b::v("Student")],
                        b::lam(
                            "p",
                            b::record([
                                b::imm("Name", b::dot(b::proj(b::v("p"), 1), "Name")),
                                b::imm("Deg", b::dot(b::proj(b::v("p"), 2), "Degree")),
                            ]),
                        ),
                        b::lam("p", b::boolean(true)),
                    )],
                ),
            ),
        );
        assert_eq!(infer_str_of(&e), "class([Deg = string, Name = string])");
    }

    #[test]
    fn recursive_classes_type_with_fig6_rule() {
        // Simplified Fig. 7: two classes sharing each other's extents.
        let view = |cat: &str| {
            b::lam(
                "f",
                b::record([
                    b::imm("Name", b::dot(b::v("f"), "Name")),
                    b::imm("Cat", b::str(cat)),
                ]),
            )
        };
        let pred = |cat: &str| {
            b::lam(
                "f",
                b::query(
                    b::lam("x", b::eq(b::dot(b::v("x"), "Cat"), b::str(cat))),
                    b::v("f"),
                ),
            )
        };
        let e = b::let_classes(
            vec![
                (
                    "A",
                    b::class(
                        b::empty(),
                        vec![b::include(vec![b::v("B")], view("a"), pred("a"))],
                    ),
                ),
                (
                    "B",
                    b::class(
                        b::empty(),
                        vec![b::include(vec![b::v("A")], view("b"), pred("b"))],
                    ),
                ),
            ],
            b::v("A"),
        );
        let s = infer_str_of(&e);
        assert!(s.starts_with("class(["), "got {s}");
    }

    #[test]
    fn recursive_class_scope_violation_is_type_error() {
        // The ill-typed C1 = C \ C2 and C2 = C \ C1 from §4.4.
        let pred = |other: &str| b::lam("c", b::cquery(b::lam("s", b::boolean(true)), b::v(other)));
        let e = b::let_(
            "C",
            staff_class(),
            b::let_classes(
                vec![
                    (
                        "C1",
                        b::class(
                            b::empty(),
                            vec![b::include(
                                vec![b::v("C")],
                                b::lam("x", b::v("x")),
                                pred("C2"),
                            )],
                        ),
                    ),
                    (
                        "C2",
                        b::class(
                            b::empty(),
                            vec![b::include(
                                vec![b::v("C")],
                                b::lam("x", b::v("x")),
                                pred("C1"),
                            )],
                        ),
                    ),
                ],
                b::v("C1"),
            ),
        );
        assert!(matches!(infer_err(&e), TypeError::RecClass(_)));
    }

    #[test]
    fn classes_are_first_class() {
        // A class-creating function: λs. class s end.
        let f = b::lam("s", b::class(b::v("s"), vec![]));
        let s = infer_closed(&f).unwrap().to_string();
        assert!(s.contains("{obj(t1)} -> class(t1)"), "got {s}");
    }

    // ----- derived forms stay well-typed -----

    #[test]
    fn sugar_member_map_filter_type() {
        use polyview_syntax::sugar;
        let m = sugar::member(b::int(1), b::set([b::int(1), b::int(2)]));
        assert_eq!(infer_str_of(&m), "bool");
        let mp = sugar::map(
            b::lam("x", b::mul(b::v("x"), b::int(2))),
            b::set([b::int(1)]),
        );
        assert_eq!(infer_str_of(&mp), "{int}");
        let fl = sugar::filter(
            b::lam("x", b::gt(b::v("x"), b::int(0))),
            b::set([b::int(1)]),
        );
        assert_eq!(infer_str_of(&fl), "{int}");
    }

    #[test]
    fn sugar_objeq_and_intersect_type() {
        use polyview_syntax::sugar;
        let o1 = b::id_view(b::record([b::imm("a", b::int(1))]));
        let o2 = b::id_view(b::record([b::imm("b", b::int(2))]));
        assert_eq!(infer_str_of(&sugar::objeq(o1.clone(), o2.clone())), "bool");
        let i = sugar::intersect2(b::set([o1]), b::set([o2]));
        let s = infer_str_of(&i);
        assert!(
            s.starts_with("{obj([1 = [a = int], 2 = [b = int]])}"),
            "got {s}"
        );
    }

    #[test]
    fn sugar_select_types_as_paper_wealthy() {
        use polyview_syntax::sugar;
        // fun wealthy S = select as λx.[Name=x·Name, Age=x·Age] from S
        //                 where λx. query(Annual_Income, x) > 100000
        let annual = b::lam(
            "p",
            b::add(
                b::mul(b::dot(b::v("p"), "Income"), b::int(12)),
                b::dot(b::v("p"), "Bonus"),
            ),
        );
        let wealthy = b::lam(
            "S",
            sugar::select_as_from_where(
                b::lam(
                    "x",
                    b::record([
                        b::imm("Name", b::dot(b::v("x"), "Name")),
                        b::imm("Age", b::dot(b::v("x"), "Age")),
                    ]),
                ),
                b::v("S"),
                b::lam("x", b::gt(b::query(annual, b::v("x")), b::int(100000))),
            ),
        );
        let s = infer_closed(&wealthy).unwrap().to_string();
        // ∀…::[[Age = …, Bonus = int, Income = int, Name = …]].
        //   {obj(t)} → {obj([Age = …, Name = …])}
        assert!(s.contains("Income = int"), "got {s}");
        assert!(s.contains("Bonus = int"), "got {s}");
        assert!(s.contains("{obj("), "got {s}");
        assert!(s.ends_with("])}"), "got {s}");
    }

    #[test]
    fn sugar_relation_query_types() {
        use polyview_syntax::sugar;
        let s1 = b::set([b::id_view(b::record([b::imm("a", b::int(1))]))]);
        let s2 = b::set([b::id_view(b::record([b::imm("b", b::int(2))]))]);
        let e = sugar::relation_from_where(
            vec![(Label::new("x"), b::v("x1")), (Label::new("y"), b::v("x2"))],
            vec![(Label::new("x1"), s1), (Label::new("x2"), s2)],
            b::boolean(true),
        );
        let s = infer_str_of(&e);
        assert!(
            s.starts_with("{obj([x = [a = int], y = [b = int]])}"),
            "got {s}"
        );
    }
}
