//! Kinded unification (Ohori, POPL'92, adapted to mutability-refined kinds).
//!
//! Unification proceeds as in algorithm U of the record calculus:
//!
//! * variable–variable: the two kind constraints are *merged* — common
//!   fields have their types unified and their mutability requirements
//!   joined (`:=` absorbs `=`, the paper's `F < F'`);
//! * variable–record: the kind constraint is *discharged* against the
//!   record type — every required field must be present with an admissible
//!   mutability, and the constraint types unify with the field types;
//! * record–record: record types are exact, so the label sets and per-field
//!   mutabilities must agree and field types unify pointwise;
//! * all other constructors unify by congruence.

use crate::ctx::Infer;
use crate::error::TypeError;
use polyview_syntax::{FieldReq, Kind, Mono, TyVar};
use std::collections::BTreeMap;

impl Infer {
    /// Unify two types under the current substitution and kind assignment.
    pub fn unify(&mut self, t1: &Mono, t2: &Mono) -> Result<(), TypeError> {
        self.note(|s| s.unify_steps += 1);
        let a = self.shallow(t1);
        let b = self.shallow(t2);
        match (a, b) {
            (Mono::Var(v), Mono::Var(u)) if v == u => Ok(()),
            (Mono::Var(v), Mono::Var(u)) => self.unify_vars(v, u),
            (Mono::Var(v), t) | (t, Mono::Var(v)) => self.bind_var(v, t),
            (Mono::Base(x), Mono::Base(y)) if x == y => Ok(()),
            (Mono::Unit, Mono::Unit) => Ok(()),
            (Mono::Arrow(a1, r1), Mono::Arrow(a2, r2)) => {
                self.unify(&a1, &a2)?;
                self.unify(&r1, &r2)
            }
            (Mono::Set(x), Mono::Set(y))
            | (Mono::LVal(x), Mono::LVal(y))
            | (Mono::Obj(x), Mono::Obj(y))
            | (Mono::Class(x), Mono::Class(y)) => self.unify(&x, &y),
            (Mono::Record(f1), Mono::Record(f2)) => self.unify_records(f1, f2),
            (a, b) => Err(TypeError::Mismatch(self.resolve(&a), self.resolve(&b))),
        }
    }

    /// Merge the kinds of two distinct unbound variables and link them.
    /// The younger variable is bound to the older one, so unifying a free
    /// variable of a global scheme with a fresh one leaves the free one
    /// unbound (it is not a touch, [`Infer::touched`]).
    fn unify_vars(&mut self, v: TyVar, u: TyVar) -> Result<(), TypeError> {
        let (old, young) = (v.min(u), v.max(u));
        let ko = self.kind_of(old);
        let ky = self.kind_of(young);
        // Link young to old first so that recursive field unifications
        // see the union through old.
        let merged = match (ko, ky) {
            (Kind::Univ, k) | (k, Kind::Univ) => {
                self.bind_raw(young, Mono::Var(old));
                k
            }
            (Kind::Record(ro), Kind::Record(ry)) => {
                self.note(|s| s.kind_merges += 1);
                self.bind_raw(young, Mono::Var(old));
                let mut merged: BTreeMap<_, FieldReq> = ro;
                let mut pending = Vec::new();
                for (l, req_y) in ry {
                    match merged.get_mut(&l) {
                        Some(req_o) => {
                            req_o.req = req_o.req.join(req_y.req);
                            // Keep `v`'s side first, for error messages.
                            let (a, b) = (req_o.ty.clone(), req_y.ty);
                            pending.push(if old == v { (a, b) } else { (b, a) });
                        }
                        None => {
                            merged.insert(l, req_y);
                        }
                    }
                }
                self.set_kind(old, Kind::Record(merged));
                for (a, b) in pending {
                    self.unify(&a, &b)?;
                }
                // Field unification may have bound old itself (through a
                // field type mentioning it — an occurs situation caught in
                // bind_var). Nothing more to do here.
                return Ok(());
            }
        };
        self.set_kind(old, merged);
        Ok(())
    }

    /// Bind variable `v` to non-variable type `t`, discharging `v`'s kind.
    fn bind_var(&mut self, v: TyVar, t: Mono) -> Result<(), TypeError> {
        if self.occurs(v, &t) {
            return Err(TypeError::Occurs(v, self.resolve(&t)));
        }
        match self.kind_of(v) {
            Kind::Univ => {
                self.bind_raw(v, t);
                Ok(())
            }
            Kind::Record(reqs) => {
                let fields = match &t {
                    Mono::Record(fs) => fs.clone(),
                    other => return Err(TypeError::NotARecord(self.resolve(other))),
                };
                // Bind first so recursive unifications of field types that
                // mention v resolve to t (they cannot, thanks to the occurs
                // check, but binding first also keeps error types resolved).
                self.bind_raw(v, t.clone());
                for (l, req) in reqs {
                    let f = match fields.get(&l) {
                        Some(f) => f,
                        None => {
                            return Err(TypeError::MissingField {
                                label: l,
                                record: self.resolve(&t),
                            })
                        }
                    };
                    if !req.req.admits(f.mutable) {
                        return Err(TypeError::MutabilityViolation {
                            label: l,
                            record: self.resolve(&t),
                        });
                    }
                    self.unify(&req.ty, &f.ty)?;
                }
                self.set_kind(v, Kind::Univ);
                Ok(())
            }
        }
    }

    fn unify_records(
        &mut self,
        f1: BTreeMap<polyview_syntax::Label, polyview_syntax::FieldTy>,
        f2: BTreeMap<polyview_syntax::Label, polyview_syntax::FieldTy>,
    ) -> Result<(), TypeError> {
        if f1.len() != f2.len() || !f1.keys().eq(f2.keys()) {
            return Err(TypeError::Mismatch(
                self.resolve(&Mono::Record(f1)),
                self.resolve(&Mono::Record(f2)),
            ));
        }
        for (l, a) in &f1 {
            let b = &f2[l];
            if a.mutable != b.mutable {
                return Err(TypeError::FieldMutabilityMismatch {
                    label: l.clone(),
                    left: self.resolve(&Mono::Record(f1.clone())),
                    right: self.resolve(&Mono::Record(f2.clone())),
                });
            }
            self.unify(&a.ty, &b.ty)?;
        }
        Ok(())
    }

    /// Impose the kind constraint `k` on type `t` (the judgement
    /// `K ⊢ τ :: K` of Fig. 1). For a variable this merges kinds; for a
    /// record type it discharges the constraint directly.
    pub fn constrain(&mut self, t: &Mono, k: Kind) -> Result<(), TypeError> {
        if k.is_univ() {
            return Ok(());
        }
        match self.shallow(t) {
            Mono::Var(v) => {
                // Merge k into v's kind by making a fresh variable of kind k
                // and unifying — reuses the var–var merge logic.
                let helper = self.fresh_with_kind(k);
                match helper {
                    Mono::Var(h) => self.unify_vars(v, h),
                    _ => unreachable!("fresh_with_kind returns a variable"),
                }
            }
            Mono::Record(fields) => {
                let reqs = match k {
                    Kind::Record(r) => r,
                    Kind::Univ => unreachable!("handled above"),
                };
                for (l, req) in reqs {
                    let f = match fields.get(&l) {
                        Some(f) => f.clone(),
                        None => {
                            return Err(TypeError::MissingField {
                                label: l,
                                record: self.resolve(&Mono::Record(fields)),
                            })
                        }
                    };
                    if !req.req.admits(f.mutable) {
                        return Err(TypeError::MutabilityViolation {
                            label: l,
                            record: self.resolve(&Mono::Record(fields)),
                        });
                    }
                    self.unify(&req.ty, &f.ty)?;
                }
                Ok(())
            }
            other => Err(TypeError::NotARecord(self.resolve(&other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_syntax::{FieldTy, Label, MutReq};

    fn rec(fields: Vec<(&str, bool, Mono)>) -> Mono {
        Mono::Record(
            fields
                .into_iter()
                .map(|(l, m, t)| (Label::new(l), FieldTy { mutable: m, ty: t }))
                .collect(),
        )
    }

    #[test]
    fn unify_base_types() {
        let mut cx = Infer::new();
        assert!(cx.unify(&Mono::int(), &Mono::int()).is_ok());
        assert!(matches!(
            cx.unify(&Mono::int(), &Mono::bool()),
            Err(TypeError::Mismatch(..))
        ));
    }

    #[test]
    fn unify_var_binds() {
        let mut cx = Infer::new();
        let a = cx.fresh();
        cx.unify(&a, &Mono::int()).expect("bind");
        assert_eq!(cx.resolve(&a), Mono::int());
    }

    #[test]
    fn occurs_check_fails() {
        let mut cx = Infer::new();
        let a = cx.fresh();
        let t = Mono::set(a.clone());
        assert!(matches!(cx.unify(&a, &t), Err(TypeError::Occurs(..))));
    }

    #[test]
    fn var_var_kind_merge_unifies_common_fields() {
        let mut cx = Infer::new();
        let fa = cx.fresh();
        let fb = cx.fresh();
        let a = cx.fresh_with_kind(Kind::has_field(Label::new("x"), fa.clone()));
        let b = cx.fresh_with_kind(Kind::has_field(Label::new("x"), fb.clone()));
        cx.unify(&a, &b).expect("kind merge");
        cx.unify(&fa, &Mono::int()).expect("bind field");
        assert_eq!(cx.resolve(&fb), Mono::int());
    }

    #[test]
    fn var_var_merge_joins_mutability() {
        let mut cx = Infer::new();
        let a = cx.fresh_with_kind(Kind::has_field(Label::new("x"), Mono::int()));
        let b = cx.fresh_with_kind(Kind::has_mutable_field(Label::new("x"), Mono::int()));
        cx.unify(&a, &b).expect("merge");
        // The surviving variable's kind requires mutability.
        let v = match cx.shallow(&a) {
            Mono::Var(v) => v,
            other => panic!("expected var, got {other:?}"),
        };
        match cx.kind_of(v) {
            Kind::Record(reqs) => assert_eq!(reqs[&Label::new("x")].req, MutReq::Mutable),
            Kind::Univ => panic!("kind lost"),
        }
    }

    #[test]
    fn kinded_var_discharges_against_record() {
        let mut cx = Infer::new();
        let f = cx.fresh();
        let a = cx.fresh_with_kind(Kind::has_field(Label::new("Name"), f.clone()));
        let joe = rec(vec![
            ("Name", false, Mono::str()),
            ("Salary", true, Mono::int()),
        ]);
        cx.unify(&a, &joe).expect("discharge");
        assert_eq!(cx.resolve(&f), Mono::str());
        assert_eq!(cx.resolve(&a), cx.resolve(&joe));
    }

    #[test]
    fn kinded_var_missing_field() {
        let mut cx = Infer::new();
        let a = cx.fresh_with_kind(Kind::has_field(Label::new("Age"), Mono::int()));
        let joe = rec(vec![("Name", false, Mono::str())]);
        assert!(matches!(
            cx.unify(&a, &joe),
            Err(TypeError::MissingField { .. })
        ));
    }

    #[test]
    fn mutable_requirement_rejects_immutable_field() {
        let mut cx = Infer::new();
        let a = cx.fresh_with_kind(Kind::has_mutable_field(Label::new("Name"), Mono::str()));
        let joe = rec(vec![("Name", false, Mono::str())]);
        assert!(matches!(
            cx.unify(&a, &joe),
            Err(TypeError::MutabilityViolation { .. })
        ));
    }

    #[test]
    fn any_requirement_accepts_mutable_field() {
        // The paper's F < F': kind [[l = τ]] admits a record with l := τ.
        let mut cx = Infer::new();
        let a = cx.fresh_with_kind(Kind::has_field(Label::new("Salary"), Mono::int()));
        let joe = rec(vec![("Salary", true, Mono::int())]);
        cx.unify(&a, &joe).expect("admissible");
    }

    #[test]
    fn record_record_exact_labels() {
        let mut cx = Infer::new();
        let r1 = rec(vec![("x", false, Mono::int())]);
        let r2 = rec(vec![("x", false, Mono::int()), ("y", false, Mono::int())]);
        assert!(matches!(cx.unify(&r1, &r2), Err(TypeError::Mismatch(..))));
    }

    #[test]
    fn record_record_mutability_mismatch() {
        let mut cx = Infer::new();
        let r1 = rec(vec![("x", false, Mono::int())]);
        let r2 = rec(vec![("x", true, Mono::int())]);
        assert!(matches!(
            cx.unify(&r1, &r2),
            Err(TypeError::FieldMutabilityMismatch { .. })
        ));
    }

    #[test]
    fn congruence_on_constructors() {
        let mut cx = Infer::new();
        let a = cx.fresh();
        cx.unify(
            &Mono::obj(Mono::set(a.clone())),
            &Mono::obj(Mono::set(Mono::bool())),
        )
        .expect("congruence");
        assert_eq!(cx.resolve(&a), Mono::bool());
        assert!(cx
            .unify(&Mono::obj(Mono::int()), &Mono::class(Mono::int()))
            .is_err());
    }

    #[test]
    fn constrain_on_record_type_directly() {
        let mut cx = Infer::new();
        let f = cx.fresh();
        let joe = rec(vec![("Name", false, Mono::str())]);
        cx.constrain(&joe, Kind::has_field(Label::new("Name"), f.clone()))
            .expect("constrain");
        assert_eq!(cx.resolve(&f), Mono::str());
    }

    #[test]
    fn constrain_non_record_fails() {
        let mut cx = Infer::new();
        assert!(matches!(
            cx.constrain(&Mono::int(), Kind::any_record()),
            Err(TypeError::NotARecord(_))
        ));
    }

    #[test]
    fn constrain_univ_is_noop() {
        let mut cx = Infer::new();
        cx.constrain(&Mono::int(), Kind::Univ)
            .expect("U admits all");
    }

    #[test]
    fn unification_is_symmetric_on_success() {
        let mut cx1 = Infer::new();
        let a1 = cx1.fresh();
        let t = Mono::arrow(Mono::int(), Mono::bool());
        cx1.unify(&a1, &t).expect("left");
        let mut cx2 = Infer::new();
        let a2 = cx2.fresh();
        cx2.unify(&t, &a2).expect("right");
        assert_eq!(cx1.resolve(&a1), cx2.resolve(&a2));
    }

    #[test]
    fn chained_kinded_vars_accumulate_constraints() {
        // a :: [[x = int]], b :: [[y = bool]]; unify a b; then discharge
        // against a record having both fields.
        let mut cx = Infer::new();
        let a = cx.fresh_with_kind(Kind::has_field(Label::new("x"), Mono::int()));
        let b = cx.fresh_with_kind(Kind::has_field(Label::new("y"), Mono::bool()));
        cx.unify(&a, &b).expect("merge");
        let r = rec(vec![("x", false, Mono::int()), ("y", false, Mono::bool())]);
        cx.unify(&a, &r).expect("discharge");
        assert_eq!(cx.resolve(&b), cx.resolve(&r));

        // And a record missing y fails.
        let mut cx = Infer::new();
        let a = cx.fresh_with_kind(Kind::has_field(Label::new("x"), Mono::int()));
        let b = cx.fresh_with_kind(Kind::has_field(Label::new("y"), Mono::bool()));
        cx.unify(&a, &b).expect("merge");
        let r = rec(vec![("x", false, Mono::int())]);
        assert!(cx.unify(&a, &r).is_err());
    }
}
