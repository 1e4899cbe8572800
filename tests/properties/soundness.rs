//! Prop. 1 (type soundness), executable: generated well-typed programs
//! never "go wrong" — evaluation never raises a type-category runtime
//! error, and the resulting value has the program's type.

use crate::common::{sized_cases, Gen};
use polyview_eval::{Machine, Value};
use polyview_syntax::Mono;
use polyview_types::{builtins_sig, infer, instance, Infer};

/// Does the runtime value inhabit the (resolved, ground-ish) type?
fn value_has_type(m: &Machine, v: &Value, t: &Mono) -> bool {
    match (v, t) {
        (Value::Int(_), Mono::Base(polyview_syntax::BaseTy::Int)) => true,
        (Value::Bool(_), Mono::Base(polyview_syntax::BaseTy::Bool)) => true,
        (Value::Str(_), Mono::Base(polyview_syntax::BaseTy::Str)) => true,
        (Value::Unit, Mono::Unit) => true,
        (Value::Set(s), Mono::Set(elem)) => s.values().all(|e| value_has_type(m, e, elem)),
        (Value::Record(r), Mono::Record(fs)) => {
            r.layout.len() == fs.len()
                && fs.iter().all(|(l, f)| match r.offset_of(l) {
                    Some(off) => {
                        r.layout.is_mutable(off) == f.mutable
                            && value_has_type(m, m.store.get(r.slots[off]), &f.ty)
                    }
                    None => false,
                })
        }
        (Value::Obj(_), Mono::Obj(_)) => true, // view application checked by queries
        (Value::Class(_), Mono::Class(_)) => true,
        (Value::Closure(_) | Value::Builtin(_), Mono::Arrow(..)) => true,
        _ => false,
    }
}

/// Generated programs typecheck at their by-construction type.
#[test]
fn generated_programs_are_well_typed() {
    sized_cases(96, 1..5, program_is_well_typed);
}

fn program_is_well_typed(g: &mut Gen, depth: usize) {
    let (e, ty) = g.observable_program(depth);
    let mut cx = Infer::new();
    let mut env = builtins_sig::builtin_env();
    let inferred = infer::infer(&mut cx, &mut env, &e)
        .unwrap_or_else(|err| panic!("generator produced ill-typed term ({err}): {e}"));
    // Generalizing over the remaining unconstrained variables yields a
    // scheme of which the by-construction type must be an instance.
    let scheme = cx.generalize(&env, &inferred);
    assert!(
        instance::instance_of(&scheme, &polyview_syntax::Scheme::mono(ty.clone())),
        "constructed type {ty} is not an instance of inferred {scheme} for {e}"
    );
}

/// Prop. 1: evaluation of a well-typed program never raises a
/// type-category error, and the value inhabits the type.
#[test]
fn well_typed_programs_cannot_go_wrong() {
    sized_cases(96, 1..5, program_cannot_go_wrong);
}

fn program_cannot_go_wrong(g: &mut Gen, depth: usize) {
    let (e, ty) = g.observable_program(depth);
    // Double-check typability (prerequisite of the proposition).
    let mut cx = Infer::new();
    let mut env = builtins_sig::builtin_env();
    infer::infer_resolved(&mut cx, &mut env, &e).expect("well-typed by construction");

    let mut m = Machine::new();
    match m.eval(&e) {
        Ok(v) => assert!(
            value_has_type(&m, &v, &ty),
            "value {} does not inhabit {ty} for {e}",
            m.show(&v)
        ),
        Err(err) => assert!(
            !err.is_type_error(),
            "well-typed program went wrong ({err}): {e}"
        ),
    }
}

/// Prop. 1 for the class layer: class programs evaluate without
/// type-category errors and produce non-negative counts.
#[test]
fn class_programs_cannot_go_wrong() {
    sized_cases(96, 1..4, class_program_cannot_go_wrong);
}

fn class_program_cannot_go_wrong(g: &mut Gen, depth: usize) {
    let (e, _) = g.class_program(depth);
    let mut cx = Infer::new();
    let mut env = builtins_sig::builtin_env();
    infer::infer_resolved(&mut cx, &mut env, &e)
        .unwrap_or_else(|err| panic!("class generator ill-typed ({err}): {e}"));
    let mut m = Machine::new();
    let v = m
        .eval(&e)
        .unwrap_or_else(|err| panic!("went wrong ({err}): {e}"));
    match v {
        Value::Int(n) => assert!(n >= 0, "negative extent count {n} for {e}"),
        other => panic!("expected int, got {} for {e}", m.show(&other)),
    }
}

/// Evaluation is deterministic: two runs on fresh machines agree.
#[test]
fn evaluation_is_deterministic() {
    sized_cases(96, 1..4, evaluation_repeats);
}

fn evaluation_repeats(g: &mut Gen, depth: usize) {
    let (e, _) = g.observable_program(depth);
    let run = || {
        let mut m = Machine::new();
        m.eval(&e).map(|v| m.show(&v))
    };
    assert_eq!(run().ok(), run().ok(), "two runs disagree on {e}");
}

/// The case recorded in `prop_soundness.proptest-regressions` when these
/// properties ran on proptest: seed 10373302976674548434, depth 1. That
/// seed indexed `rand`'s ChaCha stream, so the program it produced cannot
/// be regenerated here; the seed and depth run through splitmix64 as one
/// more named case of every property above.
#[test]
fn recorded_regression_seed() {
    let seed = 10373302976674548434;
    program_is_well_typed(&mut Gen::new(seed), 1);
    program_cannot_go_wrong(&mut Gen::new(seed), 1);
    class_program_cannot_go_wrong(&mut Gen::new(seed), 1);
    evaluation_repeats(&mut Gen::new(seed), 1);
}
