//! Prop. 1 (type soundness), executable: generated well-typed programs
//! never "go wrong" — evaluation never raises a type-category runtime
//! error, and the resulting value has the program's type.

use crate::common::{sized_cases, Gen};
use polyview::{Engine, Error, Outcome};
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
        // A generalized variable: the type says nothing of the value.
        (_, Mono::Var(_)) => true,
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

/// Names a session binds and rebinds.
const NAMES: [&str; 2] = ["f", "g"];

/// One statement of a rebinding session: a `val` or `fun` that binds a
/// name, at one of several types, often to a closure over another name,
/// or an expression statement that uses one.
fn session_stmt(g: &mut Gen) -> String {
    let n = NAMES[g.pick(NAMES.len())];
    let m = NAMES[g.pick(NAMES.len())];
    let k = g.range(0, 9);
    match g.below(12) {
        0 => format!("val {n} = {k};"),
        1 => format!("val {n} = \"s{k}\";"),
        2 => format!("val {n} = [A = {k}, B = \"b\"];"),
        3 => format!("val {n} = fn x => x + {k};"),
        4 => format!("val {n} = fn x => concat x \"!\";"),
        5 => format!("val {n} = fn u => {m};"),
        6 => format!("val {n} = fn y => {m} y;"),
        7 => format!("fun {n} x = {m} (x + {k});"),
        8 => format!("fun {n} x = if x = 0 then {m} else {n} (x - 1);"),
        9 => format!("{n} {k}"),
        10 => format!("{n} ()"),
        _ => format!("({n} \"a\", {m})"),
    }
}

/// Prop. 1 over sessions: statements that rebind names, at other types,
/// that earlier closures use. Every statement that type-checks evaluates
/// without a type-category error, and its value — or each value it
/// binds — inhabits its inferred type. A closure that read its globals
/// when called would see the later binding, at a type it was not checked
/// against.
#[test]
fn rebinding_sessions_cannot_go_wrong() {
    sized_cases(96, 4..20, |g, len| {
        let mut e = Engine::new();
        let stmts: Vec<String> = (0..len).map(|_| session_stmt(g)).collect();
        for (i, stmt) in stmts.iter().enumerate() {
            let session = || stmts[..=i].join(" ");
            // `fun f x = f (x + 1)` never ends; fuel stops each statement.
            e.machine().fuel = Some(5_000);
            if stmt.ends_with(';') {
                match e.exec(stmt) {
                    Ok(outcomes) => {
                        for o in outcomes {
                            let Outcome::Defined(binds) = o else { continue };
                            for (name, scheme) in binds {
                                let v = e.value_of(name.as_str()).expect("bound");
                                assert!(
                                    value_has_type(e.machine(), &v, &scheme.body),
                                    "{name} = {} is not a {scheme} after {}",
                                    e.show(&v),
                                    session()
                                );
                            }
                        }
                    }
                    Err(err) => check_failure(&err, &session()),
                }
            } else {
                match e.eval_expr(stmt) {
                    Ok((scheme, v)) => assert!(
                        value_has_type(e.machine(), &v, &scheme.body),
                        "{} is not a {scheme} after {}",
                        e.show(&v),
                        session()
                    ),
                    Err(err) => check_failure(&err, &session()),
                }
            }
        }
    });
}

/// A statement may be rejected, or fail for a reason no type rules out,
/// but never go wrong.
fn check_failure(err: &Error, session: &str) {
    if let Error::Runtime(r) = err {
        assert!(!r.is_type_error(), "went wrong ({r}) after {session}");
    }
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
