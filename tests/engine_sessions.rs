//! Session-level engine behaviour: multi-statement programs, persistence,
//! interleaving of definitions and effects, error recovery, and the
//! surface-language forms working together end to end.

use polyview::{Engine, Error, Outcome};

#[test]
fn long_session_state_accumulates() {
    let mut e = Engine::new();
    e.load_prelude().expect("prelude");
    e.exec(
        r#"
        val db_epoch = [n := 0];
        fun tick u = update(db_epoch, n, db_epoch.n + 1);
        class Log = class {} end;
        "#,
    )
    .expect("setup");
    for i in 0..10 {
        e.exec(&format!("tick (); insert(Log, IDView([entry = {i}]));"))
            .expect("step");
    }
    assert_eq!(e.eval_to_string("db_epoch.n").expect("runs"), "10");
    assert_eq!(e.eval_to_string("csize Log").expect("runs"), "10");
}

#[test]
fn rebinding_shadows_cleanly() {
    let mut e = Engine::new();
    e.exec("val x = 1;").expect("first");
    assert_eq!(e.eval_to_string("x").expect("runs"), "1");
    e.exec("val x = \"now a string\";").expect("rebind");
    assert_eq!(e.eval_to_string("x").expect("runs"), "\"now a string\"");
    // The old binding is gone for new code, at the new type.
    assert!(e.infer_expr("x + 1").is_err());
}

#[test]
fn failed_declaration_leaves_previous_state_intact() {
    let mut e = Engine::new();
    e.exec("val x = 41;").expect("defines");
    // A program with a type error in the middle: the error is reported,
    // earlier bindings in the same exec stay (declaration granularity).
    let err = e
        .exec("val y = x + 1; val z = y + \"bad\"; val w = 0;")
        .expect_err("fails");
    assert!(matches!(err, Error::Type(_)));
    assert_eq!(e.eval_to_string("y").expect("runs"), "42");
    // The failing and subsequent declarations did not bind.
    assert!(e.scheme_of("z").is_none());
    assert!(e.scheme_of("w").is_none());
}

#[test]
fn outcomes_report_schemes_per_declaration() {
    let mut e = Engine::new();
    let outs = e
        .exec("val a = 1; fun f x = x; class C = class {} end; f a")
        .expect("runs");
    assert_eq!(outs.len(), 4);
    match &outs[0] {
        Outcome::Defined(binds) => {
            assert_eq!(binds[0].0.as_str(), "a");
            assert_eq!(binds[0].1.to_string(), "int");
        }
        other => panic!("expected define, got {other:?}"),
    }
    match &outs[1] {
        Outcome::Defined(binds) => {
            assert_eq!(binds[0].1.to_string(), "∀t1::U. t1 -> t1");
        }
        other => panic!("expected define, got {other:?}"),
    }
    match &outs[3] {
        Outcome::Value { scheme, rendered } => {
            assert_eq!(scheme.to_string(), "int");
            assert_eq!(rendered, "1");
        }
        other => panic!("expected value, got {other:?}"),
    }
}

#[test]
fn classes_persist_and_share_across_statements() {
    let mut e = Engine::new();
    e.load_prelude().expect("prelude");
    e.exec(
        r#"
        class Person = class {} end;
        class Adult = class {}
            include Person as fn p => p
            where fn p => query(fn x => x.Age >= 18, p)
        end;
        "#,
    )
    .expect("classes");
    e.exec(
        r#"
        insert(Person, IDView([Name = "Kid", Age = 10]));
        insert(Person, IDView([Name = "Grown", Age = 30]));
        "#,
    )
    .expect("inserts");
    assert_eq!(e.eval_to_string("csize Person").expect("runs"), "2");
    assert_eq!(e.eval_to_string("csize Adult").expect("runs"), "1");
    e.exec(r#"insert(Person, IDView([Name = "Elder", Age = 80]));"#)
        .expect("insert");
    assert_eq!(e.eval_to_string("csize Adult").expect("runs"), "2");
}

#[test]
fn translate_expr_round_trips_through_engine() {
    let mut e = Engine::new();
    e.exec(r#"val joe = IDView([Name = "Joe", Salary := 2000]);"#)
        .expect("defines");
    let tr = e
        .translate_expr("query(fn x => x.Salary, joe)")
        .expect("translates");
    // The translation references `joe`, whose *runtime* value is a native
    // object, not a pair — translation output is for whole-program use;
    // here we only check it is closed except for the globals it names.
    let fv = polyview::syntax::visit::free_vars(&tr);
    assert!(fv.contains("joe"));
    let shown = tr.to_string();
    assert!(shown.contains(".2"), "applies a view function: {shown}");
}

#[test]
fn value_rendering_of_every_shape() {
    let mut e = Engine::new();
    for (src, expect) in [
        ("()", "()"),
        ("1 + 1", "2"),
        ("\"s\"", "\"s\""),
        ("true andalso false", "false"),
        ("{3, 1, 2}", "{1, 2, 3}"),
        ("[b = 2, a = 1]", "[a = 1, b = 2]"),
        ("(1, \"x\")", "[1 = 1, 2 = \"x\"]"),
    ] {
        assert_eq!(e.eval_to_string(src).expect("runs"), expect, "for {src}");
    }
    // Functions, objects and classes render opaquely but stably.
    assert_eq!(e.eval_to_string("fn x => x").expect("runs"), "<fn>");
    assert!(e
        .eval_to_string("IDView([a = 1])")
        .expect("runs")
        .starts_with("<obj"));
    assert!(e
        .eval_to_string("class {} end")
        .expect("runs")
        .starts_with("<class"));
}

#[test]
fn with_stack_size_runs_deep_programs() {
    let out = polyview::engine::with_stack_size(128 * 1024 * 1024, || {
        let mut e = Engine::new();
        e.exec("fun sum n = if n = 0 then 0 else n + sum (n - 1);")
            .expect("defines");
        e.eval_to_string("sum 3000").expect("runs")
    });
    assert_eq!(out, "4501500");
}

#[test]
fn fuel_limited_engine_reports_exhaustion_not_crash() {
    let mut e = Engine::with_fuel(500);
    let err = e
        .eval_expr("let fun loop x = loop x in loop 0 end")
        .expect_err("halts");
    assert!(matches!(
        err,
        Error::Runtime(polyview::eval::RuntimeError::FuelExhausted)
    ));
    // A fresh engine (or more fuel) recovers; the failure is clean.
    let mut e2 = Engine::new();
    assert_eq!(e2.eval_to_string("1 + 1").expect("runs"), "2");
}

/// `val f = (fn x => x)(fn y => y);` is not a value, so `f : t -> t` with
/// `t` weak: free in `f`'s scheme until a statement fixes it.
const WEAK_F: &str = "val f = (fn x => x)(fn y => y);";

/// A declaration the type checker rejects leaves the type state as it
/// found it: the weak variable its inference bound before failing is
/// still free, so a later statement may fix it another way.
#[test]
fn a_rejected_declaration_leaves_weak_variables_free() {
    let mut e = Engine::new();
    e.exec(WEAK_F).expect("weak f");
    let weak = e.scheme_of("f").expect("f");
    assert_eq!(weak.free_vars().len(), 1, "{weak}");
    let err = e
        .exec("val z = (f(1), f(true));")
        .expect_err("f cannot be both");
    assert!(err.is_type_error(), "got {err:?}");
    assert_eq!(e.scheme_of("f"), Some(weak), "f is still weak");
    assert_eq!(e.read("f(true)").expect("types"), "true");
    let out = e.exec("val z = f(true);").expect("fixes f");
    assert!(matches!(&out[0], Outcome::Defined(b) if b[0].1.to_string() == "bool"));
    assert_eq!(e.scheme_of("f").expect("f").to_string(), "bool -> bool");
}

/// A cached statement whose scheme names a weak variable is dropped when a
/// later statement fixes that variable: a hit answers what a cold compile
/// would.
#[test]
fn a_cached_scheme_follows_the_write_that_fixes_its_weak_variable() {
    let mut e = Engine::new();
    e.exec(WEAK_F).expect("weak f");
    let (before, _) = e.eval_expr("f").expect("f");
    assert_eq!(before.free_vars().len(), 1, "{before}");
    e.exec("val z = f(true);").expect("fixes f");
    let (after, _) = e.eval_expr("f").expect("f");
    assert_eq!(after.to_string(), "bool -> bool");
    let mut cold = Engine::new();
    cold.set_stmt_cache_capacity(0);
    cold.exec(WEAK_F).expect("weak f");
    cold.eval_expr("f").expect("f");
    cold.exec("val z = f(true);").expect("fixes f");
    assert_eq!(cold.eval_expr("f").expect("f").0, after);
}

/// A statement whose evaluation started keeps its type work even when it
/// then fails: its effects are already in the machine, so the types must
/// describe them.
#[test]
fn a_statement_that_fails_while_running_keeps_its_type_work() {
    let names = "cquery(fn s => map(fn o => query(fn x => x.A, o), s), C)";
    let failing = "let u = insert(C, IDView([A = 1])) in 1 / 0 end";
    for through_exec in [false, true] {
        let mut e = Engine::new();
        e.exec("class C = class {} end;").expect("class");
        let err = if through_exec {
            e.exec(&format!("{failing};")).map(drop)
        } else {
            e.eval_expr(failing).map(drop)
        }
        .expect_err("divides by zero");
        assert!(err.is_runtime_error(), "got {err:?}");
        assert_eq!(e.scheme_of("C").expect("C").to_string(), "class([A = int])");
        assert_eq!(e.eval_to_string(names).expect("typed"), "{1}");
    }
}

/// `g` was typed against `f : int -> int`; rebinding `f` at another type
/// must not reach it.
const REBIND_CALLEE: [&str; 4] = [
    "val f = fn x => x + 1;",
    "val g = fn y => f y;",
    "val f = \"s\";",
    "g 1;",
];

/// `h` returns the `f` in scope where it was written, at that `f`'s type.
const REBIND_CAPTURED: [&str; 4] = [
    "val f = \"s\";",
    "val h = fn u => f;",
    "val f = 3;",
    "h ();",
];

/// The rendering of a session's last statement, run one statement at a
/// time.
fn last_rendering(stmts: &[&str]) -> String {
    let mut e = Engine::new();
    let mut last = None;
    for stmt in stmts {
        last = e.exec(stmt).expect("statement runs").pop();
    }
    match last {
        Some(Outcome::Value { rendered, .. }) => rendered,
        other => panic!("expected a value, got {other:?}"),
    }
}

/// A closure sees the bindings in scope where it was written, globals
/// included: a later declaration of the same name does not reach it
/// (Prop. 1 over a session). Before closures captured their globals,
/// `g 1` failed with `NotAFunction("string")`.
#[test]
fn a_closure_keeps_the_function_it_was_typed_against() {
    assert_eq!(last_rendering(&REBIND_CALLEE), "2");
}

/// Before closures captured their globals, `h ()` returned `3` at type
/// `string`.
#[test]
fn a_closure_keeps_the_value_it_captured() {
    assert_eq!(last_rendering(&REBIND_CAPTURED), "\"s\"");
}

/// Both rebinding sessions through a 2-replica pool: every replica
/// answers the final calls as a bare engine does.
#[test]
fn replicas_answer_rebinding_sessions_alike() {
    use polyview_pool::{Pool, PoolConfig};
    let mut pool = Pool::new(PoolConfig::default().workers(2).queue_capacity(8));
    let sessions: Vec<u64> = (0..2)
        .map(|w| (0..).find(|&s| pool.worker_for(s) == w).expect("a session"))
        .collect();
    for (session, want) in [(REBIND_CALLEE, "2"), (REBIND_CAPTURED, "\"s\"")] {
        let (call, decls) = session.split_last().expect("a call");
        for decl in decls {
            pool.run(sessions[0], decl).expect("declaration applies");
        }
        let call = call.trim_end_matches(';');
        for &s in &sessions {
            assert_eq!(pool.run(s, call).expect("call"), want, "{call} on {s}");
        }
    }
    pool.shutdown();
}
