//! A two-argument application builds no intermediate value (DESIGN.md
//! §13): `g x a` with `g` a closure whose body is a `λ`, or a binary
//! builtin, binds both arguments at once, and `hom` applies its curried
//! `op` the same way; `query(λx.e, o)` runs the λ's body without making
//! its closure. The intermediate closure or partial application is never
//! built, yet everything it would have done stays observable: its fuel,
//! the identity it would have been minted with, and where fuel runs out.
//!
//! While a profiler runs, every application takes the generic path, so
//! each test here runs one engine plainly and a copy restored from its
//! snapshot with the profiler on, and requires the same rendered
//! outcomes, fuel, next identity and snapshot bytes after every statement.

mod common;

use common::{cases, Gen};
use polyview::Engine;

/// An engine and its profiled twin, both fresh from `setup`.
struct Pair {
    fast: Engine,
    generic: Engine,
}

impl Pair {
    fn new(setup: &[&str]) -> Pair {
        let mut fast = Engine::new();
        for stmt in setup {
            fast.exec(stmt).unwrap_or_else(|e| panic!("{stmt}: {e:?}"));
        }
        Pair::restored(&fast.snapshot(), None)
    }

    /// Both engines restored from `bytes`, with `fuel` left to burn.
    fn restored(bytes: &[u8], fuel: Option<u64>) -> Pair {
        let mut fast = Engine::from_snapshot(bytes).expect("restores");
        let mut generic = Engine::from_snapshot(bytes).expect("restores");
        fast.machine().fuel = fuel;
        generic.machine().fuel = fuel;
        generic.start_profiling();
        Pair { fast, generic }
    }

    /// Run `stmt` on both, check they agree, and return its outcome and
    /// the fuel it burned.
    fn exec(&mut self, stmt: &str) -> (String, u64) {
        let fast = observe(&mut self.fast, |e| format!("{:?}", e.exec(stmt)));
        let generic = observe(&mut self.generic, |e| format!("{:?}", e.exec(stmt)));
        assert_eq!(fast, generic, "{stmt}");
        (fast.outcome, fast.fuel)
    }
}

/// What one statement did to an engine.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: String,
    fuel: u64,
    next_id: u64,
    snapshot: Vec<u8>,
}

fn observe(e: &mut Engine, run: impl FnOnce(&mut Engine) -> String) -> Observed {
    let before = e.stats().eval.fuel_consumed;
    let outcome = run(e);
    Observed {
        outcome,
        fuel: e.stats().eval.fuel_consumed - before,
        next_id: e.machine().next_id(),
        snapshot: e.snapshot(),
    }
}

/// Run `stmts` in order on a pair built from `setup`; each outcome must
/// render as expected.
fn agree(setup: &[&str], stmts: &[(&str, &str)]) {
    let mut pair = Pair::new(setup);
    for (stmt, want) in stmts {
        let (got, _) = pair.exec(stmt);
        assert!(got.contains(want), "{stmt}: {got} lacks {want}");
    }
}

/// Every fuel budget from 0 to `stmt`'s cost gives the same outcome and
/// the same bytes on both paths, and the full cost succeeds.
fn fuel_sweep(setup: &[&str], stmt: &str) {
    let bytes = Pair::new(setup).fast.snapshot();
    let (_, cost) = Pair::restored(&bytes, None).exec(stmt);
    assert!(cost > 0, "{stmt} burned nothing");
    for budget in 0..=cost {
        let (outcome, _) = Pair::restored(&bytes, Some(budget)).exec(stmt);
        assert_eq!(
            outcome.contains("FuelExhausted"),
            budget < cost,
            "{stmt} at {budget} of {cost}: {outcome}"
        );
    }
}

const CURRIED: &[&str] = &[
    "val k = fn a => fn b => a;",
    "val pair = fn a => fn b => [A = a, B := b + 0];",
    "val add3 = fn a => fn b => fn c => a + b + c;",
    "val late = fn a => let z = a * 2 in fn b => z + b end;",
];

#[test]
fn curried_closures_agree() {
    agree(
        CURRIED,
        &[
            ("k 1 true", "\"1\""),
            ("pair true 2", "A = true, B := 2"),
            ("add3 1 2 3", "\"6\""),
            ("late 5 1", "\"11\""),
            ("(fn a => fn b => a - b) 10 3", "\"7\""),
            ("(if true then k else fn a => fn b => a) 4 5", "\"4\""),
            ("val p = pair 7;", "Defined"),
            ("p 8", "A = 7, B := 8"),
            ("k (k 1 2) (pair 3 4)", "\"1\""),
            ("k 1 (1 / 0)", "DivisionByZero"),
        ],
    );
}

const RECURSIVE: &[&str] = &[
    "fun sum n acc = if n = 0 then acc else sum (n - 1) (acc + n);",
    "fun pow b e = if e = 0 then 1 else b * pow b (e - 1);",
    "fun even n m = if n = 0 then m = 0 else odd (n - 1) m and odd n m = if n = 0 then m = 1 else even (n - 1) m;",
];

#[test]
fn fix_closures_agree() {
    agree(
        RECURSIVE,
        &[
            ("sum 20 0", "\"210\""),
            ("pow 2 10", "\"1024\""),
            ("even 7 1", "\"true\""),
            ("odd 7 1", "\"false\""),
            ("val s = sum 3;", "Defined"),
            ("s 4", "\"10\""),
            // Local recursion: only the `fix` binding reaches the name.
            (
                "let fun tri n acc = if n = 0 then acc else tri (n - 1) (acc + n) in tri 4 0 end",
                "\"10\"",
            ),
            // It shadows the global `sum`.
            (
                "let fun sum n acc = if n = 0 then acc else sum (n - 1) (acc * 2) in sum 3 1 end",
                "\"8\"",
            ),
        ],
    );
}

#[test]
fn binary_builtins_agree_in_full_and_partially() {
    agree(
        &[],
        &[
            ("add 1 2", "\"3\""),
            ("val inc = add 1;", "Defined"),
            ("inc 41", "\"42\""),
            ("max 3 (min 4 5)", "\"4\""),
            ("(if false then add else sub) 9 4", "\"5\""),
            ("concat \"a\" \"b\"", "ab"),
            ("val lt5 = fn x => lt x 5;", "Defined"),
            ("lt5 3", "\"true\""),
            ("neg (abs (sub 1 9))", "\"-8\""),
            ("div 1 0", "DivisionByZero"),
            ("imod 7 (inc 2)", "\"1\""),
        ],
    );
}

#[test]
fn homs_with_curried_and_builtin_ops_agree() {
    agree(
        RECURSIVE,
        &[
            (
                "hom({1, 2, 3}, fn x => x, fn a => fn b => a + b, 0)",
                "\"6\"",
            ),
            ("hom({1, 2, 3}, fn x => x * 2, add, 0)", "\"12\""),
            ("hom({4, 9, 2}, fn x => x, max, 0)", "\"9\""),
            ("hom({1, 2, 3}, fn x => x, sum, 0)", "\"10\""),
            (
                "hom({1, 2}, fn x => [V = x], fn a => fn b => b + a.V, 0)",
                "\"3\"",
            ),
            (
                "hom({1, 2, 3}, fn x => x, fn a => fn b => b / (a - 2), 1)",
                "DivisionByZero",
            ),
            ("hom({}, fn x => x, add, 5)", "\"5\""),
        ],
    );
}

const VIEWS: &[&str] = &[
    "val people = {[Name = \"a\", Age = 30, Pad = 1], [Name = \"b\", Age = 50, Pad = 2]};",
    "fun name x = x.Name;",
    "fun older x y = x.Age > y;",
    "fun rename x s = [Name = concat x.Name s];",
    "class Staff = class {IDView([Name = \"s0\", Sex = \"f\"]), IDView([Name = \"s1\", Sex = \"m\"]), IDView([Name = \"s2\", Sex = \"f\"])} end;",
    "class Female = class {} include Staff as fn x => [Name = x.Name] \
     where fn x => query(fn p => p.Sex = \"f\", x) end;",
];

#[test]
fn maps_and_filters_over_index_abstracted_functions_agree() {
    agree(
        VIEWS,
        &[
            ("map(name, people)", "\\\"a\\\", \\\"b\\\""),
            ("filter(fn x => older x 40, people)", "Name = \\\"b\\\""),
            ("map(fn x => rename x \"!\", people)", "a!"),
            ("map(fn x => (older x 40, name x), people)", "true"),
            (
                "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Female)",
                "\"2\"",
            ),
            (
                "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)",
                "s0",
            ),
            (
                "cquery(fn s => filter(fn o => query(fn x => older [Age = 1, Name = x.Name] 0, o), s), Female)",
                "obj",
            ),
            // A query λ that captures a local, and one that captures a
            // global (made as a closure on both paths).
            (
                "let t = \"!\" in query(fn x => concat x.Name t, IDView([Name = \"a\"])) end",
                "a!",
            ),
            ("query(fn x => name x, IDView([Name = \"g\"]))", "g"),
            ("query(fn x => 1 / 0, IDView([Name = \"z\"]))", "DivisionByZero"),
        ],
    );
}

#[test]
fn every_fuel_budget_runs_out_at_the_same_node() {
    for (setup, stmt) in [
        (CURRIED, "add3 1 (k 2 3) 4"),
        (CURRIED, "pair (k 1 2) (late 3 4)"),
        (RECURSIVE, "sum 4 0"),
        (RECURSIVE, "even 3 1"),
        (
            RECURSIVE,
            "let fun sum n acc = if n = 0 then acc else sum (n - 1) (acc * 2) in sum 2 1 end",
        ),
        (&[][..], "max (add 1 2) (mul 2 3)"),
        (
            &[][..],
            "hom({1, 2, 3}, fn x => x, fn a => fn b => a + b, 0)",
        ),
        (&[][..], "hom({1, 2, 3}, fn x => x, add, 0)"),
        (VIEWS, "filter(fn x => older x 40, people)"),
        (
            VIEWS,
            "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Female)",
        ),
        (
            VIEWS,
            "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)",
        ),
        (
            VIEWS,
            "let t = \"!\" in query(fn x => concat x.Name t, IDView([Name = \"a\"])) end",
        ),
    ] {
        fuel_sweep(setup, stmt);
    }
}

/// Generated programs (no `fix`, every layer of the calculus) evaluate
/// alike on both paths, statement after statement on one pair.
#[test]
fn generated_programs_agree() {
    cases(40, |g: &mut Gen| {
        let mut pair = Pair::new(&[]);
        for _ in 0..3 {
            let depth = 2 + g.pick(3);
            let (e, _) = if g.flip() {
                g.observable_program(depth)
            } else {
                g.class_program(depth)
            };
            let fast = observe(&mut pair.fast, |en| eval_rendered(en, &e));
            let generic = observe(&mut pair.generic, |en| eval_rendered(en, &e));
            assert_eq!(fast, generic, "{e}");
        }
    });
}

fn eval_rendered(e: &mut Engine, ast: &polyview::syntax::Expr) -> String {
    match e.eval_ast(ast) {
        Ok((_, v)) => e.show(&v),
        Err(err) => format!("{err:?}"),
    }
}
