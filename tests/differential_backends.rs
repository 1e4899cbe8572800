//! Differential suite for the engine's one execution path: every statement
//! is lowered to offset-resolved form (DESIGN.md §13) before it runs. The
//! references it is checked against need no engine knob:
//!
//! * **Pinned outputs.** Each corpus statement's rendering — value,
//!   scheme, bound names, or error — was recorded from the engine's former
//!   dynamic-lookup backend, which evaluated the unlowered AST, at a time
//!   when this suite also proved that backend agreed with the lowered one
//!   statement for statement. Lowering changes how field operations
//!   execute, never what they compute, so the lowered engine must keep
//!   reproducing them exactly.
//! * **A live three-way oracle** on closed, prelude-free programs: the
//!   engine's lowered result must equal a bare [`Machine`] evaluating the
//!   parsed, unlowered AST, and the same machine evaluating the program's
//!   Figs. 3/5 translation into the core language.
//!
//! The final test pins the acceptance property of the compile tier: on
//! these workloads every field access, update, and record construction
//! executes through an integer offset — zero dynamic-lookup fallbacks.

use polyview::parser::parse_expr;
use polyview::trans::translate;
use polyview::{Engine, Machine, Outcome};

/// Multi-statement sessions exercising records, views, classes, updates,
/// polymorphic field functions, aliases, and rebinds, each statement
/// paired with its pinned rendering. Statements that *fail* are part of
/// the corpus too: the error text is pinned like any value.
const SESSIONS: &[&[(&str, &str)]] = &[
    // Monomorphic record traffic: construction, dot, destructive update.
    &[
        (
            "val r = [Name = \"Alice\", Age = 40, Salary := 9000];",
            "r : [Age = int, Name = string, Salary := int]",
        ),
        ("r.Name", "\"Alice\" : string"),
        ("r.Age + 2", "42 : int"),
        ("update(r, Salary, r.Salary + 500)", "() : unit"),
        ("r.Salary", "9500 : int"),
        ("[x = 1, y = [z = \"deep\"]].y.z", "\"deep\" : string"),
    ],
    // Polymorphic functions over kinded record variables: index
    // abstraction at the binding, index application at each use.
    &[
        (
            "fun name x = x.Name;",
            "name : ∀t1::[[Name = t2]].∀t2::U. t1 -> t2",
        ),
        (
            "val get_age = fn x => x.Age;",
            "get_age : ∀t1::[[Age = t2]].∀t2::U. t1 -> t2",
        ),
        ("name [Name = \"Bob\", Age = 50]", "\"Bob\" : string"),
        ("name [Name = \"Carol\"]", "\"Carol\" : string"),
        ("get_age [Age = 22, Name = \"Dan\"]", "22 : int"),
        (
            "fun bump r = update(r, Salary, r.Salary + 1);",
            "bump : ∀t1::[[Salary := int]]. t1 -> unit",
        ),
        (
            "let s = [Salary := 10, Name = \"Eve\"] in (bump s).Salary end",
            "error: type error: type unit is not a record type, cannot satisfy a record kind",
        ),
        (
            "fun pair r = [fst = r.A, snd = r.B];",
            "pair : ∀t1::[[A = t2, B = t3]].∀t2::U.∀t3::U. t1 -> [fst = t2, snd = t3]",
        ),
        (
            "pair [A = 1, B = 2, C = 3]",
            "[fst = 1, snd = 2] : [fst = int, snd = int]",
        ),
    ],
    // Aliases of polymorphic functions and higher-order use.
    &[
        (
            "fun name x = x.Name;",
            "name : ∀t1::[[Name = t2]].∀t2::U. t1 -> t2",
        ),
        (
            "val alias = name;",
            "alias : ∀t1::[[Name = t2]].∀t2::U. t1 -> t2",
        ),
        ("alias [Name = \"Fay\", Dept = \"CS\"]", "\"Fay\" : string"),
        ("map(fn r => r.N, {[N = 1], [N = 2]})", "{1, 2} : {int}"),
        (
            "let apply = fn f => fn x => f x in apply name [Name = \"Gil\"] end",
            "\"Gil\" : string",
        ),
    ],
    // Recursive polymorphic traversal repassing its index parameters.
    &[
        (
            "fun total s = hom(s, fn r => r.Salary, fn a => fn b => a + b, 0);",
            "total : ∀t1::[[Salary = int]]. {t1} -> int",
        ),
        ("total {[Salary = 1], [Salary = 2], [Salary = 3]}", "6 : int"),
        (
            "fun countdown r = if r.N = 0 then 0 else countdown(update(r, N, r.N - 1));",
            "error: type error: type unit is not a record type, cannot satisfy a record kind",
        ),
        (
            "countdown [N := 5]",
            "error: type error: unbound variable `countdown`",
        ),
    ],
    // Views and object sharing: the paper's core machinery.
    &[
        (
            "val o = IDView([Name = \"Ann\", Age = 30, Salary := 800]);",
            "o : obj([Age = int, Name = string, Salary := int])",
        ),
        ("query(fn x => x.Name, o)", "\"Ann\" : string"),
        (
            "query(fn x => x.Age, o as fn y => [Age = y.Age + 1])",
            "31 : int",
        ),
        (
            "let u = query(fn x => update(x, Salary, 900), o) in query(fn x => x.Salary, o) end",
            "900 : int",
        ),
        ("objeq(o, o as fn x => [Z = 1])", "true : bool"),
    ],
    // Classes with inclusion and predicates (demo.pv shape).
    &[
        (
            "val alice = IDView([Name = \"Alice\", Age = 40, Sex = \"female\", Salary := 9000]);",
            "alice : obj([Age = int, Name = string, Salary := int, Sex = string])",
        ),
        (
            "val bob = IDView([Name = \"Bob\", Age = 50, Sex = \"male\", Salary := 7000]);",
            "bob : obj([Age = int, Name = string, Salary := int, Sex = string])",
        ),
        (
            "class Staff = class {alice, bob} end;",
            "Staff : class([Age = int, Name = string, Salary := int, Sex = string])",
        ),
        (
            "class Women = class {} include Staff as fn s => [Name = s.Name] \
             where fn s => query(fn x => x.Sex = \"female\", s) end;",
            "Women : class([Name = string])",
        ),
        (
            "fun names c = cquery(fn s => map(fn o => query(fn x => x.Name, o), s), c);",
            "names : ∀t1::[[Name = t2]].∀t2::U. class(t1) -> {t2}",
        ),
        ("names Staff", "{\"Alice\", \"Bob\"} : {string}"),
        ("names Women", "{\"Alice\"} : {string}"),
        (
            "insert(Staff, IDView([Name = \"Eve\", Age = 31, Sex = \"female\", Salary := 100]));",
            "() : unit",
        ),
        ("names Women", "{\"Alice\", \"Eve\"} : {string}"),
    ],
    // Rebinds mid-session: cache invalidation.
    &[
        ("val r = [A = 1];", "r : [A = int]"),
        ("r.A", "1 : int"),
        ("val r = [A = 10, B = 20];", "r : [A = int, B = int]"),
        ("r.A + r.B", "30 : int"),
        (
            "fun get x = x.B;",
            "get : ∀t1::[[B = t2]].∀t2::U. t1 -> t2",
        ),
        ("get r", "20 : int"),
        (
            "fun get x = x.A;",
            "get : ∀t1::[[A = t2]].∀t2::U. t1 -> t2",
        ),
        ("get r", "10 : int"),
    ],
    // Rebinding the *source* of an index-abstracted alias: the alias
    // snapshots the source value at definition time, so calls through it
    // keep the old behaviour — even when the source is rebound to a
    // different signature or to a non-function.
    &[
        (
            "val f = fn p => p.Bonus;",
            "f : ∀t1::[[Bonus = t2]].∀t2::U. t1 -> t2",
        ),
        ("val g = f;", "g : ∀t1::[[Bonus = t2]].∀t2::U. t1 -> t2"),
        ("g [Bonus = 7, Zed = 1]", "7 : int"),
        (
            "val f = fn p => p.Zed;",
            "f : ∀t1::[[Zed = t2]].∀t2::U. t1 -> t2",
        ),
        ("g [Bonus = 7, Zed = 1]", "7 : int"),
        ("val h = g;", "h : ∀t1::[[Bonus = t2]].∀t2::U. t1 -> t2"),
        ("val f = 42;", "f : int"),
        ("val g = true;", "g : bool"),
        ("h [Bonus = 9]", "9 : int"),
    ],
    // Errors are pinned too: type errors and runtime errors.
    &[
        ("val r = [A = 1];", "r : [A = int]"),
        (
            "r.Missing",
            "error: type error: record type [A = int] has no field `Missing`",
        ),
        (
            "update(r, A, 2)",
            "error: type error: field `A` of [A = int] is immutable where a mutable field (l := τ) is required",
        ),
        ("1 + \"no\"", "error: type error: type mismatch: int vs string"),
        (
            "query(fn x => x.A, 3)",
            "error: type error: type mismatch: int vs obj(t0)",
        ),
    ],
];

/// Programs run with the prelude loaded, each with its pinned rendering.
const PRELUDE_PROGRAMS: &[(&str, &str)] = &[
    (
        "map(fn r => r.X * 2, {[X = 1], [X = 2], [X = 3]})",
        "{2, 4, 6} : {int}",
    ),
    (
        "filter(fn r => r.Keep, {[Keep = true, V = 1], [Keep = false, V = 2]})",
        "{[Keep = true, V = 1]} : {[Keep = bool, V = int]}",
    ),
    (
        "hom({[W = 2], [W = 3]}, fn r => r.W, fn a => fn b => a * b, 1)",
        "6 : int",
    ),
    (
        "materialize {IDView([a = 5]) as fn x => [b = x.a]}",
        "{[b = 5]} : {[b = int]}",
    ),
];

/// Closed programs that need no prelude (only builtins), checked live
/// against the unlowered machine and the Figs. 3/5 translation.
const CLOSED_PROGRAMS: &[&str] = &[
    "map(fn r => r.X * 2, {[X = 1], [X = 2], [X = 3]})",
    "filter(fn r => r.Keep, {[Keep = true, V = 1], [Keep = false, V = 2]})",
    "hom({[W = 2], [W = 3]}, fn r => r.W, fn a => fn b => a * b, 1)",
    "[x = 1, y = [z = \"deep\"]].y.z",
    "map(fn r => r.N, {[N = 1], [N = 2]})",
    "let s = [Salary := 10, Name = \"Eve\"] in update(s, Salary, s.Salary + 1) end",
    "let name = fn x => x.Name in [a = name [Name = \"Bob\", Age = 50], b = name [Name = 3]] end",
    "query(fn x => x.Age, IDView([Name = \"Ann\", Age = 30]) as fn y => [Age = y.Age + 1])",
];

/// Render one statement's outcome (or error) canonically.
fn step(e: &mut Engine, src: &str) -> String {
    match e.exec(src) {
        Ok(outcomes) => outcomes
            .iter()
            .map(|o| match o {
                Outcome::Defined(binds) => binds
                    .iter()
                    .map(|(n, s)| format!("{n} : {s}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                Outcome::Value { scheme, rendered } => format!("{rendered} : {scheme}"),
            })
            .collect::<Vec<_>>()
            .join("; "),
        Err(err) => format!("error: {err}"),
    }
}

/// A bare machine's rendering of `e`: no inference, no lowering.
fn machine_render(e: &polyview::Expr) -> String {
    let mut m = Machine::new();
    let v = m
        .eval(e)
        .unwrap_or_else(|err| panic!("machine fails ({err}) on {e}"));
    m.show(&v)
}

#[test]
fn both_backends_agree_on_every_session() {
    for (i, session) in SESSIONS.iter().enumerate() {
        let mut e = Engine::new();
        for (j, (stmt, pinned)) in session.iter().enumerate() {
            assert_eq!(
                step(&mut e, stmt),
                *pinned,
                "session {i} stmt {j} diverged from its pinned output: {stmt}"
            );
        }
    }
}

#[test]
fn both_backends_agree_on_the_prelude_corpus() {
    for (src, pinned) in PRELUDE_PROGRAMS {
        let mut e = Engine::new();
        e.load_prelude().expect("prelude");
        assert_eq!(step(&mut e, src), *pinned, "program diverged: {src}");
    }
}

#[test]
fn closed_programs_agree_with_the_machine_and_translation_oracle() {
    for src in CLOSED_PROGRAMS {
        let lowered = Engine::new().eval_to_string(src).expect("engine runs");
        let ast = parse_expr(src).expect("parses");
        assert_eq!(
            lowered,
            machine_render(&ast),
            "lowered engine vs unlowered machine: {src}"
        );
        assert_eq!(
            lowered,
            machine_render(&translate(&ast)),
            "lowered engine vs Figs. 3/5 translation: {src}"
        );
    }
}

#[test]
fn offset_tier_runs_the_corpus_without_dynamic_fallbacks() {
    // The acceptance gate: on these workloads the engine resolves every
    // user-level field operation to an integer offset.
    let mut e = Engine::new();
    for session in SESSIONS {
        for (stmt, _) in *session {
            let _ = step(&mut e, stmt);
        }
    }
    let s = e.stats();
    assert!(
        s.eval.field_offsets_resolved > 0,
        "corpus must exercise offset ops"
    );
    assert_eq!(
        s.eval.dyn_field_fallbacks, 0,
        "lowered engine fell back to dynamic lookup"
    );
}
