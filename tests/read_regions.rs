//! Read regions (`Engine::read`): a read leaves no trace in the machine,
//! so a replica's machine state is a function of the writes it applied,
//! not of the reads it served.

mod common;

use polyview::eval::{encode_machine, MachineStats, RuntimeError};
use polyview::{Database, Engine, Error};
use polyview_pool::{Pool, PoolConfig};

/// Declarations every read below refers to.
const SETUP: &[&str] = &[
    "class Staff = class {} end;",
    "fun hire n = insert(Staff, IDView([Name = n, Pay := 10]));",
    "val boxed = [F := 1, G = \"g\"];",
    "val joe = IDView([Name = \"Joe\", Pay := 3]);",
    "class Paid = class {} include Staff as fn x => [Name = x.Name, Pay = x.Pay] \
     where fn o => query(fn p => p.Pay > 5, o) end;",
];

/// The writes applied after the setup, with reads served between them.
const WRITES: &[&str] = &[
    "hire(\"Ada\")",
    "hire(\"Bob\")",
    "update(boxed, F, 2)",
    "insert(Staff, joe)",
    "val late = [H := 0];",
    "hire(\"Cy\")",
    "update(late, H, 5)",
    "delete(Staff, joe)",
    "class Extra = class {joe} end;",
    "hire(\"Di\")",
];

/// Read shapes, instantiated with a counter so their literals vary.
fn read_src(i: usize) -> String {
    match i % 8 {
        0 => format!("query(fn x => [N = x.Name, K = [V := {i}]], joe as fn x => [Name = x.Name])"),
        1 => "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Paid)".to_string(),
        2 => format!(
            "cquery(fn s => map(fn o => query(fn x => x.N, o), s), \
             class {{IDView([N = {i}])}} include Staff as fn x => [N = 0] where fn x => true end)"
        ),
        3 => format!("let r = [F := {i}] in let u = update(r, F, {i} + 1) in r.F end end"),
        4 => format!("let r = [A = {i}] in {i} / 0 end"),
        // Effects on earlier state: refused and rolled back.
        5 => format!("hire(\"R{i}\")"),
        6 => "update(boxed, F, 99)".to_string(),
        _ => format!("boxed.F + {i}; [X = boxed.G];"),
    }
}

/// Two engines apply the same writes; engine A serves 1,000 reads between
/// them through `Engine::read`, engine B serves none. Their machine
/// sections encode to the same bytes at every write offset. The type side
/// is compared too, by
/// `replicas_with_different_read_histories_have_identical_snapshots`.
#[test]
fn replicas_with_different_read_histories_have_identical_machines() {
    let mut a = Engine::with_fuel(50_000_000);
    let mut b = Engine::with_fuel(50_000_000);
    for w in SETUP {
        a.exec(w).expect("setup");
        b.exec(w).expect("setup");
    }
    let mut served = 0usize;
    for (offset, w) in WRITES.iter().enumerate() {
        for _ in 0..1_000 / WRITES.len() {
            let src = read_src(served);
            match (served % 8, a.read(&src)) {
                (0..=3 | 7, Ok(_)) => {}
                (4, Err(Error::Runtime(RuntimeError::DivisionByZero))) => {}
                (5 | 6, Err(Error::Runtime(RuntimeError::EffectInRead))) => {}
                (_, other) => panic!("{src}: unexpected {other:?}"),
            }
            served += 1;
        }
        a.exec(w).unwrap_or_else(|e| panic!("A at {offset}: {e}"));
        b.exec(w).unwrap_or_else(|e| panic!("B at {offset}: {e}"));
        assert_eq!(
            encode_machine(a.machine()),
            encode_machine(b.machine()),
            "machine sections differ after write {offset} ({w})"
        );
    }
    assert_eq!(served, 1_000);
}

/// Reads that bind or refine a weak type variable, beside ones that only
/// mention it. `f`'s type variable is free until `val z = f(true);`;
/// `Staff`'s element type (so `Paid`'s `Name`) until the first `hire`.
fn weak_read(i: usize) -> String {
    match i % 6 {
        0 => format!("f({i})"),
        1 => "f(true)".to_string(),
        2 => "f".to_string(),
        3 => "cquery(fn s => map(fn o => query(fn x => x.Name ^ \"!\", o), s), Paid)".to_string(),
        4 => format!("cquery(fn s => map(fn o => query(fn x => x.Name = {i}, o), s), Staff)"),
        _ => read_src(i),
    }
}

/// The type side of a read is a region as well: engine A serves reads,
/// some of which bind or refine weak type variables, and engine B serves
/// none. Their *full* snapshots — type-variable counter, free kinds and
/// schemes included — are byte-equal after every read and every write.
#[test]
fn replicas_with_different_read_histories_have_identical_snapshots() {
    let weak = "val f = (fn x => x)(fn y => y);";
    let mut a = Engine::with_fuel(50_000_000);
    let mut b = Engine::with_fuel(50_000_000);
    for w in SETUP.iter().chain([weak].iter()) {
        a.exec(w).expect("setup");
        b.exec(w).expect("setup");
    }
    let writes = WRITES.iter().chain(["val z = f(true);"].iter());
    let mut served = 0usize;
    for (offset, w) in writes.enumerate() {
        for _ in 0..24 {
            let _ = a.read(&weak_read(served));
            served += 1;
            assert_eq!(a.snapshot(), b.snapshot(), "after read {served}");
        }
        a.exec(w).unwrap_or_else(|e| panic!("A at {offset}: {e}"));
        b.exec(w).unwrap_or_else(|e| panic!("B at {offset}: {e}"));
        assert_eq!(a.snapshot(), b.snapshot(), "after write {offset} ({w})");
    }
    assert_eq!(a.read("z").expect("z"), "true");
    assert!(a
        .read("f(1)")
        .expect_err("f is bool -> bool")
        .is_type_error());
}

/// Reads reuse type-variable numbers: each starts from the same counter.
/// Two cached reads whose compilations named the same numbers alternate,
/// and each keeps giving its own answer from the cache. A read whose type
/// names a variable it minted is not cached: a later write may mint that
/// number as a weak variable, and a hit would hand out its name.
#[test]
fn cached_reads_alternate_after_variable_numbers_are_reused() {
    let mut e = Engine::new();
    e.exec("val f = (fn x => x)(fn y => y);").expect("weak f");
    let reads = [
        (
            "let g = fn r => r.A in g([A = 1, B = 2]) + g([B = true, A = 3]) end",
            "4",
        ),
        (
            "let g = fn r => r.B in g([B = \"b\", A = 2]) ^ g([B = \"c\"]) end",
            "\"bc\"",
        ),
        ("f", "<fn>"),
    ];
    let before = e.snapshot();
    for round in 0..3 {
        let hits = e.stats().stmt_cache_hits;
        for (src, want) in reads {
            assert_eq!(e.read(src).expect("read"), want, "{src}, round {round}");
        }
        if round > 0 {
            assert_eq!(e.stats().stmt_cache_hits, hits + reads.len() as u64);
        }
    }
    assert_eq!(e.snapshot(), before);

    let expansive = "(fn x => x)(fn y => y)";
    let hits = e.stats().stmt_cache_hits;
    for _ in 0..2 {
        assert_eq!(e.read(expansive).expect("read"), "<fn>");
    }
    assert_eq!(e.stats().stmt_cache_hits, hits, "not cached");
    e.exec(&format!("val g = {expansive};")).expect("weak g");
    let weak_g = e.scheme_of("g").expect("g").free_vars();
    let (s, _) = e.eval_expr(expansive).expect("eval");
    assert!(
        s.free_vars().iter().all(|v| !weak_g.contains(v)),
        "{s} names g's weak variable"
    );
}

/// The rendered result is produced inside the region, before the slots it
/// reads are reclaimed, and matches what ordinary evaluation renders.
#[test]
fn reads_render_like_ordinary_evaluation() {
    let mut region = Engine::new();
    let mut plain = Engine::new();
    for w in SETUP.iter().chain(WRITES) {
        region.exec(w).expect("write");
        plain.exec(w).expect("write");
    }
    for i in [0, 1, 2, 3] {
        let src = read_src(i);
        assert_eq!(
            region.read(&src).expect("read"),
            plain.eval_to_string(&src).expect("eval"),
            "{src}"
        );
    }
    assert_eq!(
        region.read("1 + 1; [A = 2];").expect("program"),
        "2\n[A = 2]"
    );
}

#[test]
fn effects_and_declarations_are_refused_and_leave_nothing_behind() {
    let mut e = Engine::new();
    for w in SETUP {
        e.exec(w).expect("setup");
    }
    let before = encode_machine(e.machine());
    for src in [read_src(5), read_src(6), "val more = 1;".to_string()] {
        assert_eq!(
            e.read(&src).expect_err("refused"),
            Error::Runtime(RuntimeError::EffectInRead),
            "{src}"
        );
        assert_eq!(encode_machine(e.machine()), before, "{src}");
    }
    assert!(
        e.value_of("more").is_none(),
        "a refused declaration binds nothing"
    );

    // Repeated reads are served from the statement cache.
    let q = read_src(1);
    e.read(&q).expect("first");
    let hits = e.stats().stmt_cache_hits;
    e.read(&q).expect("second");
    assert_eq!(e.stats().stmt_cache_hits, hits + 1);
}

/// Reads of `Paid`, some minting identities before the extent, so the
/// cached copy's ids start above where a write's scan starts.
fn paid_read(i: usize) -> String {
    match i % 3 {
        0 => "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Paid)".to_string(),
        1 => format!("let r = [Z = {i}] in cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Paid) end"),
        _ => "cquery(fn s => s, Paid)".to_string(),
    }
}

/// The fuel `src` burns as a write on a cold copy of `e`.
fn write_cost(e: &mut Engine, src: &str) -> u64 {
    let mut cold = Engine::from_snapshot(&e.snapshot()).expect("restores");
    cold.machine().fuel = None;
    let before = cold.stats().eval.fuel_consumed;
    cold.exec(src).expect("cold write");
    cold.stats().eval.fuel_consumed - before
}

/// Engine A serves reads of `Paid` between writes and keeps their extents
/// cached; engine B serves none. Every write that scans `Paid` on A is
/// served from the cache, yet the two machines encode to the same bytes
/// after every write: a hit mints, stores and burns exactly what the
/// recompute on B does.
#[test]
fn a_warm_replica_applies_writes_exactly_like_a_cold_one() {
    const FUEL_BOUNDED: &str =
        "val counted = cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Paid);";
    let writes = [
        "hire(\"Ada\")",
        "hire(\"Bob\")",
        // Stores objects re-minted from a cached extent.
        "val kept = cquery(fn s => s, Paid);",
        // Mints identities before its extent.
        "val minted = let r = [Z = 1] in let q = [Y = r.Z] in cquery(fn s => s, Paid) end end;",
        // Two extents of one class in one write.
        "val both = let a = cquery(fn s => s, Paid) in \
         let b = cquery(fn s => s, Paid) in [A = a, B = b] end end;",
        "hire(\"Cy\")",
        // `Rich`'s predicate allocates, so its extent is never cached.
        "val rich = cquery(fn s => s, Rich);",
        FUEL_BOUNDED,
        "insert(Staff, joe)",
        "val late = cquery(fn s => s, Paid);",
    ];
    let mut a = Engine::with_fuel(50_000_000);
    let mut b = Engine::with_fuel(50_000_000);
    let rich = "class Rich = class {} include Staff as fn x => x \
                where fn o => query(fn p => [V = p.Pay].V > 5, o) end;";
    for w in SETUP.iter().chain([rich].iter()) {
        a.exec(w).expect("setup");
        b.exec(w).expect("setup");
    }
    let mut served = 0;
    for (offset, w) in writes.iter().enumerate() {
        for _ in 0..6 {
            a.read(&paid_read(served)).expect("read");
            a.read(&paid_read(served).replace("Paid", "Rich"))
                .expect("read");
            served += 1;
        }
        if *w == FUEL_BOUNDED {
            // Exactly the recompute's cost: the warm scan must fit too.
            let cost = write_cost(&mut b, w);
            a.machine().fuel = Some(cost);
            b.machine().fuel = Some(cost);
        }
        a.exec(w).unwrap_or_else(|e| panic!("A at {offset}: {e}"));
        b.exec(w).unwrap_or_else(|e| panic!("B at {offset}: {e}"));
        assert_eq!(
            encode_machine(a.machine()),
            encode_machine(b.machine()),
            "machine sections differ after write {offset} ({w})"
        );
        if *w == FUEL_BOUNDED {
            assert_eq!(a.machine().fuel, Some(0), "the budget was exact");
            a.machine().fuel = Some(50_000_000);
            b.machine().fuel = Some(50_000_000);
        }
    }
    assert!(
        a.machine().extent_cache_len() > 0,
        "A served from its cache"
    );
    // The stored objects are fresh associations, as on the cold replica.
    let distinct = "hom(both.A, fn x => hom(both.B, fn y => x = y, \
                    fn p => fn q => p orelse q, false), fn p => fn q => p orelse q, false)";
    assert_eq!(a.read(distinct).expect("A"), "false");
    assert_eq!(b.read(distinct).expect("B"), "false");
}

/// Every fuel budget that runs out somewhere in a write scanning a cached
/// extent runs it out at the same step on a warm and a cold engine: a hit
/// needs the whole fill's fuel, and otherwise the warm engine recomputes.
/// That holds for an entry an `insert` left stale, too: replaying the
/// insert onto it burns none of the budget.
#[test]
fn fuel_runs_out_at_the_same_step_warm_or_cold() {
    let write = "val n = let r = [Z = 1] in \
                 cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Paid) end;";
    let mut base = Engine::new();
    for w in SETUP
        .iter()
        .chain(["hire(\"Ada\")", "hire(\"Bob\")"].iter())
    {
        base.exec(w).expect("setup");
    }
    let snapshot = base.snapshot();
    let warm = || {
        let mut e = Engine::from_snapshot(&snapshot).expect("restores");
        e.read(&paid_read(1)).expect("fills the cache");
        e
    };
    sweep_budgets(&snapshot, write, warm, |_, _, _| {});

    let count = "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), RC3)";
    let mut ring = Engine::new();
    ring.exec(&common::ring_program()).expect("ring");
    let before_insert = ring.snapshot();
    ring.exec("insert(RC0, x0);").expect("insert");
    let warm = || {
        let mut e = Engine::from_snapshot(&before_insert).expect("restores");
        e.read(count).expect("fills the cache");
        e.exec("insert(RC0, x0);").expect("insert");
        e
    };
    // Once the scan is reached, the stale entry is patched and served
    // when the fill's fuel is left, and refilled otherwise.
    let patched_or_refilled = |before: MachineStats, after: MachineStats, ok: bool| {
        let patched = after.extent_patches - before.extent_patches;
        assert!(patched + after.extent_fills - before.extent_fills <= 1);
        assert!(patched == 1 || !ok);
    };
    sweep_budgets(
        &ring.snapshot(),
        &format!("val n = {count};"),
        warm,
        patched_or_refilled,
    );
}

/// Run `write` under every fuel budget up to its cost, on an engine
/// restored from `snapshot` and on one `warm` builds with the same state
/// and a warm extent cache: the write runs out at the same step on both,
/// burns the same fuel and leaves the same bytes. `check` gets the warm
/// engine's counters before and after, and whether the write finished.
fn sweep_budgets(
    snapshot: &[u8],
    write: &str,
    warm: impl Fn() -> Engine,
    check: impl Fn(MachineStats, MachineStats, bool),
) {
    let cost = write_cost(
        &mut Engine::from_snapshot(snapshot).expect("restores"),
        write,
    );
    for budget in 0..=cost {
        let mut warm = warm();
        let mut cold = Engine::from_snapshot(snapshot).expect("restores");
        warm.machine().fuel = Some(budget);
        cold.machine().fuel = Some(budget);
        let (warm_before, cold_fuel) = (warm.stats().eval, cold.stats().eval.fuel_consumed);
        let (w, c) = (warm.exec(write), cold.exec(write));
        assert_eq!(w.is_ok(), budget == cost, "budget {budget}");
        assert_eq!(w.is_ok(), c.is_ok(), "budget {budget}");
        assert_eq!(
            encode_machine(warm.machine()),
            encode_machine(cold.machine()),
            "budget {budget} of {cost}"
        );
        let warm_after = warm.stats().eval;
        assert_eq!(
            warm_after.fuel_consumed - warm_before.fuel_consumed,
            cold.stats().eval.fuel_consumed - cold_fuel,
            "budget {budget}"
        );
        check(warm_before, warm_after, w.is_ok());
    }
}

/// Two replicas fill their caches serving reads; an `insert` invalidates
/// both. Every answer is right, and no read is promoted to a write.
#[test]
fn pool_replicas_keep_read_extents_until_a_write_invalidates_them() {
    // Syntactic writes (`hire` would be promoted from a read).
    let hire = |n: &str| format!("insert(Staff, IDView([Name = \"{n}\", Pay := 10]))");
    let mut pool = Pool::new(PoolConfig::default().workers(2));
    for w in SETUP {
        pool.run(1, w).expect("setup");
    }
    pool.run(1, &hire("Ada")).expect("insert");
    let names = paid_read(0);
    for _ in 0..3 {
        for w in 0..2 {
            assert_eq!(pool.probe_worker(w, &names).expect("read"), "{\"Ada\"}");
        }
    }
    pool.run(2, &hire("Bob")).expect("insert");
    for _ in 0..3 {
        for w in 0..2 {
            assert_eq!(
                pool.probe_worker(w, &names).expect("read"),
                "{\"Ada\", \"Bob\"}"
            );
        }
    }
    assert_eq!(pool.stats().reads_promoted, 0);
    pool.shutdown();
}

/// `eval_to_string` runs a pure expression as a read region: whatever it
/// allocates is reclaimed and the identity counter is rewound.
#[test]
fn eval_to_string_of_a_pure_expression_leaves_no_allocation() {
    let mut e = Engine::new();
    for w in SETUP.iter().chain(["hire(\"Ada\")"].iter()) {
        e.exec(w).expect("setup");
    }
    let (slots, next_id) = (e.machine().store.len(), e.machine().next_id());
    for i in 0..4 {
        e.eval_to_string(&read_src(i)).expect("read");
        e.eval_to_string(&paid_read(i)).expect("read");
        assert_eq!(e.machine().store.len(), slots);
        assert_eq!(e.machine().next_id(), next_id);
    }
}

/// An effectful expression is refused inside the region, rolled back and
/// rerun outside it: its effects apply exactly once.
#[test]
fn eval_to_string_applies_effects_exactly_once() {
    let mut e = Engine::new();
    for w in SETUP {
        e.exec(w).expect("setup");
    }
    let count = "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Staff)";
    assert_eq!(e.eval_to_string("hire(\"Ada\")").expect("write"), "()");
    assert_eq!(e.eval_to_string(count).expect("count"), "1");
    assert_eq!(
        e.eval_to_string("let r = [F := 1] in let u = hire(\"Bob\") in r.F end end")
            .expect("write after a region-local allocation"),
        "1"
    );
    assert_eq!(e.eval_to_string(count).expect("count"), "2");
    assert_eq!(
        e.eval_to_string("let u = update(boxed, F, boxed.F + 1) in boxed.F end")
            .expect("update"),
        "2"
    );
    assert_eq!(e.eval_to_string("boxed.F").expect("read"), "2");
}

/// The rerun of a refused effectful statement reuses its compilation: the
/// statement is cached as soon as it compiles, so the region attempt and
/// the rerun share one inference, and the effect still applies once.
#[test]
fn effectful_eval_to_string_compiles_once() {
    let mut e = Engine::new();
    for w in SETUP {
        e.exec(w).expect("setup");
    }
    let count = "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Staff)";
    let before = e.stats().inferences;
    assert_eq!(e.eval_to_string("hire(\"Ada\")").expect("write"), "()");
    assert_eq!(e.stats().inferences, before + 1);
    assert_eq!(e.eval_to_string(count).expect("count"), "1");
}

/// `Database::query` runs as a read region: a repeated query keeps none of
/// what it allocates, and after the first call it is served from the
/// statement cache.
#[test]
fn repeated_database_queries_keep_nothing() {
    let mut db = Database::new();
    db.exec("class Staff = class {} end;").expect("class");
    for k in 0..50 {
        db.insert("Staff", &format!("IDView([Name = \"s{k}\"])"))
            .expect("insert");
    }
    let names = "fn s => map(fn o => query(fn x => [N = x.Name], o), s)";
    let mut run = |n| {
        for _ in 0..n {
            db.query("Staff", names).expect("query");
        }
        let e = db.engine();
        (e.machine().store.len(), e.stats().parses)
    };
    let after_200 = run(200);
    assert_eq!(run(1_800), after_200);
}
