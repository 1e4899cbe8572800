//! Read regions (`Engine::read`): a read leaves no trace in the machine,
//! so a replica's machine state is a function of the writes it applied,
//! not of the reads it served.

use polyview::eval::{encode_machine, RuntimeError};
use polyview::{Engine, Error};

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
/// sections encode to the same bytes at every write offset. Only the
/// machine section is compared: inference bookkeeping (the fresh-variable
/// counter, free-variable kinds) still advances when a read is type
/// checked, so full engine snapshots may differ.
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
