//! The extent cache replays writes onto its entries (DESIGN.md §3), and no
//! program can tell: over generated class groups (cycles, diamonds,
//! several includes per class, record views, field predicates, `fuse`)
//! and seeded streams of `insert`/`delete`/`update` interleaved with
//! extent reads, an engine that keeps its cache and an engine restored
//! from its snapshot before each statement, whose cache is cold, agree
//! after every statement on the answer, the fuel burned, the next
//! identity and the machine's bytes.

use crate::common::{cases, StmtKind};
use polyview::eval::encode_machine;
use polyview::Engine;

/// Statements per generated stream.
const STREAM: usize = 50;

/// `stmt` on `e`: its answer (or error), and the fuel it burned.
fn run(e: &mut Engine, stmt: &str, kind: StmtKind) -> (Result<String, String>, u64) {
    let fuel = e.stats().eval.fuel_consumed;
    let out = match kind {
        StmtKind::Read => e.read(stmt),
        StmtKind::Write => e.exec(stmt).map(|o| format!("{o:?}")),
    };
    let burned = e.stats().eval.fuel_consumed - fuel;
    (out.map_err(|err| err.to_string()), burned)
}

#[test]
fn a_patched_engine_answers_mints_and_burns_like_a_cold_one() {
    let mut patches = 0;
    cases(40, |g| {
        let schema = g.class_schema();
        let mut warm = Engine::new();
        for d in &schema.decls {
            warm.exec(d).unwrap_or_else(|e| panic!("{d}: {e}"));
        }
        let program = schema.decls.join("\n");
        let mut stream = Vec::new();
        for _ in 0..STREAM {
            let (stmt, kind) = g.schema_statement(&schema);
            stream.push(stmt.clone());
            let mut cold = Engine::from_snapshot(&warm.snapshot()).expect("restores");
            let (w, c) = (run(&mut warm, &stmt, kind), run(&mut cold, &stmt, kind));
            let here = || format!("{program}\n-- after:\n{}", stream.join("\n"));
            assert_eq!(w, c, "answer and fuel\n{}", here());
            assert_eq!(
                warm.machine().next_id(),
                cold.machine().next_id(),
                "next id\n{}",
                here()
            );
            assert!(
                encode_machine(warm.machine()) == encode_machine(cold.machine()),
                "machine bytes\n{}",
                here()
            );
        }
        patches += warm.stats().eval.extent_patches;
    });
    assert!(patches > 100, "only {patches} reads were patched");
}
