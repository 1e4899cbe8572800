//! The compile-once/run-many pipeline end to end: `Engine::prepare`/`run`,
//! the LRU statement cache behind `eval_to_string` and the `Database`
//! facade, staleness across declarations, interaction with mutating
//! `insert`/`delete` (including the machine's extent-cache epochs), and
//! the removal of the source-splicing hazard.

use polyview::{Database, Engine, Error};

fn staff_db() -> Database {
    let mut db = Database::new();
    db.exec(
        "class Staff = class {} end;\n\
         insert(Staff, IDView([Name = \"Alice\", Age = 40]));\n\
         insert(Staff, IDView([Name = \"Bob\", Age = 50]));",
    )
    .expect("setup");
    db
}

const NAMES_FN: &str = "fn s => map(fn o => query(fn x => x.Name, o), s)";

// ----- Engine::prepare / Engine::run -----

#[test]
fn prepare_once_run_many() {
    let mut e = Engine::new();
    e.exec("val x = 20;").expect("defines");
    let p = e.prepare("x + x + 2").expect("compiles");
    assert_eq!(p.src(), Some("x + x + 2"));
    assert_eq!(p.scheme().to_string(), "int");
    let before = e.stats();
    for _ in 0..100 {
        assert_eq!(e.run_to_string(&p).expect("runs"), "42");
    }
    let after = e.stats();
    assert_eq!(after.parses, before.parses, "run must never parse");
    assert_eq!(after.inferences, before.inferences, "run must never infer");
}

#[test]
fn prepared_observes_mutable_state() {
    let mut e = Engine::new();
    e.exec("val cell = [n := 0];").expect("defines");
    let bump = e.prepare("update(cell, n, cell.n + 1)").expect("compiles");
    let read = e.prepare("cell.n").expect("compiles");
    for expected in 1..=5 {
        e.run(&bump).expect("bump");
        assert_eq!(e.run_to_string(&read).expect("read"), expected.to_string());
    }
}

#[test]
fn prepared_goes_stale_across_declarations() {
    let mut e = Engine::new();
    e.exec("val x = 1;").expect("defines");
    let p = e.prepare("x + 1").expect("compiles");
    assert_eq!(e.run_to_string(&p).expect("runs"), "2");
    // Re-declaring x (possibly at a different type!) invalidates p.
    e.exec("val x = \"shadowed\";").expect("redefines");
    let err = e.run(&p).expect_err("stale");
    assert!(err.is_stale_prepared(), "got {err:?}");
    // Re-preparing picks up the new binding (and its new type).
    let p2 = e.prepare("x ^ \"!\"").expect("recompiles");
    assert_eq!(e.run_to_string(&p2).expect("runs"), "\"shadowed!\"");
}

#[test]
fn prepared_survives_inserts_and_deletes() {
    // insert/delete are expression-level effects, not declarations: a
    // prepared query stays valid and reads the *current* extent.
    let mut e = Engine::new();
    e.exec(
        "class Staff = class {} end;\n\
         val eve = IDView([Name = \"Eve\"]);",
    )
    .expect("setup");
    let count = e
        .prepare("cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Staff)")
        .expect("compiles");
    assert_eq!(e.run_to_string(&count).expect("runs"), "0");
    e.eval_to_string("insert(Staff, eve)").expect("insert");
    assert_eq!(e.run_to_string(&count).expect("runs"), "1");
    e.eval_to_string("delete(Staff, eve)").expect("delete");
    assert_eq!(e.run_to_string(&count).expect("runs"), "0");
}

#[test]
fn translation_is_computed_on_demand() {
    let mut e = Engine::new();
    let p = e
        .prepare("query(fn x => x.Name, IDView([Name = \"Joe\"]))")
        .expect("compiles");
    let t = p.translation();
    // The Fig. 3 translation eliminates the view layer: no `query` node
    // survives, and repeated requests return the same cached term.
    assert!(!format!("{t}").contains("query"), "got {t}");
    assert_eq!(format!("{}", p.translation()), format!("{t}"));
}

// ----- the engine statement cache -----

#[test]
fn repeated_eval_to_string_hits_the_cache() {
    let mut e = Engine::new();
    e.exec("val x = 41;").expect("defines");
    assert_eq!(e.eval_to_string("x + 1").expect("cold"), "42");
    let warm = e.stats();
    for _ in 0..10 {
        assert_eq!(e.eval_to_string("x + 1").expect("warm"), "42");
    }
    let after = e.stats();
    assert_eq!(after.parses, warm.parses);
    assert_eq!(after.inferences, warm.inferences);
    assert_eq!(after.stmt_cache_hits, warm.stmt_cache_hits + 10);
}

#[test]
fn declarations_invalidate_cached_statements() {
    let mut e = Engine::new();
    e.exec("val x = 1;").expect("defines");
    assert_eq!(e.eval_to_string("x").expect("cold"), "1");
    e.exec("val x = 2;").expect("redefines");
    // The cached compiled form is stale; it must be recompiled, not reused.
    let before = e.stats();
    assert_eq!(e.eval_to_string("x").expect("recompiled"), "2");
    let after = e.stats();
    assert_eq!(after.stmt_cache_misses, before.stmt_cache_misses + 1);
}

#[test]
fn lru_eviction_recompiles_evicted_statements() {
    let mut e = Engine::new();
    e.set_stmt_cache_capacity(2);
    e.eval_to_string("1 + 1").expect("a");
    e.eval_to_string("2 + 2").expect("b");
    e.eval_to_string("1 + 1").expect("refresh a");
    e.eval_to_string("3 + 3").expect("c evicts b");
    assert_eq!(e.stmt_cache_len(), 2);
    let before = e.stats();
    e.eval_to_string("2 + 2").expect("b again: recompiled");
    let mid = e.stats();
    assert_eq!(mid.stmt_cache_misses, before.stmt_cache_misses + 1);
    // Re-inserting b evicted the then-least-recently-used entry, a,
    // keeping c: c still hits, a must recompile.
    e.eval_to_string("3 + 3").expect("c still cached");
    let after = e.stats();
    assert_eq!(after.stmt_cache_hits, mid.stmt_cache_hits + 1);
    e.eval_to_string("1 + 1").expect("a recompiled");
    let last = e.stats();
    assert_eq!(last.stmt_cache_misses, after.stmt_cache_misses + 1);
}

#[test]
fn zero_capacity_is_the_cold_path() {
    let mut e = Engine::new();
    e.set_stmt_cache_capacity(0);
    e.eval_to_string("1 + 1").expect("a");
    e.eval_to_string("1 + 1").expect("a again");
    let s = e.stats();
    assert_eq!(s.stmt_cache_hits, 0);
    assert_eq!(s.stmt_cache_misses, 2);
    assert_eq!(e.stmt_cache_len(), 0);
}

// ----- the Database facade on the prepared pipeline -----

#[test]
fn database_query_compiles_once_for_many_calls() {
    let mut db = staff_db();
    assert_eq!(
        db.query("Staff", NAMES_FN).expect("cold"),
        "{\"Alice\", \"Bob\"}"
    );
    let warm = db.engine().stats();
    for _ in 0..1000 {
        db.query("Staff", NAMES_FN).expect("warm");
    }
    let after = db.engine().stats();
    assert_eq!(after.parses, warm.parses, "warm queries must not parse");
    assert_eq!(
        after.inferences, warm.inferences,
        "warm queries must not infer"
    );
    assert_eq!(after.stmt_cache_hits, warm.stmt_cache_hits + 1000);
}

#[test]
fn database_query_reflects_mutations_between_calls() {
    let mut db = staff_db();
    assert_eq!(
        db.query("Staff", NAMES_FN).expect("q"),
        "{\"Alice\", \"Bob\"}"
    );
    db.exec("val carol = IDView([Name = \"Carol\", Age = 30]);")
        .expect("defines");
    db.insert("Staff", "carol").expect("insert");
    assert_eq!(
        db.query("Staff", NAMES_FN).expect("q"),
        "{\"Alice\", \"Bob\", \"Carol\"}"
    );
    db.delete("Staff", "carol").expect("delete");
    assert_eq!(
        db.query("Staff", NAMES_FN).expect("q"),
        "{\"Alice\", \"Bob\"}"
    );
}

#[test]
fn database_query_respects_extent_cache_epochs() {
    // A cached cquery statement must still see every insert/delete: the
    // machine's class epoch invalidates the extent cache independently of
    // the statement cache.
    let mut db = staff_db();
    assert_eq!(
        db.query("Staff", NAMES_FN).expect("q"),
        "{\"Alice\", \"Bob\"}"
    );
    // Warm both caches, then mutate.
    db.query("Staff", NAMES_FN).expect("warm");
    assert_eq!(
        db.engine().machine().extent_cache_len(),
        1,
        "Staff is cached"
    );
    db.exec("val dan = IDView([Name = \"Dan\", Age = 20]);")
        .expect("defines");
    db.insert("Staff", "dan").expect("insert");
    assert_eq!(
        db.query("Staff", NAMES_FN).expect("q"),
        "{\"Alice\", \"Bob\", \"Dan\"}"
    );
    db.delete("Staff", "dan").expect("delete");
    assert_eq!(
        db.query("Staff", NAMES_FN).expect("q"),
        "{\"Alice\", \"Bob\"}"
    );
}

#[test]
fn insert_operand_cannot_change_statement_meaning() {
    // Before the AST-construction refactor this operand was spliced into
    // "insert(Staff, <obj>)" as source text. Now it must parse as one
    // complete expression: trailing syntax is a parse error and the extent
    // is untouched.
    let mut db = Database::new();
    db.exec(
        "val x = IDView([Name = \"X\"]);\n\
         class Staff = class {x} end;",
    )
    .expect("setup");
    assert_eq!(db.count("Staff").expect("count"), 1);
    let err = db
        .insert("Staff", "x)); delete(Staff, x")
        .expect_err("rejected");
    assert!(err.is_parse_error(), "got {err:?}");
    assert_eq!(db.count("Staff").expect("count"), 1, "extent unchanged");
}

#[test]
fn delete_operand_cannot_change_statement_meaning() {
    let mut db = Database::new();
    db.exec(
        "val x = IDView([Name = \"X\"]);\n\
         class Staff = class {x} end;",
    )
    .expect("setup");
    let err = db
        .delete("Staff", "x), IDView([Name = \"evil\"]")
        .expect_err("rejected");
    assert!(err.is_parse_error(), "got {err:?}");
    assert_eq!(db.count("Staff").expect("count"), 1, "extent unchanged");
}

#[test]
fn class_operand_is_a_name_not_source() {
    // The class argument becomes a variable node; a syntactically wild
    // "class name" is just an unbound variable, caught statically at
    // inference time — never reinterpreted as syntax.
    let mut db = staff_db();
    let err = db
        .query("Staff), {}", NAMES_FN)
        .expect_err("unbound variable");
    assert!(err.is_type_error(), "got {err:?}");
}

// ----- per-name dependency invalidation -----

#[test]
fn unrelated_rebind_keeps_prepared_statement_and_cache_hot() {
    let mut e = Engine::new();
    e.exec(
        "class Staff = class {} end;\n\
         insert(Staff, IDView([Name = \"Alice\", Age = 40]));",
    )
    .expect("setup");
    let query = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)";
    let p = e.prepare(query).expect("compiles");
    assert_eq!(e.run_to_string(&p).expect("runs"), "{\"Alice\"}");
    assert_eq!(e.eval_to_string(query).expect("fills cache"), "{\"Alice\"}");

    // Rebind names the query never mentions: the prepared handle keeps
    // running and the cached compilation hits without re-inference.
    e.exec("val tick = 1;").expect("declares");
    e.exec("val tick = 2;").expect("rebinds");
    e.exec("fun helper x = x + 1;").expect("declares");
    assert_eq!(e.run_to_string(&p).expect("still fresh"), "{\"Alice\"}");
    let before = e.stats();
    assert_eq!(e.eval_to_string(query).expect("warm"), "{\"Alice\"}");
    let after = e.stats();
    assert_eq!(after.stmt_cache_hits, before.stmt_cache_hits + 1);
    assert_eq!(after.inferences, before.inferences, "no re-inference");
    assert_eq!(
        after.stmt_cache_dep_invalidations,
        before.stmt_cache_dep_invalidations
    );
    assert_eq!(after.epoch_invalidations, 0, "no stale run ever happened");
}

#[test]
fn rebinding_a_dependency_invalidates() {
    let mut e = Engine::new();
    e.exec("val base = 10;").expect("defines");
    let p = e.prepare("base + 1").expect("compiles");
    assert_eq!(e.run_to_string(&p).expect("runs"), "11");
    e.exec("val base = 20;").expect("rebinds");
    let err = e.run(&p).expect_err("stale");
    assert!(err.is_stale_prepared(), "got {err:?}");

    // The cached form of the same source is dropped and recompiled too.
    e.eval_to_string("base + 1").expect("fills cache");
    e.exec("val base = 30;").expect("rebinds");
    let before = e.stats();
    assert_eq!(e.eval_to_string("base + 1").expect("recompiles"), "31");
    let after = e.stats();
    assert_eq!(
        after.stmt_cache_dep_invalidations,
        before.stmt_cache_dep_invalidations + 1
    );
    assert_eq!(after.stmt_cache_misses, before.stmt_cache_misses + 1);
}

#[test]
fn rebinding_a_source_leaves_its_aliases_current() {
    // `val g = f;` holds f's value from when g was defined, under g's own
    // index signature, so rebinding f changes nothing a statement on g (or
    // on h, an alias of g) was compiled against: a statement is stale iff
    // a name it mentions was rebound (DESIGN.md §12).
    let mut e = Engine::new();
    e.exec("val f = fn x => x + 1;").expect("defines");
    e.exec("val g = f;").expect("aliases");
    e.exec("val h = g;").expect("chains the alias");
    let on_f = e.prepare("f 1").expect("compiles");
    let on_g = e.prepare("g 1").expect("compiles");
    let on_h = e.prepare("h 1").expect("compiles");
    assert_eq!(e.eval_to_string("g 2").expect("fills cache"), "3");

    e.exec("val f = fn x => x * 10;")
        .expect("rebinds the source");
    assert!(e.run(&on_f).expect_err("f moved").is_stale_prepared());
    assert_eq!(e.run_to_string(&on_g).expect("g is current"), "2");
    assert_eq!(e.run_to_string(&on_h).expect("h is current"), "2");
    assert_eq!(e.eval_to_string("f 1").expect("recompiles"), "10");

    // The cached statement on the alias is served as it was.
    let before = e.stats();
    assert_eq!(e.eval_to_string("g 2").expect("cache hit"), "3");
    let after = e.stats();
    assert_eq!(after.stmt_cache_hits, before.stmt_cache_hits + 1);
    assert_eq!(
        after.stmt_cache_dep_invalidations, before.stmt_cache_dep_invalidations,
        "rebinding the source must not drop the alias's compilation"
    );
}

#[test]
fn alias_keeps_its_snapshot_when_the_source_is_rebound() {
    // `val g = f;` copies f's *value*. g's lowered form is
    // index-abstracted — it must still capture f's value at definition
    // time rather than re-resolve the global name on every call: after f
    // is rebound (even to a non-function), calling g must behave exactly
    // as the old f did, matching `val` snapshot semantics.
    let mut e = Engine::new();
    e.exec("val f = fn p => p.Bonus;").expect("defines");
    e.exec("val g = f;").expect("aliases");
    e.exec("val f = 42;").expect("rebinds to a non-function");
    assert_eq!(
        e.eval_to_string("g [Bonus = 7, Zed = 1]").expect("runs"),
        "7",
        "alias must keep the old f's behaviour after the rebind"
    );

    // The same through a chain: h snapshots g, which snapshotted f.
    e.exec("val h = g;").expect("chains the alias");
    e.exec("val g = true;").expect("rebinds the middle");
    assert_eq!(e.eval_to_string("h [Bonus = 9]").expect("runs"), "9");
}

#[test]
fn rebinding_any_group_member_invalidates_dependents_of_each() {
    // A `fun … and …` group rebinds every member name: a statement
    // depending on *any* member goes stale, and statements depending on
    // neither stay fresh.
    let mut e = Engine::new();
    e.exec("fun f x = x + 1 and g x = x * 2;").expect("defines");
    e.exec("val other = 5;").expect("defines");
    let on_f = e.prepare("f 1").expect("compiles");
    let on_g = e.prepare("g 1").expect("compiles");
    let on_other = e.prepare("other + 1").expect("compiles");
    e.run(&on_f).expect("fresh");
    e.run(&on_g).expect("fresh");

    // Rebinding the group through *one* member's new definition still
    // rebinds both names.
    e.exec("fun f x = x and g x = x;").expect("rebinds group");
    assert!(e.run(&on_f).expect_err("f dep").is_stale_prepared());
    assert!(e.run(&on_g).expect_err("g dep").is_stale_prepared());
    assert_eq!(
        e.run_to_string(&on_other).expect("unrelated stays fresh"),
        "6"
    );
}

// ----- fun groups elaborate once -----

#[test]
fn fun_group_is_elaborated_once_regardless_of_size() {
    for src in [
        "fun f1 n = n + 1;",
        "fun f1 n = f2 n and f2 n = n;",
        "fun f1 n = f2 n and f2 n = f3 n and f3 n = f4 n and f4 n = n;",
    ] {
        let mut e = Engine::new();
        let before = e.stats();
        e.exec(src).expect("defines");
        let after = e.stats();
        assert_eq!(
            after.inferences,
            before.inferences + 1,
            "group must be inferred exactly once: {src}"
        );
    }
}

#[test]
fn fun_group_bindings_stay_polymorphic_and_mutually_recursive() {
    let mut e = Engine::new();
    e.exec(
        "fun even n = if n = 0 then true else odd (n - 1) \
         and odd n = if n = 0 then false else even (n - 1) \
         and apply f x = f x;",
    )
    .expect("defines");
    assert_eq!(e.eval_to_string("even 10").expect("runs"), "true");
    assert_eq!(e.eval_to_string("apply odd 9").expect("runs"), "true");
    assert_eq!(
        e.eval_to_string("apply (fn s => s ^ \"!\") \"hi\"")
            .expect("runs"),
        "\"hi!\""
    );
}

// ----- error taxonomy -----

#[test]
fn stale_prepared_is_its_own_error() {
    let err = Error::StalePrepared;
    assert!(err.is_stale_prepared());
    assert!(!err.is_type_error() && !err.is_parse_error() && !err.is_runtime_error());
    assert!(err.to_string().contains("stale prepared statement"));
}
