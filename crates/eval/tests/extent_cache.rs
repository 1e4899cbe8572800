//! The extent cache (an implementation choice over the paper's
//! always-recompute semantics): invalidation on every store mutation —
//! insert, delete, and record-field update — and equivalence of a warm
//! machine with a cold one. The cold side is a machine restored from a
//! snapshot, whose cache starts empty.

use polyview_eval::{decode_machine, encode_machine, Machine};
use polyview_syntax::builder as b;
use polyview_syntax::Expr;

fn person(name: &str, sex: &str) -> Expr {
    b::id_view(b::record([
        b::imm("Name", b::str(name)),
        b::imm("Sex", b::str(sex)),
    ]))
}

fn count_query(class: &str) -> Expr {
    b::cquery(
        b::lam(
            "s",
            b::hom(
                b::v("s"),
                b::lam("x", b::int(1)),
                b::lam("a", b::lam("acc", b::add(b::v("a"), b::v("acc")))),
                b::int(0),
            ),
        ),
        b::v(class),
    )
}

fn setup(m: &mut Machine) {
    let staff = m
        .eval(&b::class(
            b::set([person("Alice", "female"), person("Bob", "male")]),
            vec![],
        ))
        .expect("staff");
    m.define_global("Staff", staff);
    let female = m
        .eval(&b::class(
            b::empty(),
            vec![b::include(
                vec![b::v("Staff")],
                b::lam("s", b::v("s")),
                b::lam(
                    "s",
                    b::query(
                        b::lam("x", b::eq(b::dot(b::v("x"), "Sex"), b::str("female"))),
                        b::v("s"),
                    ),
                ),
            )],
        ))
        .expect("female");
    m.define_global("Female", female);
}

/// A machine restored from `m`'s snapshot: same state, cold cache.
fn cold_copy(m: &Machine) -> Machine {
    decode_machine(&encode_machine(m)).expect("snapshot decodes")
}

#[test]
fn warm_results_match_cold() {
    let mut warm = Machine::new();
    setup(&mut warm);
    warm.eval(&count_query("Female")).expect("fill");
    assert!(warm.extent_cache_len() > 0, "cache should be populated");

    for _ in 0..3 {
        let mut cold = cold_copy(&warm);
        let (warm_fuel, cold_fuel) = (warm.stats().fuel_consumed, cold.stats().fuel_consumed);
        let w = warm.eval(&count_query("Female")).expect("warm");
        let c = cold.eval(&count_query("Female")).expect("cold");
        assert!(w.value_eq(&c));
        assert_eq!(
            warm.stats().fuel_consumed - warm_fuel,
            cold.stats().fuel_consumed - cold_fuel,
            "a hit burns what the recompute burns"
        );
        assert_eq!(encode_machine(&warm), encode_machine(&cold));
    }
}

#[test]
fn insert_invalidates_cache() {
    let mut m = Machine::new();
    setup(&mut m);
    let before = m.eval(&count_query("Female")).expect("count");
    assert_eq!(format!("{before:?}"), "Int(1)");
    m.eval(&b::insert(b::v("Staff"), person("Eve", "female")))
        .expect("insert");
    let after = m.eval(&count_query("Female")).expect("count");
    assert_eq!(
        format!("{after:?}"),
        "Int(2)",
        "stale cache served after insert"
    );
}

#[test]
fn delete_invalidates_cache() {
    let mut m = Machine::new();
    let alice = m.eval(&person("Alice", "female")).expect("alice");
    m.define_global("alice", alice);
    let staff = m
        .eval(&b::class(b::set([b::v("alice")]), vec![]))
        .expect("staff");
    m.define_global("Staff", staff);
    let c1 = m.eval(&count_query("Staff")).expect("count");
    assert_eq!(format!("{c1:?}"), "Int(1)");
    m.eval(&b::delete(b::v("Staff"), b::v("alice")))
        .expect("delete");
    let c2 = m.eval(&count_query("Staff")).expect("count");
    assert_eq!(format!("{c2:?}"), "Int(0)");
}

#[test]
fn field_update_invalidates_cache() {
    // Regression: a record-field update used to be invisible to the cache
    // (only insert/delete bumped the epoch), so with a mutable Sex field,
    // flipping it after a cached query served a stale extent. Every store
    // write now invalidates, and the cached machine must agree with the
    // cold one.
    let flip_sex = |m: &mut Machine| {
        m.eval(&b::cquery(
            b::lam(
                "s",
                b::hom(
                    b::v("s"),
                    b::lam(
                        "o",
                        b::query(
                            b::lam("x", b::update(b::v("x"), "Sex", b::str("female"))),
                            b::v("o"),
                        ),
                    ),
                    b::lam("a", b::lam("acc", b::unit())),
                    b::unit(),
                ),
            ),
            b::v("Staff"),
        ))
        .expect("flip")
    };
    let mk_setup = |m: &mut Machine| {
        let staff = m
            .eval(&b::class(
                b::set([b::id_view(b::record([
                    b::imm("Name", b::str("Bob")),
                    b::mt("Sex", b::str("male")),
                ]))]),
                vec![],
            ))
            .expect("staff");
        m.define_global("Staff", staff);
        let female = m
            .eval(&b::class(
                b::empty(),
                vec![b::include(
                    vec![b::v("Staff")],
                    b::lam("s", b::v("s")),
                    b::lam(
                        "s",
                        b::query(
                            b::lam("x", b::eq(b::dot(b::v("x"), "Sex"), b::str("female"))),
                            b::v("s"),
                        ),
                    ),
                )],
            ))
            .expect("female");
        m.define_global("Female", female);
    };

    // The warm machine cached the empty extent before the update; the
    // update bumps the epoch, so the next read recomputes and observes
    // the new field value.
    let mut warm = Machine::new();
    mk_setup(&mut warm);
    warm.eval(&count_query("Female")).expect("warm");
    flip_sex(&mut warm);
    let mut cold = cold_copy(&warm);

    // Cold: the update is visible (paper semantics).
    let v = cold.eval(&count_query("Female")).expect("count");
    assert_eq!(format!("{v:?}"), "Int(1)");
    let v = warm.eval(&count_query("Female")).expect("count");
    assert_eq!(
        format!("{v:?}"),
        "Int(1)",
        "update must invalidate cached extents"
    );
}

#[test]
fn a_fill_that_writes_or_allocates_is_not_cached() {
    // A hit replays the fill's fuel and ids, not its store effects, so a
    // fill whose predicate writes (here: bumps a counter) or allocates is
    // recomputed on every scan.
    let mut m = Machine::new();
    for (name, src) in [
        ("tally", "[N := 0]"),
        ("Staff", "class {IDView([Name = \"Ada\"])} end"),
        (
            "Counted",
            "class {} include Staff as fn x => x \
             where fn o => let u = update(tally, N, tally.N + 1) in true end end",
        ),
        (
            "Boxed",
            "class {} include Staff as fn x => x where fn o => [B = true].B end",
        ),
    ] {
        let v = m
            .eval(&polyview_parser::parse_expr(src).expect("parses"))
            .expect("defines");
        m.define_global(name, v);
    }
    for round in 1..=2 {
        let slots = m.store.len();
        m.eval(&count_query("Boxed")).expect("count");
        assert_eq!(
            m.store.len(),
            slots + 1,
            "the predicate allocates each time"
        );
        m.eval(&count_query("Counted")).expect("count");
        let n = m
            .eval(&polyview_parser::parse_expr("tally.N").expect("parses"))
            .expect("reads");
        assert_eq!(format!("{n:?}"), format!("Int({round})"));
    }
    assert_eq!(m.extent_cache_len(), 0);
}
