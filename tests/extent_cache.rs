//! The machine's extent cache is observationally transparent: a warm
//! engine answers, mints and burns exactly what a cold one does. The cold
//! side is an engine restored from a snapshot (its cache starts empty),
//! or the Figs. 3/5 translation, which recomputes every extent.

use polyview::eval::encode_machine;
use polyview::parser::parse_expr;
use polyview::trans::translate;
use polyview::{Engine, Machine};

const STAFF: &str = "class {IDView([Name = \"Ada\", Pay := 10]), \
                     IDView([Name = \"Bob\", Pay := 3]), IDView([Name = \"Cy\", Pay := 8])} end";
const PAID: &str = "class {} include Staff as fn x => [Name = x.Name] \
                    where fn o => query(fn p => p.Pay > 5, o) end";

/// `true` iff some object of one `Paid` scan is `eq` to one of another.
const ANY_EQ: &str = "let a = cquery(fn s => s, Paid) in let b = cquery(fn s => s, Paid) in \
                      hom(a, fn x => hom(b, fn y => x = y, fn p => fn q => p orelse q, false), \
                      fn p => fn q => p orelse q, false) end end";

fn engine() -> Engine {
    let mut e = Engine::new();
    e.exec(&format!("class Staff = {STAFF}; class Paid = {PAID};"))
        .expect("setup");
    e
}

/// A bare machine's rendering of a closed program.
fn machine_render(e: &polyview::Expr) -> String {
    let mut m = Machine::new();
    let v = m.eval(e).expect("machine runs");
    m.show(&v)
}

/// Each `cquery` yields fresh associations. A cache that handed back the
/// same objects would make the two scans `eq`; the translation, which
/// recomputes, says they are not.
#[test]
fn two_scans_of_a_warm_class_are_distinct_associations() {
    let closed = format!("let Staff = {STAFF} in let Paid = {PAID} in {ANY_EQ} end end");
    let ast = parse_expr(&closed).expect("parses");
    assert_eq!(machine_render(&translate(&ast)), "false", "Fig. 5 oracle");
    assert_eq!(machine_render(&ast), "false", "bare machine");
    assert_eq!(
        Engine::new().eval_to_string(&closed).expect("runs"),
        "false"
    );

    let mut e = engine();
    e.eval_to_string("cquery(fn s => s, Paid)").expect("fills");
    assert_eq!(e.machine().extent_cache_len(), 1, "Paid is cached");
    assert_eq!(e.eval_to_string(ANY_EQ).expect("warm read"), "false");
    let (_, v) = e.eval_expr(ANY_EQ).expect("warm, outside a region");
    assert_eq!(e.show(&v), "false");
    // A scan is `eq` to itself.
    let same = "let a = cquery(fn s => s, Paid) in \
                hom(a, fn x => hom(a, fn y => x = y, fn p => fn q => p orelse q, false), \
                fn p => fn q => p orelse q, false) end";
    assert_eq!(e.eval_to_string(same).expect("read"), "true");
}

/// One write scans `Paid` twice and stores both scans. On a warm engine
/// both are cache hits; the machine it leaves encodes to the bytes a cold
/// engine leaves, and the work is the same, pinned.
#[test]
fn a_write_scanning_one_class_twice_matches_a_cold_engine() {
    const TWICE: &str = "val twice = let a = cquery(fn s => s, Paid) in \
                         let b = cquery(fn s => s, Paid) in [A = a, B = b] end end;";
    let mut warm = engine();
    let mut cold = Engine::from_snapshot(&warm.snapshot()).expect("restores");
    warm.eval_to_string("let r = [Z = 1] in cquery(fn s => s, Paid) end")
        .expect("fills");
    let (warm_fuel, cold_fuel) = (
        warm.stats().eval.fuel_consumed,
        cold.stats().eval.fuel_consumed,
    );
    warm.exec(TWICE).expect("warm write");
    cold.exec(TWICE).expect("cold write");
    assert_eq!(
        encode_machine(warm.machine()),
        encode_machine(cold.machine())
    );
    let burned = warm.stats().eval.fuel_consumed - warm_fuel;
    assert_eq!(burned, cold.stats().eval.fuel_consumed - cold_fuel);
    assert_eq!(burned, 97, "pinned write cost");

    let any_eq = "hom(twice.A, fn x => hom(twice.B, fn y => x = y, \
                  fn p => fn q => p orelse q, false), fn p => fn q => p orelse q, false)";
    assert_eq!(warm.eval_to_string(any_eq).expect("warm"), "false");
    assert_eq!(cold.eval_to_string(any_eq).expect("cold"), "false");
    let names = "map(fn o => query(fn x => x.Name, o), twice.B)";
    assert_eq!(
        warm.eval_to_string(names).expect("names"),
        "{\"Ada\", \"Cy\"}"
    );
}

/// The `extent_storm` ring (a strongly connected include graph of 8
/// classes, Fig. 7): a warm count read is served from the cache, and an
/// `insert` anywhere costs exactly one recompute.
#[test]
fn ring_reads_hit_until_an_insert_forces_one_recompute() {
    let mut ring = String::new();
    for i in 0..8 {
        ring.push_str(if i == 0 { "class " } else { " and " });
        let own: Vec<String> = (0..10)
            .map(|j| format!("IDView([Name = \"o{i}_{j}\", V = {j}])"))
            .collect();
        ring.push_str(&format!(
            "RC{i} = class {{{}}} include RC{} as fn x => x where fn x => true end",
            own.join(", "),
            (i + 1) % 8
        ));
    }
    let mut e = Engine::new();
    e.exec(&format!(
        "{ring}; val x0 = IDView([Name = \"x0\", V = 100]);"
    ))
    .expect("ring");
    let count = "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), RC3)";
    assert_eq!(e.eval_to_string(count).expect("fills"), "80");

    let warm = e.profile(count).expect("warm profile");
    assert_eq!(warm.rendered, "80");
    let rows = &warm.profile.view_recomputes;
    assert!(
        rows.iter().map(|v| v.cache_hits).sum::<u64>() >= 1,
        "{rows:?}"
    );
    assert_eq!(
        rows.iter().map(|v| v.recomputes).sum::<u64>(),
        0,
        "{rows:?}"
    );

    e.exec("insert(RC0, x0);").expect("insert");
    let after = e.profile(count).expect("profile after the insert");
    assert_eq!(after.rendered, "81");
    let rows = &after.profile.view_recomputes;
    assert_eq!(
        rows.iter().map(|v| v.recomputes).sum::<u64>(),
        1,
        "{rows:?}"
    );
}
