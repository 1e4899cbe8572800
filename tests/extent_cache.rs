//! The machine's extent cache is observationally transparent: a warm
//! engine answers, mints and burns exactly what a cold one does. The cold
//! side is an engine restored from a snapshot (its cache starts empty),
//! or the Figs. 3/5 translation, which recomputes every extent.

mod common;

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

/// An engine holding [`common::ring_program`].
fn ring_engine() -> Engine {
    let mut e = Engine::new();
    e.exec(&common::ring_program()).expect("ring");
    e
}

fn ring_count(class: usize) -> String {
    format!("cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), RC{class})")
}

/// `eval.extent_fills`, `eval.extent_hits` and `eval.extent_patches`, as
/// the engine reports them.
fn fills_hits_patches(e: &Engine) -> (u64, u64, u64) {
    let s = e.stats().eval;
    (s.extent_fills, s.extent_hits, s.extent_patches)
}

/// A warm ring count read is served from the cache. An `insert` anywhere
/// is patched into the cached extent, which then answers, mints and burns
/// what a cold fill does; an `update` costs exactly one recompute.
#[test]
fn ring_reads_patch_an_insert_and_refill_after_an_update() {
    let mut e = ring_engine();
    e.exec("val box = [N := 0];").expect("box");
    let count = ring_count(3);
    let count = count.as_str();
    assert_eq!(e.eval_to_string(count).expect("fills"), "80");
    assert_eq!(fills_hits_patches(&e), (1, 0, 0));

    let warm = e.profile(count).expect("warm profile");
    assert_eq!(fills_hits_patches(&e), (1, 1, 0));
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
    assert_eq!(fills_hits_patches(&e), (1, 2, 1), "no fill, one patch");
    let rows = &after.profile.view_recomputes;
    assert_eq!(
        rows.iter().map(|v| v.recomputes).sum::<u64>(),
        0,
        "{rows:?}"
    );
    // The patched entry serves what a cold fill computes.
    const KEEP: &str = "val keep = cquery(fn s => s, RC3);";
    let mut cold = Engine::from_snapshot(&e.snapshot()).expect("restores");
    let fuel = (
        e.stats().eval.fuel_consumed,
        cold.stats().eval.fuel_consumed,
    );
    e.exec(KEEP).expect("patched scan");
    cold.exec(KEEP).expect("cold scan");
    assert_eq!(
        e.stats().eval.fuel_consumed - fuel.0,
        cold.stats().eval.fuel_consumed - fuel.1
    );
    assert_eq!(cold.stats().eval.extent_fills, 1);
    assert_eq!(encode_machine(e.machine()), encode_machine(cold.machine()));

    e.exec("update(box, N, 1);").expect("update");
    let refilled = e.profile(count).expect("profile after the update");
    assert_eq!(refilled.rendered, "81");
    assert_eq!(fills_hits_patches(&e), (2, 3, 1), "one fill");
    let rows = &refilled.profile.view_recomputes;
    assert_eq!(
        rows.iter().map(|v| v.recomputes).sum::<u64>(),
        1,
        "{rows:?}"
    );
}

/// A seeded stream of 2,000 inserts, deletes and count reads over the
/// ring, where each extra object only ever joins its own class: each
/// class is filled once, and every later read that a write made stale is
/// patched. Writes are 13% of the ops, about `extent_storm`'s ratio of
/// writes to count reads, so no class falls far enough behind to be
/// evicted.
#[test]
fn a_ring_stream_fills_each_class_once_and_patches_every_stale_read() {
    let mut e = ring_engine();
    for i in 0..8 {
        for j in 0..4 {
            e.exec(&format!(
                "val y{i}_{j} = IDView([Name = \"y{i}_{j}\", V = {j}]);"
            ))
            .expect("object");
        }
    }
    let mut g = common::Gen::new(12);
    let mut present = [[false; 4]; 8];
    // Per class: `None` until its first read, then whether a write came
    // after its last read.
    let mut stale: [Option<bool>; 8] = [None; 8];
    let (mut reads, mut stale_reads) = (0, 0);
    for _ in 0..2_000 {
        if g.chance(0.13) {
            let (i, j) = (g.pick(8), g.pick(4));
            let verb = if present[i][j] { "delete" } else { "insert" };
            present[i][j] = !present[i][j];
            e.exec(&format!("{verb}(RC{i}, y{i}_{j});")).expect("write");
            for s in stale.iter_mut().flatten() {
                *s = true;
            }
            continue;
        }
        let c = g.pick(8);
        let want = 80 + present.iter().flatten().filter(|&&p| p).count();
        assert_eq!(
            e.eval_to_string(&ring_count(c)).expect("count"),
            want.to_string()
        );
        reads += 1;
        stale_reads += u64::from(stale[c] == Some(true));
        stale[c] = Some(false);
    }
    assert_eq!(
        fills_hits_patches(&e),
        (8, reads - 8, stale_reads),
        "{reads} reads, {stale_reads} of them stale"
    );
    assert!(stale_reads > 600, "{stale_reads}");
}

// ----- which writes are patched in, and which refill -----

/// Declare `decls` and store `read` in `keep`. After each write, store it
/// again here and on a copy restored from this engine's snapshot, whose
/// cache is cold: both burn the same fuel and leave the same bytes, and
/// this engine's fills, hits and patches move by the write's row.
fn replay_case(decls: &str, read: &str, writes: &[(&str, (u64, u64, u64))]) {
    let mut e = Engine::new();
    e.exec(decls).expect("declares");
    let keep = format!("val keep = {read};");
    e.exec(&keep).expect("fills");
    for (write, work) in writes {
        e.exec(write).expect("write");
        let mut cold = Engine::from_snapshot(&e.snapshot()).expect("restores");
        let before = fills_hits_patches(&e);
        let fuel = (
            e.stats().eval.fuel_consumed,
            cold.stats().eval.fuel_consumed,
        );
        e.exec(&keep).expect("warm");
        cold.exec(&keep).expect("cold");
        let after = fills_hits_patches(&e);
        let delta = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        assert_eq!(delta, *work, "{write}");
        assert_eq!(
            e.stats().eval.fuel_consumed - fuel.0,
            cold.stats().eval.fuel_consumed - fuel.1,
            "{write}"
        );
        assert_eq!(
            encode_machine(e.machine()),
            encode_machine(cold.machine()),
            "{write}"
        );
        let names = "map(fn o => query(fn x => x.Name, o), keep)";
        assert_eq!(
            e.read(names).expect("warm"),
            cold.read(names).expect("cold")
        );
    }
}

const OBJECTS: &str = "val t1 = IDView([Name = \"t1\"]); val t2 = IDView([Name = \"t2\"]); \
                       val a1 = IDView([Name = \"a1\"]); val u1 = IDView([Name = \"u1\"]);";

const FILL: (u64, u64, u64) = (1, 0, 0);
const PATCH: (u64, u64, u64) = (0, 1, 1);

/// `D` reaches `T` by two paths, through `A` and through `B`: an object
/// inserted into `T` would reach `D` twice, so `D` is refilled. A write
/// to `A`, which `D` reads once, is patched in.
#[test]
fn a_write_to_a_class_read_twice_refills() {
    replay_case(
        &format!(
            "{OBJECTS} class T = class {{t1}} end; \
             class A = class {{}} include T as fn x => x where fn x => true end; \
             class B = class {{}} include T as fn x => x where fn x => true end; \
             class D = class {{}} include A as fn x => x where fn x => true \
             include B as fn x => x where fn x => true end;"
        ),
        "cquery(fn s => s, D)",
        &[
            ("insert(T, t2);", FILL),
            ("insert(A, a1);", PATCH),
            ("delete(A, a1);", PATCH),
        ],
    );
}

/// A `fuse` on the path mints the fused objects' ids: a write to a class
/// in the fill tree refills, and one outside it only restamps the entry.
#[test]
fn a_fuse_on_the_path_refills() {
    replay_case(
        &format!(
            "{OBJECTS} class U = class {{}} end; class T = class {{t1}} end; \
             class A = class {{t1}} end; \
             class F = class {{}} include T, A as fn p => [Name = p.1.Name ^ \"+\"] \
             where fn x => true end;"
        ),
        "cquery(fn s => s, F)",
        &[
            ("insert(A, t2);", FILL),
            ("insert(T, t2);", FILL),
            ("insert(U, u1);", PATCH),
        ],
    );
}

/// A predicate that reads an extent can observe any write, even to a
/// class outside the fill tree. Each row counts the predicate's reads of
/// `U` too: `R` has one candidate, then two, and a write to `T` leaves
/// `U`'s entry to be brought current by a replay.
#[test]
fn a_predicate_that_reads_an_extent_refills() {
    replay_case(
        &format!(
            "{OBJECTS} class U = class {{}} end; class T = class {{t1}} end; \
             val small = fn x => cquery(fn s => hom(s, fn y => 1, fn a => fn b => a + b, 0) < 2, U); \
             class R = class {{}} include T as fn x => x where small end;"
        ),
        "cquery(fn s => s, R)",
        &[
            ("insert(U, u1);", (2, 0, 0)),
            ("insert(T, t2);", (1, 2, 1)),
            ("insert(U, a1);", (2, 1, 0)),
        ],
    );
}

/// A replayed predicate sees the element's wrapping without the id a
/// fill would give it, and cannot tell: `eq` against an older object is
/// false for any fresh association. Here `A` drops `t1` itself, and `D`
/// tests `A`'s fresh associations against `t1`, which never match.
#[test]
fn a_predicate_cannot_tell_the_id_of_a_replayed_wrapping() {
    replay_case(
        &format!(
            "{OBJECTS} class T = class {{t1}} end; \
             class A = class {{}} include T as fn x => x where fn x => not (x = t1) end; \
             class D = class {{}} include A as fn x => [Name = x.Name ^ \"!\"] \
             where fn x => not (x = t1) end;"
        ),
        "cquery(fn s => s, D)",
        &[
            ("insert(T, t2);", PATCH),
            ("insert(T, a1);", PATCH),
            ("delete(T, t2);", PATCH),
            ("delete(T, t1);", PATCH),
            ("insert(T, t1);", PATCH),
        ],
    );
}

/// Filling one ring class does not fill its siblings. Each nested fill
/// runs under a larger visited set (Section 4.4's `L`), so the `RC1` that
/// `RC0`'s fill computes on the way omits `RC0`'s own objects: it is a
/// partial extent, not `RC1`'s. Reading `RC0` and then `RC1` at one epoch
/// therefore recomputes `RC1`, and answers what a cold engine answers.
#[test]
fn a_ring_fill_leaves_its_siblings_cold() {
    let mut e = ring_engine();
    e.exec("insert(RC0, x0);").expect("insert");
    assert_eq!(e.eval_to_string(&ring_count(0)).expect("RC0"), "81");
    let mut cold = Engine::from_snapshot(&e.snapshot()).expect("restores");

    let mut profiled = Vec::new();
    for engine in [&mut e, &mut cold] {
        let fuel = engine.stats().eval.fuel_consumed;
        let report = engine.profile(&ring_count(1)).expect("RC1");
        let rows = &report.profile.view_recomputes;
        assert_eq!(
            rows.iter().map(|v| v.recomputes).sum::<u64>(),
            1,
            "{rows:?}"
        );
        assert_eq!(
            rows.iter().map(|v| v.cache_hits).sum::<u64>(),
            0,
            "{rows:?}"
        );
        profiled.push((
            report.rendered,
            engine.stats().eval.fuel_consumed - fuel,
            engine.machine().next_id(),
        ));
    }
    assert_eq!(profiled[0].0, "81", "80 ring objects and x0");
    assert_eq!(
        profiled[0], profiled[1],
        "the warm engine answers as a cold one"
    );
}

// ----- the merge order of one fill -----

/// A fill merges its own extent and its includes' results left-biased:
/// on a raw object reached more than once, the own association wins, then
/// the earlier include. Each case is a list of declarations (`val x = …`
/// or a `class` group) and a read, with the read's rendering and the fuel
/// and identities a cold run of it costs, recorded at a commit that built
/// each level's extent as a set.
struct FillCase {
    decls: &'static [&'static str],
    read: &'static str,
    want: &'static str,
    fuel: u64,
    ids: u64,
}

const NAMES: &str = "fn s => map(fn o => query(fn x => x.Name, o), s)";

impl FillCase {
    /// The case as one closed expression, for the bare machine and the
    /// Figs. 3/5 translation.
    fn closed(&self) -> String {
        let mut src = self.read.replace("NAMES", NAMES);
        for d in self.decls.iter().rev() {
            let binding = d.strip_prefix("val ").unwrap_or(d);
            src = format!("let {binding} in {src} end");
        }
        src
    }

    fn check(&self) {
        let read = self.read.replace("NAMES", NAMES);
        let mut e = Engine::new();
        for d in self.decls {
            e.exec(&format!("{d};")).expect("declares");
        }
        // Cold, then warm: a hit costs what the fill did.
        for run in ["cold", "warm"] {
            let (fuel, id) = (e.stats().eval.fuel_consumed, e.machine().next_id());
            let (_, v) = e.eval_expr(&read).expect("reads");
            assert_eq!(e.show(&v), self.want, "{run} engine");
            let cost = (
                e.stats().eval.fuel_consumed - fuel,
                e.machine().next_id() - id,
            );
            assert_eq!(cost, (self.fuel, self.ids), "{run} fuel and ids");
        }
        let ast = parse_expr(&self.closed()).expect("parses");
        assert_eq!(machine_render(&ast), self.want, "bare machine");
        assert_eq!(machine_render(&translate(&ast)), self.want, "Fig. 5 oracle");
    }
}

/// A raw object in the own extent and in an include: the own association
/// (its view) is the one in the extent.
#[test]
fn the_own_association_wins_over_an_include() {
    FillCase {
        decls: &[
            "val ada = IDView([Name = \"Ada\", V = 1])",
            "val bob = IDView([Name = \"Bob\", V = 2])",
            "val cy = IDView([Name = \"Cy\", V = 3])",
            "class S = class {ada, bob, cy} end",
            "class C = class {(ada as fn x => [Name = x.Name ^ \" own\", V = x.V]), \
             (cy as fn x => [Name = x.Name ^ \" own\", V = x.V])} \
             include S as fn x => [Name = x.Name ^ \" inc\", V = x.V] where fn o => true end",
        ],
        read: "cquery(NAMES, C)",
        want: "{\"Ada own\", \"Bob inc\", \"Cy own\"}",
        fuel: 101,
        ids: 18,
    }
    .check();
}

/// Two includes of one class reach the same raw object under different
/// views: the first include's association is the one in the extent, and
/// an object only the second admits comes from the second.
#[test]
fn the_first_include_wins_over_a_later_one() {
    FillCase {
        decls: &[
            "val ada = IDView([Name = \"Ada\", V = 1])",
            "val bob = IDView([Name = \"Bob\", V = 2])",
            "class S = class {ada, bob} end",
            "class C = class {} \
             include S as fn x => [Name = x.Name ^ \" 1\", V = x.V] \
             where fn o => query(fn x => x.V = 1, o) \
             include S as fn x => [Name = x.Name ^ \" 2\", V = x.V] where fn o => true end",
        ],
        read: "cquery(NAMES, C)",
        want: "{\"Ada 1\", \"Bob 2\"}",
        fuel: 90,
        ids: 16,
    }
    .check();
}

/// A two-source (`fuse`) include inside a cycle: `A` includes the
/// intersection of `B` and `C`, and both include `A`. Under `A` the nested
/// `B` and `C` stop at `A`, so they meet on `q`; under `B` the nested `A`
/// cannot reach `B`, so its fused include is empty and `A` holds only `p`.
#[test]
fn a_fused_include_inside_a_cycle() {
    FillCase {
        decls: &[
            "val p = IDView([Name = \"p\", V = 1])",
            "val q = IDView([Name = \"q\", V = 2])",
            "val r = IDView([Name = \"r\", V = 3])",
            "class A = class {p} \
             include B, C as fn t => [Name = t.1.Name ^ \"+\" ^ t.2.Name, V = t.1.V + t.2.V] \
             where fn o => true end \
             and B = class {q} include A as fn x => [Name = x.Name ^ \"b\", V = x.V] \
             where fn o => true end \
             and C = class {(q as fn x => [Name = x.Name ^ \"c\", V = x.V]), r} \
             include A as fn x => x where fn o => query(fn x => x.V > 1, o) end",
        ],
        read: "[A = cquery(NAMES, A), B = cquery(NAMES, B), C = cquery(NAMES, C)]",
        want: "[A = {\"p\", \"q+qc\"}, B = {\"pb\", \"q\"}, C = {\"qc\", \"r\"}]",
        fuel: 216,
        ids: 38,
    }
    .check();
}
