//! Set comprehensions: the lowered union-fold (`Collect`, DESIGN.md §13)
//! against the fold it replaces.
//!
//! `map`, `filter`, `prod`, `intersect` and relation queries desugar to
//! `hom(S, f, λa.λb.union(a, b), {})`. The engine lowers that shape to one
//! `Collect` pass; a bare [`Machine`] on the parsed AST and on its Figs. 3/5
//! translation still runs the plain fold. Every case here must render the
//! same through all three, except that the translation is skipped where
//! sets of objects are formed: translated objects are records, so their
//! sets cannot collapse several views of one raw object (the documented
//! deviation in DESIGN.md §2). The cases are generated with splitmix64
//! over a fixed seed list, and a failure prints the program it ran.
//!
//! The last tests pin the work the lowering saves on the benchmark's view
//! read, and check that closures holding lowered code survive a snapshot.

use polyview::parser::parse_expr;
use polyview::trans::translate;
use polyview::{Engine, Machine};

/// splitmix64: the case generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 0x5EED];
const CASES_PER_SEED: usize = 40;

/// Raw objects every generated program may view, bound around its body.
const RAWS: &str = "let r0 = [K = 0, V := 10] in let r1 = [K = 1, V := 11] in \
                    let r2 = [K = 2, V := 12] in ";
const RAWS_END: &str = " end end end";

/// What a generated set holds.
#[derive(Clone, Copy, PartialEq)]
enum Elem {
    Int,
    /// `[K = int, V = int]`
    Rec,
    /// `obj([K = int])`
    Obj,
}

/// An `int` expression reading element `x`'s key.
fn key_of(elem: Elem, x: &str) -> String {
    match elem {
        Elem::Int => x.to_string(),
        Elem::Rec => format!("{x}.K"),
        Elem::Obj => format!("query(fn v => v.K, {x})"),
    }
}

/// A source set of `elem`s, with duplicates: repeated ints, and several
/// views of one raw object (which objeq collapses to the first).
fn source(rng: &mut SplitMix64, elem: Elem) -> String {
    let n = rng.below(7);
    let elems: Vec<String> = (0..n)
        .map(|_| {
            let a = rng.below(6);
            match elem {
                Elem::Int => a.to_string(),
                Elem::Rec => format!("[K = {a}, V = {}]", rng.below(100)),
                Elem::Obj => format!(
                    "(IDView(r{}) as fn v => [K = v.K + {}])",
                    rng.below(3),
                    a * 10
                ),
            }
        })
        .collect();
    format!("{{{}}}", elems.join(", "))
}

/// One comprehension over a random source with a random `f` shape, its
/// source's element kind and its result's.
fn comprehension(rng: &mut SplitMix64) -> (String, Elem, Option<Elem>) {
    let elem = [Elem::Int, Elem::Rec, Elem::Obj][rng.below(3) as usize];
    let s = source(rng, elem);
    let k = key_of(elem, "x");
    let c = rng.below(5);
    let union = "fn a => fn b => union(a, b)";
    let hom =
        |f: String, out: Option<Elem>| (format!("hom({s}, fn x => {f}, {union}, {{}})"), elem, out);
    match rng.below(9) {
        // Singleton, through the sugar.
        0 => (
            format!("map(fn x => {k} * 3 + {c}, {s})"),
            elem,
            Some(Elem::Int),
        ),
        1 => hom("{x}".to_string(), Some(elem)),
        // Conditional, through the sugar and spelled out.
        2 => (format!("filter(fn x => {k} > {c}, {s})"), elem, Some(elem)),
        3 => hom(format!("if {k} > {c} then {{x}} else {{}}"), Some(elem)),
        // Empty.
        4 => hom("{}".to_string(), None),
        // Fan-out.
        5 => hom(format!("{{{k}, {k} + 10}}"), Some(Elem::Int)),
        // Nested map: the inner results are flattened.
        6 => hom(
            format!("map(fn y => {k} * 10 + y, {{1, 2, {c}}})"),
            Some(Elem::Int),
        ),
        // Allocates records: their identities, and so the rendered
        // order, follow the order `f` is applied in.
        7 => hom(
            format!("{{[K = {k}, N = {c}], [K = {k} + 1, N = {c}]}}"),
            Some(Elem::Rec),
        ),
        // Views of shared raw objects: results of different elements
        // collide, and the one from the smallest source key must win.
        _ => hom(
            format!("{{IDView(r{}) as fn v => [K = v.K + {k}]}}", rng.below(3)),
            Some(Elem::Obj),
        ),
    }
}

/// A closed program around one comprehension, and whether it forms sets
/// of objects. Object results are read through their views, so the
/// surviving representative shows.
fn program(rng: &mut SplitMix64) -> (String, bool) {
    let (comp, elem, out) = comprehension(rng);
    let body = match out {
        Some(Elem::Obj) => format!("map(fn o => query(fn v => v.K, o), {comp})"),
        _ => comp,
    };
    let objects = elem == Elem::Obj || out == Some(Elem::Obj);
    (format!("{RAWS}{body}{RAWS_END}"), objects)
}

/// A bare machine's rendering of `e`: no inference, no lowering, so every
/// `hom` runs as the fold.
fn machine_render(e: &polyview::Expr) -> String {
    let mut m = Machine::new();
    let v = m
        .eval_global(e)
        .unwrap_or_else(|err| panic!("machine fails ({err}) on {e}"));
    m.show(&v)
}

/// The engine's (lowered) rendering, checked against the fold on the
/// parsed AST.
#[track_caller]
fn two_way(src: &str) -> String {
    let lowered = Engine::new()
        .eval_to_string(src)
        .unwrap_or_else(|err| panic!("engine fails ({err}) on {src}"));
    let ast = parse_expr(src).expect("parses");
    assert_eq!(lowered, machine_render(&ast), "lowered vs fold: {src}");
    lowered
}

/// [`two_way`], and the fold on the Figs. 3/5 translation too.
#[track_caller]
fn three_way(src: &str) -> String {
    let lowered = two_way(src);
    let translated = translate(&parse_expr(src).expect("parses"));
    assert_eq!(
        lowered,
        machine_render(&translated),
        "lowered vs Figs. 3/5 translation: {src}"
    );
    lowered
}

#[test]
fn generated_comprehensions_agree_with_the_fold() {
    for seed in SEEDS {
        let mut rng = SplitMix64(seed);
        for _ in 0..CASES_PER_SEED {
            let (src, objects) = program(&mut rng);
            if objects {
                two_way(&src);
            } else {
                three_way(&src);
            }
        }
    }
}

#[test]
fn several_views_of_one_raw_object_collapse_as_in_the_fold() {
    // Every element maps to a view of r0; the view made for the smallest
    // element (1) survives.
    let src = format!(
        "{RAWS}map(fn o => query(fn v => v.K, o), \
         hom({{3, 1, 2}}, fn i => {{IDView(r0) as fn v => [K = v.K + i * 10]}}, \
         fn a => fn b => union(a, b), {{}})){RAWS_END}"
    );
    assert_eq!(two_way(&src), "{10}");
    // The source itself holds three views over two raws.
    let src = format!(
        "{RAWS}map(fn o => query(fn v => v.K, o), filter(fn o => true, \
         {{IDView(r1) as fn v => [K = 7], IDView(r0) as fn v => [K = v.K], \
         IDView(r1) as fn v => [K = v.K]}})){RAWS_END}"
    );
    assert_eq!(two_way(&src), "{0, 7}");
}

#[test]
fn records_render_in_the_order_the_fold_allocates_them() {
    assert_eq!(
        three_way("map(fn x => [K = x], {1, 2, 3})"),
        "{[K = 3], [K = 2], [K = 1]}"
    );
}

#[test]
fn effects_run_in_fold_order() {
    // The fold applies f from the largest element down, so the counter
    // reads 3, 32, 321, and the records are minted in that order.
    let src = "let c = [N := 0] in \
               map(fn x => let u = update(c, N, c.N * 10 + x) in [K = x, At = c.N] end, {1, 2, 3}) \
               end";
    assert_eq!(
        three_way(src),
        "{[At = 3, K = 3], [At = 32, K = 2], [At = 321, K = 1]}"
    );
}

#[test]
fn products_intersections_and_relation_queries() {
    assert_eq!(
        three_way("map(fn p => p.1 * 10 + p.2, prod({1, 2}, {3, 4}))"),
        "{13, 14, 23, 24}"
    );
    let views = format!(
        "{RAWS}let s = {{IDView(r0) as fn v => [K = v.K], IDView(r1) as fn v => [K = v.K + 5]}} in \
         let t = {{IDView(r1) as fn v => [K = v.K], IDView(r2) as fn v => [K = v.K]}} in \
         map(fn o => query(fn p => p.1.K * 100 + p.2.K, o), intersect(s, t)) end end{RAWS_END}"
    );
    assert_eq!(three_way(&views), "{601}");
    let rel = format!(
        "{RAWS}let s = {{IDView(r0), IDView(r1), IDView(r2)}} in \
         map(fn o => query(fn p => (p.l.K, p.r.K), o), \
         relation [l = x, r = y] from x in s, y in s \
         where query(fn p => p.K, x) < query(fn p => p.K, y)) end{RAWS_END}"
    );
    // Relation objects are fresh records; their pairs render in the
    // order the fold minted them.
    assert_eq!(
        three_way(&rel),
        "{[1 = 1, 2 = 2], [1 = 0, 2 = 2], [1 = 0, 2 = 1]}"
    );
}

/// The benchmark's `wire_views` schema: 200 `Staff`, even ones female,
/// and the `Female` view class.
fn wire_views_engine() -> Engine {
    let mut e = Engine::new();
    for k in 0..200 {
        let sex = if k % 2 == 0 { "female" } else { "male" };
        e.exec(&format!(
            "val e{k} = IDView([Name = \"s{k}\", Sex = \"{sex}\", Salary := {}]);",
            1000 + k
        ))
        .expect("staff");
    }
    let own: Vec<String> = (0..200).map(|k| format!("e{k}")).collect();
    e.exec(&format!("class Staff = class {{{}}} end;", own.join(", ")))
        .expect("Staff");
    e.exec(
        "class Female = class {} include Staff as fn x => [Name = x.Name] \
         where fn x => query(fn p => p.Sex = \"female\", x) end;",
    )
    .expect("Female");
    e
}

const VIEW_NAMES: &str = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)";

/// A deterministic work gate on the benchmark's view read: its exact fuel
/// (one unit per evaluated node and per application). The fold costs more
/// units per element than `Collect` (DESIGN.md §13), so a silent
/// fall-back to the fold fails here.
///
/// With the fold (before lowering): 4_413 units. With `Collect`: 3_811.
/// The first read recomputes `Female`; the second is served from the
/// extent cache and must burn the same, as must a cold restored engine.
#[test]
fn view_read_fuel_is_pinned() {
    let mut e = wire_views_engine();
    let mut cold = Engine::from_snapshot(&e.snapshot()).expect("restores");
    let mut burned = Vec::new();
    for i in 0..3 {
        let engine = if i < 2 { &mut e } else { &mut cold };
        let before = engine.stats().fuel_consumed;
        let shown = engine.read(VIEW_NAMES).expect("read");
        assert_eq!(shown.matches('"').count(), 200, "100 names: {shown}");
        burned.push(engine.stats().fuel_consumed - before);
    }
    assert_eq!(
        e.machine().extent_cache_len(),
        1,
        "the second read was warm"
    );
    assert_eq!(burned, vec![3_811, 3_811, 3_811]);
}

#[test]
fn restored_engine_runs_lowered_closures_identically() {
    let mut e = wire_views_engine();
    e.exec("val names = fn c => cquery(fn s => map(fn o => query(fn x => x.Name, o), s), c);")
        .expect("names");
    let mut restored = Engine::from_snapshot(&e.snapshot()).expect("restores");
    let want = e.read("names(Female)").expect("original");
    assert_eq!(want.matches('"').count(), 200, "100 names: {want}");
    assert_eq!(restored.read("names(Female)").expect("restored"), want);
}
