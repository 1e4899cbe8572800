//! A regression corpus: small surface-language programs with pinned
//! results, one engine per case. Broad, shallow coverage that catches
//! regressions anywhere in the parse → infer → evaluate pipeline.

//!
//! Every program is also prepared, and its cached code must be resolved:
//! no variable, `λ` or index parameter left to look up by name (DESIGN.md
//! §13).

use polyview::syntax::resolve::is_resolved;
use polyview::Engine;

fn run(src: &str) -> String {
    let mut e = Engine::new();
    e.load_prelude().expect("prelude");
    assert_resolved(&mut e, src);
    e.eval_to_string(src)
        .unwrap_or_else(|err| panic!("corpus program failed ({err}): {src}"))
}

#[track_caller]
fn assert_resolved(e: &mut Engine, src: &str) {
    let p = e
        .prepare(src)
        .unwrap_or_else(|err| panic!("corpus program failed ({err}): {src}"));
    assert!(
        is_resolved(p.code()),
        "unresolved code for {src}: {}",
        p.code()
    );
}

/// The benchmark's read shapes, on the schemas its workloads set up,
/// prepare to resolved code.
#[test]
fn benchmark_read_shapes_prepare_to_resolved_code() {
    let mut e = Engine::new();
    e.exec(
        "val e0 = IDView([Name = \"s0\", Sex = \"female\", Salary := 1000]);
         class Staff = class {e0} end;
         class Female = class {} include Staff as fn x => [Name = x.Name]
           where fn x => query(fn p => p.Sex = \"female\", x) end;
         val pick = fn o => query(fn p => p.Name, o);
         val joe = IDView([Name = \"Joe\", BirthYear = 1955, Salary := 2000, Bonus := 5000]);
         val joe_view = joe as fn x => [Name = x.Name, Age = this_year() - x.BirthYear,
           Income = x.Salary, Bonus := extract(x, Bonus)];
         class RC0 = class {IDView([Name = \"o0\", V = 0])} include RC1 as fn x => x where fn x => true end
           and RC1 = class {IDView([Name = \"o1\", V = 1])} include RC0 as fn x => x where fn x => true end;
         val c0 = IDView([v0 = 42]);
         val c1 = c0 as fn x => [v1 = x.v0];",
    )
    .expect("schemas");
    for src in [
        // wire_views and write_churn
        "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)",
        "cquery(fn s => map(pick, s), Female)",
        // adhoc_compile
        "let g = fn r => r.f0 + r.f1 + r.f2 + r.f3 in \
         g [f0 = 1, f1 = 1, f2 = 2, f3 = 3] + g [f0 = 1, f1 = 1, f2 = 2, f3 = 3, f4 = 4] end",
        "query(fn p => p.Income * 12 + p.Bonus + 1, joe_view)",
        "hom(map(fn o => query(fn x => x.A, o), {IDView([A = 1]), IDView([A = 5])}), \
         fn x => x, fn a => fn b => a + b, 0)",
        // extent_storm
        "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), RC0)",
        "query(fn x => x.v1, c1)",
    ] {
        assert_resolved(&mut e, src);
    }
}

#[track_caller]
fn check(src: &str, expected: &str) {
    assert_eq!(run(src), expected, "program: {src}");
}

#[test]
fn arithmetic_and_strings() {
    check("1 + 2 * 3", "7");
    check("(1 + 2) * 3", "9");
    check("10 - 3 - 4", "3");
    check("7 / 2", "3");
    check("7 % 2", "1");
    check("-5 + 2", "-3");
    check("abs (-5)", "5");
    check("min 3 9", "3");
    check("max 3 9", "9");
    check("\"foo\" ^ \"bar\"", "\"foobar\"");
    check("strlen \"hello\"", "5");
    check("int_to_string 42", "\"42\"");
    check("neg 7", "-7");
}

#[test]
fn booleans_and_comparison() {
    check("1 < 2", "true");
    check("2 <= 2", "true");
    check("3 > 4", "false");
    check("3 >= 4", "false");
    check("1 = 1", "true");
    check("1 <> 1", "false");
    check("true andalso false", "false");
    check("false orelse true", "true");
    check("not true", "false");
    check("if 1 < 2 then \"y\" else \"n\"", "\"y\"");
}

#[test]
fn let_functions_recursion() {
    check("let x = 21 in x + x end", "42");
    check("let f = fn x => x * x in f 7 end", "49");
    check(
        "let fun fact n = if n = 0 then 1 else n * fact (n - 1) in fact 5 end",
        "120",
    );
    check(
        "let fun even n = if n = 0 then true else odd (n - 1) \
         and odd n = if n = 0 then false else even (n - 1) in even 9 end",
        "false",
    );
    check(
        "(fix f => fn n => if n > 100 then n else f (n * 2)) 3",
        "192",
    );
    check("(fn x y z => x + y + z) 1 2 3", "6");
}

#[test]
fn records_and_tuples() {
    check("[a = 1, b = \"x\"].a", "1");
    check("[a = 1, b = \"x\"].b", "\"x\"");
    check("(1, 2, 3).2", "2");
    check(
        "let r = [m := 5] in let u = update(r, m, 6) in r.m end end",
        "6",
    );
    check(
        "let r = [m := 1] in \
         let s = [alias := extract(r, m)] in \
         let u = update(s, alias, 9) in r.m end end end",
        "9",
    );
    check("let r = [a = 1] in r = r end", "true");
    check("[a = 1] = [a = 1]", "false");
}

#[test]
fn sets_and_prelude() {
    check("{3, 1, 2}", "{1, 2, 3}");
    check("{1, 1, 1}", "{1}");
    check("union({1}, {2})", "{1, 2}");
    check("count {10, 20}", "2");
    check("sum {1, 2, 3, 4}", "10");
    check("maximum {4, 9, 2}", "9");
    check("member(2, {1, 2, 3})", "true");
    check("member(9, {1, 2, 3})", "false");
    check("map(fn x => x + 1, {1, 2})", "{2, 3}");
    check("filter(fn x => x % 2 = 0, {1, 2, 3, 4})", "{2, 4}");
    check("exists (fn x => x > 2) {1, 3}", "true");
    check("forall (fn x => x > 0) {1, 3}", "true");
    check("diff {1, 2, 3} {2}", "{1, 3}");
    check("subset {1} {1, 2}", "true");
    check("flatten {{1}, {2, 3}}", "{1, 2, 3}");
    check("count (prod({1, 2}, {1, 2, 3}))", "6");
    check(
        "hom({1, 2, 3}, fn x => x * x, fn a => fn b => a + b, 0)",
        "14",
    );
}

#[test]
fn objects_and_views() {
    check("query(fn x => x.a, IDView([a = 7]))", "7");
    check(
        "query(fn x => x.b, IDView([a = 7, c = 1]) as fn y => [b = y.a * 2])",
        "14",
    );
    check(
        "let o = IDView([a = 1]) in objeq(o, o as fn x => [z = 9]) end",
        "true",
    );
    check("objeq(IDView([a = 1]), IDView([a = 1]))", "false");
    check("count {IDView([a = 1]), IDView([a = 1])}", "2");
    // Sets are homogeneous, so the second view must present the same type;
    // the two elements still collapse to one object (objeq).
    check(
        "let o = IDView([a = 1]) in count {o, o as fn x => [a = x.a * 2]} end",
        "1",
    );
    check("fuse(IDView([a = 1]), IDView([a = 1])) = {}", "true");
    check(
        "let o = IDView([a = 3]) in \
         count (fuse(o, o as fn x => [b = x.a])) end",
        "1",
    );
    check(
        "let o = IDView([m := 5]) in \
         let u = query(fn x => update(x, m, 6), o) in \
         query(fn x => x.m, o) end end",
        "6",
    );
    check(
        "query(fn p => p.l.a + p.r.b, \
         relobj(l = IDView([a = 1]), r = IDView([b = 2])))",
        "3",
    );
    check(
        "count (select as fn x => [n = x.a] from \
         {IDView([a = 1]), IDView([a = 2])} \
         where fn o => query(fn x => x.a > 1, o))",
        "1",
    );
    check(
        "materialize {IDView([a = 5]) as fn x => [b = x.a]}",
        "{[b = 5]}",
    );
}

#[test]
fn classes_end_to_end() {
    check("csize (class {IDView([a = 1]), IDView([a = 2])} end)", "2");
    check(
        "let c = class {} end in \
         let u = insert(c, IDView([a = 1])) in csize c end end",
        "1",
    );
    check(
        "let o = IDView([a = 1]) in \
         let c = class {o} end in \
         let u = delete(c, o) in csize c end end end",
        "0",
    );
    check(
        "let src = class {IDView([a = 1]), IDView([a = 10])} end in \
         csize (class {} include src as fn x => x \
                where fn o => query(fn x => x.a > 5, o) end) end",
        "1",
    );
    check(
        "let class A = class {IDView([a = 1])} \
             include B as fn x => x where fn x => true end \
         and B = class {IDView([a = 2])} \
             include A as fn x => x where fn x => true end \
         in csize A end",
        "2",
    );
    check(
        "let mk = fn s => class s end in \
         csize (mk {IDView([a = 1])}) end",
        "1",
    );
    check(
        "cquery(fn s => sum (map(fn o => query(fn x => x.a, o), s)), \
                class {IDView([a = 10]), IDView([a = 32])} end)",
        "42",
    );
}

#[test]
fn comments_and_whitespace_robustness() {
    check("1 + (* inline (* nested *) comment *) 2", "3");
    check("-- leading comment\n1 + 2", "3");
    check("  \n\t 42 \n ", "42");
}

#[test]
fn paper_headline_numbers() {
    // The §3.3 pipeline distilled to one expression.
    check(
        "let joe = IDView([Name = \"Joe\", BirthYear = 1955, \
                           Salary := 2000, Bonus := 5000]) in \
         let jv = joe as fn x => [Name = x.Name, \
                                  Age = this_year() - x.BirthYear, \
                                  Income = x.Salary, \
                                  Bonus := extract(x, Bonus)] in \
         query(fn p => p.Income * 12 + p.Bonus, jv) end end",
        "29000",
    );
    check("this_year()", "1994");
}
