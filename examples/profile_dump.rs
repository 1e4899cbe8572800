//! Run a Section 4 session with the evaluation profiler attached and dump
//! the attribution profile as JSON lines on stdout — one object per line,
//! every line self-validated with the `polyview::obs::jsonl` checker
//! before it is printed.
//!
//! `scripts/verify.sh` uses this as the profiler smoke gate. The session
//! is built to exercise every attribution channel (DESIGN.md §14):
//!
//! * a mutually recursive `fun step … and same …` group with a
//!   row-polymorphic field read — mutual groups cannot be
//!   index-abstracted, so the read keeps its dynamic lookup and running
//!   it yields *runtime fallback sites*;
//! * a class queried around an `insert`, then scanned twice by the
//!   profiled statement, so the profile carries a *view-recompute* row
//!   naming the class and the epoch that invalidated the cached extent,
//!   with one recompute and one cache hit;
//! * a `ManualClock` injected through [`polyview::Engine::set_clock`], so
//!   the whole tree is deterministic.
//!
//! The final `profile.disabled_check` line proves the zero-cost-when-off
//! claim mechanically: a fresh machine with a counting clock installed
//! (but no profiler) evaluates the same shape of work, and the clock's
//! read counter must still be 0.

use polyview::obs::{jsonl, ManualClock};
use polyview::{Engine, Machine};
use std::sync::Arc;

fn emit(lines: &str) {
    for line in lines.lines() {
        jsonl::check_object_line(line)
            .unwrap_or_else(|e| panic!("invalid profile JSON line {line:?}: {e:?}"));
        println!("{line}");
    }
}

fn main() {
    let mut engine = Engine::new();
    engine.set_clock(Arc::new(ManualClock::with_step(10)));
    engine
        .exec(
            r#"
            class Staff = class {} end;
            insert(Staff, IDView([Steps := 4]));
            insert(Staff, IDView([Steps := 2]));
            fun step r = r.Steps and same r = step(r);
            fun even n = if n = 0 then true else odd(n - 1)
            and odd n = if n = 0 then false else even(n - 1);
            "#,
        )
        .expect("session defines");
    // Warm the extent cache, then invalidate it: the profiled statement's
    // first extent scan recomputes at the post-insert epoch, and its second
    // is served from the cache.
    engine
        .eval_to_string("cquery(fn s => map(fn o => query(fn x => x.Steps, o), s), Staff)")
        .expect("warm extent");
    engine
        .exec("insert(Staff, IDView([Steps := 3]));")
        .expect("insert invalidates");

    // One statement through every channel: the mutual group's dynamic
    // field ops (fallback sites) and two class extent scans (a view
    // recompute, then a cache hit).
    let report = engine
        .profile(
            "let all = cquery(fn s => s, Staff) in \
             cquery(fn s => map(fn o => query(fn x => even(step(x)), o), s), Staff) end",
        )
        .expect("profiled statement runs");
    assert!(
        !report.profile.fallback_sites.is_empty(),
        "mutual-recursion field ops must attribute fallback sites"
    );
    assert!(
        report
            .profile
            .view_recomputes
            .iter()
            .any(|v| v.recomputes > 0 && v.cache_hits > 0),
        "the two scans must attribute a recompute and a cache hit"
    );
    emit(&report.to_json_lines());

    // The zero-cost-when-off proof: a machine holding a counting clock but
    // no profiler must never read it.
    let counting = Arc::new(ManualClock::with_step(10));
    let mut machine = Machine::new();
    machine.set_profile_clock(counting.clone());
    let e = polyview::parser::parse_expr("let f = fn x => x + 1 in f (f 40) end")
        .expect("probe parses");
    let v = machine.eval(&e).expect("probe evaluates");
    assert_eq!(format!("{v:?}"), "Int(42)");
    let line = format!(
        "{{\"kind\":\"profile.disabled_check\",\"disabled_clock_reads\":{},\"profiling\":{}}}",
        counting.reads(),
        machine.profiling(),
    );
    emit(&line);
}
