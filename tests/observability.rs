//! The observability layer end to end (DESIGN.md §9): deterministic phase
//! timings via an injected manual clock, `Engine::explain` on a Section 4
//! class session, the JSON-lines metrics export, span emission to a
//! collecting sink, fuel/eviction/invalidation counters, and their reset
//! semantics.

use polyview::obs::{
    Clock, CollectingEventSink, Counter, EventSink, Histogram, ManualClock, Registry,
};
use polyview::{Engine, Error};
use std::sync::Arc;

/// The paper's Section 4 session in miniature: raw employees, a class, and
/// a salary query over its extent.
const SESSION: &str = r#"
    val joe_raw = [Name = "Joe", Salary := 2000, Bonus := 5000];
    val joe = IDView(joe_raw);
    val anna = IDView([Name = "Anna", Salary := 3000, Bonus := 1000]);
    class Employee = class {joe, anna} end;
"#;

const SALARIES: &str = "cquery(fn s => map(fn o => query(fn x => x.Salary, o), s), Employee)";

// ----- :explain with a deterministic clock -----

#[test]
fn explain_reports_every_phase_with_injected_clock() {
    let mut e = Engine::new();
    // Every clock read advances 100ns, so each phase span measures exactly
    // 100ns — deterministically non-zero.
    e.set_clock(Arc::new(ManualClock::with_step(100)));
    e.exec(SESSION).expect("session defines");

    let report = e.explain(SALARIES).expect("explains");
    assert!(!report.cached_before, "first sight of this statement");
    assert_eq!(report.rendered, "{2000, 3000}");
    assert_eq!(report.scheme.to_string(), "{int}");

    assert_eq!(report.parse_ns, 100, "parse span = one clock step");
    assert_eq!(report.infer_ns, 100, "infer span = one clock step");
    assert_eq!(report.translate_ns, 100, "translate span = one clock step");
    assert_eq!(report.eval_ns, 100, "eval span = one clock step");

    assert!(report.tokens > 0, "statement lexes to tokens");
    assert!(report.nodes > 0, "statement parses to nodes");
    assert!(report.unify_steps > 0, "inference unifies");
    assert!(report.instantiations > 0, "map/query uses are instantiated");
    assert!(
        report.translated_size > 0,
        "Fig. 3/5 translation has a size"
    );
    assert!(
        report.translated_size > report.nodes,
        "the translation encoding grows the term"
    );
    assert!(report.fuel_consumed > 0, "evaluation burns fuel");

    // The explain run cached the compilation: a second explain sees it,
    // and recompiling still reports fresh per-statement (not cumulative)
    // counter deltas.
    let again = e.explain(SALARIES).expect("explains again");
    assert!(again.cached_before, "second sight is cached");
    assert_eq!(again.unify_steps, report.unify_steps);
    assert_eq!(again.fuel_consumed, report.fuel_consumed);

    // ...and a plain eval_expr now hits the cache.
    let before = e.stats();
    e.eval_to_string(SALARIES).expect("runs");
    let after = e.stats();
    assert_eq!(after.stmt_cache_hits, before.stmt_cache_hits + 1);
    assert_eq!(after.parses, before.parses, "cache hit does not parse");

    let text = report.to_string();
    for needle in ["parse", "infer", "translate", "eval", "100ns", "fuel="] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

// ----- stats snapshot and reset -----

#[test]
fn stats_cover_all_layers_and_reset() {
    let mut e = Engine::new();
    e.exec(SESSION).expect("defines");
    e.eval_to_string(SALARIES).expect("runs");

    let s = e.stats();
    assert!(s.parses >= 2);
    assert!(s.inferences >= 4);
    assert!(s.tokens_lexed > 0);
    assert!(s.nodes_parsed > 0);
    assert!(s.unify_steps > 0);
    assert!(s.occurs_checks > 0);
    assert!(s.instantiations > 0);
    assert!(s.fuel_consumed > 0);
    assert!(s.records_allocated >= 2, "two raw employee records");
    assert!(s.sets_allocated > 0, "class extents build sets");

    e.reset_stats();
    assert_eq!(e.stats(), polyview::EngineStats::default());

    // Counters keep working after the reset (handles stay live).
    e.eval_to_string("1 + 1").expect("runs");
    let s2 = e.stats();
    assert_eq!(s2.parses, 1);
    assert!(s2.fuel_consumed > 0);
}

#[test]
fn fuel_consumed_is_monotone_and_resets() {
    let mut e = Engine::new();
    e.exec(SESSION).expect("defines");
    let mut last = 0;
    for _ in 0..5 {
        e.eval_to_string(SALARIES).expect("runs");
        let now = e.stats().fuel_consumed;
        assert!(now > last, "every run burns fuel: {now} vs {last}");
        last = now;
    }
    e.reset_stats();
    assert_eq!(e.stats().fuel_consumed, 0);
    e.eval_to_string(SALARIES).expect("runs");
    assert!(e.stats().fuel_consumed > 0);
    assert!(
        e.stats().fuel_consumed < last,
        "post-reset tally restarts from zero"
    );
}

// ----- statement-cache eviction edge cases -----

#[test]
fn capacity_zero_evicts_everything_and_disables_caching() {
    let mut e = Engine::new();
    e.eval_to_string("1 + 1").expect("runs");
    e.eval_to_string("2 + 2").expect("runs");
    assert_eq!(e.stmt_cache_len(), 2);

    e.set_stmt_cache_capacity(0);
    assert_eq!(e.stmt_cache_len(), 0);
    assert_eq!(e.stats().stmt_cache_evictions, 2);

    // With caching disabled every repeat recompiles (misses, no hits, no
    // further evictions) and nothing panics.
    let before = e.stats();
    e.eval_to_string("1 + 1").expect("runs");
    e.eval_to_string("1 + 1").expect("runs");
    let after = e.stats();
    assert_eq!(after.stmt_cache_hits, before.stmt_cache_hits);
    assert_eq!(after.stmt_cache_misses, before.stmt_cache_misses + 2);
    assert_eq!(after.stmt_cache_evictions, before.stmt_cache_evictions);
    assert_eq!(e.stmt_cache_len(), 0);
}

#[test]
fn capacity_shrink_below_len_evicts_oldest_first() {
    let mut e = Engine::new();
    for src in ["1", "2", "3", "4"] {
        e.eval_to_string(src).expect("runs");
    }
    assert_eq!(e.stmt_cache_len(), 4);
    // Refresh "1" so it is no longer the oldest.
    e.eval_to_string("1").expect("runs");

    e.set_stmt_cache_capacity(2);
    assert_eq!(e.stmt_cache_len(), 2);
    assert_eq!(e.stats().stmt_cache_evictions, 2);

    // "2" and "3" (oldest) were evicted; "1" and "4" survive as hits.
    let before = e.stats();
    e.eval_to_string("1").expect("runs");
    e.eval_to_string("4").expect("runs");
    assert_eq!(e.stats().stmt_cache_hits, before.stmt_cache_hits + 2);
    let before = e.stats();
    e.eval_to_string("2").expect("runs");
    e.eval_to_string("3").expect("runs");
    assert_eq!(e.stats().stmt_cache_misses, before.stmt_cache_misses + 2);
}

#[test]
fn lru_pressure_evictions_are_counted() {
    let mut e = Engine::new();
    e.set_stmt_cache_capacity(2);
    for src in ["1", "2", "3", "4"] {
        e.eval_to_string(src).expect("runs");
    }
    // Inserting 3 evicted 1; inserting 4 evicted 2.
    assert_eq!(e.stats().stmt_cache_evictions, 2);
    assert_eq!(e.stmt_cache_len(), 2);
}

// ----- StalePrepared interleavings and dependency invalidations -----

#[test]
fn prepared_survives_mutations_and_unrelated_declarations() {
    let mut e = Engine::new();
    e.exec(SESSION).expect("defines");
    let p = e.prepare(SALARIES).expect("compiles");
    assert_eq!(e.run_to_string(&p).expect("runs"), "{2000, 3000}");

    // insert / delete / update are expression-level effects: the prepared
    // query stays valid and observes the new state.
    e.eval_to_string("insert(Employee, IDView([Name = \"Cy\", Salary := 4000, Bonus := 0]))")
        .expect("insert");
    assert_eq!(e.run_to_string(&p).expect("runs"), "{2000, 3000, 4000}");
    e.eval_to_string("update(joe_raw, Salary, 2500)")
        .expect("update");
    assert_eq!(e.run_to_string(&p).expect("runs"), "{2500, 3000, 4000}");
    e.eval_to_string("delete(Employee, joe)").expect("delete");
    assert_eq!(e.run_to_string(&p).expect("runs"), "{3000, 4000}");
    assert_eq!(e.stats().epoch_invalidations, 0);

    // Declarations of names the query never mentions leave it valid too —
    // staleness is per dependency, not per global epoch.
    e.exec("val unrelated = 1;").expect("declares");
    e.exec("fun twice x = x + x;").expect("declares");
    e.exec("class Dept = class {} end;").expect("declares");
    assert_eq!(e.run_to_string(&p).expect("still fresh"), "{3000, 4000}");
    assert_eq!(e.stats().epoch_invalidations, 0);

    // Rebinding a dependency makes it stale.
    e.exec("class Employee = class {} end;").expect("rebinds");
    assert!(matches!(e.run(&p), Err(Error::StalePrepared)));
    assert_eq!(e.stats().epoch_invalidations, 1);
}

#[test]
fn each_declaration_kind_invalidates_prepared_when_it_rebinds_a_dep() {
    // Each kind rebinding a dependency of the prepared query (`Employee`
    // and `sel`) invalidates; the same kinds binding fresh names do not.
    let query = "cquery(fn s => map(sel, s), Employee)";
    let rebinding = [
        "val Employee = 1;",
        "fun sel o = o;",
        "class Employee = class {} end;",
    ];
    for decl in rebinding {
        let mut e = Engine::new();
        e.exec(SESSION).expect("defines");
        e.exec("fun sel o = query(fn x => x.Salary, o);")
            .expect("defines sel");
        let p = e.prepare(query).expect("compiles");
        e.run(&p).expect("fresh runs");
        e.exec(decl).expect("declares");
        assert!(
            matches!(e.run(&p), Err(Error::StalePrepared)),
            "{decl} must invalidate"
        );
        assert_eq!(e.stats().epoch_invalidations, 1, "after {decl}");
    }

    let unrelated = ["val v = 1;", "fun f x = x;", "class C = class {} end;"];
    for decl in unrelated {
        let mut e = Engine::new();
        e.exec(SESSION).expect("defines");
        e.exec("fun sel o = query(fn x => x.Salary, o);")
            .expect("defines sel");
        let p = e.prepare(query).expect("compiles");
        e.run(&p).expect("fresh runs");
        e.exec(decl).expect("declares");
        e.run(&p)
            .unwrap_or_else(|err| panic!("{decl} must not invalidate: {err}"));
        assert_eq!(e.stats().epoch_invalidations, 0, "after {decl}");
    }
}

#[test]
fn stale_cache_entries_count_as_dep_invalidations() {
    let mut e = Engine::new();
    e.exec(SESSION).expect("defines");
    e.eval_to_string(SALARIES).expect("fills cache");

    // An unrelated declaration leaves the cached compilation warm.
    e.exec("val unrelated = 1;").expect("declares");
    let before = e.stats();
    e.eval_to_string(SALARIES).expect("hits");
    let after = e.stats();
    assert_eq!(after.stmt_cache_hits, before.stmt_cache_hits + 1);
    assert_eq!(
        after.stmt_cache_dep_invalidations,
        before.stmt_cache_dep_invalidations
    );

    // Rebinding a dependency drops the entry: dep-invalidation + miss, and
    // `epoch_invalidations` (explicit stale `run`s) stays untouched.
    e.exec("class Employee = class {} end;")
        .expect("rebinds a dep");
    let before = e.stats();
    e.eval_to_string(SALARIES).expect("recompiles");
    let after = e.stats();
    assert_eq!(
        after.stmt_cache_dep_invalidations,
        before.stmt_cache_dep_invalidations + 1
    );
    assert_eq!(after.stmt_cache_misses, before.stmt_cache_misses + 1);
    assert_eq!(after.stmt_cache_hits, before.stmt_cache_hits);
    assert_eq!(after.epoch_invalidations, before.epoch_invalidations);
}

// ----- metrics export -----

#[test]
fn metrics_json_is_one_object_per_line_and_mirrors_layers() {
    let mut e = Engine::new();
    e.exec(SESSION).expect("defines");
    e.eval_to_string(SALARIES).expect("runs");

    let out = e.metrics_json();
    assert!(!out.is_empty());
    for line in out.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object: {line}"
        );
        assert!(!line[1..line.len() - 1].contains('\n'));
    }
    let s = e.stats();
    assert!(out.contains(&format!(
        "{{\"kind\":\"counter\",\"name\":\"engine.parses\",\"value\":{}}}",
        s.parses
    )));
    assert!(out.contains(&format!(
        "{{\"kind\":\"counter\",\"name\":\"types.unify_steps\",\"value\":{}}}",
        s.unify_steps
    )));
    assert!(out.contains(&format!(
        "{{\"kind\":\"counter\",\"name\":\"eval.fuel_consumed\",\"value\":{}}}",
        s.fuel_consumed
    )));
    assert!(out.contains("\"name\":\"phase.parse_ns\""));
    assert!(out.contains("\"name\":\"phase.eval_ns\""));
}

// ----- span emission -----

#[test]
fn trace_sink_collects_phase_spans_only_when_enabled() {
    let mut e = Engine::new();
    e.set_clock(Arc::new(ManualClock::with_step(7)));
    let sink = Arc::new(CollectingEventSink::new());
    e.set_trace_sink(sink.clone());

    e.eval_to_string("1 + 2").expect("runs");
    let spans = sink.take();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "engine.parse",
            "engine.infer",
            "engine.lower",
            "engine.eval"
        ]
    );
    assert!(spans.iter().all(|s| s.dur_ns == 7), "manual clock steps");
    let eval_span = &spans[3];
    assert!(
        eval_span.attrs.iter().any(|(k, v)| k == "fuel" && *v > 0),
        "eval span carries a fuel attribute: {:?}",
        eval_span.attrs
    );

    // Disabled tracing emits nothing, but metrics keep accruing.
    e.set_tracing(false);
    let before = e.stats();
    e.eval_to_string("2 + 3").expect("runs");
    assert!(sink.is_empty(), "disabled tracer must not emit");
    assert!(e.stats().fuel_consumed > before.fuel_consumed);
}

#[test]
fn fresh_engine_collects_no_spans() {
    let mut e = Engine::new();
    assert!(!e.tracing_enabled(), "tracing is opt-in");
    e.eval_to_string("1 + 1").expect("runs");
    // Timings still land in the histograms even with the null sink.
    assert!(e.metrics_json().contains("\"name\":\"phase.eval_ns\""));
}

// ----- trace stitching on a bare engine -----

#[test]
fn set_trace_id_stitches_engine_spans_without_a_pool() {
    let mut e = Engine::new();
    e.set_clock(Arc::new(ManualClock::with_step(1)));
    let sink = Arc::new(CollectingEventSink::new());
    e.set_trace_sink(sink.clone());

    // No trace id set: spans belong to no request.
    e.eval_to_string("1 + 2").expect("runs");
    let untagged = sink.take();
    assert!(!untagged.is_empty());
    for s in &untagged {
        assert!(s.name.starts_with("engine."), "{}", s.name);
        assert_eq!((s.trace_id, s.parent), (0, None), "{}", s.name);
    }

    // A set trace id lands in the record fields, not in the attributes.
    e.set_trace_id(Some(7));
    e.exec("val x = 40;").expect("declares");
    e.eval_to_string("x + 2").expect("runs");
    let tagged = sink.take();
    let names: Vec<&str> = tagged.iter().map(|s| s.name.as_str()).collect();
    for phase in [
        "engine.parse",
        "engine.infer",
        "engine.lower",
        "engine.eval",
    ] {
        assert!(names.contains(&phase), "no {phase} span in {names:?}");
    }
    for s in &tagged {
        assert_eq!((s.trace_id, s.parent), (7, Some(7)), "{}", s.name);
        assert!(s.attrs.iter().all(|(k, _)| k != "request_id"));
    }

    // Clearing it returns to untagged spans.
    e.set_trace_id(None);
    e.eval_to_string("x + 2").expect("runs");
    assert!(sink
        .take()
        .iter()
        .all(|s| s.trace_id == 0 && s.parent.is_none()));
}

/// Fails to compile if any handle of the observability vocabulary stops
/// being shareable across threads (e.g. an `Rc` handle comes back).
#[test]
fn observability_handles_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Registry>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<Arc<dyn Clock>>();
    assert_send_sync::<Arc<dyn EventSink>>();
}
