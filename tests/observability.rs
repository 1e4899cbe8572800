//! The observability layer end to end (DESIGN.md §9): deterministic phase
//! timings via an injected manual clock, `Engine::explain` on a Section 4
//! class session, the JSON-lines metrics export, span emission to a
//! collecting sink, fuel/eviction/invalidation counters, and their reset
//! semantics.

use polyview::obs::{
    Clock, CollectingEventSink, Counter, EventSink, Histogram, ManualClock, Registry,
};
use polyview::{Engine, Error};
use polyview_pool::{Pool, PoolConfig};
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

    assert!(report.parse.tokens > 0, "statement lexes to tokens");
    assert!(report.parse.nodes > 0, "statement parses to nodes");
    assert!(report.infer.unify_steps > 0, "inference unifies");
    assert!(
        report.infer.instantiations > 0,
        "map/query uses are instantiated"
    );
    assert!(
        report.translated_size > 0,
        "Fig. 3/5 translation has a size"
    );
    assert!(
        report.translated_size > report.parse.nodes,
        "the translation encoding grows the term"
    );
    assert!(report.eval.fuel_consumed > 0, "evaluation burns fuel");

    // The explain run cached the compilation: a second explain sees it,
    // and recompiling still reports fresh per-statement (not cumulative)
    // counter deltas.
    let again = e.explain(SALARIES).expect("explains again");
    assert!(again.cached_before, "second sight is cached");
    assert_eq!(again.infer.unify_steps, report.infer.unify_steps);
    assert_eq!(again.eval.fuel_consumed, report.eval.fuel_consumed);

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
    assert!(s.parse.tokens > 0);
    assert!(s.parse.nodes > 0);
    assert!(s.infer.unify_steps > 0);
    assert!(s.infer.occurs_checks > 0);
    assert!(s.infer.instantiations > 0);
    assert!(s.eval.fuel_consumed > 0);
    assert!(s.eval.records_allocated >= 2, "two raw employee records");
    assert!(s.eval.sets_allocated > 0, "class extents build sets");

    e.reset_stats();
    assert_eq!(e.stats(), polyview::EngineStats::default());

    // Counters keep working after the reset (handles stay live).
    e.eval_to_string("1 + 1").expect("runs");
    let s2 = e.stats();
    assert_eq!(s2.parses, 1);
    assert!(s2.eval.fuel_consumed > 0);
}

#[test]
fn fuel_consumed_is_monotone_and_resets() {
    let mut e = Engine::new();
    e.exec(SESSION).expect("defines");
    let mut last = 0;
    for _ in 0..5 {
        e.eval_to_string(SALARIES).expect("runs");
        let now = e.stats().eval.fuel_consumed;
        assert!(now > last, "every run burns fuel: {now} vs {last}");
        last = now;
    }
    e.reset_stats();
    assert_eq!(e.stats().eval.fuel_consumed, 0);
    e.eval_to_string(SALARIES).expect("runs");
    assert!(e.stats().eval.fuel_consumed > 0);
    assert!(
        e.stats().eval.fuel_consumed < last,
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
        s.infer.unify_steps
    )));
    assert!(out.contains(&format!(
        "{{\"kind\":\"counter\",\"name\":\"eval.fuel_consumed\",\"value\":{}}}",
        s.eval.fuel_consumed
    )));
    assert!(out.contains("\"name\":\"phase.parse_ns\""));
    assert!(out.contains("\"name\":\"phase.eval_ns\""));
    // Every `EngineStats` field is its registry counter, read live.
    for (name, value) in [
        ("engine.parses", s.parses),
        ("engine.inferences", s.inferences),
        ("engine.stmt_cache_hits", s.stmt_cache_hits),
        ("engine.stmt_cache_misses", s.stmt_cache_misses),
        ("engine.stmt_cache_evictions", s.stmt_cache_evictions),
        (
            "engine.stmt_cache_dep_invalidations",
            s.stmt_cache_dep_invalidations,
        ),
        ("engine.epoch_invalidations", s.epoch_invalidations),
        ("parser.tokens_lexed", s.parse.tokens),
        ("parser.nodes_parsed", s.parse.nodes),
        ("types.unify_steps", s.infer.unify_steps),
        ("types.occurs_checks", s.infer.occurs_checks),
        ("types.kind_merges", s.infer.kind_merges),
        ("types.instantiations", s.infer.instantiations),
        ("eval.fuel_consumed", s.eval.fuel_consumed),
        ("eval.records_allocated", s.eval.records_allocated),
        ("eval.sets_allocated", s.eval.sets_allocated),
        ("eval.field_offsets_resolved", s.eval.field_offsets_resolved),
        ("eval.dyn_field_fallbacks", s.eval.dyn_field_fallbacks),
    ] {
        let line = format!("{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}");
        assert!(out.lines().any(|l| l == line), "missing {line} in:\n{out}");
    }
    assert!(s.infer.unify_steps > 0 && s.eval.fuel_consumed > 0 && s.eval.records_allocated > 0);
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
    assert!(e.stats().eval.fuel_consumed > before.eval.fuel_consumed);
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

// ----- the rendered reports, byte for byte -----

/// A polymorphic function used at a record in one statement: its lowering
/// abstracts an index, passes it, and lays a record out.
const POLY_GET: &str = "let fun get r = r.Salary in get [Name = \"Ada\", Salary := 900] end";

/// The text an operator reads — `:explain`, `:stats` and the pool's
/// `stats` — and the attributes of every phase span, under a step clock.
/// Every figure and label is pinned, so a change to how the work counters
/// are carried cannot move a byte of any of them.
#[test]
fn rendered_reports_and_span_attributes_are_pinned() {
    let mut e = Engine::new();
    e.set_clock(Arc::new(ManualClock::with_step(100)));
    e.exec(SESSION).expect("session defines");
    let sink = Arc::new(CollectingEventSink::new());
    e.set_trace_sink(sink.clone());
    let salaries = e.explain(SALARIES).expect("explains");
    let poly = e.explain(POLY_GET).expect("explains");
    let spans: Vec<String> = sink
        .take()
        .iter()
        .map(|s| format!("{} {:?}", s.name, s.attrs))
        .collect();
    assert_eq!(
        salaries.to_string(),
        "statement  cquery(fn s => map(fn o => query(fn x => x.Salary, o), s), Employee)\n\
         type       {int}\n\
         result     {2000, 3000}\n\
         cache      miss (now cached)\n\
         deps       Employee@1\n\
         parse         100ns  tokens=27 nodes=23\n\
         infer         100ns  unify-steps=30 occurs-checks=10 kind-merges=0 instantiations=8\n\
         lower         100ns  offsets=1 index-params=1 abstractions=1 static-residue=0 records=0\n\
         offsets    dot .Salary @#i2.Salary\n\
         translate     100ns  core-nodes=32\n\
         eval          100ns  fuel=42 records=0 sets=3 offsets=2 runtime-fallbacks=0"
    );
    assert_eq!(
        poly.to_string(),
        "statement  let fun get r = r.Salary in get [Name = \"Ada\", Salary := 900] end\n\
         type       int\n\
         result     900\n\
         cache      miss (now cached)\n\
         deps       (none — no free top-level names, never stale)\n\
         parse         100ns  tokens=20 nodes=10\n\
         infer         100ns  unify-steps=5 occurs-checks=4 kind-merges=0 instantiations=2\n\
         lower         100ns  offsets=1 index-params=1 abstractions=1 static-residue=0 records=1\n\
         offsets    dot .Salary @#i1.Salary\n\
         offsets    record [Name@0, Salary@1:=]\n\
         translate     100ns  core-nodes=10\n\
         eval          100ns  fuel=14 records=1 sets=0 offsets=2 runtime-fallbacks=0"
    );
    assert_eq!(
        e.stats().to_string(),
        "pipeline   parses=3 inferences=6 tokens=103 nodes=47\n\
         stmt-cache hits=0 misses=2 evictions=0 dep-invalidations=0 epoch-invalidations=0\n\
         inference  unify-steps=46 occurs-checks=17 kind-merges=0 instantiations=14\n\
         evaluator  fuel=72 records=3 sets=4 offsets=6 dyn-fallbacks=0"
    );
    let phase_attrs =
        |parse: [u64; 2], infer: [u64; 4], lower: [u64; 5], core: u64, eval: [u64; 5]| {
            [
                format!(
                    "engine.parse [(\"tokens\", {}), (\"nodes\", {})]",
                    parse[0], parse[1]
                ),
                format!(
                    "engine.infer [(\"unify_steps\", {}), (\"occurs_checks\", {}), \
                 (\"kind_merges\", {}), (\"instantiations\", {})]",
                    infer[0], infer[1], infer[2], infer[3]
                ),
                format!(
                    "engine.lower [(\"offsets\", {}), (\"index_params\", {}), \
                 (\"abstractions\", {}), (\"residue\", {}), (\"records\", {})]",
                    lower[0], lower[1], lower[2], lower[3], lower[4]
                ),
                format!("engine.translate [(\"core_nodes\", {core})]"),
                format!(
                    "engine.eval [(\"fuel\", {}), (\"records\", {}), (\"sets\", {}), \
                 (\"offsets\", {}), (\"dyn_fallbacks\", {})]",
                    eval[0], eval[1], eval[2], eval[3], eval[4]
                ),
            ]
        };
    let want: Vec<String> = phase_attrs(
        [27, 23],
        [30, 10, 0, 8],
        [1, 1, 1, 0, 0],
        32,
        [42, 0, 3, 2, 0],
    )
    .into_iter()
    .chain(phase_attrs(
        [20, 10],
        [5, 4, 0, 2],
        [1, 1, 1, 0, 1],
        10,
        [14, 1, 0, 2, 0],
    ))
    .collect();
    assert_eq!(spans, want);

    // Two replicas apply the session; one of them serves the read. The
    // engine rows are the replicas' counters summed.
    let mut pool = Pool::new(PoolConfig::default().workers(2));
    pool.run(1, SESSION).expect("session defines");
    pool.run(2, SALARIES).expect("reads");
    pool.barrier().expect("barrier");
    let text = pool.stats().to_string();
    pool.shutdown();
    assert_eq!(
        text,
        "pool       workers=2 log=1 reads=1 writes=1 promoted=0 full=0 respawns=0\n\
         worker 0   gen=0 applied=1 lag=0 depth=0 replay-errors=0 respawn-replayed=0 epoch=4\n\
         worker 1   gen=0 applied=1 lag=0 depth=0 replay-errors=0 respawn-replayed=0 epoch=4\n\
         pipeline   parses=3 inferences=9 tokens=139 nodes=51\n\
         stmt-cache hits=0 misses=1 evictions=0 dep-invalidations=0 epoch-invalidations=0\n\
         inference  unify-steps=52 occurs-checks=16 kind-merges=0 instantiations=16\n\
         evaluator  fuel=74 records=4 sets=5 offsets=6 dyn-fallbacks=0"
    );
}
