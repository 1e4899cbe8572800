//! The benchmark's own guarantees: seeded streams, repeatable work
//! counters, a checker that catches wrong answers, and output that
//! matches BENCHMARK.json.

use polybench::run::{self, Budget, Plan};
use polybench::workload::{Expect, Workload, ALL};
use polyview::obs::jsonl::{parse_object_line, JsonValue};
use std::process::Command;

fn ops(w: Workload, seed: u64, client: usize, n: usize) -> Vec<polybench::workload::Op> {
    let mut s = w.stream(seed, client);
    (0..n).map(|_| s.next_op()).collect()
}

#[test]
fn op_stream_is_fixed_by_the_seed() {
    for w in ALL {
        assert_eq!(ops(w, 1, 0, 500), ops(w, 1, 0, 500), "{}", w.name());
        assert_ne!(ops(w, 1, 0, 500), ops(w, 2, 0, 500), "{}", w.name());
        if w.clients() > 1 {
            assert_ne!(ops(w, 1, 0, 500), ops(w, 1, 1, 500), "{}", w.name());
        }
    }
}

#[test]
fn in_process_work_counters_repeat_exactly() {
    const COUNTERS: [&str; 13] = [
        "engine.stmt_cache_hits",
        "engine.stmt_cache_misses",
        "parser.tokens_lexed",
        "parser.nodes_parsed",
        "types.unify_steps",
        "types.kind_merges",
        "types.instantiations",
        "trans.offsets_resolved",
        "trans.dynamic_residue",
        "eval.fuel_consumed",
        "eval.records_allocated",
        "eval.sets_allocated",
        "eval.dyn_field_fallbacks",
    ];
    for w in [Workload::AdhocCompile, Workload::ExtentStorm] {
        let counts = || {
            let seg = run::segment(&Plan::new(w, 7, Budget::Ops(2000), true), 1).expect("runs");
            assert_eq!(seg.failed(), 0, "{}: {:?}", w.name(), seg.first_failure());
            let work = seg.after.since(&seg.before);
            let mut c: Vec<u64> = COUNTERS.iter().map(|n| work.counter(n)).collect();
            c.push(seg.store_slots);
            c
        };
        let first = counts();
        assert!(first[9] > 0, "{}: the run did no evaluation", w.name());
        assert_eq!(first, counts(), "{}", w.name());
    }
}

fn render_names(ks: impl Iterator<Item = usize>) -> String {
    let names: Vec<String> = ks.map(|k| format!("\"s{k}\"")).collect();
    format!("{{{}}}", names.join(", "))
}

#[test]
fn checker_rejects_corrupted_results() {
    for w in ALL {
        let mut stream = w.stream(3, 0);
        // The test's own copy of which staff objects client 0 has deleted.
        let mut present = [true; 200];
        for _ in 0..300 {
            let op = stream.next_op();
            let target = |verb: &str| {
                op.src
                    .strip_prefix(verb)
                    .and_then(|r| r.strip_suffix(')'))
                    .and_then(|k| k.parse::<usize>().ok())
            };
            if let Some(k) = target("delete(Staff, e") {
                present[k] = false;
            }
            if let Some(k) = target("insert(Staff, e") {
                present[k] = true;
            }
            let females = || (0..200).step_by(2).filter(|&k| present[k]);
            let (good, mut bad) = match &op.expect {
                Expect::Text(t) if t == "()" => (t.clone(), vec!["1".to_string()]),
                Expect::Text(t) => {
                    let n: i64 = t.parse().expect("numeric");
                    (t.clone(), vec![(n + 1).to_string()])
                }
                Expect::Binds(name) => (
                    format!("{name} : int -> int"),
                    vec!["other : int".to_string()],
                ),
                // A male object in `Female`.
                Expect::AllFemales | Expect::ChurnedFemales => (
                    render_names(females()),
                    vec![render_names(females().chain([1]))],
                ),
            };
            // A read that misses the client's own earlier delete.
            if op.expect == Expect::ChurnedFemales && females().count() < 100 {
                bad.push(render_names((0..200).step_by(2)));
            }
            assert!(
                stream.check(&op, &good),
                "{}: rejected {good:?} for {}",
                w.name(),
                op.src
            );
            for b in bad {
                assert!(
                    !stream.check(&op, &b),
                    "{}: accepted {b:?} for {}",
                    w.name(),
                    op.src
                );
            }
        }
    }
}

/// Names and units of one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = parse_object_line(&text.replace('\n', " ")).expect("BENCHMARK.json is one object");
    JsonValue::get(&doc, section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric object");
            let field = |k: &str| {
                JsonValue::get(m, k)
                    .and_then(JsonValue::as_str)
                    .expect(k)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Names and units in the last line of a run of the built binary.
fn emitted(trace: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_polybench"))
        .args([
            "--workload",
            "extent_storm",
            "--seed",
            "2",
            "--ops",
            "300",
            "--trace",
            trace,
        ])
        .output()
        .expect("runs the binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = parse_object_line(stdout.lines().last().expect("a result line")).expect("json");
    let keys: Vec<&str> = last.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        JsonValue::get(&last, "correct"),
        Some(&JsonValue::Bool(true))
    );
    JsonValue::get(&last, "metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let m = m.as_object().expect("metric object");
            assert!(matches!(
                JsonValue::get(m, "value"),
                Some(JsonValue::Num(_))
            ));
            let unit = JsonValue::get(m, "unit")
                .and_then(JsonValue::as_str)
                .expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn emitted_metrics_match_benchmark_json() {
    assert_eq!(emitted("0"), declared("end_to_end"));
    assert_eq!(emitted("1"), declared("per_layer"));
}
