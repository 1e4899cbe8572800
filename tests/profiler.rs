//! The `:profile` attribution profiler end to end (DESIGN.md §14):
//! deterministic trees under an injected `ManualClock`, the
//! `self + Σ children = total` invariant, fallback-site attribution on a
//! mutual-recursion workload whose field ops cannot be index-abstracted,
//! view-recompute attribution naming the class and the invalidating
//! epoch, the JSON-lines / folded-stack renderers, and the mechanical
//! zero-cost-when-off proof (no clock reads while disabled).

use polyview::obs::{jsonl, ManualClock};
use polyview::{Engine, Machine, Profile, ProfileNode};
use std::sync::Arc;

/// Session exercising every attribution channel: a class with a cached
/// extent, and a mutual `fun` group with a row-polymorphic field read
/// (mutual groups stay plain-lowered, so `r.Steps` keeps its dynamic
/// lookup and running it attributes a runtime fallback site).
const SESSION: &str = r#"
    class Staff = class {} end;
    insert(Staff, IDView([Steps := 4]));
    insert(Staff, IDView([Steps := 2]));
    fun step r = r.Steps and same r = step(r);
    fun even n = if n = 0 then true else odd(n - 1)
    and odd n = if n = 0 then false else even(n - 1);
"#;

const WORKLOAD: &str = "cquery(fn s => map(fn o => query(fn x => even(step(x)), o), s), Staff)";

fn profiled_engine() -> Engine {
    let mut e = Engine::new();
    e.set_clock(Arc::new(ManualClock::with_step(10)));
    e.exec(SESSION).expect("session defines");
    e
}

fn assert_frames_consistent(n: &ProfileNode) {
    let child_total: u64 = n.children.iter().map(|c| c.total_ns).sum();
    assert_eq!(
        n.total_ns,
        n.self_ns + child_total,
        "self/total must sum at {} {:?}",
        n.kind,
        n.span
    );
    assert!(n.hits > 0, "a materialised node was entered");
    for c in &n.children {
        assert_frames_consistent(c);
    }
}

// ----- determinism and frame accounting -----

#[test]
fn profile_tree_is_deterministic_under_a_manual_clock() {
    let mut a = profiled_engine();
    let mut b = profiled_engine();
    let ra = a.profile(WORKLOAD).expect("profiles");
    let rb = b.profile(WORKLOAD).expect("profiles");
    assert_eq!(ra.to_json_lines(), rb.to_json_lines());
    assert_eq!(ra.to_folded(), rb.to_folded());
    assert_eq!(ra.to_string(), rb.to_string());
    assert_eq!(ra.eval_ns, rb.eval_ns);
}

#[test]
fn self_plus_children_sums_to_total_everywhere() {
    let mut e = profiled_engine();
    let r = e.profile(WORKLOAD).expect("profiles");
    assert!(!r.profile.roots.is_empty(), "the run built a tree");
    assert_eq!(r.profile.truncated_frames, 0, "well under the depth cap");
    for root in &r.profile.roots {
        assert_frames_consistent(root);
    }
    // Each profiled frame costs exactly two clock reads at step 10, so the
    // whole-statement total is a multiple of the quantum and matches the
    // per-root totals.
    let tree_total: u64 = r.profile.roots.iter().map(|n| n.total_ns).sum();
    assert_eq!(tree_total, r.profile.total_ns());
    assert_eq!(tree_total % 10, 0, "ManualClock quanta only");
    assert!(tree_total > 0);
}

#[test]
fn recursion_grows_a_chain_not_a_cycle() {
    let mut e = profiled_engine();
    // even(6) recurses 7 levels through the mutual group: the tree keys
    // nodes by (parent, node), so the recursion appears as a chain of
    // distinct app frames rather than one self-merged node.
    let r = e.profile("even(6)").expect("profiles");
    fn depth(n: &ProfileNode) -> usize {
        1 + n.children.iter().map(depth).max().unwrap_or(0)
    }
    let max_depth = r.profile.roots.iter().map(depth).max().unwrap();
    assert!(
        max_depth >= 7,
        "recursion depth visible in the tree: {max_depth}"
    );
    for root in &r.profile.roots {
        assert_frames_consistent(root);
    }
}

// ----- fallback-site attribution -----

#[test]
fn row_polymorphic_field_read_in_mutual_group_attributes_fallback_sites() {
    let mut e = profiled_engine();
    let r = e.profile(WORKLOAD).expect("profiles");
    // `step` reads `r.Steps` dynamically once per extent row (3 rows at
    // seed... 2 rows here: the session inserts 4 and 2).
    let site = r
        .profile
        .fallback_sites
        .iter()
        .find(|s| s.label == "Steps")
        .expect("the dynamic read of .Steps is attributed");
    assert_eq!(site.kind, "dot");
    assert_eq!(site.span, "r.Steps");
    assert_eq!(site.count, 2, "one dynamic lookup per extent row");
}

#[test]
fn offset_resolved_statements_attribute_no_fallbacks() {
    let mut e = profiled_engine();
    // A top-level monomorphic field read is offset-resolved by lowering;
    // profiling it must show zero fallback sites.
    e.exec("val solo = [Name = \"Ada\", Steps := 1];")
        .expect("defines");
    let r = e.profile("solo.Steps").expect("profiles");
    assert!(
        r.profile.fallback_sites.is_empty(),
        "offset-resolved access must not attribute fallbacks: {:?}",
        r.profile.fallback_sites
    );
}

// ----- view-recompute attribution -----

#[test]
fn extent_scan_names_the_class_and_the_invalidating_epoch() {
    let mut e = profiled_engine();
    // Warm the cache, then invalidate it with an insert: the profiled
    // statement's scan recomputes at the post-insert epoch.
    e.eval_to_string(WORKLOAD).expect("warm extent");
    e.exec("insert(Staff, IDView([Steps := 6]));")
        .expect("insert invalidates");
    let r = e.profile(WORKLOAD).expect("profiles");
    let v = r
        .profile
        .view_recomputes
        .iter()
        .find(|v| r.class_name(v.class) == "Staff")
        .expect("the Staff extent scan is attributed");
    assert_eq!(v.recomputes, 1, "invalidated cache recomputes once");
    assert_eq!(v.rows_scanned, 3, "all three members rescanned");
    assert!(
        v.invalidating_epoch >= 3,
        "epoch reflects the three mutations: {}",
        v.invalidating_epoch
    );

    // A second profiled run hits the still-warm cache instead.
    let r2 = e.profile(WORKLOAD).expect("profiles again");
    let v2 = r2
        .profile
        .view_recomputes
        .iter()
        .find(|v| r2.class_name(v.class) == "Staff")
        .expect("the cached scan is still attributed");
    assert_eq!(v2.recomputes, 0);
    assert_eq!(v2.cache_hits, 1, "warm extent served from cache");
}

// ----- renderers: JSON lines, folded stacks, hot-node table -----

#[test]
fn json_lines_validate_with_pinned_key_order() {
    let mut e = profiled_engine();
    let r = e.profile(WORKLOAD).expect("profiles");
    let json = r.to_json_lines();
    let mut kinds_seen = std::collections::BTreeSet::new();
    for line in json.lines() {
        let keys = jsonl::check_object_line(line)
            .unwrap_or_else(|err| panic!("invalid JSON line {line:?}: {err:?}"));
        assert_eq!(keys[0], "kind", "kind leads every line: {line}");
        match line.split('"').nth(3).unwrap() {
            "profile.node" => assert_eq!(
                keys,
                ["kind", "path", "node", "span", "hits", "total_ns", "self_ns"]
            ),
            "profile.fallback_site" => {
                assert_eq!(keys, ["kind", "site", "span", "label", "count"])
            }
            "profile.view_recompute" => assert_eq!(
                keys,
                [
                    "kind",
                    "class",
                    "class_id",
                    "recomputes",
                    "cache_hits",
                    "rows_scanned",
                    "invalidating_epoch"
                ]
            ),
            "profile.summary" => assert_eq!(
                keys,
                ["kind", "statement", "eval_ns", "nodes", "truncated_frames"]
            ),
            other => panic!("unexpected line kind {other:?}"),
        }
        kinds_seen.insert(line.split('"').nth(3).unwrap().to_string());
    }
    assert_eq!(
        kinds_seen.into_iter().collect::<Vec<_>>(),
        [
            "profile.fallback_site",
            "profile.node",
            "profile.summary",
            "profile.view_recompute"
        ],
        "every attribution channel emits at least one line"
    );
}

#[test]
fn snippets_with_quotes_escape_into_valid_json() {
    let mut e = profiled_engine();
    let r = e
        .profile(r#"if even(2) then "yes \"sir\"" else "no""#)
        .expect("profiles");
    let json = r.to_json_lines();
    assert!(
        json.contains(r#"\"sir\\\"#),
        "escaped string literal survives in some span: missing from\n{json}"
    );
    for line in json.lines() {
        jsonl::check_object_line(line)
            .unwrap_or_else(|err| panic!("invalid JSON line {line:?}: {err:?}"));
    }
}

#[test]
fn folded_stacks_carry_self_weights_that_sum_to_the_total() {
    let mut e = profiled_engine();
    let r = e.profile(WORKLOAD).expect("profiles");
    let folded = r.to_folded();
    assert!(!folded.is_empty());
    let mut sum = 0u64;
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` shape");
        assert!(!stack.is_empty());
        // Frame separator is `;`, so frames themselves never contain one.
        for frame in stack.split(';') {
            assert!(frame.contains(':'), "frame is kind:span — got {frame:?}");
            assert!(!frame.is_empty());
        }
        sum += weight.parse::<u64>().expect("numeric self weight");
    }
    assert_eq!(
        sum,
        r.profile.total_ns(),
        "folded self weights partition the total"
    );
}

#[test]
fn hot_node_table_renders_and_ranks_by_self_time() {
    let mut e = profiled_engine();
    let r = e.profile(WORKLOAD).expect("profiles");
    let hot = r.profile.hot_nodes();
    assert!(!hot.is_empty());
    for pair in hot.windows(2) {
        assert!(
            pair[0].self_ns >= pair[1].self_ns,
            "hot nodes sorted by self time"
        );
    }
    let shown = r.to_string();
    for needle in [
        "self",
        "total",
        "hits",
        "fallbacks",
        "Staff recomputes=",
        "invalidated-by-epoch",
    ] {
        assert!(shown.contains(needle), "missing {needle:?} in:\n{shown}");
    }
}

// ----- merging (the pool's absorb path) -----

#[test]
fn absorbed_profiles_merge_trees_sites_and_recomputes() {
    // Two fresh engines so the lowering gensym state (and thus the spans)
    // match — the shape a pool merges across identically-seeded replicas.
    let a = profiled_engine()
        .profile(WORKLOAD)
        .expect("profiles")
        .profile;
    let b = profiled_engine()
        .profile(WORKLOAD)
        .expect("profiles")
        .profile;
    let (a_total, b_total) = (a.total_ns(), b.total_ns());
    let a_sites: u64 = a.fallback_sites.iter().map(|s| s.count).sum();
    let b_sites: u64 = b.fallback_sites.iter().map(|s| s.count).sum();

    let mut merged = Profile::default();
    merged.absorb(&a);
    merged.absorb(&b);
    assert_eq!(merged.total_ns(), a_total + b_total);
    assert_eq!(
        merged.fallback_sites.iter().map(|s| s.count).sum::<u64>(),
        a_sites + b_sites
    );
    // Identical trees merge by (kind, span) path instead of duplicating.
    assert_eq!(merged.roots.len(), a.roots.len().max(b.roots.len()));
    for root in &merged.roots {
        assert_frames_consistent(root);
    }
}

// ----- zero-cost-when-off -----

#[test]
fn disabled_profiler_never_reads_the_clock() {
    let counting = Arc::new(ManualClock::with_step(10));
    let mut m = Machine::new();
    m.set_profile_clock(counting.clone());
    assert!(!m.profiling());
    let e = polyview::parser::parse_expr("let f = fn x => x + 1 in f (f 40) end")
        .expect("probe parses");
    let v = m.eval(&e).expect("probe evaluates");
    assert_eq!(format!("{v:?}"), "Int(42)");
    assert_eq!(counting.reads(), 0, "off path must not touch the clock");

    // Switched on, the same machine reads it — and stop drains the state.
    m.profile_start();
    m.eval(&e).expect("profiled run");
    let p = m.profile_stop().expect("profile built");
    assert!(counting.reads() > 0);
    assert!(p.total_ns() > 0);
    assert!(!m.profiling(), "stop turns the profiler off");
    let before = counting.reads();
    m.eval(&e).expect("post-stop run");
    assert_eq!(counting.reads(), before, "off again after stop");
}

#[test]
fn profile_does_not_pollute_the_statement_cache() {
    let mut e = profiled_engine();
    e.profile(WORKLOAD).expect("profiles");
    let before = e.stats();
    e.eval_to_string(WORKLOAD).expect("runs");
    let after = e.stats();
    assert_eq!(
        after.stmt_cache_hits, before.stmt_cache_hits,
        "profile runs bypass the cache, so the first plain run misses"
    );
    assert_eq!(after.stmt_cache_misses, before.stmt_cache_misses + 1);
}
