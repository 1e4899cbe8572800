#!/usr/bin/env bash
# Offline-safe verification: everything here runs with no network access.
#
# The repository has no external dependencies (DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1 + workspace tests: cargo test --workspace -q"
# One pass: the workspace run includes the root package's tests (the
# tier-1 `cargo test -q` set) plus every member crate's.
cargo test --workspace -q

echo "==> pool smoke: serving-layer suite under --release"
# The pool suite exercises real concurrency (worker threads, crash
# injection, backpressure); run it under the release profile too so
# timing-sensitive regressions surface in both profiles.
cargo test -q --release --test pool
# Read regions: its pool cases run real worker threads too.
cargo test -q --release --test read_regions
# One serve arm stamps dequeue, catch-up and completion for every
# request; this suite pins their order and exact timestamps.
cargo test -q --release --test pool_tracing
# The wire front door runs real sockets and worker threads too.
cargo test -q --release --test net

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> polybench: builds offline and its smoke run passes"
# The benchmark (BENCHMARK.json) is its own workspace, so tier-1 never
# builds it. It imports polyview::obs::{HistogramSnapshot,
# metrics::bucket_*, jsonl} and drives core, pool and net through their
# public API: an API change that breaks it must fail here, not first in
# the benchmark run. smoke.sh builds the package with --offline, then runs
# every workload at 1% of its ops, untraced and traced.
polybench/smoke.sh

echo "==> polybench counter gate: seed-1 work counters equal the committed ones"
# Deterministic per-op work counters (ROADMAP item 5): a seed-1 traced run
# of three workloads must reproduce them exactly, so a change that moves
# parse, inference, lowering or evaluation work fails here with no timing
# noise. wire_views has two concurrent clients, but its counters repeated
# exactly in 10 of 10 seed-1 runs. write_churn is left out: half its ops
# are writes, and its counters depend on how its clients interleave. When
# a change moves a counter on purpose, update its constant here and say
# why in CHANGES.md. The last two, dynamic field lookups at run time and
# the lowering residue that causes them, must stay 0: on these workloads
# every field operation is lowered to an offset (ROADMAP item 7).
bench_bin="${CARGO_TARGET_DIR:-polybench/target}/release/polybench"
for gate in \
    "adhoc_compile 92.7852 2.2868 1.402 41.0832 1.5436 10.1816 5.2516 0 0" \
    "extent_storm 1221.2628 7.4368 0 0.6216 0 0.2072 0 0 0" \
    "wire_views 3462.5548 90.84 91.7484 0.7792 0 0.2384 0.0552 0 0"; do
    read -r workload want <<<"$gate"
    "$bench_bin" --workload "$workload" --seed 1 --ops 20000 --trace 1 | tail -n 1 \
        | python3 -c '
import json, sys
workload, want = sys.argv[1], [float(x) for x in sys.argv[2].split()]
names = ["eval.fuel_per_op", "eval.records_per_op", "eval.sets_per_op",
         "types.unify_steps_per_op", "types.kind_merges_per_op",
         "types.instantiations_per_op", "trans.offsets_resolved_per_op",
         "eval.dyn_field_fallbacks_per_op", "trans.dynamic_residue_per_op"]
metrics = json.loads(sys.stdin.read())["metrics"]
got = [metrics[n]["value"] for n in names]
bad = [f"{n}: {g} != {w}" for n, g, w in zip(names, got, want) if g != w]
assert not bad, f"{workload} counters moved: " + "; ".join(bad)
print(f"  {workload}: all {len(names)} counters equal the committed ones")
' "$workload" "$want"
done

echo "==> dependency hygiene: crates/obs declares no dependencies at all"
# The observability crate must stay std-only (DESIGN.md §9/§11): not even
# path dependencies, so it can never grow a transitive external edge.
if grep -q '^\[.*dependencies\]' crates/obs/Cargo.toml; then
    echo "FAIL: crates/obs/Cargo.toml declares a dependencies section"
    exit 1
fi

echo "==> dependency hygiene: no manifest carries an external dep"
# Every dependency line in every tracked manifest (the workspace, its
# members and polybench) must be a path/workspace dependency: a line
# pulling from a registry (e.g. `serde = "1"`) fails, in any package.
for manifest in $(git ls-files '*Cargo.toml'); do
    awk -v manifest="$manifest" '
        /^\[/ {
            in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/)
            next
        }
        in_deps && NF && $0 !~ /^[[:space:]]*#/ \
                     && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/ \
                     && $0 !~ /path[[:space:]]*=/ {
            printf "external dependency in %s: %s\n", manifest, $0
            bad = 1
        }
        END { exit bad }
    ' "$manifest" || { echo "FAIL: dependency hygiene ($manifest)"; exit 1; }
done

echo "==> metrics export: one JSON object per line + cache-behavior smoke"
# metrics_dump runs the same query three times around an unrelated `val`
# rebind: per-name dependency invalidation (DESIGN.md §12) must keep the
# cached compilation warm — hits > 0, dep-invalidations exactly 0.
cargo run -q --release --example metrics_dump | python3 -c '
import json, sys
lines = sys.stdin.read().splitlines()
assert lines, "metrics_dump printed nothing"
for line in lines:
    obj = json.loads(line)
    assert isinstance(obj, dict) and "kind" in obj and "name" in obj, line
kinds = {json.loads(l)["kind"] for l in lines}
assert kinds == {"counter", "histogram"}, kinds
# The exported names are a contract: polybench reads its per-op columns by
# these names, so a renamed or dropped metric must fail here instead of
# silently emptying a column.
names = {json.loads(l)["name"] for l in lines}
want = {f"{layer}.{n}" for layer, ns in {
    "engine": ["epoch_invalidations", "inferences", "parses",
               "stmt_cache_dep_invalidations", "stmt_cache_evictions",
               "stmt_cache_hits", "stmt_cache_misses"],
    "eval": ["dyn_field_fallbacks", "field_offsets_resolved", "fuel_consumed",
             "records_allocated", "sets_allocated"],
    "parser": ["nodes_parsed", "tokens_lexed"],
    "trans": ["dynamic_residue", "offsets_resolved", "translated_size"],
    "types": ["instantiations", "kind_merges", "occurs_checks", "unify_steps"],
    "phase": ["eval_ns", "infer_ns", "lower_ns", "parse_ns", "translate_ns"],
}.items() for n in ns}
assert len(want) == 26
assert names == want, f"metric names moved: missing {sorted(want - names)}, new {sorted(names - want)}"
counters = {o["name"]: o["value"] for o in map(json.loads, lines) if o["kind"] == "counter"}
hits = counters["engine.stmt_cache_hits"]
deps = counters["engine.stmt_cache_dep_invalidations"]
assert hits > 0, f"expected statement-cache hits, got {hits}"
assert deps == 0, f"unrelated rebind must not invalidate: dep_invalidations={deps}"
# Compile-tier gate (DESIGN.md §13/§14): the two fallback families are
# asserted separately. `trans.dynamic_residue` counts field ops the
# *lowerer* left dynamic (static residue, decided at compile time);
# `eval.dyn_field_fallbacks` counts dynamic lookups the *evaluator*
# actually executed (runtime fallbacks). On this workload both stay 0 and
# every field op runs through an integer offset.
offs = counters["eval.field_offsets_resolved"]
falls = counters["eval.dyn_field_fallbacks"]
s_offs = counters["trans.offsets_resolved"]
s_res = counters["trans.dynamic_residue"]
assert offs > 0, f"expected offset-resolved field ops, got {offs}"
assert s_offs > 0, f"expected the lowerer to resolve offsets, got {s_offs}"
assert s_res == 0, f"lowerer left {s_res} field op(s) dynamic (static residue)"
assert falls == 0, f"evaluator fell back to dynamic lookup {falls} time(s) (runtime fallbacks)"
print(f"  {len(lines)} metrics lines, all valid JSON objects; "
      f"stmt_cache_hits={hits}, dep_invalidations={deps}, "
      f"field_offsets={offs}, static_residue={s_res}, runtime_fallbacks={falls}")
'

echo "==> profile export: profile_dump emits valid attribution JSON lines"
# The example self-validates each line with polyview::obs::jsonl before
# printing; this gate re-checks independently, asserts every attribution
# channel emitted, and mechanically re-verifies zero-cost-when-off (the
# disabled machine's injected clock was never read).
cargo run -q --release --example profile_dump | python3 -c '
import json, sys
lines = sys.stdin.read().splitlines()
assert lines, "profile_dump printed nothing"
objs = [json.loads(l) for l in lines]
assert all(isinstance(o, dict) and "kind" in o for o in objs)
kinds = {o["kind"] for o in objs}
for must in ("profile.node", "profile.fallback_site",
             "profile.view_recompute", "profile.summary"):
    assert must in kinds, f"no {must} line in profile dump"
nodes = [o for o in objs if o["kind"] == "profile.node"]
summary = next(o for o in objs if o["kind"] == "profile.summary")
assert summary["eval_ns"] > 0 and summary["nodes"] == len(nodes)
assert summary["truncated_frames"] == 0
roots = [o for o in nodes if o["path"] == []]
assert sum(o["total_ns"] for o in roots) == summary["eval_ns"], \
    "root totals must sum to the statement eval time"
site = next(o for o in objs if o["kind"] == "profile.fallback_site")
label, count = site["label"], site["count"]
assert label and count > 0, site
view = next(o for o in objs if o["kind"] == "profile.view_recompute")
vclass, vrec = view["class"], view["recomputes"]
assert vclass == "Staff" and vrec > 0, view
# The extent cache is always on: the second scan of Staff is a hit.
vhits = [o for o in objs
         if o["kind"] == "profile.view_recompute" and o["cache_hits"] > 0]
assert vhits, "no profile.view_recompute line with cache_hits > 0"
vhit = vhits[0]["cache_hits"]
off = next(o for o in objs if o["kind"] == "profile.disabled_check")
reads = off["disabled_clock_reads"]
assert reads == 0, f"profiler-off path read the clock {reads} time(s)"
print(f"  {len(lines)} profile lines; {len(nodes)} nodes, "
      f"fallback .{label} x{count}, view {vclass} recomputes={vrec} "
      f"cache_hits={vhit}, "
      f"disabled clock reads=0")
'

echo "==> trace export: pool_server --trace emits valid JSON event lines"
# The binary self-validates each line with the std-only checker in
# polyview::obs::jsonl before printing; this gate re-checks the stream
# independently and asserts the schema keys and cross-thread stitching.
cargo run -q --release --example pool_server -- --trace 2>/dev/null | python3 -c '
import json, sys
lines = sys.stdin.read().splitlines()
assert lines, "pool_server --trace printed nothing"
required = {"kind", "name", "trace_id", "start_ns", "dur_ns"}
events = []
for line in lines:
    obj = json.loads(line)
    assert isinstance(obj, dict), line
    assert required <= obj.keys(), f"missing keys in {line}"
    assert obj["kind"] == "span", line
    events.append(obj)
names = {e["name"] for e in events}
for must in ("pool.submitted", "pool.enqueued", "pool.dequeued",
             "pool.catchup", "pool.completed", "engine.eval"):
    assert must in names, f"no {must} event in trace"
# Engine-phase events carry the owning request as parent: at least one
# trace id must stitch a pool lifecycle to an engine span.
stitched = {e["parent"] for e in events if e["name"].startswith("engine.") and "parent" in e}
assert stitched & {e["trace_id"] for e in events if e["name"] == "pool.submitted"}, \
    "no engine span stitched to a submitted request"
print(f"  {len(events)} trace events, all valid and stitched")
'

echo "==> net smoke: loadgen drives the TCP front door over loopback"
# A real server process on an ephemeral loopback port, a real wire-level
# client. Frame budget is exact: 1 setup batch + 3 hellos + 60 statements
# = 64 frames, and the server exits after decoding precisely that many,
# draining gracefully. The server's stderr stats must report zero invalid
# frames and zero busy rejections; its --trace stdout must be valid JSON
# event lines with `net.*` spans stitched to `engine.*` spans by trace id.
cargo build -q --release --example pool_server --example loadgen
net_dir="$(mktemp -d)"
target/release/examples/pool_server --listen 127.0.0.1:0 \
    --addr-file "$net_dir/addr" --requests 64 --trace \
    >"$net_dir/trace" 2>"$net_dir/stats" &
net_server_pid=$!
target/release/examples/loadgen --addr-file "$net_dir/addr" \
    --requests 60 --clients 3 >"$net_dir/loadgen"
wait "$net_server_pid"
grep -q "0 busy retries, 0 statement errors" "$net_dir/loadgen" \
    || { echo "FAIL: loadgen saw rejections or errors"; cat "$net_dir/loadgen"; exit 1; }
grep -q "64 decoded, 0 invalid, 0 busy-rejected" "$net_dir/stats" \
    || { echo "FAIL: server counters off"; cat "$net_dir/stats"; exit 1; }
python3 -c '
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "net server --trace printed nothing"
required = {"kind", "name", "trace_id", "start_ns", "dur_ns"}
events = []
for line in lines:
    obj = json.loads(line)
    assert isinstance(obj, dict) and obj["kind"] == "span", line
    assert required <= obj.keys(), f"missing keys in {line}"
    events.append(obj)
names = {e["name"] for e in events}
for must in ("net.accepted", "net.read", "net.decoded",
             "pool.submitted", "pool.sequenced", "engine.eval"):
    assert must in names, f"no {must} event in the wire trace"
# Socket-side events reuse the pool-minted request trace id, so one id
# spans socket -> router -> worker -> engine.
net_traces = {e["trace_id"] for e in events if e["name"] == "net.read"}
pool_traces = {e["trace_id"] for e in events if e["name"] == "pool.submitted"}
assert net_traces and 0 not in net_traces, "net.read must carry real trace ids"
assert net_traces <= pool_traces, "every net.read id must belong to a submitted request"
engine_parents = {e.get("parent") for e in events if e["name"].startswith("engine.")}
assert net_traces & engine_parents, "no net-side id reached an engine span"
print(f"  {len(events)} wire-trace events; {len(net_traces)} socket traces, "
      f"all stitched through pool to engine spans")
' "$net_dir/trace"
rm -rf "$net_dir"

echo "==> stats smoke: the introspection plane observes the load it serves"
# Same server/loadgen pair, introspection on: the server emits a
# self-validated stats snapshot every 50ms (--stats-interval) while
# loadgen polls the `stats`/`health` wire ops concurrently with the load
# (--stats-polls 3). Frame budget: 1 setup batch + 2 hellos + 40
# statements + 2x3 poll frames = 49. Every emitted snapshot must be a
# valid JSON object with the full schema, report a healthy verdict, and
# at least one post-load snapshot must have a nonzero windowed read
# rate; loadgen's own final poll asserts the same from the wire side.
# Loadgen's writes are all syntactic (`insert`, declarations), so no read
# may be promoted to a write: a nonzero `pool.reads_promoted` means the
# classifier regressed and every such write now pays a rolled-back read
# first.
stats_dir="$(mktemp -d)"
target/release/examples/pool_server --listen 127.0.0.1:0 \
    --addr-file "$stats_dir/addr" --requests 49 --stats-interval 50 \
    >"$stats_dir/snapshots" 2>"$stats_dir/stats" &
stats_server_pid=$!
target/release/examples/loadgen --addr-file "$stats_dir/addr" \
    --requests 40 --clients 2 --stats-polls 3 >"$stats_dir/loadgen"
wait "$stats_server_pid"
grep -q "0 busy retries, 0 statement errors" "$stats_dir/loadgen" \
    || { echo "FAIL: loadgen saw rejections or errors"; cat "$stats_dir/loadgen"; exit 1; }
grep -q "final stats: health=healthy" "$stats_dir/loadgen" \
    || { echo "FAIL: no healthy final stats poll"; cat "$stats_dir/loadgen"; exit 1; }
python3 -c '
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "pool_server --stats-interval printed no snapshots"
required = {"at_ns", "health", "health_reasons", "workers", "window",
            "cumulative", "per_worker", "slow", "net"}
snaps = []
for line in lines:
    obj = json.loads(line)
    assert isinstance(obj, dict), line
    assert required <= obj.keys(), f"missing keys in snapshot: {sorted(required - obj.keys())}"
    snaps.append(obj)
assert all(s["health"] == "healthy" for s in snaps), \
    [s["health"] for s in snaps]
# The last snapshot is taken after the whole load; its cumulative
# counters must have seen every request and its window a nonzero rate.
last = snaps[-1]
reads = last["cumulative"]["counters"]["pool.submitted_reads"]
assert reads == 36, f"expected 36 cumulative reads (90% of 40), got {reads}"
promoted = last["cumulative"]["counters"]["pool.reads_promoted"]
assert promoted == 0, f"ordinary traffic promoted {promoted} read(s) to writes"
# The cumulative section is the pool snapshot: one applied-offset gauge
# per replica (presence only: a replica may still be catching up), and
# no sequenced write failed on any replica.
gauges = last["cumulative"]["gauges"]
missing = [i for i in range(last["workers"]) if f"pool.worker{i}.applied" not in gauges]
assert not missing, f"no pool.worker{{i}}.applied gauge for workers {missing}"
replay_errors = last["cumulative"]["counters"]["pool.replay_errors"]
assert replay_errors == 0, f"{replay_errors} replay error(s) under ordinary traffic"
# It also sums the engine counters of the replicas, read through the handle
# each replica shares with the router: the load was parsed somewhere.
parses = last["cumulative"]["counters"].get("engine.parses", 0)
assert parses > 0, f"no replica engine counter in the stats op (engine.parses={parses})"
windowed = [s for s in snaps
            if s["window"] and s["window"]["rates"]["pool.submitted_reads"] > 0]
assert windowed, "no snapshot windowed a nonzero read rate"
net = last["net"]
assert net["frames_invalid"] == 0 and net["write_errors"] == 0, net
frames = net["frames_decoded"]
print(f"  {len(snaps)} snapshots, all valid and healthy; "
      f"{len(windowed)} with nonzero windowed read rate, "
      f"cumulative reads={reads}, promoted={promoted}, frames={frames}")
' "$stats_dir/snapshots"
rm -rf "$stats_dir"

echo "==> snapshot smoke: bounded recovery + restart from --snapshot-dir"
# In-process pool_server with checkpointing (DESIGN.md §17): the injected
# crash on worker 1 must respawn from a checkpoint (gen=1) and replay only
# the short log tail above it — never the whole history. The run writes 22
# sequenced statements (2 seed + 20 inserts), so with --checkpoint-every 4
# a bounded respawn replays at most a handful of entries; 22 would mean
# the unbounded full-replay path is back. A second run over the same
# --snapshot-dir must resume from the persisted checkpoint: its log picks
# up at the restored base (20, the newest checkpoint grid point below 22)
# instead of offset 0, so the final absolute log length is 20 + 22 = 42.
snap_dir="$(mktemp -d)"
target/release/examples/pool_server --checkpoint-every 4 \
    --snapshot-dir "$snap_dir/ckpt" >"$snap_dir/run1"
ls "$snap_dir"/ckpt/checkpoint-*.pvpc >/dev/null 2>&1 \
    || { echo "FAIL: no checkpoint file persisted"; ls -la "$snap_dir/ckpt" || true; exit 1; }
target/release/examples/pool_server --checkpoint-every 4 \
    --snapshot-dir "$snap_dir/ckpt" >"$snap_dir/run2"
python3 -c '
import re, sys

def check(path, label, log_len):
    text = open(path).read()
    assert "all replicas agree" in text, f"{label}: replicas did not converge"
    pool = re.search(r"^pool\s+workers=4 log=(\d+)", text, re.M)
    assert pool, f"{label}: no pool stats line"
    got = int(pool.group(1))
    assert got == log_len, f"{label}: log={got}, expected {log_len}"
    w1 = re.search(
        r"^worker 1\s+gen=(\d+) applied=(\d+).*respawn-replayed=(\d+)", text, re.M)
    assert w1, f"{label}: no worker 1 stats line"
    gen, applied, replayed = map(int, w1.groups())
    assert gen == 1, f"{label}: worker 1 was not respawned (gen={gen})"
    assert applied == log_len, f"{label}: worker 1 applied {applied}/{log_len}"
    # Bounded recovery: the tail above the newest checkpoint is < 4 at the
    # crash, plus at most a few writes sequenced before supervision ran.
    assert replayed <= 8, \
        f"{label}: respawn replayed {replayed} entries — checkpoint not used"
    return replayed

r1 = check(sys.argv[1], "run1", 22)
r2 = check(sys.argv[2], "run2", 42)
print(f"  run1: respawn replayed {r1}/22; "
      f"run2 resumed at base 20, respawn replayed {r2}/42")
' "$snap_dir/run1" "$snap_dir/run2"
rm -rf "$snap_dir"

echo "OK: build, tests, fmt, clippy, polybench smoke, dep hygiene, metrics + profile + trace + net + stats + snapshot smoke all green (offline)."
