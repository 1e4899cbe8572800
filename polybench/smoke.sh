#!/usr/bin/env bash
# Smoke test: every workload at 1% of its nominal op count, untraced
# and traced, each result line checked against BENCHMARK.json. Run from
# anywhere; takes well under 30 s once the package is built.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root="$(pwd)"
cargo build --release --offline --quiet --manifest-path polybench/Cargo.toml
bin="${CARGO_TARGET_DIR:-polybench/target}/release/polybench"

declare -A ops=([wire_views]=220 [write_churn]=800 [adhoc_compile]=1450 [extent_storm]=750)
start=$SECONDS
for w in wire_views write_churn adhoc_compile extent_storm; do
  for trace in 0 1; do
    line="$("$bin" --workload "$w" --seed 1 --ops "${ops[$w]}" --trace "$trace" | tail -n 1)"
    python3 - "$root/BENCHMARK.json" "$trace" "$line" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
section = "per_layer" if sys.argv[2] == "1" else "end_to_end"
result = json.loads(sys.argv[3])
assert list(result) == ["correct", "attempted", "failed", "metrics"], list(result)
assert result["correct"] is True and result["failed"] == 0, result
assert result["attempted"] >= 1
want = [(m["name"], m["unit"]) for m in spec[section]]
got = [(k, v["unit"]) for k, v in result["metrics"].items()]
assert got == want, (got, want)
assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
EOF
    echo "ok  $w trace=$trace"
  done
done
echo "smoke passed in $((SECONDS - start)) s"
