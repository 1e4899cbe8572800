//! The metric catalogue and how each metric is computed from a run.
//! `BENCHMARK.json` lists the same names and units; a test holds the two
//! together.

use crate::measure::{hist_quantile, mean, median, quantile, Dump};
use crate::run::{self, Budget, Plan, Probe, Segment, SpanRec};
use crate::workload::Workload;

/// Metrics of an untraced run: what a user of the system sees. Every
/// timing is at reference speed (see `speed`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a traced run, one or more per layer. The first is the
/// client's write tail, which is reported rather than gated: on
/// `wire_views` about 1% of writes take a millisecond rather than tens of
/// microseconds, and the 99th percentile, at the edge of that group,
/// spreads too widely from run to run for a bound.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("client.write_p99_us", "us"),
    ("net.read_to_decode_p50_ns", "ns"),
    ("net.overhead_mean_us", "us"),
    ("net.busy_retries_per_kop", "1/kop"),
    ("pool.classify_p50_ns", "ns"),
    ("pool.queue_wait_p50_ns", "ns"),
    ("pool.queue_wait_p99_ns", "ns"),
    ("pool.catchup_p50_ns", "ns"),
    ("pool.catchup_p99_ns", "ns"),
    ("pool.e2e_read_p50_ns", "ns"),
    ("pool.e2e_read_p99_ns", "ns"),
    ("pool.e2e_write_p50_ns", "ns"),
    ("pool.e2e_write_p99_ns", "ns"),
    ("pool.rejected_full_per_kop", "1/kop"),
    ("pool.checkpoints", "count"),
    ("pool.log_len", "count"),
    ("core.stmt_cache_hit_ratio", "ratio"),
    ("core.dep_invalidations_per_kop", "1/kop"),
    ("core.prepare_p50_ns", "ns"),
    ("core.snapshot_bytes", "bytes"),
    ("core.snapshot_ms", "ms"),
    ("parser.parse_p50_ns", "ns"),
    ("parser.tokens_per_op", "1/op"),
    ("parser.nodes_per_op", "1/op"),
    ("types.infer_self_p50_ns", "ns"),
    ("types.unify_steps_per_op", "1/op"),
    ("types.kind_merges_per_op", "1/op"),
    ("types.instantiations_per_op", "1/op"),
    ("trans.lower_self_p50_ns", "ns"),
    ("trans.offsets_resolved_per_op", "1/op"),
    ("trans.dynamic_residue_per_op", "1/op"),
    ("eval.run_p50_ns", "ns"),
    ("eval.fuel_per_op", "1/op"),
    ("eval.records_per_op", "1/op"),
    ("eval.sets_per_op", "1/op"),
    ("eval.dyn_field_fallbacks_per_op", "1/op"),
    ("eval.store_slots_per_op", "1/op"),
    ("phase.parse_p50_ns", "ns"),
    ("phase.infer_p50_ns", "ns"),
    ("phase.lower_p50_ns", "ns"),
    ("phase.eval_p50_ns", "ns"),
    ("phase.eval_p99_ns", "ns"),
    ("obs.trace_overhead_pct", "%"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Untraced and traced segments a traced run alternates, in pairs whose
/// order flips from one pair to the next, so that neither side always
/// runs first.
const PAIRS: usize = 4;

/// A finished run: correctness tallies, the metrics by catalogue name,
/// the sample counts behind them, the machine's median slowness, and
/// (traced) the harness spans.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub samples: Vec<(&'static str, u64)>,
    pub slowness: f64,
    pub spans: Vec<SpanRec>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Run `workload`. Untraced: one segment with `SETUP_REPS` set-ups.
/// Traced: `PAIRS` pairs of an untraced and a traced segment on fresh
/// systems, each an equal part of the budget; then the layer probe, and
/// for the in-process workloads a probe of the same sources over the
/// wire for the net and pool layers.
pub fn run(
    workload: Workload,
    seed: u64,
    budget: Budget,
    traced: bool,
) -> Result<RunResult, String> {
    if !traced {
        let seg = run::segment(&Plan::new(workload, seed, budget, false), SETUP_REPS)?;
        let w = Windows::of(&[&seg]);
        let mut r = tallies(&[&seg]);
        r.metrics = named(
            &END_TO_END,
            vec![
                median(&seg.setup_s),
                w.throughput(),
                w.latency_us(false, 0.50),
                w.latency_us(false, 0.99),
                w.latency_us(true, 0.50),
                seg.peak_rss_mb,
            ],
        );
        r.samples = vec![
            ("setups", seg.setup_s.len() as u64),
            ("reads", seg.latencies(false).len() as u64),
            ("writes", seg.latencies(true).len() as u64),
            ("windows", w.rates.len() as u64),
        ];
        r.slowness = seg.slowness();
        return Ok(r);
    }
    let part = budget.part(2 * PAIRS);
    let mut segs = [Vec::new(), Vec::new()];
    for pair in 0..PAIRS {
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for t in order {
            segs[usize::from(t)].push(run::segment(&Plan::new(workload, seed, part, t), 1)?);
        }
    }
    let probe = run::probe_layers(workload, seed)?;
    let wire_probe = if workload.over_wire() {
        None
    } else {
        let plan = Plan::new(workload, seed, Budget::Ops(run::PROBE_OPS), true);
        Some(run::wire_segment(&plan, 1)?)
    };
    let plain: Vec<&Segment> = segs[0].iter().collect();
    let traced: Vec<&Segment> = segs[1].iter().collect();
    let wire: Vec<&Segment> = match &wire_probe {
        Some(w) => vec![w],
        None => traced.clone(),
    };
    let mut counted: Vec<&Segment> = plain.iter().chain(&traced).copied().collect();
    counted.extend(wire_probe.as_ref());
    let mut r = tallies(&counted);
    r.attempted += probe.attempted;
    r.failed += probe.failed;
    if r.first_failure.is_none() {
        r.first_failure = probe.first_failure.clone();
    }
    let rate = |s: &Segment| Windows::of(&[s]).mean_rate();
    let overhead: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(p, t)| 100.0 * (rate(p) - rate(t)) / rate(p).max(1e-9))
        .collect();
    let mut values = vec![Windows::of(&plain).latency_us(true, 0.99)];
    values.extend(per_layer(&traced, &wire, &probe, workload.over_wire()));
    values.push(median(&overhead));
    r.metrics = named(&PER_LAYER, values);
    r.samples = vec![
        ("traced_ops", traced.iter().map(|s| s.timed_ops()).sum()),
        ("plain_ops", plain.iter().map(|s| s.timed_ops()).sum()),
        ("wire_ops", wire.iter().map(|s| s.timed_ops()).sum()),
        ("probe_ops", probe.attempted),
        ("pairs", PAIRS as u64),
    ];
    r.slowness = slowness(&traced);
    for (k, seg) in traced.iter().enumerate() {
        for (c, log) in seg.logs.iter().enumerate() {
            r.spans
                .extend(log.samples.iter().enumerate().map(|(i, s)| SpanRec {
                    name: if s.write { "op.write" } else { "op.read" },
                    trace: (k as u64) << 40 | (c as u64) << 32 | i as u64,
                    start_ns: s.at_ns,
                    dur_ns: s.ns,
                    retries: u64::from(s.retries),
                }));
        }
    }
    r.spans.extend(probe.spans);
    Ok(r)
}

fn tallies(segs: &[&Segment]) -> RunResult {
    let mut r = RunResult::default();
    for s in segs {
        r.attempted += s.attempted();
        r.failed += s.failed();
        if r.first_failure.is_none() {
            r.first_failure = s.first_failure().map(str::to_string);
        }
    }
    r
}

fn named(
    catalogue: &[(&'static str, &'static str)],
    values: Vec<f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    assert_eq!(
        catalogue.len(),
        values.len(),
        "one value per catalogued metric"
    );
    catalogue
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, if v.is_finite() { v } else { 0.0 }))
        .collect()
}

/// Median slowness over every kernel run of `segs`.
fn slowness(segs: &[&Segment]) -> f64 {
    let v: Vec<f64> = segs
        .iter()
        .flat_map(|s| s.ticks())
        .map(|t| t.slowness)
        .collect();
    median(&v)
}

/// Each timed phase is cut into equal windows of about this many seconds
/// of wall time. Throughput is the median over windows, so interference
/// from outside the benchmark that lasts a moment moves one window, not
/// the run.
const WINDOW_S: f64 = 1.0;

/// A timed phase at reference speed: each window's time, and each op's
/// latency, divided by the median slowness of the kernel runs in that
/// window.
#[derive(Default)]
struct Windows {
    /// Completed ops per second of each window, pauses for the kernel
    /// excluded.
    rates: Vec<f64>,
    reads: Vec<u64>,
    writes: Vec<u64>,
    ops: u64,
    busy_ns: f64,
}

impl Windows {
    fn of(segs: &[&Segment]) -> Windows {
        let mut w = Windows::default();
        for seg in segs {
            w.add(seg);
        }
        w
    }

    fn add(&mut self, seg: &Segment) {
        let from = seg.logs.iter().map(|l| l.timed_from_ns).min().unwrap_or(0);
        let to = seg
            .logs
            .iter()
            .map(|l| l.timed_from_ns + l.timed_ns)
            .max()
            .unwrap_or(0);
        let span = to.saturating_sub(from);
        let count = ((span as f64 / 1e9 / WINDOW_S).round() as usize).max(1);
        let width = (span / count as u64).max(1);
        let index = |at_ns: u64| ((at_ns.saturating_sub(from) / width) as usize).min(count - 1);
        let mut slow = vec![Vec::new(); count];
        let mut paused = vec![0u64; count];
        for t in seg.ticks() {
            let i = index(t.at_ns);
            slow[i].push(t.slowness);
            paused[i] += t.pause_ns;
        }
        let whole = seg.slowness();
        let slow: Vec<f64> = slow
            .iter()
            .map(|v| if v.is_empty() { whole } else { median(v) })
            .collect();
        let mut ops = vec![0u64; count];
        for s in seg.logs.iter().flat_map(|l| l.samples.iter()) {
            let i = index(s.at_ns);
            ops[i] += 1;
            let ns = (s.ns as f64 / slow[i]).round() as u64;
            if s.write {
                self.writes.push(ns);
            } else {
                self.reads.push(ns);
            }
        }
        for i in 0..count {
            let busy = width.saturating_sub(paused[i]).max(1) as f64 / slow[i];
            self.ops += ops[i];
            self.busy_ns += busy;
            if ops[i] > 0 {
                self.rates.push(ops[i] as f64 * 1e9 / busy);
            }
        }
    }

    /// Median over windows of completed ops per second.
    fn throughput(&self) -> f64 {
        median(&self.rates)
    }

    /// Completed ops per second over the whole of every window.
    fn mean_rate(&self) -> f64 {
        self.ops as f64 * 1e9 / self.busy_ns.max(1.0)
    }

    /// `q`-quantile latency of the reads or writes, in microseconds.
    fn latency_us(&self, write: bool, q: f64) -> f64 {
        quantile(if write { &self.writes } else { &self.reads }, q) / 1e3
    }
}

/// Values in `PER_LAYER` order, less the first and the last. Engine counters and phase histograms come
/// from the traced segments `traced`; net and pool figures from `wire`
/// (the traced segments themselves on the wire workloads). Store growth
/// and the snapshot come from the workload's own engine when it runs
/// in-process, else from the probe's. Times are at reference speed:
/// divided by the median slowness of the segments they come from, or by
/// the probe's.
fn per_layer(traced: &[&Segment], wire: &[&Segment], probe: &Probe, over_wire: bool) -> Vec<f64> {
    let sum = |segs: &[&Segment]| {
        let mut d = Dump::default();
        for s in segs {
            d.add(&s.after.since(&s.before));
        }
        d
    };
    let (work, wire_work) = (sum(traced), sum(wire));
    let slow = slowness(traced);
    let wire_slow = slowness(wire);
    let p_slow = probe.slowness;
    let ops = traced.iter().map(|s| s.timed_ops()).sum::<u64>().max(1) as f64;
    let per_op = |name: &str| work.counter(name) as f64 / ops;
    let phase = |name: &str, q: f64| hist_quantile(&work.hist(name), q) / slow;
    let wire_ops = wire.iter().map(|s| s.timed_ops()).sum::<u64>().max(1) as f64;
    let wire_hist = |name: &str, q: f64| hist_quantile(&wire_work.hist(name), q) / wire_slow;
    let wire_per_kop = |name: &str| wire_work.counter(name) as f64 * 1e3 / wire_ops;
    let hits = per_op("engine.stmt_cache_hits");
    let misses = per_op("engine.stmt_cache_misses");
    let last = traced.last().expect("a traced segment");
    let (store_slots, (snapshot_bytes, snapshot_ms)) = if over_wire {
        (
            probe.store_slots as f64 / probe.attempted.max(1) as f64,
            (probe.snapshot.0, probe.snapshot.1 / p_slow),
        )
    } else {
        let (bytes, ms) = last.snapshot.unwrap_or_default();
        (
            traced.iter().map(|s| s.store_slots).sum::<u64>() as f64 / ops,
            (bytes, ms / slow),
        )
    };
    let busy: u64 = wire
        .iter()
        .flat_map(|s| s.logs.iter())
        .map(|l| l.busy_retries)
        .sum();
    let wire_attempted: u64 = wire.iter().map(|s| s.attempted()).sum();
    let wire_reads: Vec<u64> = wire.iter().flat_map(|s| s.latencies(false)).collect();
    let pool_read = wire_work.hist("pool.e2e_read_ns");
    let classify: Vec<u64> = wire.iter().flat_map(|s| s.classify_ns.clone()).collect();
    let probe_p50 = |v: &[u64]| quantile(v, 0.50) / p_slow;
    vec![
        wire_hist("net.read_to_decode_ns", 0.50),
        (mean(&wire_reads) - pool_read.sum as f64 / pool_read.count.max(1) as f64)
            / 1e3
            / wire_slow,
        busy as f64 * 1e3 / wire_attempted.max(1) as f64,
        quantile(&classify, 0.50) / wire_slow,
        wire_hist("pool.queue_wait_ns", 0.50),
        wire_hist("pool.queue_wait_ns", 0.99),
        wire_hist("pool.catchup_ns", 0.50),
        wire_hist("pool.catchup_ns", 0.99),
        wire_hist("pool.e2e_read_ns", 0.50),
        wire_hist("pool.e2e_read_ns", 0.99),
        wire_hist("pool.e2e_write_ns", 0.50),
        wire_hist("pool.e2e_write_ns", 0.99),
        wire_per_kop("pool.rejected_full"),
        wire_work.counter("pool.checkpoints") as f64,
        wire.last().map_or(0, |s| s.after.counter("pool.log_len")) as f64,
        hits / (hits + misses).max(f64::MIN_POSITIVE),
        per_op("engine.stmt_cache_dep_invalidations") * 1e3,
        probe_p50(&probe.prepare_ns),
        snapshot_bytes as f64,
        snapshot_ms,
        probe_p50(&probe.parse_ns),
        per_op("parser.tokens_lexed"),
        per_op("parser.nodes_parsed"),
        probe_p50(&probe.infer_self_ns),
        per_op("types.unify_steps"),
        per_op("types.kind_merges"),
        per_op("types.instantiations"),
        probe_p50(&probe.lower_self_ns),
        per_op("trans.offsets_resolved"),
        per_op("trans.dynamic_residue"),
        probe_p50(&probe.run_ns),
        per_op("eval.fuel_consumed"),
        per_op("eval.records_allocated"),
        per_op("eval.sets_allocated"),
        per_op("eval.dyn_field_fallbacks"),
        store_slots,
        phase("phase.parse_ns", 0.50),
        phase("phase.infer_ns", 0.50),
        phase("phase.lower_ns", 0.50),
        phase("phase.eval_ns", 0.50),
        phase("phase.eval_ns", 0.99),
    ]
}
