//! A metrics registry: named monotone counters, settable gauges, and
//! log2-bucketed histograms, with a JSON-lines export.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared with
//! the registry and updated with relaxed atomics, so one vocabulary serves
//! the single-threaded engine and the multi-threaded pool and front door
//! alike. A hot path resolves its metric once at construction time and
//! then pays an atomic update per event — no string hashing, no lock. The
//! registry's mutex is taken only to resolve a handle or to export.
//!
//! Cost: an atomic counter bump is ~10 ns and a histogram observation
//! ~40 ns, so an uncompiled engine statement (about 8 counter bumps and 4
//! histogram observations) pays roughly 0.25 µs for its metrics — a few
//! percent of the cheapest statement the benchmark gates.
//!
//! Consistency note: a [`Histogram`] observation updates five atomics
//! without a lock, so a concurrent snapshot is *monotone* (every recorded
//! field is a value that existed) but not a consistent cut; under
//! quiescence — barriers, test assertions — it is exact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, and bucket 64 holds the top of the
/// `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The log2 bucket index of a value.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of a bucket (for rendering).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of a bucket: the largest value the bucket can
/// hold. Bucket 0 holds only 0; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`, so
/// its upper bound is `2^i - 1`; bucket 64 tops out at `u64::MAX`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A named monotone counter. Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named settable gauge: a point-in-time level (queue depth, replay
/// lag), not a monotone tally. Cloning shares the underlying atomic. In
/// the JSON-lines export a gauge carries `"kind":"gauge"`, so dashboards
/// can tell levels from rates without name conventions.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Saturating decrement: a gauge never wraps below zero.
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramData {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramData {
    fn default() -> Self {
        HistogramData {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}
/// An immutable view of a histogram's state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Meaningless (`u64::MAX`) when `count == 0`.
    pub min: u64,
    pub max: u64,
    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets.
    ///
    /// Walks the buckets until the cumulative count reaches `⌈q·count⌉`
    /// observations and reports that bucket's **upper bound**
    /// ([`bucket_upper_bound`]) — a conservative (over-)estimate with at
    /// most 2× error, which is exactly the resolution the buckets store.
    /// Refinements: an empty histogram reports 0, and the top bucket
    /// reports the true recorded maximum instead of its bound (so p99 of a
    /// histogram never exceeds the largest value ever observed).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let mut last = 0usize;
        for &(i, c) in &self.buckets {
            seen += c;
            last = i;
            if seen >= target {
                break;
            }
        }
        bucket_upper_bound(last).min(self.max)
    }

    /// The observations recorded in `self` but not yet in `earlier` — the
    /// windowed view of a cumulative histogram, given two snapshots of it.
    ///
    /// Every field is a `saturating_sub` per bucket: when a counter has
    /// gone *backwards* between the snapshots (a pool worker respawned and
    /// its generation bump reset per-worker tallies, or the two snapshots
    /// raced a [`Registry::reset`]), the delta clamps to zero instead of
    /// wrapping — a window quantile can report "no data", never a
    /// 2^64-flavoured garbage latency. `count` is recomputed as the sum of
    /// the per-bucket deltas (not `count − count`), so [`Self::quantile`]
    /// on the delta is always internally consistent with its buckets.
    ///
    /// `min`/`max` of a window are not recoverable from cumulative
    /// extremes, so they are re-derived from the delta buckets: `min` is
    /// the lower bound of the lowest non-empty delta bucket, `max` the
    /// upper bound of the highest — clamped to the cumulative `max`, which
    /// bounds every observation the window can contain.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut prev = earlier.buckets.iter().copied().peekable();
        let mut buckets: Vec<(usize, u64)> = Vec::new();
        for &(i, c) in &self.buckets {
            let mut before = 0u64;
            while let Some(&(pi, pc)) = prev.peek() {
                if pi < i {
                    prev.next();
                } else {
                    if pi == i {
                        before = pc;
                        prev.next();
                    }
                    break;
                }
            }
            let d = c.saturating_sub(before);
            if d > 0 {
                buckets.push((i, d));
            }
        }
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        if count == 0 {
            return HistogramSnapshot::default();
        }
        HistogramSnapshot {
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min: bucket_lower_bound(buckets.first().expect("non-empty").0),
            max: bucket_upper_bound(buckets.last().expect("non-empty").0).min(self.max),
            buckets,
        }
    }
}

/// A log2-bucketed histogram for latencies and sizes. Cloning shares the
/// underlying data.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramData>);

impl Histogram {
    pub fn observe(&self, v: u64) {
        let h = &self.0;
        h.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: `fetch_add` would wrap a sum of huge observations.
        let _ = h
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.0;
        HistogramSnapshot {
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            min: h.min.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then_some((i, c))
                })
                .collect(),
        }
    }

    fn reset(&self) {
        let h = &self.0;
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.min.store(u64::MAX, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// `counter`/`gauge`/`histogram` are get-or-create: the first call mints
/// the metric, later calls (and clones of the returned handle) share it.
/// [`Registry::reset`] zeroes every metric *in place*, so handles resolved
/// before the reset keep working. The maps sit behind one mutex, taken
/// only when resolving a handle or exporting — never per observation.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryMaps>,
}

#[derive(Debug, Default)]
struct RegistryMaps {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryMaps> {
        // Poison-tolerant: metric maps are only ever inserted into, so a
        // panic mid-insert leaves them structurally sound.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn counter(&self, name: &str) -> Counter {
        self.lock()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.lock()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Current value of a counter (0 if it was never created).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Current value of a gauge (0 if it was never created).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.lock().gauges.get(name).map(|g| g.get()).unwrap_or(0)
    }

    /// Zero every counter, gauge, and histogram, keeping existing handles
    /// live.
    pub fn reset(&self) {
        let maps = self.lock();
        for c in maps.counters.values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in maps.gauges.values() {
            g.set(0);
        }
        for h in maps.histograms.values() {
            h.reset();
        }
    }

    /// Capture every metric's current value into a point-in-time
    /// [`crate::window::RegistrySnapshot`] stamped `at_ns`.
    ///
    /// The timestamp is **caller-supplied**, not read from a clock here:
    /// windowing is a reader-side view, and a layer that never ticks its
    /// window must be able to prove it performs zero clock reads (the
    /// [`crate::ManualClock::reads`] discipline).
    pub fn snapshot(&self, at_ns: u64) -> crate::window::RegistrySnapshot {
        let maps = self.lock();
        crate::window::RegistrySnapshot {
            at_ns,
            counters: maps
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: maps
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: maps
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Export the registry as JSON lines: one
    /// [`crate::window::RegistrySnapshot::to_json_lines`] rendering of its
    /// current values, unprefixed.
    pub fn to_json_lines(&self) -> String {
        self.snapshot(0).to_json_lines("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(11), 1024);
    }

    #[test]
    fn counters_share_state_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter_value("x"), 3);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn handles_share_state_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("x");
        let g = reg.gauge("d");
        let h = reg.histogram("h");
        let (c2, g2, h2) = (c.clone(), g.clone(), h.clone());
        std::thread::scope(|s| {
            s.spawn(|| {
                c2.add(2);
                g2.add(5);
                h2.observe(9);
            });
        });
        c.inc();
        g.sub(2);
        h.observe(1);
        assert_eq!(reg.counter_value("x"), 3);
        assert_eq!(reg.gauge_value("d"), 3);
        assert_eq!(h.snapshot().buckets, vec![(1, 1), (4, 1)]);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for v in [0, 1, 5, 5, 300] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 311);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 300);
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (3, 2), (9, 1)]);
        assert_eq!(s.mean(), 62);
    }

    #[test]
    fn reset_zeroes_in_place_and_keeps_handles() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        c.add(7);
        h.observe(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(reg.counter_value("c"), 1);
    }

    #[test]
    fn json_lines_are_one_object_per_line() {
        let reg = Registry::new();
        reg.counter("b.count").add(2);
        reg.counter("a.count").inc();
        reg.histogram("h").observe(3);
        let out = reg.to_json_lines();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        // Counters sorted by name, then histograms.
        assert_eq!(
            lines[0],
            "{\"kind\":\"counter\",\"name\":\"a.count\",\"value\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"kind\":\"counter\",\"name\":\"b.count\",\"value\":2}"
        );
        assert_eq!(
            lines[2],
            "{\"kind\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":3,\"min\":3,\"max\":3,\"buckets\":[[2,1]]}"
        );
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn quantile_estimates_bucket_upper_bounds() {
        let h = Histogram::default();
        // 10 observations: 0, 1, 3, 3, 5, 9, 17, 33, 100, 1000.
        // Buckets: 0→[0], 1→[1], 2→[3,3], 3→[5], 4→[9], 5→[17], 6→[33],
        // 7→[100], 10→[1000].
        for v in [0, 1, 3, 3, 5, 9, 17, 33, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        // p50 → 5th observation → bucket 3 (values 4..=7) → upper bound 7.
        assert_eq!(s.quantile(0.5), 7);
        // p90 → 9th observation → bucket 7 (values 64..=127) → 127.
        assert_eq!(s.quantile(0.9), 127);
        // p99 → 10th observation → bucket 10, but the recorded max (1000)
        // is tighter than the bucket bound (1023).
        assert_eq!(s.quantile(0.99), 1000);
        // p0 clamps to the first observation's bucket.
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 1000);
        // Empty histogram → 0.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        // A single observation answers every quantile with (at most) its
        // own bucket bound clamped to itself.
        let one = Histogram::default();
        one.observe(6);
        assert_eq!(one.snapshot().quantile(0.5), 6);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile (including the bounds) reports 0.
        let empty = HistogramSnapshot::default();
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), 0);
        }

        // Single sample: every quantile collapses onto that sample
        // (bucket upper bound clamped by the recorded max).
        let one = Histogram::default();
        one.observe(42); // bucket 6 (33..=64), bound 63, max 42
        let s = one.snapshot();
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 42, "q={q}");
        }

        // All mass in the top (saturation) bucket: the bucket bound is
        // u64::MAX, and the recorded-max clamp keeps the estimate honest.
        let top = Histogram::default();
        for _ in 0..3 {
            top.observe(u64::MAX);
        }
        let s = top.snapshot();
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(s.quantile(0.5), u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX);
        // Saturating values just below the bound land in the same bucket
        // but report their own max, not the bucket's.
        let near = Histogram::default();
        near.observe(u64::MAX - 7);
        assert_eq!(near.snapshot().quantile(0.99), u64::MAX - 7);

        // q = 0.0 and q = 1.0 clamp to the first and last observation.
        let h = Histogram::default();
        h.observe(1);
        h.observe(500);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 1, "q=0 targets the first observation");
        assert_eq!(s.quantile(1.0), 500, "q=1 targets the last observation");
    }

    #[test]
    fn delta_isolates_the_window() {
        let h = Histogram::default();
        for v in [1, 3, 100] {
            h.observe(v);
        }
        let before = h.snapshot();
        for v in [5, 5, 1000] {
            h.observe(v);
        }
        let d = h.snapshot().delta(&before);
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 1010);
        assert_eq!(d.buckets, vec![(3, 2), (10, 1)]);
        // Window quantiles see only the window's observations.
        assert_eq!(d.quantile(0.5), 7); // bucket 3 upper bound
        assert_eq!(d.quantile(1.0), 1000); // clamped by cumulative max
        assert_eq!(d.min, bucket_lower_bound(3));
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty() {
        let h = Histogram::default();
        h.observe(7);
        let s = h.snapshot();
        let d = s.delta(&s);
        assert_eq!(d, HistogramSnapshot::default());
        assert_eq!(d.quantile(0.99), 0);
    }

    #[test]
    fn delta_saturates_across_counter_resets() {
        // A worker respawn (generation bump) zeroes its per-worker
        // histogram, so the "later" snapshot can be *smaller* than the
        // earlier one. Every diff saturates: quantiles stay in-range
        // (never the 2^64 wraparound), and partially-reset buckets clamp
        // per bucket, not globally.
        let h = Histogram::default();
        for v in [1, 5, 5, 900] {
            h.observe(v);
        }
        let before = h.snapshot();

        // Full reset, fewer observations than before.
        let respawned = Histogram::default();
        respawned.observe(3);
        let d = respawned.snapshot().delta(&before);
        assert_eq!(d.count, 1, "only the post-reset observation survives");
        assert_eq!(d.buckets, vec![(2, 1)]);
        assert!(d.quantile(0.99) <= 3, "quantile never exceeds observed max");
        assert_eq!(d.sum, 0, "sum saturates rather than wrapping");

        // Reset to *empty*: the delta is the empty snapshot, with the
        // empty-snapshot sentinels (min = u64::MAX, max = 0) intact.
        let empty = Histogram::default().snapshot().delta(&before);
        assert_eq!(empty, HistogramSnapshot::default());
        assert_eq!(empty.quantile(0.5), 0);

        // Per-bucket wraparound: one bucket shrank (reset) while another
        // grew; the shrunken bucket contributes 0, the grown one its
        // genuine delta.
        let later = HistogramSnapshot {
            count: 3,
            sum: 30,
            min: 1,
            max: 20,
            buckets: vec![(1, 1), (5, 2)],
        };
        let earlier = HistogramSnapshot {
            count: 4,
            sum: 40,
            min: 1,
            max: 20,
            buckets: vec![(1, 3), (5, 1)],
        };
        let d = later.delta(&earlier);
        assert_eq!(d.buckets, vec![(5, 1)]);
        assert_eq!(d.count, 1, "count is the bucket-delta sum, not count−count");
        assert_eq!(d.quantile(1.0), 20, "clamped to cumulative max");
        assert_eq!(d.min, bucket_lower_bound(5));
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(11), 2047);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn gauges_are_settable_and_export_their_own_kind() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(5);
        g.add(2);
        g.sub(3);
        assert_eq!(g.get(), 4);
        assert_eq!(reg.gauge_value("depth"), 4);
        g.sub(100); // saturates, never wraps
        assert_eq!(g.get(), 0);
        g.set(9);
        reg.counter("c").inc();
        reg.histogram("h").observe(1);
        let out = reg.to_json_lines();
        let lines: Vec<&str> = out.lines().collect();
        // Counters, then gauges, then histograms.
        assert_eq!(
            lines[0],
            "{\"kind\":\"counter\",\"name\":\"c\",\"value\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"kind\":\"gauge\",\"name\":\"depth\",\"value\":9}"
        );
        assert!(lines[2].starts_with("{\"kind\":\"histogram\""));
        reg.reset();
        assert_eq!(g.get(), 0, "reset zeroes gauges in place");
    }

    #[test]
    fn empty_histogram_exports_zero_min() {
        let reg = Registry::new();
        reg.histogram("h");
        let out = reg.to_json_lines();
        assert!(out.contains("\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]"));
    }
}
