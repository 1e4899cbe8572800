//! Sliding-window views over cumulative registries.
//!
//! Every metric in this crate is cumulative-since-boot by design: counters
//! only go up, histograms only accumulate. That is the right *storage*
//! discipline (no data is ever thrown away, and the hot path stays an
//! increment), but an operator of a long-running server asks windowed
//! questions — "what is the p99 *right now*", "how many requests per
//! second over the last few seconds". This module answers them without
//! touching the write side at all:
//!
//! * [`RegistrySnapshot`] — a point-in-time copy of a
//!   [`crate::Registry`]'s values, stamped with a caller-supplied
//!   timestamp ([`crate::Registry::snapshot`]).
//! * [`SnapshotRing`] — a bounded ring of snapshots taken at (roughly)
//!   regular intervals. Pushing evicts the oldest; the ring is the only
//!   state windowing adds.
//! * [`WindowView`] — the delta between the ring's oldest and newest
//!   snapshots: counter deltas with [`WindowView::rate_per_sec`], and
//!   histogram deltas ([`HistogramSnapshot::delta`]) whose
//!   `quantile`/`mean` answer for the window alone.
//!
//! Windowing is entirely **reader-driven**: nothing here reads a clock or
//! spawns a thread. The owner of a ring decides when to tick (and stamps
//! the snapshot with a time it read itself), so a layer with windowing
//! disabled performs zero clock reads — provable with
//! [`crate::ManualClock::reads`] — and under a manual clock the
//! whole view is deterministic.

use crate::jsonl::ObjectBuilder;
use crate::metrics::HistogramSnapshot;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// A point-in-time copy of a registry's metrics, stamped with the
/// caller-supplied capture time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// When the snapshot was taken (caller's clock, nanoseconds).
    pub at_ns: u64,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Render the snapshot as JSON lines, every name behind `prefix`:
    /// exactly one JSON object per line — counters first, then gauges,
    /// then histograms, each sorted by name. Every metrics export in the
    /// workspace is this rendering.
    ///
    /// ```text
    /// {"kind":"counter","name":"engine.parses","value":3}
    /// {"kind":"gauge","name":"pool.worker0.queue_depth","value":2}
    /// {"kind":"histogram","name":"phase.parse_ns","count":2,"sum":700,"min":300,"max":400,"buckets":[[9,2]]}
    /// ```
    ///
    /// Bucket entries are `[index, count]` pairs where index `i` covers
    /// values in `[2^(i-1), 2^i)` (index 0 is the value 0).
    pub fn to_json_lines(&self, prefix: &str) -> String {
        let mut out = String::new();
        let mut line = |b: ObjectBuilder| {
            out.push_str(&b.finish());
            out.push('\n');
        };
        let metric = |kind: &str, name: &str| {
            ObjectBuilder::new()
                .field_str("kind", kind)
                .field_str("name", &format!("{prefix}{name}"))
        };
        for (kind, values) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for (name, &v) in values {
                line(metric(kind, name).field_u64("value", v));
            }
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(i, c)| format!("[{i},{c}]"))
                .collect();
            line(
                metric("histogram", name)
                    .field_u64("count", h.count)
                    .field_u64("sum", h.sum)
                    .field_u64("min", if h.count == 0 { 0 } else { h.min })
                    .field_u64("max", h.max)
                    .field_raw("buckets", &format!("[{}]", buckets.join(","))),
            );
        }
        out
    }
}

/// A bounded ring of [`RegistrySnapshot`]s: push evicts the oldest once
/// `capacity` is reached, so the window it describes spans at most
/// `capacity − 1` intervals.
#[derive(Debug)]
pub struct SnapshotRing {
    capacity: usize,
    ring: VecDeque<RegistrySnapshot>,
}

impl SnapshotRing {
    /// A ring holding at most `capacity` snapshots (clamped to ≥ 2 — a
    /// window needs two endpoints).
    pub fn new(capacity: usize) -> Self {
        SnapshotRing {
            capacity: capacity.max(2),
            ring: VecDeque::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Append a snapshot, evicting the oldest at capacity.
    pub fn push(&mut self, snap: RegistrySnapshot) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(snap);
    }

    pub fn oldest(&self) -> Option<&RegistrySnapshot> {
        self.ring.front()
    }

    pub fn newest(&self) -> Option<&RegistrySnapshot> {
        self.ring.back()
    }

    /// The window between the oldest and newest snapshots, or `None` until
    /// two snapshots exist (one endpoint is not a window).
    pub fn window(&self) -> Option<WindowView> {
        if self.ring.len() < 2 {
            return None;
        }
        Some(WindowView::between(
            self.ring.front().expect("len >= 2"),
            self.ring.back().expect("len >= 2"),
        ))
    }
}

/// The delta between two snapshots of the same registry: what happened
/// *during* the window, derived purely from cumulative values.
///
/// Counters are `saturating_sub` deltas (a counter that went backwards —
/// reset, respawn — clamps to 0). Gauges are levels, not rates, so the
/// view keeps the **newest** level. Histograms are
/// [`HistogramSnapshot::delta`]s, so `quantile` on them answers for the
/// window alone.
#[derive(Clone, Debug, Default)]
pub struct WindowView {
    pub from_ns: u64,
    pub to_ns: u64,
    /// Per-counter increase over the window.
    pub counters: BTreeMap<String, u64>,
    /// Latest level of each gauge (a gauge has no meaningful delta).
    pub gauges: BTreeMap<String, u64>,
    /// Per-histogram windowed observations.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl WindowView {
    /// The delta from `earlier` to `later`. Metrics minted after `earlier`
    /// was taken contribute their full cumulative value (their implicit
    /// earlier value is 0).
    pub fn between(earlier: &RegistrySnapshot, later: &RegistrySnapshot) -> WindowView {
        WindowView {
            from_ns: earlier.at_ns,
            to_ns: later.at_ns,
            counters: later
                .counters
                .iter()
                .map(|(n, &v)| {
                    let before = earlier.counters.get(n).copied().unwrap_or(0);
                    (n.clone(), v.saturating_sub(before))
                })
                .collect(),
            gauges: later.gauges.clone(),
            histograms: later
                .histograms
                .iter()
                .map(|(n, h)| {
                    let d = match earlier.histograms.get(n) {
                        Some(before) => h.delta(before),
                        None => h.clone(),
                    };
                    (n.clone(), d)
                })
                .collect(),
        }
    }

    /// Window length in nanoseconds (0 if the clock stood still or went
    /// backwards).
    pub fn span_ns(&self) -> u64 {
        self.to_ns.saturating_sub(self.from_ns)
    }

    /// A counter's increase over the window (0 if absent).
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A counter's windowed rate in events per second — the delta divided
    /// by the window span. 0.0 for a zero-length window (rates need time).
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        let span = self.span_ns();
        if span == 0 {
            return 0.0;
        }
        self.counter_delta(name) as f64 * 1e9 / span as f64
    }

    /// A histogram's windowed `q`-quantile (0 if absent or empty in the
    /// window) — [`HistogramSnapshot::quantile`] over the delta.
    pub fn quantile(&self, name: &str, q: f64) -> u64 {
        self.histograms
            .get(name)
            .map(|h| h.quantile(q))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let mut ring = SnapshotRing::new(3);
        assert!(ring.window().is_none(), "no window from an empty ring");
        for t in 0..5u64 {
            ring.push(RegistrySnapshot {
                at_ns: t,
                ..Default::default()
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.oldest().unwrap().at_ns, 2);
        assert_eq!(ring.newest().unwrap().at_ns, 4);
        let w = ring.window().unwrap();
        assert_eq!((w.from_ns, w.to_ns), (2, 4));
        assert_eq!(w.span_ns(), 2);
    }

    #[test]
    fn ring_capacity_clamps_to_two() {
        let ring = SnapshotRing::new(0);
        assert_eq!(ring.capacity(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn window_rates_and_quantiles_are_deterministic_deltas() {
        let reg = Registry::new();
        let c = reg.counter("req");
        let h = reg.histogram("lat");
        c.add(10);
        h.observe(1);
        let mut ring = SnapshotRing::new(8);
        ring.push(reg.snapshot(1_000_000_000));
        assert!(ring.window().is_none(), "one snapshot is not a window");

        c.add(30);
        for _ in 0..4 {
            h.observe(100); // bucket 7, upper bound 127
        }
        reg.gauge("depth").set(9);
        ring.push(reg.snapshot(3_000_000_000));

        let w = ring.window().unwrap();
        assert_eq!(w.counter_delta("req"), 30, "cumulative 40 minus 10");
        assert_eq!(w.rate_per_sec("req"), 15.0, "30 events over 2 seconds");
        assert_eq!(w.quantile("lat", 0.5), 100, "window sees only the 100s");
        assert_eq!(w.gauges.get("depth"), Some(&9), "gauges report the level");
        assert_eq!(w.counter_delta("absent"), 0);
        assert_eq!(w.rate_per_sec("absent"), 0.0);
        assert_eq!(w.quantile("absent", 0.99), 0);
    }

    #[test]
    fn window_handles_metrics_minted_mid_window() {
        let reg = Registry::new();
        reg.counter("old").add(5);
        let earlier = reg.snapshot(0);
        reg.counter("new").add(7);
        reg.histogram("h2").observe(3);
        let later = reg.snapshot(1_000_000_000);
        let w = WindowView::between(&earlier, &later);
        assert_eq!(w.counter_delta("new"), 7, "implicit earlier value is 0");
        assert_eq!(w.quantile("h2", 0.5), 3);
        assert_eq!(w.counter_delta("old"), 0);
    }

    #[test]
    fn zero_span_window_has_zero_rates() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        let a = reg.snapshot(5);
        reg.counter("c").add(3);
        let b = reg.snapshot(5);
        let w = WindowView::between(&a, &b);
        assert_eq!(w.counter_delta("c"), 3);
        assert_eq!(w.rate_per_sec("c"), 0.0, "no time elapsed, no rate");
    }

    #[test]
    fn snapshotting_never_reads_a_clock() {
        use crate::{Clock, ManualClock};
        let clock = ManualClock::new();
        let reg = Registry::new();
        reg.counter("c").inc();
        // The caller stamps the time: the snapshot itself takes whatever
        // it is handed and performs no reads of its own.
        let t = clock.now_ns();
        let _ = reg.snapshot(t);
        let _ = reg.snapshot(t);
        assert_eq!(clock.reads(), 1, "only the caller's explicit read");
    }
}
