//! Reading numbers out of the system and summarising samples: exact
//! quantiles of latency samples, the registries' JSON-lines exports, and
//! the process's peak resident memory.

use polyview::obs::jsonl::{parse_object_line, JsonValue};
use polyview::obs::metrics::{bucket_lower_bound, bucket_upper_bound};
use polyview::obs::HistogramSnapshot;
use std::collections::BTreeMap;

/// Nearest-rank `q`-quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

pub fn mean(samples: &[u64]) -> f64 {
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len().max(1) as f64
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `q`-quantile of a log2-bucketed histogram, interpolated linearly
/// inside the bucket that holds it (the registry's own
/// `HistogramSnapshot::quantile` reports the bucket's upper bound, which
/// cannot show a change smaller than 2x).
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut seen = 0.0;
    for &(i, c) in &h.buckets {
        let c = c as f64;
        if seen + c >= target {
            let lo = bucket_lower_bound(i) as f64;
            let hi = bucket_upper_bound(i) as f64 + 1.0;
            return (lo + (target - seen) / c * (hi - lo)).min(h.max as f64);
        }
        seen += c;
    }
    h.max as f64
}

/// Counters and histograms parsed from `metrics_json` exports.
#[derive(Clone, Debug, Default)]
pub struct Dump {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistogramSnapshot>,
}

impl Dump {
    /// Parse `Engine::metrics_json` or `NetServer::metrics_json` output.
    /// The server's export repeats every replica's registry under a
    /// `workerN.` prefix and also sums the engine counters unprefixed;
    /// the replicas are summed here from their prefixed lines, so of the
    /// unprefixed server lines only `net.*` and `pool.*` are kept.
    pub fn parse(lines: &str, from_server: bool) -> Dump {
        let mut dump = Dump::default();
        for line in lines.lines() {
            let Ok(members) = parse_object_line(line) else {
                continue;
            };
            let Some(raw) = JsonValue::get(&members, "name").and_then(JsonValue::as_str) else {
                continue;
            };
            let name = match strip_worker(raw) {
                Some(rest) => rest,
                None if from_server && !raw.starts_with("net.") && !raw.starts_with("pool.") => {
                    continue
                }
                None => raw,
            };
            let num = |key: &str| JsonValue::get(&members, key).and_then(JsonValue::as_u64);
            if JsonValue::get(&members, "kind").and_then(JsonValue::as_str) == Some("histogram") {
                let buckets = JsonValue::get(&members, "buckets")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|b| {
                        let pair = b.as_array()?;
                        Some((pair.first()?.as_u64()? as usize, pair.get(1)?.as_u64()?))
                    })
                    .collect();
                let h = HistogramSnapshot {
                    count: num("count").unwrap_or(0),
                    sum: num("sum").unwrap_or(0),
                    min: num("min").unwrap_or(u64::MAX),
                    max: num("max").unwrap_or(0),
                    buckets,
                };
                let slot = dump.hists.entry(name.to_string()).or_default();
                *slot = merge(slot, &h);
            } else {
                *dump.counters.entry(name.to_string()).or_default() += num("value").unwrap_or(0);
            }
        }
        dump
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> HistogramSnapshot {
        self.hists.get(name).cloned().unwrap_or_default()
    }

    /// What every counter and histogram recorded since `earlier`.
    pub fn since(&self, earlier: &Dump) -> Dump {
        Dump {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| {
                    let d = earlier
                        .hists
                        .get(k)
                        .map_or_else(|| h.clone(), |e| h.delta(e));
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// Add `other`'s counts into this dump.
    pub fn add(&mut self, other: &Dump) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, h) in &other.hists {
            let slot = self.hists.entry(k.clone()).or_default();
            *slot = merge(slot, h);
        }
    }
}

fn strip_worker(name: &str) -> Option<&str> {
    let rest = name.strip_prefix("worker")?;
    let dot = rest.find('.')?;
    rest[..dot]
        .chars()
        .all(|c| c.is_ascii_digit())
        .then(|| &rest[dot + 1..])
}

fn merge(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets: BTreeMap<usize, u64> = a.buckets.iter().copied().collect();
    for &(i, c) in &b.buckets {
        *buckets.entry(i).or_default() += c;
    }
    HistogramSnapshot {
        count: a.count + b.count,
        sum: a.sum + b.sum,
        min: a.min.min(b.min),
        max: a.max.max(b.max),
        buckets: buckets.into_iter().collect(),
    }
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
