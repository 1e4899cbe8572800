//! Zero-dependency observability for the polyview pipeline.
//!
//! The paper's workflow (Section 4) is a database session: classes are
//! declared once and then served many queries. Optimising that loop —
//! kinded unification in Fig. 1's sense, the Fig. 3/5 translation size,
//! evaluation fuel — requires a measurement substrate first. This crate is
//! that substrate, built on `std` alone so the tier-1 pipeline stays fully
//! offline (DESIGN.md §7: no external crates, not even `tracing`):
//!
//! * [`Clock`] — a nanosecond time source. [`WallClock`] wraps
//!   [`std::time::Instant`]; [`ManualClock`] is injectable, advances
//!   deterministically and counts its reads, so phase-timing assertions
//!   are exact in tests.
//! * [`Span`] / [`Tracer`] — lightweight begin/finish spans. Finishing a
//!   span yields its duration and, when tracing is enabled, emits an
//!   [`EventRecord`] to the configured [`EventSink`].
//! * [`Registry`] — named monotone [`Counter`]s, settable [`Gauge`]s and
//!   log2-bucketed [`Histogram`]s (latencies, sizes), exportable as JSON
//!   lines (one JSON object per line) without any serialization
//!   dependency.
//! * [`EventSink`] — [`NullEventSink`] (drop everything),
//!   [`CollectingEventSink`] (keep events in memory, for tests), and
//!   [`JsonLinesEventSink`] (write one JSON object per event to any
//!   [`std::io::Write`]).
//!
//! There is one vocabulary, and all of it is `Send + Sync`: the
//! single-threaded engine and the multi-threaded serving pool share
//! clocks, sinks and metric handles directly, with no adapters between
//! them. Handles update relaxed atomics; that costs an uncompiled engine
//! statement about 0.25 µs over plain cell increments (see
//! [`metrics`]), a few percent of the cheapest gated benchmark statement.
//!
//! [`jsonl`] is the crate's one JSON codec: every export above renders
//! through its [`jsonl::ObjectBuilder`], and its checker smoke-tests the
//! exports. The [`window`] module layers sliding-window views (rates,
//! windowed quantiles) over the cumulative registries as reader-side
//! snapshot deltas — storage stays cumulative, and a layer that never
//! ticks a window never reads a clock.

pub mod clock;
pub mod jsonl;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod window;

pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use sink::{CollectingEventSink, EventRecord, EventSink, JsonLinesEventSink, NullEventSink};
pub use span::{Span, Tracer};
pub use window::{RegistrySnapshot, SnapshotRing, WindowView};
