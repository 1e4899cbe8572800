//! End-to-end request telemetry: trace-id minting, lifecycle events,
//! latency histograms, and the slow-request log.
//!
//! One [`Telemetry`] instance is shared (`Arc`) between the router and
//! every worker — it survives respawns, so a replacement replica keeps
//! appending to the same histograms and event stream. A request's life is
//! stamped as [`polyview::obs::EventRecord`]s all carrying the same
//! `trace_id`:
//!
//! ```text
//! pool.submitted {session}          router   start = submit clock read
//! pool.classified {class}           router   0 = read, 1 = write
//! pool.sequenced {offset}           router   writes only
//! pool.enqueued {worker}            router   (pool.rejected_full on backpressure)
//! pool.dequeued {worker, generation} worker  dur = queue wait
//! pool.catchup {replayed}           worker   dur = log replay before serving
//! engine.parse / infer / lower / translate / eval   engine spans, parent = trace_id
//! pool.completed {worker, generation, ok}    dur = end-to-end
//! pool.worker_lost {worker}         caller   terminal event when the reply died
//! ```
//!
//! Overhead discipline: everything here is gated on the `enabled` flag
//! *before* any clock read, id mint, or sink call. With telemetry off
//! (the default), [`Telemetry::begin`] is one branch returning `None`,
//! and no request-path code touches the clock or the sink — the tier-1
//! tracing tests assert zero [`polyview::obs::ManualClock`] reads on the
//! disabled path, and polybench's `obs.trace_overhead_pct` metric reports
//! the cost of turning it on.
//!
//! Timestamps come from one [`Clock`] shared by the router, the workers,
//! *and* each replica engine's own phase spans, so every event of a trace
//! lives on a single timeline — under [`polyview::obs::ManualClock`] the
//! whole lifecycle is exact, which is what the deterministic tier-1
//! timeline test pins.

use crate::PoolConfig;
use polyview::obs::{Clock, EventRecord, EventSink, Histogram, Registry};
use polyview::StmtClass;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Encode a [`StmtClass`] as an event attribute value.
pub(crate) fn class_code(class: StmtClass) -> u64 {
    match class {
        StmtClass::Read => 0,
        StmtClass::Write => 1,
    }
}

/// The per-request trace context, minted at submit and carried with the
/// request across the queue. `Copy`, so it rides inside `Request` and the
/// ticket without allocation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RequestTrace {
    /// Monotonically increasing request id — the trace id (ids start at
    /// 1; trace id 0 marks untraced background work such as replay).
    pub id: u64,
    pub session: u64,
    pub class: StmtClass,
    /// Clock reading at [`Telemetry::begin`].
    pub submitted_ns: u64,
    /// Clock reading just before the enqueue attempt (stamped by
    /// [`Telemetry::stamp_enqueue`] *before* the send, so the worker's
    /// dequeue reading is always ≥ it).
    pub enqueued_ns: u64,
}

/// One entry of the bounded slow-request ring: everything needed to chase
/// a latency outlier without replaying the event stream.
#[derive(Clone, Debug)]
pub struct SlowRequest {
    /// The trace id — join key into the event stream.
    pub id: u64,
    pub session: u64,
    pub worker: usize,
    pub generation: u64,
    pub class: StmtClass,
    pub e2e_ns: u64,
    pub queue_wait_ns: u64,
    pub catchup_ns: u64,
    /// The statement source, truncated to [`SLOW_SRC_MAX`] characters.
    pub src: String,
    /// The request's own attribution profile, present when request
    /// sampling ([`crate::PoolConfig::profile_sample_every`]) happened to
    /// profile this request — the offending statement arrives already
    /// attributed, node by node.
    pub profile: Option<polyview::Profile>,
}

/// Character cap on the source text kept in a [`SlowRequest`].
pub(crate) const SLOW_SRC_MAX: usize = 120;

/// The pool's shared telemetry state: clock, sink, latency histograms,
/// and the slow-request ring. See the module docs for the event schema.
pub(crate) struct Telemetry {
    pub(crate) enabled: bool,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) sink: Arc<dyn EventSink>,
    pub(crate) registry: Registry,
    pub(crate) queue_wait_ns: Histogram,
    pub(crate) catchup_ns: Histogram,
    pub(crate) e2e_read_ns: Histogram,
    pub(crate) e2e_write_ns: Histogram,
    slow_threshold_ns: Option<u64>,
    slow_capacity: usize,
    slow: Mutex<VecDeque<SlowRequest>>,
    next_id: AtomicU64,
}

impl Telemetry {
    pub(crate) fn new(cfg: &PoolConfig) -> Telemetry {
        let registry = Registry::new();
        Telemetry {
            enabled: cfg.telemetry_enabled,
            clock: Arc::clone(&cfg.telemetry_clock),
            sink: Arc::clone(&cfg.event_sink),
            queue_wait_ns: registry.histogram("pool.queue_wait_ns"),
            catchup_ns: registry.histogram("pool.catchup_ns"),
            e2e_read_ns: registry.histogram("pool.e2e_read_ns"),
            e2e_write_ns: registry.histogram("pool.e2e_write_ns"),
            registry,
            slow_threshold_ns: cfg.slow_threshold_ns,
            slow_capacity: cfg.slow_log_capacity,
            slow: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(0),
        }
    }

    fn event(
        &self,
        name: &str,
        trace_id: u64,
        start_ns: u64,
        dur_ns: u64,
        attrs: Vec<(String, u64)>,
    ) {
        self.sink.emit(&EventRecord {
            name: name.to_string(),
            trace_id,
            parent: None,
            start_ns,
            dur_ns,
            attrs,
        });
    }

    /// Mint a trace for an accepted submission — or `None` (one branch,
    /// no clock read, no id mint) when telemetry is disabled. Emits
    /// `pool.submitted` and `pool.classified`.
    pub(crate) fn begin(&self, session: u64, class: StmtClass) -> Option<RequestTrace> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let submitted_ns = self.clock.now_ns();
        self.event(
            "pool.submitted",
            id,
            submitted_ns,
            0,
            vec![("session".to_string(), session)],
        );
        self.event(
            "pool.classified",
            id,
            submitted_ns,
            0,
            vec![("class".to_string(), class_code(class))],
        );
        Some(RequestTrace {
            id,
            session,
            class,
            submitted_ns,
            enqueued_ns: submitted_ns,
        })
    }

    /// Stamp the enqueue-attempt time. Called *before* the send so the
    /// worker's dequeue reading is ordered after it (queue wait is never
    /// negative); the matching event is emitted after the send resolves
    /// ([`Telemetry::note_enqueued`] / [`Telemetry::note_rejected`]).
    pub(crate) fn stamp_enqueue(&self, trace: &mut RequestTrace) {
        trace.enqueued_ns = self.clock.now_ns();
    }

    /// The send was accepted: emit `pool.sequenced` (writes) and
    /// `pool.enqueued`.
    pub(crate) fn note_enqueued(
        &self,
        trace: &RequestTrace,
        worker: usize,
        sequenced: Option<u64>,
    ) {
        if let Some(offset) = sequenced {
            self.event(
                "pool.sequenced",
                trace.id,
                trace.enqueued_ns,
                0,
                vec![("offset".to_string(), offset)],
            );
        }
        self.event(
            "pool.enqueued",
            trace.id,
            trace.enqueued_ns,
            0,
            vec![("worker".to_string(), worker as u64)],
        );
    }

    /// The target queue was full: nothing was enqueued (or sequenced).
    pub(crate) fn note_rejected(&self, trace: &RequestTrace, worker: usize) {
        self.event(
            "pool.rejected_full",
            trace.id,
            trace.enqueued_ns,
            0,
            vec![("worker".to_string(), worker as u64)],
        );
    }

    /// Worker-side: the request left the queue. Reads the clock, emits
    /// `pool.dequeued` spanning the queue wait, feeds the queue-wait
    /// histogram, and returns the dequeue reading.
    pub(crate) fn note_dequeued(
        &self,
        trace: &RequestTrace,
        worker: usize,
        generation: u64,
    ) -> u64 {
        let dequeued_ns = self.clock.now_ns();
        let queue_wait = dequeued_ns.saturating_sub(trace.enqueued_ns);
        self.queue_wait_ns.observe(queue_wait);
        self.event(
            "pool.dequeued",
            trace.id,
            trace.enqueued_ns,
            queue_wait,
            vec![
                ("worker".to_string(), worker as u64),
                ("generation".to_string(), generation),
            ],
        );
        dequeued_ns
    }

    /// Worker-side: pre-serve log replay finished. Reads the clock, emits
    /// `pool.catchup` spanning the replay, feeds the catch-up histogram,
    /// and returns the catch-up duration.
    pub(crate) fn note_catchup(
        &self,
        trace: &RequestTrace,
        dequeued_ns: u64,
        replayed: u64,
    ) -> u64 {
        let done_ns = self.clock.now_ns();
        let catchup = done_ns.saturating_sub(dequeued_ns);
        self.catchup_ns.observe(catchup);
        self.event(
            "pool.catchup",
            trace.id,
            dequeued_ns,
            catchup,
            vec![("replayed".to_string(), replayed)],
        );
        catchup
    }

    /// Worker-side terminal: the request was served. Reads the clock,
    /// emits `pool.completed` spanning the whole request, feeds the
    /// end-to-end histogram for the request's class, and records the
    /// request in the slow log if it crossed the threshold.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn note_completed(
        &self,
        trace: &RequestTrace,
        worker: usize,
        generation: u64,
        ok: bool,
        queue_wait_ns: u64,
        catchup_ns: u64,
        src: &str,
        profile: Option<polyview::Profile>,
    ) {
        let done_ns = self.clock.now_ns();
        let e2e = done_ns.saturating_sub(trace.submitted_ns);
        self.observe_e2e(trace.class, e2e);
        self.event(
            "pool.completed",
            trace.id,
            trace.submitted_ns,
            e2e,
            vec![
                ("worker".to_string(), worker as u64),
                ("generation".to_string(), generation),
                ("ok".to_string(), u64::from(ok)),
            ],
        );
        if self.slow_threshold_ns.is_some_and(|t| e2e >= t) {
            let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
            if slow.len() >= self.slow_capacity.max(1) {
                slow.pop_front();
            }
            slow.push_back(SlowRequest {
                id: trace.id,
                session: trace.session,
                worker,
                generation,
                class: trace.class,
                e2e_ns: e2e,
                queue_wait_ns,
                catchup_ns,
                src: src.chars().take(SLOW_SRC_MAX).collect(),
                profile,
            });
        }
    }

    /// Caller-side terminal: the serving worker died before replying.
    /// Emits `pool.worker_lost` spanning the whole request and still
    /// feeds the end-to-end histogram, so e2e counts match accepted
    /// submissions even across a crash.
    pub(crate) fn note_worker_lost(&self, trace: &RequestTrace, worker: usize) {
        let done_ns = self.clock.now_ns();
        let e2e = done_ns.saturating_sub(trace.submitted_ns);
        self.observe_e2e(trace.class, e2e);
        self.event(
            "pool.worker_lost",
            trace.id,
            trace.submitted_ns,
            e2e,
            vec![("worker".to_string(), worker as u64)],
        );
    }

    fn observe_e2e(&self, class: StmtClass, e2e_ns: u64) {
        match class {
            StmtClass::Read => self.e2e_read_ns.observe(e2e_ns),
            StmtClass::Write => self.e2e_write_ns.observe(e2e_ns),
        }
    }

    /// The slow-request ring, oldest first.
    pub(crate) fn slow_requests(&self) -> Vec<SlowRequest> {
        self.slow
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}
