//! Spans and the tracer that times them.
//!
//! A [`Tracer`] bundles a [`Clock`] and an [`EventSink`]. Starting a span
//! reads the clock once; finishing it reads the clock again, returns the
//! duration (callers feed it into a histogram), and — only when tracing is
//! enabled — emits an [`EventRecord`] to the sink. A span does not borrow
//! the tracer while open, so the traced computation is free to take `&mut`
//! over whatever owns the tracer.
//!
//! Two pieces of tracer state stamp every record it emits: the current
//! trace id ([`Tracer::set_trace_id`] — the request the work runs on
//! behalf of, written into `trace_id` and `parent`), and a fixed attribute
//! slot ([`Tracer::set_attrs`] — e.g. a pool replica's `worker` and
//! `generation`, appended after the span's own attributes).

use crate::clock::{Clock, WallClock};
use crate::sink::{EventRecord, EventSink, NullEventSink};
use std::sync::Arc;

/// Clock + sink + an on/off switch for record emission. Timing itself is
/// always on; only the per-span records are gated.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    sink: Arc<dyn EventSink>,
    enabled: bool,
    trace_id: Option<u64>,
    attrs: Vec<(String, u64)>,
}

impl Tracer {
    /// Wall clock, null sink, emission disabled — the production default.
    pub fn disabled() -> Self {
        Tracer {
            clock: Arc::new(WallClock::new()),
            sink: Arc::new(NullEventSink),
            enabled: false,
            trace_id: None,
            attrs: Vec::new(),
        }
    }

    pub fn new(clock: Arc<dyn Clock>, sink: Arc<dyn EventSink>) -> Self {
        Tracer {
            clock,
            sink,
            enabled: true,
            trace_id: None,
            attrs: Vec::new(),
        }
    }

    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Install a sink and enable emission.
    pub fn set_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.sink = sink;
        self.enabled = true;
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Set (or clear, with `None`) the request every subsequent record
    /// belongs to: a set id becomes the record's `trace_id` and `parent`;
    /// while clear, records carry `trace_id` 0 and no parent.
    pub fn set_trace_id(&mut self, trace_id: Option<u64>) {
        self.trace_id = trace_id;
    }

    /// Fill the fixed attribute slot: these attributes are appended to
    /// every record this tracer emits, after the span's own.
    pub fn set_attrs(&mut self, attrs: Vec<(String, u64)>) {
        self.attrs = attrs;
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Start a span at the current clock reading.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            name,
            start_ns: self.clock.now_ns(),
            attrs: Vec::new(),
            recording: self.enabled,
        }
    }
}

/// An open span: a name, a start time, and integer attributes attached
/// along the way. Finish with [`Span::finish`] to get the duration.
#[derive(Clone, Debug)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, u64)>,
    /// Whether the tracer was emitting at start; attributes of a span
    /// that will never be emitted are not collected.
    recording: bool,
}

impl Span {
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.recording {
            self.attrs.push((key, value));
        }
    }

    /// Close the span against `tracer`: reads the clock, emits the record
    /// if tracing is enabled, and returns the measured duration in ns.
    pub fn finish(self, tracer: &Tracer) -> u64 {
        let dur_ns = tracer.now_ns().saturating_sub(self.start_ns);
        if tracer.is_enabled() {
            let attrs = self
                .attrs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .chain(tracer.attrs.iter().cloned())
                .collect();
            tracer.sink.emit(&EventRecord {
                name: self.name.to_string(),
                trace_id: tracer.trace_id.unwrap_or(0),
                parent: tracer.trace_id,
                start_ns: self.start_ns,
                dur_ns,
                attrs,
            });
        }
        dur_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::sink::CollectingEventSink;

    #[test]
    fn span_measures_clock_delta() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(clock.clone(), Arc::new(NullEventSink));
        let sp = tracer.span("parse");
        clock.advance(250);
        assert_eq!(sp.finish(&tracer), 250);
    }

    #[test]
    fn stepping_clock_gives_nonzero_spans() {
        let tracer = Tracer::new(
            Arc::new(ManualClock::with_step(100)),
            Arc::new(NullEventSink),
        );
        let sp = tracer.span("infer");
        assert_eq!(sp.finish(&tracer), 100);
    }

    #[test]
    fn enabled_tracer_emits_records_with_attrs() {
        let sink = Arc::new(CollectingEventSink::new());
        let mut tracer = Tracer::new(Arc::new(ManualClock::with_step(10)), sink.clone());
        let mut sp = tracer.span("eval");
        sp.attr("fuel", 7);
        sp.finish(&tracer);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "eval");
        assert_eq!(events[0].dur_ns, 10);
        assert_eq!(events[0].attrs, vec![("fuel".to_string(), 7)]);

        tracer.set_enabled(false);
        tracer.span("eval").finish(&tracer);
        assert_eq!(sink.len(), 1, "disabled tracer must not emit");
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut tracer = Tracer::disabled();
        tracer.set_clock(Arc::new(ManualClock::with_step(33)));
        let sp = tracer.span("parse");
        assert_eq!(sp.finish(&tracer), 33);
    }

    #[test]
    fn trace_id_and_fixed_attrs_stamp_records_while_set() {
        let sink = Arc::new(CollectingEventSink::new());
        let mut tracer = Tracer::new(Arc::new(ManualClock::with_step(1)), sink.clone());
        tracer.set_attrs(vec![("worker".into(), 3)]);
        tracer.set_trace_id(Some(42));
        let mut sp = tracer.span("parse");
        sp.attr("tokens", 9);
        sp.finish(&tracer);
        tracer.set_trace_id(None);
        tracer.span("parse").finish(&tracer);
        let events = sink.events();
        assert_eq!((events[0].trace_id, events[0].parent), (42, Some(42)));
        assert_eq!(
            events[0].attrs,
            vec![("tokens".to_string(), 9), ("worker".to_string(), 3)]
        );
        assert_eq!(
            (events[1].trace_id, events[1].parent),
            (0, None),
            "a cleared trace id must not leak"
        );
        assert_eq!(events[1].attrs, vec![("worker".to_string(), 3)]);
    }
}
