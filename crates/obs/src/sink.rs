//! Trace events and the sinks they go to.
//!
//! The engine always *times* phases (histograms are cheap); emitting
//! per-span records is opt-in via an [`EventSink`]. [`NullEventSink`] is
//! the default, [`CollectingEventSink`] backs tests, and
//! [`JsonLinesEventSink`] streams one JSON object per event to any writer
//! (the REPL's `:trace on`, `pool_server --trace`). Sinks are
//! `Send + Sync`: a pool's router, its workers and every replica's engine
//! emit into one shared sink.

use crate::jsonl::ObjectBuilder;
use std::io::Write;
use std::sync::Mutex;

/// One trace event: a named span with a start time, a duration, integer
/// attributes (counts, sizes), and the correlation fields that stitch a
/// request's life together across threads.
///
/// * `trace_id` — the request this event belongs to (0 = no request, e.g.
///   a bare engine, or a pool replica's background replay work).
/// * `parent` — set on events emitted *inside* another component on behalf
///   of the request (an engine's phase spans carry the owning request id
///   here); `None` on top-level lifecycle events.
///
/// Instantaneous lifecycle stamps are events with `dur_ns == 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    pub name: String,
    pub trace_id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub attrs: Vec<(String, u64)>,
}

impl EventRecord {
    /// Render as a single-line JSON object: `"kind":"span"`, the name,
    /// `trace_id`, `parent` (only when present), the timing fields, then
    /// the attributes as flat integer fields.
    pub fn to_json(&self) -> String {
        let mut obj = ObjectBuilder::new()
            .field_str("kind", "span")
            .field_str("name", &self.name)
            .field_u64("trace_id", self.trace_id);
        if let Some(p) = self.parent {
            obj = obj.field_u64("parent", p);
        }
        obj = obj
            .field_u64("start_ns", self.start_ns)
            .field_u64("dur_ns", self.dur_ns);
        for (k, v) in &self.attrs {
            obj = obj.field_u64(k, *v);
        }
        obj.finish()
    }
}

/// A consumer of trace events. Emission must never fail the traced
/// request.
pub trait EventSink: Send + Sync {
    fn emit(&self, event: &EventRecord);
}

/// Discards every event.
#[derive(Debug, Default)]
pub struct NullEventSink;

impl EventSink for NullEventSink {
    fn emit(&self, _event: &EventRecord) {}
}

/// Keeps every event in memory, in emission order — the test sink.
#[derive(Debug, Default)]
pub struct CollectingEventSink {
    events: Mutex<Vec<EventRecord>>,
}

impl CollectingEventSink {
    pub fn new() -> Self {
        CollectingEventSink::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<EventRecord>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A copy of the collected events, in emission order.
    pub fn events(&self) -> Vec<EventRecord> {
        self.lock().clone()
    }

    /// Drain the collected events.
    pub fn take(&self) -> Vec<EventRecord> {
        std::mem::take(&mut *self.lock())
    }
}

impl EventSink for CollectingEventSink {
    fn emit(&self, event: &EventRecord) {
        self.lock().push(event.clone());
    }
}

/// Writes one JSON object per event to the wrapped writer. Write errors
/// are swallowed: tracing must never fail the traced request.
#[derive(Debug)]
pub struct JsonLinesEventSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesEventSink<W> {
    pub fn new(out: W) -> Self {
        JsonLinesEventSink {
            out: Mutex::new(out),
        }
    }

    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<W: Write + Send> EventSink for JsonLinesEventSink<W> {
    fn emit(&self, event: &EventRecord) {
        let mut line = event.to_json();
        line.push('\n');
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn event_record_json_shape() {
        let ev = EventRecord {
            name: "pool.dequeued".into(),
            trace_id: 7,
            parent: None,
            start_ns: 10,
            dur_ns: 3,
            attrs: vec![("worker".into(), 1)],
        };
        assert_eq!(
            ev.to_json(),
            "{\"kind\":\"span\",\"name\":\"pool.dequeued\",\"trace_id\":7,\"start_ns\":10,\"dur_ns\":3,\"worker\":1}"
        );
        let child = EventRecord {
            name: "engine.parse".into(),
            trace_id: 7,
            parent: Some(7),
            start_ns: 12,
            dur_ns: 1,
            attrs: vec![],
        };
        assert_eq!(
            child.to_json(),
            "{\"kind\":\"span\",\"name\":\"engine.parse\",\"trace_id\":7,\"parent\":7,\"start_ns\":12,\"dur_ns\":1}"
        );
    }

    #[test]
    fn sinks_collect_and_serialize_across_threads() {
        let sink = Arc::new(CollectingEventSink::new());
        let ev = EventRecord {
            name: "e".into(),
            trace_id: 1,
            parent: None,
            start_ns: 0,
            dur_ns: 0,
            attrs: vec![],
        };
        std::thread::scope(|s| {
            let sink2 = Arc::clone(&sink);
            let ev2 = ev.clone();
            s.spawn(move || sink2.emit(&ev2));
        });
        sink.emit(&ev);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());

        let json = JsonLinesEventSink::new(Vec::new());
        json.emit(&ev);
        json.emit(&ev);
        let text = String::from_utf8(json.into_inner()).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        for l in text.lines() {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        NullEventSink.emit(&ev);
    }
}
