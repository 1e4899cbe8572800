//! Wire protocol: one JSON object per `\n`-terminated line, both ways.
//!
//! The grammar is deliberately tiny (DESIGN.md §15). Requests:
//!
//! ```json
//! {"op":"hello","id":1,"session":7}
//! {"op":"stmt","id":2,"src":"cquery (fun p => p#Name) People;"}
//! {"op":"batch","id":3,"stmts":["insert People {Name=\"ada\"};","cquery (fun p => p#Name) People;"]}
//! {"op":"ping","id":4}
//! ```
//!
//! Responses always carry the request's `id` (when it could be decoded):
//!
//! ```json
//! {"id":2,"ok":"val it = ..."}
//! {"id":3,"results":[{"ok":"..."},{"err":"...","kind":"runtime"}]}
//! {"id":2,"busy":true}
//! {"id":2,"err":"unbound variable x","kind":"type"}
//! ```
//!
//! `kind` classifies errors with the same taxonomy as
//! [`polyview_pool::PoolError`] — `parse`, `type`, `runtime`, `stale`,
//! `internal`, `misrouted`, `lost` — plus `proto` for frames the server
//! could not decode (malformed JSON, unknown `op`, missing field,
//! oversized line) and `busy` for connection-limit rejections that
//! arrive before any frame is read.
//!
//! Encoding and decoding both go through [`polyview::obs::jsonl`]: the
//! server validates every inbound frame with the same recursive-descent
//! parser the verify gates use on outbound telemetry, so the wire stays
//! honest in both directions without an external JSON dependency.

use polyview::obs::jsonl::{self, JsonValue, ObjectBuilder};
use polyview_pool::PoolError;

/// Default bound on one wire frame (the line, excluding the newline).
/// Longer lines are discarded and answered with a `proto` error; the
/// connection stays open (§15 "malformed input is a value, not a
/// disconnect").
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024;

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    pub cmd: Command,
}

/// The request operations.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Pin this connection to an explicit session id (affinity +
    /// read-your-writes across connections that share it).
    Hello { session: u64 },
    /// One statement, auto-routed like [`polyview_pool::Pool::submit`].
    Stmt { src: String },
    /// N statements, one ticket: sequenced under a single log-lock hold
    /// and served in order on the session's replica.
    Batch { stmts: Vec<String> },
    /// Liveness probe; answered immediately with `{"id":N,"ok":"pong"}`.
    Ping,
    /// One windowed + cumulative introspection object
    /// (`{"id":N,"stats":{...}}`), answered immediately by the reader.
    Stats,
    /// The pool health verdict (`{"id":N,"health":"healthy",...}`).
    /// Answered as an immediate like `ping`, so a load balancer gets an
    /// answer even while every pool queue is full.
    Health,
    /// Start pushing a `stats` frame (`{"push":seq,"stats":{...}}`)
    /// every `interval_ms` on this connection until `unwatch` or close
    /// — the protocol's only server-initiated frames.
    Watch { interval_ms: u64 },
    /// Stop a `watch`; acked with `{"id":N,"ok":"unwatch"}`.
    Unwatch,
}

/// Why a frame failed to decode. Carries the request id when the line
/// was well-formed enough to yield one, so the error response can still
/// be correlated.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameError {
    pub id: Option<u64>,
    pub message: String,
}

impl FrameError {
    fn new(id: Option<u64>, message: impl Into<String>) -> FrameError {
        FrameError {
            id,
            message: message.into(),
        }
    }
}

/// Decode one request line into a [`Frame`].
pub fn decode_frame(line: &str) -> Result<Frame, FrameError> {
    let members = jsonl::parse_object_line(line)
        .map_err(|e| FrameError::new(None, format!("malformed frame: {e}")))?;
    let id = JsonValue::get(&members, "id")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| FrameError::new(None, "frame is missing an integer \"id\""))?;
    let op = JsonValue::get(&members, "op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| FrameError::new(Some(id), "frame is missing a string \"op\""))?;
    let cmd = match op {
        "hello" => {
            let session = JsonValue::get(&members, "session")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| {
                    FrameError::new(Some(id), "\"hello\" needs an integer \"session\"")
                })?;
            Command::Hello { session }
        }
        "stmt" => {
            let src = JsonValue::get(&members, "src")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| FrameError::new(Some(id), "\"stmt\" needs a string \"src\""))?;
            Command::Stmt {
                src: src.to_string(),
            }
        }
        "batch" => {
            let items = JsonValue::get(&members, "stmts")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| {
                    FrameError::new(Some(id), "\"batch\" needs a string array \"stmts\"")
                })?;
            let mut stmts = Vec::with_capacity(items.len());
            for item in items {
                let s = item.as_str().ok_or_else(|| {
                    FrameError::new(Some(id), "\"batch\" needs a string array \"stmts\"")
                })?;
                stmts.push(s.to_string());
            }
            if stmts.is_empty() {
                return Err(FrameError::new(
                    Some(id),
                    "\"batch\" must carry at least one statement",
                ));
            }
            Command::Batch { stmts }
        }
        "ping" => Command::Ping,
        "stats" => Command::Stats,
        "health" => Command::Health,
        "watch" => {
            let interval_ms = JsonValue::get(&members, "interval_ms")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| {
                    FrameError::new(Some(id), "\"watch\" needs an integer \"interval_ms\"")
                })?;
            if interval_ms == 0 {
                return Err(FrameError::new(
                    Some(id),
                    "\"watch\" needs a nonzero \"interval_ms\"",
                ));
            }
            Command::Watch { interval_ms }
        }
        "unwatch" => Command::Unwatch,
        other => return Err(FrameError::new(Some(id), format!("unknown op {other:?}"))),
    };
    Ok(Frame { id, cmd })
}

/// The `kind` string for a [`PoolError`] on the wire.
pub fn error_kind(e: &PoolError) -> &'static str {
    match e {
        PoolError::Parse(_) => "parse",
        PoolError::Type(_) => "type",
        PoolError::Runtime(_) => "runtime",
        PoolError::StalePrepared => "stale",
        PoolError::Internal(_) => "internal",
        PoolError::Misrouted { .. } => "misrouted",
        PoolError::WorkerLost { .. } => "lost",
    }
}

/// `{"id":N,"ok":"..."}`
pub fn ok_line(id: u64, value: &str) -> String {
    ObjectBuilder::new()
        .field_u64("id", id)
        .field_str("ok", value)
        .finish()
}

/// `{"id":N,"err":"...","kind":"..."}`; `id` omitted when the frame
/// never yielded one.
pub fn err_line(id: Option<u64>, kind: &str, message: &str) -> String {
    let b = ObjectBuilder::new();
    let b = match id {
        Some(id) => b.field_u64("id", id),
        None => b,
    };
    b.field_str("err", message).field_str("kind", kind).finish()
}

/// `{"id":N,"busy":true}` — admission control said no; retry later.
pub fn busy_line(id: Option<u64>) -> String {
    let b = ObjectBuilder::new();
    let b = match id {
        Some(id) => b.field_u64("id", id),
        None => b,
    };
    b.field_bool("busy", true).finish()
}

/// Render an `f64` as a JSON number. Non-finite values (which JSON
/// cannot carry) collapse to `0`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"id":N,"stats":{...}}` — `stats_obj` must already be one valid
/// JSON object (the server builds it with [`jsonl::ObjectBuilder`]).
pub fn stats_line(id: u64, stats_obj: &str) -> String {
    ObjectBuilder::new()
        .field_u64("id", id)
        .field_raw("stats", stats_obj)
        .finish()
}

/// `{"push":seq,"stats":{...}}` — a server-initiated `watch` push.
/// Carries no `id`: nothing requested *this* frame, so `push` holds the
/// per-connection push sequence number instead.
pub fn push_line(seq: u64, stats_obj: &str) -> String {
    ObjectBuilder::new()
        .field_u64("push", seq)
        .field_raw("stats", stats_obj)
        .finish()
}

/// `{"id":N,"health":"healthy","reasons":[],...}` — the verdict plus
/// the observations it was folded from.
pub fn health_line(id: u64, report: &polyview_pool::HealthReport) -> String {
    ObjectBuilder::new()
        .field_u64("id", id)
        .field_str("health", report.health.as_str())
        .field_str_array("reasons", report.health.reasons())
        .field_u64("workers", report.workers as u64)
        .field_u64("log_len", report.log_len)
        .field_u64("max_replay_lag", report.max_replay_lag)
        .field_u64("max_queue_depth", report.max_queue_depth)
        .field_raw("busy_rate", &json_f64(report.busy_rate))
        .field_raw("error_rate", &json_f64(report.error_rate))
        .field_u64("window_span_ns", report.window_span_ns)
        .finish()
}

/// `{"id":N,"results":[...]}` — one entry per batch statement, in
/// submission order.
pub fn results_line(id: u64, results: &[Result<String, PoolError>]) -> String {
    let mut arr = String::from("[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        let entry = match r {
            Ok(v) => ObjectBuilder::new().field_str("ok", v).finish(),
            Err(e) => ObjectBuilder::new()
                .field_str("err", &e.to_string())
                .field_str("kind", error_kind(e))
                .finish(),
        };
        arr.push_str(&entry);
    }
    arr.push(']');
    ObjectBuilder::new()
        .field_u64("id", id)
        .field_raw("results", &arr)
        .finish()
}

/// A decoded response, as seen by [`crate::NetClient`].
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The echoed request id; absent only on pre-decode rejections
    /// (connection-limit busy, unparseable frame).
    pub id: Option<u64>,
    pub reply: Reply,
}

/// The response payloads. Batch entries render errors as
/// `(message, kind)` pairs since [`PoolError`] does not round-trip
/// through the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Ok(String),
    Results(Vec<Result<String, (String, String)>>),
    Busy,
    Err {
        kind: String,
        message: String,
    },
    /// The decoded members of a `stats` response's object.
    Stats(Vec<(String, JsonValue)>),
    /// A `health` response: the verdict name and its reasons.
    Health {
        verdict: String,
        reasons: Vec<String>,
    },
    /// A server-initiated `watch` push (no request id; `seq` is the
    /// connection's push counter).
    Push {
        seq: u64,
        stats: Vec<(String, JsonValue)>,
    },
}

/// Decode one response line (client side).
pub fn decode_response(line: &str) -> Result<Response, FrameError> {
    let members = jsonl::parse_object_line(line)
        .map_err(|e| FrameError::new(None, format!("malformed response: {e}")))?;
    let id = JsonValue::get(&members, "id").and_then(JsonValue::as_u64);
    if let Some(v) = JsonValue::get(&members, "ok").and_then(JsonValue::as_str) {
        return Ok(Response {
            id,
            reply: Reply::Ok(v.to_string()),
        });
    }
    if JsonValue::get(&members, "busy").and_then(JsonValue::as_bool) == Some(true) {
        return Ok(Response {
            id,
            reply: Reply::Busy,
        });
    }
    if let Some(message) = JsonValue::get(&members, "err").and_then(JsonValue::as_str) {
        let kind = JsonValue::get(&members, "kind")
            .and_then(JsonValue::as_str)
            .unwrap_or("internal")
            .to_string();
        return Ok(Response {
            id,
            reply: Reply::Err {
                kind,
                message: message.to_string(),
            },
        });
    }
    if let Some(items) = JsonValue::get(&members, "results").and_then(JsonValue::as_array) {
        let mut results = Vec::with_capacity(items.len());
        for item in items {
            let entry = item
                .as_object()
                .ok_or_else(|| FrameError::new(id, "\"results\" entries must be objects"))?;
            if let Some(v) = JsonValue::get(entry, "ok").and_then(JsonValue::as_str) {
                results.push(Ok(v.to_string()));
            } else if let Some(m) = JsonValue::get(entry, "err").and_then(JsonValue::as_str) {
                let kind = JsonValue::get(entry, "kind")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("internal")
                    .to_string();
                results.push(Err((m.to_string(), kind)));
            } else {
                return Err(FrameError::new(
                    id,
                    "\"results\" entry has neither ok nor err",
                ));
            }
        }
        return Ok(Response {
            id,
            reply: Reply::Results(results),
        });
    }
    // `push` before `stats`: both frame shapes carry a "stats" member,
    // only pushes carry "push".
    if let Some(seq) = JsonValue::get(&members, "push").and_then(JsonValue::as_u64) {
        let stats = JsonValue::get(&members, "stats")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| FrameError::new(None, "push frame is missing a \"stats\" object"))?;
        return Ok(Response {
            id: None,
            reply: Reply::Push {
                seq,
                stats: stats.to_vec(),
            },
        });
    }
    if let Some(stats) = JsonValue::get(&members, "stats").and_then(JsonValue::as_object) {
        return Ok(Response {
            id,
            reply: Reply::Stats(stats.to_vec()),
        });
    }
    if let Some(verdict) = JsonValue::get(&members, "health").and_then(JsonValue::as_str) {
        let reasons = match JsonValue::get(&members, "reasons").and_then(JsonValue::as_array) {
            Some(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    let s = item.as_str().ok_or_else(|| {
                        FrameError::new(id, "\"reasons\" entries must be strings")
                    })?;
                    out.push(s.to_string());
                }
                out
            }
            None => Vec::new(),
        };
        return Ok(Response {
            id,
            reply: Reply::Health {
                verdict: verdict.to_string(),
                reasons,
            },
        });
    }
    Err(FrameError::new(
        id,
        "response has no ok/results/busy/err/stats/health/push field",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_decoder() {
        assert_eq!(
            decode_frame(r#"{"op":"hello","id":1,"session":7}"#).unwrap(),
            Frame {
                id: 1,
                cmd: Command::Hello { session: 7 }
            }
        );
        assert_eq!(
            decode_frame(r#"{"op":"stmt","id":2,"src":"query f Db;"}"#).unwrap(),
            Frame {
                id: 2,
                cmd: Command::Stmt {
                    src: "query f Db;".to_string()
                }
            }
        );
        assert_eq!(
            decode_frame(r#"{"id":3,"op":"batch","stmts":["a;","b;"]}"#).unwrap(),
            Frame {
                id: 3,
                cmd: Command::Batch {
                    stmts: vec!["a;".to_string(), "b;".to_string()]
                }
            }
        );
        assert_eq!(
            decode_frame(r#"{"op":"ping","id":4}"#).unwrap(),
            Frame {
                id: 4,
                cmd: Command::Ping
            }
        );
    }

    #[test]
    fn bad_frames_keep_the_id_when_they_can() {
        assert_eq!(decode_frame("nope").unwrap_err().id, None);
        assert_eq!(decode_frame(r#"{"op":"stmt"}"#).unwrap_err().id, None);
        assert_eq!(
            decode_frame(r#"{"op":"stmt","id":9}"#).unwrap_err().id,
            Some(9)
        );
        assert_eq!(
            decode_frame(r#"{"op":"warp","id":9}"#).unwrap_err().id,
            Some(9)
        );
        assert_eq!(
            decode_frame(r#"{"op":"batch","id":9,"stmts":[]}"#)
                .unwrap_err()
                .id,
            Some(9)
        );
        assert_eq!(
            decode_frame(r#"{"op":"batch","id":9,"stmts":[1]}"#)
                .unwrap_err()
                .id,
            Some(9)
        );
    }

    #[test]
    fn response_lines_decode_back() {
        let ok = decode_response(&ok_line(5, "val it = 3 : Int")).unwrap();
        assert_eq!(
            ok,
            Response {
                id: Some(5),
                reply: Reply::Ok("val it = 3 : Int".to_string())
            }
        );

        let busy = decode_response(&busy_line(Some(6))).unwrap();
        assert_eq!(
            busy,
            Response {
                id: Some(6),
                reply: Reply::Busy
            }
        );

        let err = decode_response(&err_line(None, "proto", "malformed frame: bad")).unwrap();
        assert_eq!(
            err,
            Response {
                id: None,
                reply: Reply::Err {
                    kind: "proto".to_string(),
                    message: "malformed frame: bad".to_string()
                }
            }
        );

        let line = results_line(
            7,
            &[
                Ok("val it = 1 : Int".to_string()),
                Err(PoolError::Runtime("boom".to_string())),
            ],
        );
        let resp = decode_response(&line).unwrap();
        assert_eq!(
            resp.reply,
            Reply::Results(vec![
                Ok("val it = 1 : Int".to_string()),
                Err(("boom".to_string(), "runtime".to_string())),
            ])
        );
    }

    fn degraded_report() -> polyview_pool::HealthReport {
        polyview_pool::HealthReport {
            health: polyview_pool::Health::Degraded {
                reasons: vec!["worker 1 replay lag 9 >= 3".to_string()],
            },
            workers: 4,
            log_len: 17,
            max_replay_lag: 9,
            max_queue_depth: 2,
            busy_rate: 0.5,
            error_rate: 0.0,
            window_span_ns: 2_000_000_000,
            per_worker: Vec::new(),
        }
    }

    #[test]
    fn introspection_frames_decode() {
        assert_eq!(
            decode_frame(r#"{"op":"stats","id":5}"#).unwrap().cmd,
            Command::Stats
        );
        assert_eq!(
            decode_frame(r#"{"op":"health","id":6}"#).unwrap().cmd,
            Command::Health
        );
        assert_eq!(
            decode_frame(r#"{"op":"watch","id":7,"interval_ms":250}"#)
                .unwrap()
                .cmd,
            Command::Watch { interval_ms: 250 }
        );
        assert_eq!(
            decode_frame(r#"{"op":"unwatch","id":8}"#).unwrap().cmd,
            Command::Unwatch
        );
        // A zero interval would mean a busy-loop of pushes; refused.
        assert_eq!(
            decode_frame(r#"{"op":"watch","id":9,"interval_ms":0}"#)
                .unwrap_err()
                .id,
            Some(9)
        );
        assert_eq!(
            decode_frame(r#"{"op":"watch","id":9}"#).unwrap_err().id,
            Some(9)
        );
    }

    #[test]
    fn stats_health_and_push_lines_decode_back() {
        let obj = ObjectBuilder::new()
            .field_str("health", "healthy")
            .field_u64("log_len", 3)
            .finish();

        let stats = decode_response(&stats_line(11, &obj)).unwrap();
        assert_eq!(stats.id, Some(11));
        match stats.reply {
            Reply::Stats(members) => {
                assert_eq!(
                    JsonValue::get(&members, "log_len").and_then(JsonValue::as_u64),
                    Some(3)
                );
            }
            other => panic!("expected Reply::Stats, got {other:?}"),
        }

        let push = decode_response(&push_line(2, &obj)).unwrap();
        assert_eq!(push.id, None, "pushes answer no request");
        match push.reply {
            Reply::Push { seq, stats } => {
                assert_eq!(seq, 2);
                assert_eq!(
                    JsonValue::get(&stats, "health").and_then(JsonValue::as_str),
                    Some("healthy")
                );
            }
            other => panic!("expected Reply::Push, got {other:?}"),
        }

        let health = decode_response(&health_line(12, &degraded_report())).unwrap();
        assert_eq!(health.id, Some(12));
        assert_eq!(
            health.reply,
            Reply::Health {
                verdict: "degraded".to_string(),
                reasons: vec!["worker 1 replay lag 9 >= 3".to_string()],
            }
        );
    }

    #[test]
    fn every_encoded_line_is_valid_jsonl() {
        for line in [
            ok_line(1, "weird \"quotes\" and \\ slashes"),
            err_line(Some(2), "type", "line\nbreak"),
            err_line(None, "proto", "no id"),
            busy_line(Some(3)),
            busy_line(None),
            results_line(4, &[Ok("x".to_string()), Err(PoolError::StalePrepared)]),
            stats_line(5, r#"{"x":1}"#),
            push_line(6, r#"{"x":1}"#),
            health_line(7, &degraded_report()),
        ] {
            jsonl::check_object_line(&line).expect("encoder emits valid JSON lines");
        }
    }

    #[test]
    fn json_f64_stays_inside_json() {
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(5.25), "5.25");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
    }
}
