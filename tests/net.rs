//! Wire-level tests for the TCP front door (`crates/net`, DESIGN.md
//! §15): pipelined batches round-trip, session ids give read-your-writes
//! across connections, admission control surfaces as structured `busy`
//! responses, malformed input never kills a connection, graceful drain
//! completes in-flight writes, and one trace id spans socket → engine.
//!
//! Every test binds an ephemeral loopback port. None of them sleep to
//! synchronize: backpressure tests park the worker inside
//! [`polyview_pool::Pool::pause_worker`]'s gate, and the drain test
//! spins on the server's `net.frames_decoded` counter — a condition
//! that, once true, cannot go false — before draining.

use polyview::obs::jsonl::JsonValue;
use polyview_net::{ClientError, NetClient, NetConfig, NetServer, Reply};
use polyview_pool::{CollectingEventSink, EventRecord, ManualClock, PoolConfig, WindowConfig};
use std::sync::Arc;

fn serve(cfg: NetConfig) -> NetServer {
    NetServer::bind("127.0.0.1:0", cfg).expect("bind ephemeral loopback port")
}

fn connect(server: &NetServer) -> NetClient {
    NetClient::connect(server.local_addr()).expect("connect")
}

/// A pipelined batch is one frame, one ticket, one response: writes and
/// the reads that depend on them land in a single round trip, and reads
/// inside the batch observe the batch's own earlier writes.
#[test]
fn pipelined_batch_round_trips_and_reads_see_batch_writes() {
    let server = serve(NetConfig::default().pool(PoolConfig::default().workers(2)));
    let mut client = connect(&server);
    client.hello(9).expect("hello");

    let results = client
        .call_batch(&[
            "class Staff = class {} end;",
            "insert(Staff, IDView([Name = \"wire\"]))",
            "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)",
        ])
        .expect("batch");
    assert_eq!(results.len(), 3);
    for r in &results {
        assert!(r.is_ok(), "batch entry failed: {r:?}");
    }
    assert!(
        results[2].as_ref().unwrap().contains("wire"),
        "read inside the batch must see the batch's write: {:?}",
        results[2]
    );

    // A failing statement gets a structured per-entry error while its
    // batch-mates still answer.
    let mixed = client
        .call_batch(&["1 + 1", "does_not_exist", "2 + 2"])
        .expect("mixed batch");
    assert!(mixed[0].is_ok());
    assert_eq!(mixed[1].as_ref().unwrap_err().1, "type");
    assert!(mixed[2].is_ok());

    // Pipelining proper: three statements on the wire before any
    // response is read; pool-accepted responses come back in request
    // order (a ping's immediate response may overtake them).
    let a = client.send_stmt("1 + 1").expect("send");
    let b = client.send_stmt("2 + 2").expect("send");
    let c = client.send_stmt("3 + 3").expect("send");
    let p = client.send_ping().expect("ping");
    let mut stmt_order = Vec::new();
    let mut saw_pong = false;
    for _ in 0..4 {
        let resp = client.recv().expect("response");
        match resp.reply {
            Reply::Ok(ref v) if v == "pong" => {
                assert_eq!(resp.id, Some(p));
                saw_pong = true;
            }
            Reply::Ok(_) => stmt_order.push(resp.id.expect("stmt responses carry ids")),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(saw_pong);
    assert_eq!(
        stmt_order,
        vec![a, b, c],
        "pipelined responses arrive in request order"
    );

    let stats = server.stats();
    assert_eq!(stats.frames_invalid, 0);
    assert_eq!(stats.rejected_busy, 0);
    server.shutdown();
}

/// Two connections that `hello` the same session id share affinity and
/// ordering: a read submitted after a write's response observes it.
#[test]
fn read_your_writes_across_connections_sharing_a_session() {
    let server = serve(NetConfig::default().pool(PoolConfig::default().workers(4)));
    let mut writer = connect(&server);
    let mut reader = connect(&server);
    writer.hello(42).expect("hello");
    reader.hello(42).expect("hello");

    writer.call("val shared = 7;").expect("write");
    let got = reader.call("shared + 1").expect("read after write");
    assert!(got.contains('8'), "read must observe the write: {got}");
    server.shutdown();
}

/// With the single worker parked inside the pause gate, the pool's
/// bounded queue fills deterministically; the overflowing request gets
/// `{"id":N,"busy":true}` immediately — overtaking the still-queued
/// responses — and the connection keeps working after release.
#[test]
fn busy_rejection_under_a_paused_worker() {
    let server = serve(
        NetConfig::default()
            .pool(PoolConfig::default().workers(1).queue_capacity(2))
            .max_in_flight(16),
    );
    let mut client = connect(&server);
    client.hello(1).expect("hello");
    client.call("val y = 10;").expect("warm the replica");

    let gate = server.with_pool(|p| p.pause_worker(0)).expect("pause");
    let q1 = client.send_stmt("y + 1").expect("send");
    let q2 = client.send_stmt("y + 2").expect("send");
    let q3 = client.send_stmt("y + 3").expect("send");

    // The worker is parked, so the only response that can arrive is the
    // rejection of the request that overflowed the queue.
    let resp = client.recv().expect("busy response");
    assert_eq!(resp.id, Some(q3));
    assert_eq!(resp.reply, Reply::Busy);
    assert_eq!(server.stats().rejected_busy, 1);

    gate.release();
    let r1 = client.recv().expect("first queued");
    let r2 = client.recv().expect("second queued");
    assert_eq!(r1.id, Some(q1));
    assert_eq!(r2.id, Some(q2));
    assert!(matches!(r1.reply, Reply::Ok(ref v) if v.contains("11")));
    assert!(matches!(r2.reply, Reply::Ok(ref v) if v.contains("12")));

    // Rejection is not an error state: the connection serves on.
    assert!(client
        .call("y + 3")
        .expect("post-busy statement")
        .contains("13"));
    server.shutdown();
}

/// The per-connection in-flight cap rejects before the pool is even
/// consulted: with a cap of 1 and the worker parked, the second
/// pipelined request bounces even though the queue has room.
#[test]
fn in_flight_cap_rejects_before_the_pool() {
    let server = serve(
        NetConfig::default()
            .pool(PoolConfig::default().workers(1).queue_capacity(8))
            .max_in_flight(1),
    );
    let mut client = connect(&server);
    client.hello(1).expect("hello");
    client.call("val z = 1;").expect("warm the replica");

    let gate = server.with_pool(|p| p.pause_worker(0)).expect("pause");
    let first = client.send_stmt("z + 1").expect("send");
    let second = client.send_stmt("z + 2").expect("send");

    let resp = client.recv().expect("busy response");
    assert_eq!(resp.id, Some(second));
    assert_eq!(resp.reply, Reply::Busy);

    gate.release();
    let resp = client.recv().expect("queued response");
    assert_eq!(resp.id, Some(first));
    assert!(matches!(resp.reply, Reply::Ok(ref v) if v.contains('2')));
    server.shutdown();
}

/// Malformed and oversized frames are values, not disconnects: each
/// gets a structured `proto` error on its own line and the connection
/// keeps serving.
#[test]
fn malformed_and_oversized_frames_keep_the_connection_alive() {
    let server = serve(
        NetConfig::default()
            .pool(PoolConfig::default().workers(1))
            .max_frame_bytes(128),
    );
    let mut client = connect(&server);

    // Not JSON at all.
    client.send_line("this is not a frame").expect("send");
    let resp = client.recv().expect("proto error");
    assert_eq!(resp.id, None);
    assert!(matches!(resp.reply, Reply::Err { ref kind, .. } if kind == "proto"));

    // Well-formed JSON, ill-formed frame — the id still comes back.
    client.send_line(r#"{"op":"stmt","id":9}"#).expect("send");
    let resp = client.recv().expect("proto error");
    assert_eq!(resp.id, Some(9));
    assert!(matches!(resp.reply, Reply::Err { ref kind, .. } if kind == "proto"));

    // Unknown op.
    client.send_line(r#"{"op":"warp","id":10}"#).expect("send");
    let resp = client.recv().expect("proto error");
    assert_eq!(resp.id, Some(10));
    assert!(matches!(resp.reply, Reply::Err { ref kind, .. } if kind == "proto"));

    // An oversized line is consumed in discard mode — bounded memory,
    // one error, no panic, no silent drop.
    let huge = "x".repeat(4096);
    client.send_line(&huge).expect("send");
    let resp = client.recv().expect("proto error");
    assert_eq!(resp.id, None);
    assert!(
        matches!(resp.reply, Reply::Err { ref kind, ref message } if kind == "proto" && message.contains("128")),
        "oversized frames name the bound: {resp:?}"
    );

    // The connection is still alive and well.
    let id = client.send_ping().expect("ping");
    let resp = client.recv().expect("pong");
    assert_eq!(resp.id, Some(id));
    assert!(matches!(resp.reply, Reply::Ok(ref v) if v == "pong"));
    assert!(client
        .call("1 + 1")
        .expect("statement after garbage")
        .contains('2'));

    let stats = server.stats();
    assert_eq!(stats.frames_invalid, 4);
    assert_eq!(stats.conns_open, 1, "the connection never dropped");
    server.shutdown();
}

/// Graceful drain: a write already accepted when the drain begins still
/// completes, its response is flushed before the socket closes, and the
/// returned pool has the write applied.
#[test]
fn graceful_drain_completes_in_flight_writes() {
    let server = serve(NetConfig::default().pool(PoolConfig::default().workers(1)));
    let mut client = connect(&server);
    client.hello(3).expect("hello");

    // Park the worker so the write is provably still in flight, then
    // put it on the wire and wait for the server to have accepted it:
    // `frames_decoded` ticks at decode time, and the reader submits
    // synchronously right after, so once the counter reads 2 (hello +
    // stmt) the request is either queued or about to be — both on the
    // drain's guaranteed-completion side.
    let gate = server.with_pool(|p| p.pause_worker(0)).expect("pause");
    let id = client.send_stmt("val net_drain = 41;").expect("send write");
    while server.stats().frames_decoded < 2 {
        std::thread::yield_now();
    }

    let drainer = std::thread::spawn(move || server.drain());
    gate.release();
    let mut pool = drainer.join().expect("drain");

    // The response was flushed before the connection closed…
    let resp = client.recv().expect("drained write still answered");
    assert_eq!(resp.id, Some(id));
    assert!(
        matches!(resp.reply, Reply::Ok(_)),
        "write completed: {resp:?}"
    );
    // …and the close is a clean EOF, not an error.
    assert!(matches!(client.recv(), Err(ClientError::Closed)));

    // The returned pool kept the sequenced write.
    assert_eq!(pool.log_len(), 1);
    let got = pool
        .run(3, "net_drain + 1")
        .expect("read from drained pool");
    assert!(got.contains("42"), "write visible after drain: {got}");
    pool.shutdown();
}

/// One trace id spans the whole path: `net.read` / `net.decoded` on the
/// socket side share the id the pool mints at submit, through
/// `pool.*` sequencing to the `engine.*` phase spans.
#[test]
fn one_trace_id_spans_socket_to_engine() {
    let sink = Arc::new(CollectingEventSink::new());
    let clock = Arc::new(ManualClock::with_step(1));
    let server = serve(
        NetConfig::default().pool(
            PoolConfig::default()
                .workers(1)
                .telemetry_clock(clock.clone())
                .event_sink(sink.clone()),
        ),
    );
    let mut client = connect(&server);
    client.call("val x = 1;").expect("traced write");
    server.shutdown();

    let events = sink.events();
    let accepted: Vec<&EventRecord> = events.iter().filter(|e| e.name == "net.accepted").collect();
    assert_eq!(accepted.len(), 1, "one connection, one accept event");
    assert_eq!(
        accepted[0].trace_id, 0,
        "no request exists yet at accept time"
    );
    let conn = attr(accepted[0], "conn").expect("accept carries the connection id");

    let net_read = events
        .iter()
        .find(|e| e.name == "net.read")
        .expect("net.read emitted");
    let trace = net_read.trace_id;
    assert_ne!(trace, 0, "net.read carries the pool-minted trace id");
    assert_eq!(attr(net_read, "conn"), Some(conn));

    // The full timeline under that one id, socket to engine. The shared
    // step clock gives every span a distinct (end, start) key, so the
    // sort reconstructs the unique timeline.
    let mut evs: Vec<&EventRecord> = events.iter().filter(|e| e.trace_id == trace).collect();
    evs.sort_by_key(|e| (e.start_ns + e.dur_ns, e.start_ns));
    let names: Vec<&str> = evs.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "net.read",
            "net.decoded",
            "pool.submitted",
            "pool.classified",
            "pool.sequenced",
            "pool.enqueued",
            "pool.dequeued",
            "pool.catchup",
            "engine.parse",
            "engine.infer",
            "engine.lower",
            "engine.eval",
            "pool.completed",
        ],
        "one id stitches socket, router, worker, and engine"
    );
}

fn attr(e: &EventRecord, key: &str) -> Option<u64> {
    e.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

/// Walk a path of nested object members inside a decoded `stats` reply.
fn member<'v>(members: &'v [(String, JsonValue)], path: &[&str]) -> Option<&'v JsonValue> {
    let (first, rest) = path.split_first()?;
    let v = JsonValue::get(members, first)?;
    rest.iter().try_fold(v, |v, key| {
        v.as_object().and_then(|m| JsonValue::get(m, key))
    })
}

/// The `stats` op round-trips with deterministic windowed values: under
/// a manual clock the window spans exactly the nanoseconds we advanced
/// and the counter deltas are exactly the statements we submitted, so
/// the computed rate is exact.
#[test]
fn stats_round_trips_with_deterministic_windows() {
    let clock = Arc::new(ManualClock::new());
    let server = serve(
        NetConfig::default().pool(
            PoolConfig::default()
                .workers(2)
                .telemetry_clock(clock.clone())
                .stats_window(WindowConfig {
                    capacity: 8,
                    interval_ns: 1_000,
                }),
        ),
    );
    let mut client = connect(&server);
    client.hello(1).expect("hello");
    client.call("val windowed = 1;").expect("write");

    // First stats call takes the window's first snapshot: no window yet.
    let stats = client.stats().expect("stats");
    assert_eq!(
        member(&stats, &["health"]).and_then(JsonValue::as_str),
        Some("healthy")
    );
    assert_eq!(
        member(&stats, &["workers"]).and_then(JsonValue::as_u64),
        Some(2)
    );
    assert_eq!(
        member(&stats, &["window"]),
        Some(&JsonValue::Null),
        "one snapshot is not a window"
    );
    assert_eq!(
        member(&stats, &["cumulative", "counters", "pool.submitted_writes"])
            .and_then(JsonValue::as_u64),
        Some(1)
    );
    let workers = member(&stats, &["per_worker"])
        .and_then(JsonValue::as_array)
        .expect("per-worker rows");
    assert_eq!(workers.len(), 2);
    for row in workers {
        let row = row.as_object().expect("row object");
        assert_eq!(
            JsonValue::get(row, "live").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(
            JsonValue::get(row, "replay_lag").and_then(JsonValue::as_u64),
            Some(0)
        );
    }

    // Advance exactly 2µs, submit exactly 4 reads, snapshot again: the
    // window must report delta 4 over span 2000ns — a rate of 2e6/s.
    clock.advance(2_000);
    for _ in 0..4 {
        client.call("windowed + 1").expect("read");
    }
    let stats = client.stats().expect("stats with a window");
    assert_eq!(
        member(&stats, &["window", "span_ns"]).and_then(JsonValue::as_u64),
        Some(2_000)
    );
    assert_eq!(
        member(&stats, &["window", "counters", "pool.submitted_reads"]).and_then(JsonValue::as_u64),
        Some(4)
    );
    assert_eq!(
        member(&stats, &["window", "rates", "pool.submitted_reads"]).and_then(JsonValue::as_u64),
        Some(2_000_000),
        "4 reads over 2000ns is exactly 2e6/s"
    );
    // Cumulative counters are untouched by windowing.
    assert_eq!(
        member(&stats, &["cumulative", "counters", "pool.submitted_reads"])
            .and_then(JsonValue::as_u64),
        Some(4)
    );
    server.shutdown();
}

/// `health` answers as an immediate while every pool queue is full —
/// the whole point of not routing it through the worker queues. The
/// probe goes down the same connection whose responses are wedged
/// behind the paused worker, so the answer provably overtakes them.
#[test]
fn health_answers_while_every_queue_is_full() {
    let server = serve(
        NetConfig::default()
            .pool(PoolConfig::default().workers(1).queue_capacity(2))
            .max_in_flight(16),
    );
    let mut client = connect(&server);
    client.hello(1).expect("hello");
    client.call("val hp = 1;").expect("warm the replica");

    let (verdict, reasons) = client.health().expect("health on an idle server");
    assert_eq!(verdict, "healthy", "{reasons:?}");

    let gate = server.with_pool(|p| p.pause_worker(0)).expect("pause");
    let q1 = client.send_stmt("hp + 1").expect("send");
    let q2 = client.send_stmt("hp + 2").expect("send");

    // Both queue slots are taken and the worker is parked: nothing can
    // answer except an immediate.
    let (verdict, reasons) = client.health().expect("health while saturated");
    assert_eq!(verdict, "unhealthy", "{reasons:?}");
    assert!(
        reasons.iter().any(|r| r.contains("at capacity")),
        "expected a queue-capacity reason, got {reasons:?}"
    );
    // `stats` is served by the reader too, without touching the queues.
    let stats = client.stats().expect("stats while saturated");
    assert_eq!(
        member(&stats, &["max_queue_depth"]).and_then(JsonValue::as_u64),
        Some(2)
    );

    gate.release();
    let r1 = client.recv().expect("first queued");
    let r2 = client.recv().expect("second queued");
    assert_eq!(r1.id, Some(q1));
    assert_eq!(r2.id, Some(q2));
    let (verdict, reasons) = client.health().expect("health after release");
    assert_eq!(verdict, "healthy", "{reasons:?}");
    server.shutdown();
}

/// `watch` turns the connection push-capable: the server emits
/// `{"push":seq,"stats":{...}}` frames on its own initiative until
/// `unwatch`, whose ack arrives in order even with pushes in flight.
#[test]
fn watch_pushes_stats_until_unwatch() {
    let server = serve(NetConfig::default().pool(PoolConfig::default().workers(1)));
    let mut client = connect(&server);
    client.hello(1).expect("hello");
    client.call("val watched = 1;").expect("write");

    client.watch(5).expect("watch ack");
    let mut seqs = Vec::new();
    while seqs.len() < 2 {
        let resp = client.recv().expect("pushed frame");
        match resp.reply {
            Reply::Push { seq, stats } => {
                assert_eq!(resp.id, None, "pushes answer no request");
                assert_eq!(
                    member(&stats, &["health"]).and_then(JsonValue::as_str),
                    Some("healthy")
                );
                seqs.push(seq);
            }
            other => panic!("expected a push, got {other:?}"),
        }
    }
    assert_eq!(seqs, vec![1, 2], "push sequence numbers are contiguous");

    // `unwatch` acks (skipping any pushes already in flight) and the
    // connection still serves requests afterwards.
    client.unwatch().expect("unwatch ack");
    assert!(client.call("watched + 1").expect("statement").contains('2'));
    assert!(server.stats().watch_pushes >= 2);
    server.shutdown();
}
