//! End-to-end request telemetry through the pool (ISSUE 4): one trace id
//! stitches router and replica views, latency histograms carry exact
//! values under a deterministic clock, the slow log captures outliers,
//! and the disabled path is provably inert.
//!
//! Every test injects a [`ManualClock`] with a 1 ns step: each
//! clock read returns the current time and advances it by 1, so every
//! timestamp in a trace is a distinct, fully determined integer — the
//! timeline assertions below are exact, not approximate.

use polyview_pool::{CollectingEventSink, EventRecord, ManualClock, Pool, PoolConfig, StmtClass};
use std::sync::Arc;

/// Events of one trace in timeline order. Arrival order in the sink can
/// race between the router and the worker for a few nanoseconds-apart
/// events, but the shared step clock gives every event a distinct
/// (end, start) key, so sorting by span end reconstructs the unique
/// timeline. Ties (instant events stamped at the same reading) only occur
/// between events emitted by one thread, whose arrival order the stable
/// sort preserves.
fn timeline(sink: &CollectingEventSink, trace_id: u64) -> Vec<EventRecord> {
    let mut evs: Vec<EventRecord> = sink
        .events()
        .into_iter()
        .filter(|e| e.trace_id == trace_id)
        .collect();
    evs.sort_by_key(|e| (e.start_ns + e.dur_ns, e.start_ns));
    evs
}

fn names(evs: &[EventRecord]) -> Vec<&str> {
    evs.iter().map(|e| e.name.as_str()).collect()
}

fn attr(e: &EventRecord, key: &str) -> Option<u64> {
    e.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

fn traced_pool(workers: usize) -> (Pool, Arc<CollectingEventSink>, Arc<ManualClock>) {
    let sink = Arc::new(CollectingEventSink::new());
    let clock = Arc::new(ManualClock::with_step(1));
    let pool = Pool::new(
        PoolConfig::default()
            .workers(workers)
            .telemetry_clock(clock.clone())
            .event_sink(sink.clone()),
    );
    (pool, sink, clock)
}

#[test]
fn one_trace_id_stitches_a_write_end_to_end() {
    let (mut pool, sink, _clock) = traced_pool(1);
    let session = 7;
    pool.run(session, "val x = 1;").expect("write");

    let evs = timeline(&sink, 1);
    println!("trace 1 timeline:");
    for e in &evs {
        println!(
            "  {} start={} dur={} attrs={:?}",
            e.name, e.start_ns, e.dur_ns, e.attrs
        );
    }

    // The deterministic lifecycle: submit → classify → sequence →
    // enqueue → dequeue → catch-up → engine phases → complete. (A `val`
    // declaration has no translate phase — that span appears on view
    // queries.)
    assert_eq!(
        names(&evs),
        vec![
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
        ]
    );

    // Exact timestamps under the 1 ns step clock.
    let by_name = |n: &str| evs.iter().find(|e| e.name == n).unwrap();
    let submitted = by_name("pool.submitted");
    assert_eq!((submitted.start_ns, submitted.dur_ns), (0, 0));
    assert_eq!(attr(submitted, "session"), Some(session));
    let classified = by_name("pool.classified");
    assert_eq!((classified.start_ns, classified.dur_ns), (0, 0));
    assert_eq!(attr(classified, "class"), Some(1), "1 = write");
    let sequenced = by_name("pool.sequenced");
    assert_eq!((sequenced.start_ns, sequenced.dur_ns), (1, 0));
    assert_eq!(attr(sequenced, "offset"), Some(0));
    let enqueued = by_name("pool.enqueued");
    assert_eq!((enqueued.start_ns, enqueued.dur_ns), (1, 0));
    assert_eq!(attr(enqueued, "worker"), Some(0));
    let dequeued = by_name("pool.dequeued");
    assert_eq!(
        (dequeued.start_ns, dequeued.dur_ns),
        (1, 1),
        "queue wait spans enqueue → dequeue"
    );
    assert_eq!(attr(dequeued, "generation"), Some(0));
    let catchup = by_name("pool.catchup");
    assert_eq!((catchup.start_ns, catchup.dur_ns), (2, 1));
    assert_eq!(attr(catchup, "replayed"), Some(0));
    let completed = by_name("pool.completed");
    // 2 router reads + 2 worker reads before the engine, 4 spans × 2
    // reads inside it, then the completion read itself: e2e is exactly
    // 12 steps.
    assert_eq!((completed.start_ns, completed.dur_ns), (0, 12));
    assert_eq!(attr(completed, "ok"), Some(1));

    // Every engine phase span carries the owning request's trace id as
    // its parent — the cross-thread stitch.
    for phase in [
        "engine.parse",
        "engine.infer",
        "engine.lower",
        "engine.eval",
    ] {
        let e = by_name(phase);
        assert_eq!(e.parent, Some(1), "{phase} must parent to the trace");
        assert_eq!(attr(e, "worker"), Some(0));
    }

    // Exact histogram observations.
    let stats = pool.stats();
    assert_eq!(stats.queue_wait.count, 1);
    assert_eq!((stats.queue_wait.min, stats.queue_wait.max), (1, 1));
    assert_eq!(stats.catchup.count, 1);
    assert_eq!((stats.catchup.min, stats.catchup.max), (1, 1));
    assert_eq!(stats.e2e_write.count, 1);
    assert_eq!(stats.e2e_write.sum, completed.dur_ns);
    assert_eq!(stats.e2e_read.count, 0);
    pool.shutdown();
}

#[test]
fn reads_trace_through_the_statement_cache_path() {
    let (mut pool, sink, _clock) = traced_pool(1);
    pool.run(3, "val n = 20;").expect("write");
    pool.run(3, "n + 1").expect("read");
    pool.run(3, "n + 1").expect("cached read");

    // Trace 2: the first read, compiled fresh.
    let evs = timeline(&sink, 2);
    println!("trace 2 timeline: {:?}", names(&evs));
    assert_eq!(names(&evs)[..2], ["pool.submitted", "pool.classified"]);
    assert_eq!(attr(&evs[1], "class"), Some(0), "0 = read");
    assert!(
        !names(&evs).contains(&"pool.sequenced"),
        "reads are never sequenced"
    );
    assert!(names(&evs).contains(&"engine.eval"));
    assert_eq!(*names(&evs).last().unwrap(), "pool.completed");

    // Trace 3: the identical read hits the statement cache — no parse or
    // inference spans, but the eval span still carries the new trace id.
    let evs = timeline(&sink, 3);
    println!("trace 3 timeline: {:?}", names(&evs));
    assert!(!names(&evs).contains(&"engine.parse"));
    assert!(!names(&evs).contains(&"engine.infer"));
    let eval = evs.iter().find(|e| e.name == "engine.eval").unwrap();
    assert_eq!(eval.parent, Some(3));

    let stats = pool.stats();
    assert_eq!(stats.e2e_read.count, 2);
    assert_eq!(stats.e2e_write.count, 1);
    pool.shutdown();
}

#[test]
fn catchup_time_is_attributed_when_a_replica_replays() {
    // Two workers: a write lands on the session's affinity worker; a read
    // probed at the *other* replica replays the log first, and its trace
    // records how many entries the catch-up applied.
    let (mut pool, sink, _clock) = traced_pool(2);
    let session = 1;
    let writer = pool.worker_for(session);
    let other_session = (0..64)
        .find(|s| pool.worker_for(*s) != writer)
        .expect("some session maps to the other worker");
    pool.run(session, "val a = 1;").expect("write");
    pool.run(other_session, "a + 1")
        .expect("read on the other replica");

    let evs = timeline(&sink, 2);
    let catchup = evs.iter().find(|e| e.name == "pool.catchup").unwrap();
    // The other replica may have applied the entry already via the eager
    // CatchUp nudge (it raced the read) — but read-your-writes held
    // either way, and the catch-up event says which happened.
    let replayed = attr(catchup, "replayed").unwrap();
    assert!(replayed <= 1);
    let stats = pool.stats();
    assert_eq!(stats.catchup.count, 2);
    pool.shutdown();
}

#[test]
fn slow_requests_are_ring_buffered_above_the_threshold() {
    let sink = Arc::new(CollectingEventSink::new());
    let clock = Arc::new(ManualClock::with_step(1));
    let mut pool = Pool::new(
        PoolConfig::default()
            .workers(1)
            .telemetry_clock(clock.clone())
            .event_sink(sink.clone())
            .slow_threshold_ns(1)
            .slow_log_capacity(2),
    );
    pool.run(9, "val a = 1;").expect("write");
    pool.run(9, "a + 1").expect("read");
    pool.run(9, "a + 2").expect("read");

    // Threshold 1 ns: every request is "slow"; capacity 2 keeps the last
    // two, oldest evicted.
    let slow = pool.slow_requests();
    assert_eq!(slow.len(), 2);
    assert_eq!(slow[0].id, 2);
    assert_eq!(slow[1].id, 3);
    assert_eq!(slow[1].session, 9);
    assert_eq!(slow[1].worker, 0);
    assert_eq!(slow[1].class, StmtClass::Read);
    assert_eq!(slow[1].src, "a + 2");
    assert!(slow[1].e2e_ns >= 1);
    assert!(slow[1].e2e_ns >= slow[1].queue_wait_ns + slow[1].catchup_ns);

    // The slow log is rendered in the stats Display.
    let stats = pool.stats();
    let shown = stats.to_string();
    assert!(shown.contains("slow       id=2"), "display:\n{shown}");
    assert!(shown.contains("latency    e2e read"), "display:\n{shown}");
    pool.shutdown();
}

#[test]
fn no_slow_requests_below_the_threshold() {
    let clock = Arc::new(ManualClock::with_step(1));
    let mut pool = Pool::new(
        PoolConfig::default()
            .workers(1)
            .telemetry_clock(clock.clone())
            .slow_threshold_ns(1_000_000_000),
    );
    pool.run(9, "val a = 1;").expect("write");
    pool.run(9, "a + 1").expect("read");
    assert!(pool.slow_requests().is_empty());
    let stats = pool.stats();
    assert_eq!(stats.e2e_read.count, 1, "histograms still fill");
    pool.shutdown();
}

#[test]
fn worker_lost_requests_still_emit_a_terminal_event() {
    let (mut pool, sink, _clock) = traced_pool(1);
    pool.run(5, "val a = 1;").expect("write");

    // Order deterministically: pause the worker, queue a crash, then
    // queue a traced read *behind* the crash — the worker dies before
    // serving it, so the reply channel drops and the ticket emits the
    // terminal event.
    let gate = pool.pause_worker(0).expect("pause");
    assert!(pool.queue_worker_panic(0));
    let ticket = pool
        .submit_read(5, "a + 1")
        .expect("classify")
        .queued()
        .expect("queued");
    gate.release();
    let err = ticket.wait().expect_err("worker died first");
    assert!(err.is_worker_lost());

    let evs = timeline(&sink, 2);
    println!("lost trace timeline: {:?}", names(&evs));
    assert_eq!(*names(&evs).last().unwrap(), "pool.worker_lost");
    assert!(!names(&evs).contains(&"pool.completed"));
    let lost = evs.last().unwrap();
    assert_eq!(attr(lost, "worker"), Some(0));
    assert!(lost.dur_ns > 0, "spans submit → loss detection");

    // The lost request still counts in the e2e histogram.
    let stats = pool.stats();
    assert_eq!(stats.e2e_read.count, 1);
    pool.shutdown();
}

#[test]
fn e2e_counts_match_submissions_across_a_respawn() {
    let (mut pool, sink, _clock) = traced_pool(1);
    pool.run(2, "val a = 1;").expect("write");
    pool.run(2, "a + 1").expect("read");
    pool.inject_worker_panic(0);
    pool.run(2, "val b = 2;").expect("write after respawn");
    pool.run(2, "a + b").expect("read after respawn");

    let stats = pool.stats();
    assert_eq!(stats.respawns, 1);
    assert_eq!(stats.e2e_write.count, 2);
    assert_eq!(stats.e2e_read.count, 2);
    assert_eq!(
        stats.queue_wait.count, 4,
        "every served request waited once"
    );

    // Requests served by the respawned replica are tagged generation 1.
    let last = timeline(&sink, 4);
    let completed = last.iter().find(|e| e.name == "pool.completed").unwrap();
    assert_eq!(attr(completed, "generation"), Some(1));

    // The respawn's replay runs untraced: its engine spans carry trace
    // id 0 and no parent.
    let replay: Vec<EventRecord> = sink
        .events()
        .into_iter()
        .filter(|e| e.trace_id == 0 && e.name.starts_with("engine."))
        .collect();
    assert!(!replay.is_empty(), "replayed entries emit untraced spans");
    assert!(replay.iter().all(|e| e.parent.is_none()));
    pool.shutdown();
}

#[test]
fn disabled_telemetry_reads_no_clock_and_emits_nothing() {
    let sink = Arc::new(CollectingEventSink::new());
    let clock = Arc::new(ManualClock::with_step(1));
    let cfg = PoolConfig::default()
        .workers(1)
        .telemetry_clock(clock.clone())
        .event_sink(sink.clone())
        .telemetry_enabled(false); // explicit off wins over the sink builder
    let mut pool = Pool::new(cfg);
    pool.run(1, "val a = 1;").expect("write");
    pool.run(1, "a + 1").expect("read");

    assert_eq!(clock.reads(), 0, "disabled path must never read the clock");
    assert!(sink.is_empty(), "disabled path must never emit");
    let stats = pool.stats();
    assert_eq!(stats.queue_wait.count, 0);
    assert_eq!(stats.e2e_read.count + stats.e2e_write.count, 0);
    assert!(pool.slow_requests().is_empty());
    pool.shutdown();
}

// ----- sampled continuous profiling (DESIGN.md §14) -----

#[test]
fn sampled_profiles_merge_into_worker_stats_and_slow_log() {
    let clock = Arc::new(ManualClock::with_step(1));
    let mut pool = Pool::new(
        PoolConfig::default()
            .workers(1)
            .telemetry_clock(clock.clone())
            .profile_sample_every(1)
            .slow_threshold_ns(1)
            .slow_log_capacity(8),
    );
    // A mutual group with a row-polymorphic field read: every profiled
    // request attributes runtime fallback sites too.
    pool.run(3, "fun step r = r.Steps and same r = step(r);")
        .expect("write");
    pool.run(3, "step([Steps := 4])").expect("read");
    pool.run(3, "step([Steps := 5])").expect("read");

    let stats = pool.stats();
    let w = &stats.per_worker[0];
    assert_eq!(w.profile_samples, 3, "every-1 samples every request");
    let profile = w.profile.as_ref().expect("merged worker profile");
    assert!(profile.total_ns() > 0);
    assert!(
        profile.fallback_sites.iter().any(|s| s.label == "Steps"),
        "fallback attribution crosses the worker boundary: {:?}",
        profile.fallback_sites
    );

    // Slow-log entries carry their own per-request profile.
    let slow = pool.slow_requests();
    assert!(!slow.is_empty());
    for s in &slow {
        let p = s.profile.as_ref().expect("sampled slow request profile");
        assert!(p.total_ns() > 0);
    }

    // The fleet snapshot surfaces the sample count in both renderings.
    let shown = stats.to_string();
    assert!(shown.contains("samples=3"), "display:\n{shown}");
    assert!(pool
        .metrics_json()
        .contains("\"name\":\"pool.worker0.profile_samples\",\"value\":3"));
    pool.shutdown();
}

#[test]
fn sampling_every_n_profiles_the_first_and_every_nth_request() {
    let mut pool = Pool::new(PoolConfig::default().workers(1).profile_sample_every(2));
    pool.run(3, "val a = 1;").expect("write"); // request 0: sampled
    pool.run(3, "a + 1").expect("read"); // 1: skipped
    pool.run(3, "a + 2").expect("read"); // 2: sampled
    pool.run(3, "a + 3").expect("read"); // 3: skipped
    let stats = pool.stats();
    assert_eq!(stats.per_worker[0].profile_samples, 2);
    assert!(stats.per_worker[0].profile.is_some());
    pool.shutdown();
}

#[test]
fn profiling_is_off_by_default_in_the_pool() {
    let clock = Arc::new(ManualClock::with_step(1));
    let mut pool = Pool::new(
        PoolConfig::default()
            .workers(1)
            .telemetry_clock(clock.clone())
            .slow_threshold_ns(1),
    );
    pool.run(3, "val a = 1;").expect("write");
    pool.run(3, "a + 1").expect("read");
    let stats = pool.stats();
    assert_eq!(stats.per_worker[0].profile_samples, 0);
    assert!(stats.per_worker[0].profile.is_none());
    assert!(pool.slow_requests().iter().all(|s| s.profile.is_none()));
    assert!(!stats.to_string().contains("profile "), "no profile row");
    pool.shutdown();
}
