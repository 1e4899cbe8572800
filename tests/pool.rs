//! Tier-1 tests for the serving layer (`crates/pool`, DESIGN.md §10).
//!
//! Everything here is deterministic and std-only: pauses use the pool's
//! gate hook (no sleeps), crashes use the injection hook (the thread is
//! dead before the call returns), and convergence is checked by probing
//! every replica for the same query after a barrier.

use polyview::EngineStats;
use polyview_pool::{
    Clock, CollectingEventSink, ManualClock, Pool, PoolConfig, PoolError, StmtClass, Submit,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const NAMES_QUERY: &str = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)";

fn small_pool(workers: usize) -> Pool {
    // Small queues so backpressure is reachable; default stack/fuel.
    Pool::new(PoolConfig::default().workers(workers).queue_capacity(8))
}

/// After any interleaving of writes from two sessions, all replicas have
/// the same declaration epoch and answer queries identically — the
/// declaration log imposes one total order on writes, and replay is
/// deterministic.
#[test]
fn interleaved_writes_converge_on_all_replicas() {
    let mut pool = small_pool(4);
    let (alice, bob) = (11, 22);

    pool.run(alice, "class Staff = class {} end;")
        .expect("class");
    // Interleave writes from two sessions (their affinity workers differ
    // or coincide — either way the log sequences them).
    for i in 0..6 {
        let (session, name) = if i % 2 == 0 {
            (alice, format!("A{i}"))
        } else {
            (bob, format!("B{i}"))
        };
        pool.run(
            session,
            &format!("insert(Staff, IDView([Name = \"{name}\"]))"),
        )
        .expect("insert");
    }
    pool.run(bob, "val answer = 42;").expect("val");

    let applied = pool.barrier().expect("barrier");
    assert_eq!(applied.len(), 4);
    assert!(applied.iter().all(|&a| a == pool.log_len()));

    // Every replica answers the same query with the same rendering…
    let expected = pool.probe_worker(0, NAMES_QUERY).expect("probe");
    assert!(
        expected.contains("A0") && expected.contains("B5"),
        "{expected}"
    );
    for w in 1..pool.worker_count() {
        assert_eq!(pool.probe_worker(w, NAMES_QUERY).expect("probe"), expected);
    }
    for w in 0..pool.worker_count() {
        assert_eq!(pool.probe_worker(w, "answer").expect("probe"), "42");
    }

    // …and reports the same declaration epoch.
    let stats = pool.stats();
    let epochs: Vec<u64> = stats.per_worker.iter().map(|w| w.env_epoch).collect();
    assert_eq!(epochs.len(), 4);
    assert!(
        epochs.windows(2).all(|p| p[0] == p[1]),
        "replicas diverged: {epochs:?}"
    );
    pool.shutdown();
}

/// A session sees its own writes immediately: reads carry the log length
/// observed at submit time, so the serving replica catches up first (and
/// session affinity keeps the session on one warmed replica throughout).
#[test]
fn read_your_writes_under_session_affinity() {
    let mut pool = small_pool(3);
    let session = 7;
    let affinity = pool.worker_for(session);

    pool.run(session, "val x = 1;").expect("write");
    assert_eq!(pool.run(session, "x").expect("read"), "1");

    for i in 2..6 {
        let t = pool
            .submit_write(session, &format!("val x = {i};"))
            .expect("classified")
            .queued()
            .expect("queued");
        assert_eq!(t.worker(), affinity, "writes follow session affinity");
        t.wait().expect("write applies");
        let r = pool
            .submit_read(session, "x")
            .expect("classified")
            .queued()
            .expect("queued");
        assert_eq!(r.worker(), affinity, "reads follow session affinity");
        assert_eq!(r.wait().expect("read"), i.to_string());
    }
    pool.shutdown();
}

/// A full queue reports `Submit::Full` instead of queueing unboundedly,
/// and clears once the worker drains.
#[test]
fn backpressure_reports_full_on_a_full_queue() {
    let mut pool = Pool::new(PoolConfig::default().workers(1).queue_capacity(2));
    let session = 1;
    assert_eq!(pool.worker_for(session), 0);

    // Warm the replica, then hold it inside a pause request so nothing
    // dequeues — deterministic, no timing.
    pool.run(session, "val y = 10;").expect("write");
    let gate = pool.pause_worker(0).expect("pause");

    // Fill the queue to capacity, then observe backpressure.
    let mut tickets = Vec::new();
    loop {
        match pool.submit_read(session, "y + 1").expect("classified") {
            Submit::Queued(t) => tickets.push(t),
            Submit::Full => break,
        }
        assert!(tickets.len() <= 2, "queue accepted more than its capacity");
    }
    assert!(pool
        .submit_read(session, "y + 1")
        .expect("classified")
        .is_full());
    // Writes are backpressured too — and a rejected write is NOT
    // sequenced: the log must not grow.
    let log_before = pool.log_len();
    assert!(pool
        .submit_write(session, "val y = 99;")
        .expect("classified")
        .is_full());
    assert_eq!(pool.log_len(), log_before);

    // `stats` never messages workers, so it is safe while one is paused
    // with a full queue.
    let stats = pool.stats();
    assert!(stats.rejected_full >= 2, "got {}", stats.rejected_full);

    // Release the worker: every queued ticket resolves.
    gate.release();
    for t in tickets {
        assert_eq!(t.wait().expect("drained"), "11");
    }
    assert_eq!(pool.run(session, "y + 1").expect("after drain"), "11");
    pool.shutdown();
}

/// A panicked worker is respawned and catches up by replaying the log from
/// offset 0: it converges to the same state as its peers, and the respawn
/// is counted in pool stats.
#[test]
fn worker_panic_respawns_and_replays() {
    let mut pool = small_pool(2);
    let session = 5;
    pool.run(session, "class Staff = class {} end;")
        .expect("class");
    pool.run(session, "insert(Staff, IDView([Name = \"Eve\"]))")
        .expect("insert");
    pool.run(session, "val marker = 123;").expect("val");
    pool.barrier().expect("barrier");

    pool.inject_worker_panic(0);

    // The next interaction respawns worker 0; the barrier then waits for
    // its full replay.
    let applied = pool.barrier().expect("barrier after crash");
    assert!(applied.iter().all(|&a| a == pool.log_len()));
    let stats = pool.stats();
    assert_eq!(stats.respawns, 1);
    let w0 = stats.per_worker.iter().find(|w| w.worker == 0).expect("w0");
    assert_eq!(w0.generation, 1, "respawned slot bumps its generation");
    assert_eq!(w0.replay_lag, 0);

    // The respawned replica answers exactly like the survivor.
    let fresh = pool.probe_worker(0, NAMES_QUERY).expect("respawned");
    let survivor = pool.probe_worker(1, NAMES_QUERY).expect("survivor");
    assert_eq!(fresh, survivor);
    assert_eq!(pool.probe_worker(0, "marker").expect("probe"), "123");
    pool.shutdown();
}

/// An in-flight request on a crashed worker resolves to `WorkerLost`
/// rather than hanging, and a resubmit succeeds against the respawn.
#[test]
fn inflight_request_on_crashed_worker_reports_worker_lost() {
    let mut pool = Pool::new(PoolConfig::default().workers(1).queue_capacity(4));
    let session = 3;
    pool.run(session, "val z = 9;").expect("write");

    // Hold the worker inside a pause, queue a crash *ahead of* the read,
    // then release: the worker dequeues Crash first and dies with the read
    // still queued — its reply sender drops with the queue.
    let gate = pool.pause_worker(0).expect("pause");
    assert!(pool.queue_worker_panic(0), "crash queued");
    let stuck = pool
        .submit_read(session, "z")
        .expect("classified")
        .queued()
        .expect("queued");
    gate.release();
    pool.await_worker_exit(0);
    assert!(
        stuck.wait().expect_err("lost").is_worker_lost(),
        "queued request behind a crash resolves to WorkerLost"
    );

    // Respawn + replay: state is intact.
    assert_eq!(pool.run(session, "z").expect("resubmit"), "9");
    assert_eq!(pool.stats().respawns, 1);
    pool.shutdown();
}

/// A call of a declared effectful function contains no `insert` node, so
/// the syntactic pre-filter classifies it as a read. The serving replica's
/// read region stops it before it mutates anything and promotes it: it is
/// sequenced through the log and applied on every replica, never executed
/// on a single one. Syntactic writes are still rejected up front.
#[test]
fn effectful_function_calls_are_sequenced_as_writes() {
    let mut pool = small_pool(3);
    let s = 1;
    pool.run(s, "class Staff = class {} end;").expect("class");
    pool.run(s, "fun add x = insert(Staff, x);").expect("fun");

    let call = "add(IDView([Name = \"Zoe\"]))";
    assert_eq!(pool.classify(call).expect("parses"), StmtClass::Read);
    // submit_read accepts the call, and the replica promotes it…
    let before = pool.log_len();
    let t = pool
        .submit_read(s, call)
        .expect("classified")
        .queued()
        .expect("queued");
    assert_eq!(t.wait().expect("promoted call"), "()");
    assert_eq!(pool.log_len(), before + 1, "the call went through the log");
    // …and so does a probe pinned to one replica.
    pool.probe_worker(0, "add(IDView([Name = \"Ida\"]))")
        .expect("promoted probe");
    // Aliases reach the same function; the auto-routing path promotes too.
    pool.run(s, "val add2 = add;").expect("alias");
    pool.run(s, "add2(IDView([Name = \"Max\"]))")
        .expect("aliased call");
    assert_eq!(pool.stats().reads_promoted, 3);
    assert_eq!(pool.log_len(), before + 4);

    // A syntactic write is still refused as a read before it is enqueued.
    assert!(pool
        .submit_read(s, "insert(Staff, IDView([Name = \"No\"]))")
        .expect_err("misrouted")
        .is_misrouted());
    assert!(pool
        .probe_worker(0, "insert(Staff, IDView([Name = \"No\"]))")
        .expect_err("probe")
        .is_misrouted());

    pool.barrier().expect("barrier");
    let expected = pool.probe_worker(0, NAMES_QUERY).expect("probe");
    assert_eq!(expected, "{\"Ida\", \"Max\", \"Zoe\"}");
    for w in 1..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, NAMES_QUERY).expect("probe"),
            expected,
            "replica {w} diverged"
        );
    }
    pool.shutdown();
}

/// An effectful closure reached through *data*: `put` stores a closure
/// that inserts into `Staff` in every element of `boxes`, and the last
/// statement calls it through a field read. No syntax names the effect,
/// so the statement is served as a read — the replica's read region
/// refuses the insert and the pool sequences it instead. Exactly one
/// entry and one promotion, and every replica sees the insert.
#[test]
fn effects_reached_through_data_are_promoted_and_converge() {
    let mut pool = small_pool(3);
    let s = 1;
    pool.run(
        s,
        "class Staff = class {} end; \
         fun put b = update(b, F, fn x => insert(Staff, x)); \
         val boxes = {[F := fn x => if x = IDView([Name = \"q\"]) then () else ()]}; \
         map(put, boxes);",
    )
    .expect("setup");
    let escape = "map(fn b => (b.F)(IDView([Name = \"Eve\"])), boxes)";
    assert_eq!(pool.classify(escape).expect("parses"), StmtClass::Read);
    let log_before = pool.log_len();
    pool.run(s, escape).expect("promoted");
    assert_eq!(pool.log_len(), log_before + 1);
    assert_eq!(pool.stats().reads_promoted, 1);

    pool.barrier().expect("barrier");
    for w in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, NAMES_QUERY).expect("probe"),
            "{\"Eve\"}",
            "replica {w} diverged"
        );
    }
    pool.shutdown();
}

/// A promotion appends at the log tail, so the replica catches up past
/// writes that are still waiting in its own queue. Those writes must still
/// reply with their own outcomes, not an "already replayed" error.
#[test]
fn promotion_ahead_of_a_queued_write_keeps_the_writes_outcome() {
    let mut pool = Pool::new(PoolConfig::default().workers(1).queue_capacity(4));
    let s = 1;
    pool.run(
        s,
        "class Staff = class {} end; fun add x = insert(Staff, x);",
    )
    .expect("setup");
    let gate = pool.pause_worker(0).expect("pause");
    let read = pool
        .submit_read(s, "add(IDView([Name = \"Pia\"]))")
        .expect("classified")
        .queued()
        .expect("queued");
    let write = pool
        .submit_write(s, "val z = 5;")
        .expect("classified")
        .queued()
        .expect("queued");
    gate.release();
    assert_eq!(read.wait().expect("promoted"), "()");
    assert_eq!(write.wait().expect("queued write"), "z : int");
    assert_eq!(pool.log_len(), 3, "setup, the write, then the promotion");
    assert_eq!(pool.run(s, "z").expect("read"), "5");
    assert_eq!(pool.run(s, NAMES_QUERY).expect("read"), "{\"Pia\"}");
    pool.shutdown();
}

/// Reads whose effects hide behind names or data are promoted; reads that
/// only look like they might be (a shadowing local, a pure view class) are
/// served in place and leave the log alone.
#[test]
fn read_regions_promote_exactly_the_effectful_reads() {
    const C_NAMES: &str = "cquery(fn s => map(fn o => query(fn x => x.N, o), s), C)";
    let obj = "IDView([N = 1])";
    let cases: [(&str, &str, String, &str, Option<&str>); 7] = [
        (
            "declared function",
            "fun f x = insert(C, x);",
            format!("f({obj})"),
            C_NAMES,
            Some("{1}"),
        ),
        (
            "val alias",
            "fun f x = insert(C, x); val g = f;",
            format!("g({obj})"),
            C_NAMES,
            Some("{1}"),
        ),
        (
            "mutual recursion",
            "fun f x = insert(C, x) and g y = f(y);",
            format!("g({obj})"),
            C_NAMES,
            Some("{1}"),
        ),
        (
            "stored closure",
            "val box = [F := fn x => if x = IDView([N = 0]) then () else ()]; \
             update(box, F, fn x => insert(C, x));",
            format!("(box.F)({obj})"),
            C_NAMES,
            Some("{1}"),
        ),
        (
            "effectful where predicate",
            "insert(C, IDView([N = 1])); class Audit = class {} end; \
             fun track x = insert(Audit, x); \
             class Logged = class {} include C as fn x => [N = x.N] \
             where fn x => let u = track(x) in true end end;",
            "cquery(fn s => map(fn o => query(fn x => x.N, o), s), Logged)".to_string(),
            "cquery(fn s => map(fn o => query(fn x => x.N, o), s), Audit)",
            Some("{1}"),
        ),
        (
            "local shadowing",
            "fun f x = insert(C, x);",
            "let f = fn x => x in f(1) end".to_string(),
            C_NAMES,
            None,
        ),
        (
            "pure view class",
            "insert(C, IDView([N = 1, Sex = \"f\"])); \
             class Female = class {} include C as fn x => [N = x.N] \
             where fn x => query(fn p => p.Sex = \"f\", x) end;",
            "cquery(fn s => s, Female)".to_string(),
            C_NAMES,
            None,
        ),
    ];
    for (what, setup, read, probe, promoted) in cases {
        let mut pool = small_pool(2);
        pool.run(1, "class C = class {} end;").expect("class");
        pool.run(1, setup)
            .unwrap_or_else(|e| panic!("{what}: setup: {e}"));
        pool.barrier().expect("barrier");
        let probe_before = pool.probe_worker(0, probe).expect("probe");
        let log_before = pool.log_len();
        assert_eq!(pool.classify(&read).expect("parses"), StmtClass::Read);
        pool.run(1, &read)
            .unwrap_or_else(|e| panic!("{what}: read: {e}"));
        let stats = pool.stats();
        match promoted {
            Some(after) => {
                assert_eq!(stats.reads_promoted, 1, "{what}");
                assert_eq!(pool.log_len(), log_before + 1, "{what}");
                pool.barrier().expect("barrier");
                for w in 0..pool.worker_count() {
                    assert_eq!(
                        pool.probe_worker(w, probe).expect("probe"),
                        after,
                        "{what}: replica {w}"
                    );
                }
            }
            None => {
                assert_eq!(stats.reads_promoted, 0, "{what}");
                assert_eq!(pool.log_len(), log_before, "{what}");
                assert_eq!(pool.probe_worker(0, probe).expect("probe"), probe_before);
            }
        }
        pool.shutdown();
    }
}

/// A read that instantiates a weak type variable leaves it free: the
/// type side of a read is a region too, so the write that later fixes the
/// variable applies identically on a replica that served the read and on
/// one that did not, and nothing is promoted.
#[test]
fn a_read_through_a_weak_type_variable_keeps_replicas_identical() {
    let mut pool = small_pool(2);
    // Not a value, so `f : t -> t` with `t` free, not quantified.
    pool.run(1, "val f = (fn x => x)(fn y => y);")
        .expect("weak f");
    pool.barrier().expect("barrier");
    assert_eq!(pool.probe_worker(0, "f(1)").expect("read"), "1");
    assert_eq!(pool.run(1, "val z = f(true);").expect("write"), "z : bool");
    pool.barrier().expect("barrier");
    for w in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, "z").expect("probe"),
            "true",
            "replica {w}"
        );
    }
    // `t` is bool everywhere now, so `f(1)` is one type error everywhere.
    let errors: Vec<PoolError> = (0..pool.worker_count())
        .map(|w| pool.probe_worker(w, "f(1)").expect_err("ill typed"))
        .collect();
    assert!(matches!(errors[0], PoolError::Type(_)), "{:?}", errors[0]);
    assert_eq!(errors[0], errors[1]);
    let stats = pool.stats();
    assert_eq!(stats.reads_promoted, 0);
    assert!(stats.per_worker.iter().all(|w| w.replay_errors == 0));
    pool.shutdown();
}

/// A write the type checker rejects changes no replica's types. `val tags`
/// gives the empty class `C0` a `Tag` requirement; worker 0 then serves
/// (and caches) a read that relies on it. The insert of a record without
/// `Tag` is rejected on every replica and leaves the requirement in place,
/// so the replica with the cached read and the one without still answer
/// alike, and a record with `Tag` still goes in.
#[test]
fn a_rejected_write_leaves_every_replica_typed_alike() {
    let tags = "cquery(fn s => map(fn o => query(fn x => x.Tag ^ \"!\", o), s), C0)";
    let mut pool = small_pool(2);
    pool.run(1, "class C0 = class {} end;").expect("class");
    pool.run(1, &format!("val tags = {tags};")).expect("tags");
    pool.barrier().expect("barrier");
    assert_eq!(pool.probe_worker(0, tags).expect("read"), "{}");
    let err = pool
        .run(1, "insert(C0, IDView([Name = \"n1\", Salary := 410]));")
        .expect_err("C0 needs a Tag");
    assert!(err.is_type(), "got {err:?}");
    pool.barrier().expect("barrier");
    for w in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, tags).expect("typed"),
            "{}",
            "replica {w}"
        );
    }
    pool.run(1, "insert(C0, IDView([Tag = \"t\"]))")
        .expect("a Tag record fits");
    pool.barrier().expect("barrier");
    for w in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, tags).expect("typed"),
            "{\"t!\"}",
            "replica {w}"
        );
    }
    let stats = pool.stats();
    let errors: Vec<u64> = stats.per_worker.iter().map(|w| w.replay_errors).collect();
    assert_eq!(errors, vec![1, 1]);
    pool.shutdown();
}

/// A write lost in flight was sequenced *before* it was enqueued, so the
/// respawned worker replays it from the log: the error carries the offset
/// (`sequenced: Some(_)`) and the caller must NOT resubmit — the effect
/// lands exactly once without it.
#[test]
fn lost_write_is_already_sequenced_and_still_applies() {
    let mut pool = Pool::new(PoolConfig::default().workers(1).queue_capacity(4));
    let s = 2;
    pool.run(s, "class Staff = class {} end;").expect("class");

    // Hold the worker, queue a crash, then sequence a write *behind* the
    // crash: the worker dies with the write still queued.
    let gate = pool.pause_worker(0).expect("pause");
    assert!(pool.queue_worker_panic(0), "crash queued");
    let t = pool
        .submit_write(s, "insert(Staff, IDView([Name = \"Ada\"]))")
        .expect("classified")
        .queued()
        .expect("queued");
    let offset = t.sequenced().expect("write tickets carry their offset");
    assert_eq!(offset + 1, pool.log_len());
    gate.release();
    pool.await_worker_exit(0);
    let err = t.wait().expect_err("lost");
    assert_eq!(
        err,
        PoolError::WorkerLost {
            sequenced: Some(offset)
        }
    );

    // No resubmit: the respawn's replay applies the sequenced write.
    // Exactly one Ada — resubmitting would have produced two.
    pool.barrier().expect("barrier");
    assert_eq!(
        pool.probe_worker(0, NAMES_QUERY).expect("probe"),
        "{\"Ada\"}"
    );
    assert_eq!(pool.stats().respawns, 1);
    pool.shutdown();
}

/// Misrouted statements are rejected by classification — the single
/// source of truth (`polyview::classify`) — before anything is enqueued
/// or sequenced.
#[test]
fn classification_guards_the_entry_points() {
    let mut pool = small_pool(2);
    let err = pool
        .submit_read(1, "val x = 1;")
        .expect_err("write as read");
    assert_eq!(
        err,
        PoolError::Misrouted {
            expected: StmtClass::Read,
            got: StmtClass::Write
        }
    );
    let err = pool.submit_write(1, "1 + 1").expect_err("read as write");
    assert!(err.is_misrouted());
    assert_eq!(pool.log_len(), 0, "nothing was sequenced");

    // Parse errors surface at submit, engine errors through the ticket.
    assert!(pool.submit(1, "val = 3").expect_err("parse").is_parse());
    let t = pool
        .submit(1, "1 + true")
        .expect("classified")
        .queued()
        .unwrap();
    assert!(t.wait().expect_err("type error").is_type());
    pool.shutdown();
}

/// Deterministic failures replay identically: an entry that fails on one
/// replica fails on all of them, and replicas stay converged afterwards.
#[test]
fn failing_writes_replay_deterministically() {
    let mut pool = small_pool(3);
    pool.run(1, "class Staff = class {} end;").expect("class");
    // `update` on an immutable field classifies as a write and fails to
    // type-check — on every replica equally.
    pool.run(1, "val r = [Name = \"Joe\"];").expect("val");
    let err = pool
        .run(1, "update(r, Name, \"P\")")
        .expect_err("type error");
    assert!(err.is_type(), "got {err:?}");
    pool.barrier().expect("barrier");

    let stats = pool.stats();
    let errors: Vec<u64> = stats.per_worker.iter().map(|w| w.replay_errors).collect();
    assert!(
        errors.windows(2).all(|p| p[0] == p[1]),
        "replicas disagree on replay errors: {errors:?}"
    );
    let epochs: Vec<u64> = stats.per_worker.iter().map(|w| w.env_epoch).collect();
    assert!(epochs.windows(2).all(|p| p[0] == p[1]), "{epochs:?}");
    pool.shutdown();
}

/// Shutdown drains and joins every worker without deadlock — including
/// with queued work — and dropping a pool does the same.
#[test]
fn clean_shutdown_with_queued_work() {
    let mut pool = small_pool(4);
    pool.run(9, "val v = 5;").expect("write");
    let mut tickets = Vec::new();
    for _ in 0..16 {
        if let Submit::Queued(t) = pool.submit_read(9, "v * v").expect("classified") {
            tickets.push(t);
        }
    }
    pool.shutdown(); // joins; queued requests were served or dropped
    for t in tickets {
        match t.wait() {
            Ok(v) => assert_eq!(v, "25"),
            Err(e) => assert_eq!(e, PoolError::WorkerLost { sequenced: None }),
        }
    }

    // Drop-based shutdown must not hang either.
    let mut pool = small_pool(2);
    pool.run(1, "val w = 1;").expect("write");
    drop(pool);
}

/// A paused replica stalls no observation: with worker 0 parked in its
/// pause gate, `stats` and `metrics_json` return at once and still report
/// both replicas. The calls run on a scoped thread that the test waits for
/// with a timeout; on a timeout the gate is released first, so a stall
/// fails the test instead of hanging it.
#[test]
fn a_paused_replica_does_not_stall_observation() {
    let mut pool = small_pool(2);
    pool.run(1, "val paused = 1;").expect("write");
    pool.barrier().expect("barrier");
    let gate = pool.pause_worker(0).expect("pause");
    let got = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel();
        let pool = &mut pool;
        s.spawn(move || {
            let _ = tx.send((pool.stats(), pool.metrics_json()));
        });
        let got = rx.recv_timeout(std::time::Duration::from_secs(3));
        drop(gate);
        got
    });
    let (stats, metrics) = got.expect("stats and metrics_json return while worker 0 is paused");
    assert_eq!(stats.per_worker.len(), 2);
    assert!(stats.per_worker.iter().all(|w| w.live && w.applied == 1));
    assert!(stats.engine.parses > 0, "{:?}", stats.engine);
    for needle in [
        "\"name\":\"engine.parses\"",
        "\"name\":\"worker0.engine.parses\"",
        "\"name\":\"worker1.engine.parses\"",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }
    pool.shutdown();
}

/// Pool metrics merge every replica's registry: pool gauges, merged
/// engine counters, and per-worker namespaced lines, one JSON object per
/// line.
#[test]
fn pool_metrics_are_aggregated_json_lines() {
    let mut pool = small_pool(2);
    pool.run(4, "val m = 2;").expect("write");
    pool.run(4, "m + m").expect("read");
    pool.barrier().expect("barrier");

    let out = pool.metrics_json();
    for line in out.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    for needle in [
        "\"name\":\"pool.workers\",\"value\":2",
        "\"name\":\"pool.submitted_reads\"",
        "\"name\":\"pool.reads_promoted\",\"value\":0",
        "\"name\":\"pool.worker0.replay_lag\"",
        "\"name\":\"pool.worker1.queue_depth\"",
        "\"name\":\"engine.parses\"",
        "\"name\":\"worker0.phase.eval_ns\"",
        "\"name\":\"worker1.engine.parses\"",
    ] {
        assert!(out.contains(needle), "missing {needle} in:\n{out}");
    }

    // The merged engine counters equal the sum over replicas.
    let stats = pool.stats();
    let summed: u64 = stats.per_worker.iter().map(|w| w.engine.parses).sum();
    assert_eq!(stats.engine.parses, summed);
    pool.shutdown();
}

/// `metrics_json` renders the pool snapshot: every counter and gauge the
/// window ring and the `stats` op see is exported under the same name.
#[test]
fn metrics_json_exports_every_pool_snapshot_metric() {
    let mut pool = small_pool(2);
    pool.run(4, "val m = 2;").expect("write");
    pool.run(4, "m + m").expect("read");
    pool.barrier().expect("barrier");

    let snap = pool.registry_snapshot(0);
    let out = pool.metrics_json();
    for (kind, names) in [("counter", &snap.counters), ("gauge", &snap.gauges)] {
        for name in names.keys() {
            let needle = format!("{{\"kind\":\"{kind}\",\"name\":\"{name}\",");
            assert!(out.contains(&needle), "missing {needle} in:\n{out}");
        }
    }
    for name in [
        "pool.workers",
        "pool.replay_errors",
        "pool.slow_requests",
        "pool.worker0.applied",
        "pool.worker1.applied",
    ] {
        assert!(
            snap.counters.contains_key(name) || snap.gauges.contains_key(name),
            "{name} missing from the snapshot"
        );
    }
    pool.shutdown();
}

/// The pool serves the same language the single engine does — a smoke
/// test that the paper's workflow (classes, views, queries) survives
/// replication end to end.
#[test]
fn paper_workflow_through_the_pool() {
    let mut pool = small_pool(2);
    let s = 1;
    pool.run(s, "class Staff = class {} end;").expect("class");
    pool.run(
        s,
        "insert(Staff, IDView([Name = \"Alice\", Sex = \"female\"]))",
    )
    .expect("insert");
    pool.run(s, "insert(Staff, IDView([Name = \"Bob\", Sex = \"male\"]))")
        .expect("insert");
    pool.run(
        s,
        "class Female = class {} include Staff as fn x => [Name = x.Name] \
         where fn x => query(fn p => p.Sex = \"female\", x) end;",
    )
    .expect("view class");
    pool.barrier().expect("barrier");
    let expected = "{\"Alice\"}";
    for w in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(
                w,
                "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)"
            )
            .expect("probe"),
            expected
        );
    }
    pool.shutdown();
}

/// The payoff of per-name dependency invalidation, multiplied by
/// replication: an unrelated `val` rebind is replayed on every replica
/// without evicting any replica's statement cache, while rebinding a name
/// the cached query depends on invalidates on every replica.
#[test]
fn unrelated_rebind_keeps_replica_caches_warm() {
    let mut pool = small_pool(3);
    let s = 7;
    pool.run(s, "class Staff = class {} end;").expect("class");
    pool.run(s, "insert(Staff, IDView([Name = \"Alice\"]))")
        .expect("insert");
    pool.barrier().expect("barrier");

    // Warm every replica's statement cache (second probe is the hit).
    for w in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, NAMES_QUERY).expect("cold"),
            "{\"Alice\"}"
        );
        pool.probe_worker(w, NAMES_QUERY).expect("warm");
    }

    // An unrelated rebind is sequenced and replayed everywhere…
    pool.run(s, "val unrelated = 1;").expect("rebind");
    pool.barrier().expect("barrier");
    let before = pool.stats();
    for w in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, NAMES_QUERY).expect("still warm"),
            "{\"Alice\"}"
        );
    }
    let after = pool.stats();
    // …and every replica still serves the query from its cache.
    for (b, a) in before.per_worker.iter().zip(after.per_worker.iter()) {
        assert_eq!(b.worker, a.worker);
        assert_eq!(
            a.engine.stmt_cache_hits,
            b.engine.stmt_cache_hits + 1,
            "worker {} lost its cached statement to an unrelated rebind",
            a.worker
        );
        assert_eq!(
            a.engine.stmt_cache_dep_invalidations, b.engine.stmt_cache_dep_invalidations,
            "worker {} saw a spurious dep invalidation",
            a.worker
        );
    }

    // Rebinding a name the query depends on invalidates on every replica.
    pool.run(s, "class Staff = class {} end;")
        .expect("rebind dep");
    pool.barrier().expect("barrier");
    let before = pool.stats();
    for w in 0..pool.worker_count() {
        assert_eq!(pool.probe_worker(w, NAMES_QUERY).expect("recompiles"), "{}");
    }
    let after = pool.stats();
    for (b, a) in before.per_worker.iter().zip(after.per_worker.iter()) {
        assert_eq!(
            a.engine.stmt_cache_dep_invalidations,
            b.engine.stmt_cache_dep_invalidations + 1,
            "worker {} must drop the stale compilation",
            a.worker
        );
        assert_eq!(a.engine.stmt_cache_hits, b.engine.stmt_cache_hits);
    }
    pool.shutdown();
}

/// The compile tier composes with replication: statements compiled to
/// offset form stay warm in every replica's cache across unrelated log
/// replay, a respawned worker rebuilds its cache by replaying the same
/// compiled pipeline, and no replica ever falls back to dynamic field
/// lookup on this workload.
#[test]
fn compiled_statements_stay_warm_across_replay_and_respawn() {
    let mut pool = small_pool(2);
    let s = 9;
    pool.run(s, "val alice = IDView([Name = \"Alice\", Age = 40]);")
        .expect("val");
    pool.run(s, "class Staff = class {alice} end;")
        .expect("class");
    pool.run(
        s,
        "fun names c = cquery(fn x => map(fn o => query(fn r => r.Name, o), x), c);",
    )
    .expect("fun");
    pool.barrier().expect("barrier");

    // Warm every replica (the first probe compiles through the tier).
    for w in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, "names Staff").expect("cold"),
            "{\"Alice\"}"
        );
    }

    // An unrelated write replays everywhere; the compiled statements
    // survive it — the second probe is a pure cache hit (no re-inference,
    // hence no re-lowering either: hits run the stored offset code).
    pool.run(s, "val tick = 1;").expect("write");
    pool.barrier().expect("barrier");
    let before = pool.stats();
    for w in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, "names Staff").expect("warm"),
            "{\"Alice\"}"
        );
    }
    let after = pool.stats();
    for (b, a) in before.per_worker.iter().zip(after.per_worker.iter()) {
        assert_eq!(b.worker, a.worker);
        assert_eq!(
            a.engine.stmt_cache_hits,
            b.engine.stmt_cache_hits + 1,
            "worker {} lost its compiled statement to replay",
            a.worker
        );
        assert_eq!(
            a.engine.inferences, b.engine.inferences,
            "worker {} re-inferred on a warm hit",
            a.worker
        );
    }

    // A respawned worker replays the whole log through the same compile
    // tier, then re-fills its (fresh) statement cache on first probe and
    // hits on the second.
    pool.inject_worker_panic(0);
    pool.barrier().expect("respawn");
    assert_eq!(
        pool.probe_worker(0, "names Staff").expect("recompiles"),
        "{\"Alice\"}"
    );
    let before = pool.stats();
    assert_eq!(
        pool.probe_worker(0, "names Staff").expect("hit"),
        "{\"Alice\"}"
    );
    let after = pool.stats();
    let b0 = before
        .per_worker
        .iter()
        .find(|w| w.worker == 0)
        .expect("w0");
    let a0 = after.per_worker.iter().find(|w| w.worker == 0).expect("w0");
    assert_eq!(a0.engine.stmt_cache_hits, b0.engine.stmt_cache_hits + 1);

    // Every replica — survivor and respawn alike — ran this workload
    // entirely through integer offsets.
    for w in &after.per_worker {
        assert!(
            w.engine.eval.field_offsets_resolved > 0,
            "worker {} never used the offset tier",
            w.worker
        );
        assert_eq!(
            w.engine.eval.dyn_field_fallbacks, 0,
            "worker {} fell back to dynamic lookup",
            w.worker
        );
    }
    pool.shutdown();
}

/// The acceptance drill for bounded recovery: with checkpointing every 4
/// applied writes, a replica that crashes at log offset L respawns from
/// the checkpoint at offset K and replays **exactly L − K** entries —
/// not L — and still answers queries identically to an untouched
/// replica.
#[test]
fn checkpointed_respawn_replays_exactly_the_log_tail() {
    let mut pool = Pool::new(
        PoolConfig::default()
            .workers(2)
            .queue_capacity(8)
            .checkpoint_every(4),
    );
    pool.run(1, "class Staff = class {} end;").expect("class");
    for i in 0..9 {
        pool.run(1, &format!("insert(Staff, IDView([Name = \"N{i}\"]))"))
            .expect("insert");
    }
    let log_len = pool.log_len();
    assert_eq!(log_len, 10, "L = 10 writes sequenced");
    // Every replica has applied all 10 entries, so the checkpoint grid
    // (every 4) has deterministically produced one at offset 8.
    pool.barrier().expect("barrier");

    pool.inject_worker_panic(0);
    pool.barrier().expect("respawn and converge");

    let stats = pool.stats();
    let w0 = stats.per_worker.iter().find(|w| w.worker == 0).expect("w0");
    let w1 = stats.per_worker.iter().find(|w| w.worker == 1).expect("w1");
    assert_eq!(w0.generation, 1, "worker 0 was respawned");
    assert_eq!(
        w0.respawn_replayed,
        log_len - 8,
        "respawn must replay exactly the tail above the checkpoint at 8, \
         not the whole log"
    );
    assert_eq!(
        w1.respawn_replayed, 0,
        "the untouched replica never bootstrapped"
    );
    assert_eq!(w0.env_epoch, w1.env_epoch, "replicas diverged");

    // The respawned replica answers exactly like the untouched one.
    let restored = pool.probe_worker(0, NAMES_QUERY).expect("probe respawn");
    let untouched = pool.probe_worker(1, NAMES_QUERY).expect("probe survivor");
    assert_eq!(restored, untouched);
    assert!(
        restored.contains("N0") && restored.contains("N8"),
        "{restored}"
    );
    pool.shutdown();
}

/// Compaction drops entries below the newest checkpoint once every
/// replica is past them; offsets stay absolute, a read below the cut is
/// a loud [`polyview_pool::TruncatedRead`], and the pool keeps serving —
/// including through a post-compaction respawn, which must bootstrap
/// from the checkpoint rather than ever touching the truncated prefix.
#[test]
fn log_compaction_keeps_offsets_absolute_and_respawn_safe() {
    let mut pool = Pool::new(
        PoolConfig::default()
            .workers(2)
            .queue_capacity(8)
            .checkpoint_every(3),
    );
    pool.run(1, "class Staff = class {} end;").expect("class");
    for i in 0..6 {
        pool.run(1, &format!("insert(Staff, IDView([Name = \"C{i}\"]))"))
            .expect("insert");
    }
    pool.barrier().expect("barrier");
    // 7 writes, checkpoints at 3 and 6, every replica at 7: the explicit
    // compaction pass cuts at min(6, 7) = 6.
    let base = pool.compact_log();
    assert_eq!(base, 6);
    assert_eq!(pool.log_len(), 7, "len counts compacted history");
    assert_eq!(pool.log_base(), 6);

    // Surviving offsets read normally; compacted ones are loud errors,
    // never silent empties.
    assert!(pool.log().get(6).expect("live offset").is_some());
    let err = pool.log().get(2).expect_err("below the cut is loud");
    assert_eq!(err.offset, 2);
    assert_eq!(err.base, 6);

    // The pool keeps serving across the cut, and a respawned replica
    // (which can never read below the base) still converges.
    pool.run(1, "insert(Staff, IDView([Name = \"C6\"]))")
        .expect("write after compaction");
    pool.inject_worker_panic(1);
    pool.barrier().expect("respawn");
    let a = pool.probe_worker(0, NAMES_QUERY).expect("probe");
    let b = pool.probe_worker(1, NAMES_QUERY).expect("probe");
    assert_eq!(a, b);
    assert!(a.contains("C0") && a.contains("C6"), "{a}");
    pool.shutdown();
}

/// A sequenced write that fails during apply fails deterministically on
/// every replica — the pool is serving from state the log can no longer
/// reproduce cleanly. Health must scream, not average it into a rate.
#[test]
fn replay_errors_surface_as_unhealthy() {
    let mut pool = small_pool(2);
    assert!(pool.health().health.is_healthy());
    pool.run(1, "val rec = [Name = \"Joe\"];").expect("val");
    // Classifies as a write (update syntax), fails to type-check on
    // every replica: one replay error each.
    let err = pool
        .run(1, "update(rec, Name, \"P\")")
        .expect_err("immutable field");
    assert!(err.is_type(), "got {err:?}");
    pool.barrier().expect("barrier");

    let report = pool.health();
    match &report.health {
        polyview_pool::Health::Unhealthy { reasons } => {
            assert!(
                reasons.iter().any(|r| r.contains("replay error")),
                "expected a replay-error reason, got {reasons:?}"
            );
        }
        other => panic!("expected Unhealthy, got {other:?}"),
    }
    pool.shutdown();
}

/// Growing the pool bootstraps the new replicas from the newest
/// checkpoint: they replay only the log tail, then answer exactly like
/// the replicas that lived through the whole history.
#[test]
fn add_workers_bootstraps_from_the_checkpoint() {
    let mut pool = Pool::new(
        PoolConfig::default()
            .workers(1)
            .queue_capacity(8)
            .checkpoint_every(2),
    );
    pool.run(1, "class Staff = class {} end;").expect("class");
    for i in 0..4 {
        pool.run(1, &format!("insert(Staff, IDView([Name = \"G{i}\"]))"))
            .expect("insert");
    }
    pool.barrier().expect("barrier");
    // 5 writes, newest checkpoint at offset 4.
    pool.add_workers(2);
    assert_eq!(pool.worker_count(), 3);
    pool.barrier().expect("new replicas converge");

    let stats = pool.stats();
    assert_eq!(stats.workers, 3);
    for w in &stats.per_worker {
        if w.worker == 0 {
            continue;
        }
        assert_eq!(
            w.respawn_replayed, 1,
            "worker {} must replay only the tail above the checkpoint at 4",
            w.worker
        );
    }
    let expected = pool.probe_worker(0, NAMES_QUERY).expect("probe");
    for w in 1..pool.worker_count() {
        assert_eq!(pool.probe_worker(w, NAMES_QUERY).expect("probe"), expected);
    }
    assert!(
        expected.contains("G0") && expected.contains("G3"),
        "{expected}"
    );
    pool.shutdown();
}

/// With a snapshot directory, a restarted process resumes from the
/// persisted checkpoint. A function declared in the compacted prefix still
/// works: calling it classifies as a read, and the replica promotes it.
#[test]
fn snapshot_dir_survives_a_process_restart() {
    let dir =
        std::env::temp_dir().join(format!("polyview-pool-restart-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || {
        PoolConfig::default()
            .workers(2)
            .queue_capacity(8)
            .checkpoint_every(2)
            .snapshot_dir(&dir)
    };

    // First life: build state, declare an effectful function, shut down.
    let mut pool = Pool::new(cfg());
    pool.run(1, "class Staff = class {} end;").expect("class");
    pool.run(1, "insert(Staff, IDView([Name = \"Ada\"]))")
        .expect("insert");
    pool.run(1, "insert(Staff, IDView([Name = \"Bob\"]))")
        .expect("insert");
    pool.run(1, "fun put x = insert(Staff, x);").expect("fun");
    pool.barrier().expect("barrier");
    // 4 writes, checkpoint at 4: everything survives the restart.
    pool.shutdown();

    // Second life: the log starts fully compacted at the checkpoint.
    let mut pool = Pool::new(cfg());
    assert_eq!(pool.log_len(), 4, "offsets stay absolute across restart");
    assert_eq!(pool.log_base(), 4, "the prefix is compacted, not replayed");
    // A row is provisional until its replica has booted.
    pool.barrier().expect("boot");
    let stats = pool.stats();
    for w in &stats.per_worker {
        assert!(w.booted, "worker {} has booted", w.worker);
        assert_eq!(
            w.respawn_replayed, 0,
            "restart bootstraps from the checkpoint with no tail to replay"
        );
    }
    // `put`'s defining source is gone with the truncated prefix; its call
    // is served as a read and promoted to the log by the replica.
    let call = "put(IDView([Name = \"Cy\"]))";
    assert_eq!(pool.classify(call).expect("classify"), StmtClass::Read);
    pool.run(1, call).expect("put");
    assert_eq!(pool.stats().reads_promoted, 1);
    assert_eq!(pool.log_len(), 5, "the promoted call was sequenced");
    pool.barrier().expect("barrier");
    let expected = pool.probe_worker(0, NAMES_QUERY).expect("probe");
    assert_eq!(expected, "{\"Ada\", \"Bob\", \"Cy\"}");
    for w in 1..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(w, NAMES_QUERY).expect("probe"),
            expected,
            "worker {w} diverged"
        );
    }
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clock that holds every reader while its gate is locked, and counts
/// its reads: a replica that reads it parks at its first timed step, and
/// the count says when it got there.
#[derive(Default)]
struct GatedClock {
    gate: Mutex<()>,
    reads: AtomicU64,
}

impl Clock for GatedClock {
    fn now_ns(&self) -> u64 {
        let t = self.reads.fetch_add(1, Ordering::SeqCst);
        drop(self.gate.lock().unwrap_or_else(|e| e.into_inner()));
        t
    }
}

/// `stats` reads a respawned replica's row without waiting for it to
/// boot, so until the replica has replayed the log that row is flagged
/// `booted: false` and carries boot-time values, never figures that pass
/// for a booted replica's. The clock gate parks the respawn inside its
/// replay (a traced engine reads the clock in every phase; no prelude is
/// loaded, so the first read is the replay's).
#[test]
fn a_booting_replica_row_is_flagged_until_it_boots() {
    let clock = Arc::new(GatedClock::default());
    let mut pool = Pool::new(
        PoolConfig::default()
            .workers(2)
            .telemetry_enabled(true)
            .telemetry_clock(clock.clone()),
    );
    pool.run(0, "val a = 1;").expect("write");
    pool.run(0, "val b = a + 1;").expect("write");
    pool.barrier().expect("barrier");
    let epoch = pool.stats().per_worker[1].env_epoch;
    assert!(epoch > 0);
    pool.inject_worker_panic(0);

    let held = clock.gate.lock().expect("gate");
    let reads = clock.reads.load(Ordering::SeqCst);
    assert_eq!(pool.stats().respawns, 1);
    while clock.reads.load(Ordering::SeqCst) == reads {
        std::thread::yield_now();
    }
    // The respawn is parked inside its replay.
    let stats = pool.stats();
    let w = &stats.per_worker[0];
    assert_eq!((w.generation, w.live, w.booted), (1, true, false));
    assert_eq!((w.env_epoch, w.respawn_replayed), (0, 0));
    assert_eq!(w.engine, EngineStats::default());
    assert!(stats.per_worker[1].booted);
    assert_eq!(stats.engine, stats.per_worker[1].engine);
    let shown = stats.to_string();
    assert!(
        shown.contains("epoch=0 booting\n"),
        "the row is marked in the display:\n{shown}"
    );
    drop(held);

    pool.barrier().expect("the respawn boots");
    let stats = pool.stats();
    let w = &stats.per_worker[0];
    assert!(w.booted);
    assert_eq!((w.env_epoch, w.respawn_replayed), (epoch, 2));
    assert!(w.engine.parses > 0, "replay parsed the log");
    assert!(!stats.to_string().contains("booting"));
    pool.shutdown();
}

/// Backpressure on a batch is all-or-nothing: against a full queue the
/// whole batch is rejected, nothing is sequenced, and no submission is
/// counted.
#[test]
fn batch_against_a_paused_worker_is_full_and_sequences_nothing() {
    let mut pool = Pool::new(PoolConfig::default().workers(1).queue_capacity(2));
    let s = 1;
    pool.run(s, "val y = 10;").expect("write");
    let gate = pool.pause_worker(0).expect("pause");
    let mut tickets = Vec::new();
    while let Submit::Queued(t) = pool.submit_read(s, "y + 1").expect("classified") {
        tickets.push(t);
    }

    let before = pool.stats();
    let log_before = pool.log_len();
    let batch = pool
        .submit_batch(s, &["val y = 11;", "y", "val z = y;"])
        .expect("classified");
    assert!(batch.is_full());
    let after = pool.stats();
    assert_eq!(
        pool.log_len(),
        log_before,
        "a rejected batch sequences nothing"
    );
    assert_eq!(after.submitted_reads, before.submitted_reads);
    assert_eq!(after.submitted_writes, before.submitted_writes);
    assert_eq!(after.rejected_full, before.rejected_full + 1);

    gate.release();
    for t in tickets {
        assert_eq!(t.wait().expect("drained"), "11");
    }
    assert_eq!(pool.run(s, "y").expect("unchanged"), "10");
    pool.shutdown();
}

/// A batch lost with its worker reports its first write's offset, like a
/// lost single write, and its writes still land on every replica.
#[test]
fn lost_batch_reports_its_first_write_and_still_applies() {
    let mut pool = small_pool(2);
    let s = 4;
    let w = pool.worker_for(s);
    pool.run(s, "class Staff = class {} end;").expect("class");

    let gate = pool.pause_worker(w).expect("pause");
    assert!(pool.queue_worker_panic(w), "crash queued");
    let first = pool.log_len();
    let t = pool
        .submit_batch(
            s,
            &[
                "insert(Staff, IDView([Name = \"Ada\"]))",
                NAMES_QUERY,
                "insert(Staff, IDView([Name = \"Bob\"]))",
            ],
        )
        .expect("classified")
        .queued()
        .expect("queued");
    assert_eq!(t.sequenced(), Some(first));
    assert_eq!(
        pool.log_len(),
        first + 2,
        "writes are sequenced contiguously"
    );
    gate.release();
    pool.await_worker_exit(w);
    assert_eq!(
        t.wait_all().expect_err("lost"),
        PoolError::WorkerLost {
            sequenced: Some(first)
        }
    );

    pool.barrier().expect("barrier");
    for worker in 0..pool.worker_count() {
        assert_eq!(
            pool.probe_worker(worker, NAMES_QUERY).expect("probe"),
            "{\"Ada\", \"Bob\"}",
            "worker {worker}"
        );
    }
    assert_eq!(pool.stats().respawns, 1);
    pool.shutdown();
}

/// A batch is served in order on one replica and answers item by item;
/// `wait` on a ticket for several statements is an error, not a panic.
#[test]
fn batch_items_are_served_in_order_and_wait_wants_one_item() {
    let mut pool = small_pool(2);
    let t = pool
        .submit_batch(9, &["val a = 1;", "a + 1", "1 + true", "val a = 5;", "a"])
        .expect("classified")
        .queued()
        .expect("queued");
    assert_eq!(t.sequenced(), Some(0));
    let results = t.wait_all().expect("served");
    assert_eq!(results.len(), 5);
    assert_eq!(results[0].as_deref(), Ok("a : int"));
    assert_eq!(results[1].as_deref(), Ok("2"), "reads see earlier writes");
    assert!(results[2].as_ref().expect_err("type error").is_type());
    assert_eq!(results[4].as_deref(), Ok("5"));

    let t = pool
        .submit_batch(9, &["a", "a"])
        .expect("classified")
        .queued()
        .expect("queued");
    assert_eq!(t.sequenced(), None, "a read-only batch sequences nothing");
    let err = t.wait().expect_err("two replies");
    assert!(matches!(err, PoolError::Internal(_)), "got {err:?}");
    assert!(
        pool.submit_batch(9, &[]).is_err(),
        "an empty batch is refused"
    );
    pool.shutdown();
}

/// A statement submitted alone and the same statement as a one-item batch
/// are the same request: same reply, same submission counts, and on a
/// traced pool the same event timeline, attributes included.
#[test]
fn a_statement_is_a_batch_of_one() {
    type Timeline = Vec<(String, Vec<(String, u64)>)>;
    fn serve(stmt: &str, as_batch: bool) -> (String, u64, u64, Timeline) {
        let sink = Arc::new(CollectingEventSink::new());
        let mut pool = Pool::new(
            PoolConfig::default()
                .workers(2)
                .telemetry_clock(Arc::new(ManualClock::with_step(1)))
                .event_sink(sink.clone()),
        );
        pool.run(1, "val x = 41;").expect("setup");
        pool.barrier().expect("barrier");
        let before = pool.stats();
        let ticket = if as_batch {
            pool.submit_batch(1, &[stmt])
        } else {
            pool.submit(1, stmt)
        }
        .expect("classified")
        .queued()
        .expect("queued");
        let trace = ticket.trace_id().expect("traced");
        let reply = ticket.wait().expect("served");
        let after = pool.stats();
        // Order by span end, then start: the step clock gives every
        // event a distinct reading (see `tests/pool_tracing.rs`).
        let mut events: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.trace_id == trace)
            .collect();
        events.sort_by_key(|e| (e.start_ns + e.dur_ns, e.start_ns));
        pool.shutdown();
        (
            reply,
            after.submitted_reads - before.submitted_reads,
            after.submitted_writes - before.submitted_writes,
            events.into_iter().map(|e| (e.name, e.attrs)).collect(),
        )
    }

    for (stmt, reads, writes) in [("x + 1", 1, 0), ("val y = x;", 0, 1)] {
        let alone = serve(stmt, false);
        assert_eq!((alone.1, alone.2), (reads, writes), "{stmt}");
        let classified = (
            "pool.classified".to_string(),
            vec![("class".to_string(), writes)],
        );
        assert!(alone.3.contains(&classified), "{stmt}: {:?}", alone.3);
        assert_eq!(alone.3.last().expect("events").0, "pool.completed");
        assert_eq!(serve(stmt, true), alone, "{stmt}");
    }
}
