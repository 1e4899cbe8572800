//! A miniature serving deployment of the pool (`crates/pool`,
//! DESIGN.md §10): several "client" threads issue writes and queries
//! against a replicated engine fleet, a worker crash is injected halfway
//! through, and the run ends with a convergence check plus the pool's
//! aggregated stats.
//!
//! The pool handle itself stays on the main thread (the router is
//! single-threaded by design); client threads hand their statements over a
//! plain channel, which is exactly the shape a network front-end would
//! take: accept loops parse requests, one router owns the fleet.
//!
//! With `--trace`, request telemetry is enabled (DESIGN.md §11): every
//! trace event of the run is printed to **stdout** as one JSON object per
//! line (prose moves to stderr), after being validated by the std-only
//! JSON checker in `polyview::obs::jsonl` — the `verify.sh` trace-smoke
//! gate consumes this stream.

//! With `--listen ADDR` the example becomes a real network front door
//! instead: it binds a `polyview_net::NetServer` on `ADDR` (port 0 for
//! ephemeral), optionally writes the resolved address to `--addr-file
//! PATH` for scripted clients (`examples/loadgen.rs`), serves until
//! `--requests N` frames have been decoded (or stdin reaches EOF when
//! no bound is given), then drains gracefully and prints both net and
//! pool stats. `--stats-interval MS` enables the pool's stats window
//! and emits a self-validated introspection snapshot (the same object
//! the `stats` wire op serves) to stdout every `MS` milliseconds — the
//! verify.sh stats gate consumes this stream. `--trace` works in this
//! mode too, dumping the combined `net.*` + pool + engine event
//! stream. The default in-process mode (`--in-process` to name it
//! explicitly) is unchanged.
//!
//! Durability (DESIGN.md §17, both modes): `--checkpoint-every N` makes
//! replicas publish an engine checkpoint every N applied writes —
//! bounding what a respawn replays and letting the router compact the
//! log — and `--snapshot-dir DIR` persists the newest checkpoint so a
//! restarted server resumes from it instead of empty. The verify.sh
//! snapshot gate drives both.

use polyview_net::{NetConfig, NetServer};
use polyview_pool::{CollectingEventSink, Pool, PoolConfig, Submit, WindowConfig};
use std::io::Read as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tracing = args.iter().any(|a| a == "--trace");
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let durability = Durability {
        checkpoint_every: flag_value("--checkpoint-every")
            .map(|n| n.parse::<u64>().expect("--checkpoint-every N")),
        snapshot_dir: flag_value("--snapshot-dir"),
    };
    if let Some(addr) = flag_value("--listen") {
        let addr_file = flag_value("--addr-file");
        let requests = flag_value("--requests").map(|n| n.parse::<u64>().expect("--requests N"));
        let stats_interval = flag_value("--stats-interval")
            .map(|n| n.parse::<u64>().expect("--stats-interval MS").max(1));
        run_listen(
            &addr,
            addr_file.as_deref(),
            requests,
            tracing,
            stats_interval,
            &durability,
        );
        return;
    }
    run_in_process(tracing, &durability);
}

/// The two durability flags, applied to either serving mode's pool.
struct Durability {
    checkpoint_every: Option<u64>,
    snapshot_dir: Option<String>,
}

impl Durability {
    fn apply(&self, mut cfg: PoolConfig) -> PoolConfig {
        if let Some(n) = self.checkpoint_every {
            cfg = cfg.checkpoint_every(n);
        }
        if let Some(dir) = &self.snapshot_dir {
            cfg = cfg.snapshot_dir(dir);
        }
        cfg
    }
}

/// Serve the pool over TCP until the frame budget (or stdin) runs out.
fn run_listen(
    addr: &str,
    addr_file: Option<&str>,
    requests: Option<u64>,
    tracing: bool,
    stats_interval_ms: Option<u64>,
    durability: &Durability,
) {
    let sink = Arc::new(CollectingEventSink::new());
    let mut pool_cfg = durability.apply(PoolConfig::default().workers(4).queue_capacity(256));
    if tracing {
        pool_cfg = pool_cfg.event_sink(sink.clone());
    }
    if let Some(ms) = stats_interval_ms {
        // Half the emit period so every emitter pass takes a fresh
        // snapshot even with scheduling jitter.
        pool_cfg = pool_cfg.stats_window(WindowConfig {
            capacity: 16,
            interval_ns: (ms * 1_000_000 / 2).max(1),
        });
    }
    let cfg = NetConfig::default()
        .pool(pool_cfg)
        .max_conns(32)
        .max_in_flight(16);
    let server = NetServer::bind(addr, cfg).expect("bind listen address");
    eprintln!("listening on {}", server.local_addr());
    if let Some(path) = addr_file {
        // The file's appearance is the readiness signal for clients, so
        // write the whole address atomically via a rename.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{}\n", server.local_addr())).expect("write addr file");
        std::fs::rename(&tmp, path).expect("publish addr file");
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if let Some(ms) = stats_interval_ms {
            let server = &server;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    emit_stats_line(&server.stats_json());
                }
            });
        }
        match requests {
            Some(target) => {
                // Exit once the wire has carried `target` decoded frames;
                // scripted runs (verify.sh) size their loadgen to match.
                while server.stats().frames_decoded < target {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
            None => {
                // Serve until the operator closes stdin.
                let mut sink = Vec::new();
                let _ = std::io::stdin().read_to_end(&mut sink);
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    // One final snapshot after the load, so bounded runs always emit at
    // least one line with the whole run inside its window.
    if stats_interval_ms.is_some() {
        emit_stats_line(&server.stats_json());
    }
    eprintln!("{}", server.stats());
    let mut pool = server.drain();
    let _ = pool.drain();
    eprintln!("\n{}", pool.stats());
    pool.shutdown();
    if tracing {
        dump_events(&sink);
    }
}

/// Validate one introspection snapshot and print it to stdout — every
/// emitted line has already survived the same zero-dep JSON checker the
/// verify gates run, plus a required-key sweep.
fn emit_stats_line(line: &str) {
    let keys = polyview::obs::jsonl::check_object_line(line)
        .unwrap_or_else(|e| panic!("malformed stats line ({e}): {line}"));
    for required in [
        "at_ns",
        "health",
        "window",
        "cumulative",
        "per_worker",
        "net",
    ] {
        assert!(
            keys.iter().any(|k| k == required),
            "stats line missing key {required:?}: {line}"
        );
    }
    println!("{line}");
}

/// Validate and print every collected trace event, one JSON object per
/// line on stdout (the verify.sh trace gates consume this stream).
fn dump_events(sink: &CollectingEventSink) {
    let events = sink.take();
    let mut checked = 0usize;
    for ev in &events {
        let line = ev.to_json();
        let keys = polyview::obs::jsonl::check_object_line(&line)
            .unwrap_or_else(|e| panic!("malformed event line ({e}): {line}"));
        for required in ["kind", "name", "trace_id", "start_ns", "dur_ns"] {
            assert!(
                keys.iter().any(|k| k == required),
                "event line missing key {required:?}: {line}"
            );
        }
        checked += 1;
        println!("{line}");
    }
    eprintln!("emitted {checked} trace events, all validated");
}

fn run_in_process(tracing: bool, durability: &Durability) {
    // Prose goes to stdout normally, but to stderr under --trace, where
    // stdout is reserved for the JSON event stream.
    macro_rules! say {
        ($($t:tt)*) => {
            if tracing { eprintln!($($t)*) } else { println!($($t)*) }
        };
    }

    let mut cfg = durability.apply(PoolConfig::default().workers(4).queue_capacity(32));
    let sink = Arc::new(CollectingEventSink::new());
    if tracing {
        // Collect in memory and dump at the end: the event stream stays
        // ordered per trace and the demo's timing is unaffected. A slow
        // threshold is set so the stats block demonstrates the slow log.
        cfg = cfg.event_sink(sink.clone()).slow_threshold_ns(200_000);
    }
    let mut pool = Pool::new(cfg);

    // Schema + seed data: writes are sequenced through the declaration log
    // and replayed on every replica.
    pool.run(0, "class Staff = class {} end;").expect("class");
    pool.run(
        0,
        "class Female = class {} include Staff as fn x => [Name = x.Name] \
         where fn x => query(fn p => p.Sex = \"female\", x) end;",
    )
    .expect("view class");

    // Simulated clients: each thread is a session, producing a stream of
    // statements; the main thread routes them with session affinity.
    let (tx, rx) = mpsc::channel::<(u64, String)>();
    let clients: Vec<_> = (1..=4u64)
        .map(|session| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..5 {
                    let name = format!("S{session}-{i}");
                    let sex = if i % 2 == 0 { "female" } else { "male" };
                    tx.send((
                        session,
                        format!("insert(Staff, IDView([Name = \"{name}\", Sex = \"{sex}\"]))"),
                    ))
                    .unwrap();
                    tx.send((
                        session,
                        "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)".into(),
                    ))
                    .unwrap();
                }
            })
        })
        .collect();
    drop(tx);

    let mut served = 0u64;
    for (n, (session, stmt)) in rx.iter().enumerate() {
        // Blocking submit: retries on backpressure, waits for the result.
        pool.run(session, &stmt).expect("statement");
        served += 1;
        if n == 10 {
            // Chaos: kill a replica mid-stream. Supervision respawns it and
            // the replacement restores the newest checkpoint (if any) and
            // replays the log tail above it.
            pool.inject_worker_panic(1);
            say!("-- injected crash on worker 1 --");
        }
    }
    for c in clients {
        c.join().unwrap();
    }

    // Convergence: after a barrier, every replica (including the respawn)
    // answers the same query identically.
    pool.barrier().expect("barrier");
    let expected = pool
        .probe_worker(
            0,
            "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)",
        )
        .expect("probe");
    for w in 1..pool.worker_count() {
        let got = pool
            .probe_worker(
                w,
                "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)",
            )
            .expect("probe");
        assert_eq!(got, expected, "replica {w} diverged");
    }
    say!("served {served} statements; all replicas agree on {expected}");

    // One backpressure demonstration: saturate a paused replica's queue,
    // through a session that replica serves.
    let gate = pool.pause_worker(0).expect("pause");
    let session = (0..)
        .find(|&s| pool.worker_for(s) == 0)
        .expect("a session maps to replica 0");
    let mut queued = 0;
    while let Submit::Queued(_) = pool.submit_read(session, "1 + 1").expect("classified") {
        queued += 1;
    }
    gate.release();
    say!("backpressure after {queued} queued reads: Submit::Full");

    say!("\n{}", pool.stats());
    pool.shutdown();

    if tracing {
        // Dump the event stream: one JSON object per line on stdout, each
        // line self-validated by the zero-dep checker before it is
        // printed — a malformed export fails the run, not just the gate.
        dump_events(&sink);
    }
}
