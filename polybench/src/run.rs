//! Running a workload: building the system through its public API, the
//! closed-loop clients, and the layer probes of a traced run.

use crate::measure::{median, peak_rss_mb, Dump};
use crate::speed;
use crate::workload::{Expect, Op, Stream, Workload};
use polyview::{Engine, Outcome};
use polyview_net::{ClientError, NetClient, NetConfig, NetServer};
use polyview_pool::PoolConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Stack for in-process engines: the evaluator recurses with the
/// interpreted program (pool workers get the same by default).
const ENGINE_STACK: usize = 256 * 1024 * 1024;
/// A `busy` reply is retried after this pause, until the op has been
/// refused for `BUSY_GIVE_UP`, when it fails.
const BUSY_PAUSE: Duration = Duration::from_millis(1);
const BUSY_GIVE_UP: Duration = Duration::from_secs(1);
/// `write_churn`'s checkpoint interval, in applied writes per replica.
/// Every read grows the store a checkpoint encodes, so at an interval of
/// 64 checkpointing takes over the run within seconds and throughput
/// falls for as long as the run lasts; at 4096 a run checkpoints about
/// twice a second from start to end and measures one steady state.
const CHECKPOINT_EVERY: u64 = 4096;
/// Kernel runs whose median slowness scales the set-up (or probe) after
/// them.
const SETUP_KERNEL_RUNS: usize = 5;
/// Op sources each layer probe of a traced run replays.
pub const PROBE_OPS: u64 = 1000;

/// How long the timed phase runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    Seconds(f64),
    /// Timed ops across all clients.
    Ops(u64),
}

impl Budget {
    /// One of `n` equal parts.
    pub fn part(self, n: usize) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / n as f64),
            Budget::Ops(k) => Budget::Ops((k / n as u64).max(1)),
        }
    }
}

/// What every client of one segment shares.
pub struct Plan {
    workload: Workload,
    seed: u64,
    budget: Budget,
    warmup: u64,
    traced: bool,
    rss: RssMark,
    pause: Pause,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, budget: Budget, traced: bool) -> Plan {
        let clients = workload.clients() as u64;
        let nominal = match budget {
            Budget::Seconds(_) => workload.nominal_ops(),
            Budget::Ops(n) => n,
        };
        Plan {
            workload,
            seed,
            budget,
            warmup: (nominal / clients / 50).max(1),
            traced,
            rss: RssMark::new(workload.rss_mark_ops()),
            pause: Pause::default(),
        }
    }

    /// Client `c`'s share of the budget.
    fn share(&self, c: usize) -> Budget {
        match self.budget {
            Budget::Ops(n) => {
                let k = self.workload.clients() as u64;
                Budget::Ops(n / k + u64::from((c as u64) < n % k))
            }
            seconds => seconds,
        }
    }
}

/// Lets client 0 stop the other clients while it runs the speed kernel,
/// so the kernel runs with no op in flight and no op competes with it.
#[derive(Default)]
struct Pause {
    /// Whether client 0 has asked for a pause, and how many ops of the
    /// other clients are in flight.
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl Pause {
    fn lock(&self) -> std::sync::MutexGuard<'_, (bool, usize)> {
        self.state.lock().expect("pause lock poisoned")
    }

    /// Run one op of a client other than 0, after any pause.
    fn around<R>(&self, op: impl FnOnce() -> R) -> R {
        let mut s = self
            .changed
            .wait_while(self.lock(), |s| s.0)
            .expect("pause lock poisoned");
        s.1 += 1;
        drop(s);
        let r = op();
        self.lock().1 -= 1;
        self.changed.notify_all();
        r
    }

    /// Run `f` with every other client stopped between ops.
    fn exclusive<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut s = self.lock();
        s.0 = true;
        drop(
            self.changed
                .wait_while(s, |s| s.1 > 0)
                .expect("pause lock poisoned"),
        );
        let r = f();
        self.lock().0 = false;
        self.changed.notify_all();
        r
    }
}

/// Reads `VmHWM` once, when the timed op count first reaches `at`, so the
/// memory figure covers the same work however fast the run goes.
struct RssMark {
    at: u64,
    count: AtomicU64,
    mb: Mutex<Option<f64>>,
}

impl RssMark {
    fn new(at: u64) -> RssMark {
        RssMark {
            at,
            count: AtomicU64::new(0),
            mb: Mutex::new(None),
        }
    }

    fn tick(&self) {
        if self.count.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            *self.mb.lock().expect("rss mark lock poisoned") = Some(peak_rss_mb());
        }
    }

    /// The mark, or the peak so far when the run ended before it.
    fn read(&self) -> f64 {
        self.mb
            .lock()
            .expect("rss mark lock poisoned")
            .unwrap_or_else(peak_rss_mb)
    }
}

/// A harness span: one call into the system, timed from outside it.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    /// The op this span belongs to: `segment << 40 | client << 32 | op
    /// index` for a traced segment's ops, the op index for the probe's.
    pub trace: u64,
    /// Offset from the start of the segment or probe.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub retries: u64,
}

/// One timed op: when it was first sent (from the segment's epoch), its
/// latency, and the `busy` retries inside that latency.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub at_ns: u64,
    pub ns: u64,
    pub retries: u32,
    pub write: bool,
}

/// One run of the speed kernel in the timed phase, with every client
/// paused: when it started (from the segment's epoch), how long the
/// clients were paused, and the machine's slowness it measured.
#[derive(Clone, Copy, Debug)]
pub struct Tick {
    pub at_ns: u64,
    pub pause_ns: u64,
    pub slowness: f64,
}

/// One client's record of a segment.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// Client 0's only.
    pub ticks: Vec<Tick>,
    pub attempted: u64,
    pub failed: u64,
    pub busy_retries: u64,
    pub first_failure: Option<String>,
    /// The timed phase, from the segment's epoch.
    pub timed_from_ns: u64,
    pub timed_ns: u64,
}

enum Reply {
    Ok(String),
    Busy,
    Err(String),
}

impl ClientLog {
    /// Send `op`, retrying `busy`, and check the reply against the
    /// stream's model. Returns the latency from first send to the final
    /// reply, and the retries.
    fn issue(
        &mut self,
        stream: &Stream,
        op: &Op,
        exec: &mut dyn FnMut(&Op) -> Reply,
    ) -> (u64, u32) {
        self.attempted += 1;
        let first = Instant::now();
        let mut retries = 0;
        let outcome = loop {
            match exec(op) {
                Reply::Ok(r) if stream.check(op, &r) => break Ok(()),
                Reply::Ok(r) => break Err(format!("wrong result {r:.300}")),
                Reply::Busy if first.elapsed() < BUSY_GIVE_UP => {
                    retries += 1;
                    std::thread::sleep(BUSY_PAUSE);
                }
                Reply::Busy => break Err("still busy after 1 s".to_string()),
                Reply::Err(e) => break Err(e),
            }
        };
        self.busy_retries += u64::from(retries);
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("{}: {e}", op.src));
        }
        (first.elapsed().as_nanos() as u64, retries)
    }

    /// Count `other`'s ops in this log's tallies; its samples are dropped.
    fn absorb(&mut self, other: ClientLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy_retries += other.busy_retries;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    fn warm_up(&mut self, stream: &mut Stream, n: u64, exec: &mut dyn FnMut(&Op) -> Reply) {
        for _ in 0..n {
            let op = stream.next_op();
            self.issue(stream, &op, exec);
        }
    }

    fn timed(
        &mut self,
        client: usize,
        stream: &mut Stream,
        plan: &Plan,
        epoch: Instant,
        exec: &mut dyn FnMut(&Op) -> Reply,
    ) {
        let start = Instant::now();
        self.timed_from_ns = start.duration_since(epoch).as_nanos() as u64;
        let budget = plan.share(client);
        let mut n = 0u64;
        let mut next_tick = start + speed::SLICE;
        while match budget {
            Budget::Ops(k) => n < k,
            Budget::Seconds(s) => start.elapsed().as_secs_f64() < s,
        } {
            let op = stream.next_op();
            let at_ns = epoch.elapsed().as_nanos() as u64;
            let (ns, retries) = if client == 0 {
                self.issue(stream, &op, exec)
            } else {
                plan.pause.around(|| self.issue(stream, &op, exec))
            };
            self.samples.push(Sample {
                at_ns,
                ns,
                retries,
                write: op.write,
            });
            plan.rss.tick();
            n += 1;
            if client == 0 && Instant::now() >= next_tick {
                self.tick(plan, epoch);
                next_tick = Instant::now() + speed::SLICE;
            }
        }
        if client == 0 && self.ticks.is_empty() {
            self.tick(plan, epoch);
        }
        self.timed_ns = start.elapsed().as_nanos() as u64;
    }

    /// Pause every client and run the speed kernel.
    fn tick(&mut self, plan: &Plan, epoch: Instant) {
        let tick = plan.pause.exclusive(|| {
            let at = Instant::now();
            let slowness = speed::slowness(plan.workload.clients());
            Tick {
                at_ns: at.duration_since(epoch).as_nanos() as u64,
                pause_ns: at.elapsed().as_nanos() as u64,
                slowness,
            }
        });
        self.ticks.push(tick);
    }
}

/// One system built, warmed up and driven through its timed phase.
#[derive(Debug, Default)]
pub struct Segment {
    pub logs: Vec<ClientLog>,
    /// Each set-up's wall time at reference speed, in seconds.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Registries just before and just after the timed phase (traced
    /// segments only).
    pub before: Dump,
    pub after: Dump,
    /// Store slots allocated in the timed phase (in-process engines).
    pub store_slots: u64,
    /// `Engine::snapshot` bytes and milliseconds after the timed phase
    /// (traced in-process segments).
    pub snapshot: Option<(usize, f64)>,
    /// `Pool::classify` times over the probe sources (traced segments
    /// over the wire).
    pub classify_ns: Vec<u64>,
}

impl Segment {
    pub fn timed_ops(&self) -> u64 {
        self.logs.iter().map(|l| l.samples.len() as u64).sum()
    }

    /// Latencies of the timed reads (`write == false`) or writes.
    pub fn latencies(&self, write: bool) -> Vec<u64> {
        self.logs
            .iter()
            .flat_map(|l| l.samples.iter())
            .filter(|s| s.write == write)
            .map(|s| s.ns)
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.logs.iter().find_map(|l| l.first_failure.as_deref())
    }

    pub fn ticks(&self) -> impl Iterator<Item = &Tick> {
        self.logs.iter().flat_map(|l| l.ticks.iter())
    }

    /// Median slowness over the timed phase.
    pub fn slowness(&self) -> f64 {
        median(&self.ticks().map(|t| t.slowness).collect::<Vec<_>>())
    }
}

/// Set the workload's system up `setup_reps` times, then run the timed
/// phase on the last one. A set-up builds the system, loads the schema
/// and runs the warm-up; each is timed, scaled to reference speed by the
/// kernel runs just before it, and all but the last are torn down (their
/// ops still count as attempted).
pub fn segment(plan: &Plan, setup_reps: usize) -> Result<Segment, String> {
    if plan.workload.over_wire() {
        wire_segment(plan, setup_reps)
    } else {
        engine_segment(plan, setup_reps)
    }
}

/// What one client drives: its connection (or engine), its stream, and
/// its log.
struct Client<C> {
    conn: C,
    stream: Stream,
    log: ClientLog,
}

/// Run `f` on every client, each on its own thread.
fn per_client<C: Send>(
    clients: Vec<Client<C>>,
    f: &(dyn Fn(usize, &mut Client<C>) + Sync),
) -> Vec<Client<C>> {
    std::thread::scope(|scope| {
        let running: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    f(c, &mut client);
                    client
                })
            })
            .collect();
        running
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A loopback server over a two-replica pool, loaded with the schema in
/// one batch, and one connection per client, each pinned with `hello` to
/// a session served by its own replica.
fn wire_system(wl: Workload, traced: bool) -> Result<(NetServer, Vec<NetClient>), String> {
    let mut pool = PoolConfig::default().workers(2).telemetry_enabled(traced);
    if wl == Workload::WriteChurn {
        pool = pool.checkpoint_every(CHECKPOINT_EVERY);
    }
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default().pool(pool))
        .map_err(|e| format!("bind loopback: {e}"))?;
    let addr = server.local_addr();
    let connect = || NetClient::connect(addr).map_err(|e| format!("connect: {e}"));
    let stmts = wl.setup();
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    let results = connect()?
        .call_batch(&refs)
        .map_err(|e| format!("setup batch: {e}"))?;
    if let Some((i, Err((message, kind)))) = results.iter().enumerate().find(|(_, r)| r.is_err()) {
        return Err(format!("setup statement {i} failed ({kind}): {message}"));
    }
    let mut conns = Vec::new();
    let mut session = 0;
    for c in 0..wl.clients() {
        session = (session + 1..)
            .find(|&s| server.with_pool(|p| p.worker_for(s)) == c % 2)
            .expect("some session maps to every replica");
        let mut conn = connect()?;
        conn.hello(session).map_err(|e| format!("hello: {e}"))?;
        conns.push(conn);
    }
    Ok((server, conns))
}

fn wire_exec(conn: &mut NetClient, op: &Op) -> Reply {
    match conn.call(&op.src) {
        Ok(r) => Reply::Ok(r),
        Err(ClientError::Busy) => Reply::Busy,
        Err(e) => Reply::Err(e.to_string()),
    }
}

pub fn wire_segment(plan: &Plan, setup_reps: usize) -> Result<Segment, String> {
    let mut setup_s = Vec::new();
    let mut discarded = ClientLog::default();
    let mut built: Option<(NetServer, Vec<Client<NetClient>>)> = None;
    for _ in 0..setup_reps.max(1) {
        if let Some((server, clients)) = built.take() {
            for client in clients {
                discarded.absorb(client.log);
            }
            server.shutdown();
        }
        let slowness = speed::slowness_of(plan.workload.clients(), SETUP_KERNEL_RUNS);
        let t = Instant::now();
        let (server, conns) = wire_system(plan.workload, plan.traced)?;
        let clients = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| Client {
                conn,
                stream: plan.workload.stream(plan.seed, c),
                log: ClientLog::default(),
            })
            .collect();
        let clients = per_client(clients, &|_, cl| {
            cl.log.warm_up(&mut cl.stream, plan.warmup, &mut |op| {
                wire_exec(&mut cl.conn, op)
            })
        });
        setup_s.push(t.elapsed().as_secs_f64() / slowness);
        built = Some((server, clients));
    }
    let (server, clients) = built.expect("at least one set-up ran");
    let before = if plan.traced {
        Dump::parse(&server.metrics_json(), true)
    } else {
        Dump::default()
    };
    let epoch = Instant::now();
    let clients = per_client(clients, &|c, cl| {
        cl.log.timed(c, &mut cl.stream, plan, epoch, &mut |op| {
            wire_exec(&mut cl.conn, op)
        })
    });
    let mut logs: Vec<ClientLog> = clients.into_iter().map(|c| c.log).collect();
    logs[0].absorb(discarded);
    let mut seg = Segment {
        logs,
        setup_s,
        peak_rss_mb: plan.rss.read(),
        before,
        ..Segment::default()
    };
    if plan.traced {
        seg.after = Dump::parse(&server.metrics_json(), true);
        let srcs = probe_sources(plan.workload, plan.seed);
        seg.classify_ns = server.with_pool(|pool| {
            srcs.iter()
                .map(|src| {
                    let t = Instant::now();
                    let _ = std::hint::black_box(pool.classify(src));
                    t.elapsed().as_nanos() as u64
                })
                .collect()
        });
    }
    server.shutdown();
    Ok(seg)
}

fn engine_system(wl: Workload) -> Result<Engine, String> {
    let mut engine = Engine::new();
    for (i, stmt) in wl.setup().iter().enumerate() {
        engine
            .exec(stmt)
            .map_err(|e| format!("setup statement {i} failed: {e}"))?;
    }
    Ok(engine)
}

/// Execute `op` the way a pool replica does: writes as programs, reads
/// through the statement cache.
fn engine_exec(engine: &mut Engine, op: &Op) -> Reply {
    let result = if op.write {
        engine.exec(&op.src).map(|out| render(&out))
    } else {
        engine.eval_to_string(&op.src)
    };
    match result {
        Ok(s) => Reply::Ok(s),
        Err(e) => Reply::Err(e.to_string()),
    }
}

/// The rendering a pool replica answers a program with.
fn render(out: &[Outcome]) -> String {
    out.iter()
        .map(|o| match o {
            Outcome::Defined(binds) => binds
                .iter()
                .map(|(n, s)| format!("{n} : {s}"))
                .collect::<Vec<_>>()
                .join(", "),
            Outcome::Value { rendered, .. } => rendered.clone(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn engine_segment(plan: &Plan, setup_reps: usize) -> Result<Segment, String> {
    polyview::engine::with_stack_size(ENGINE_STACK, || {
        let mut setup_s = Vec::new();
        let mut discarded = ClientLog::default();
        let mut built: Option<Client<Engine>> = None;
        for _ in 0..setup_reps.max(1) {
            if let Some(client) = built.take() {
                discarded.absorb(client.log);
            }
            let slowness = speed::slowness_of(plan.workload.clients(), SETUP_KERNEL_RUNS);
            let t = Instant::now();
            let mut cl = Client {
                conn: engine_system(plan.workload)?,
                stream: plan.workload.stream(plan.seed, 0),
                log: ClientLog::default(),
            };
            cl.log.warm_up(&mut cl.stream, plan.warmup, &mut |op| {
                engine_exec(&mut cl.conn, op)
            });
            setup_s.push(t.elapsed().as_secs_f64() / slowness);
            built = Some(cl);
        }
        let mut cl = built.expect("at least one set-up ran");
        let before = if plan.traced {
            Dump::parse(&cl.conn.metrics_json(), false)
        } else {
            Dump::default()
        };
        let slots = cl.conn.machine().store.len();
        let epoch = Instant::now();
        cl.log.timed(0, &mut cl.stream, plan, epoch, &mut |op| {
            engine_exec(&mut cl.conn, op)
        });
        cl.log.absorb(discarded);
        let mut seg = Segment {
            setup_s,
            peak_rss_mb: plan.rss.read(),
            before,
            store_slots: (cl.conn.machine().store.len() - slots) as u64,
            ..Segment::default()
        };
        if plan.traced {
            seg.after = Dump::parse(&cl.conn.metrics_json(), false);
            let t = Instant::now();
            let bytes = cl.conn.snapshot().len();
            seg.snapshot = Some((bytes, t.elapsed().as_secs_f64() * 1e3));
        }
        seg.logs = vec![cl.log];
        Ok(seg)
    })
}

/// The first `PROBE_OPS` op sources of client 0's stream.
fn probe_sources(wl: Workload, seed: u64) -> Vec<String> {
    let mut stream = wl.stream(seed, 0);
    (0..PROBE_OPS).map(|_| stream.next_op().src).collect()
}

/// The layer probe: client 0's first `PROBE_OPS` ops against a fresh
/// in-process engine, each expression split into public calls whose
/// differences are the layers' self times (declarations run whole).
#[derive(Debug, Default)]
pub struct Probe {
    /// `parse_expr`.
    pub parse_ns: Vec<u64>,
    /// `Engine::infer_expr` minus parse.
    pub infer_self_ns: Vec<u64>,
    /// `Engine::prepare` minus `Engine::infer_expr`.
    pub lower_self_ns: Vec<u64>,
    pub prepare_ns: Vec<u64>,
    /// `Engine::run`.
    pub run_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub store_slots: u64,
    /// `Engine::snapshot` bytes and milliseconds after the probe.
    pub snapshot: (usize, f64),
    pub spans: Vec<SpanRec>,
    /// The machine's slowness just before the probe, which its timings
    /// are divided by.
    pub slowness: f64,
}

pub fn probe_layers(wl: Workload, seed: u64) -> Result<Probe, String> {
    polyview::engine::with_stack_size(ENGINE_STACK, || {
        let mut engine = engine_system(wl)?;
        let mut stream = wl.stream(seed, 0);
        let slots = engine.machine().store.len();
        let mut p = Probe {
            slowness: speed::slowness_of(1, SETUP_KERNEL_RUNS),
            ..Probe::default()
        };
        let epoch = Instant::now();
        for i in 0..PROBE_OPS {
            let op = stream.next_op();
            let reply = if matches!(op.expect, Expect::Binds(_)) {
                engine.exec(&op.src).map(|out| render(&out))
            } else {
                split_layers(&mut engine, &op.src, i, epoch, &mut p)
            };
            p.attempted += 1;
            let failure = match reply {
                Ok(r) if stream.check(&op, &r) => continue,
                Ok(r) => format!("wrong result {r:.300}"),
                Err(e) => e.to_string(),
            };
            p.failed += 1;
            p.first_failure
                .get_or_insert_with(|| format!("probe {}: {failure}", op.src));
        }
        p.store_slots = (engine.machine().store.len() - slots) as u64;
        let t = Instant::now();
        let bytes = engine.snapshot().len();
        p.snapshot = (bytes, t.elapsed().as_secs_f64() * 1e3);
        Ok(p)
    })
}

fn split_layers(
    engine: &mut Engine,
    src: &str,
    op: u64,
    epoch: Instant,
    p: &mut Probe,
) -> Result<String, polyview::Error> {
    let mut time = |name: &'static str, f: &mut dyn FnMut() -> Result<(), polyview::Error>| {
        let at = epoch.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        p.spans.push(SpanRec {
            name,
            trace: op,
            start_ns: at,
            dur_ns: ns,
            retries: 0,
        });
        r.map(|()| ns)
    };
    let parse = time("probe.parse_expr", &mut || {
        polyview::parser::parse_expr(src)
            .map(drop)
            .map_err(Into::into)
    })?;
    let infer = time("probe.infer_expr", &mut || engine.infer_expr(src).map(drop))?;
    let mut prepared = None;
    let prepare = time("probe.prepare", &mut || {
        prepared = Some(engine.prepare(src)?);
        Ok(())
    })?;
    let prepared = prepared.expect("prepare succeeded");
    let mut value = None;
    let run = time("probe.run", &mut || {
        value = Some(engine.run(&prepared)?);
        Ok(())
    })?;
    p.parse_ns.push(parse);
    p.infer_self_ns.push(infer.saturating_sub(parse));
    p.lower_self_ns.push(prepare.saturating_sub(infer));
    p.prepare_ns.push(prepare);
    p.run_ns.push(run);
    Ok(engine.show(&value.expect("run succeeded")))
}
