//! How fast the machine is running right now, so that timings can be
//! stated at one reference speed.
//!
//! On a shared machine a fixed loop can run at 60% of its best speed for
//! minutes at a time, and the loss shows in a thread's CPU time as much
//! as in wall time: it is contention the guest cannot account as stolen.
//! Run-to-run spread in raw timings there is 5–30%, too wide to gate on.
//! So after every `SLICE` of ops the harness pauses its
//! clients and runs a fixed kernel of harness code for about a
//! millisecond, and each op's time is divided by how much slower than
//! `REF_NS` the kernel ran around it.
//! The kernel uses no code of the system under test, so a change to the
//! system moves the ops and not the kernel; a change to the global
//! allocator or the build profile would move both.

use crate::workload::SplitMix64;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time of ops between two kernel runs.
pub const SLICE: Duration = Duration::from_millis(20);
/// A fixed scale, near the kernel's CPU time on the reference machine
/// (the 2-vCPU VM the baselines were recorded on) when it runs fast.
/// Timings are scaled to it; changing it rescales every timing the
/// benchmark reports.
pub const REF_NS: f64 = 1_000_000.0;
/// Rounds of the kernel per run.
const ROUNDS: u32 = 64;

/// How many times slower than reference the machine runs now for
/// `threads` busy threads: the mean `kernel_slowness` of `threads`
/// kernels run at once. A workload measures with one thread per client,
/// since each closed-loop client keeps about one CPU busy, so the kernel
/// sees the machine as loaded as the workload does.
pub fn slowness(threads: usize) -> f64 {
    let all: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(kernel_slowness)).collect();
        let mut all = vec![kernel_slowness()];
        all.extend(others.into_iter().map(|h| h.join().expect("kernel thread")));
        all
    });
    all.iter().sum::<f64>() / all.len() as f64
}

/// The median of `runs` measurements of `slowness(threads)`.
pub fn slowness_of(threads: usize, runs: usize) -> f64 {
    let v: Vec<f64> = (0..runs.max(1)).map(|_| slowness(threads)).collect();
    crate::measure::median(&v)
}

/// One kernel run's CPU time on this thread divided by `REF_NS`; wall
/// time where per-thread CPU time is unavailable.
fn kernel_slowness() -> f64 {
    let wall = Instant::now();
    let cpu = thread_cpu_ns();
    black_box(kernel());
    let ns = match (cpu, thread_cpu_ns()) {
        (Some(a), Some(b)) if b > a => (b - a) as f64,
        _ => wall.elapsed().as_nanos() as f64,
    };
    ns / REF_NS
}

/// CPU time this thread has run, from `/proc/thread-self/schedstat`.
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A fixed mix of the work an interpreter does: ordered-map inserts and
/// lookups keyed by allocated strings, a boxed tree built and walked
/// recursively, and a sort. Every call does exactly the same work.
fn kernel() -> u64 {
    let mut rng = SplitMix64::new(7);
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        let mut map = BTreeMap::new();
        for _ in 0..48 {
            let k = rng.below(256);
            map.insert(k, format!("key{k}"));
        }
        for _ in 0..128 {
            if let Some(s) = map.get(&rng.below(256)) {
                acc = acc.wrapping_add(s.len() as u64);
            }
        }
        acc = acc.wrapping_add(Tree::build(&mut rng, 8).eval());
        let mut v: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        v.sort_unstable();
        acc ^= v[32];
    }
    acc
}

enum Tree {
    Leaf(u64),
    Add(Box<Tree>, Box<Tree>),
    Mul(Box<Tree>, Box<Tree>),
}

impl Tree {
    fn build(rng: &mut SplitMix64, depth: u32) -> Tree {
        if depth == 0 || rng.below(4) == 0 {
            return Tree::Leaf(rng.below(100));
        }
        let a = Box::new(Tree::build(rng, depth - 1));
        let b = Box::new(Tree::build(rng, depth - 1));
        if rng.below(2) == 0 {
            Tree::Add(a, b)
        } else {
            Tree::Mul(a, b)
        }
    }

    fn eval(&self) -> u64 {
        match self {
            Tree::Leaf(v) => *v,
            Tree::Add(a, b) => a.eval().wrapping_add(b.eval()),
            Tree::Mul(a, b) => a.eval().wrapping_mul(b.eval()) | 1,
        }
    }
}
