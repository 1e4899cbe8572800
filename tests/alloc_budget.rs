//! Heap blocks per element of the two hot set-level reads: a count over a
//! view class (`hom` with a curried `+`) and the benchmark's `wire_views`
//! view read (`map` lowered to `Collect`, with an index-passing function).
//!
//! A two-argument application builds no intermediate closure or partial
//! builtin, `query(λx.e, o)` builds no closure, a comprehension moves the
//! entries out of each element set it owns, and a binding is a push on the
//! machine's value stack, not a heap node (DESIGN.md §13), so each element
//! costs only the values it returns.
//! A regression that puts an intermediate value or a binding node back
//! costs at least one block per element and fails here.
//!
//! The same allocator counts live bytes, which gates the memory a long
//! session keeps: distinct reads and rebinds of one name leave the heap
//! where a tenth as many left it (DESIGN.md §10: a statement's type work
//! ends with the statement).
//!
//! This file is its own test binary because it installs a counting global
//! allocator. The counters are per thread, so tests running in parallel do
//! not see each other's blocks.

mod common;

use polyview::Engine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (negative when it
    /// frees more than it allocated, e.g. blocks from another thread).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count_block(grown: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
    count_bytes(grown);
}

fn count_bytes(grown: i64) {
    let _ = LIVE.try_with(|l| l.set(l.get() + grown));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_block(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Objects in `Female`'s extent.
const FEMALES: u64 = 100;

const COUNT: &str = "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Female)";
const VIEW_NAMES: &str = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)";

/// The benchmark's `wire_views` schema: 200 `Staff`, even ones female,
/// and the `Female` view class.
fn wire_views_engine() -> Engine {
    let mut e = Engine::new();
    for k in 0..200 {
        let sex = if k % 2 == 0 { "female" } else { "male" };
        e.exec(&format!(
            "val e{k} = IDView([Name = \"s{k}\", Sex = \"{sex}\", Salary := {}]);",
            1000 + k
        ))
        .expect("staff");
    }
    let own: Vec<String> = (0..200).map(|k| format!("e{k}")).collect();
    e.exec(&format!("class Staff = class {{{}}} end;", own.join(", ")))
        .expect("Staff");
    e.exec(
        "class Female = class {} include Staff as fn x => [Name = x.Name] \
         where fn x => query(fn p => p.Sex = \"female\", x) end;",
    )
    .expect("Female");
    e
}

/// Blocks one warm read of `src` allocates per `Female` object. Two reads
/// first fill the statement cache and the extent cache, as on a serving
/// replica.
fn blocks_per_element(src: &str) -> f64 {
    let mut e = wire_views_engine();
    let want = e.read(src).expect("cold read");
    assert_eq!(e.read(src).expect("warm read"), want);
    let before = BLOCKS.with(Cell::get);
    let got = e.read(src).expect("measured read");
    let blocks = BLOCKS.with(Cell::get) - before;
    assert_eq!(got, want);
    blocks as f64 / FEMALES as f64
}

#[test]
fn a_count_over_a_view_class_allocates_under_half_a_block_per_element() {
    let per = blocks_per_element(COUNT);
    assert!(per <= 0.5, "{per} blocks per element");
}

#[test]
fn the_view_read_allocates_at_most_six_blocks_per_element() {
    let per = blocks_per_element(VIEW_NAMES);
    assert!(per <= 6.0, "{per} blocks per element");
}

/// Blocks one read of `src` allocates.
fn blocks_of_read(e: &mut Engine, src: &str, want: &str) -> u64 {
    let before = BLOCKS.with(Cell::get);
    let got = e.read(src).expect("read");
    let blocks = BLOCKS.with(Cell::get) - before;
    assert_eq!(got, want);
    blocks
}

/// Blocks a warm `RC3` count read allocates. A debug build checks that
/// the code it runs is resolved, which allocates 8 more per statement.
const WARM_RING_READ: u64 = if cfg!(debug_assertions) { 17 } else { 9 };

/// The benchmark ring with `box`, a record a field write can target, and
/// its `RC3` count read once: the statement and `RC3`'s extent are cached.
fn ring_engine() -> Engine {
    let mut e = Engine::new();
    e.exec(&common::ring_program()).expect("ring");
    e.exec("val box = [N := 0];").expect("box");
    assert_eq!(e.read(RING_COUNT).expect("fills"), "80");
    e
}

const RING_COUNT: &str = "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), RC3)";

/// A cold count read of `RC3` recomputes the ring: its fill wraps every
/// object of the 7 classes below `RC3` once per level above it, 280
/// associations (285 while `RC0`, five levels down, holds `x0`). Each
/// association needs its object and its composed view; the levels pass
/// key-ordered runs and build one map at the top, so the rest of the fill
/// stays under half a block per association. A warm read allocates only
/// what the count itself does. An `insert` or `delete` alone would be
/// patched into the cached extent, so a field write follows each: no
/// entry survives one.
#[test]
fn a_cold_ring_fill_allocates_at_most_two_and_a_half_blocks_per_association() {
    let mut e = ring_engine();
    for (toggle, want, associations) in [
        ("insert(RC0, x0);", "81", 285),
        ("delete(RC0, x0);", "80", 280),
    ] {
        e.exec(toggle).expect("write");
        e.exec("update(box, N, 1);").expect("field write");
        let fills = e.stats().eval.extent_fills;
        let cold = blocks_of_read(&mut e, RING_COUNT, want);
        assert_eq!(e.stats().eval.extent_fills, fills + 1, "a cold fill");
        let per = cold as f64 / associations as f64;
        assert!(
            per <= 2.5,
            "{toggle} then a cold read: {per} blocks per association"
        );
        let warm = blocks_of_read(&mut e, RING_COUNT, want);
        assert!(
            warm <= WARM_RING_READ,
            "a warm read allocated {warm} blocks"
        );
    }
}

/// Blocks a patched `RC3` count read may allocate beyond a warm one. The
/// insert of `x0` into `RC0` is replayed along the five includes from
/// `RC0` up to `RC3`: a predicate call and a wrapping (an object and its
/// view) on each, the new association, and the path itself.
const PATCH_BLOCKS: u64 = 16;

/// A read after an `insert` or `delete` patches the cached extent instead
/// of refilling it: a few blocks for the replayed path, not two per
/// association.
#[test]
fn a_patched_ring_read_allocates_a_few_blocks_beyond_a_warm_one() {
    let mut e = ring_engine();
    for (toggle, want) in [("insert(RC0, x0);", "81"), ("delete(RC0, x0);", "80")] {
        e.exec(toggle).expect("write");
        let patches = e.stats().eval.extent_patches;
        let patched = blocks_of_read(&mut e, RING_COUNT, want);
        assert_eq!(e.stats().eval.extent_patches, patches + 1, "a patch");
        assert!(
            patched <= WARM_RING_READ + PATCH_BLOCKS,
            "{toggle} then a patched read: {patched} blocks"
        );
    }
}

/// A write leaves the cached extents for the next read to patch: the
/// `insert` allocates the same blocks with all eight ring extents cached
/// as with none.
#[test]
fn an_insert_allocates_the_same_with_eight_cached_extents_as_with_none() {
    let blocks_of_insert = |cached: bool| {
        let mut e = Engine::new();
        e.exec(&common::ring_program()).expect("ring");
        let counts: Vec<String> = (0..8)
            .map(|c| format!("cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), RC{c})"))
            .collect();
        // The same writes on both engines. Declaring a class empties the
        // extent cache, and only one engine reads the ring again.
        for toggle in ["insert(RC0, x0);", "delete(RC0, x0);"] {
            e.exec(toggle).expect("write");
            for c in &counts {
                e.read(c).expect("count");
            }
        }
        e.exec("class Empty = class {} end;")
            .expect("empties the cache");
        if cached {
            for c in &counts {
                e.read(c).expect("count");
            }
        }
        assert_eq!(e.machine().extent_cache_len(), if cached { 8 } else { 0 });
        let before = BLOCKS.with(Cell::get);
        e.exec("insert(RC0, x0);").expect("insert");
        BLOCKS.with(Cell::get) - before
    };
    assert_eq!(blocks_of_insert(true), blocks_of_insert(false));
}

/// Live heap bytes after 2,000 and after 20,000 runs of `step`, on an
/// engine that has run it 200 times first (so its statement cache is full).
fn live_bytes_at_2k_and_20k(mut step: impl FnMut(&mut Engine, u64)) -> (i64, i64) {
    let mut e = Engine::new();
    let live = || LIVE.with(Cell::get);
    for i in 0..200 {
        step(&mut e, i);
    }
    let base = live();
    for i in 200..2_200 {
        step(&mut e, i);
    }
    let at_2k = live() - base;
    for i in 2_200..20_200 {
        step(&mut e, i);
    }
    (at_2k, live() - base)
}

/// Live bytes may grow by this much between 2,000 and 20,000 statements,
/// under 15 bytes a statement. Distinct reads churn the full statement
/// cache, and its hash table doubles once (about 120 KB) when deletions
/// use up its free buckets; with random hashing that can come after the
/// 2,000th read.
const LIVE_SLACK: i64 = 256 * 1024;

#[test]
fn distinct_reads_keep_live_heap_flat() {
    let (at_2k, at_20k) = live_bytes_at_2k_and_20k(|e, i| {
        let src = format!("(fn r => (r.A + {i}, r.B))([A = {i}, B = (fn x => x)(true)])");
        e.read(&src).expect("read");
    });
    assert!(
        at_20k - at_2k <= LIVE_SLACK,
        "live heap grew {at_2k} -> {at_20k} bytes"
    );
}

#[test]
fn rebinds_keep_live_heap_flat() {
    // One `fun`, and a mutually recursive group: binding the group builds
    // its `fix` bundle and the tuple of its members.
    let decls: [fn(u64) -> String; 2] = [
        |i| format!("fun h x = (x.Name, x.K{} + {i});", i % 7),
        |i| {
            let k = i % 16;
            format!(
                "fun h{k} n = if n = 0 then {i} else hh{k} (n - 1) \
                 and hh{k} n = if n = 0 then 0 else h{k} (n - 1);"
            )
        },
    ];
    for decl in decls {
        let (at_2k, at_20k) = live_bytes_at_2k_and_20k(|e, i| {
            e.exec(&decl(i)).expect("rebind");
        });
        assert!(
            at_20k - at_2k <= LIVE_SLACK,
            "{}: live heap grew {at_2k} -> {at_20k} bytes",
            decl(0)
        );
    }
}
