//! Heap blocks per element of the two hot set-level reads: a count over a
//! view class (`hom` with a curried `+`) and the benchmark's `wire_views`
//! view read (`map` lowered to `Collect`, with an index-passing function).
//!
//! A two-argument application builds no intermediate closure or partial
//! builtin, and a comprehension moves the entries out of each element set
//! it owns (DESIGN.md §13), so each element costs a few environment nodes
//! and the values it returns. A regression that puts an intermediate value
//! back costs at least one block per element and fails here.
//!
//! This file is its own test binary because it installs a counting global
//! allocator. The counter is per thread, so tests running in parallel do
//! not see each other's blocks.

use polyview::Engine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn count_block() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_block();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
fn a_count_over_a_view_class_allocates_at_most_four_blocks_per_element() {
    let per = blocks_per_element(COUNT);
    assert!(per <= 4.0, "{per} blocks per element");
}

#[test]
fn the_view_read_allocates_at_most_twelve_blocks_per_element() {
    let per = blocks_per_element(VIEW_NAMES);
    assert!(per <= 12.0, "{per} blocks per element");
}
