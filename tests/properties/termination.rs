//! Prop. 5: the recursive extent computation terminates — there is no
//! infinite calling sequence of the `f^i` functions. We test it over
//! random class graphs far beyond the paper's ring example: arbitrary
//! include digraphs, including self-loops, diamonds and dense graphs.

use crate::common::{count, identity, sized_cases};
use polyview_eval::{Machine, RuntimeError, Value};
use polyview_syntax::builder as b;
use polyview_syntax::{ClassDef, Expr, Label};

/// Build a `let class RC0 = … and … in count(RC0) end` program whose
/// include edges are exactly `edges` (i → j means class i includes class
/// j), with `own[i]` fresh objects in class i's own extent.
fn class_graph_program(k: usize, edges: &[(usize, usize)], own: &[usize]) -> Expr {
    let mut tag = 0;
    let binds = (0..k)
        .map(|i| {
            let objs = (0..own[i]).map(|_| {
                tag += 1;
                b::id_view(b::record([b::imm("n", b::int(tag))]))
            });
            let includes = edges.iter().filter(|(from, _)| *from == i).map(|(_, to)| {
                let pred = b::lam("x", b::boolean(true));
                b::include(vec![b::v(&format!("RC{to}"))], identity(), pred)
            });
            let own = Box::new(Expr::set(objs));
            let includes = includes.collect();
            (Label::new(format!("RC{i}")), ClassDef { own, includes })
        })
        .collect();
    Expr::LetClasses(binds, Box::new(count(b::v("RC0"))))
}

/// Run with a fuel bound; termination means the bound is never the error.
fn run_bounded(e: &Expr, fuel: u64) -> Result<Value, RuntimeError> {
    let mut m = Machine::with_fuel(fuel);
    m.eval(e)
}

/// Random include digraphs (with self-loops and cycles): extent
/// computation terminates and yields a count bounded by the total
/// number of objects.
#[test]
fn random_class_graphs_terminate() {
    sized_cases(64, 1..7, |g, k| {
        let density = g.unit();
        let mut edges = Vec::new();
        for i in 0..k {
            for j in 0..k {
                if g.chance(density) {
                    edges.push((i, j)); // self-loops allowed
                }
            }
        }
        let own: Vec<usize> = (0..k).map(|_| g.pick(3)).collect();
        let total: usize = own.iter().sum();
        let e = class_graph_program(k, &edges, &own);
        match run_bounded(&e, 5_000_000) {
            Ok(Value::Int(n)) => {
                assert!(n >= own[0] as i64, "count below own extent: {e}");
                assert!(n <= total as i64, "count {n} exceeds {total} objects: {e}");
            }
            Ok(other) => panic!("unexpected result {other:?}: {e}"),
            Err(RuntimeError::FuelExhausted) => panic!(
                "extent computation failed to terminate (k={k}, {} edges): {e}",
                edges.len()
            ),
            Err(other) => panic!("unexpected error {other}: {e}"),
        }
    });
}

/// In a fully connected graph where everything includes everything
/// (identity views, true predicates), every class sees every object.
#[test]
fn complete_graphs_reach_all_objects() {
    sized_cases(64, 1..6, |g, k| {
        let mut edges = Vec::new();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    edges.push((i, j));
                }
            }
        }
        let own: Vec<usize> = (0..k).map(|_| 1 + g.pick(2)).collect();
        let total: usize = own.iter().sum();
        let e = class_graph_program(k, &edges, &own);
        match run_bounded(&e, 20_000_000) {
            Ok(Value::Int(n)) => assert_eq!(n as usize, total, "{e}"),
            other => panic!("unexpected outcome {other:?}: {e}"),
        }
    });
}

/// Extent computation is deterministic: two queries agree.
#[test]
fn extent_queries_are_repeatable() {
    sized_cases(64, 1..5, |g, k| {
        let mut edges = Vec::new();
        for i in 0..k {
            let j = g.pick(k);
            edges.push((i, j));
        }
        let own: Vec<usize> = (0..k).map(|_| g.pick(3)).collect();
        let e = class_graph_program(k, &edges, &own);
        let r1 = run_bounded(&e, 5_000_000).map(|v| format!("{v:?}"));
        let r2 = run_bounded(&e, 5_000_000).map(|v| format!("{v:?}"));
        assert_eq!(r1.is_ok(), r2.is_ok(), "{e}");
    });
}

#[test]
fn ring_extent_contains_all_members_regardless_of_size() {
    // Deterministic rings up to size 16: class 0's extent reaches every
    // object; the visited set guarantees each f^i is entered at most once
    // per path (|L| strictly grows — the proof of Prop. 5).
    for k in 1..=16 {
        let edges: Vec<(usize, usize)> = (0..k).map(|i| (i, (i + 1) % k)).collect();
        let own: Vec<usize> = vec![1; k];
        let e = class_graph_program(k, &edges, &own);
        match run_bounded(&e, 50_000_000) {
            Ok(Value::Int(n)) => assert_eq!(n as usize, k, "ring of {k}"),
            other => panic!("ring of {k}: unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn diamond_sharing_counts_objects_once() {
    // D includes B and C (separately); B and C both include A: A's object
    // must appear once in D's extent, not twice (objeq collapse).
    let edges = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
    let own = vec![0, 0, 0, 1];
    let e = class_graph_program(4, &edges, &own);
    match run_bounded(&e, 5_000_000) {
        Ok(Value::Int(n)) => assert_eq!(n, 1),
        other => panic!("unexpected outcome {other:?}"),
    }
}
