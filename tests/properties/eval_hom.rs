//! Property-based `hom` semantics (the example-based half is
//! `crates/eval/tests/hom_semantics.rs`): determinism over canonical order and the definability claims of
//! Section 2 (member/map/filter/prod from union/hom).

use crate::common::{cases, Gen};
use polyview_eval::Machine;
use polyview_syntax::builder as b;
use polyview_syntax::{sugar, Expr};
use std::collections::BTreeSet;

fn eval_show(e: &Expr) -> String {
    let mut m = Machine::new();
    let v = m.eval(e).expect("evaluation succeeds");
    m.show(&v)
}

/// Up to `max - 1` ints drawn from `lo..hi`.
fn ints(g: &mut Gen, lo: i64, hi: i64, max: usize) -> Vec<i64> {
    (0..g.pick(max)).map(|_| g.range(lo, hi)).collect()
}

/// `{n1, …, nk}` as a set literal.
fn int_set(xs: &[i64]) -> Expr {
    Expr::set(xs.iter().map(|n| b::int(*n)))
}

/// hom with a non-commutative operator is deterministic across element
/// insertion orders (sets are canonical).
#[test]
fn deterministic_across_insertion_orders() {
    cases(128, |g| {
        let mut xs = ints(g, -50, 50, 8);
        let fold = |elems: &[i64]| {
            b::hom(
                int_set(elems),
                b::lam("x", b::v("x")),
                b::lam("a", b::lam("acc", b::sub(b::v("a"), b::v("acc")))),
                b::int(0),
            )
        };
        let r1 = eval_show(&fold(&xs));
        xs.reverse();
        let r2 = eval_show(&fold(&xs));
        assert_eq!(r1, r2, "{xs:?}");
    });
}

/// sum via hom equals the native sum of the deduplicated elements.
#[test]
fn sum_matches_reference() {
    cases(128, |g| {
        let xs = ints(g, -50, 50, 10);
        let expected: i64 = xs.iter().collect::<BTreeSet<_>>().into_iter().sum();
        let e = b::hom(
            int_set(&xs),
            b::lam("x", b::v("x")),
            b::lam("a", b::lam("acc", b::add(b::v("a"), b::v("acc")))),
            b::int(0),
        );
        assert_eq!(eval_show(&e), expected.to_string(), "{xs:?}");
    });
}

/// The paper's definability claims: member/map/filter from union+hom
/// agree with reference implementations.
#[test]
fn derived_ops_match_reference() {
    cases(128, |g| {
        let xs = ints(g, -20, 20, 8);
        let probe = g.range(-20, 20);
        let dedup: BTreeSet<i64> = xs.iter().copied().collect();
        let set_e = int_set(&xs);
        let shown = |s: BTreeSet<i64>| {
            let items: Vec<String> = s.iter().map(|n| n.to_string()).collect();
            format!("{{{}}}", items.join(", "))
        };

        let member = sugar::member(b::int(probe), set_e.clone());
        assert_eq!(
            eval_show(&member),
            dedup.contains(&probe).to_string(),
            "{probe} in {xs:?}"
        );

        let mapped = sugar::map(b::lam("x", b::mul(b::v("x"), b::int(3))), set_e.clone());
        let expected = dedup.iter().map(|n| n * 3).collect();
        assert_eq!(eval_show(&mapped), shown(expected), "map over {xs:?}");

        let filtered = sugar::filter(b::lam("x", b::gt(b::v("x"), b::int(0))), set_e);
        let expected = dedup.iter().copied().filter(|n| *n > 0).collect();
        assert_eq!(eval_show(&filtered), shown(expected), "filter over {xs:?}");
    });
}

/// prod cardinality = product of deduplicated cardinalities.
#[test]
fn prod_cardinality() {
    cases(128, |g| {
        let (xs, ys) = (ints(g, 0, 6, 5), ints(g, 0, 6, 5));
        let nx = xs.iter().collect::<BTreeSet<_>>().len();
        let ny = ys.iter().collect::<BTreeSet<_>>().len();
        let e = sugar::prod2(int_set(&xs), int_set(&ys));
        let mut m = Machine::new();
        let v = m.eval(&e).expect("eval");
        assert_eq!(v.as_set().expect("set").len(), nx * ny, "{xs:?} × {ys:?}");
    });
}
