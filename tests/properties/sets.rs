//! Properties of the set semantics chosen in Section 3.1: sets identify
//! objects up to `objeq`, union is associative/idempotent on keys and
//! left-biased on representatives.

use crate::common::{cases, Gen};
use polyview_eval::value::{ObjVal, RecordVal, ViewFn};
use polyview_eval::{Key, SetVal, Value};
use polyview_syntax::Layout;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Build a value from a compact descriptor: ints are base values, (raw id,
/// obj id) pairs are objects (same raw ⇒ objeq-identified).
#[derive(Clone, Debug)]
enum Elem {
    Int(i64),
    Obj { raw: u64, assoc: u64 },
}

fn value(e: &Elem) -> Value {
    match e {
        Elem::Int(n) => Value::Int(*n),
        Elem::Obj { raw, assoc } => Value::Obj(Rc::new(ObjVal {
            id: *assoc,
            raw: Value::Record(Rc::new(RecordVal {
                id: *raw,
                layout: Rc::new(Layout::new([])),
                slots: Vec::new(),
            })),
            view: ViewFn::Identity,
        })),
    }
}

/// Up to `max - 1` random elements: ints, and objects over a handful of
/// raw records, so collisions are common.
fn elems(g: &mut Gen, max: usize) -> Vec<Elem> {
    (0..g.pick(max))
        .map(|_| {
            if g.flip() {
                Elem::Int(g.range(-20, 20))
            } else {
                Elem::Obj {
                    raw: g.below(6),
                    assoc: g.below(1000),
                }
            }
        })
        .collect()
}

fn set_of(elems: &[Elem]) -> SetVal {
    SetVal::from_elems(elems.iter().map(value))
}

fn keys(s: &SetVal) -> Vec<Key> {
    s.0.keys().cloned().collect()
}

/// Key sets of unions are unions of key sets (order-insensitive).
#[test]
fn union_key_sets_are_set_union() {
    cases(256, |g| {
        let (a, b) = (elems(g, 10), elems(g, 10));
        let (sa, sb) = (set_of(&a), set_of(&b));
        let u = sa.union_left(&sb);
        let expected: BTreeSet<Key> = keys(&sa).into_iter().chain(keys(&sb)).collect();
        let expected: Vec<Key> = expected.into_iter().collect();
        assert_eq!(keys(&u), expected, "{a:?} ∪ {b:?}");
    });
}

/// Union is associative on keys and representatives.
#[test]
fn union_is_associative() {
    cases(256, |g| {
        let (a, b, c) = (elems(g, 8), elems(g, 8), elems(g, 8));
        let (sa, sb, sc) = (set_of(&a), set_of(&b), set_of(&c));
        let left = sa.union_left(&sb).union_left(&sc);
        let right = sa.union_left(&sb.union_left(&sc));
        assert_eq!(keys(&left), keys(&right), "{a:?} ∪ {b:?} ∪ {c:?}");
        // Left bias makes representatives agree too.
        for (k, v) in left.0.iter() {
            assert!(v.value_eq(&right.0[k]), "{a:?} ∪ {b:?} ∪ {c:?}");
        }
    });
}

/// Union is idempotent.
#[test]
fn union_is_idempotent() {
    cases(256, |g| {
        let a = elems(g, 10);
        let sa = set_of(&a);
        let u = sa.union_left(&sa);
        assert_eq!(keys(&u), keys(&sa), "{a:?}");
    });
}

/// Left bias: on key collision the left representative survives.
#[test]
fn union_is_left_biased() {
    cases(256, |g| {
        let (a, b) = (elems(g, 10), elems(g, 10));
        let (sa, sb) = (set_of(&a), set_of(&b));
        let u = sa.union_left(&sb);
        for (k, v) in sa.0.iter() {
            assert!(
                u.0[k].value_eq(v),
                "left element replaced for key {k:?}: {a:?} ∪ {b:?}"
            );
        }
    });
}

/// Objects with the same raw record collapse to one element whose
/// representative is the first inserted.
#[test]
fn objeq_collapse_keeps_first() {
    cases(256, |g| {
        let elems: Vec<Elem> = (0..1 + g.pick(7))
            .map(|_| Elem::Obj {
                raw: 42,
                assoc: g.below(1000),
            })
            .collect();
        let s = set_of(&elems);
        assert_eq!(s.len(), 1, "{elems:?}");
        let kept = s.values().next().expect("one");
        assert!(kept.value_eq(&value(&elems[0])), "{elems:?}");
    });
}

/// Difference removes exactly the common keys.
#[test]
fn difference_complements_union() {
    cases(256, |g| {
        let (a, b) = (elems(g, 10), elems(g, 10));
        let (sa, sb) = (set_of(&a), set_of(&b));
        let d = sa.difference(&sb);
        for k in keys(&d) {
            assert!(sa.contains_key(&k), "{a:?} \\ {b:?}");
            assert!(!sb.contains_key(&k), "{a:?} \\ {b:?}");
        }
        for k in keys(&sa) {
            if !sb.contains_key(&k) {
                assert!(d.contains_key(&k), "{a:?} \\ {b:?}");
            }
        }
    });
}

/// Set values compare by element keys: permutations are equal.
#[test]
fn sets_equal_up_to_permutation() {
    cases(256, |g| {
        let mut elems = elems(g, 10);
        let s1 = Value::Set(set_of(&elems));
        elems.reverse();
        let s2 = Value::Set(set_of(&elems));
        // NOTE: with objeq collapse, reversing may keep a *different*
        // representative, but keys still agree, so eq holds.
        assert!(s1.value_eq(&s2), "{elems:?}");
    });
}
