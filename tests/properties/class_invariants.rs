//! Invariants of the class semantics (Sections 4.1/4.3), as properties
//! over generated classes and workloads:
//!
//! * the own extent is always a subset of the full extent;
//! * every extent member's raw object originates from some own extent
//!   (sharing never invents objects);
//! * insert/delete affect only the own extent, monotonically;
//! * extents are stable under repeated query (no query side effects).

use crate::common::{cases, count, identity, sized_cases, Gen};
use polyview_eval::{Key, Machine, SetVal, Value};
use polyview_syntax::builder as b;
use polyview_syntax::{Expr, Mono};
use std::collections::BTreeSet;

/// The size of global class `class`'s extent.
fn count_of(m: &mut Machine, class: &str) -> i64 {
    match m.eval(&count(b::v(class))).expect("count") {
        Value::Int(n) => n,
        other => panic!("expected int, got {other:?}"),
    }
}

/// Set-of-keys helper.
fn keyset(s: &SetVal) -> BTreeSet<Key> {
    s.0.keys().cloned().collect()
}

/// The keys of class `cid`'s own extent.
fn own_keys(m: &Machine, cid: usize) -> BTreeSet<Key> {
    keyset(
        m.store
            .get(m.class_data(cid).own_slot)
            .as_set()
            .expect("own is a set"),
    )
}

/// A generated class of the given depth, and a machine it evaluated on.
fn class(g: &mut Gen, depth: usize) -> (Expr, Machine, Value) {
    let view = g.view_type();
    let class_e = g.class_term(&view, &mut Vec::new(), depth);
    let mut m = Machine::new();
    let c = m.eval(&class_e).expect("class evals");
    (class_e, m, c)
}

/// extent(C) ⊇ own(C), and both are stable across repeated queries.
#[test]
fn own_extent_subset_of_extent() {
    sized_cases(64, 1..4, |g, depth| {
        let (class_e, mut m, c) = class(g, depth);
        let own = own_keys(&m, c.as_class().expect("class value"));
        let extent1 = m.extent_of(&c).expect("extent");
        let extent2 = m.extent_of(&c).expect("extent again");
        assert_eq!(
            keyset(&extent1),
            keyset(&extent2),
            "extent not stable: {class_e}"
        );
        for k in own {
            assert!(
                extent1.contains_key(&k),
                "own extent member missing from extent: {class_e}"
            );
        }
    });
}

/// Inserting a fresh object grows the extent by exactly one; deleting
/// it restores the previous extent.
#[test]
fn insert_delete_roundtrip() {
    sized_cases(64, 1..3, |g, depth| {
        let view = g.view_type();
        let mut scope = Vec::new();
        let class_e = g.class_term(&view, &mut scope, depth);
        let obj_e = g.term(&Mono::obj(view.clone()), &mut scope, 1);
        let case = format!("class {class_e}, object {obj_e}");

        let mut m = Machine::new();
        let c = m.eval(&class_e).expect("class evals");
        m.define_global("C", c);
        let o = m.eval(&obj_e).expect("object evals");
        m.define_global("o", o);

        let before = count_of(&mut m, "C");
        m.eval(&b::insert(b::v("C"), b::v("o"))).expect("insert");
        let after = count_of(&mut m, "C");
        assert_eq!(
            after,
            before + 1,
            "fresh insert must grow extent by 1: {case}"
        );

        // Inserting the same object again is a no-op (objeq).
        m.eval(&b::insert(b::v("C"), b::v("o"))).expect("re-insert");
        assert_eq!(count_of(&mut m, "C"), after, "re-insert: {case}");

        m.eval(&b::delete(b::v("C"), b::v("o"))).expect("delete");
        let restored = count_of(&mut m, "C");
        assert_eq!(restored, before, "delete must restore the extent: {case}");
    });
}

/// Sharing never invents identities: every extent member's key also
/// appears in the own extent of *some* class in the machine.
#[test]
fn extent_members_originate_from_own_extents() {
    sized_cases(64, 1..4, |g, depth| {
        let (class_e, mut m, c) = class(g, depth);
        let extent = m.extent_of(&c).expect("extent");
        let own: BTreeSet<Key> = (0..m.class_count())
            .flat_map(|cid| own_keys(&m, cid))
            .collect();
        for k in keyset(&extent) {
            assert!(
                own.contains(&k),
                "extent member {k:?} not in any own extent: {class_e}"
            );
        }
    });
}

/// A lazy includer sees inserts into its source immediately.
#[test]
fn lazy_propagation_from_source() {
    cases(64, |g| {
        let view = g.record_type(0, false);
        let mut scope = Vec::new();
        let src_e = g.class_term(&view, &mut scope, 0); // own-extent only
        let fresh_obj = g.term(&Mono::obj(view.clone()), &mut scope, 1);
        let case = format!("source {src_e}, object {fresh_obj}");

        let mut m = Machine::new();
        let src = m.eval(&src_e).expect("source class");
        m.define_global("Src", src);
        let include = b::include(vec![b::v("Src")], identity(), b::lam("x", b::boolean(true)));
        let includer = m
            .eval(&b::class(b::empty(), vec![include]))
            .expect("includer");
        m.define_global("Inc", includer);

        let before_inc = count_of(&mut m, "Inc");
        let before_src = count_of(&mut m, "Src");
        assert_eq!(
            before_inc, before_src,
            "identity include mirrors source: {case}"
        );

        let o = m.eval(&fresh_obj).expect("object");
        m.define_global("o", o);
        m.eval(&b::insert(b::v("Src"), b::v("o"))).expect("insert");
        let after_inc = count_of(&mut m, "Inc");
        assert_eq!(
            after_inc,
            before_inc + 1,
            "insert must propagate lazily: {case}"
        );
    });
}
