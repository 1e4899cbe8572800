//! Direct tests of the machine's public API surface: view application,
//! n-ary fuse, object-set intersection, globals, rendering.

use polyview_eval::value::{ObjVal, ViewFn};
use polyview_eval::{Machine, RuntimeError, SetVal, Value};
use polyview_syntax::builder as b;
use std::rc::Rc;

fn obj(m: &mut Machine, fields: &[(&str, i64)]) -> Rc<ObjVal> {
    let rec = b::record(
        fields
            .iter()
            .map(|(l, v)| b::imm(l, b::int(*v)))
            .collect::<Vec<_>>(),
    );
    match m.eval(&b::id_view(rec)).expect("object") {
        Value::Obj(o) => o,
        other => panic!("expected obj, got {other:?}"),
    }
}

#[test]
fn apply_view_identity_returns_raw() {
    let mut m = Machine::new();
    let o = obj(&mut m, &[("a", 1)]);
    let mat = m
        .apply_view(&ViewFn::Identity, o.raw.clone())
        .expect("apply");
    assert!(mat.value_eq(&o.raw), "identity view must preserve identity");
}

#[test]
fn apply_view_tuple_builds_numeric_record() {
    let mut m = Machine::new();
    let o = obj(&mut m, &[("a", 7)]);
    let tuple = ViewFn::Tuple(vec![Rc::new(ViewFn::Identity), Rc::new(ViewFn::Identity)]);
    let mat = m.apply_view(&tuple, o.raw.clone()).expect("apply");
    let shown = m.show(&mat);
    assert_eq!(shown, "[1 = [a = 7], 2 = [a = 7]]");
}

#[test]
fn apply_view_relfields_missing_field_errors() {
    let mut m = Machine::new();
    let o = obj(&mut m, &[("a", 7)]);
    let rel = ViewFn::RelFields(vec![(
        polyview_syntax::Label::new("missing"),
        Rc::new(ViewFn::Identity),
    )]);
    assert!(matches!(
        m.apply_view(&rel, o.raw.clone()),
        Err(RuntimeError::NoSuchField(_))
    ));
}

#[test]
fn fuse_objs_singleton_and_mismatch() {
    let mut m = Machine::new();
    let o1 = obj(&mut m, &[("a", 1)]);
    let o2 = obj(&mut m, &[("a", 1)]);
    // Same object with itself: singleton.
    let s = m.fuse_objs(&[o1.clone(), o1.clone()]);
    assert_eq!(s.len(), 1);
    // Distinct raws: empty.
    let s = m.fuse_objs(&[o1.clone(), o2]);
    assert!(s.is_empty());
    // Unary: pass-through singleton.
    let s = m.fuse_objs(std::slice::from_ref(&o1));
    assert_eq!(s.len(), 1);
    assert!(s.values().next().expect("one").value_eq(&Value::Obj(o1)));
}

#[test]
fn fuse_objs_three_way_flat_view() {
    let mut m = Machine::new();
    let o = obj(&mut m, &[("a", 5)]);
    let s = m.fuse_objs(&[o.clone(), o.clone(), o.clone()]);
    assert_eq!(s.len(), 1);
    let fused = s.values().next().expect("one").clone();
    let mat = m.materialize(&fused).expect("materialize");
    assert_eq!(m.show(&mat), "[1 = [a = 5], 2 = [a = 5], 3 = [a = 5]]");
}

#[test]
fn intersect_obj_sets_matches_set_semantics() {
    let mut m = Machine::new();
    let shared = obj(&mut m, &[("a", 1)]);
    let only_left = obj(&mut m, &[("a", 2)]);
    let only_right = obj(&mut m, &[("a", 3)]);
    let left = SetVal::from_elems([Value::Obj(shared.clone()), Value::Obj(only_left)]);
    let right = SetVal::from_elems([Value::Obj(shared.clone()), Value::Obj(only_right)]);
    let both = m
        .intersect_obj_sets(&[left.clone(), right])
        .expect("intersect");
    assert_eq!(both.len(), 1);
    // Unary intersect is the set itself.
    let same = m
        .intersect_obj_sets(std::slice::from_ref(&left))
        .expect("intersect");
    assert_eq!(same.len(), left.len());
}

#[test]
fn globals_roundtrip() {
    let mut m = Machine::new();
    m.define_global("x", Value::Int(42));
    assert!(m
        .global(&polyview_syntax::Label::new("x"))
        .expect("bound")
        .value_eq(&Value::Int(42)));
    let v = m.eval(&b::add(b::v("x"), b::int(1))).expect("runs");
    assert!(v.value_eq(&Value::Int(43)));
}

#[test]
fn builtin_partial_application() {
    let mut m = Machine::new();
    let v = m
        .eval(&b::let_(
            "inc",
            b::app(b::v("add"), b::int(1)),
            b::app(b::v("inc"), b::int(41)),
        ))
        .expect("runs");
    assert!(v.value_eq(&Value::Int(42)));
    // A partially applied builtin is a function value.
    let f = m.eval(&b::app(b::v("add"), b::int(1))).expect("runs");
    assert_eq!(f.shape(), "function");
}

#[test]
fn show_caps_depth_instead_of_recursing_forever() {
    // Build a deeply nested record purely via the API and render it.
    let mut m = Machine::new();
    let mut e = b::record([b::imm("leaf", b::int(1))]);
    for _ in 0..100 {
        e = b::record([b::imm("n", e)]);
    }
    let v = m.eval(&e).expect("runs");
    let shown = m.show(&v);
    assert!(
        shown.contains('…'),
        "deep rendering must be capped: {shown}"
    );
}

#[test]
fn field_of_reads_through_store() {
    let mut m = Machine::new();
    let v = m
        .eval(&b::record([b::imm("Name", b::str("Ada"))]))
        .expect("runs");
    let name = m.field_of(&v, "Name").expect("field");
    assert_eq!(m.show(&name), "\"Ada\"");
    assert!(matches!(
        m.field_of(&v, "Nope"),
        Err(RuntimeError::NoSuchField(_))
    ));
    assert!(matches!(
        m.field_of(&Value::Int(1), "x"),
        Err(RuntimeError::NotARecord(_))
    ));
}

#[test]
fn set_contains_uses_objeq_for_objects() {
    let mut m = Machine::new();
    let o = obj(&mut m, &[("a", 1)]);
    let s = SetVal::from_elems([Value::Obj(o.clone())]);
    // A different view of the same raw is "contained" (objeq).
    let id2 = m.fresh_id();
    let reviewed = Value::Obj(Rc::new(ObjVal {
        id: id2,
        raw: o.raw.clone(),
        view: ViewFn::Identity,
    }));
    assert!(m.set_contains(&s, &reviewed));
}

#[test]
fn class_count_and_data_access() {
    let mut m = Machine::new();
    assert_eq!(m.class_count(), 0);
    let c = m.eval(&b::class(b::empty(), vec![])).expect("class");
    assert_eq!(m.class_count(), 1);
    let cid = c.as_class().expect("class id");
    assert!(m.class_data(cid).includes.is_empty());
}

#[test]
fn eval_runs_one_ast_against_live_globals() {
    // One AST, evaluated repeatedly, observing the current global
    // bindings and store each run.
    let mut m = Machine::new();
    m.define_global("x", Value::Int(1));
    let ast = b::add(b::v("x"), b::int(1));
    assert!(matches!(m.eval(&ast), Ok(Value::Int(2))));
    m.define_global("x", Value::Int(41));
    assert!(matches!(m.eval(&ast), Ok(Value::Int(42))));
}

#[test]
fn closures_share_their_code_with_the_resolved_tree() {
    // A resolved λ holds its code behind `Rc`; every closure made from it
    // must share that allocation, not copy the body.
    use polyview_syntax::resolve::resolve;
    use polyview_syntax::Expr;
    let mut m = Machine::new();
    let lam = resolve(&b::lam("y", b::add(b::v("y"), b::int(1))), m.global_names());
    let code = match &lam {
        Expr::LamAt(l) => Rc::clone(l),
        other => panic!("expected a resolved λ, got {other}"),
    };
    for _ in 0..2 {
        match m.eval_code(&lam).expect("closure") {
            Value::Closure(c) => assert!(Rc::ptr_eq(&c.code, &code)),
            other => panic!("expected closure, got {other:?}"),
        }
    }
}
