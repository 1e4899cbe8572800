//! `hom` — the paper's general set eliminator: the defining equation, the
//! empty-set case, and effect/duplicate semantics. The property-based half
//! (determinism over canonical order, the Section 2 definability claims)
//! lives in `tests/properties/eval_hom.rs` at the workspace root.

use polyview_eval::Machine;
use polyview_syntax::builder as b;
use polyview_syntax::Expr;

fn eval_show(e: &Expr) -> String {
    let mut m = Machine::new();
    let v = m.eval(e).expect("evaluation succeeds");
    m.show(&v)
}

#[test]
fn defining_equation_on_known_order() {
    // For ints the canonical order is numeric, so
    // hom({1,2,3}, f, op, z) = op(f 1, op(f 2, op(f 3, z))).
    // With op = subtraction this distinguishes fold directions:
    // 1 - (2 - (3 - 0)) = 2.
    let e = b::hom(
        b::set([b::int(1), b::int(2), b::int(3)]),
        b::lam("x", b::v("x")),
        b::lam("a", b::lam("acc", b::sub(b::v("a"), b::v("acc")))),
        b::int(0),
    );
    assert_eq!(eval_show(&e), "2");
}

#[test]
fn empty_set_returns_z() {
    let e = b::hom(
        b::empty(),
        b::lam("x", b::v("x")),
        b::lam("a", b::lam("acc", b::v("a"))),
        b::str("zero"),
    );
    assert_eq!(eval_show(&e), "\"zero\"");
}

#[test]
fn singleton_applies_f_once() {
    let e = b::hom(
        b::set([b::int(21)]),
        b::lam("x", b::mul(b::v("x"), b::int(2))),
        b::lam("a", b::lam("acc", b::add(b::v("a"), b::v("acc")))),
        b::int(0),
    );
    assert_eq!(eval_show(&e), "42");
}

#[test]
fn duplicates_are_collapsed_before_iteration() {
    // {1,1,1} is the singleton {1}: f runs once.
    let e = b::hom(
        b::set([b::int(1), b::int(1), b::int(1)]),
        b::lam("x", b::int(1)),
        b::lam("a", b::lam("acc", b::add(b::v("a"), b::v("acc")))),
        b::int(0),
    );
    assert_eq!(eval_show(&e), "1");
}

#[test]
fn effects_in_f_run_per_element() {
    // f updates a shared cell: it must fire exactly n times.
    let e = b::let_(
        "cell",
        b::record([b::mt("n", b::int(0))]),
        b::let_(
            "_",
            b::hom(
                b::set([b::int(10), b::int(20), b::int(30)]),
                b::lam(
                    "x",
                    b::update(
                        b::v("cell"),
                        "n",
                        b::add(b::dot(b::v("cell"), "n"), b::int(1)),
                    ),
                ),
                b::lam("a", b::lam("acc", b::unit())),
                b::unit(),
            ),
            b::dot(b::v("cell"), "n"),
        ),
    );
    assert_eq!(eval_show(&e), "3");
}
