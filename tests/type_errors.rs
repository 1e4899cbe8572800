//! Systematic rejection of ill-typed programs: every static guarantee the
//! paper's type system provides, exercised through the surface language.

use polyview::{Engine, Error};
use polyview_types::TypeError;

fn reject(src: &str) -> Error {
    let mut e = Engine::new();
    e.exec(
        r#"
        val joe = IDView([Name = "Joe", BirthYear = 1955,
                          Salary := 2000, Bonus := 5000]);
        val raw = [Name = "Doe", Salary := 3000];
        class Staff = class {IDView([Name = "A", Sex = "female"])} end;
        "#,
    )
    .expect("setup");
    e.infer_expr(src).expect_err("program should be rejected")
}

fn assert_type_error(src: &str) {
    let err = reject(src);
    assert!(err.is_type_error(), "{src} gave {err:?}");
}

#[test]
fn field_access_on_non_record() {
    assert_type_error("1.Name");
    assert_type_error("\"x\".Name");
    assert_type_error("{1}.Name");
}

#[test]
fn a_record_gives_each_label_once() {
    // A repeated label has no slot of its own in the record's layout.
    for src in [
        "[a = 1, a = 2]",
        "[a = 1, b = 2, a := 3].b",
        "relobj(a = joe, a = joe)",
    ] {
        assert!(
            matches!(reject(src), Error::Type(TypeError::DuplicateField(ref l)) if l.as_str() == "a"),
            "{src}"
        );
    }
    // Refused before it runs: the machine lays a record out by its labels.
    let mut e = Engine::new();
    assert!(e.exec("[a = 1, a = 2].a;").is_err());
    assert_eq!(e.eval_to_string("[a = 1, b = 2].b").expect("runs"), "2");
}

#[test]
fn missing_fields() {
    assert_type_error("raw.Age");
    assert!(matches!(
        reject("raw.Age"),
        Error::Type(TypeError::MissingField { .. })
    ));
}

#[test]
fn update_violations() {
    assert!(matches!(
        reject("update(raw, Name, \"P\")"),
        Error::Type(TypeError::MutabilityViolation { .. })
    ));
    assert_type_error("update(raw, Salary, \"not an int\")");
    assert_type_error("update(raw, Missing, 1)");
    assert_type_error("update(1, x, 2)");
}

#[test]
fn extract_violations() {
    assert!(matches!(
        reject("extract(raw, Name)"),
        Error::Type(TypeError::MutabilityViolation { .. })
    ));
    // L-values are not first-class ints.
    assert_type_error("extract(raw, Salary) * 2");
    // …nor comparable to ints.
    assert_type_error("extract(raw, Salary) = 2");
}

#[test]
fn application_arity_and_domain() {
    assert_type_error("1 2");
    assert_type_error("(fn x => x + 1) \"str\"");
    assert_type_error("add 1 true");
}

#[test]
fn condition_must_be_bool() {
    assert_type_error("if 1 then 2 else 3");
    assert_type_error("if true then 1 else \"x\"");
}

#[test]
fn heterogeneous_sets() {
    assert_type_error("{1, \"x\"}");
    assert_type_error("union({1}, {\"x\"})");
}

#[test]
fn eq_requires_equal_types() {
    assert_type_error("1 = \"x\"");
    assert_type_error("eq({1}, 1)");
}

#[test]
fn view_layer_violations() {
    // IDView needs a record.
    assert_type_error("IDView(1)");
    assert_type_error("IDView({1})");
    // query needs a function and an object.
    assert_type_error("query(fn x => x, 1)");
    assert_type_error("query(1, joe)");
    // Querying a hidden field through a view.
    assert_type_error("query(fn x => x.BirthYear, joe as fn y => [Name = y.Name])");
    // as needs an object on the left.
    assert_type_error("1 as fn x => x");
    // fuse needs objects.
    assert_type_error("fuse(1, joe)");
    // The view function's domain must match the view type.
    assert_type_error("joe as fn x => [N = x.NoSuchField]");
}

#[test]
fn view_update_restrictions_propagate() {
    // A view exposing Income immutably forbids updates through it, even
    // though the underlying Salary is mutable (the paper's access
    // restriction example).
    assert_type_error("query(fn x => update(x, Income, 1), joe as fn y => [Income = y.Salary])");
}

#[test]
fn class_layer_violations() {
    // cquery needs a set-level function.
    assert_type_error("cquery(fn o => query(fn x => x.Name, o), Staff)");
    // insert of a non-object.
    assert_type_error("insert(Staff, 1)");
    // insert of an object of the wrong view type.
    assert_type_error("insert(Staff, IDView([Other = 1]))");
    // include source must be a class.
    assert_type_error(
        "class {} include {IDView([Name = \"x\", Sex = \"f\"])} as fn s => s \
         where fn s => true end",
    );
    // predicate must return bool.
    assert_type_error("class {} include Staff as fn s => s where fn s => 1 end");
    // view must produce the class's object type consistently across
    // clauses.
    assert_type_error(
        "class {IDView([a = 1])} include Staff as fn s => [b = 2] \
         where fn s => true end",
    );
}

#[test]
fn polymorphism_is_not_unsound_subtyping() {
    // A function requiring Income cannot be applied to a record without
    // it, even through an object.
    let mut e = Engine::new();
    e.exec("fun annual p = p.Income * 12 + p.Bonus;")
        .expect("defines");
    let err = e
        .infer_expr("annual [Income = 3]")
        .expect_err("missing Bonus");
    assert!(err.is_type_error());
}

#[test]
fn occurs_check_rejected() {
    assert_type_error("fn x => x x");
    assert!(matches!(
        reject("fn x => x x"),
        Error::Type(TypeError::Occurs(..))
    ));
}

#[test]
fn unbound_names_rejected_statically() {
    assert!(matches!(
        reject("nope + 1"),
        Error::Type(TypeError::Unbound(_))
    ));
}

#[test]
fn errors_display_readably() {
    let shown = reject("update(raw, Name, \"P\")").to_string();
    assert!(shown.contains("Name"), "got: {shown}");
    assert!(shown.contains("immutable"), "got: {shown}");
    let shown = reject("raw.Age").to_string();
    assert!(shown.contains("no field"), "got: {shown}");
}
