//! Cross-validation of the E7 benchmark setup: on workloads expressible in
//! *both* systems (non-cyclic sharing, projection views, field-equality
//! predicates), the polyview calculus and the IS-A baseline must compute
//! the same shared extents — otherwise the benchmark would compare
//! different problems.

use crate::common::{sized_cases, Gen};
use polyview::Engine;
use polyview_isa::{FieldVal, IsaStore, Refresh};

/// One person: (name, age, is_female).
type Person = (String, i64, bool);

/// A random population split across two source classes.
fn population(g: &mut Gen, n: usize) -> (Vec<Person>, Vec<Person>) {
    let mut mk = |tag: &str, i: usize| (format!("{tag}{i}"), g.range(16, 70), g.flip());
    let staff = (0..n).map(|i| mk("s", i)).collect();
    let students = (0..n).map(|i| mk("t", i)).collect();
    (staff, students)
}

fn sex(female: bool) -> &'static str {
    if female {
        "female"
    } else {
        "male"
    }
}

/// `rows` as polyview objects, with `Sex` bound by `sex_op` (`=` or `:=`).
fn objs(rows: &[Person], sex_op: &str) -> String {
    let obj = |(n, a, f): &Person| {
        format!(
            "IDView([Name = \"{n}\", Age = {a}, Sex {sex_op} \"{}\"])",
            sex(*f)
        )
    };
    rows.iter().map(obj).collect::<Vec<_>>().join(", ")
}

/// `rows` as IS-A tuples.
fn isa_row((n, a, f): &Person) -> [(String, FieldVal); 3] {
    [
        ("Name".to_string(), FieldVal::str(n.clone())),
        ("Age".to_string(), FieldVal::Int(*a)),
        ("Sex".to_string(), FieldVal::str(sex(*f))),
    ]
}

fn female_count(engine: &mut Engine) -> i64 {
    let count = "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Female)";
    let shown = engine.eval_to_string(count).expect("count");
    shown.parse().expect("int")
}

fn polyview_count(staff: &[Person], students: &[Person]) -> i64 {
    let mut engine = Engine::new();
    engine
        .exec(&format!(
            "class Staff = class {{{}}} end;\n\
             class Student = class {{{}}} end;\n\
             class Female = class {{}}\n\
             include Staff as fn s => [Name = s.Name, Age = s.Age]\n\
             where fn s => query(fn x => x.Sex = \"female\", s)\n\
             include Student as fn s => [Name = s.Name, Age = s.Age]\n\
             where fn s => query(fn x => x.Sex = \"female\", s)\n\
             end;",
            objs(staff, "="),
            objs(students, "=")
        ))
        .expect("setup");
    female_count(&mut engine)
}

fn isa_count(staff: &[Person], students: &[Person]) -> i64 {
    let mut st = IsaStore::new(Refresh::Eager);
    let staff_c = st.new_class("Staff", &[]);
    let student_c = st.new_class("Student", &[]);
    for (c, rows) in [(staff_c, staff), (student_c, students)] {
        for row in rows {
            st.insert(c, isa_row(row));
        }
    }
    let female = st.define_shared_class(
        "Female",
        &[staff_c, student_c],
        |r| r.get("Sex").and_then(FieldVal::as_str) == Some("female"),
        |r| r.project(&["Name", "Age"]),
    );
    st.count(female) as i64
}

/// The two systems agree on the shared extent for the common fragment.
#[test]
fn shared_extents_agree() {
    sized_cases(16, 1..12, |g, n| {
        let (staff, students) = population(g, n);
        let expected = staff.iter().chain(&students).filter(|(_, _, f)| *f).count() as i64;
        let case = format!("staff {staff:?}, students {students:?}");
        let polyview = polyview_count(&staff, &students);
        assert_eq!(polyview, expected, "polyview: {case}");
        assert_eq!(isa_count(&staff, &students), expected, "isa: {case}");
    });
}

/// Updates propagate equivalently: flipping one person's Sex changes
/// both systems' counts identically.
#[test]
fn update_propagation_agrees() {
    sized_cases(16, 1..8, |g, n| {
        let (staff, _) = population(g, n);

        // polyview: mutable Sex field this time.
        let mut engine = Engine::new();
        engine
            .exec(&format!(
                "class Staff = class {{{}}} end;\n\
                 class Female = class {{}}\n\
                 include Staff as fn s => [Name = s.Name]\n\
                 where fn s => query(fn x => x.Sex = \"female\", s)\n\
                 end;",
                objs(&staff, ":=")
            ))
            .expect("setup");
        // Flip s0 to female through a class query (view update).
        engine
            .exec(
                "cquery(fn s => map(fn o => query(fn x => \
                 if x.Name = \"s0\" then update(x, Sex, \"female\") else (), o), s), Staff);",
            )
            .expect("flip");
        let pv = female_count(&mut engine);

        // isa baseline, same flip.
        let mut st = IsaStore::new(Refresh::Eager);
        let staff_c = st.new_class("Staff", &[]);
        let oids: Vec<_> = staff
            .iter()
            .map(|row| st.insert(staff_c, isa_row(row)))
            .collect();
        let female = st.define_shared_class(
            "Female",
            &[staff_c],
            |r| r.get("Sex").and_then(FieldVal::as_str) == Some("female"),
            |r| r.project(&["Name"]),
        );
        st.update(staff_c, oids[0], "Sex", FieldVal::str("female"));
        let isa = st.count(female) as i64;

        let expected = staff.iter().filter(|(nm, _, f)| *f || nm == "s0").count() as i64;
        assert_eq!(pv, expected, "polyview count: staff {staff:?}");
        assert_eq!(isa, expected, "isa count: staff {staff:?}");
    });
}
