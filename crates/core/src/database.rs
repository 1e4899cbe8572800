//! An object-database facade over the calculus: named classes, inserts,
//! deletes and queries — the workflow the paper's introduction motivates,
//! with every operation statically typed by the underlying engine.

use crate::classify::StmtClass;
use crate::engine::Engine;
use crate::error::Error;
use crate::prepare::StmtKey;
use polyview_eval::Value;
use polyview_syntax::{Expr, Scheme};

/// A thin OODB wrapper around [`Engine`].
///
/// # Reads take `&mut self` — by design, and why
///
/// Every facade method except [`Database::schema`] takes `&mut self`, even
/// [`Database::query`], which performs no declaration and no store effect.
/// This is deliberate: *logical* read/write classification is *not* the
/// same thing as Rust-level mutability here, and conflating them would bake
/// a false invariant into the API.
///
/// * Evaluating any statement drives the [`polyview_eval::Machine`], which
///   allocates fresh record/object identities in its slot store, burns
///   fuel, and bumps work counters — all `&mut` state, even for a pure
///   query.
/// * The statement cache ([`crate::prepare::StmtCache`]) updates recency on
///   every hit, and a miss inserts the fresh compilation.
///
/// Neither effect is observable by later statements: [`Database::query`]
/// and [`Database::dump`] run as read regions, so the machine reclaims
/// what they allocate before they return (see
/// [`Engine::eval_to_string`]). That is exactly the distinction the
/// replicated serving layer (`crates/pool`) routes on. The **single source
/// of truth** for that distinction is [`crate::classify`]:
/// [`classify_program`](crate::classify::classify_program) — not the
/// mutability of these method receivers. [`Database::classify`] exposes it
/// on the facade.
///
/// ```
/// use polyview::Database;
///
/// let mut db = Database::new();
/// db.exec(
///     r#"
///     class Staff = class {} end;
///     insert(Staff, IDView([Name = "Alice", Age = 40, Sex = "female"]));
///     insert(Staff, IDView([Name = "Bob", Age = 50, Sex = "male"]));
///     "#,
/// )
/// .expect("setup");
/// assert_eq!(db.count("Staff").expect("count"), 2);
/// let names = db
///     .query("Staff", "fn s => map(fn o => query(fn x => x.Name, o), s)")
///     .expect("query");
/// assert_eq!(names, "{\"Alice\", \"Bob\"}");
/// ```
pub struct Database {
    engine: Engine,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    pub fn new() -> Self {
        Database {
            engine: Engine::new(),
        }
    }

    /// Run arbitrary declarations (class definitions, inserts, …).
    pub fn exec(&mut self, src: &str) -> Result<(), Error> {
        self.engine.exec(src)?;
        Ok(())
    }

    /// Evaluate an expression and render the result.
    pub fn eval(&mut self, src: &str) -> Result<String, Error> {
        self.engine.eval_to_string(src)
    }

    /// Run a `c-query` with the given set-level function source against a
    /// named class.
    ///
    /// The statement is assembled as an AST — `cquery(set_fn, class)` via
    /// [`Expr::cquery`] with the class name as a variable node — so neither
    /// operand is ever spliced into source text and reparsed: `set_fn` must
    /// be one complete expression on its own and the class name can never
    /// be reinterpreted as syntax. Compiled once per distinct
    /// `(class, set_fn)` pair, then served from the statement cache with
    /// zero parse/inference work per call. Runs as a read region, so a
    /// repeated query keeps nothing it allocates; a `set_fn` that changes
    /// earlier state reruns outside the region and applies once.
    pub fn query(&mut self, class: &str, set_fn: &str) -> Result<String, Error> {
        let key = StmtKey::Query {
            class: class.to_string(),
            set_fn: set_fn.to_string(),
        };
        self.engine.read_first(|eng| {
            let (_, v) = eng.eval_statement(key.clone(), |eng| {
                let f = eng.parse_counted(set_fn)?;
                eng.prepare_parsed(None, Expr::cquery(f, Expr::var(class)))
            })?;
            Ok(eng.show(&v))
        })
    }

    /// Insert an object expression into a named class's own extent. Like
    /// [`Database::query`], built by AST construction: `obj` must parse as
    /// one complete expression (a trailing `")); delete(…"` is a parse
    /// error, not a second statement) and the class name is a variable
    /// node, never source text.
    pub fn insert(&mut self, class: &str, obj: &str) -> Result<(), Error> {
        let key = StmtKey::Insert {
            class: class.to_string(),
            obj: obj.to_string(),
        };
        self.engine.eval_statement(key, |eng| {
            let o = eng.parse_counted(obj)?;
            eng.prepare_parsed(None, Expr::insert(Expr::var(class), o))
        })?;
        Ok(())
    }

    /// Delete an object expression from a named class's own extent (same
    /// AST-construction path as [`Database::insert`]).
    pub fn delete(&mut self, class: &str, obj: &str) -> Result<(), Error> {
        let key = StmtKey::Delete {
            class: class.to_string(),
            obj: obj.to_string(),
        };
        self.engine.eval_statement(key, |eng| {
            let o = eng.parse_counted(obj)?;
            eng.prepare_parsed(None, Expr::delete(Expr::var(class), o))
        })?;
        Ok(())
    }

    /// Number of objects in the class's full (lazily materialized) extent.
    pub fn count(&mut self, class: &str) -> Result<usize, Error> {
        let v = self.class_value(class)?;
        let extent = self.engine.on_machine(None, |m| m.extent_of(&v)).0?;
        Ok(extent.len())
    }

    /// Materialize the current views of every object in a class's extent
    /// and render them. Runs as a read region, like [`Database::query`].
    pub fn dump(&mut self, class: &str) -> Result<Vec<String>, Error> {
        let v = self.class_value(class)?;
        self.engine.read_first(|eng| {
            let extent = eng.on_machine(None, |m| m.extent_of(&v)).0?;
            extent
                .values()
                .map(|o| {
                    let mat = eng.on_machine(None, |m| m.materialize(o)).0?;
                    Ok(eng.show(&mat))
                })
                .collect()
        })
    }

    /// The principal scheme of a bound name.
    pub fn schema(&self, name: &str) -> Option<Scheme> {
        self.engine.scheme_of(name)
    }

    /// Read/write classification of a statement
    /// ([`crate::classify::classify_program`]): [`Database::query`] is
    /// always a read; [`Database::insert`]/[`Database::delete`] and any
    /// `exec` that declares or mutates are writes. The serving pool routes
    /// on this, not on receiver mutability (see the type-level docs).
    pub fn classify(src: &str) -> Result<StmtClass, Error> {
        Ok(crate::classify::classify_program(src)?)
    }

    /// The underlying engine, for anything the facade doesn't cover.
    pub fn engine(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn class_value(&mut self, class: &str) -> Result<Value, Error> {
        self.engine.eval_expr(class).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staff_db() -> Database {
        let mut db = Database::new();
        db.exec(
            "class Staff = class {} end;\n\
             insert(Staff, IDView([Name = \"Alice\", Age = 40, Sex = \"female\"]));\n\
             insert(Staff, IDView([Name = \"Bob\", Age = 50, Sex = \"male\"]));",
        )
        .expect("setup");
        db
    }

    #[test]
    fn count_and_dump() {
        let mut db = staff_db();
        assert_eq!(db.count("Staff").expect("count"), 2);
        let rows = db.dump("Staff").expect("dump");
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.contains("Alice")));
    }

    #[test]
    fn query_facade() {
        let mut db = staff_db();
        let ages = db
            .query("Staff", "fn s => map(fn o => query(fn x => x.Age, o), s)")
            .expect("query");
        assert_eq!(ages, "{40, 50}");
    }

    #[test]
    fn delete_via_binding() {
        let mut db = Database::new();
        db.exec(
            "val alice = IDView([Name = \"Alice\"]);\n\
             class Staff = class {alice} end;",
        )
        .expect("setup");
        assert_eq!(db.count("Staff").expect("count"), 1);
        db.delete("Staff", "alice").expect("delete");
        assert_eq!(db.count("Staff").expect("count"), 0);
    }

    #[test]
    fn schema_lookup() {
        let db = staff_db();
        let s = db.schema("Staff").expect("bound");
        assert!(s.to_string().starts_with("class(["), "got {s}");
        assert!(db.schema("Nope").is_none());
    }

    #[test]
    fn view_class_through_facade() {
        let mut db = staff_db();
        db.exec(
            "class Female = class {} \
             include Staff as fn s => [Name = s.Name] \
             where fn s => query(fn x => x.Sex = \"female\", s) end;",
        )
        .expect("view class");
        assert_eq!(db.count("Female").expect("count"), 1);
        let rows = db.dump("Female").expect("dump");
        assert_eq!(rows, vec!["[Name = \"Alice\"]"]);
    }
}
