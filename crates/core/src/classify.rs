//! Read/write classification of statements: the syntactic pre-filter the
//! serving layer (`crates/pool`) routes on.
//!
//! The calculus is purely functional at the value level: objects are
//! raw-object/view pairs (Fig. 3), and a query never changes what any later
//! statement observes. Persistent state changes come from exactly two
//! places:
//!
//! * **declarations** — `val`/`fun`/`class` extend the top-level type and
//!   value environments (and bump the engine's declaration epoch), and
//! * **store effects** — `insert`/`delete` change a class's own extent, and
//!   `update` assigns to a mutable record field.
//!
//! A statement containing either is a [`StmtClass::Write`]; everything else
//! is a [`StmtClass::Read`]. The rule is syntactic, so it cannot see an
//! effect reached through a name or through data — `f(o)` after
//! `fun f x = insert(C, x);`, or `(box.F)(o)` after a closure was stored in
//! `box`. It does not have to: a read runs as a *read region*
//! ([`crate::Engine::read`]), which reclaims whatever the read allocated
//! and refuses, before mutating, any write to state that existed when it
//! began ([`crate::eval::RuntimeError::EffectInRead`]). The pool answers
//! that refusal by sequencing the statement as a write (DESIGN.md §10).
//! Classification is therefore only a routing hint: a write misfiled as a
//! read costs one rolled-back evaluation, never a diverged replica.
//!
//! [`crate::Database`]'s facade methods follow the same split (`query` is a
//! read, `insert`/`delete`/`exec` are writes), and [`classify_expr`] on
//! [`crate::Prepared::ast`] classifies a compiled statement without
//! reparsing.

use polyview_parser::{parse_program, Decl, ParseError};
use polyview_syntax::visit::walk;
use polyview_syntax::Expr;

/// Whether a statement changes state any later statement can observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StmtClass {
    /// No persistent effect: safe to serve on any replica of an engine kept
    /// in declaration-log lock-step.
    Read,
    /// Declares a top-level name or mutates the store: must be sequenced
    /// and replayed on every replica.
    Write,
}

impl StmtClass {
    pub fn is_read(self) -> bool {
        matches!(self, StmtClass::Read)
    }

    pub fn is_write(self) -> bool {
        matches!(self, StmtClass::Write)
    }
}

impl std::fmt::Display for StmtClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StmtClass::Read => write!(f, "read"),
            StmtClass::Write => write!(f, "write"),
        }
    }
}

/// Classify a bare expression: a write iff it contains an effectful node
/// (`insert`, `delete`, or `update`) anywhere, including under binders —
/// a lambda that *would* insert when applied is conservatively a write,
/// because evaluating the statement may apply it.
pub fn classify_expr(e: &Expr) -> StmtClass {
    let mut writes = false;
    walk(e, &mut |n| {
        if matches!(
            n,
            Expr::Insert(_, _)
                | Expr::Delete(_, _)
                | Expr::Update(_, _, _)
                | Expr::UpdateAt(_, _, _, _)
        ) {
            writes = true;
        }
    });
    if writes {
        StmtClass::Write
    } else {
        StmtClass::Read
    }
}

/// Classify a parsed declaration. `val`/`fun`/`class` always write (they
/// bind top-level names and bump the declaration epoch); a bare expression
/// writes iff [`classify_expr`] says so.
pub fn classify_decl(d: &Decl) -> StmtClass {
    match d {
        Decl::Val(_, _) | Decl::Fun(_) | Decl::Classes(_) => StmtClass::Write,
        Decl::Expr(e) => classify_expr(e),
    }
}

/// Classify a whole program (`;`-separated declarations): a write iff any
/// of its declarations writes. Parsing happens against no environment, so
/// classification needs no engine and can run on the submitting thread.
pub fn classify_program(src: &str) -> Result<StmtClass, ParseError> {
    let decls = parse_program(src)?;
    Ok(if decls.iter().any(|d| classify_decl(d).is_write()) {
        StmtClass::Write
    } else {
        StmtClass::Read
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_are_writes() {
        assert_eq!(classify_program("val x = 1;").unwrap(), StmtClass::Write);
        assert_eq!(classify_program("fun f x = x;").unwrap(), StmtClass::Write);
        assert_eq!(
            classify_program("class C = class {} end;").unwrap(),
            StmtClass::Write
        );
    }

    #[test]
    fn store_effects_are_writes() {
        assert_eq!(
            classify_program("insert(C, IDView([Name = \"x\"]))").unwrap(),
            StmtClass::Write
        );
        assert_eq!(classify_program("delete(C, o)").unwrap(), StmtClass::Write);
        assert_eq!(
            classify_program("update(r, Salary, 99)").unwrap(),
            StmtClass::Write
        );
    }

    #[test]
    fn queries_and_expressions_are_reads() {
        for src in [
            "1 + 2",
            "query(fn x => x.Name, o)",
            "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)",
            "let x = 3 in x * x end",
            "[Name = \"joe\"]", // allocates an identity, but unreachably
        ] {
            assert_eq!(classify_program(src).unwrap(), StmtClass::Read, "{src}");
        }
    }

    #[test]
    fn effect_under_a_binder_is_conservatively_a_write() {
        assert_eq!(
            classify_program("fn x => insert(C, x)").unwrap(),
            StmtClass::Write
        );
        assert_eq!(
            classify_program("if b then update(r, F, 1) else ()").unwrap(),
            StmtClass::Write
        );
    }

    #[test]
    fn program_writes_if_any_decl_writes() {
        assert_eq!(
            classify_program("1 + 1; val x = 2; 3 + 3;").unwrap(),
            StmtClass::Write
        );
    }

    #[test]
    fn parse_errors_surface() {
        assert!(classify_program("val = 3").is_err());
    }
}
