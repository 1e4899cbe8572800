//! Lexer and parser for the polyview surface language — an ML-flavoured
//! concrete syntax for the paper's calculus.
//!
//! ```text
//! val joe = IDView([Name = "Joe", BirthYear = 1955,
//!                   Salary := 2000, Bonus := 5000]);
//! val joe_view = joe as fn x => [Name = x.Name,
//!                                Age = this_year() - x.BirthYear,
//!                                Income = x.Salary,
//!                                Bonus := extract(x, Bonus)];
//! query(fn p => p.Income * 12 + p.Bonus, joe_view);
//! ```
//!
//! Programs are sequences of declarations: `val x = e;`,
//! `fun f x = e and g y = e';`, top-level recursive class groups
//! `class A = class … end and B = class … end;`, and bare expressions.
//! Every declaration maps onto the paper's abstract syntax; derived forms
//! (`select … as … from … where …`, `member`, `map`, `filter`, `prod`,
//! `intersect`, `objeq`, relation queries) desugar through
//! `polyview_syntax::sugar`.

pub mod error;
pub mod lexer;
pub mod parser;
pub mod token;

pub use error::ParseError;
pub use parser::{
    fun_decl_to_expr, parse_expr, parse_expr_counted, parse_program, parse_program_counted, Decl,
    ParseStats,
};
