//! `polyview` — a typed polymorphic calculus for views and object sharing.
//!
//! This crate is the public face of the workspace: a complete
//! implementation of Ohori & Tajima's PODS 1994 calculus, packaged as a
//! database programming language you can embed:
//!
//! ```
//! use polyview::Engine;
//!
//! let mut engine = Engine::new();
//! engine
//!     .exec(
//!         r#"
//!         val joe = IDView([Name = "Joe", BirthYear = 1955,
//!                           Salary := 2000, Bonus := 5000]);
//!         val joe_view = joe as fn x => [Name = x.Name,
//!                                        Age = this_year() - x.BirthYear,
//!                                        Income = x.Salary,
//!                                        Bonus := extract(x, Bonus)];
//!         "#,
//!     )
//!     .expect("definitions typecheck and evaluate");
//! let out = engine
//!     .eval_to_string("query(fn p => p.Income * 12 + p.Bonus, joe_view)")
//!     .expect("well-typed query");
//! assert_eq!(out, "29000");
//! ```
//!
//! The pieces:
//!
//! * [`Engine`] — parse → infer (principal types, Fig. 1/2/4/6) → evaluate,
//!   with persistent top-level environments and a compile-once/run-many
//!   prepared-statement pipeline ([`prepare`]).
//! * [`Database`] — an object-database facade over named classes, built on
//!   AST construction and cached prepared statements (no source splicing).
//! * Re-exports of the sub-crates for direct access to the AST
//!   ([`syntax`]), parser ([`parser`]), type system ([`types`]), evaluator
//!   ([`eval`]) and the paper's translation semantics ([`trans`]).

pub mod classify;
pub mod database;
pub mod engine;
pub mod error;
pub mod explain;
pub mod prelude;
pub mod prepare;
pub mod profile;
pub mod snapshot;

pub use classify::{classify_decl, classify_expr, classify_program, StmtClass};
pub use database::Database;
pub use engine::{Engine, EngineMetrics, Outcome};
pub use error::Error;
pub use explain::Explain;
pub use prepare::{EngineStats, Prepared};
pub use profile::ProfileReport;

pub use polyview_eval as eval;
pub use polyview_obs as obs;
pub use polyview_parser as parser;
pub use polyview_syntax as syntax;
pub use polyview_trans as trans;
pub use polyview_types as types;

pub use polyview_eval::{Machine, Profile, ProfileNode, Value};
pub use polyview_syntax::{Expr, Mono, Scheme};
