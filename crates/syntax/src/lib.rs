//! Abstract syntax for the polymorphic calculus of views and object sharing
//! (Ohori & Tajima, PODS 1994).
//!
//! This crate defines the three syntactic layers of the paper:
//!
//! * the **core language** of Section 2 — records with mutable and immutable
//!   fields, sets, lambda terms, `fix`, `let`, `eq`, `hom` and `union`;
//! * the **view extension** of Section 3 — `IDView`, view composition
//!   (`as`), `query`, `fuse` and `relobj`;
//! * the **class extension** of Section 4 — class definitions with `include
//!   … as … where …` clauses, `c-query`, `insert`, `delete`, and mutually
//!   recursive class groups.
//!
//! It also defines the type language (monotypes, record kinds, and polytypes
//! `∀t::K.σ`), pretty-printers that follow the paper's notation, the derived
//! forms of Section 3.1 (`objeq`, `select … as … from … where …`,
//! `intersect`, `member`, `map`, `filter`, `prod`) as syntactic sugar, and a
//! builder DSL for constructing terms programmatically.

pub mod builder;
pub mod display;
pub mod kind;
pub mod label;
pub mod layout;
pub mod resolve;
pub mod scheme;
pub mod sugar;
pub mod term;
pub mod types;
pub mod visit;
pub mod wire;

pub use kind::{FieldReq, Kind, MutReq};
pub use label::{Label, Name};
pub use layout::Layout;
pub use resolve::GlobalNames;
pub use scheme::Scheme;
pub use term::{ClassDef, Expr, Field, Idx, IncludeClause, Lambda, Lit, Slot};
pub use types::{BaseTy, FieldTy, Mono, RecordTy, TyVar};
