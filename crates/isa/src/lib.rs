//! The baseline the paper argues against (Section 1): object sharing via a
//! *partial order* on classes (IS-A extent inclusion), where
//! non-hierarchical sharing — e.g. a `FemaleMember` class drawing from both
//! `Staff` and `Student` — must be encoded by **generating intermediate
//! classes** and **eagerly materializing** their extents as copies
//! ([28, 26, 1] in the paper's bibliography).
//!
//! The model:
//!
//! * A class has an own extent (rows inserted directly) and IS-A parents;
//!   the extent of a class is its own rows plus the extents of all
//!   subclasses (extent inclusion along the partial order).
//! * [`IsaStore::define_shared_class`] emulates the dynamic-class-generation
//!   approach: for each source class it generates an intermediate subclass
//!   (`<name>__of__<source>`) holding *projected copies* of the source rows
//!   that satisfy the predicate, and makes the new class a superclass of
//!   all intermediates.
//! * Updates to base rows invalidate the derived copies: under
//!   [`Refresh::Eager`] every update immediately re-materializes all
//!   dependent intermediates (copy cost proportional to source extents);
//!   under [`Refresh::OnQuery`] the re-materialization is deferred to the
//!   next query touching a dirty class — there is no finer granularity
//!   because copies, unlike the calculus's views, cannot share state with
//!   their sources.
//!
//! No benchmark compares this baseline with the calculus's lazy shared
//! extents yet: EXPERIMENTS.md E7 records it as not reproduced offline,
//! and ROADMAP.md item 14 plans the comparison in work counters. The
//! [`IsaStore::stats`] counters expose the copying work the partial-order
//! encoding performs, and `tests/properties/isa_crossval.rs` checks that
//! both systems compute the same shared extents.

pub mod model;
pub mod store;

pub use model::{FieldVal, ObjRow, Oid};
pub use store::{ClassId, IsaStore, Refresh, Stats};
