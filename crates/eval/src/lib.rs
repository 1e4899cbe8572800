//! Operational semantics for the view calculus.
//!
//! The evaluator implements the *meaning* the paper assigns to the extended
//! language: records are identity-carrying bundles of L-value slots
//! (Section 2), objects are associations of a raw object and a viewing
//! function (Section 3), sets of objects identify elements up to `objeq`
//! with left-biased union (Section 3.1), and classes are pairs of a mutable
//! own extent and a lazily evaluated inclusion computation with the
//! visited-set algorithm of Section 4.4 for recursive groups.
//!
//! Objects and classes are interpreted *natively* here; the paper's
//! translation semantics (Figs. 3 and 5) lives in `polyview-trans`, and the
//! two are compared by differential tests.

pub mod builtins;
pub mod error;
pub mod machine;
pub mod profile;
pub mod snapshot;
pub mod store;
pub mod value;

pub use error::RuntimeError;
pub use machine::{Machine, MachineStats, ReadMark};
pub use profile::{FallbackSite, HotNode, Profile, ProfileNode, ViewRecompute};
pub use snapshot::{decode_machine, encode_machine};
pub use value::{Key, SetVal, Value, ViewFn};
