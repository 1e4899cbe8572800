//! The property tests: Props. 1–5 of the paper over generated programs,
//! the IS-A cross-validation, the set laws, snapshot round-trips, `hom`
//! definability and parser totality and round-trips.
//!
//! Every property runs a fixed number of cases drawn by the shared
//! splitmix64 generator (`tests/common/mod.rs`) from a fixed seed list, so
//! a run is reproducible and needs no external crate. To widen a run, raise
//! the property's case count.

#[path = "../common/mod.rs"]
mod common;

mod class_invariants;
mod eval_hom;
mod extent_replay;
mod inference;
mod isa_crossval;
mod parser_no_panic;
mod parser_roundtrip;
mod sets;
mod snapshot;
mod soundness;
mod termination;
mod translation;
