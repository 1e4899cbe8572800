//! `polybench`: a std-only benchmark of the polyview system, end to end
//! and layer by layer.
//!
//! Four seeded workloads drive the system only through public functions:
//! `NetServer`/`NetClient` for the served path, `Engine` for the embedded
//! one. An untraced run measures what a user sees; a traced run adds the
//! pool's telemetry, harness spans around each public call, and probes
//! that split an op into parse, infer, lower and eval. See README.md.

pub mod measure;
pub mod metrics;
pub mod run;
pub mod speed;
pub mod workload;
