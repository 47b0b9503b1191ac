//! End-to-end and per-layer benchmark of the tce compile, execute and
//! serve paths.
//!
//! Four seeded workloads drive the public APIs of `tce_core`, `tce_serve`
//! and `tce_trace` in-process; every operation's output is checked.  See
//! `RATIONALE.md` for why each workload exists and which layer each
//! metric attributes time to.

pub mod corpus;
pub mod layers;
pub mod oracle;
pub mod seq;
pub mod spec;
pub mod stats;
pub mod workloads;
