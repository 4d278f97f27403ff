//! The repository's one benchmark: five workloads over the whole
//! pipeline (compile → serve edits → simulate → roll out), end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//! See `README.md` in this directory for the tables and the rules.
//!
//! The product crates are touched only from outside, through their
//! public functions; every span and counter lives in this package.

pub mod cli;
pub mod edit_stage;
pub mod gen;
pub mod json;
mod layers;
pub mod metrics;
pub mod pins;
pub mod programs;
pub mod rollout_stage;
pub mod sim_stage;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod workload;
