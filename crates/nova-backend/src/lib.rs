//! IXP back end: the paper's primary contribution.
//!
//! * [`isel`] — instruction selection from CPS to a virtual-register
//!   flowgraph;
//! * [`liveness`] — per-point live sets (the ILP's `Exists`/`Copy` data);
//! * [`freq`] — Wu-Larus/Dempster-Shafer static frequency estimation (§7);
//! * [`alloc`] — the 0-1 ILP formulation of bank assignment, transfer-bank
//!   coloring with aggregates, cloning, and spilling (§5–§10), plus
//!   solution extraction;
//! * [`color`] — post-ILP A/B register assignment with optimistic
//!   coalescing (§9).

#![warn(missing_docs)]

pub mod alloc;
pub mod color;
pub mod freq;
pub mod isel;
pub mod liveness;

pub use alloc::{
    allocate, allocate_solved_with, readopt_assignment_with, refinish_with, AllocConfig,
    AllocError, AllocQuality, AllocStats, Allocation, FallbackPolicy, SolvedAllocation,
};
pub use isel::{select, IselError};
