//! Experiment harness regenerating every table and figure of the SunFloor
//! 3D evaluation (paper §VIII).
//!
//! Each experiment builds its workload with [`sunfloor_benchmarks`], runs
//! the synthesis flow and/or baselines, and produces [`Artifact`]s — aligned
//! text tables (printed to stdout by the `experiments` binary) and CSV files
//! (written under `target/experiments/`). See `DESIGN.md` §3 for the
//! experiment ↔ paper-artifact index and `EXPERIMENTS.md` for recorded
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod artifact;

pub use artifact::{Artifact, Effort};
