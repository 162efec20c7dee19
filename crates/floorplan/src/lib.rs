//! Block floorplanning for 2-D dies and 3-D layer stacks.
//!
//! SunFloor 3D needs floorplanning in three places (paper §VII–§VIII):
//!
//! 1. **Initial core placement.** The tool takes core positions as input; the
//!    paper produced them with the Parquet floorplanner. [`anneal`] rebuilds
//!    that capability: a sequence-pair simulated-annealing floorplanner
//!    minimizing `area + λ·wirelength`.
//! 2. **NoC component insertion.** After the switch-position LP, switches and
//!    TSV macros must be inserted near their ideal coordinates without
//!    disturbing the cores. [`insert_components`] implements the paper's custom
//!    routine: look for free space near the ideal location, otherwise
//!    displace already-placed blocks in x or y by the size of the component,
//!    iteratively pushing followers until no overlap remains.
//! 3. **The §VIII-D baseline.** A *constrained standard floorplanner* —
//!    the annealer restricted so the cores' relative order never changes and
//!    switch displacement from the ideal spot is penalized — reproduces the
//!    unpredictable-quality baseline of Figs. 18–20.
//!
//! # `anneal` vs `anneal_tempered`
//!
//! [`anneal_tempered`] is the one annealing driver. It takes an
//! [`AnnealInput`] — the blocks, the seed sequence pair, an optional
//! attraction target per block and how many leading blocks keep their
//! relative order — and runs N exchange-coupled chains ("replicas") at
//! staggered temperatures on scoped threads: the standard SA scale-up for
//! large floorplans, spending an `N×` aggregate move budget in roughly the
//! wall-clock of one chain. Each replica owns its RNG (seeded
//! `rng_seed + replica_index`) and its own incremental pack/net-cache
//! state; every `swap_interval` iterations the replicas meet at a barrier
//! and adjacent temperature rungs attempt to swap. [`anneal`] is the
//! one-replica shorthand for [`AnnealInput::new`]'s unconstrained input:
//! cheap, fully deterministic per seed, and the right tool for small block
//! sets.
//!
//! The determinism contract for swap rounds: swaps are a
//! barrier-synchronized reduction over the replicas' published energies,
//! evaluated by a single coordinator in ladder order with its own
//! seed-derived RNG. The final floorplan is therefore a pure function of
//! the input and the [`TemperConfig`] (which includes the replica count) —
//! bit-for-bit independent of thread count and OS scheduling. See
//! [`tempering`](anneal_tempered) for details.
//!
//! # Example
//!
//! ```
//! use sunfloor_floorplan::{anneal, AnnealConfig, Block, Net};
//!
//! let blocks = vec![
//!     Block::new("cpu", 2.0, 2.0),
//!     Block::new("mem", 2.0, 1.0),
//!     Block::new("dsp", 1.0, 3.0),
//! ];
//! let nets = vec![Net::two_pin(0, 1, 5.0), Net::two_pin(0, 2, 1.0)];
//! let plan = anneal(&blocks, &nets, &AnnealConfig::default());
//! assert!(plan.overlapping_pair().is_none());
//! assert!(plan.area() >= 2.0 * 2.0 + 2.0 * 1.0 + 1.0 * 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annealer;
mod geometry;
mod insertion;
mod seqpair;
mod tempering;

pub use annealer::{anneal, AnnealConfig, AnnealInput, IdealTarget};
pub use geometry::{Block, Floorplan, Net, PlacedBlock, Rect};
pub use insertion::{insert_components, InsertRequest, InsertionResult};
pub use seqpair::{PackScratch, SequencePair};
pub use tempering::{anneal_tempered, TemperConfig, TemperStats};
