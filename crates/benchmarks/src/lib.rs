//! SoC benchmarks reproducing the communication structures of the SunFloor
//! 3D evaluation (paper §VIII).
//!
//! The original benchmark netlists are proprietary; these generators rebuild
//! the *published structure* of each one — core counts, processor/memory
//! roles, flows per core, bandwidth distribution, bottleneck and pipeline
//! patterns — which is what the evaluation's cross-benchmark trends depend
//! on:
//!
//! | Paper name   | Generator                 | Structure |
//! |--------------|---------------------------|-----------|
//! | `D_26_media` | [`media26`]               | 26-core multimedia + baseband SoC: ARM host, DSPs, accelerator pipelines, 8 memories, DMA, peripherals; 3 layers |
//! | `D_36_4/6/8` | [`distributed`]           | 18 processors × 18 memories, each processor talking to 4/6/8 memories at equal *total* bandwidth; 2 layers |
//! | `D_35_bot`   | [`bottleneck`]            | 16 processors with private memories plus 3 shared memories everyone hits; 2 layers |
//! | `D_65_pipe`  | [`pipeline(65)`][pipeline]| 65 cores in a pipeline; 3 layers |
//! | `D_38_tvopd` | [`tvopd`]                 | 38-core TV object-plane-decoder-style parallel pipelines; 2 layers |
//!
//! Layer assignments follow the paper's stated policy for the case study —
//! "the cores are assigned to the … layers such that highly communicating
//! cores are placed one above the other" (§V-A Example 1): processors sit
//! under the memories they talk to, pipeline stages are blocked so most
//! traffic stays short. Initial per-layer floorplans are produced by the
//! sequence-pair annealer with the paper's objectives (area + wirelength),
//! with a fixed seed for reproducibility.
//!
//! # Example
//!
//! ```
//! use sunfloor_benchmarks::media26;
//!
//! let bench = media26();
//! assert_eq!(bench.soc.core_count(), 26);
//! assert_eq!(bench.soc.layers, 3);
//! assert!(bench.comm.flow_count() > 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod layout2d;
mod media;
mod synthetic;

pub use catalog::{all_table1_benchmarks, Benchmark};
pub use layout2d::flatten_to_2d;
pub use media::media26;
pub use synthetic::{
    bottleneck, distributed, pipeline, pipeline_roster, pipeline_seeded, tvopd, tvopd_seeded,
    PIPELINE_SEED_BASE, TVOPD_SEED,
};
