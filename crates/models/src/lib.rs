//! Power, area and timing models for NoC building blocks in 3-D stacked SoCs.
//!
//! SunFloor 3D consumes, as inputs, "the power, area, and timing models of the
//! NoC switches and links" plus "the power consumption and latency values of
//! the vertical interconnects" (paper §IV). The original tool read tables
//! extracted from post-layout implementations of the ×pipes Lite library at
//! 65 nm and from the TSV characterization of Loi et al. Neither data set is
//! public, so this crate rebuilds them as *parametric analytic models*
//! calibrated to every magnitude the paper does report:
//!
//! * switches are a few thousand gates and consume mW-level power at 1 GHz;
//! * the maximum frequency of a switch falls as its port count grows
//!   (crossbar + arbiter critical path), which at 400 MHz caps switch size
//!   such that the 26-core `D_26_media` design needs at least 3 switches;
//! * the maximum unrepeated planar link segment is 1.5 mm (Metal 2/3);
//! * TSVs have 4 µm diameter / 8 µm pitch, 16–18.5 ps delay, and roughly an
//!   order of magnitude lower resistance and capacitance than planar links.
//!
//! The synthesis algorithms only require these models to be *monotone* in the
//! right directions (power grows with ports, bandwidth and length; maximum
//! frequency falls with ports); all who-wins comparisons in the evaluation
//! depend on those trends rather than on absolute milliwatts.
//!
//! # Example
//!
//! ```
//! use sunfloor_models::{NocLibrary, MHZ};
//!
//! let lib = NocLibrary::lp65();
//! // How big may a switch be if the NoC must run at 400 MHz?
//! let max_ports = lib.switch.max_size_for_frequency(400.0 * MHZ);
//! assert!(max_ports >= 3);
//! // Power of a 5x5 switch carrying 6.4 Gbps of traffic at 400 MHz.
//! let p = lib.switch.power_mw(5, 5, 6.4, 400.0 * MHZ);
//! assert!(p > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod library;
mod link;
mod ni;
mod switch;
mod technology;
mod tsv;
mod yield_model;

pub use library::NocLibrary;
pub use link::{LinkFixedPower, LinkModel};
pub use ni::NetworkInterfaceModel;
pub use switch::SwitchModel;
pub use technology::Technology;
pub use tsv::TsvModel;
pub use yield_model::{StackingProcess, YieldModel};

/// One megahertz, expressed in the frequency unit used throughout the crate
/// (MHz). Multiplying a scalar by `MHZ` documents intent at call sites.
pub const MHZ: f64 = 1.0;

/// Number of physical wires occupied by one NoC link of the given flit width:
/// data wires plus flow-control/valid/routing sideband wires.
///
/// The ×pipes-style link of the paper carries the flit plus a handful of
/// control lines; we budget 6 sideband wires.
#[must_use]
pub fn link_wire_count(flit_width_bits: u32) -> u32 {
    flit_width_bits + 6
}
