//! Planar (intra-layer) link power and timing model.

use crate::technology::Technology;
use crate::link_wire_count;

/// Model of a horizontal point-to-point NoC link routed on global metal.
///
/// Links longer than the unrepeated segment budget are pipelined to sustain
/// full throughput (§VII: "We also pipeline long links to support full
/// throughput on the NoC"); every pipeline stage adds one cycle of zero-load
/// latency and one flit-register's worth of power.
///
/// Power splits into a bandwidth-independent part, [`LinkFixedPower`]
/// (length, leakage, registers; see [`LinkModel::fixed_power`]), and the
/// dynamic wire energy, which scales with bandwidth. [`LinkModel::power_mw`]
/// is built on that split, so a router pricing many flows over one switch
/// pair can compute the fixed part once and get bit-identical costs.
///
/// # Example
///
/// ```
/// use sunfloor_models::LinkModel;
///
/// let link = LinkModel::lp65(32);
/// // A 1 mm link at 400 MHz needs no pipeline stage...
/// assert_eq!(link.pipeline_stages(1.0, 400.0), 0);
/// // ...but a 9 mm link does.
/// assert!(link.pipeline_stages(9.0, 400.0) >= 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// Process parameters used for wire energy and segment budgets.
    pub technology: Technology,
    /// Payload width of the link in bits.
    pub flit_width_bits: u32,
    /// Power of one pipeline-stage register bank at 1 MHz, mW
    /// (scales linearly with frequency).
    pub stage_mw_per_mhz: f64,
}

impl LinkModel {
    /// 65 nm low-power link of the given flit width.
    #[must_use]
    pub fn lp65(flit_width_bits: u32) -> Self {
        Self {
            technology: Technology::lp65(),
            flit_width_bits,
            stage_mw_per_mhz: 0.0006,
        }
    }

    /// Number of *intermediate* pipeline stages required on a link of
    /// `length_mm` clocked at `frequency_mhz` (0 when the wire fits in one
    /// segment budget).
    #[must_use]
    pub fn pipeline_stages(&self, length_mm: f64, frequency_mhz: f64) -> u32 {
        if length_mm <= 0.0 {
            return 0;
        }
        let budget = self.technology.segment_budget_mm(frequency_mhz);
        let segments = (length_mm / budget).ceil().max(1.0) as u32;
        segments - 1
    }

    /// Zero-load latency of the link in cycles: one cycle for the wire itself
    /// plus one per intermediate pipeline stage.
    #[must_use]
    pub fn latency_cycles(&self, length_mm: f64, frequency_mhz: f64) -> u32 {
        1 + self.pipeline_stages(length_mm, frequency_mhz)
    }

    /// Power (mW) of a link of `length_mm` carrying `bw_gbps` of payload
    /// bandwidth at `frequency_mhz`: dynamic wire energy + wire leakage +
    /// pipeline-register power.
    ///
    /// Evaluated as [`Self::fixed_power`] of the link, then
    /// [`LinkFixedPower::power_mw`] of the bandwidth's wire energy, so a
    /// caller that prices many bandwidths over one link can split the two
    /// steps and get the same bits.
    #[must_use]
    pub fn power_mw(&self, length_mm: f64, bw_gbps: f64, frequency_mhz: f64) -> f64 {
        if length_mm <= 0.0 {
            return 0.0;
        }
        self.fixed_power(length_mm, frequency_mhz)
            .power_mw(self.technology.wire_energy_pj_per_bit_mm() * bw_gbps)
    }

    /// The bandwidth-independent part of [`Self::power_mw`] for a link of
    /// `length_mm` clocked at `frequency_mhz`: the length itself, the wire
    /// leakage and the pipeline-register power.
    #[must_use]
    pub fn fixed_power(&self, length_mm: f64, frequency_mhz: f64) -> LinkFixedPower {
        let wires = f64::from(link_wire_count(self.flit_width_bits));
        let stages = f64::from(self.pipeline_stages(length_mm, frequency_mhz));
        LinkFixedPower {
            length_mm,
            leakage_mw: self.technology.wire_leakage_mw_per_mm * wires * length_mm,
            registers_mw: self.stage_mw_per_mhz * stages * frequency_mhz,
        }
    }

    /// Peak payload bandwidth the link sustains at `frequency_mhz`, in Gbps.
    /// A pipelined wormhole link moves one flit per cycle.
    #[must_use]
    pub fn capacity_gbps(&self, frequency_mhz: f64) -> f64 {
        f64::from(self.flit_width_bits) * frequency_mhz / 1000.0
    }
}

/// The bandwidth-independent terms of one link's power, from
/// [`LinkModel::fixed_power`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFixedPower {
    /// Wire length, mm.
    pub length_mm: f64,
    /// Wire leakage, mW.
    pub leakage_mw: f64,
    /// Pipeline-register power, mW.
    pub registers_mw: f64,
}

impl LinkFixedPower {
    /// Link power (mW) given `energy_bw`, the wire energy per bit-mm times
    /// the payload bandwidth: `energy_bw·length + leakage + registers`,
    /// summed left to right.
    #[must_use]
    pub fn power_mw(&self, energy_bw: f64) -> f64 {
        // pJ/bit/mm * Gbps * mm = mW
        energy_bw * self.length_mm + self.leakage_mw + self.registers_mw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_link_has_no_stage() {
        let l = LinkModel::lp65(32);
        assert_eq!(l.pipeline_stages(0.5, 400.0), 0);
        assert_eq!(l.latency_cycles(0.5, 400.0), 1);
    }

    #[test]
    fn stages_grow_with_length_and_frequency() {
        let l = LinkModel::lp65(32);
        assert!(l.pipeline_stages(12.0, 400.0) >= l.pipeline_stages(6.0, 400.0));
        assert!(l.pipeline_stages(6.0, 1000.0) >= l.pipeline_stages(6.0, 400.0));
    }

    #[test]
    fn zero_length_link_is_free() {
        let l = LinkModel::lp65(32);
        assert_eq!(l.power_mw(0.0, 3.2, 400.0), 0.0);
        assert_eq!(l.pipeline_stages(0.0, 400.0), 0);
    }

    #[test]
    fn power_scales_with_length_and_bandwidth() {
        let l = LinkModel::lp65(32);
        let p1 = l.power_mw(2.0, 1.6, 400.0);
        let p2 = l.power_mw(4.0, 1.6, 400.0);
        let p3 = l.power_mw(2.0, 3.2, 400.0);
        assert!(p2 > p1 * 1.5, "doubling length should nearly double power");
        assert!(p3 > p1, "more bandwidth, more power");
    }

    #[test]
    fn capacity_at_400mhz_32bit_is_12_8_gbps() {
        let l = LinkModel::lp65(32);
        assert!((l.capacity_gbps(400.0) - 12.8).abs() < 1e-9);
    }
}
