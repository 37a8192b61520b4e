//! Published state-of-the-art in-SRAM multiplier design points (paper Fig. 1).
//!
//! Fig. 1 of the paper compares four published discharge/charge-based
//! in-SRAM multiplication circuits by energy per MAC, supported bit width and
//! operating clock.  These are literature values, not simulation results, so
//! they are reproduced here as a static table used by the `fig1_sota`
//! harness.

use serde::{Deserialize, Serialize};

/// One published design point of the Fig. 1 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SotaDesignPoint {
    /// Citation key in the paper's reference list.
    pub reference: &'static str,
    /// Short description of the work.
    pub description: &'static str,
    /// Energy per multiply-accumulate operation in picojoules.
    pub energy_pj: f64,
    /// Supported operand bit width.
    pub bit_width: u8,
    /// Operating clock frequency in MHz.
    pub clock_mhz: f64,
}

/// The four design points compared in Fig. 1.
///
/// The numbers are taken from the cited publications (IMAC [8], the
/// charge-based vector-vector multiplier [14], AID [15] and the
/// thermometer-encoded time/charge CIM macro [16]); where a paper reports a
/// range, the value used in the figure is listed.
pub fn published_design_points() -> Vec<SotaDesignPoint> {
    vec![
        SotaDesignPoint {
            reference: "[8]",
            description: "IMAC: in-memory multi-bit multiplication and accumulation in 6T SRAM",
            energy_pj: 1.0,
            bit_width: 4,
            clock_mhz: 125.0,
        },
        SotaDesignPoint {
            reference: "[14]",
            description: "Charge-based vector-vector multiplication in 65 nm",
            energy_pj: 1.3,
            bit_width: 4,
            clock_mhz: 20.0,
        },
        SotaDesignPoint {
            reference: "[15]",
            description: "AID: accuracy-improved analog discharge-based in-SRAM multiplier",
            energy_pj: 0.95,
            bit_width: 5,
            clock_mhz: 250.0,
        },
        SotaDesignPoint {
            reference: "[16]",
            description: "Thermometer-encoded time/charge-based CIM accelerator (0.735 pJ/MAC)",
            energy_pj: 0.735,
            bit_width: 8,
            clock_mhz: 100.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_design_points_are_listed() {
        let points = published_design_points();
        assert_eq!(points.len(), 4);
        let refs: Vec<&str> = points.iter().map(|p| p.reference).collect();
        assert_eq!(refs, vec!["[8]", "[14]", "[15]", "[16]"]);
    }

    #[test]
    fn values_are_in_plausible_ranges() {
        for point in published_design_points() {
            assert!(point.energy_pj > 0.0 && point.energy_pj < 10.0);
            assert!(point.bit_width >= 1 && point.bit_width <= 8);
            assert!(point.clock_mhz > 0.0 && point.clock_mhz < 1000.0);
        }
    }
}
