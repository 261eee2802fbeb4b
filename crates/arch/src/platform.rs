//! Target FPGA platforms (paper Sec. 5.5).

use crate::Resources;

/// An FPGA platform's resource envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Platform {
    /// Board/device name.
    pub name: &'static str,
    /// Total LUTs.
    pub luts: f64,
    /// Total DSP blocks.
    pub dsps: f64,
}

impl Platform {
    /// Xilinx VCU118 (XCVU9P): 1 182 000 LUTs, 6 840 DSPs — the paper's
    /// implementation platform.
    pub fn vcu118() -> Platform {
        Platform {
            name: "VCU118 (XCVU9P)",
            luts: 1_182_000.0,
            dsps: 6_840.0,
        }
    }

    /// Xilinx VC707: 303 600 LUTs, 2 800 DSPs — the smaller platform of
    /// the Fig. 16 study.
    pub fn vc707() -> Platform {
        Platform {
            name: "VC707",
            luts: 303_600.0,
            dsps: 2_800.0,
        }
    }

    /// Both study platforms.
    pub fn all() -> [Platform; 2] {
        [Platform::vcu118(), Platform::vc707()]
    }

    /// Whether `r` fits within `threshold` (fraction, e.g. 0.8) of this
    /// platform's resources.
    pub fn fits(&self, r: &Resources, threshold: f64) -> bool {
        r.luts <= self.luts * threshold && r.dsps <= self.dsps * threshold
    }

    /// Utilization fractions `(lut_share, dsp_share)` of `r`.
    pub fn utilization(&self, r: &Resources) -> (f64, f64) {
        (r.luts / self.luts, r.dsps / self.dsps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_match_paper() {
        let vcu = Platform::vcu118();
        assert_eq!(vcu.luts, 1_182_000.0);
        assert_eq!(vcu.dsps, 6_840.0);
        let vc = Platform::vc707();
        assert_eq!(vc.luts, 303_600.0);
        assert_eq!(vc.dsps, 2_800.0);
        assert_eq!(Platform::all().len(), 2);
    }

    #[test]
    fn fits_respects_threshold() {
        let vcu = Platform::vcu118();
        let r = Resources::new(1_000_000.0, 5_000.0);
        assert!(vcu.fits(&r, 1.0));
        assert!(!vcu.fits(&r, 0.8)); // 1.0M > 0.8 × 1.182M
        let small = Resources::new(100_000.0, 100.0);
        assert!(vcu.fits(&small, 0.8));
    }

    #[test]
    fn utilization_fractions() {
        let vcu = Platform::vcu118();
        let (l, d) = vcu.utilization(&Resources::new(591_000.0, 3_420.0));
        assert!((l - 0.5).abs() < 1e-12);
        assert!((d - 0.5).abs() < 1e-12);
    }
}
