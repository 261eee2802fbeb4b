//! The generator knobs (paper Fig. 8: `PEs_fwd,bwd`, `size_block`).

/// How many block mat-mul units a design instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatmulUnits {
    /// One unit per robot link — the paper's Fig. 6c strategy of feeding
    /// nonzero blocks into "parallel per-link PEs". The default for
    /// generated designs.
    PerLink,
    /// A fixed unit count (the Fig. 15 block-size study uses 3).
    Fixed(usize),
}

impl MatmulUnits {
    /// Resolves to a concrete unit count for an `n`-link robot.
    pub fn resolve(self, n: usize) -> usize {
        match self {
            MatmulUnits::PerLink => n.max(1),
            MatmulUnits::Fixed(u) => u,
        }
    }
}

/// The RoboShape generator's tunable parameters for one design point.
///
/// # Examples
///
/// ```
/// use roboshape_arch::AcceleratorKnobs;
///
/// // The paper's iiwa configuration: PEs_fwd,bwd = 7, size_block = 7.
/// let knobs = AcceleratorKnobs::symmetric(7, 7);
/// assert_eq!(knobs.pe_fwd, 7);
/// assert_eq!(knobs.pe_bwd, 7);
/// assert_eq!(knobs.block_size, 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcceleratorKnobs {
    /// Forward-traversal processing elements.
    pub pe_fwd: usize,
    /// Backward-traversal processing elements.
    pub pe_bwd: usize,
    /// Block size for the mass-matrix multiplication.
    pub block_size: usize,
    /// Block mat-mul unit allocation (per-link by default).
    pub matmul_units: MatmulUnits,
}

impl AcceleratorKnobs {
    /// Creates a knob setting with distinct forward/backward PE counts.
    ///
    /// # Panics
    ///
    /// Panics if any knob is zero.
    pub fn new(pe_fwd: usize, pe_bwd: usize, block_size: usize) -> AcceleratorKnobs {
        assert!(
            pe_fwd > 0 && pe_bwd > 0 && block_size > 0,
            "knobs must be positive"
        );
        AcceleratorKnobs {
            pe_fwd,
            pe_bwd,
            block_size,
            matmul_units: MatmulUnits::PerLink,
        }
    }

    /// The paper's Table 2 style setting: `PEs_fwd = PEs_bwd = pes`.
    ///
    /// # Panics
    ///
    /// Panics if any knob is zero.
    pub fn symmetric(pes: usize, block_size: usize) -> AcceleratorKnobs {
        AcceleratorKnobs::new(pes, pes, block_size)
    }

    /// Overrides the mat-mul unit count with a fixed value.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub fn with_matmul_units(mut self, units: usize) -> AcceleratorKnobs {
        assert!(units > 0, "knobs must be positive");
        self.matmul_units = MatmulUnits::Fixed(units);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let k = AcceleratorKnobs::new(3, 5, 4);
        assert_eq!((k.pe_fwd, k.pe_bwd, k.block_size), (3, 5, 4));
        assert_eq!(k.matmul_units, MatmulUnits::PerLink);
        assert_eq!(k.matmul_units.resolve(12), 12);
        let s = AcceleratorKnobs::symmetric(4, 4).with_matmul_units(5);
        assert_eq!((s.pe_fwd, s.pe_bwd), (4, 4));
        assert_eq!(s.matmul_units, MatmulUnits::Fixed(5));
        assert_eq!(s.matmul_units.resolve(12), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_knob_panics() {
        AcceleratorKnobs::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_units_panics() {
        AcceleratorKnobs::symmetric(1, 1).with_matmul_units(0);
    }
}
