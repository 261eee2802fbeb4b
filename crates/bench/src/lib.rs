//! Shared fixtures for the Criterion benchmarks.
//!
//! Two bench suites live in `benches/`:
//!
//! * `substrates` — microbenchmarks of the reference dynamics library on
//!   this machine (the honest, measured CPU numbers that complement the
//!   calibrated analytical CPU model used for figure reproduction);
//! * `applications` — the application crates built on the framework:
//!   collision checks, iLQR solves, and the topology-LTL factorization
//!   against a dense Cholesky solve.

#![warn(missing_docs)]

use roboshape::RobotModel as Model;
use roboshape_robots::{zoo, Zoo};

/// A robot plus a deterministic, well-conditioned joint state.
pub struct Fixture {
    /// The robot.
    pub robot: Model,
    /// Joint positions.
    pub q: Vec<f64>,
    /// Joint velocities.
    pub qd: Vec<f64>,
    /// Joint torques.
    pub tau: Vec<f64>,
}

/// Builds the fixture for one of the paper's robots.
pub fn fixture(which: Zoo) -> Fixture {
    let robot = zoo(which);
    let n = robot.num_links();
    Fixture {
        q: (0..n).map(|i| (0.31 * (i as f64 + 1.0)).sin()).collect(),
        qd: (0..n).map(|i| 0.4 * (0.17 * i as f64).cos()).collect(),
        tau: (0..n).map(|i| 0.8 - 0.1 * i as f64).collect(),
        robot,
    }
}

/// The three implemented robots (Table 2 / Figs. 9–10).
pub fn implemented() -> [Zoo; 3] {
    Zoo::IMPLEMENTED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_well_formed() {
        for which in Zoo::ALL {
            let f = fixture(which);
            assert_eq!(f.q.len(), f.robot.num_links());
            assert_eq!(f.qd.len(), f.robot.num_links());
            assert_eq!(f.tau.len(), f.robot.num_links());
        }
    }
}
