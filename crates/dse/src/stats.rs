//! Descriptive statistics over a design space (supports the Fig. 12
//! analysis: the spaces are "varied, but tractable").

use crate::{pareto_frontier, DesignPoint};

/// Five-number summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Quartiles {
    /// Computes the summary of a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles need at least one value");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let at = |f: f64| -> f64 {
            let idx = f * (v.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let frac = idx - lo as f64;
            v[lo] * (1.0 - frac) + v[hi] * frac
        };
        Quartiles {
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: v[v.len() - 1],
        }
    }
}

/// Summary of one robot's accelerator design space.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpaceStats {
    /// Number of design points (= `N³`).
    pub points: usize,
    /// Distribution of total latency (cycles).
    pub latency: Quartiles,
    /// Distribution of LUT usage.
    pub luts: Quartiles,
    /// Pareto frontier size.
    pub frontier_size: usize,
    /// The frontier's knee: the point minimizing normalized
    /// `latency + LUTs` distance to the origin — a reasonable default
    /// co-design pick when no platform constraint binds.
    pub knee: DesignPoint,
}

/// Computes the design-space summary.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn design_space_stats(points: &[DesignPoint]) -> DesignSpaceStats {
    assert!(!points.is_empty(), "empty design space");
    let latency = Quartiles::of(
        &points
            .iter()
            .map(|p| p.total_cycles as f64)
            .collect::<Vec<_>>(),
    );
    let luts = Quartiles::of(&points.iter().map(|p| p.resources.luts).collect::<Vec<_>>());
    let frontier = pareto_frontier(points);
    let knee = *frontier
        .iter()
        .min_by(|a, b| {
            let score =
                |p: &DesignPoint| p.total_cycles as f64 / latency.max + p.resources.luts / luts.max;
            score(a).partial_cmp(&score(b)).expect("finite")
        })
        .expect("frontier of a non-empty space is non-empty");
    DesignSpaceStats {
        points: points.len(),
        latency,
        luts,
        frontier_size: frontier.len(),
        knee,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_design_space_with;
    use roboshape_pipeline::Pipeline;
    use roboshape_robots::{zoo, Zoo};

    #[test]
    fn quartiles_of_known_sample() {
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.median, 3.0);
        assert_eq!(q.max, 5.0);
        assert_eq!(q.q1, 2.0);
        assert_eq!(q.q3, 4.0);
        let single = Quartiles::of(&[7.0]);
        assert_eq!(single.min, 7.0);
        assert_eq!(single.max, 7.0);
    }

    #[test]
    fn stats_are_ordered_and_knee_is_on_frontier() {
        let pts = sweep_design_space_with(Pipeline::global(), zoo(Zoo::Hyq).topology());
        let s = design_space_stats(&pts);
        assert_eq!(s.points, 1728);
        assert!(s.latency.min <= s.latency.q1);
        assert!(s.latency.q1 <= s.latency.median);
        assert!(s.latency.median <= s.latency.q3);
        assert!(s.latency.q3 <= s.latency.max);
        assert!(s.frontier_size >= 1);
        // The knee is not dominated by any point.
        for p in &pts {
            assert!(!p.dominates(&s.knee), "{p:?} dominates the knee");
        }
    }

    #[test]
    #[should_panic(expected = "empty design space")]
    fn empty_space_panics() {
        design_space_stats(&[]);
    }
}
