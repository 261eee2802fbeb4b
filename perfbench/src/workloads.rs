//! The two workloads: which robots each one drives, and their fixed
//! offered rates.
//!
//! The rates were calibrated once, on a 2-CPU x86-64
//! Linux machine, and are constants on purpose: every commit is offered
//! exactly the same load, so a faster commit shows as lower latency instead
//! of being handed more traffic. Each sits at less than half the rate at
//! which p99 passed 2 ms on that machine (about 6.9k/s on fleet, 7.1k/s
//! on hot). The headroom is for other tenants: they can stall the whole
//! machine for tens of milliseconds, after which the generator sends
//! everything that fell due at once, and at higher rates that burst
//! overflowed the engine's queues.

use crate::inputs::{generated_robots, zoo_robots, Robot};
use roboshape_robots::Zoo;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop ∇FD steps spread over the zoo plus a generated fleet.
    Fleet,
    /// Open-loop ∇FD steps in bursts, all to one robot.
    Hot,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet" => Some(Workload::Fleet),
            "hot" => Some(Workload::Hot),
            _ => None,
        }
    }
}

/// Offered load and limits of a workload.
pub struct ServingSpec {
    /// Requests sharing one due time: controllers that tick together.
    pub burst: usize,
    /// The fixed offered rate of the latency metrics, requests per second.
    pub rate: f64,
    /// Relative deadline every request carries; a miss is a failure. It
    /// is far above any latency the workload sees because other tenants
    /// can stall the whole machine for over 100 ms: a miss should mean a
    /// request the engine lost, not a stall.
    pub deadline: Duration,
}

/// Generated robots in the fleet.
pub const POPULATION: usize = 64;

/// The robots a workload drives, built from `seed`.
pub fn robots(workload: Workload, seed: u64) -> Vec<Robot> {
    match workload {
        Workload::Fleet => {
            let mut robots = zoo_robots();
            robots.extend(generated_robots(seed, POPULATION));
            robots
        }
        Workload::Hot => zoo_robots()
            .into_iter()
            .filter(|r| r.name == Zoo::HyqArm.name())
            .collect(),
    }
}

/// The offered load of a workload.
pub fn serving(workload: Workload) -> ServingSpec {
    match workload {
        Workload::Fleet => ServingSpec {
            burst: 1,
            rate: 3_000.0,
            deadline: Duration::from_secs(1),
        },
        Workload::Hot => ServingSpec {
            burst: 8,
            rate: 500.0,
            deadline: Duration::from_secs(1),
        },
    }
}
