//! Seeded inputs: the random stream, the robot sets, joint states and
//! open-loop arrival times. The program under test receives only what
//! these functions generate.

use roboshape_robots::{zoo, Zoo};
use roboshape_urdf::RobotModel;
use roboshape_zoo::{generate, population, Family};

/// A robot a workload drives, under the name it is registered with.
#[derive(Clone)]
pub struct Robot {
    pub name: String,
    pub model: RobotModel,
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// The stream for `(seed, tag)`; distinct tags give independent
    /// streams, so any one request can be rebuilt from its index.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        Rng(mix(seed.wrapping_add(GOLDEN)) ^ mix(tag.wrapping_mul(GOLDEN).wrapping_add(1)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`, for `n > 0`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The paper's six robots.
pub fn zoo_robots() -> Vec<Robot> {
    Zoo::ALL
        .iter()
        .map(|&which| Robot {
            name: which.name().to_string(),
            model: zoo(which),
        })
        .collect()
}

/// Seed of the `population` draw that fixes each generated robot's
/// family, size knobs and tree. With the trees fixed, a run's total work
/// is the same for every `--seed`, so the spread between seeds measures
/// the program rather than the luck of the draw; the seed still varies
/// each robot's geometry and inertias.
const SIZE_PLAN_SEED: u64 = 0x000F_1EE7;

/// `n` generated robots: families, sizes and trees from the fixed plan,
/// every other property from `seed`. A random-branching robot's tree
/// grows from its sample seed, so those keep the plan's sample whole.
pub fn generated_robots(seed: u64, n: usize) -> Vec<Robot> {
    let plan = population(SIZE_PLAN_SEED, n, &Family::ALL).expect("the family mix is non-empty");
    plan.into_iter()
        .enumerate()
        .map(|(i, drawn)| {
            if drawn.family == Family::RandomBranching {
                return Robot {
                    name: drawn.name,
                    model: drawn.model,
                };
            }
            let sample_seed = Rng::stream(seed, i as u64).next_u64();
            let robot = generate(drawn.family, drawn.params, sample_seed)
                .expect("knobs drawn by population are in range");
            Robot {
                name: robot.name,
                model: robot.model,
            }
        })
        .collect()
}

/// A bounded joint state `(q, q̇, τ)` for an `n`-link robot.
pub fn joint_state(rng: &mut Rng, n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut draw =
        |bound: f64| -> Vec<f64> { (0..n).map(|_| rng.uniform(-bound, bound)).collect() };
    let q = draw(0.7);
    let qd = draw(0.4);
    let tau = draw(0.9);
    (q, qd, tau)
}

/// Due times, in nanoseconds after the start, of an open-loop Poisson
/// process: bursts of `burst` simultaneous requests arriving at
/// `rate / burst` bursts per second, for `seconds`.
pub fn arrivals(rng: &mut Rng, rate: f64, seconds: f64, burst: usize) -> Vec<u64> {
    let mean_gap = burst as f64 / rate;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + burst);
    let mut t = 0.0;
    loop {
        t += -mean_gap * (1.0 - rng.unit()).ln();
        if t >= seconds {
            return due;
        }
        let ns = (t * 1e9) as u64;
        due.extend(std::iter::repeat_n(ns, burst));
    }
}
