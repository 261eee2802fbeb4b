//! End-to-end and per-layer benchmark of the RoboShape serving stack and
//! the designer flow behind it. One process runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet|hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no trace sink
//! installed; with `--trace 1` they are the per-layer ones, timed by
//! spans this benchmark records around its calls into each layer (see
//! `layers.rs`). Every input comes from `--seed`; the program under test
//! receives only the generated inputs.
//!
//! Workloads (their fixed rates are in `workloads.rs`):
//!
//! * `fleet`: open-loop ∇FD steps over the six zoo robots plus 64
//!   generated ones, taken in turn in a seeded order. Consecutive
//!   requests go to different robots, so batches stay near one and wire,
//!   dispatch and admission costs weigh heavily: the case batching
//!   optimisations bypass.
//! * `hot`: open-loop ∇FD steps in bursts of eight, all to HyQ+arm, so
//!   the EDF queue coalesces batches that run on the Lanes backend: the
//!   case queueing and batching optimisations act on.
//!
//! End-to-end metrics:
//!
//! * `setup_s`: fresh `Pipeline::new()` to a ready engine (all robots
//!   registered, one warm-up request per worker), median of 8, half
//!   before and half after the latency run. It is CPU time of the whole
//!   process (`report::cpu_s`), which a host stealing the machine's CPUs
//!   does not inflate.
//! * `p50_us`, `p90_us`: due time to decoded response at the fixed
//!   offered rate, wall clock, over every request of the run. The p99
//!   is reported by the traced run (`tcp.p99_us`) instead: other
//!   tenants' episodes of contention land in it, and on a shared 2-CPU
//!   machine it spread by 0.4 to 0.8 of its median between runs, too
//!   much for a bound.
//! * `peak_rss_mb`: peak resident memory of the process.

mod flow;
mod inputs;
mod layers;
mod loadgen;
mod oracle;
mod report;
mod serving;
mod workloads;

use report::{peak_rss_mb, result_line, Metric};
use workloads::Workload;

const USAGE: &str =
    "usage: perfbench --workload <fleet|hot> --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: u64,
    /// Print the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1, 10, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("--seed {value:?} is not a whole number"))?;
                }
                "--seconds" => {
                    seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(|| {
                        format!("--seconds {value:?} is not a positive whole number")
                    })?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value:?} is neither 0 nor 1")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or_else(|| "--workload is required".to_string())?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match serving::run(&args) {
        Ok((tally, mut metrics)) => {
            if !args.trace {
                metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"));
            }
            println!("{}", result_line(&tally, &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
