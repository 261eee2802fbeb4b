//! Implementation of the `roboshape` command-line tool.
//!
//! ```text
//! roboshape info <robot.urdf>                      topology + metrics + patterns
//! roboshape generate <robot.urdf> [options]        emit Verilog + design report
//!     --pe-fwd N --pe-bwd N --block N              explicit knobs (default: hybrid heuristic)
//!     --out DIR                                    output directory (default: roboshape_out)
//!     --timings                                    append per-stage pipeline timings
//! roboshape sweep <robot.urdf> [--pareto] [--pruned] [--timings]   design-space CSV on stdout
//! roboshape verify <robot.urdf>                    simulate the generated design vs reference
//! roboshape serve <spec> [options]                 accelerator-as-a-service TCP front-end
//! roboshape router --shards NAME=ADDR,... [options]  consistent-hash requests across shards
//! roboshape loadgen <spec> --port P [options]      drive a running server, print a report
//! ```
//!
//! `serve` and `loadgen` take a *robot spec* instead of a single URDF:
//! `zoo` (all six paper robots), `zoo:NAME` (one of them, e.g.
//! `zoo:iiwa`), or a URDF path.
//!
//! Every command additionally accepts the observability flags
//! `--trace FILE` (write a Chrome `trace_event` JSON capture of the run —
//! load it in `chrome://tracing` or Perfetto; see EXPERIMENTS.md for how
//! to read one) and `--metrics FILE` (write a JSON snapshot of the global
//! [`roboshape::obs::metrics`] registry after the run).
//!
//! The argument parser is hand-rolled (the workspace's dependency policy —
//! see DESIGN.md §5): one table per subcommand lists its operands and
//! flags, flags take `--flag value` or `--flag=value`, and anything the
//! table does not list is an error.

#![warn(missing_docs)]

use roboshape::obs;
use roboshape::{
    pareto_frontier, simulate, AcceleratorKnobs, Constraints, Framework, ParallelismProfile,
    PipelineStage, SparsityPattern,
};
use roboshape_serve::loadgen::LoadgenConfig;
use roboshape_serve::{EngineConfig, ServerOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "usage: roboshape <command> <robot.urdf> [options]
  info      print topology, metrics and pattern analysis
  generate  emit Verilog + design report (--pe-fwd N --pe-bwd N --block N --out DIR --timings)
  sweep     print the design-space CSV (--pareto for the frontier only, --pruned for the dominance-pruned frontier sweep, --timings for stage stats)
  verify    simulate the generated design against the reference library
  gantt     draw the generated schedule as an ASCII timeline (--width N)
  kernels   compare FK / inverse-dynamics / gradient accelerators
  energy    power and energy report (with and without PE gating)
  soc       co-design accelerators for several URDFs (extra paths after the first)
  serve     run the accelerator service on TCP (<spec> = zoo | zoo:NAME | robot.urdf)
            (--port P --port-file FILE --queue N --batch N --workers N --max-requests N
             --chaos SEED:RATE --deadline-ms N --backend scalar|lanes
             --shard NAME --loops N)
  router    route requests across shard servers by consistent hashing (no <spec>)
            (--shards NAME=ADDR,... --port P --port-file FILE --max-requests N)
  loadgen   drive a running server or router and print a latency/throughput report
            (--port P --clients N --requests N --rate HZ --kind grad|id|fk
             --workload step|rollout:N|mixed --deadline-us N
             --retries N --timeout-ms N --seed N --cluster)
  health    probe a running server's or router's readiness and circuit state (--port P)
  bench     the paired perf gate (an action instead of <robot.urdf>)
            ab PARENT CHANGE [--pairs N] -- PERFBENCH-ARGS
                     build both git revisions' perfbench, run N alternating
                     pairs (default 10), report each metric's paired ratio,
                     exit nonzero on a regression past a BENCHMARK.json bound
  bundle    validation bundles for third-party blind reproduction
            export   write a self-contained bundle (--out DIR --n N --seed S)
            verify   re-run the generators against a bundle directory
                     (positional DIR, default bench/baselines/example-bundle)
global options (any command):
  --trace FILE    write a Chrome trace_event JSON capture of the run
  --metrics FILE  write a JSON metrics snapshot after the run";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Path to the URDF file — or, for `serve`/`loadgen`, the robot
    /// spec (`zoo`, `zoo:NAME`, or a URDF path); `-` for the commands
    /// that take no robot.
    pub urdf: PathBuf,
    /// Where to write the Chrome trace capture (`--trace`), if anywhere.
    pub trace: Option<PathBuf>,
    /// Where to write the metrics snapshot (`--metrics`), if anywhere.
    pub metrics: Option<PathBuf>,
}

/// The CLI subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `roboshape info`.
    Info,
    /// `roboshape generate`.
    Generate {
        /// Explicit knobs (`None` = framework heuristic).
        knobs: Option<AcceleratorKnobs>,
        /// Output directory.
        out: PathBuf,
        /// Append the per-stage pipeline timing report.
        timings: bool,
    },
    /// `roboshape sweep`.
    Sweep {
        /// Restrict output to the Pareto frontier.
        pareto_only: bool,
        /// Use the dominance-pruned sweep: same frontier, provably
        /// dominated grid rows never scheduled (implies `--pareto`).
        pruned: bool,
        /// Append the per-stage pipeline timing report.
        timings: bool,
    },
    /// `roboshape verify`.
    Verify,
    /// `roboshape gantt`.
    Gantt {
        /// Chart width in columns.
        width: usize,
    },
    /// `roboshape kernels`.
    Kernels,
    /// `roboshape energy`.
    Energy,
    /// `roboshape soc` (the first URDF is `Cli::urdf`; the rest ride
    /// along here).
    Soc {
        /// Additional robot description paths.
        extra: Vec<PathBuf>,
    },
    /// `roboshape serve`: run the accelerator-as-a-service TCP
    /// front-end over the spec'd robots.
    Serve {
        /// TCP port to bind on loopback (0 = ephemeral).
        port: u16,
        /// File to write the bound port number to (for scripts that
        /// bind port 0).
        port_file: Option<PathBuf>,
        /// Exit after this many requests have been answered or shed
        /// (`None` = run until killed).
        max_requests: Option<u64>,
        /// The engine: `--queue`, `--batch`, `--workers`, `--chaos`,
        /// `--deadline-ms` and `--backend` over the library defaults.
        engine: EngineConfig,
        /// The front-end: `--shard` and `--loops` over the library
        /// defaults.
        server: ServerOptions,
    },
    /// `roboshape router`: consistent-hash client requests across shard
    /// servers, with admission control and shard-level failover.
    Router {
        /// TCP port to bind on loopback (0 = ephemeral).
        port: u16,
        /// File to write the bound port number to.
        port_file: Option<PathBuf>,
        /// The shard fleet (`--shards NAME=ADDR,...`; a bare port means
        /// loopback).
        shards: Vec<roboshape_serve::ShardSpec>,
        /// Exit after this many client requests have been answered or
        /// shed (`None` = run until killed).
        max_requests: Option<u64>,
    },
    /// `roboshape loadgen`: drive a running server.
    Loadgen {
        /// Server port on loopback.
        port: u16,
        /// The load over the library defaults (its `robots` are resolved
        /// from the spec at run time).
        config: LoadgenConfig,
        /// Cluster mode: append a cluster accounting line (rerouted /
        /// lost across failovers) to the report.
        cluster: bool,
    },
    /// `roboshape health`: probe a running server's readiness endpoint
    /// and print per-robot circuit-breaker and worker state.
    Health {
        /// Server port on loopback.
        port: u16,
    },
    /// `roboshape bench ab`: the paired A/B perfbench gate (see
    /// [`roboshape_benchrec::ab`]); exits nonzero when a metric regressed
    /// past its `BENCHMARK.json` bound or the change failed a larger
    /// share of operations.
    BenchAb {
        /// The parent git revision.
        parent: String,
        /// The change git revision.
        change: String,
        /// Pairs of runs.
        pairs: usize,
        /// The arguments after `--`, given to every perfbench run.
        perfbench_args: Vec<String>,
    },
    /// `roboshape bundle export`: write a self-contained validation
    /// bundle (manifest + expected report snapshots + serving-probe
    /// context) for third-party blind reproduction.
    BundleExport {
        /// Output directory.
        out: PathBuf,
        /// Pinned `ext_zoo` population size.
        zoo_n: usize,
        /// Pinned `ext_zoo` master seed.
        zoo_seed: u64,
    },
    /// `roboshape bundle verify`: re-run the generators and the probe
    /// against a bundle and score the result; exits nonzero unless
    /// every snapshot matches byte-exactly and every invariant holds.
    BundleVerify {
        /// The bundle directory.
        dir: PathBuf,
    },
}

impl Command {
    /// The subcommand's name (the root tracing span of a `--trace` run).
    pub fn name(&self) -> &'static str {
        match self {
            Command::Info => "info",
            Command::Generate { .. } => "generate",
            Command::Sweep { .. } => "sweep",
            Command::Verify => "verify",
            Command::Gantt { .. } => "gantt",
            Command::Kernels => "kernels",
            Command::Energy => "energy",
            Command::Soc { .. } => "soc",
            Command::Serve { .. } => "serve",
            Command::Router { .. } => "router",
            Command::Loadgen { .. } => "loadgen",
            Command::Health { .. } => "health",
            Command::BenchAb { .. } => "bench_ab",
            Command::BundleExport { .. } => "bundle_export",
            Command::BundleVerify { .. } => "bundle_verify",
        }
    }
}

/// How a flag takes its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    /// A bare `--flag`; `--flag=value` is an error.
    Switch,
    /// `--flag VALUE` or `--flag=VALUE`, at most once; the string is the
    /// value's placeholder in messages.
    Value(&'static str),
}

use Arg::{Switch, Value};

/// One subcommand's argument table: everything [`parse_args`] accepts
/// for it. Anything else on the command line is an error.
struct Spec {
    /// The command words: `"info"`, or `"bench ab"` for the
    /// commands that take an action.
    words: &'static str,
    /// Fewest and most positional arguments after the command words.
    operands: (usize, usize),
    /// The subcommand's flags, besides [`GLOBAL_FLAGS`].
    flags: &'static [(&'static str, Arg)],
}

const N: Arg = Value("N");
const DIR: Arg = Value("DIR");
const FILE: Arg = Value("FILE");
const PORT: Arg = Value("P");
/// One robot operand: a URDF path, or a `serve`/`loadgen` robot spec.
const ROBOT: (usize, usize) = (1, 1);
const NONE: (usize, usize) = (0, 0);

/// The observability flags every subcommand accepts, anywhere on the
/// command line.
const GLOBAL_FLAGS: &[(&str, Arg)] = &[("--trace", FILE), ("--metrics", FILE)];

/// The table of every subcommand, in USAGE order.
#[rustfmt::skip]
const SPECS: &[Spec] = &[
    Spec { words: "info", operands: ROBOT, flags: &[] },
    Spec { words: "generate", operands: ROBOT, flags: &[
        ("--pe-fwd", N), ("--pe-bwd", N), ("--block", N), ("--out", DIR), ("--timings", Switch),
    ] },
    Spec { words: "sweep", operands: ROBOT, flags: &[
        ("--pareto", Switch), ("--pruned", Switch), ("--timings", Switch),
    ] },
    Spec { words: "verify", operands: ROBOT, flags: &[] },
    Spec { words: "gantt", operands: ROBOT, flags: &[("--width", N)] },
    Spec { words: "kernels", operands: ROBOT, flags: &[] },
    Spec { words: "energy", operands: ROBOT, flags: &[] },
    Spec { words: "soc", operands: (1, usize::MAX), flags: &[] },
    Spec { words: "serve", operands: ROBOT, flags: &[
        ("--port", PORT), ("--port-file", FILE), ("--queue", N), ("--batch", N), ("--workers", N),
        ("--max-requests", N), ("--chaos", Value("SEED:RATE")), ("--deadline-ms", N),
        ("--backend", Value("scalar|lanes")), ("--shard", Value("NAME")), ("--loops", N),
    ] },
    Spec { words: "router", operands: NONE, flags: &[
        ("--shards", Value("NAME=ADDR,...")), ("--port", PORT), ("--port-file", FILE),
        ("--max-requests", N),
    ] },
    Spec { words: "loadgen", operands: ROBOT, flags: &[
        ("--port", PORT), ("--clients", N), ("--requests", N), ("--rate", Value("HZ")),
        ("--kind", Value("grad|id|fk")), ("--workload", Value("step|rollout:N|mixed")),
        ("--deadline-us", N), ("--retries", N), ("--timeout-ms", N), ("--seed", N),
        ("--cluster", Switch),
    ] },
    Spec { words: "health", operands: NONE, flags: &[("--port", PORT)] },
    Spec { words: "bench ab", operands: (2, 2), flags: &[("--pairs", N)] },
    Spec { words: "bundle export", operands: NONE, flags: &[
        ("--out", DIR), ("--n", N), ("--seed", Value("S")),
    ] },
    Spec { words: "bundle verify", operands: (0, 1), flags: &[] },
];

/// A parse failure, naming the subcommand (when known) and listing the
/// flags it accepts.
fn reject(spec: Option<&Spec>, message: String) -> CliError {
    let flags = spec.map_or(&[][..], |s| s.flags).iter().chain(GLOBAL_FLAGS);
    let known: Vec<String> = flags
        .map(|&(flag, arg)| match arg {
            Switch => flag.to_string(),
            Value(meta) => format!("{flag} {meta}"),
        })
        .collect();
    let command = spec.map_or(String::new(), |s| format!("{}: ", s.words));
    CliError::new(format!(
        "{command}{message} (known flags: {})",
        known.join(", ")
    ))
}

/// One command line checked against its subcommand's table.
struct Args {
    spec: &'static Spec,
    /// Positional arguments after the command words.
    operands: Vec<String>,
    /// The flags given, with their values (`None` for switches).
    flags: Vec<(&'static str, Option<String>)>,
    /// Everything after a bare `--`, unparsed (only `bench ab` takes it).
    rest: Option<Vec<String>>,
}

impl Args {
    /// One walk over `args`: the leading words select the table, then
    /// every argument must be an operand or a flag that table (or
    /// [`GLOBAL_FLAGS`]) lists.
    fn parse(args: &[String]) -> Result<Args, CliError> {
        let (mut words, mut operands, mut flags) = (Vec::new(), Vec::new(), Vec::new());
        let mut spec: Option<&'static Spec> = None;
        let mut rest = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--" {
                rest = Some(it.by_ref().cloned().collect());
                break;
            }
            if !arg.starts_with("--") {
                match spec {
                    None => {
                        words.push(arg.as_str());
                        let joined = words.join(" ");
                        spec = SPECS.iter().find(|s| s.words == joined);
                        let group = format!("{joined} ");
                        if spec.is_none() && !SPECS.iter().any(|s| s.words.starts_with(&group)) {
                            return Err(CliError::new(format!(
                                "unknown command `{joined}`\n{USAGE}"
                            )));
                        }
                    }
                    Some(s) if operands.len() < s.operands.1 => operands.push(arg.clone()),
                    Some(_) => return Err(reject(spec, format!("unexpected argument `{arg}`"))),
                }
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let table = spec.map_or(&[][..], |s| s.flags);
            let Some(&(flag, kind)) = table.iter().chain(GLOBAL_FLAGS).find(|(f, _)| *f == name)
            else {
                return Err(reject(spec, format!("unknown option `{name}`")));
            };
            let value = match kind {
                Switch if inline.is_some() => {
                    return Err(reject(
                        spec,
                        format!("switch {flag} takes no value: `{arg}`"),
                    ))
                }
                Switch => None,
                Value(meta) => Some(inline.or_else(|| it.next().cloned()).ok_or_else(|| {
                    reject(spec, format!("option {flag} needs a value ({meta})"))
                })?),
            };
            if value.is_some() && flags.iter().any(|(f, _)| *f == flag) {
                return Err(reject(spec, format!("option {flag} given more than once")));
            }
            flags.push((flag, value));
        }
        let spec = spec.ok_or_else(|| match words.first() {
            None => CliError::new(USAGE),
            Some(group) => {
                let actions: Vec<&str> = SPECS
                    .iter()
                    .filter_map(|s| s.words.strip_prefix(group)?.strip_prefix(' '))
                    .collect();
                CliError::new(format!("{group} needs an action: {}", actions.join(" | ")))
            }
        })?;
        if operands.len() < spec.operands.0 {
            return Err(CliError::new(match spec.operands.0 {
                1 => "missing <robot.urdf> argument".to_string(),
                n => format!("{} needs {n} operands", spec.words),
            }));
        }
        if rest.is_some() && spec.words != "bench ab" {
            return Err(reject(Some(spec), "unexpected argument `--`".to_string()));
        }
        Ok(Args {
            spec,
            operands,
            flags,
            rest,
        })
    }

    fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(f, _)| *f == flag)?;
        value.as_deref()
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.text(flag).map(PathBuf::from)
    }

    fn path_or(&self, flag: &str, default: &str) -> PathBuf {
        self.path(flag).unwrap_or_else(|| default.into())
    }

    /// The error for a value `flag` cannot take, quoting the table's
    /// placeholder for it.
    fn invalid(&self, flag: &str, value: &str) -> CliError {
        let meta = self.spec.flags.iter().find(|(f, _)| *f == flag);
        let meta = match meta {
            Some((_, Value(meta))) => meta,
            _ => "",
        };
        CliError::new(format!("option {flag} {meta}: invalid value `{value}`"))
    }

    /// A typed flag value.
    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        let parse = |v: &str| v.parse().map_err(|_| self.invalid(flag, v));
        self.text(flag).map(parse).transpose()
    }

    /// A count: at least 1, `default` when the flag is absent.
    fn count(&self, flag: &str, default: usize) -> Result<usize, CliError> {
        Ok(self.get(flag)?.unwrap_or(default).max(1))
    }

    /// The `--port` value. A listener binds it, and 0 (the default) asks
    /// for an ephemeral port; a client connects to it, so there it is
    /// required and nonzero.
    fn port(&self, listener: bool) -> Result<u16, CliError> {
        match self.text("--port") {
            None if listener => Ok(0),
            None => Err(CliError::new(format!(
                "{} needs --port of a running server",
                self.spec.words
            ))),
            Some(v) => v
                .parse()
                .ok()
                .filter(|&p| listener || p != 0)
                .ok_or_else(|| CliError::new(format!("--port {v} is not a valid TCP port"))),
        }
    }
}

/// Parses one `--shards` entry: `NAME=ADDR`, where a bare port means
/// loopback.
fn parse_shard(part: &str) -> Result<roboshape_serve::ShardSpec, CliError> {
    let (name, addr_text) = part
        .split_once('=')
        .ok_or_else(|| CliError::new(format!("--shards entry `{part}` is not NAME=ADDR")))?;
    let addr = match addr_text.parse::<u16>() {
        Ok(p) => std::net::SocketAddr::from(([127, 0, 0, 1], p)),
        Err(_) => addr_text.parse().map_err(|_| {
            CliError::new(format!(
                "--shards entry `{part}` has an invalid address `{addr_text}`"
            ))
        })?,
    };
    Ok(roboshape_serve::ShardSpec {
        name: name.to_string(),
        addr,
    })
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, missing or stray
/// operands, flags the subcommand's table does not list, and malformed
/// values.
pub fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let a = Args::parse(args)?;
    let command = match a.spec.words {
        "info" => Command::Info,
        "verify" => Command::Verify,
        "kernels" => Command::Kernels,
        "energy" => Command::Energy,
        "gantt" => Command::Gantt {
            width: a.count("--width", 80)?,
        },
        "soc" => Command::Soc {
            extra: a.operands[1..].iter().map(PathBuf::from).collect(),
        },
        "sweep" => Command::Sweep {
            pareto_only: a.switch("--pareto"),
            pruned: a.switch("--pruned"),
            timings: a.switch("--timings"),
        },
        "generate" => Command::Generate {
            knobs: match (a.get("--pe-fwd")?, a.get("--pe-bwd")?, a.get("--block")?) {
                (None, None, None) => None,
                // Partial knobs: fall back to 1 so the user sees the
                // effect of what they set; the heuristic path is the
                // no-flags case.
                (f, b, blk) => Some(AcceleratorKnobs::new(
                    f.unwrap_or(1).max(1),
                    b.unwrap_or(1).max(1),
                    blk.unwrap_or(1).max(1),
                )),
            },
            out: a.path_or("--out", "roboshape_out"),
            timings: a.switch("--timings"),
        },
        "serve" => {
            let d = EngineConfig::default();
            let engine = EngineConfig {
                queue_capacity: a.count("--queue", d.queue_capacity)?,
                max_batch: a.count("--batch", d.max_batch)?,
                workers_per_robot: a.count("--workers", d.workers_per_robot)?,
                default_deadline: a
                    .get("--deadline-ms")?
                    .map(Duration::from_millis)
                    .or(d.default_deadline),
                chaos: a
                    .text("--chaos")
                    .map(roboshape_serve::FaultConfig::parse)
                    .transpose()
                    .map_err(|e| CliError::new(format!("option --chaos needs SEED:RATE: {e}")))?
                    .or(d.chaos),
                backend: match a.text("--backend") {
                    None => d.backend,
                    Some(v) => {
                        roboshape::BackendKind::parse(v).ok_or_else(|| a.invalid("--backend", v))?
                    }
                },
                ..d
            };
            let d = ServerOptions::default();
            Command::Serve {
                port: a.port(true)?,
                port_file: a.path("--port-file"),
                max_requests: a.get("--max-requests")?,
                engine,
                server: ServerOptions {
                    loops: a.count("--loops", d.loops)?,
                    shard_name: a.text("--shard").map_or(d.shard_name, String::from),
                },
            }
        }
        "router" => {
            let spec = a
                .text("--shards")
                .ok_or_else(|| CliError::new("router needs --shards NAME=ADDR,..."))?;
            let shards = spec
                .split(',')
                .filter(|p| !p.is_empty())
                .map(parse_shard)
                .collect::<Result<Vec<_>, _>>()?;
            if shards.is_empty() {
                return Err(CliError::new("router needs at least one shard"));
            }
            Command::Router {
                port: a.port(true)?,
                port_file: a.path("--port-file"),
                shards,
                max_requests: a.get("--max-requests")?,
            }
        }
        "health" => Command::Health {
            port: a.port(false)?,
        },
        "loadgen" => {
            use roboshape::KernelKind;
            use roboshape_serve::loadgen::{LoadMode, RetryPolicy, Workload};
            let kind = match a.text("--kind").unwrap_or("grad") {
                "grad" => KernelKind::DynamicsGradient,
                "id" => KernelKind::InverseDynamics,
                "fk" => KernelKind::ForwardKinematics,
                other => return Err(a.invalid("--kind", other)),
            };
            let workload = match a.text("--workload") {
                None | Some("step") => Workload::Step(kind),
                Some("mixed") => Workload::Mixed,
                Some(spec) => spec
                    .strip_prefix("rollout:")
                    .and_then(|steps| steps.parse().ok())
                    .filter(|&steps| steps >= 1)
                    .map(Workload::Rollout)
                    .ok_or_else(|| a.invalid("--workload", spec))?,
            };
            let d = LoadgenConfig::default();
            Command::Loadgen {
                port: a.port(false)?,
                config: LoadgenConfig {
                    mode: a
                        .get("--rate")?
                        .map_or(d.mode, |rate_hz| LoadMode::Open { rate_hz }),
                    clients: a.count("--clients", d.clients)?,
                    requests_per_client: a.count("--requests", d.requests_per_client)?,
                    workload,
                    deadline: a
                        .get("--deadline-us")?
                        .map(Duration::from_micros)
                        .or(d.deadline),
                    // The CLI's seed defaults to 1, not the library's 0.
                    seed: a.get("--seed")?.unwrap_or(1),
                    retry: RetryPolicy {
                        max_attempts: a
                            .get("--retries")?
                            .map_or(d.retry.max_attempts, |n: u32| n.max(1)),
                        ..d.retry
                    },
                    timeout: a
                        .get("--timeout-ms")?
                        .map(Duration::from_millis)
                        .or(d.timeout),
                    ..d
                },
                cluster: a.switch("--cluster"),
            }
        }
        "bench ab" => Command::BenchAb {
            parent: a.operands[0].clone(),
            change: a.operands[1].clone(),
            pairs: a.count("--pairs", 10)?,
            perfbench_args: a.rest.clone().unwrap_or_default(),
        },
        "bundle export" => Command::BundleExport {
            out: a.path_or("--out", "roboshape_bundle"),
            zoo_n: a.count("--n", 48)?,
            zoo_seed: a.get("--seed")?.unwrap_or(42),
        },
        "bundle verify" => Command::BundleVerify {
            dir: a
                .operands
                .first()
                .map_or_else(|| "bench/baselines/example-bundle".into(), PathBuf::from),
        },
        other => unreachable!("no parser for table entry `{other}`"),
    };
    let urdf = match a.spec.operands {
        (0, _) => "-",
        _ => &a.operands[0],
    };
    Ok(Cli {
        command,
        urdf: PathBuf::from(urdf),
        trace: a.path("--trace"),
        metrics: a.path("--metrics"),
    })
}

/// Appends the `--timings` block: the per-stage pipeline report plus the
/// artifact-store contents.
fn append_timings(out: &mut String, fw: &Framework) {
    let _ = writeln!(out, "\n== pipeline timings ==");
    let _ = writeln!(out, "{}", fw.pipeline().observer().report());
    let _ = writeln!(out, "{}", fw.pipeline().store().stats());
}

/// Executes a parsed CLI invocation; returns the text to print.
///
/// When `--trace` was given, the whole run is captured under a root
/// `cat = "cli"` span through a [`roboshape::obs::ChromeTraceSink`] and
/// written as Chrome `trace_event` JSON; `--metrics` writes the global
/// registry snapshot after the run. Both files are written even when the
/// command itself fails, so a failing run can still be inspected.
///
/// # Errors
///
/// Returns a [`CliError`] for unreadable files, invalid URDF, or output
/// I/O failures.
pub fn run(cli: &Cli) -> Result<String, CliError> {
    let sink = cli
        .trace
        .as_ref()
        .map(|_| Arc::new(obs::ChromeTraceSink::new()));
    if let Some(s) = &sink {
        obs::set_sink(s.clone());
    }
    let result = {
        // Dropped before serialization so the root span reaches the sink.
        let _root = obs::span("cli", cli.command.name());
        run_command(cli)
    };
    if let Some(s) = sink {
        obs::clear_sink();
        let path = cli.trace.as_ref().expect("trace sink implies trace path");
        std::fs::write(path, s.to_chrome_json())
            .map_err(|e| CliError::new(format!("cannot write trace {}: {e}", path.display())))?;
    }
    if let Some(path) = &cli.metrics {
        std::fs::write(path, obs::metrics().snapshot().to_json())
            .map_err(|e| CliError::new(format!("cannot write metrics {}: {e}", path.display())))?;
    }
    result
}

/// Resolves a `serve`/`loadgen` robot spec — `zoo`, `zoo:NAME`, or a
/// URDF path — to named robot models.
fn resolve_robots(
    spec: &std::path::Path,
) -> Result<Vec<(String, roboshape::RobotModel)>, CliError> {
    use roboshape_robots::{zoo, Zoo};
    let text = spec.to_string_lossy();
    if text == "zoo" {
        return Ok(Zoo::ALL
            .into_iter()
            .map(|which| (which.name().to_string(), zoo(which)))
            .collect());
    }
    if let Some(name) = text.strip_prefix("zoo:") {
        let which = Zoo::ALL
            .into_iter()
            .find(|w| w.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let known: Vec<&str> = Zoo::ALL.iter().map(|w| w.name()).collect();
                CliError::new(format!(
                    "unknown zoo robot `{name}` (known: {})",
                    known.join(", ")
                ))
            })?;
        return Ok(vec![(which.name().to_string(), zoo(which))]);
    }
    let urdf = std::fs::read_to_string(spec)
        .map_err(|e| CliError::new(format!("cannot read {}: {e}", spec.display())))?;
    let fw =
        Framework::from_urdf(&urdf).map_err(|e| CliError::new(format!("invalid URDF: {e}")))?;
    let robot = fw.robot().clone();
    Ok(vec![(robot.name().to_string(), robot)])
}

/// Writes the bound port to `--port-file`, for scripts that bind port 0.
fn write_port_file(path: Option<&Path>, bound: u16) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, format!("{bound}\n"))
        .map_err(|e| CliError::new(format!("cannot write {}: {e}", path.display())))
}

/// Blocks until `settled()` reaches the `--max-requests` target, polling
/// every 10 ms; without a target, until the process is killed.
fn wait_for_requests(target: Option<u64>, settled: impl Fn() -> u64) {
    let Some(target) = target else {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    };
    while settled() < target {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `roboshape serve`: bind, announce, serve until `--max-requests`
/// responses (or forever), then drain gracefully and summarise.
fn run_serve(
    spec: &Path,
    port: u16,
    port_file: Option<&Path>,
    max_requests: Option<u64>,
    config: EngineConfig,
    options: &ServerOptions,
) -> Result<String, CliError> {
    use roboshape_serve::{Engine, Server};
    let robots = resolve_robots(spec)?;
    let engine = Engine::new(config);
    let mut out = String::new();
    for (name, model) in robots {
        let _ = writeln!(
            out,
            "registered {:<12} {:>2} links",
            name,
            model.num_links()
        );
        engine.register(name, model);
    }
    let shard_note = if options.shard_name == ServerOptions::default().shard_name {
        String::new()
    } else {
        format!(" shard={}", options.shard_name)
    };
    let server = Server::start_with(engine.clone(), ("127.0.0.1", port), options.clone())
        .map_err(|e| CliError::new(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let bound = server.port();
    write_port_file(port_file, bound)?;
    // Announce on stdout immediately — scripts wait for the port line
    // (the returned string prints only after the run finishes).
    let chaos_note = config
        .chaos
        .map(|c| format!(" chaos={}:{}", c.seed, c.crash))
        .unwrap_or_default();
    println!(
        "serving on 127.0.0.1:{bound} (queue={} batch={} workers={}{chaos_note}{shard_note})",
        config.queue_capacity, config.max_batch, config.workers_per_robot
    );
    wait_for_requests(max_requests, || {
        let stats = engine.stats();
        stats.responses() + stats.shed
    });
    server.shutdown();
    let stats = engine.stats();
    let _ = writeln!(
        out,
        "served {} requests: ok={} shed={} deadline_exceeded={} bad={} crashed={} degraded={} batches={} largest_batch={}",
        stats.responses() + stats.shed,
        stats.completed,
        stats.shed,
        stats.deadline_exceeded,
        stats.bad_requests,
        stats.crashed,
        stats.degraded,
        stats.batches,
        stats.largest_batch,
    );
    let _ = writeln!(
        out,
        "resilience: worker_restarts={} circuit_trips={} injected: stalls={} crashes={} pressure={}",
        stats.worker_restarts,
        stats.circuit_trips,
        stats.injected_stalls,
        stats.injected_crashes,
        stats.injected_pressure,
    );
    Ok(out)
}

/// `roboshape router`: start the cluster front-end over an existing
/// shard fleet, announce the bound port, and (with `--max-requests`)
/// exit after that many client requests have settled.
fn run_router(
    port: u16,
    port_file: Option<&Path>,
    shards: &[roboshape_serve::ShardSpec],
    max_requests: Option<u64>,
) -> Result<String, CliError> {
    use roboshape_serve::{Router, RouterConfig};
    let names: Vec<String> = shards.iter().map(|s| s.name.clone()).collect();
    let router = Router::start(RouterConfig::new(shards.to_vec()), ("127.0.0.1", port))
        .map_err(|e| CliError::new(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let bound = router.port();
    write_port_file(port_file, bound)?;
    // Announce on stdout immediately — scripts wait for the port line.
    println!(
        "routing on 127.0.0.1:{bound} across {} shards ({})",
        shards.len(),
        names.join(", ")
    );
    let stats = router.stats();
    wait_for_requests(max_requests, || stats.settled());
    router.shutdown();
    use std::sync::atomic::Ordering::Relaxed;
    Ok(format!(
        "routed {} requests: responses={} shed={} rerouted={} failovers={}\n",
        stats.settled(),
        stats.responses.load(Relaxed),
        stats.shed.load(Relaxed),
        stats.rerouted.load(Relaxed),
        stats.failovers.load(Relaxed),
    ))
}

/// `roboshape loadgen`: resolve the spec to robot names/sizes, run the
/// configured load, report.
fn run_loadgen_command(
    spec: &Path,
    port: u16,
    config: &LoadgenConfig,
    cluster: bool,
) -> Result<String, CliError> {
    use roboshape_serve::loadgen::{run_loadgen, TargetRobot};
    let robots = resolve_robots(spec)?
        .into_iter()
        .map(|(name, model)| TargetRobot {
            name,
            links: model.num_links(),
        })
        .collect();
    let cfg = LoadgenConfig {
        robots,
        ..config.clone()
    };
    let report = run_loadgen(("127.0.0.1", port), &cfg)
        .map_err(|e| CliError::new(format!("loadgen against 127.0.0.1:{port} failed: {e}")))?;
    if cluster {
        // The cluster accounting line CI greps: every request settled
        // (lost=0) even when failover rerouted some of them.
        return Ok(format!(
            "{report}\ncluster: rerouted={} lost={}\n",
            report.rerouted,
            report.lost()
        ));
    }
    Ok(format!("{report}\n"))
}

/// `roboshape health`: one readiness probe against a running server.
/// Exit is clean when the server answers and reports ready; a degraded
/// (non-ready) report is still printed but returned as an error so
/// scripts can gate on the exit code.
fn run_health(port: u16) -> Result<String, CliError> {
    use roboshape_serve::Client;
    let mut client = Client::connect(("127.0.0.1", port))
        .map_err(|e| CliError::new(format!("cannot connect to 127.0.0.1:{port}: {e}")))?;
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| CliError::new(format!("cannot configure socket: {e}")))?;
    let report = client
        .health()
        .map_err(|e| CliError::new(format!("health probe failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "ready={} robots={}", report.ready, report.robots.len());
    for robot in &report.robots {
        let _ = writeln!(
            out,
            "  {:<12} circuit={:<9} workers_alive={}",
            robot.name,
            robot.circuit.to_string(),
            robot.workers_alive
        );
    }
    if report.ready {
        Ok(out)
    } else {
        Err(CliError::new(format!("{out}not ready")))
    }
}

/// `roboshape bench ab`: the paired A/B perfbench gate.
fn run_bench_ab(
    parent: &str,
    change: &str,
    pairs: usize,
    perfbench_args: &[String],
) -> Result<String, CliError> {
    let report = roboshape_benchrec::ab::run(parent, change, pairs, perfbench_args)
        .map_err(|e| CliError::new(format!("bench ab: {e}")))?;
    let text = report.render();
    if report.failed() {
        return Err(CliError::new(format!("{text}bench ab: FAIL")));
    }
    Ok(format!("{text}bench ab: PASS\n"))
}

/// The deterministic experiment reports a validation bundle snapshots,
/// and the pinned load the serving probe drives. `ext_zoo` is rendered
/// through [`roboshape_experiments::ext_zoo_with`] at the manifest's
/// pinned `(zoo_n, zoo_seed)`; everything else comes from
/// [`roboshape_experiments::report_generators`]. Two reports are
/// excluded on principle: `ext_serve` prints wall-clock timings, and
/// `ext_chaos` counters depend on how injected worker stalls race the
/// queue (the fault *schedule* is seeded, the interleaving is not).
/// Both are covered by the probe invariants instead.
const BUNDLE_SNAPSHOTS: [&str; 10] = [
    "table1",
    "table2",
    "table3",
    "fig9",
    "fig10",
    "fig12",
    "fig16",
    "ext_kernels",
    "ext_zoo",
    "verify",
];

/// Clients driven by the validation probe.
const PROBE_CLIENTS: usize = 4;
/// Requests per probe client.
const PROBE_REQUESTS: usize = 16;

/// Renders one bundle snapshot by name at the pinned seeds.
fn render_bundle_report(name: &str, zoo_n: usize, zoo_seed: u64) -> Option<String> {
    if name == "ext_zoo" {
        return Some(roboshape_experiments::ext_zoo_with(zoo_n, zoo_seed));
    }
    roboshape_experiments::report_generators()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, generate)| generate())
}

/// One closed-loop ∇FD pass over the full zoo against an in-process
/// loopback server: the bundle's live serving probe. Latencies and the
/// failure histogram go into the manifest as machine-dependent context;
/// `lost == 0` / `errors == 0` are the invariants `bundle verify`
/// re-checks.
fn validation_probe(seed: u64) -> Result<roboshape_serve::loadgen::LoadgenReport, CliError> {
    use roboshape_robots::{zoo, Zoo};
    use roboshape_serve::loadgen::{
        run_loadgen, LoadMode, LoadgenConfig, RetryPolicy, TargetRobot, Workload,
    };
    use roboshape_serve::{Engine, EngineConfig, Server};
    let engine = Engine::new(EngineConfig::default());
    let robots: Vec<TargetRobot> = Zoo::ALL
        .into_iter()
        .map(|which| {
            let model = zoo(which);
            let links = model.num_links();
            engine.register(which.name(), model);
            TargetRobot {
                name: which.name().to_string(),
                links,
            }
        })
        .collect();
    let server = Server::start(engine, ("127.0.0.1", 0))
        .map_err(|e| CliError::new(format!("probe cannot bind loopback: {e}")))?;
    let cfg = LoadgenConfig {
        mode: LoadMode::Closed,
        clients: PROBE_CLIENTS,
        requests_per_client: PROBE_REQUESTS,
        robots,
        workload: Workload::Step(roboshape::KernelKind::DynamicsGradient),
        deadline: None,
        seed,
        retry: RetryPolicy::none(),
        timeout: None,
    };
    // One warm-up pass binds the worker arenas, then the measured pass.
    run_loadgen(("127.0.0.1", server.port()), &cfg)
        .map_err(|e| CliError::new(format!("probe warm-up failed: {e}")))?;
    let report = run_loadgen(("127.0.0.1", server.port()), &cfg)
        .map_err(|e| CliError::new(format!("probe run failed: {e}")))?;
    server.shutdown();
    Ok(report)
}

/// `roboshape bundle export`.
fn run_bundle_export(
    out_dir: &std::path::Path,
    zoo_n: usize,
    zoo_seed: u64,
) -> Result<String, CliError> {
    use roboshape_benchrec::{current_commit, fnv1a64, MachineInfo, Manifest, SnapshotEntry};
    let expected = out_dir.join("expected");
    std::fs::create_dir_all(&expected)
        .map_err(|e| CliError::new(format!("cannot create {}: {e}", expected.display())))?;
    let mut out = String::new();
    let mut snapshots = Vec::new();
    for name in BUNDLE_SNAPSHOTS {
        let body = render_bundle_report(name, zoo_n, zoo_seed)
            .ok_or_else(|| CliError::new(format!("unknown bundle report `{name}`")))?;
        let file = format!("expected/{name}.txt");
        std::fs::write(out_dir.join(&file), &body)
            .map_err(|e| CliError::new(format!("cannot write {file}: {e}")))?;
        let entry = SnapshotEntry {
            name: name.to_string(),
            file,
            bytes: body.len() as u64,
            fnv64: fnv1a64(body.as_bytes()),
        };
        let _ = writeln!(
            out,
            "snapshot {:<14} {:>7} bytes  fnv64 {:016x}",
            entry.name, entry.bytes, entry.fnv64
        );
        snapshots.push(entry);
    }
    let probe_seed = 5u64;
    let probe = validation_probe(probe_seed)?;
    let mut context = std::collections::BTreeMap::new();
    context.insert("latency.p50_us".to_string(), probe.p50_us as f64);
    context.insert("latency.p90_us".to_string(), probe.p90_us as f64);
    context.insert("latency.p99_us".to_string(), probe.p99_us as f64);
    context.insert("throughput_rps".to_string(), probe.throughput_rps);
    context.insert("histogram.ok".to_string(), probe.ok as f64);
    context.insert("histogram.shed".to_string(), probe.shed as f64);
    context.insert(
        "histogram.deadline_exceeded".to_string(),
        probe.deadline_exceeded as f64,
    );
    context.insert("histogram.errors".to_string(), probe.errors as f64);
    context.insert("histogram.lost".to_string(), probe.lost() as f64);
    let manifest = Manifest {
        commit: current_commit(),
        machine: MachineInfo::detect(false),
        seeds: [
            ("zoo_n".to_string(), zoo_n as u64),
            ("zoo_seed".to_string(), zoo_seed),
            ("probe_seed".to_string(), probe_seed),
        ]
        .into_iter()
        .collect(),
        snapshots,
        context,
    };
    std::fs::write(out_dir.join("manifest.json"), manifest.to_json())
        .map_err(|e| CliError::new(format!("cannot write manifest: {e}")))?;
    let _ = writeln!(
        out,
        "probe: {} ok / {} sent, p50 {}us p90 {}us p99 {}us",
        probe.ok, probe.sent, probe.p50_us, probe.p90_us, probe.p99_us
    );
    let _ = writeln!(
        out,
        "wrote bundle ({} snapshots, commit {}) to {}",
        manifest.snapshots.len(),
        manifest.commit,
        out_dir.display()
    );
    Ok(out)
}

/// `roboshape bundle verify`.
fn run_bundle_verify(dir: &std::path::Path) -> Result<String, CliError> {
    use roboshape_benchrec::{
        current_commit, MachineInfo, Manifest, SnapshotStatus, VerifyOutcome,
    };
    let manifest = Manifest::load(dir).map_err(|e| CliError::new(e.to_string()))?;
    let zoo_n = *manifest.seeds.get("zoo_n").unwrap_or(&48) as usize;
    let zoo_seed = *manifest.seeds.get("zoo_seed").unwrap_or(&42);
    let probe_seed = *manifest.seeds.get("probe_seed").unwrap_or(&5);
    let mut outcome = VerifyOutcome::new();
    for entry in &manifest.snapshots {
        match render_bundle_report(&entry.name, zoo_n, zoo_seed) {
            Some(regenerated) => outcome.check_snapshot(dir, entry, &regenerated),
            None => outcome.snapshots.push((
                entry.name.clone(),
                SnapshotStatus::Corrupt(format!(
                    "this build has no generator named `{}`",
                    entry.name
                )),
            )),
        }
    }
    let probe = validation_probe(probe_seed)?;
    outcome
        .invariants
        .push(("probe.lost=0".to_string(), probe.lost() == 0));
    outcome
        .invariants
        .push(("probe.errors=0".to_string(), probe.errors == 0));
    // Machine-dependent context is reported, never gated: the whole
    // point of the bundle is that a third party on different hardware
    // can still score it.
    let fmt_us = |key: &str| -> String {
        manifest
            .context
            .get(key)
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "?".to_string())
    };
    outcome.notes.push(format!(
        "context: p50 {}us → {}us, p99 {}us → {}us (exporting machine → this machine, informational)",
        fmt_us("latency.p50_us"),
        probe.p50_us,
        fmt_us("latency.p99_us"),
        probe.p99_us
    ));
    let commit = current_commit();
    if commit != manifest.commit {
        outcome.notes.push(format!(
            "note: bundle was exported at {} but this tree is {commit} (expected for a committed bundle)",
            manifest.commit
        ));
    }
    let machine = MachineInfo::detect(false);
    if !machine.comparable_to(&manifest.machine) {
        outcome.notes.push(
            "note: different machine than the exporter — context latencies are not comparable"
                .to_string(),
        );
    }
    let text = outcome.render();
    if outcome.passed() {
        Ok(text)
    } else {
        Err(CliError::new(format!("{text}bundle verify: FAIL")))
    }
}

fn run_command(cli: &Cli) -> Result<String, CliError> {
    // The serving commands interpret `cli.urdf` as a robot spec and do
    // their own loading; dispatch before the single-URDF read below.
    match &cli.command {
        Command::Serve {
            port,
            port_file,
            max_requests,
            engine,
            server,
        } => {
            return run_serve(
                &cli.urdf,
                *port,
                port_file.as_deref(),
                *max_requests,
                *engine,
                server,
            )
        }
        Command::Router {
            port,
            port_file,
            shards,
            max_requests,
        } => return run_router(*port, port_file.as_deref(), shards, *max_requests),
        Command::Loadgen {
            port,
            config,
            cluster,
        } => return run_loadgen_command(&cli.urdf, *port, config, *cluster),
        Command::Health { port } => return run_health(*port),
        Command::BenchAb {
            parent,
            change,
            pairs,
            perfbench_args,
        } => return run_bench_ab(parent, change, *pairs, perfbench_args),
        Command::BundleExport {
            out,
            zoo_n,
            zoo_seed,
        } => return run_bundle_export(out, *zoo_n, *zoo_seed),
        Command::BundleVerify { dir } => return run_bundle_verify(dir),
        _ => {}
    }

    let urdf = std::fs::read_to_string(&cli.urdf)
        .map_err(|e| CliError::new(format!("cannot read {}: {e}", cli.urdf.display())))?;
    let fw =
        Framework::from_urdf(&urdf).map_err(|e| CliError::new(format!("invalid URDF: {e}")))?;
    let robot = fw.robot().clone();

    let mut out = String::new();
    match &cli.command {
        Command::Info => {
            let _ = writeln!(out, "robot: {} ({} links)", robot.name(), robot.num_links());
            let _ = writeln!(out, "metrics: {}", fw.metrics());
            let _ = writeln!(out, "topology:\n{}", robot.topology().render());
            let p = ParallelismProfile::of(robot.topology());
            let _ = writeln!(out, "forward parallelism per step:  {:?}", p.forward);
            let _ = writeln!(out, "backward parallelism per step: {:?}", p.backward);
            let pat = SparsityPattern::mass_matrix(robot.topology());
            let _ = writeln!(
                out,
                "mass matrix: {} nonzeros ({:.0}% sparse)\n{}",
                pat.nnz(),
                pat.sparsity() * 100.0,
                pat.render()
            );
        }
        Command::Generate {
            knobs,
            out: out_dir,
            timings,
        } => {
            let accel = match knobs {
                Some(k) => fw.generate_with_knobs(*k),
                None => fw.generate(Constraints::unconstrained()),
            };
            let k = accel.knobs();
            let d = accel.design();
            // One functional evaluation through the cycle-level simulator:
            // it re-validates the emitted schedule's dependencies (the
            // simulator panics on violations) and populates the sim cycle
            // histograms a `--metrics` snapshot reports.
            let n = robot.num_links();
            let sim_q: Vec<f64> = (0..n).map(|i| (0.23 * (i as f64 + 1.0)).sin()).collect();
            let sim = accel.simulate(&sim_q, &vec![0.1; n], &vec![0.2; n]);
            let _reports_span = obs::span(
                roboshape::PIPELINE_OBS_CATEGORY,
                PipelineStage::Reports.name(),
            );
            let report = fw.pipeline().observer().time(PipelineStage::Reports, || {
                let r = accel.resources();
                format!(
                    "robot: {}\nknobs: PEs_fwd={} PEs_bwd={} block={}\ncycles: {} (no pipelining: {})\nclock: {:.1} ns\nlatency: {:.2} us\nresources: {:.0} LUTs, {:.0} DSPs\nsimulated: {} tasks + {} mat-mul ops, schedule dependencies OK\n",
                    robot.name(),
                    k.pe_fwd,
                    k.pe_bwd,
                    k.block_size,
                    d.compute_cycles(),
                    d.compute_cycles_no_pipelining(),
                    d.clock_ns(),
                    d.compute_latency_us(),
                    r.luts,
                    r.dsps,
                    sim.stats.tasks_executed,
                    sim.stats.matmul_ops
                )
            });
            std::fs::create_dir_all(out_dir)
                .map_err(|e| CliError::new(format!("cannot create {}: {e}", out_dir.display())))?;
            for (name, src) in accel.verilog().files() {
                std::fs::write(out_dir.join(name), src)
                    .map_err(|e| CliError::new(format!("cannot write {name}: {e}")))?;
            }
            std::fs::write(out_dir.join("report.txt"), &report)
                .map_err(|e| CliError::new(format!("cannot write report: {e}")))?;
            let _ = writeln!(out, "{report}");
            let _ = writeln!(out, "wrote Verilog + report to {}", out_dir.display());
            if *timings {
                append_timings(&mut out, &fw);
            }
        }
        Command::Sweep {
            pareto_only,
            pruned,
            timings,
        } => {
            let (selected, pruned_stats) = if *pruned {
                let sweep =
                    roboshape::sweep_design_space_pruned_with(fw.pipeline(), robot.topology());
                let stats = format!(
                    "# pruned: evaluated {} of {} grid points ({} rows never scheduled)",
                    sweep.evaluated_points, sweep.grid_points, sweep.skipped_rows
                );
                (sweep.frontier, Some(stats))
            } else {
                let points = fw.design_space();
                let selected = if *pareto_only {
                    pareto_frontier(&points)
                } else {
                    points
                };
                (selected, None)
            };
            let _ = writeln!(
                out,
                "pe_fwd,pe_bwd,block,traversal_cycles,total_cycles,luts,dsps"
            );
            for p in selected {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{:.0},{:.0}",
                    p.pe_fwd,
                    p.pe_bwd,
                    p.block,
                    p.traversal_cycles,
                    p.total_cycles,
                    p.resources.luts,
                    p.resources.dsps
                );
            }
            if let Some(stats) = pruned_stats {
                let _ = writeln!(out, "{stats}");
            }
            if *timings {
                append_timings(&mut out, &fw);
            }
        }
        Command::Gantt { width } => {
            let accel = fw.generate(Constraints::unconstrained());
            let d = accel.design();
            let _ = writeln!(
                out,
                "schedule for {} at PEs=({},{}), makespan {} cycles:",
                robot.name(),
                accel.knobs().pe_fwd,
                accel.knobs().pe_bwd,
                d.schedule().makespan()
            );
            let _ = writeln!(out, "{}", d.schedule().render_gantt(d.task_graph(), *width));
            let _ = writeln!(
                out,
                "legend: F RNEA-fwd, B RNEA-bwd, g grad-fwd, b grad-bwd, . idle"
            );
        }
        Command::Kernels => {
            use roboshape::{
                try_simulate, try_simulate_inverse_dynamics, try_simulate_kinematics, KernelKind,
            };
            let knobs = fw.choose_knobs(Constraints::unconstrained());
            let n = robot.num_links();
            let q: Vec<f64> = (0..n).map(|i| 0.2 * (i as f64 + 1.0).sin()).collect();
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>10} {:>12}",
                "kernel", "tasks", "cycles", "latency us"
            );
            for kernel in [
                KernelKind::ForwardKinematics,
                KernelKind::InverseDynamics,
                KernelKind::DynamicsGradient,
            ] {
                let d = roboshape::AcceleratorDesign::generate_for_kernel(
                    robot.topology(),
                    knobs,
                    kernel,
                );
                // Functionally verify each design before reporting it.
                let qd = vec![0.1; n];
                match kernel {
                    KernelKind::ForwardKinematics => {
                        try_simulate_kinematics(&robot, &d, &q).map(drop)
                    }
                    KernelKind::InverseDynamics => {
                        try_simulate_inverse_dynamics(&robot, &d, &q, &qd, &vec![0.0; n]).map(drop)
                    }
                    KernelKind::DynamicsGradient => {
                        try_simulate(&robot, &d, &q, &qd, &vec![0.2; n]).map(drop)
                    }
                }
                .map_err(|e| CliError::new(format!("{kernel:?} simulation failed: {e}")))?;
                let _ = writeln!(
                    out,
                    "{:<20} {:>8} {:>10} {:>12.2}",
                    format!("{kernel:?}"),
                    d.task_graph().len(),
                    d.compute_cycles(),
                    d.compute_latency_us()
                );
            }
        }
        Command::Energy => {
            use roboshape::PowerModel;
            let accel = fw.generate(Constraints::unconstrained());
            let plain = PowerModel::new().evaluate(accel.design());
            let gated = PowerModel::new()
                .with_power_gating()
                .evaluate(accel.design());
            let _ = writeln!(out, "robot: {} ({} links)", robot.name(), robot.num_links());
            let _ = writeln!(
                out,
                "static {:.2} W + dynamic {:.2} W = {:.2} W (utilization {:.0}%)",
                plain.static_w,
                plain.dynamic_w,
                plain.total_w(),
                plain.utilization * 100.0
            );
            let _ = writeln!(
                out,
                "with PE power gating: {:.2} W (saves {:.2} W of idle leakage)",
                gated.total_w(),
                plain.total_w() - gated.total_w()
            );
            let _ = writeln!(
                out,
                "energy per gradient evaluation: {:.1} uJ",
                plain.energy_per_eval_uj()
            );
        }
        Command::Soc { extra } => {
            use roboshape::{co_design, sweep_design_space_with, Platform, UTILIZATION_THRESHOLD};
            let mut robots = vec![robot.clone()];
            for path in extra {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::new(format!("cannot read {}: {e}", path.display())))?;
                robots.push(
                    Framework::from_urdf(&text)
                        .map_err(|e| {
                            CliError::new(format!("invalid URDF {}: {e}", path.display()))
                        })?
                        .robot()
                        .clone(),
                );
            }
            let spaces: Vec<_> = robots
                .iter()
                .map(|r| sweep_design_space_with(fw.pipeline(), r.topology()))
                .collect();
            for platform in Platform::all() {
                match co_design(&spaces, platform, UTILIZATION_THRESHOLD) {
                    Some(alloc) => {
                        let _ = writeln!(
                            out,
                            "{}: worst latency {} cycles, {:.0} LUTs / {:.0} DSPs total",
                            platform.name, alloc.worst_latency, alloc.total.luts, alloc.total.dsps
                        );
                        for (r, p) in robots.iter().zip(&alloc.assignments) {
                            let _ = writeln!(
                                out,
                                "  {:<12} ({:>2},{:>2},b{:<2}) {:>5} cycles {:>9.0} LUTs",
                                r.name(),
                                p.pe_fwd,
                                p.pe_bwd,
                                p.block,
                                p.total_cycles,
                                p.resources.luts
                            );
                        }
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "{}: the {} accelerators do not fit together",
                            platform.name,
                            robots.len()
                        );
                    }
                }
            }
        }
        Command::Verify => {
            let accel = fw.generate(Constraints::unconstrained());
            let n = robot.num_links();
            let q: Vec<f64> = (0..n).map(|i| (0.27 * (i as f64 + 1.0)).sin()).collect();
            let qd: Vec<f64> = (0..n).map(|i| 0.2 * (0.4 * i as f64).cos()).collect();
            let tau: Vec<f64> = (0..n).map(|i| 0.5 - 0.06 * i as f64).collect();
            let sim = simulate(&robot, accel.design(), &q, &qd, &tau);
            let err = sim.verify(&robot, &q, &qd, &tau);
            let _ = writeln!(
                out,
                "simulated {} tasks + {} mat-mul ops in {} cycles",
                sim.stats.tasks_executed, sim.stats.matmul_ops, sim.stats.cycles
            );
            let _ = writeln!(out, "max gradient deviation vs reference: {err:.3e}");
            if err > 1e-8 {
                return Err(CliError::new(format!(
                    "verification FAILED: error {err:.3e}"
                )));
            }
            let _ = writeln!(out, "VERIFIED");
        }
        _ => unreachable!("dispatched before the URDF load"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboshape_robots::{zoo_urdf, Zoo};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn write_urdf(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("roboshape_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.urdf"));
        std::fs::write(&path, zoo_urdf(Zoo::Hyq)).unwrap();
        path
    }

    #[test]
    fn parses_commands() {
        let c = parse_args(&args(&["info", "r.urdf"])).unwrap();
        assert_eq!(c.command, Command::Info);
        let c = parse_args(&args(&["sweep", "r.urdf", "--pareto"])).unwrap();
        assert_eq!(
            c.command,
            Command::Sweep {
                pareto_only: true,
                pruned: false,
                timings: false
            }
        );
        let c = parse_args(&args(&["sweep", "r.urdf", "--timings"])).unwrap();
        assert_eq!(
            c.command,
            Command::Sweep {
                pareto_only: false,
                pruned: false,
                timings: true
            }
        );
        let c = parse_args(&args(&["sweep", "r.urdf", "--pruned"])).unwrap();
        assert_eq!(
            c.command,
            Command::Sweep {
                pareto_only: false,
                pruned: true,
                timings: false
            }
        );
        let c = parse_args(&args(&["generate", "r.urdf", "--pe-fwd", "3", "--block=4"])).unwrap();
        match c.command {
            Command::Generate { knobs: Some(k), .. } => {
                assert_eq!(k.pe_fwd, 3);
                assert_eq!(k.block_size, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args(&["info"])).is_err());
        assert!(parse_args(&args(&["frobnicate", "r.urdf"])).is_err());
        assert!(parse_args(&args(&["generate", "r.urdf", "--pe-fwd", "three"])).is_err());
        assert!(parse_args(&args(&["generate", "r.urdf", "--pe-fwd"])).is_err());
    }

    /// The `--flags` USAGE documents, per subcommand (`bench` and
    /// `bundle` pool their actions), plus the global ones under `""`.
    fn usage_flags() -> std::collections::BTreeMap<String, std::collections::BTreeSet<String>> {
        let mut blocks = std::collections::BTreeMap::new();
        let mut current = None;
        for line in USAGE.lines().skip(1) {
            if line.starts_with("global options") {
                current = Some(String::new());
            } else if current != Some(String::new())
                && line.starts_with("  ")
                && line.as_bytes()[2].is_ascii_alphabetic()
            {
                current = line.split_whitespace().next().map(String::from);
            }
            let block = blocks
                .entry(current.clone().expect("USAGE starts with a command"))
                .or_insert_with(std::collections::BTreeSet::new);
            for token in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if token.len() > 2 && token.starts_with("--") {
                    block.insert(token.to_string());
                }
            }
        }
        blocks
    }

    #[test]
    fn usage_and_flag_tables_list_the_same_flags() {
        let mut tables: std::collections::BTreeMap<String, std::collections::BTreeSet<String>> =
            std::collections::BTreeMap::new();
        tables.insert(
            String::new(),
            GLOBAL_FLAGS.iter().map(|(f, _)| f.to_string()).collect(),
        );
        for spec in SPECS {
            let command = spec.words.split(' ').next().unwrap().to_string();
            tables
                .entry(command)
                .or_default()
                .extend(spec.flags.iter().map(|(f, _)| f.to_string()));
        }
        assert_eq!(usage_flags(), tables);
    }

    /// A minimal invocation of `spec`: its command words plus its
    /// required operands.
    fn base_args(spec: &Spec) -> Vec<String> {
        let mut v: Vec<String> = spec.words.split(' ').map(String::from).collect();
        v.extend((0..spec.operands.0).map(|i| format!("r{i}.urdf")));
        v
    }

    /// Parses `extra` after `spec`'s base invocation, expecting a table
    /// rejection that names `offender` and lists every known flag.
    fn assert_rejected(spec: &Spec, extra: &[&str], offender: &str) {
        let mut argv = base_args(spec);
        argv.extend(extra.iter().map(|a| a.to_string()));
        let err = parse_args(&argv).expect_err(&format!("{argv:?} was accepted"));
        assert!(err.message.contains(offender), "{argv:?}: {}", err.message);
        assert!(
            err.message.starts_with(&format!("{}: ", spec.words)),
            "{argv:?}: {}",
            err.message
        );
        for (flag, _) in spec.flags.iter().chain(GLOBAL_FLAGS) {
            assert!(err.message.contains(flag), "{argv:?}: {}", err.message);
        }
    }

    #[test]
    fn every_subcommand_rejects_what_its_table_does_not_list() {
        for spec in SPECS {
            assert_rejected(spec, &["--bogus"], "`--bogus`");
            assert_rejected(spec, &["--bogus=1"], "`--bogus`");
            if spec.operands.1 != usize::MAX {
                let mut extra = vec!["operand"; spec.operands.1 - spec.operands.0];
                extra.push("stray.txt");
                assert_rejected(spec, &extra, "`stray.txt`");
            }
            if let Some((switch, _)) = spec.flags.iter().find(|(_, a)| *a == Switch) {
                let arg = format!("{switch}=yes");
                assert_rejected(spec, &[&arg], &format!("`{arg}`"));
            }
            for (flag, _) in spec
                .flags
                .iter()
                .chain(GLOBAL_FLAGS)
                .filter(|(_, a)| *a != Switch)
            {
                assert_rejected(spec, &[flag], &format!("option {flag} needs a value"));
                assert_rejected(
                    spec,
                    &[flag, "1", &format!("{flag}=2")],
                    &format!("option {flag} given more than once"),
                );
            }
        }
    }

    #[test]
    fn typos_are_errors_not_silently_ignored() {
        for argv in [
            &[
                "generate", "two.urdf", "--pe-fwd", "2", "--pe-bwd", "2", "--blok", "2",
            ][..],
            &["sweep", "two.urdf", "--prunned"],
            &["info", "two.urdf", "extra.urdf", "--bogus"],
            &["gantt", "two.urdf", "--width", "40", "--width", "60"],
            &["--bogus", "info", "two.urdf"],
        ] {
            assert!(parse_args(&args(argv)).is_err(), "{argv:?} was accepted");
        }
        let err = parse_args(&args(&["sweep", "two.urdf", "--prunned"])).unwrap_err();
        assert!(
            err.message.contains("unknown option `--prunned`"),
            "{}",
            err.message
        );
        assert!(err.message.contains("--pruned"), "{}", err.message);
    }

    #[test]
    fn global_flags_are_accepted_anywhere() {
        for argv in [
            &["--trace", "t.json", "info", "r.urdf", "--metrics=m.json"][..],
            &["info", "--metrics", "m.json", "r.urdf", "--trace=t.json"],
        ] {
            let c = parse_args(&args(argv)).unwrap();
            assert_eq!(c.command, Command::Info);
            assert_eq!(c.urdf, PathBuf::from("r.urdf"));
            assert_eq!(c.trace, Some(PathBuf::from("t.json")));
            assert_eq!(c.metrics, Some(PathBuf::from("m.json")));
        }
    }

    #[test]
    fn serve_and_loadgen_start_from_the_library_defaults() {
        let c = parse_args(&args(&["serve", "zoo"])).unwrap();
        assert_eq!(
            c.command,
            Command::Serve {
                port: 0,
                port_file: None,
                max_requests: None,
                engine: EngineConfig::default(),
                server: ServerOptions::default(),
            }
        );
        let c = parse_args(&args(&["loadgen", "zoo", "--port", "9"])).unwrap();
        assert_eq!(
            c.command,
            Command::Loadgen {
                port: 9,
                // The CLI's one deliberate difference: seed 1.
                config: LoadgenConfig {
                    seed: 1,
                    ..LoadgenConfig::default()
                },
                cluster: false,
            }
        );
    }

    #[test]
    fn info_runs_on_a_real_urdf() {
        let path = write_urdf("info");
        let cli = parse_args(&args(&["info", path.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("12 links"));
        assert!(out.contains("75% sparse"));
    }

    #[test]
    fn generate_writes_verilog_bundle() {
        let path = write_urdf("generate");
        let out_dir = std::env::temp_dir().join("roboshape_cli_tests/gen_out");
        let cli = parse_args(&args(&[
            "generate",
            path.to_str().unwrap(),
            "--pe-fwd",
            "3",
            "--pe-bwd",
            "3",
            "--block",
            "3",
            "--out",
            out_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("PEs_fwd=3"));
        assert!(out_dir.join("roboshape_top.v").exists());
        assert!(out_dir.join("report.txt").exists());
    }

    #[test]
    fn verify_passes_on_a_real_robot() {
        let path = write_urdf("verify");
        let cli = parse_args(&args(&["verify", path.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("VERIFIED"));
    }

    #[test]
    fn sweep_emits_csv() {
        let path = write_urdf("sweep");
        let cli = parse_args(&args(&["sweep", path.to_str().unwrap(), "--pareto"])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.starts_with("pe_fwd,pe_bwd,block"));
        assert!(out.lines().count() > 2);
    }

    #[test]
    fn sweep_pruned_emits_the_same_frontier() {
        let path = write_urdf("sweep_pruned");
        let pareto = parse_args(&args(&["sweep", path.to_str().unwrap(), "--pareto"])).unwrap();
        let pruned = parse_args(&args(&["sweep", path.to_str().unwrap(), "--pruned"])).unwrap();
        let pareto_out = run(&pareto).unwrap();
        let pruned_out = run(&pruned).unwrap();
        // Same frontier rows, plus the pruning stats comment.
        let rows = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&pareto_out), rows(&pruned_out));
        assert!(pruned_out.contains("# pruned: evaluated "));
    }

    #[test]
    fn sweep_with_timings_reports_pipeline_stages() {
        let path = write_urdf("sweep_timings");
        let cli = parse_args(&args(&[
            "sweep",
            path.to_str().unwrap(),
            "--pareto",
            "--timings",
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("== pipeline timings =="));
        assert!(out.contains("schedules"));
        assert!(out.contains("points evaluated"));
        assert!(out.contains("artifact store:"));
    }

    #[test]
    fn generate_with_timings_reports_pipeline_stages() {
        let path = write_urdf("generate_timings");
        let out_dir = std::env::temp_dir().join("roboshape_cli_tests/gen_timings_out");
        let cli = parse_args(&args(&[
            "generate",
            path.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--timings",
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("== pipeline timings =="));
        assert!(out.contains("parse"));
        assert!(out.contains("reports"));
    }

    #[test]
    fn kernels_command_reports_three_kernels() {
        let path = write_urdf("kernels");
        let cli = parse_args(&args(&["kernels", path.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("ForwardKinematics"));
        assert!(out.contains("InverseDynamics"));
        assert!(out.contains("DynamicsGradient"));
    }

    #[test]
    fn energy_command_reports_gating() {
        let path = write_urdf("energy");
        let cli = parse_args(&args(&["energy", path.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("power gating"));
        assert!(out.contains("uJ"));
    }

    #[test]
    fn soc_command_co_designs_two_robots() {
        let a = write_urdf("soc_a");
        let dir = std::env::temp_dir().join("roboshape_cli_tests");
        let b = dir.join("soc_b.urdf");
        std::fs::write(&b, zoo_urdf(Zoo::Iiwa)).unwrap();
        let cli = parse_args(&args(&["soc", a.to_str().unwrap(), b.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("worst latency"));
        assert!(out.contains("iiwa"));
        assert!(out.contains("HyQ"));
    }

    #[test]
    fn gantt_draws_a_timeline() {
        let path = write_urdf("gantt");
        let cli = parse_args(&args(&["gantt", path.to_str().unwrap(), "--width", "40"])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("legend:"));
        assert!(out.contains("fwd0"));
        assert!(out.lines().any(|l| l.contains('F')));
    }

    #[test]
    fn warm_generate_trace_is_wellformed_chrome_json() {
        // The golden observability test: warm the artifact store with one
        // untraced run, then trace a second (all-hit) run and check the
        // emitted Chrome trace_event document end to end.
        let path = write_urdf("trace_golden");
        let dir = std::env::temp_dir().join("roboshape_cli_tests/trace_golden_out");
        let out_flag = dir.to_str().unwrap().to_string();
        let warm = parse_args(&args(&[
            "generate",
            path.to_str().unwrap(),
            "--out",
            &out_flag,
        ]))
        .unwrap();
        run(&warm).unwrap();

        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.json");
        let cli = parse_args(&args(&[
            "generate",
            path.to_str().unwrap(),
            "--out",
            &out_flag,
            "--trace",
            trace_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(cli.trace.as_deref(), Some(trace_path.as_path()));
        run(&cli).unwrap();

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        obs::json::validate(&trace).unwrap_or_else(|e| panic!("malformed trace JSON: {e}"));
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        // All eight pipeline stages appear as spans, even on a warm store.
        for stage in PipelineStage::ALL {
            assert!(
                trace.contains(&format!("\"name\":\"{}\"", stage.name())),
                "stage {} missing from trace",
                stage.name()
            );
        }
        // Spans nest: at least one span records a parent.
        assert!(trace.contains("\"parent\":"));
        // The root CLI span wraps the run.
        assert!(trace.contains("\"name\":\"generate\""));

        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        obs::json::validate(&metrics).unwrap_or_else(|e| panic!("malformed metrics JSON: {e}"));
        assert!(metrics.contains("\"counters\""));
        // The simulator ran, so its cycle histograms are in the snapshot.
        assert!(metrics.contains("sim.cycles.rnea_fwd"));
        assert!(metrics.contains("sim.pe_occupancy_pct"));
    }

    #[test]
    fn parses_serve_and_loadgen_commands() {
        let c = parse_args(&args(&[
            "serve",
            "zoo",
            "--port",
            "0",
            "--queue",
            "32",
            "--max-requests",
            "10",
        ]))
        .unwrap();
        assert_eq!(c.urdf, PathBuf::from("zoo"));
        match c.command {
            Command::Serve {
                port,
                engine,
                max_requests,
                ..
            } => {
                assert_eq!(port, 0);
                assert_eq!(engine.queue_capacity, 32);
                assert_eq!(max_requests, Some(10));
                // Lanes is the default backend.
                assert_eq!(engine.backend, roboshape::BackendKind::Lanes);
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&["serve", "zoo", "--backend", "scalar"])).unwrap();
        match c.command {
            Command::Serve { engine, .. } => {
                assert_eq!(engine.backend, roboshape::BackendKind::Scalar)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["serve", "zoo", "--backend", "gpu"])).is_err());

        let c = parse_args(&args(&[
            "loadgen", "zoo:iiwa", "--port", "9000", "--rate", "50", "--kind", "fk",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen { port, config, .. } => {
                assert_eq!(port, 9000);
                assert_eq!(
                    config.mode,
                    roboshape_serve::loadgen::LoadMode::Open { rate_hz: 50.0 }
                );
                assert_eq!(
                    config.workload,
                    roboshape_serve::loadgen::Workload::Step(
                        roboshape::KernelKind::ForwardKinematics
                    )
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&[
            "loadgen",
            "zoo:iiwa",
            "--port",
            "9000",
            "--workload",
            "rollout:4",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen { config, .. } => {
                assert_eq!(
                    config.workload,
                    roboshape_serve::loadgen::Workload::Rollout(4)
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&[
            "loadgen",
            "zoo:iiwa",
            "--port",
            "9000",
            "--workload",
            "mixed",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen { config, .. } => {
                assert_eq!(config.workload, roboshape_serve::loadgen::Workload::Mixed);
            }
            other => panic!("unexpected {other:?}"),
        }

        assert!(
            parse_args(&args(&["loadgen", "zoo"])).is_err(),
            "--port required"
        );
        assert!(parse_args(&args(&["loadgen", "zoo", "--port", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "zoo", "--port", "70000"])).is_err());
        assert!(parse_args(&args(&["loadgen", "zoo", "--port", "9", "--kind", "x"])).is_err());
        assert!(parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            "9",
            "--workload",
            "rollout:0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            "9",
            "--workload",
            "walk"
        ]))
        .is_err());
    }

    #[test]
    fn parses_resilience_flags() {
        let c = parse_args(&args(&[
            "serve",
            "zoo",
            "--chaos",
            "7:0.1",
            "--deadline-ms",
            "20",
        ]))
        .unwrap();
        match c.command {
            Command::Serve { engine, .. } => {
                let chaos = engine.chaos.unwrap();
                assert_eq!(chaos.seed, 7);
                assert!((chaos.crash - 0.1).abs() < 1e-12);
                assert_eq!(
                    engine.default_deadline,
                    Some(std::time::Duration::from_millis(20))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["serve", "zoo", "--chaos", "junk"])).is_err());

        let c = parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            "9",
            "--retries",
            "6",
            "--timeout-ms",
            "250",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen { config, .. } => {
                assert_eq!(config.retry.max_attempts, 6);
                assert_eq!(config.timeout, Some(std::time::Duration::from_millis(250)));
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&["health", "--port", "9000"])).unwrap();
        assert_eq!(c.command, Command::Health { port: 9000 });
        assert!(parse_args(&args(&["health"])).is_err(), "--port required");
    }

    #[test]
    fn parses_cluster_flags() {
        let c = parse_args(&args(&[
            "router",
            "--shards",
            "s0=7001,s1=127.0.0.1:7002",
            "--port",
            "0",
            "--max-requests",
            "5",
        ]))
        .unwrap();
        match c.command {
            Command::Router {
                shards,
                max_requests,
                port,
                ..
            } => {
                assert_eq!(port, 0);
                assert_eq!(max_requests, Some(5));
                assert_eq!(shards.len(), 2);
                assert_eq!(shards[0].name, "s0");
                assert_eq!(shards[0].addr.port(), 7001);
                assert_eq!(shards[1].addr.port(), 7002);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["router"])).is_err(), "--shards required");
        assert!(parse_args(&args(&["router", "--shards", "bad"])).is_err());
        assert!(parse_args(&args(&["router", "--shards", "s0=notaport"])).is_err());

        let c = parse_args(&args(&["serve", "zoo", "--shard", "s0", "--loops", "2"])).unwrap();
        match c.command {
            Command::Serve { server, .. } => {
                assert_eq!(server.shard_name, "s0");
                assert_eq!(server.loops, 2);
            }
            other => panic!("unexpected {other:?}"),
        }

        let c = parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            "9",
            "--cluster",
            "--seed",
            "9",
        ]))
        .unwrap();
        match c.command {
            Command::Loadgen {
                cluster, config, ..
            } => {
                assert!(cluster);
                assert_eq!(config.seed, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The CI cluster-smoke scenario in-process: two shard engines (via
    /// the library), a CLI router over them, and a CLI `loadgen
    /// --cluster` driving the router. Checks the cluster accounting line
    /// and the router exit summary.
    #[test]
    fn router_and_cluster_loadgen_round_trip_via_cli() {
        use roboshape_robots::{zoo, Zoo};
        use roboshape_serve::{Engine, EngineConfig, Shard};
        let mk_engine = || {
            let engine = Engine::new(EngineConfig::default());
            for which in Zoo::ALL {
                engine.register(which.name(), zoo(which));
            }
            engine
        };
        let s0 = Shard::start("s0", mk_engine(), ("127.0.0.1", 0)).unwrap();
        let s1 = Shard::start("s1", mk_engine(), ("127.0.0.1", 0)).unwrap();

        let dir = std::env::temp_dir().join("roboshape_cli_tests/cluster_smoke");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);

        let clients = 3usize;
        let requests = 4usize;
        let total = (clients * requests) as u64;
        let router_cli = parse_args(&args(&[
            "router",
            "--shards",
            &format!("s0={},s1={}", s0.port(), s1.port()),
            "--port",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--max-requests",
            &total.to_string(),
        ]))
        .unwrap();
        let router = std::thread::spawn(move || run(&router_cli));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(std::time::Instant::now() < deadline, "router never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let health_cli = parse_args(&args(&["health", "--port", &port.to_string()])).unwrap();
        let health = run(&health_cli).unwrap();
        assert!(health.contains("ready=true"), "{health}");

        let loadgen_cli = parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            &port.to_string(),
            "--clients",
            &clients.to_string(),
            "--requests",
            &requests.to_string(),
            "--cluster",
        ]))
        .unwrap();
        let report = run(&loadgen_cli).unwrap();
        assert!(report.contains(&format!("ok={total}")), "{report}");
        assert!(report.contains("cluster: rerouted=0 lost=0"), "{report}");

        let summary = router.join().unwrap().unwrap();
        assert!(summary.contains("routed"), "{summary}");
        assert!(summary.contains("failovers=0"), "{summary}");

        s0.shutdown();
        s1.shutdown();
    }

    #[test]
    fn unknown_zoo_spec_is_a_clean_error() {
        let cli = parse_args(&args(&["serve", "zoo:atlas", "--max-requests", "1"])).unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.message.contains("unknown zoo robot"), "{}", err.message);
    }

    /// The CI smoke scenario in-process: serve the full zoo with
    /// `--max-requests`, drive it with the loadgen command, and check
    /// the report, the exit summary, and the metrics snapshot.
    #[test]
    fn serve_and_loadgen_round_trip_via_cli() {
        let dir = std::env::temp_dir().join("roboshape_cli_tests/serve_smoke");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let metrics_file = dir.join("serve_metrics.json");
        let _ = std::fs::remove_file(&port_file);

        let clients = 4usize;
        let requests = 3usize;
        let total = (clients * requests) as u64;
        let serve_cli = parse_args(&args(&[
            "serve",
            "zoo",
            "--port",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--max-requests",
            &total.to_string(),
            "--metrics",
            metrics_file.to_str().unwrap(),
        ]))
        .unwrap();
        let server = std::thread::spawn(move || run(&serve_cli));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let health_cli = parse_args(&args(&["health", "--port", &port.to_string()])).unwrap();
        let health = run(&health_cli).unwrap();
        assert!(health.contains("ready=true"), "{health}");
        assert!(health.contains("circuit=closed"), "{health}");
        assert!(health.contains("iiwa"), "{health}");

        let loadgen_cli = parse_args(&args(&[
            "loadgen",
            "zoo",
            "--port",
            &port.to_string(),
            "--clients",
            &clients.to_string(),
            "--requests",
            &requests.to_string(),
        ]))
        .unwrap();
        let report = run(&loadgen_cli).unwrap();
        assert!(report.contains(&format!("ok={total}")), "{report}");
        assert!(report.contains("shed=0"), "{report}");
        assert!(report.contains("throughput:"), "{report}");

        let summary = server.join().unwrap().unwrap();
        assert!(
            summary.contains(&format!("served {total} requests")),
            "{summary}"
        );
        assert!(summary.contains("shed=0"), "{summary}");

        let metrics = std::fs::read_to_string(&metrics_file).unwrap();
        obs::json::validate(&metrics).unwrap_or_else(|e| panic!("malformed metrics JSON: {e}"));
        assert!(metrics.contains("serve.requests"), "{metrics}");
        assert!(metrics.contains("serve.latency_us"), "{metrics}");
    }

    /// The CI chaos-smoke scenario in-process: serve one robot with
    /// deterministic fault injection, drive it with a retrying loadgen,
    /// and check that no request is lost and the resilience counters
    /// appear in the metrics snapshot.
    #[test]
    fn chaos_serve_loses_nothing_with_retries_via_cli() {
        let dir = std::env::temp_dir().join("roboshape_cli_tests/chaos_smoke");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let metrics_file = dir.join("chaos_metrics.json");
        let _ = std::fs::remove_file(&port_file);

        let clients = 2usize;
        let requests = 12usize;
        let total = (clients * requests) as u64;
        let serve_cli = parse_args(&args(&[
            "serve",
            "zoo:iiwa",
            "--port",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--chaos",
            "7:0.2",
            "--max-requests",
            &total.to_string(),
            "--metrics",
            metrics_file.to_str().unwrap(),
        ]))
        .unwrap();
        let server = std::thread::spawn(move || run(&serve_cli));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let loadgen_cli = parse_args(&args(&[
            "loadgen",
            "zoo:iiwa",
            "--port",
            &port.to_string(),
            "--clients",
            &clients.to_string(),
            "--requests",
            &requests.to_string(),
            "--retries",
            "6",
            "--timeout-ms",
            "2000",
        ]))
        .unwrap();
        let report = run(&loadgen_cli).unwrap();
        // The invariant under chaos is accounting, not perfection: every
        // request ends in a counted outcome.
        assert!(report.contains("lost=0"), "{report}");

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("resilience:"), "{summary}");

        let metrics = std::fs::read_to_string(&metrics_file).unwrap();
        obs::json::validate(&metrics).unwrap_or_else(|e| panic!("malformed metrics JSON: {e}"));
        for name in [
            "serve.fault.worker_crash",
            "serve.fault.frame_corrupt",
            "serve.circuit.trips",
            "serve.circuit.open_robots",
            "serve.retry.attempts",
        ] {
            assert!(metrics.contains(name), "missing {name} in {metrics}");
        }
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let cli = parse_args(&args(&["info", "/nonexistent/robot.urdf"])).unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.message.contains("cannot read"));
    }

    #[test]
    fn parses_bench_and_bundle_commands() {
        // Everything after `--` is perfbench's, even a flag the CLI
        // itself takes (`--trace`).
        let c = parse_args(&args(&[
            "bench",
            "ab",
            "HEAD~1",
            "HEAD",
            "--pairs",
            "4",
            "--",
            "--workload",
            "hot",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            c.command,
            Command::BenchAb {
                parent: "HEAD~1".into(),
                change: "HEAD".into(),
                pairs: 4,
                perfbench_args: args(&["--workload", "hot", "--trace", "1"]),
            }
        );
        assert_eq!(c.trace, None);
        let c = parse_args(&args(&["bench", "ab", "a", "b"])).unwrap();
        assert!(
            matches!(c.command, Command::BenchAb { pairs: 10, ref perfbench_args, .. } if perfbench_args.is_empty())
        );
        assert!(
            parse_args(&args(&["bench", "ab", "a"])).is_err(),
            "two revisions"
        );
        assert!(parse_args(&args(&["bench", "ab", "a", "b", "--seconds", "3"])).is_err());
        assert!(
            parse_args(&args(&["info", "r.urdf", "--", "x"])).is_err(),
            "only bench ab takes `--`"
        );

        let c = parse_args(&args(&[
            "bundle", "export", "--out", "bdl", "--n", "12", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(
            c.command,
            Command::BundleExport {
                out: PathBuf::from("bdl"),
                zoo_n: 12,
                zoo_seed: 7,
            }
        );

        let c = parse_args(&args(&["bundle", "verify", "some/dir"])).unwrap();
        assert_eq!(
            c.command,
            Command::BundleVerify {
                dir: PathBuf::from("some/dir"),
            }
        );
        let c = parse_args(&args(&["bundle", "verify"])).unwrap();
        assert_eq!(
            c.command,
            Command::BundleVerify {
                dir: PathBuf::from("bench/baselines/example-bundle"),
            }
        );

        assert!(parse_args(&args(&["bench"])).is_err(), "action required");
        assert!(parse_args(&args(&["bundle"])).is_err(), "action required");
        assert!(parse_args(&args(&["bench", "frobnicate"])).is_err());
        assert!(parse_args(&args(&["bundle", "frobnicate"])).is_err());
    }

    /// The full reproducibility loop in-process: export a validation
    /// bundle at a small pinned population, then verify it on the same
    /// machine. Every snapshot must match byte-exactly and both probe
    /// invariants must hold; a tampered snapshot must flip the verdict.
    #[test]
    fn bundle_export_verify_round_trip_via_cli() {
        let out_dir = std::env::temp_dir().join("roboshape_cli_tests/bundle");
        let _ = std::fs::remove_dir_all(&out_dir);

        let export = parse_args(&args(&[
            "bundle",
            "export",
            "--out",
            out_dir.to_str().unwrap(),
            "--n",
            "12",
            "--seed",
            "7",
        ]))
        .unwrap();
        let out = run(&export).unwrap();
        assert!(out.contains("wrote bundle (10 snapshots"), "{out}");

        let verify = parse_args(&args(&["bundle", "verify", out_dir.to_str().unwrap()])).unwrap();
        let report = run(&verify).unwrap();
        assert!(report.contains("PASS"), "{report}");
        assert!(report.contains("probe.lost=0"), "{report}");

        // Tamper with one expected snapshot: verify must fail.
        let victim = out_dir.join("expected/table1.txt");
        let mut text = std::fs::read_to_string(&victim).unwrap();
        text.push_str("tampered\n");
        std::fs::write(&victim, text).unwrap();
        let err = run(&verify).unwrap_err();
        assert!(err.message.contains("FAIL"), "{}", err.message);
    }
}
