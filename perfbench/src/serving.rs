//! A workload's run: set-up, the fixed-rate latency run, the traced
//! per-layer run and the bit-exactness checks.

use crate::inputs::{joint_state, Rng, Robot};
use crate::layers;
use crate::loadgen::{run_engine, run_tcp, RunStats, Schedule, Traffic};
use crate::oracle::{direct_payload, same_bits};
use crate::report::{cpu_s, median, Metric, Tally, Tracer};
use crate::workloads::{self, ServingSpec};
use crate::Args;
use roboshape_arch::KernelKind;
use roboshape_pipeline::Pipeline;
use roboshape_serve::{Engine, EngineConfig, ServePayload, ServeRequest, Server, ServerOptions};
use std::net::SocketAddr;

/// Fresh engine constructions per run; `setup_s` is their median. Half
/// run before the latency measurement and half after it, so that one
/// episode of interference from other tenants cannot cover them all.
const SETUP_REPS: usize = 16;
/// Completions each latency sample set must reach, so that its p99 has
/// at least ten samples beyond it.
const MIN_COMPLETIONS: u64 = 1_000;
/// Every this-many-th response is checked bit for bit against direct
/// simulation.
const SAMPLE_EVERY: usize = 61;
/// Unmeasured traffic at the fixed rate ahead of the measured runs.
const WARMUP_SECONDS: f64 = 0.5;
/// Generator lateness (p99) beyond which a run warns that the machine,
/// rather than the program, may have set its figures.
const LATE_P99_WARN_US: f64 = 2_000.0;

// Stream tags: each phase draws its own schedule from the seed.
const TAG_WARMUP: u64 = 1;
const TAG_FIXED: u64 = 2;
const TAG_READY: u64 = 3;

fn phase_seed(seed: u64, tag: u64) -> u64 {
    Rng::stream(seed, tag).next_u64()
}

/// Seconds at `rate` that yield `MIN_COMPLETIONS`, with a margin.
fn min_seconds(rate: f64) -> f64 {
    1.2 * MIN_COMPLETIONS as f64 / rate
}

fn generator_error(e: std::io::Error) -> String {
    format!("load generator: {e}")
}

/// A running server and the load it is offered.
struct Target<'a> {
    engine: &'a Engine,
    addr: SocketAddr,
    traffic: &'a Traffic<'a>,
    spec: &'a ServingSpec,
}

pub fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let spec = workloads::serving(args.workload);
    let robots = workloads::robots(args.workload, args.seed);
    let traffic = Traffic {
        robots: &robots,
        deadline: spec.deadline,
    };
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS / 2 {
        timed_setup(&robots, args.seed, &mut tally, &mut setup_s).shutdown();
    }
    let engine = timed_setup(&robots, args.seed, &mut tally, &mut setup_s);
    let server = start_server(&engine)?;
    let target = Target {
        engine: &engine,
        addr: server.addr(),
        traffic: &traffic,
        spec: &spec,
    };
    let measured = measure(&target, args, &mut tally);
    server.shutdown();
    let mut metrics = measured?;
    if !args.trace {
        while setup_s.len() < SETUP_REPS {
            timed_setup(&robots, args.seed, &mut tally, &mut setup_s).shutdown();
        }
        metrics.insert(0, Metric::new("setup_s", median(&setup_s), "s"));
    }
    Ok((tally, metrics))
}

/// [`ready_engine`], its CPU time (see [`cpu_s`]) pushed onto `setup_s`.
fn timed_setup(robots: &[Robot], seed: u64, tally: &mut Tally, setup_s: &mut Vec<f64>) -> Engine {
    let start = cpu_s();
    let engine = ready_engine(robots, seed, tally);
    setup_s.push(cpu_s() - start);
    engine
}

fn measure(target: &Target, args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    warm_up(target, args.seed)?;
    let seconds = args.seconds as f64;
    if args.trace {
        let mut tracer = Tracer::default();
        let mut metrics = serve_layers(target, args.seed, seconds, tally)?;
        metrics.extend(layers::measure(
            target.traffic,
            args.seed,
            tally,
            &mut tracer,
        ));
        metrics.push(Metric::new(
            "trace.overhead_pct",
            tracer.overhead_pct(),
            "%",
        ));
        tracer.write_summary();
        return Ok(metrics);
    }
    let spec = target.spec;
    let fixed_seconds = (seconds - WARMUP_SECONDS).max(min_seconds(spec.rate));
    let sched = Schedule::open_loop(
        phase_seed(args.seed, TAG_FIXED),
        spec.rate,
        fixed_seconds,
        spec.burst,
    );
    let fixed =
        run_tcp(target.addr, target.traffic, &sched, SAMPLE_EVERY).map_err(generator_error)?;
    account(tally, &fixed);
    check_samples(target, &sched, &fixed.samples, tally);
    Ok(vec![
        Metric::new("p50_us", fixed.p50_us(), "us"),
        Metric::new("p90_us", fixed.p90_us(), "us"),
    ])
}

/// Serve-layer metrics of the traced run. One schedule at the fixed rate
/// is played twice: over TCP, and straight into the engine through
/// `Engine::submit`. The wire's share is the TCP latency minus the
/// in-process latency on the same schedule.
fn serve_layers(
    target: &Target,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let spec = target.spec;
    let phase_seconds = (seconds / 3.0).max(min_seconds(spec.rate));
    let sched = Schedule::open_loop(
        phase_seed(seed, TAG_FIXED),
        spec.rate,
        phase_seconds,
        spec.burst,
    );
    let plain =
        run_tcp(target.addr, target.traffic, &sched, SAMPLE_EVERY).map_err(generator_error)?;
    let before = target.engine.stats();
    let local = run_engine(target.engine, target.traffic, &sched);
    let after = target.engine.stats();
    for run in [&plain, &local] {
        account(tally, run);
    }
    check_samples(target, &sched, &plain.samples, tally);
    let batches = after.batches.saturating_sub(before.batches).max(1) as f64;
    let completed = after.completed.saturating_sub(before.completed) as f64;
    let sent = local.sent.max(1) as f64;
    Ok(vec![
        Metric::new("engine.p50_us", local.p50_us(), "us"),
        Metric::new("engine.p99_us", local.p99_us(), "us"),
        Metric::new("engine.mean_batch", completed / batches, "requests"),
        Metric::new(
            "engine.largest_batch",
            after.largest_batch as f64,
            "requests",
        ),
        Metric::new("engine.shed_frac", local.shed as f64 / sent, "ratio"),
        Metric::new(
            "engine.deadline_frac",
            local.deadline as f64 / sent,
            "ratio",
        ),
        Metric::new("net.p50_us", plain.p50_us() - local.p50_us(), "us"),
        Metric::new("net.p99_us", plain.p99_us() - local.p99_us(), "us"),
        Metric::new("tcp.p99_us", plain.p99_us(), "us"),
        Metric::new("loadgen.late_p99_us", plain.late_p99_us(), "us"),
    ])
}

/// From a fresh `Pipeline::new()` to an engine ready to serve: every
/// robot registered, then one warm-up ∇FD request per worker so that each
/// worker's arenas are bound before the first measured request.
fn ready_engine(robots: &[Robot], seed: u64, tally: &mut Tally) -> Engine {
    let config = EngineConfig::default();
    let engine = Engine::with_pipeline(config, Pipeline::new());
    for robot in robots {
        engine.register(robot.name.clone(), robot.model.clone());
    }
    let mut rng = Rng::stream(seed, TAG_READY);
    let mut tickets = Vec::with_capacity(robots.len() * config.workers_per_robot);
    for robot in robots {
        for _ in 0..config.workers_per_robot {
            let (q, qd, tau) = joint_state(&mut rng, robot.model.num_links());
            tickets.push(engine.submit(ServeRequest::gradient(robot.name.clone(), q, qd, tau)));
        }
    }
    for ticket in tickets {
        let ok = matches!(ticket.map(|t| t.wait()), Ok(Ok(_)));
        tally.check(ok, || "a warm-up request failed".to_string());
    }
    engine
}

/// Fronts `engine` with a TCP server on an ephemeral loopback port; on
/// failure the engine is shut down.
fn start_server(engine: &Engine) -> Result<Server, String> {
    Server::start_with(engine.clone(), "127.0.0.1:0", ServerOptions::default()).map_err(|e| {
        engine.shutdown();
        format!("starting the server: {e}")
    })
}

/// Unmeasured traffic at the fixed rate: connections, caches and arenas
/// settle before anything is timed.
fn warm_up(target: &Target, seed: u64) -> Result<(), String> {
    let spec = target.spec;
    let sched = Schedule::open_loop(
        phase_seed(seed, TAG_WARMUP),
        spec.rate,
        WARMUP_SECONDS,
        spec.burst,
    );
    run_tcp(target.addr, target.traffic, &sched, 0).map_err(generator_error)?;
    Ok(())
}

/// Counts a run at a fixed offered rate: each request is an attempted
/// operation, and each shed, deadline miss, transport error or lost
/// response a failed one. The run is also invalid if too few requests
/// completed for a p99. A late generator is reported, not failed: each
/// latency runs from its due time, so lateness already counts against
/// the figures instead of hiding queueing.
fn account(tally: &mut Tally, run: &RunStats) {
    tally.attempted += run.sent;
    tally.failed += run.failed();
    if run.failed() > 0 {
        eprintln!(
            "perfbench: {} of {} requests failed (shed {}, deadline {}, errors {}, lost {})",
            run.failed(),
            run.sent,
            run.shed,
            run.deadline,
            run.errors,
            run.lost
        );
    }
    let late = run.late_p99_us();
    if late > LATE_P99_WARN_US {
        eprintln!("perfbench: the generator ran late: p99 lateness {late:.0} us");
    }
    tally.check(run.ok >= MIN_COMPLETIONS, || {
        format!("only {} requests completed", run.ok)
    });
}

/// Each sampled payload must equal, bit for bit, direct simulation on
/// the design the engine serves the robot with.
fn check_samples(
    target: &Target,
    sched: &Schedule,
    samples: &[(usize, ServePayload)],
    tally: &mut Tally,
) {
    tally.check(!samples.is_empty(), || {
        "no response was sampled".to_string()
    });
    for (i, served) in samples {
        let (r, req) = target.traffic.request(sched.seed, *i);
        let robot = &target.traffic.robots[r];
        let expected = target
            .engine
            .design_for(&robot.name, KernelKind::DynamicsGradient)
            .and_then(|design| direct_payload(&robot.model, &design, &req).ok());
        tally.check(expected.is_some_and(|e| same_bits(served, &e)), || {
            format!(
                "{}: response {i} differs from direct simulation",
                robot.name
            )
        });
    }
}
