//! Per-layer metrics of the traced run. Each layer's public functions
//! are called on the workload's own robots and frames inside spans this
//! file records; each metric is its spans' mean cost per operation.
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | urdf | `urdf.parse_us` | no end-to-end metric: no workload parses URDF |
//! | pipeline | `pipeline.*` | `setup_s` on fleet and hot |
//! | taskgraph, blocksparse | `taskgraph.makespan_us`, `blocksparse.matmul_latency_ns` | the `dse.*` sweep rates |
//! | dse | `dse.*` | no end-to-end metric: no workload sweeps |
//! | sim | `sim.*` | `p50_us` on fleet, `p50_us` and `p90_us` on hot; `setup_s` |
//! | serve::workload | `workload.advance_ns` | no end-to-end metric: no workload rolls out |
//! | serve::proto | `proto.*` | `p50_us` on fleet |
//! | serve::engine, queue, server, net | `engine.*`, `net.*`, `tcp.p99_us` (in `serving.rs`) | `p50_us` and `p90_us` on hot and fleet |
//!
//! The designer flow and the rollout integrator are timed here although
//! no gated workload runs them, so their layers still have figures.

use crate::flow::{check_oracle, compile, flow_pass, oracle_sample};
use crate::inputs::{joint_state, Rng};
use crate::loadgen::Traffic;
use crate::oracle::direct_payload;
use crate::report::{Metric, Tally, Tracer};
use roboshape::Framework;
use roboshape_arch::KernelKind;
use roboshape_blocksparse::{block_matmul_latency, MatmulLatencyModel};
use roboshape_pipeline::{PatternKind, Pipeline};
use roboshape_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, RequestFrame, ResponseFrame,
};
use roboshape_serve::workload::advance;
use roboshape_sim::{BackendKind, CompiledProgram, SimScratch};
use roboshape_taskgraph::{schedule_makespan, SchedulerConfig};
use roboshape_urdf::{parse_urdf, write_urdf};
use std::hint::black_box;

const GRAD: KernelKind = KernelKind::DynamicsGradient;
/// Operations behind each cheap per-layer figure, spread over the robots.
const OPS: usize = 512;
/// Operations behind each figure that needs a cold pipeline or a fresh
/// compile.
const COLD_OPS: usize = 64;
/// Request frames whose wire encoding is timed.
const FRAMES: usize = 256;
/// Times the frame set is encoded and decoded per figure.
const FRAME_ROUNDS: usize = 16;
const TAG_SIM: u64 = 0x51;
const TAG_FRAMES: u64 = 0xF4;

/// Repetitions per robot that give at least `ops` operations.
fn reps(ops: usize, robots: usize) -> usize {
    ops.div_ceil(robots.max(1))
}

fn us(tracer: &Tracer, span: &str) -> f64 {
    tracer.mean_ns(span) / 1e3
}

pub fn measure(
    traffic: &Traffic,
    seed: u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let robots = traffic.robots;
    let texts: Vec<String> = robots.iter().map(|r| write_urdf(&r.model)).collect();
    // Every robot registered through one shared pipeline, as the engine
    // does: its hit ratio, and warm artifacts for the layers below.
    let warm = Pipeline::new();
    let knobs: Vec<_> = robots
        .iter()
        .map(|r| compile(&Framework::from_model(r.model.clone()).with_pipeline(warm.clone())))
        .collect();
    let registered = warm.observer().report();
    let designs: Vec<_> = robots
        .iter()
        .zip(&knobs)
        .map(|(r, k)| warm.design(r.model.topology(), *k, GRAD))
        .collect();
    let mut metrics = Vec::new();

    let mut parsed = true;
    for _ in 0..reps(OPS, robots.len()) {
        for text in &texts {
            parsed &= tracer
                .span("urdf.parse", || parse_urdf(black_box(text)))
                .is_ok();
        }
    }
    tally.check(parsed, || "a written URDF failed to parse".to_string());
    metrics.push(Metric::new("urdf.parse_us", us(tracer, "urdf.parse"), "us"));

    // The stage accessors, called in dataflow order on a cold pipeline.
    for _ in 0..reps(COLD_OPS, robots.len()) {
        for (robot, k) in robots.iter().zip(&knobs) {
            let cold = Pipeline::new();
            let topo = robot.model.topology();
            let n = topo.len();
            let cfg = SchedulerConfig::with_pes(k.pe_fwd, k.pe_bwd);
            let units = k.matmul_units.resolve(n);
            black_box(tracer.span("pipeline.ir", || cold.task_graph(topo, GRAD)));
            black_box(tracer.span("pipeline.schedules", || cold.schedule_for(topo, GRAD, &cfg)));
            black_box(tracer.span("pipeline.plans", || {
                cold.block_plan(topo, PatternKind::InverseMass, 2 * n, k.block_size, units)
            }));
            black_box(tracer.span("pipeline.design", || cold.design(topo, *k, GRAD)));
            black_box(tracer.span("pipeline.programs", || {
                cold.compiled_program_for(topo, *k, GRAD, BackendKind::Lanes)
            }));
        }
    }
    let lookups = (registered.hits() + registered.misses()).max(1);
    metrics.push(Metric::new(
        "pipeline.hit_ratio",
        registered.hits() as f64 / lookups as f64,
        "ratio",
    ));

    let latency_model = MatmulLatencyModel::default();
    for _ in 0..reps(OPS, robots.len()) {
        for (robot, k) in robots.iter().zip(&knobs) {
            let topo = robot.model.topology();
            let n = topo.len();
            let graph = warm.task_graph(topo, GRAD);
            let cfg = SchedulerConfig::with_pes(k.pe_fwd, k.pe_bwd);
            black_box(tracer.span("taskgraph.makespan", || schedule_makespan(&graph, &cfg)));
            let pattern = warm.pattern(topo, PatternKind::InverseMass);
            let units = k.matmul_units.resolve(n);
            black_box(tracer.span("blocksparse.matmul_latency", || {
                block_matmul_latency(&pattern, 2 * n, k.block_size, units, &latency_model)
            }));
        }
    }

    // Two passes of the designer flow over the workload's robots: the
    // second must repeat the first's model cycles and fragment misses.
    let sample = oracle_sample(robots, seed);
    let pass = flow_pass(&texts, &sample, tally);
    check_oracle(&texts, &pass, tally);
    let again = flow_pass(&texts, &[], tally);
    tally.check(
        (again.cycles_sum, again.frag_misses) == (pass.cycles_sum, pass.frag_misses),
        || "a second flow pass changed model cycles or fragment misses".to_string(),
    );
    let fragments = (pass.frag_hits + pass.frag_misses).max(1);
    metrics.extend([
        Metric::new(
            "dse.sweep_points_per_s",
            pass.cold_points as f64 / pass.cold_s,
            "1/s",
        ),
        Metric::new(
            "dse.resweep_points_per_s",
            pass.warm_points as f64 / pass.warm_s,
            "1/s",
        ),
        Metric::new(
            "dse.pruned_points_per_s",
            pass.grid_points as f64 / pass.pruned_s,
            "1/s",
        ),
        Metric::new(
            "dse.frag_hit_ratio",
            pass.frag_hits as f64 / fragments as f64,
            "ratio",
        ),
        Metric::new("dse.frag_misses", pass.frag_misses as f64, "count"),
        Metric::new(
            "dse.pruned_eval_ratio",
            pass.evaluated_points as f64 / pass.grid_points.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "dse.frontier_us",
            pass.frontier_s * 1e6 / robots.len() as f64,
            "us",
        ),
        Metric::new(
            "dse.model_cycles",
            pass.cycles_sum as f64 / robots.len() as f64,
            "cycles",
        ),
    ]);

    // The simulator: cold compiles, then warm scalar and lane executions
    // on each robot's ∇FD design, and the rollout integrator.
    let evals = reps(OPS, robots.len());
    for (index, (robot, design)) in robots.iter().zip(&designs).enumerate() {
        let model = &robot.model;
        for _ in 0..reps(COLD_OPS, robots.len()) {
            black_box(tracer.span("sim.compile", || {
                CompiledProgram::compile_for(design, BackendKind::Lanes)
            }));
        }
        let scalar = CompiledProgram::compile_for(design, BackendKind::Scalar);
        let lanes = CompiledProgram::compile_for(design, BackendKind::Lanes);
        let mut rng = Rng::stream(seed ^ TAG_SIM, index as u64);
        let inputs: Vec<_> = (0..8)
            .map(|_| joint_state(&mut rng, model.num_links()))
            .collect();
        let mut scratch = SimScratch::new();
        let (q, qd, tau) = &inputs[0];
        let Ok(mut out) = scalar.execute_gradient(model, &mut scratch, q, qd, tau) else {
            tally.check(false, || {
                format!("{}: a scalar evaluation failed", robot.name)
            });
            continue;
        };
        let ok = tracer.span_n("sim.scalar_eval", evals as u64, || {
            (0..evals).all(|e| {
                let (q, qd, tau) = &inputs[e % inputs.len()];
                scalar
                    .execute_gradient_into(model, &mut scratch, q, qd, tau, &mut out)
                    .is_ok()
            })
        });
        tally.check(ok, || format!("{}: a scalar evaluation failed", robot.name));
        for (span, batch) in [("sim.lanes_b4", 4), ("sim.lanes_b8", 8)] {
            let mut lane_scratch = SimScratch::new();
            let mut outs = Vec::new();
            let batches = evals.div_ceil(batch);
            let warmed = lanes
                .execute_batch_into(model, &mut lane_scratch, &inputs[..batch], &mut outs)
                .is_ok();
            let ok = tracer.span_n(span, (batches * batch) as u64, || {
                (0..batches).all(|_| {
                    lanes
                        .execute_batch_into(model, &mut lane_scratch, &inputs[..batch], &mut outs)
                        .is_ok()
                })
            });
            tally.check(warmed && ok, || {
                format!("{}: a lane batch of {batch} failed", robot.name)
            });
        }
        let (mut q, mut qd) = (inputs[0].0.clone(), inputs[0].1.clone());
        let tau = &inputs[0].2;
        tracer.span_n("workload.advance", evals as u64, || {
            for _ in 0..evals {
                advance(model, &mut q, &mut qd, tau);
            }
        });
        tally.check(q.iter().chain(&qd).all(|v| v.is_finite()), || {
            format!("{}: the integrated state diverged", robot.name)
        });
    }

    // The wire codec on the workload's own request frames, and on
    // response frames carrying what direct simulation returns for them.
    let frame_seed = Rng::stream(seed, TAG_FRAMES).next_u64();
    let mut requests = Vec::with_capacity(FRAMES);
    let mut responses = Vec::with_capacity(FRAMES);
    for i in 0..FRAMES {
        let (r, req) = traffic.request(frame_seed, i);
        let id = i as u64 + 1;
        match direct_payload(&robots[r].model, &designs[r], &req) {
            Ok(payload) => responses.push(ResponseFrame::direct(id, Ok(payload))),
            Err(e) => tally.check(false, || format!("{}: {e}", robots[r].name)),
        }
        requests.push(RequestFrame { id, req });
    }
    let encoded: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
    let replies: Vec<Vec<u8>> = responses.iter().map(encode_response).collect();
    let round_trips = encoded
        .iter()
        .zip(&requests)
        .all(|(body, frame)| decode_request(body).as_ref() == Ok(frame))
        && replies
            .iter()
            .zip(&responses)
            .all(|(body, frame)| decode_response(body).as_ref() == Ok(frame));
    tally.check(round_trips, || {
        "a frame did not survive the wire codec".to_string()
    });
    let request_ops = (requests.len() * FRAME_ROUNDS) as u64;
    let response_ops = (responses.len() * FRAME_ROUNDS) as u64;
    tracer.span_n("proto.encode_req", request_ops, || {
        for _ in 0..FRAME_ROUNDS {
            for frame in &requests {
                black_box(encode_request(black_box(frame)));
            }
        }
    });
    tracer.span_n("proto.decode_req", request_ops, || {
        for _ in 0..FRAME_ROUNDS {
            for body in &encoded {
                let _ = black_box(decode_request(black_box(body)));
            }
        }
    });
    tracer.span_n("proto.encode_resp", response_ops, || {
        for _ in 0..FRAME_ROUNDS {
            for frame in &responses {
                black_box(encode_response(black_box(frame)));
            }
        }
    });
    tracer.span_n("proto.decode_resp", response_ops, || {
        for _ in 0..FRAME_ROUNDS {
            for body in &replies {
                let _ = black_box(decode_response(black_box(body)));
            }
        }
    });

    for (name, span, per_us) in [
        ("pipeline.ir_us", "pipeline.ir", true),
        ("pipeline.schedules_us", "pipeline.schedules", true),
        ("pipeline.plans_us", "pipeline.plans", true),
        ("pipeline.design_us", "pipeline.design", true),
        ("pipeline.programs_us", "pipeline.programs", true),
        ("taskgraph.makespan_us", "taskgraph.makespan", true),
        (
            "blocksparse.matmul_latency_ns",
            "blocksparse.matmul_latency",
            false,
        ),
        ("sim.compile_us", "sim.compile", true),
        ("sim.scalar_eval_us", "sim.scalar_eval", true),
        ("sim.lanes_b4_us", "sim.lanes_b4", true),
        ("sim.lanes_b8_us", "sim.lanes_b8", true),
        ("workload.advance_ns", "workload.advance", false),
        ("proto.encode_req_ns", "proto.encode_req", false),
        ("proto.decode_req_ns", "proto.decode_req", false),
        ("proto.encode_resp_ns", "proto.encode_resp", false),
        ("proto.decode_resp_ns", "proto.decode_resp", false),
    ] {
        let metric = if per_us {
            Metric::new(name, us(tracer, span), "us")
        } else {
            Metric::new(name, tracer.mean_ns(span), "ns")
        };
        metrics.push(metric);
    }
    metrics
}
