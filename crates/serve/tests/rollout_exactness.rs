//! Bit-exactness pin for trajectory workloads (ISSUE satellite): a
//! `Rollout { steps: N }` request answered by one worker dispatch must
//! be bit-identical — every f64, every cycle count — to N sequential
//! single-step ∇FD requests with the state fed forward client-side
//! through the same shared integrator
//! ([`roboshape_serve::workload::advance`]). Pinned for the paper's zoo
//! robots *and* generated `roboshape-zoo` morphologies, on both
//! execution backends.

use proptest::prelude::*;
use roboshape_robots::{zoo, Zoo};
use roboshape_serve::{Engine, EngineConfig, ServePayload, ServeRequest};
use roboshape_sim::BackendKind;
use roboshape_urdf::RobotModel;

/// One engine per (robot, backend): run the rollout ticket and the
/// manual step-by-step reference against the same warmed artifact
/// store, then compare bit-for-bit.
fn rollout_equals_sequential(name: &str, model: &RobotModel, backend: BackendKind, steps: u32) {
    let engine = Engine::new(EngineConfig {
        backend,
        ..EngineConfig::default()
    });
    engine.register(name, model.clone());

    let n = model.num_links();
    let (q0, qd0, tau) = roboshape_serve::loadgen::request_inputs(n, 0xC0FFEE ^ steps as u64);

    let ticket = engine
        .submit(ServeRequest::rollout(
            name,
            q0.clone(),
            qd0.clone(),
            tau.clone(),
            steps,
        ))
        .expect("submit rollout");
    let rolled = ticket.wait().expect("rollout payload");

    // Reference: N single-step tickets, state advanced between steps by
    // the exact integrator the worker uses.
    let (mut q, mut qd) = (q0, qd0);
    let mut cycles_sum = 0u64;
    let mut last = None;
    for _ in 0..steps {
        let t = engine
            .submit(ServeRequest::gradient(
                name,
                q.clone(),
                qd.clone(),
                tau.clone(),
            ))
            .expect("submit step");
        let step = t.wait().expect("step payload");
        cycles_sum += step.cycles();
        roboshape_serve::workload::advance(model, &mut q, &mut qd, &tau);
        last = Some(step);
    }
    engine.shutdown();

    let (
        ServePayload::Rollout {
            steps: got_steps,
            q_final,
            qd_final,
            tau: roll_tau,
            dqdd_dq,
            dqdd_dqd,
            cycles,
        },
        ServePayload::Gradient {
            tau: step_tau,
            dqdd_dq: step_dq,
            dqdd_dqd: step_dqd,
            ..
        },
    ) = (rolled, last.expect("steps >= 1"))
    else {
        panic!("wrong payload shapes");
    };

    assert_eq!(got_steps, steps, "{name}/{backend:?}");
    assert_eq!(cycles, cycles_sum, "{name}/{backend:?}: cycle totals");
    let bitwise = |label: &str, a: &[f64], b: &[f64]| {
        assert_eq!(a.len(), b.len(), "{name}/{backend:?}: {label} length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}/{backend:?}: {label}[{i}] {x} vs {y}"
            );
        }
    };
    bitwise("q_final", &q_final, &q);
    bitwise("qd_final", &qd_final, &qd);
    bitwise("tau", &roll_tau, &step_tau);
    bitwise("dqdd_dq", &dqdd_dq, &step_dq);
    bitwise("dqdd_dqd", &dqdd_dqd, &step_dqd);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Zoo robots: a rollout ticket is bit-identical to its unrolled
    /// single-step equivalent on both backends.
    #[test]
    fn rollout_is_bit_identical_for_zoo_robots(steps_raw in 2u64..6) {
        let steps = steps_raw as u32;
        for which in [Zoo::Iiwa, Zoo::Hyq, Zoo::Baxter] {
            let model = zoo(which);
            for backend in [BackendKind::Scalar, BackendKind::Lanes] {
                rollout_equals_sequential(which.name(), &model, backend, steps);
            }
        }
    }

    /// Generated morphologies: the same pin holds for every
    /// `roboshape-zoo` family, so trajectory serving is exact on robots
    /// nobody hand-tuned.
    #[test]
    fn rollout_is_bit_identical_for_generated_robots(seed in 0u64..1_000_000, steps_raw in 2u64..5) {
        let steps = steps_raw as u32;
        let members = roboshape_zoo::population(seed, 4, &roboshape_zoo::Family::ALL)
            .expect("population");
        for member in &members {
            for backend in [BackendKind::Scalar, BackendKind::Lanes] {
                rollout_equals_sequential(
                    member.model.name(),
                    &member.model,
                    backend,
                    steps,
                );
            }
        }
    }
}

/// Trajectory tickets over loopback TCP: a server hosting a generated
/// population answers every rollout at horizons 1, 4 and 16, with no
/// ticket lost and none shed, errored or past a deadline.
#[test]
fn rollout_serving_over_loopback_loses_nothing() {
    use roboshape_serve::loadgen::{
        run_loadgen, LoadMode, LoadgenConfig, RetryPolicy, TargetRobot, Workload,
    };
    use roboshape_serve::Server;

    let engine = Engine::new(EngineConfig::default());
    let members =
        roboshape_zoo::population(42, 8, &roboshape_zoo::Family::ALL).expect("population");
    let robots: Vec<TargetRobot> = members
        .iter()
        .map(|m| {
            engine.register(&m.name, m.model.clone());
            TargetRobot {
                name: m.name.clone(),
                links: m.model.num_links(),
            }
        })
        .collect();
    let server = Server::start(engine, "127.0.0.1:0").expect("bind loopback");
    for steps in [1, 4, 16] {
        let cfg = LoadgenConfig {
            mode: LoadMode::Closed,
            clients: 2,
            requests_per_client: 4,
            robots: robots.clone(),
            workload: Workload::Rollout(steps),
            deadline: None,
            seed: 3,
            retry: RetryPolicy::none(),
            timeout: None,
        };
        let report = run_loadgen(server.addr(), &cfg).expect("rollout load");
        assert_eq!(report.lost(), 0, "horizon {steps}: {report}");
        assert_eq!(report.ok, report.sent, "horizon {steps}: {report}");
    }
    server.shutdown();
}
