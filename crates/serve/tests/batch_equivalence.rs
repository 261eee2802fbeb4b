//! Property test for the ISSUE's core serving invariant: responses from
//! the engine's *coalesced* `try_simulate_batch` path are bit-identical —
//! same float bits, same cycle counts — to direct single-request
//! simulation, for every robot in the paper's zoo.

use proptest::prelude::*;
use roboshape_arch::KernelKind;
use roboshape_robots::{zoo, Zoo};
use roboshape_serve::{Engine, EngineConfig, ServePayload, ServeRequest, Ticket};
use roboshape_sim::try_simulate;

fn batched_equals_sequential(which: Zoo, seeds: &[u64]) {
    let robot = zoo(which);
    let n = robot.num_links();
    // One paused worker + a max_batch covering the whole burst forces
    // every request into a single coalesced execution on resume.
    let engine = Engine::new(EngineConfig {
        workers_per_robot: 1,
        max_batch: seeds.len().max(2),
        start_paused: true,
        ..EngineConfig::default()
    });
    engine.register(which.name(), robot.clone());

    let inputs: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = seeds
        .iter()
        .map(|&s| roboshape_serve::loadgen::request_inputs(n, s))
        .collect();
    let tickets: Vec<Ticket> = inputs
        .iter()
        .map(|(q, qd, tau)| {
            engine
                .submit(ServeRequest::gradient(
                    which.name(),
                    q.clone(),
                    qd.clone(),
                    tau.clone(),
                ))
                .expect("submit")
        })
        .collect();
    engine.resume();

    let design = engine
        .design_for(which.name(), KernelKind::DynamicsGradient)
        .unwrap();
    for (ticket, (q, qd, tau)) in tickets.iter().zip(&inputs) {
        let served = ticket.wait().expect("payload");
        let reference = try_simulate(&robot, &design, q, qd, tau).expect("direct simulation");
        match served {
            ServePayload::Gradient {
                tau: tau_out,
                dqdd_dq,
                dqdd_dqd,
                cycles,
            } => {
                assert_eq!(cycles, reference.stats.cycles, "{}", which.name());
                for j in 0..n {
                    assert_eq!(tau_out[j].to_bits(), reference.tau[j].to_bits());
                    for k in 0..n {
                        assert_eq!(
                            dqdd_dq[j * n + k].to_bits(),
                            reference.dqdd_dq[(j, k)].to_bits()
                        );
                        assert_eq!(
                            dqdd_dqd[j * n + k].to_bits(),
                            reference.dqdd_dqd[(j, k)].to_bits()
                        );
                    }
                }
            }
            other => panic!("wrong payload: {other:?}"),
        }
    }
    let stats = engine.stats();
    assert!(
        stats.largest_batch >= seeds.len().min(2) as u64,
        "requests actually coalesced: {stats:?}"
    );
    engine.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For every zoo robot and random request bursts, the coalesced
    /// batch path is bit-identical to sequential simulation.
    #[test]
    fn batched_serving_is_bit_identical_for_every_zoo_robot(
        base in 0u64..1_000_000,
        count in 2usize..5,
    ) {
        for which in Zoo::ALL {
            let seeds: Vec<u64> = (0..count as u64).map(|i| base.wrapping_add(i * 7919)).collect();
            batched_equals_sequential(which, &seeds);
        }
    }
}
