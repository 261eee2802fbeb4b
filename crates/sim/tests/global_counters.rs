//! Tests that read the process-global `sim.*` counters.
//!
//! Each asserts an exact counter delta, so no other simulation may run
//! in the process while it measures. They live in their own test binary
//! (no sibling suite shares the counters) and take one lock each (so
//! they do not overlap one another).

use std::sync::{Mutex, MutexGuard};

use roboshape_arch::{AcceleratorDesign, AcceleratorKnobs};
use roboshape_robots::{zoo, Zoo};
use roboshape_sim::{
    shared_program_for, try_simulate, try_simulate_batch, BackendKind, SimScratch,
};

/// Serializes the tests of this binary.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn batch_makespan_memo_hits_after_first_use() {
    let _serial = serial();
    let m = roboshape_obs::metrics();
    let robot = zoo(Zoo::Jaco3);
    let n = robot.num_links();
    // A knob setting no other test uses, so its program (and batch memo)
    // is cold when this test first touches it.
    let design = AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::new(5, 2, 4));
    let steps: Vec<_> = (0..3)
        .map(|i| (vec![0.1 * (i + 1) as f64; n], vec![0.02; n], vec![0.3; n]))
        .collect();
    let hits_before = m.counter("sim.batch_schedule.hit").get();
    let misses_before = m.counter("sim.batch_schedule.miss").get();
    let (_, first) = try_simulate_batch(&robot, &design, &steps).unwrap();
    assert_eq!(
        m.counter("sim.batch_schedule.miss").get(),
        misses_before + 1,
        "first batch of a given length replicates and schedules"
    );
    let (_, second) = try_simulate_batch(&robot, &design, &steps).unwrap();
    assert_eq!(first, second);
    assert_eq!(
        m.counter("sim.batch_schedule.hit").get(),
        hits_before + 1,
        "same batch length must come from the memo"
    );
    // A different length is a fresh memo entry.
    let (_, single) = try_simulate_batch(&robot, &design, &steps[..1]).unwrap();
    assert!(single <= first);
    assert_eq!(
        m.counter("sim.batch_schedule.miss").get(),
        misses_before + 2
    );
}

#[test]
fn repeated_evaluations_reuse_the_bound_scratch() {
    let _serial = serial();
    let m = roboshape_obs::metrics();
    let robot = zoo(Zoo::Iiwa);
    let n = robot.num_links();
    let design = AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::new(2, 5, 3));
    let (q, qd, tau) = (vec![0.2; n], vec![0.05; n], vec![0.4; n]);
    // Bind this thread's scratch to the program, then measure reuse.
    try_simulate(&robot, &design, &q, &qd, &tau).unwrap();
    let reuse_before = m.counter("sim.scratch.reuse").get();
    for _ in 0..4 {
        try_simulate(&robot, &design, &q, &qd, &tau).unwrap();
    }
    assert_eq!(
        m.counter("sim.scratch.reuse").get(),
        reuse_before + 4,
        "warm evaluations must not rebind the scratch arena"
    );
}

#[test]
fn exec_backend_counters_attribute_lane_and_remainder_evals() {
    let _serial = serial();
    let m = roboshape_obs::metrics();
    let robot = zoo(Zoo::Hyq);
    let n = robot.num_links();
    // Knobs no other test uses, so this program is compiled fresh.
    let design = AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::new(3, 1, 5));
    let lanes = shared_program_for(&design, BackendKind::Lanes);
    let mut scratch = SimScratch::new();
    let steps: Vec<_> = (0..6)
        .map(|i| (vec![0.1 * (i + 1) as f64; n], vec![0.02; n], vec![0.3; n]))
        .collect();
    let lane_before = m.counter("sim.exec.lanes.evals").get();
    let scalar_before = m.counter("sim.exec.scalar.evals").get();
    lanes.execute_batch(&robot, &mut scratch, &steps).unwrap();
    assert_eq!(
        m.counter("sim.exec.lanes.evals").get(),
        lane_before + 4,
        "one whole lane group of the 6-entry batch"
    );
    assert_eq!(
        m.counter("sim.exec.scalar.evals").get(),
        scalar_before + 2,
        "two remainder entries fall back to the scalar path"
    );
}
