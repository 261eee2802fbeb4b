//! The engine's thread count does not depend on how many robots it
//! serves: one executor pool, spawned with the engine, runs every
//! robot's accelerator instances.
//!
//! Threads are counted from `/proc/self/task`, so this binary holds a
//! single test: libtest's other test threads would otherwise come and go
//! under the count.

#![cfg(target_os = "linux")]

use roboshape_pipeline::Pipeline;
use roboshape_robots::{zoo, Zoo};
use roboshape_serve::{Engine, EngineConfig, ServeRequest};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn registering_robots_spawns_no_threads() {
    let before = threads();
    let engine = Engine::with_pipeline(EngineConfig::default(), Pipeline::new());
    let pool = threads() - before;

    let model = zoo(Zoo::Iiwa);
    engine.register("iiwa-0", model.clone());
    let one = threads();
    for i in 1..40 {
        engine.register(format!("iiwa-{i}"), model.clone());
    }
    assert_eq!(engine.robots().len(), 40);
    assert_eq!(threads(), one, "40 robots run on the threads of 1");
    assert_eq!(one - before, pool, "registration spawns nothing");
    assert!(pool >= 2, "the pool covers a robot's two instances: {pool}");

    // Serving every robot spawns nothing either.
    let tickets: Vec<_> = engine
        .robots()
        .into_iter()
        .map(|name| {
            engine
                .submit(ServeRequest::kinematics(name, vec![0.1; 7]))
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        assert!(ticket.wait().is_ok());
    }
    assert_eq!(threads(), one);

    engine.shutdown();
    assert_eq!(threads(), before, "shutdown joins the pool");
}
