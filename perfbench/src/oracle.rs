//! The correctness oracle: what a served request must return, computed
//! by calling the simulator directly on the engine's own design.

use roboshape_arch::AcceleratorDesign;
use roboshape_linalg::DMat;
use roboshape_serve::{ServePayload, ServeRequest};
use roboshape_sim::{try_simulate, SimError};
use roboshape_urdf::RobotModel;

/// The payload the ∇FD request `req` must produce: `try_simulate` on
/// `design`.
pub fn direct_payload(
    model: &RobotModel,
    design: &AcceleratorDesign,
    req: &ServeRequest,
) -> Result<ServePayload, SimError> {
    let sim = try_simulate(model, design, &req.q, &req.qd, &req.tau)?;
    Ok(ServePayload::Gradient {
        dqdd_dq: row_major(&sim.dqdd_dq),
        dqdd_dqd: row_major(&sim.dqdd_dqd),
        cycles: sim.stats.cycles,
        tau: sim.tau,
    })
}

/// Whether two gradient payloads agree bit for bit.
pub fn same_bits(a: &ServePayload, b: &ServePayload) -> bool {
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    match (a, b) {
        (
            ServePayload::Gradient {
                tau: t1,
                dqdd_dq: a1,
                dqdd_dqd: b1,
                cycles: c1,
            },
            ServePayload::Gradient {
                tau: t2,
                dqdd_dq: a2,
                dqdd_dqd: b2,
                cycles: c2,
            },
        ) => bits(t1, t2) && bits(a1, a2) && bits(b1, b2) && c1 == c2,
        _ => false,
    }
}

fn row_major(m: &DMat) -> Vec<f64> {
    (0..m.rows())
        .flat_map(|r| (0..m.cols()).map(move |c| m[(r, c)]))
        .collect()
}
