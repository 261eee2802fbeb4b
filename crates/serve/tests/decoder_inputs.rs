//! Generated-input tests for the wire decoders, under a counting
//! allocator: whatever bytes arrive, decoding must neither panic nor
//! make any single allocation larger than a small multiple of the body
//! it was handed.
//!
//! Inputs start from valid encodings of every request and response kind
//! and are mutated with a seeded SplitMix64 stream: every truncation
//! length, every single-byte flip, and random values written over every
//! 4-byte window (which covers each count and length field wherever it
//! sits). `rewrite_id` is left out: it documents a panic on bodies under
//! 9 bytes, and the router only calls it after a successful peek.
//!
//! Allocation tracking is thread-local, so libtest threads running other
//! tests of this binary cannot pollute a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use roboshape_arch::KernelKind;
use roboshape_obs::hash::splitmix64;
use roboshape_serve::proto::{
    decode_any_request, decode_hello_response, decode_request, decode_response,
    encode_health_request, encode_hello_request, encode_hello_response, encode_request,
    encode_response, peek_request_route, HelloInfo, ProtoError, RequestFrame, ResponseFrame,
};
use roboshape_serve::{
    CircuitState, HealthReport, RobotHealth, ServeError, ServePayload, ServeRequest,
};

struct PeakAlloc;

thread_local! {
    // const-initialized: reading these from inside `alloc` cannot itself
    // allocate. `try_with` keeps teardown-time allocations safe.
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = TRACK.try_with(|t| {
        if t.get() {
            let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
        }
    });
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// The largest single allocation `f` makes on this thread.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    TRACK.with(|t| t.set(true));
    let out = f();
    TRACK.with(|t| t.set(false));
    (out, PEAK.with(Cell::get))
}

/// What any decoder may allocate at once for a `len`-byte body. The
/// widest legitimate case is a hello reply: one 24-byte `String` per
/// robot for each 4-byte name length on the wire.
fn alloc_limit(len: usize) -> usize {
    8 * len + 64
}

/// A decoder run for its allocations alone; its result is dropped.
type Decoder = fn(&[u8]);

/// Runs every decoder over `body`, asserting the allocation bound.
fn decode_all(body: &[u8], what: &str) {
    let limit = alloc_limit(body.len());
    let decoders: [(&str, Decoder); 5] = [
        ("decode_request", |b| drop(decode_request(b))),
        ("decode_any_request", |b| drop(decode_any_request(b))),
        ("decode_response", |b| drop(decode_response(b))),
        ("decode_hello_response", |b| drop(decode_hello_response(b))),
        ("peek_request_route", |b| drop(peek_request_route(b))),
    ];
    for (name, decode) in decoders {
        let ((), peak) = peak_alloc(|| decode(body));
        assert!(
            peak <= limit,
            "{name} on {what} ({} bytes) allocated {peak} bytes at once (limit {limit})",
            body.len()
        );
    }
}

fn state(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (splitmix64(salt ^ i as u64) % 1000) as f64 / 250.0 - 2.0)
        .collect()
}

fn request_bodies() -> Vec<(&'static str, Vec<u8>)> {
    let n = 3;
    let (q, qd, tau) = (state(n, 1), state(n, 2), state(n, 3));
    let frame = |id, req| encode_request(&RequestFrame { id, req });
    vec![
        (
            "fk request",
            frame(1, ServeRequest::kinematics("iiwa", q.clone())),
        ),
        (
            "id request",
            frame(
                2,
                ServeRequest::inverse_dynamics("HyQ", q.clone(), qd.clone(), tau.clone()),
            ),
        ),
        (
            "gradient request",
            frame(
                3,
                ServeRequest::gradient("r", q.clone(), qd.clone(), tau.clone())
                    .with_deadline(Duration::from_micros(900)),
            ),
        ),
        (
            "rollout request",
            frame(
                4,
                ServeRequest::rollout("arm", q.clone(), qd.clone(), tau.clone(), 5),
            ),
        ),
        (
            "mixed request",
            frame(5, ServeRequest::mixed("", q, qd, tau)),
        ),
        ("health request", encode_health_request(6)),
        ("hello request", encode_hello_request(7)),
    ]
}

fn response_bodies() -> Vec<(&'static str, Vec<u8>)> {
    let n = 3;
    let mat = state(n * n, 4);
    let ok = |id, payload| encode_response(&ResponseFrame::direct(id, Ok(payload)));
    let err = |id, e| encode_response(&ResponseFrame::direct(id, Err(e)));
    let mut rerouted = ResponseFrame::direct(
        20,
        Ok(ServePayload::InverseDynamics {
            tau: state(n, 5),
            cycles: 11,
        }),
    );
    rerouted.rerouted = true;
    vec![
        (
            "fk response",
            ok(
                8,
                ServePayload::Kinematics {
                    poses: state(12 * n, 6),
                    cycles: 40,
                },
            ),
        ),
        (
            "id response",
            ok(
                9,
                ServePayload::InverseDynamics {
                    tau: state(n, 7),
                    cycles: 41,
                },
            ),
        ),
        (
            "gradient response",
            ok(
                10,
                ServePayload::Gradient {
                    tau: state(n, 8),
                    dqdd_dq: mat.clone(),
                    dqdd_dqd: mat.clone(),
                    cycles: 42,
                },
            ),
        ),
        (
            "rollout response",
            ok(
                11,
                ServePayload::Rollout {
                    steps: 4,
                    q_final: state(n, 9),
                    qd_final: state(n, 10),
                    tau: state(n, 11),
                    dqdd_dq: mat.clone(),
                    dqdd_dqd: mat.clone(),
                    cycles: 43,
                },
            ),
        ),
        (
            "mixed response",
            ok(
                12,
                ServePayload::Mixed {
                    tau: state(n, 12),
                    dqdd_dq: mat.clone(),
                    dqdd_dqd: mat,
                    poses: state(12 * n, 13),
                    cycles: 44,
                },
            ),
        ),
        (
            "degraded response",
            ok(
                13,
                ServePayload::Degraded {
                    kind: KernelKind::DynamicsGradient,
                    cycles: 45,
                    clock_ns: 1.5,
                    latency_us: 0.25,
                },
            ),
        ),
        (
            "health response",
            ok(
                14,
                ServePayload::Health(HealthReport {
                    ready: true,
                    robots: vec![
                        RobotHealth {
                            name: "iiwa".into(),
                            circuit: CircuitState::HalfOpen,
                            workers_alive: 2,
                        },
                        RobotHealth {
                            name: String::new(),
                            circuit: CircuitState::Open,
                            workers_alive: 0,
                        },
                    ],
                }),
            ),
        ),
        (
            "rejected response",
            err(
                15,
                ServeError::Rejected {
                    reason: "queue full".into(),
                },
            ),
        ),
        ("deadline response", err(16, ServeError::DeadlineExceeded)),
        (
            "unknown-robot response",
            err(17, ServeError::UnknownRobot("nope".into())),
        ),
        (
            "bad-request response",
            err(18, ServeError::BadRequest("q dimension mismatch".into())),
        ),
        ("crashed response", err(19, ServeError::WorkerCrashed)),
        ("rerouted response", encode_response(&rerouted)),
        (
            "hello response",
            encode_hello_response(
                21,
                &HelloInfo {
                    shard: "shard-a".into(),
                    robots: vec!["iiwa".into(), String::new(), "HyQ".into()],
                },
            ),
        ),
    ]
}

/// The two bodies that made the decoder reserve tens of megabytes: a
/// health reply and a hello reply whose robot count is far larger than
/// the bytes that follow it.
#[test]
fn hostile_counts_cannot_reserve_more_than_the_frame_holds() {
    // u64 id | u8 status HEALTH (9) | u8 ready | u32 count.
    let mut health = Vec::new();
    health.extend_from_slice(&1u64.to_le_bytes());
    health.push(9);
    health.push(1);
    health.extend_from_slice(&1_677_721u32.to_le_bytes());
    assert_eq!(health.len(), 14);
    let (result, peak) = peak_alloc(|| decode_response(&health));
    assert_eq!(result.unwrap_err(), ProtoError::Truncated);
    assert!(peak <= alloc_limit(health.len()), "health: {peak} bytes");

    // u64 id | u8 status HELLO (10) | u32 shard_len 0 | u32 count.
    let mut hello = Vec::new();
    hello.extend_from_slice(&1u64.to_le_bytes());
    hello.push(10);
    hello.extend_from_slice(&0u32.to_le_bytes());
    hello.extend_from_slice(&4_194_304u32.to_le_bytes());
    assert_eq!(hello.len(), 17);
    let (result, peak) = peak_alloc(|| decode_hello_response(&hello));
    assert_eq!(result.unwrap_err(), ProtoError::Truncated);
    assert!(peak <= alloc_limit(hello.len()), "hello: {peak} bytes");
}

/// The count check uses each entry's true minimum size, so the tightest
/// valid frames — every name empty — still decode.
#[test]
fn frames_of_empty_names_still_decode() {
    let robots: Vec<RobotHealth> = (0..3)
        .map(|i| RobotHealth {
            name: String::new(),
            circuit: CircuitState::Closed,
            workers_alive: i,
        })
        .collect();
    let frame = ResponseFrame::direct(
        3,
        Ok(ServePayload::Health(HealthReport {
            ready: false,
            robots,
        })),
    );
    assert_eq!(decode_response(&encode_response(&frame)).unwrap(), frame);

    let info = HelloInfo {
        shard: String::new(),
        robots: vec![String::new(); 4],
    };
    let body = encode_hello_response(4, &info);
    assert_eq!(decode_hello_response(&body).unwrap(), (4, info));
}

#[test]
fn valid_frames_decode_within_the_bound() {
    for (what, body) in request_bodies() {
        assert!(decode_any_request(&body).is_ok(), "{what}");
        assert!(peek_request_route(&body).is_ok(), "{what}");
        decode_all(&body, what);
    }
    for (what, body) in response_bodies() {
        let decoded = if what == "hello response" {
            decode_hello_response(&body).map(drop)
        } else {
            decode_response(&body).map(drop)
        };
        assert!(decoded.is_ok(), "{what}: {decoded:?}");
        decode_all(&body, what);
    }
}

#[test]
fn mutated_frames_never_panic_or_over_allocate() {
    let mut rng = 0x00DE_C0DE_u64;
    let mut next = || {
        rng = splitmix64(rng);
        rng
    };
    let mut cases = 0u64;
    for (what, body) in request_bodies().into_iter().chain(response_bodies()) {
        for len in 0..body.len() {
            decode_all(&body[..len], what);
            cases += 1;
        }
        for i in 0..body.len() {
            let random = (next() as u8).max(1);
            for mask in [0x01, 0x80, 0xFF, random] {
                let mut flipped = body.clone();
                flipped[i] ^= mask;
                decode_all(&flipped, what);
                cases += 1;
            }
        }
        for i in 0..body.len().saturating_sub(3) {
            let r = next();
            for value in [
                r as u32,
                (r >> 40) as u32, // 24 bits: plausible under MAX_FRAME
                (r >> 58) as u32, // small: near the real counts
                u32::MAX,
            ] {
                let mut patched = body.clone();
                patched[i..i + 4].copy_from_slice(&value.to_le_bytes());
                decode_all(&patched, what);
                cases += 1;
            }
        }
    }
    assert!(cases > 10_000, "only {cases} mutated bodies");
}
