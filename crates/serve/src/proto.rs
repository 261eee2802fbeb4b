//! Length-prefixed, checksummed binary wire protocol for the TCP
//! front-end. The normative spec lives in `docs/PROTOCOL.md`; this
//! module is its implementation.
//!
//! Every message is one *frame*: a little-endian `u32` byte length,
//! a little-endian `u32` FNV-1a checksum of the body, then that many
//! body bytes (capped at [`MAX_FRAME`]). The checksum makes wire
//! corruption *detectable*: a flipped bit surfaces as a typed error at
//! the receiver instead of silently decoding into wrong-but-plausible
//! numbers. Bodies are encoded with the vendored [`bytes`] little-endian
//! accessors; `f64` values travel as raw IEEE-754 bits, so responses are
//! bit-identical to in-process results — the loopback tests assert
//! exactly that.
//!
//! Kernel request body:
//!
//! ```text
//! u64 id | u8 kind (0 FK, 1 ID, 2 ∇FD, 5 rollout, 6 mixed)
//! | u64 deadline_µs (MAX = none) | u32 name_len | name bytes
//! | (rollout only: u32 steps) | u32 n | q[n] | (FK omits: qd[n], tau[n])
//! ```
//!
//! A health probe request is just `u64 id | u8 3` — see
//! [`encode_health_request`] and [`decode_any_request`].
//!
//! Response body: `u64 id | u8 status`, then a status-specific payload
//! (see [`decode_response`]). Responses may arrive out of request order
//! — `id` is the correlation key.

use crate::engine::{
    HealthReport, RobotHealth, ServeError, ServePayload, ServeRequest, ServeResult, WorkKind,
};
use crate::fault::CircuitState;
use bytes::{Buf, BufMut};
use roboshape_arch::KernelKind;
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Maximum frame body size (16 MiB) — rejects corrupt length prefixes
/// before any allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Sentinel meaning "no deadline" in the request's `deadline_µs` field.
const NO_DEADLINE: u64 = u64::MAX;

const KIND_FK: u8 = 0;
const KIND_ID: u8 = 1;
const KIND_GRAD: u8 = 2;
/// Request-kind tag for a health/readiness probe (no kernel payload).
const KIND_HEALTH: u8 = 3;
/// Request-kind tag for the router→shard handshake (cluster tier only;
/// see `docs/PROTOCOL.md` §Hello).
const KIND_HELLO: u8 = 4;
/// Request-kind tag for a trajectory rollout (`u32 steps` follows the
/// robot name).
const KIND_ROLLOUT: u8 = 5;
/// Request-kind tag for a mixed ID→∇FD→FK pipeline chain.
const KIND_MIXED: u8 = 6;

const STATUS_OK_FK: u8 = 0;
const STATUS_OK_ID: u8 = 1;
const STATUS_OK_GRAD: u8 = 2;
const STATUS_REJECTED: u8 = 3;
const STATUS_DEADLINE: u8 = 4;
const STATUS_UNKNOWN_ROBOT: u8 = 5;
const STATUS_BAD_REQUEST: u8 = 6;
const STATUS_WORKER_CRASHED: u8 = 7;
const STATUS_DEGRADED: u8 = 8;
const STATUS_HEALTH: u8 = 9;
/// Status tag for the shard's handshake reply.
const STATUS_HELLO: u8 = 10;
/// Status tag for a successful rollout response.
const STATUS_OK_ROLLOUT: u8 = 11;
/// Status tag for a successful mixed-pipeline response.
const STATUS_OK_MIXED: u8 = 12;

/// High bit of the response status byte: set by the **router** when the
/// answer came from a fallback shard rather than the robot's ring
/// owner. The low 7 bits remain the ordinary status tag, so pre-cluster
/// decoders that mask nothing simply never see the bit (single-engine
/// servers never set it).
pub const REROUTED_FLAG: u8 = 0x80;

/// A request frame: correlation id + the request proper.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The request.
    pub req: ServeRequest,
}

/// A response frame: correlation id + outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The request's correlation id.
    pub id: u64,
    /// The outcome.
    pub result: ServeResult,
    /// Whether the router answered this request from a fallback shard
    /// ([`REROUTED_FLAG`] on the wire). Always `false` from a
    /// single-engine server.
    pub rerouted: bool,
}

impl ResponseFrame {
    /// A direct (non-rerouted) response — what every non-router sender
    /// produces.
    pub fn direct(id: u64, result: ServeResult) -> ResponseFrame {
        ResponseFrame {
            id,
            result,
            rerouted: false,
        }
    }
}

/// Decode failure: the body is malformed (framing itself is handled by
/// [`read_frame`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Body ended before a field's bytes.
    Truncated,
    /// Unknown kind/status tag byte.
    BadTag(u8),
    /// A length field exceeds the frame's remaining bytes or [`MAX_FRAME`].
    BadLength(u64),
    /// A name/message field is not UTF-8.
    BadUtf8,
    /// A frame header declared a body length above [`MAX_FRAME`]. Typed
    /// (never silently dropped) so the peer can be told before the
    /// connection closes.
    FrameTooLarge(u64),
    /// The frame body does not match its header checksum — corrupted in
    /// transit.
    ChecksumMismatch,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            ProtoError::BadLength(l) => write!(f, "implausible length field {l}"),
            ProtoError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtoError::FrameTooLarge(l) => {
                write!(
                    f,
                    "declared frame length {l} exceeds the {MAX_FRAME}-byte cap"
                )
            }
            ProtoError::ChecksumMismatch => {
                write!(f, "frame checksum mismatch (corrupted in transit)")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Checked little-endian reader over a frame body: every accessor
/// verifies the remaining length first, so malformed frames surface as
/// [`ProtoError::Truncated`] instead of a panic in the byte cursor.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn need(&self, n: usize) -> Result<(), ProtoError> {
        if self.buf.remaining() < n {
            return Err(ProtoError::Truncated);
        }
        Ok(())
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }
    fn f64s(&mut self, count: usize) -> Result<Vec<f64>, ProtoError> {
        self.need(
            count
                .checked_mul(8)
                .ok_or(ProtoError::BadLength(u64::MAX))?,
        )?;
        Ok((0..count).map(|_| self.buf.get_f64_le()).collect())
    }
    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::BadLength(len as u64));
        }
        self.need(len)?;
        let mut raw = vec![0u8; len];
        self.buf.copy_to_slice(&mut raw);
        String::from_utf8(raw).map_err(|_| ProtoError::BadUtf8)
    }
    /// A count of elements that each encode to at least `width` bytes.
    /// The elements must fit in the bytes left, so a hostile count
    /// cannot make the caller reserve more than the frame holds.
    fn count(&mut self, width: usize) -> Result<usize, ProtoError> {
        let count = self.u32()? as usize;
        let bytes = count.saturating_mul(width);
        if bytes > MAX_FRAME {
            return Err(ProtoError::BadLength(count as u64));
        }
        self.need(bytes)?;
        Ok(count)
    }
}

fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    for &v in values {
        out.put_f64_le(v);
    }
}

fn kind_tag(kind: KernelKind) -> u8 {
    match kind {
        KernelKind::ForwardKinematics => KIND_FK,
        KernelKind::InverseDynamics => KIND_ID,
        KernelKind::DynamicsGradient => KIND_GRAD,
    }
}

fn kind_from_tag(tag: u8) -> Option<KernelKind> {
    match tag {
        KIND_FK => Some(KernelKind::ForwardKinematics),
        KIND_ID => Some(KernelKind::InverseDynamics),
        KIND_GRAD => Some(KernelKind::DynamicsGradient),
        _ => None,
    }
}

/// The request tag of a work kind (rollout steps travel in the body,
/// not the tag).
fn work_tag(kind: WorkKind) -> u8 {
    match kind {
        WorkKind::Kernel(k) => kind_tag(k),
        WorkKind::Rollout { .. } => KIND_ROLLOUT,
        WorkKind::MixedPipeline => KIND_MIXED,
    }
}

/// Whether a request tag denotes robot-addressed work (anything the
/// engine executes: a kernel or a trajectory workload) as opposed to
/// health/hello control frames or garbage.
fn is_work_tag(tag: u8) -> bool {
    kind_from_tag(tag).is_some() || tag == KIND_ROLLOUT || tag == KIND_MIXED
}

/// Bytes of the frame header (`u32` length + `u32` checksum).
pub const HEADER_LEN: usize = 8;

/// FNV-1a 32-bit checksum of a frame body — the integrity check carried
/// in every frame header.
pub fn checksum(body: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in body {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The complete wire encoding of one frame: `u32` LE length, `u32` LE
/// FNV-1a body checksum, body. The server's writer uses this (rather
/// than [`write_frame`]) so injected wire corruption operates on the
/// exact bytes a healthy server would have sent.
pub fn frame_bytes(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Encodes a request frame body (no length prefix — see [`write_frame`]).
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    let req = &frame.req;
    let mut out = Vec::with_capacity(64 + 8 * (req.q.len() + req.qd.len() + req.tau.len()));
    out.put_u64_le(frame.id);
    out.put_u8(work_tag(req.kind));
    let deadline_us = req.deadline.map_or(NO_DEADLINE, |d| {
        (d.as_micros().min(u128::from(NO_DEADLINE - 1))) as u64
    });
    out.put_u64_le(deadline_us);
    out.put_u32_le(req.robot.len() as u32);
    out.put_slice(req.robot.as_bytes());
    if let WorkKind::Rollout { steps } = req.kind {
        out.put_u32_le(steps);
    }
    out.put_u32_le(req.q.len() as u32);
    put_f64s(&mut out, &req.q);
    if req.kind != WorkKind::Kernel(KernelKind::ForwardKinematics) {
        put_f64s(&mut out, &req.qd);
        put_f64s(&mut out, &req.tau);
    }
    out
}

/// Decodes a request frame body.
///
/// # Errors
///
/// [`ProtoError`] on truncation, an unknown kind tag, an implausible
/// length field, or a non-UTF-8 robot name.
pub fn decode_request(body: &[u8]) -> Result<RequestFrame, ProtoError> {
    let mut r = Reader { buf: body };
    let id = r.u64()?;
    let tag = r.u8()?;
    if !is_work_tag(tag) {
        return Err(ProtoError::BadTag(tag));
    }
    let deadline_us = r.u64()?;
    let robot = r.string()?;
    let kind = match tag {
        KIND_FK => WorkKind::Kernel(KernelKind::ForwardKinematics),
        KIND_ID => WorkKind::Kernel(KernelKind::InverseDynamics),
        KIND_GRAD => WorkKind::Kernel(KernelKind::DynamicsGradient),
        KIND_ROLLOUT => WorkKind::Rollout { steps: r.u32()? },
        KIND_MIXED => WorkKind::MixedPipeline,
        tag => return Err(ProtoError::BadTag(tag)),
    };
    let n = r.count(8)?;
    let q = r.f64s(n)?;
    let (qd, tau) = if kind == WorkKind::Kernel(KernelKind::ForwardKinematics) {
        (Vec::new(), Vec::new())
    } else {
        (r.f64s(n)?, r.f64s(n)?)
    };
    Ok(RequestFrame {
        id,
        req: ServeRequest {
            robot,
            kind,
            q,
            qd,
            tau,
            deadline: (deadline_us != NO_DEADLINE).then(|| Duration::from_micros(deadline_us)),
        },
    })
}

/// Encodes a health-probe request body: `u64 id | u8 KIND_HEALTH`.
pub fn encode_health_request(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.put_u64_le(id);
    out.put_u8(KIND_HEALTH);
    out
}

/// Any request the server accepts: a kernel evaluation, a health probe,
/// or a cluster handshake.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedRequest {
    /// A kernel evaluation request.
    Kernel(RequestFrame),
    /// A health/readiness probe carrying only a correlation id.
    Health {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
    /// A router→shard handshake carrying only a correlation id; the
    /// shard answers with [`encode_hello_response`].
    Hello {
        /// Router-chosen correlation id, echoed in the response.
        id: u64,
    },
}

/// Encodes a hello (handshake) request body: `u64 id | u8 KIND_HELLO`.
/// Sent by the router immediately after connecting to a shard.
pub fn encode_hello_request(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.put_u64_le(id);
    out.put_u8(KIND_HELLO);
    out
}

/// What a shard announces in its handshake reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloInfo {
    /// The shard's operator-assigned name.
    pub shard: String,
    /// Every robot the shard's engine has registered (and can therefore
    /// serve, as ring owner or as a failover target).
    pub robots: Vec<String>,
}

/// Encodes a hello response body:
/// `u64 id | u8 STATUS_HELLO | u32 shard_len | shard | u32 count |
/// (u32 name_len | name)*`.
pub fn encode_hello_response(id: u64, info: &HelloInfo) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + info.shard.len());
    out.put_u64_le(id);
    out.put_u8(STATUS_HELLO);
    out.put_u32_le(info.shard.len() as u32);
    out.put_slice(info.shard.as_bytes());
    out.put_u32_le(info.robots.len() as u32);
    for name in &info.robots {
        out.put_u32_le(name.len() as u32);
        out.put_slice(name.as_bytes());
    }
    out
}

/// Decodes a hello response body into `(id, info)`.
///
/// # Errors
///
/// [`ProtoError::BadTag`] if the status byte is not `STATUS_HELLO`;
/// otherwise as [`decode_request`].
pub fn decode_hello_response(body: &[u8]) -> Result<(u64, HelloInfo), ProtoError> {
    let mut r = Reader { buf: body };
    let id = r.u64()?;
    let status = r.u8()?;
    if status != STATUS_HELLO {
        return Err(ProtoError::BadTag(status));
    }
    let shard = r.string()?;
    // Per robot: at least its u32 name length.
    let count = r.count(4)?;
    let mut robots = Vec::with_capacity(count);
    for _ in 0..count {
        robots.push(r.string()?);
    }
    Ok((id, HelloInfo { shard, robots }))
}

/// The routing-relevant head of a request frame, extracted without
/// decoding the joint-state arrays — what the router reads before
/// forwarding the body verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRoute {
    /// Client-chosen correlation id (first 8 body bytes).
    pub id: u64,
    /// The robot the request targets; `None` for health/hello frames,
    /// which are not robot-addressed.
    pub robot: Option<String>,
    /// Whether this is a health probe (fans out to every shard).
    pub is_health: bool,
}

/// Peeks id / kind / robot from a request body without touching the
/// `f64` payload. The router hashes `robot` onto the ring and forwards
/// the body bytes untouched except for the id rewrite.
///
/// # Errors
///
/// As [`decode_request`] for the fields it reads (truncation, bad kind
/// tag, bad name length or UTF-8).
pub fn peek_request_route(body: &[u8]) -> Result<RequestRoute, ProtoError> {
    let mut r = Reader { buf: body };
    let id = r.u64()?;
    let tag = r.u8()?;
    if tag == KIND_HEALTH {
        return Ok(RequestRoute {
            id,
            robot: None,
            is_health: true,
        });
    }
    if tag == KIND_HELLO {
        return Ok(RequestRoute {
            id,
            robot: None,
            is_health: false,
        });
    }
    if !is_work_tag(tag) {
        return Err(ProtoError::BadTag(tag));
    }
    let _deadline = r.u64()?;
    let robot = r.string()?;
    Ok(RequestRoute {
        id,
        robot: Some(robot),
        is_health: false,
    })
}

/// Peeks `(id, raw status byte)` from a response body — how the router
/// correlates a shard's response with its pending table before patching
/// the id back and re-framing.
///
/// # Errors
///
/// [`ProtoError::Truncated`] if the body is shorter than 9 bytes.
pub fn peek_response_head(body: &[u8]) -> Result<(u64, u8), ProtoError> {
    let mut r = Reader { buf: body };
    let id = r.u64()?;
    let status = r.u8()?;
    Ok((id, status))
}

/// Whether a raw response status byte is the hello tag (the router must
/// not forward handshake replies to clients).
pub fn status_is_hello(raw_status: u8) -> bool {
    raw_status & !REROUTED_FLAG == STATUS_HELLO
}

/// Rewrites the correlation id (first 8 bytes) of a request or response
/// body in place, and optionally ORs [`REROUTED_FLAG`] into the status
/// byte. The caller re-frames afterwards ([`frame_bytes`] recomputes the
/// checksum); every other byte — including the bit-exact `f64` payload —
/// passes through untouched.
///
/// # Panics
///
/// If `body` is shorter than 9 bytes (the router only calls this on
/// bodies that already passed [`peek_response_head`] /
/// [`peek_request_route`]).
pub fn rewrite_id(body: &mut [u8], id: u64, mark_rerouted: bool) {
    body[..8].copy_from_slice(&id.to_le_bytes());
    if mark_rerouted {
        body[8] |= REROUTED_FLAG;
    }
}

/// Decodes either request shape — what the server's connection reader
/// calls.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_any_request(body: &[u8]) -> Result<DecodedRequest, ProtoError> {
    let mut r = Reader { buf: body };
    let id = r.u64()?;
    let tag = r.u8()?;
    if tag == KIND_HEALTH {
        return Ok(DecodedRequest::Health { id });
    }
    if tag == KIND_HELLO {
        return Ok(DecodedRequest::Hello { id });
    }
    if !is_work_tag(tag) {
        return Err(ProtoError::BadTag(tag));
    }
    decode_request(body).map(DecodedRequest::Kernel)
}

/// Encodes a response frame body (no length prefix). The status byte
/// carries [`REROUTED_FLAG`] when `frame.rerouted` is set; everything
/// after the status byte is identical either way, which is what lets
/// the router flag a shard's response without re-encoding the payload.
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.put_u64_le(frame.id);
    let status_at = out.len();
    match &frame.result {
        Ok(ServePayload::Kinematics { poses, cycles }) => {
            out.put_u8(STATUS_OK_FK);
            out.put_u32_le(poses.len() as u32);
            put_f64s(&mut out, poses);
            out.put_u64_le(*cycles);
        }
        Ok(ServePayload::InverseDynamics { tau, cycles }) => {
            out.put_u8(STATUS_OK_ID);
            out.put_u32_le(tau.len() as u32);
            put_f64s(&mut out, tau);
            out.put_u64_le(*cycles);
        }
        Ok(ServePayload::Gradient {
            tau,
            dqdd_dq,
            dqdd_dqd,
            cycles,
        }) => {
            out.put_u8(STATUS_OK_GRAD);
            out.put_u32_le(tau.len() as u32);
            put_f64s(&mut out, tau);
            put_f64s(&mut out, dqdd_dq);
            put_f64s(&mut out, dqdd_dqd);
            out.put_u64_le(*cycles);
        }
        Ok(ServePayload::Rollout {
            steps,
            q_final,
            qd_final,
            tau,
            dqdd_dq,
            dqdd_dqd,
            cycles,
        }) => {
            out.put_u8(STATUS_OK_ROLLOUT);
            out.put_u32_le(*steps);
            out.put_u32_le(tau.len() as u32);
            put_f64s(&mut out, q_final);
            put_f64s(&mut out, qd_final);
            put_f64s(&mut out, tau);
            put_f64s(&mut out, dqdd_dq);
            put_f64s(&mut out, dqdd_dqd);
            out.put_u64_le(*cycles);
        }
        Ok(ServePayload::Mixed {
            tau,
            dqdd_dq,
            dqdd_dqd,
            poses,
            cycles,
        }) => {
            out.put_u8(STATUS_OK_MIXED);
            out.put_u32_le(tau.len() as u32);
            out.put_u32_le(poses.len() as u32);
            put_f64s(&mut out, tau);
            put_f64s(&mut out, dqdd_dq);
            put_f64s(&mut out, dqdd_dqd);
            put_f64s(&mut out, poses);
            out.put_u64_le(*cycles);
        }
        Err(ServeError::Rejected { reason }) => {
            out.put_u8(STATUS_REJECTED);
            out.put_u32_le(reason.len() as u32);
            out.put_slice(reason.as_bytes());
        }
        Err(ServeError::DeadlineExceeded) => out.put_u8(STATUS_DEADLINE),
        Err(ServeError::UnknownRobot(name)) => {
            out.put_u8(STATUS_UNKNOWN_ROBOT);
            out.put_u32_le(name.len() as u32);
            out.put_slice(name.as_bytes());
        }
        Err(ServeError::BadRequest(msg)) => {
            out.put_u8(STATUS_BAD_REQUEST);
            out.put_u32_le(msg.len() as u32);
            out.put_slice(msg.as_bytes());
        }
        Err(ServeError::WorkerCrashed) => out.put_u8(STATUS_WORKER_CRASHED),
        Ok(ServePayload::Degraded {
            kind,
            cycles,
            clock_ns,
            latency_us,
        }) => {
            out.put_u8(STATUS_DEGRADED);
            out.put_u8(kind_tag(*kind));
            out.put_u64_le(*cycles);
            out.put_f64_le(*clock_ns);
            out.put_f64_le(*latency_us);
        }
        Ok(ServePayload::Health(report)) => {
            out.put_u8(STATUS_HEALTH);
            out.put_u8(u8::from(report.ready));
            out.put_u32_le(report.robots.len() as u32);
            for r in &report.robots {
                out.put_u32_le(r.name.len() as u32);
                out.put_slice(r.name.as_bytes());
                out.put_u8(r.circuit.tag());
                out.put_u32_le(r.workers_alive);
            }
        }
    }
    if frame.rerouted {
        out[status_at] |= REROUTED_FLAG;
    }
    out
}

/// Decodes a response frame body.
///
/// # Errors
///
/// [`ProtoError`] on truncation, an unknown status tag, or an
/// implausible length field. Gradient payload sizes are derived from
/// the torque vector's length `n` (`n²` per gradient).
pub fn decode_response(body: &[u8]) -> Result<ResponseFrame, ProtoError> {
    let mut r = Reader { buf: body };
    let id = r.u64()?;
    let raw_status = r.u8()?;
    let rerouted = raw_status & REROUTED_FLAG != 0;
    let status = raw_status & !REROUTED_FLAG;
    let result = match status {
        STATUS_OK_FK => {
            let count = r.count(8)?;
            let poses = r.f64s(count)?;
            let cycles = r.u64()?;
            Ok(ServePayload::Kinematics { poses, cycles })
        }
        STATUS_OK_ID => {
            let n = r.count(8)?;
            let tau = r.f64s(n)?;
            let cycles = r.u64()?;
            Ok(ServePayload::InverseDynamics { tau, cycles })
        }
        STATUS_OK_GRAD => {
            let n = r.count(8)?;
            if n.saturating_mul(n).saturating_mul(8) > MAX_FRAME {
                return Err(ProtoError::BadLength(n as u64));
            }
            let tau = r.f64s(n)?;
            let dqdd_dq = r.f64s(n * n)?;
            let dqdd_dqd = r.f64s(n * n)?;
            let cycles = r.u64()?;
            Ok(ServePayload::Gradient {
                tau,
                dqdd_dq,
                dqdd_dqd,
                cycles,
            })
        }
        STATUS_OK_ROLLOUT => {
            let steps = r.u32()?;
            let n = r.count(8)?;
            if n.saturating_mul(n).saturating_mul(8) > MAX_FRAME {
                return Err(ProtoError::BadLength(n as u64));
            }
            let q_final = r.f64s(n)?;
            let qd_final = r.f64s(n)?;
            let tau = r.f64s(n)?;
            let dqdd_dq = r.f64s(n * n)?;
            let dqdd_dqd = r.f64s(n * n)?;
            let cycles = r.u64()?;
            Ok(ServePayload::Rollout {
                steps,
                q_final,
                qd_final,
                tau,
                dqdd_dq,
                dqdd_dqd,
                cycles,
            })
        }
        STATUS_OK_MIXED => {
            let n = r.count(8)?;
            if n.saturating_mul(n).saturating_mul(8) > MAX_FRAME {
                return Err(ProtoError::BadLength(n as u64));
            }
            let poses_len = r.count(8)?;
            let tau = r.f64s(n)?;
            let dqdd_dq = r.f64s(n * n)?;
            let dqdd_dqd = r.f64s(n * n)?;
            let poses = r.f64s(poses_len)?;
            let cycles = r.u64()?;
            Ok(ServePayload::Mixed {
                tau,
                dqdd_dq,
                dqdd_dqd,
                poses,
                cycles,
            })
        }
        STATUS_REJECTED => Err(ServeError::Rejected {
            reason: r.string()?,
        }),
        STATUS_DEADLINE => Err(ServeError::DeadlineExceeded),
        STATUS_UNKNOWN_ROBOT => Err(ServeError::UnknownRobot(r.string()?)),
        STATUS_BAD_REQUEST => Err(ServeError::BadRequest(r.string()?)),
        STATUS_WORKER_CRASHED => Err(ServeError::WorkerCrashed),
        STATUS_DEGRADED => {
            let tag = r.u8()?;
            let kind = kind_from_tag(tag).ok_or(ProtoError::BadTag(tag))?;
            let cycles = r.u64()?;
            r.need(16)?;
            let clock_ns = f64::from_bits(r.u64()?);
            let latency_us = f64::from_bits(r.u64()?);
            Ok(ServePayload::Degraded {
                kind,
                cycles,
                clock_ns,
                latency_us,
            })
        }
        STATUS_HEALTH => {
            let ready = r.u8()? != 0;
            // Per robot: u32 name length, u8 circuit, u32 workers_alive.
            let count = r.count(9)?;
            let mut robots = Vec::with_capacity(count);
            for _ in 0..count {
                let name = r.string()?;
                let tag = r.u8()?;
                let circuit = CircuitState::from_tag(tag).ok_or(ProtoError::BadTag(tag))?;
                let workers_alive = r.u32()?;
                robots.push(RobotHealth {
                    name,
                    circuit,
                    workers_alive,
                });
            }
            Ok(ServePayload::Health(HealthReport { ready, robots }))
        }
        tag => return Err(ProtoError::BadTag(tag)),
    };
    Ok(ResponseFrame {
        id,
        result,
        rerouted,
    })
}

/// Writes one frame: `u32` LE length, `u32` LE FNV-1a checksum, body.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidInput` if `body` exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds MAX_FRAME", body.len()),
        ));
    }
    w.write_all(&frame_bytes(body))?;
    w.flush()
}

/// Reads and verifies one frame body. `Ok(None)` on clean end-of-stream
/// (EOF before any header byte); `UnexpectedEof` if the stream dies
/// mid-frame.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` carrying the
/// [`ProtoError::FrameTooLarge`] message for a length above
/// [`MAX_FRAME`], or the [`ProtoError::ChecksumMismatch`] message when
/// the body fails its integrity check.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let expected = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError::FrameTooLarge(len as u64).to_string(),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    if checksum(&body) != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError::ChecksumMismatch.to_string(),
        ));
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_including_deadline_and_kind() {
        let frame = RequestFrame {
            id: 42,
            req: ServeRequest::gradient("HyQ", vec![0.5; 12], vec![-0.25; 12], vec![1.0; 12])
                .with_deadline(Duration::from_micros(1500)),
        };
        let decoded = decode_request(&encode_request(&frame)).unwrap();
        assert_eq!(decoded, frame);

        let fk = RequestFrame {
            id: 7,
            req: ServeRequest::kinematics("iiwa", vec![f64::MIN_POSITIVE; 7]),
        };
        assert_eq!(decode_request(&encode_request(&fk)).unwrap(), fk);
    }

    #[test]
    fn response_round_trips_bit_exactly() {
        let frames = [
            ResponseFrame::direct(
                1,
                Ok(ServePayload::Gradient {
                    tau: vec![0.1, -0.0],
                    dqdd_dq: vec![1.0, 2.0, 3.0, 4.0],
                    dqdd_dqd: vec![5e-300, 0.0, -0.0, f64::MAX],
                    cycles: 321,
                }),
            ),
            ResponseFrame::direct(
                2,
                Err(ServeError::Rejected {
                    reason: "queue full".into(),
                }),
            ),
            ResponseFrame::direct(3, Err(ServeError::DeadlineExceeded)),
            ResponseFrame::direct(
                4,
                Err(ServeError::BadRequest("q dimension mismatch".into())),
            ),
        ];
        for frame in &frames {
            let decoded = decode_response(&encode_response(frame)).unwrap();
            assert_eq!(&decoded, frame);
        }
        // -0.0 == 0.0 under PartialEq; pin the sign bit explicitly.
        let body = encode_response(&frames[0]);
        let decoded = decode_response(&body).unwrap();
        if let Ok(ServePayload::Gradient { dqdd_dqd, .. }) = decoded.result {
            assert_eq!(dqdd_dqd[2].to_bits(), (-0.0f64).to_bits());
        } else {
            panic!("expected gradient payload");
        }
    }

    #[test]
    fn rollout_and_mixed_requests_round_trip() {
        let rollout = RequestFrame {
            id: 77,
            req: ServeRequest::rollout("iiwa", vec![0.3; 7], vec![0.1; 7], vec![0.5; 7], 16)
                .with_deadline(Duration::from_micros(40_000)),
        };
        let body = encode_request(&rollout);
        assert_eq!(body[8], KIND_ROLLOUT);
        assert_eq!(decode_request(&body).unwrap(), rollout);
        // The router's peek still reads id/robot without knowing the
        // steps field exists (it sits after the name).
        let route = peek_request_route(&body).unwrap();
        assert_eq!(route.id, 77);
        assert_eq!(route.robot.as_deref(), Some("iiwa"));

        let mixed = RequestFrame {
            id: 78,
            req: ServeRequest::mixed("HyQ", vec![0.2; 12], vec![-0.1; 12], vec![0.0; 12]),
        };
        let body = encode_request(&mixed);
        assert_eq!(body[8], KIND_MIXED);
        assert_eq!(decode_request(&body).unwrap(), mixed);
        assert_eq!(
            peek_request_route(&body).unwrap().robot.as_deref(),
            Some("HyQ")
        );
    }

    #[test]
    fn rollout_and_mixed_responses_round_trip_bit_exactly() {
        let frames = [
            ResponseFrame::direct(
                21,
                Ok(ServePayload::Rollout {
                    steps: 16,
                    q_final: vec![0.25, -0.0],
                    qd_final: vec![5e-300, f64::MAX],
                    tau: vec![1.5, -2.5],
                    dqdd_dq: vec![1.0, 2.0, 3.0, 4.0],
                    dqdd_dqd: vec![-1.0, -2.0, -3.0, -4.0],
                    cycles: 4096,
                }),
            ),
            ResponseFrame::direct(
                22,
                Ok(ServePayload::Mixed {
                    tau: vec![0.5, -0.5],
                    dqdd_dq: vec![9.0, 8.0, 7.0, 6.0],
                    dqdd_dqd: vec![0.0, -0.0, 1.0, 2.0],
                    poses: vec![0.125; 24],
                    cycles: 777,
                }),
            ),
        ];
        for frame in &frames {
            let body = encode_response(frame);
            assert_eq!(&decode_response(&body).unwrap(), frame);
        }
        // Pin -0.0's sign bit through the rollout arm.
        let body = encode_response(&frames[0]);
        if let Ok(ServePayload::Rollout { q_final, .. }) = decode_response(&body).unwrap().result {
            assert_eq!(q_final[1].to_bits(), (-0.0f64).to_bits());
        } else {
            panic!("expected rollout payload");
        }
    }

    #[test]
    fn zero_step_rollout_survives_the_wire_for_server_side_rejection() {
        // Validation lives in the engine, not the codec: a steps=0 frame
        // decodes fine and is rejected as a BadRequest by `submit`.
        let frame = RequestFrame {
            id: 1,
            req: ServeRequest::rollout("iiwa", vec![0.0; 7], vec![0.0; 7], vec![0.0; 7], 0),
        };
        assert_eq!(decode_request(&encode_request(&frame)).unwrap(), frame);
    }

    #[test]
    fn malformed_bodies_are_typed_errors_not_panics() {
        assert_eq!(decode_request(&[]).unwrap_err(), ProtoError::Truncated);
        let mut body = encode_request(&RequestFrame {
            id: 9,
            req: ServeRequest::kinematics("iiwa", vec![0.0; 7]),
        });
        body[8] = 0xEE; // kind tag
        assert_eq!(decode_request(&body).unwrap_err(), ProtoError::BadTag(0xEE));

        let mut resp =
            encode_response(&ResponseFrame::direct(1, Err(ServeError::DeadlineExceeded)));
        resp.truncate(5);
        assert_eq!(decode_response(&resp).unwrap_err(), ProtoError::Truncated);

        // A huge element count must be rejected before allocation.
        let mut req = Vec::new();
        req.put_u64_le(1);
        req.put_u8(0);
        req.put_u64_le(NO_DEADLINE);
        req.put_u32_le(1);
        req.put_slice(b"x");
        req.put_u32_le(u32::MAX);
        assert!(matches!(
            decode_request(&req).unwrap_err(),
            ProtoError::BadLength(_)
        ));
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn resilience_statuses_round_trip() {
        let frames = [
            ResponseFrame::direct(5, Err(ServeError::WorkerCrashed)),
            ResponseFrame::direct(
                6,
                Ok(ServePayload::Degraded {
                    kind: KernelKind::DynamicsGradient,
                    cycles: 1234,
                    clock_ns: 1.75,
                    latency_us: 2.159e-3,
                }),
            ),
            ResponseFrame::direct(
                7,
                Ok(ServePayload::Health(HealthReport {
                    ready: true,
                    robots: vec![
                        RobotHealth {
                            name: "iiwa".into(),
                            circuit: CircuitState::Closed,
                            workers_alive: 2,
                        },
                        RobotHealth {
                            name: "hyq".into(),
                            circuit: CircuitState::Open,
                            workers_alive: 0,
                        },
                    ],
                })),
            ),
        ];
        for frame in &frames {
            let decoded = decode_response(&encode_response(frame)).unwrap();
            assert_eq!(&decoded, frame);
        }
    }

    #[test]
    fn rerouted_flag_round_trips_on_any_status() {
        let mut frame = ResponseFrame::direct(
            11,
            Ok(ServePayload::InverseDynamics {
                tau: vec![0.5, -1.25],
                cycles: 99,
            }),
        );
        frame.rerouted = true;
        let body = encode_response(&frame);
        assert_eq!(body[8] & REROUTED_FLAG, REROUTED_FLAG);
        let decoded = decode_response(&body).unwrap();
        assert!(decoded.rerouted);
        assert_eq!(decoded, frame);
        // The payload bytes after the status byte are identical to the
        // direct encoding — the flag is purely a status-bit overlay.
        frame.rerouted = false;
        let direct = encode_response(&frame);
        assert_eq!(&body[9..], &direct[9..]);
    }

    #[test]
    fn hello_frames_round_trip_and_are_recognised() {
        let req = encode_hello_request(5);
        assert_eq!(
            decode_any_request(&req).unwrap(),
            DecodedRequest::Hello { id: 5 }
        );
        let info = HelloInfo {
            shard: "shard-a".into(),
            robots: vec!["iiwa".into(), "HyQ".into()],
        };
        let body = encode_hello_response(5, &info);
        assert!(status_is_hello(body[8]));
        assert_eq!(decode_hello_response(&body).unwrap(), (5, info));
        // A hello reply is not a client-facing response status.
        assert!(matches!(
            decode_response(&body).unwrap_err(),
            ProtoError::BadTag(_)
        ));
    }

    #[test]
    fn peek_route_reads_the_head_without_the_payload() {
        let frame = RequestFrame {
            id: 314,
            req: ServeRequest::gradient("minitaur", vec![0.1; 8], vec![0.2; 8], vec![0.3; 8]),
        };
        let body = encode_request(&frame);
        let route = peek_request_route(&body).unwrap();
        assert_eq!(route.id, 314);
        assert_eq!(route.robot.as_deref(), Some("minitaur"));
        assert!(!route.is_health);
        assert!(
            peek_request_route(&encode_health_request(9))
                .unwrap()
                .is_health
        );

        let (id, status) = peek_response_head(&body).unwrap();
        assert_eq!(id, 314);
        assert_eq!(status, 2, "kind tag doubles as the peeked byte here");
    }

    #[test]
    fn rewrite_id_patches_only_the_head() {
        let frame = ResponseFrame::direct(
            1,
            Ok(ServePayload::Kinematics {
                poses: vec![1.5; 12],
                cycles: 7,
            }),
        );
        let mut body = encode_response(&frame);
        let original_tail = body[9..].to_vec();
        rewrite_id(&mut body, 0xDEAD_BEEF, true);
        let decoded = decode_response(&body).unwrap();
        assert_eq!(decoded.id, 0xDEAD_BEEF);
        assert!(decoded.rerouted);
        assert_eq!(&body[9..], &original_tail[..], "payload untouched");
    }

    #[test]
    fn health_request_round_trips_and_kernel_requests_still_decode() {
        let probe = encode_health_request(77);
        assert_eq!(
            decode_any_request(&probe).unwrap(),
            DecodedRequest::Health { id: 77 }
        );
        let kernel = RequestFrame {
            id: 3,
            req: ServeRequest::kinematics("iiwa", vec![0.25; 7]),
        };
        assert_eq!(
            decode_any_request(&encode_request(&kernel)).unwrap(),
            DecodedRequest::Kernel(kernel)
        );
    }

    #[test]
    fn corrupted_frame_bodies_fail_the_checksum() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload-bytes").unwrap();
        // Flip one bit of the body (past the 8-byte header).
        wire[HEADER_LEN + 3] ^= 0x10;
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn oversized_declared_length_is_a_typed_frame_error() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }
}
