//! The benchmark's own open-loop load generator, and its in-process twin.
//!
//! Requests go out on a fixed arrival schedule whatever the server does,
//! and each latency runs from the request's *due* time to its decoded
//! response, so a stall also charges every request due behind it. One
//! thread sends on both connections while a second reads the responses
//! of both as they arrive, so no latency includes time spent waiting for
//! the rest of the schedule to go out. The sender records how late it
//! issued each request.

use crate::inputs::{arrivals, joint_state, Rng, Robot};
use crate::report::percentile;
use roboshape_serve::net::poll::{Interest, Poller};
use roboshape_serve::net::{FrameConn, ReadOutcome};
use roboshape_serve::proto::{decode_response, encode_request, frame_bytes, RequestFrame};
use roboshape_serve::{Engine, ServeError, ServePayload, ServeRequest, ServeResult, Ticket};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Connections the generator opens and threads it runs: one of each per
/// CPU of the 2-CPU reference machine.
const CONNECTIONS: usize = 2;
/// How long the receiver waits for stragglers after the last send, and
/// the sender for a peer that stopped reading.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);
/// Time between arming a run and its first due time.
const LEAD: Duration = Duration::from_millis(20);

/// The requests of a serving workload.
pub struct Traffic<'a> {
    pub robots: &'a [Robot],
    pub deadline: Duration,
}

impl Traffic<'_> {
    /// ∇FD request `i` of the schedule seeded with `seed`, with the index of
    /// its robot. Each request draws from a stream of its own, so any one
    /// can be rebuilt later to check its response.
    ///
    /// Robots take turns in a seeded order, each once per round, so that
    /// every stretch of the run carries the same mix of robot sizes.
    pub fn request(&self, seed: u64, i: usize) -> (usize, ServeRequest) {
        let n = self.robots.len();
        let mut order = Rng::stream(seed, u64::MAX - 1);
        let offset = order.below(n);
        let stride = loop {
            let stride = 1 + order.below(n);
            if gcd(stride, n) == 1 {
                break stride;
            }
        };
        let r = (offset + stride * (i % n)) % n;
        let mut rng = Rng::stream(seed, i as u64);
        let robot = &self.robots[r];
        let (q, qd, tau) = joint_state(&mut rng, robot.model.num_links());
        let req = ServeRequest::gradient(robot.name.clone(), q, qd, tau);
        (r, req.with_deadline(self.deadline))
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A fixed open-loop arrival schedule.
pub struct Schedule {
    /// Seeds the arrivals and every request (see [`Traffic::request`]).
    pub seed: u64,
    pub due_ns: Vec<u64>,
}

impl Schedule {
    pub fn open_loop(seed: u64, rate: f64, seconds: f64, burst: usize) -> Schedule {
        let due_ns = arrivals(&mut Rng::stream(seed, u64::MAX), rate, seconds, burst);
        Schedule { seed, due_ns }
    }
}

/// How one run went.
pub struct RunStats {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub deadline: u64,
    pub errors: u64,
    pub lost: u64,
    /// Payloads of the sampled requests, for the correctness checks.
    pub samples: Vec<(usize, ServePayload)>,
    /// Due-to-response latency of each request in µs, ascending once the
    /// run has finished; a failed or lost request stays infinitely late.
    latency_us: Vec<f64>,
    /// How late each request was issued, µs, ascending.
    late_us: Vec<f64>,
}

impl RunStats {
    fn new(n: usize) -> RunStats {
        RunStats {
            sent: n as u64,
            ok: 0,
            shed: 0,
            deadline: 0,
            errors: 0,
            lost: 0,
            samples: Vec::new(),
            latency_us: vec![f64::INFINITY; n],
            late_us: Vec::new(),
        }
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.deadline + self.errors + self.lost
    }

    /// Median latency over every request of the run.
    pub fn p50_us(&self) -> f64 {
        percentile(&self.latency_us, 0.50)
    }

    /// 90th-percentile latency over every request of the run.
    pub fn p90_us(&self) -> f64 {
        percentile(&self.latency_us, 0.90)
    }

    /// 99th-percentile latency over every request of the run.
    pub fn p99_us(&self) -> f64 {
        percentile(&self.latency_us, 0.99)
    }

    pub fn late_p99_us(&self) -> f64 {
        percentile(&self.late_us, 0.99)
    }

    fn settle(&mut self, i: usize, result: ServeResult, latency_us: f64, sample: bool) {
        match result {
            Ok(payload) if !payload.is_degraded() => {
                self.ok += 1;
                self.latency_us[i] = latency_us;
                if sample {
                    self.samples.push((i, payload));
                }
            }
            Err(ServeError::Rejected { .. }) => self.shed += 1,
            Err(ServeError::DeadlineExceeded) => self.deadline += 1,
            // A degraded answer means the robot's circuit opened.
            Ok(_) | Err(_) => self.errors += 1,
        }
    }

    fn finish(mut self, late_us: Vec<f64>) -> RunStats {
        self.latency_us.sort_by(f64::total_cmp);
        self.late_us = late_us;
        self.late_us.sort_by(f64::total_cmp);
        self
    }
}

/// Lowers the calling thread's timer slack to 1 ns so that its sleeps
/// end on time; Linux's default 50 µs slack would otherwise show up as
/// generator lateness.
#[cfg(target_os = "linux")]
fn precise_sleeps() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long and changes only
    // the calling thread's timer slack; on failure the default remains.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn precise_sleeps() {}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// Nanoseconds from `start` to now (0 before `start`).
fn since(start: Instant) -> u64 {
    Instant::now().saturating_duration_since(start).as_nanos() as u64
}

#[derive(Default)]
struct Progress {
    sent_all: AtomicBool,
    sent_all_ns: AtomicU64,
}

/// Plays `sched` against the server at `addr` over [`CONNECTIONS`]
/// connections. Every `sample_every`-th payload (none for 0) is kept for
/// the correctness checks.
pub fn run_tcp(
    addr: SocketAddr,
    traffic: &Traffic,
    sched: &Schedule,
    sample_every: usize,
) -> io::Result<RunStats> {
    let mut writers = Vec::with_capacity(CONNECTIONS);
    let mut readers = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let stream = TcpStream::connect(addr)?;
        readers.push(FrameConn::new(stream.try_clone()?)?);
        writers.push(stream);
    }
    let progress = Progress::default();
    let start = Instant::now() + LEAD;
    let (sent, received) = thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(readers, sched, start, sample_every, &progress));
        let sender = scope.spawn(|| send(writers, traffic, sched, start, &progress));
        (
            sender.join().expect("the sender thread panicked"),
            receiver.join().expect("the receiver thread panicked"),
        )
    });
    Ok(received?.finish(sent))
}

fn send(
    mut writers: Vec<TcpStream>,
    traffic: &Traffic,
    sched: &Schedule,
    start: Instant,
    progress: &Progress,
) -> Vec<f64> {
    precise_sleeps();
    let n = sched.due_ns.len();
    let mut late_us = Vec::with_capacity(n);
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); CONNECTIONS];
    let mut alive = [true; CONNECTIONS];
    let mut i = 0;
    while i < n {
        sleep_until(start + Duration::from_nanos(sched.due_ns[i]));
        // Everything due by now goes out, in one write per connection.
        while i < n {
            let now_ns = since(start);
            if sched.due_ns[i] > now_ns {
                break;
            }
            late_us.push((now_ns - sched.due_ns[i]) as f64 / 1e3);
            let (_, req) = traffic.request(sched.seed, i);
            let body = encode_request(&RequestFrame {
                id: i as u64 + 1,
                req,
            });
            pending[i % CONNECTIONS].extend_from_slice(&frame_bytes(&body));
            i += 1;
        }
        for ((writer, bytes), open) in writers.iter_mut().zip(&mut pending).zip(&mut alive) {
            if bytes.is_empty() {
                continue;
            }
            if *open && write_all(writer, bytes).is_err() {
                *open = false;
            }
            bytes.clear();
        }
    }
    progress.sent_all_ns.store(since(start), Ordering::SeqCst);
    progress.sent_all.store(true, Ordering::SeqCst);
    late_us
}

/// `write_all` for a non-blocking socket: waits out `WouldBlock`, but
/// gives up on a peer that stops reading for a whole drain timeout.
fn write_all(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    let mut stalled: Option<Instant> = None;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => {
                bytes = &bytes[k..];
                stalled = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if stalled.get_or_insert_with(Instant::now).elapsed() > DRAIN_TIMEOUT {
                    return Err(e);
                }
                thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn receive(
    mut readers: Vec<FrameConn>,
    sched: &Schedule,
    start: Instant,
    sample_every: usize,
    progress: &Progress,
) -> io::Result<RunStats> {
    let n = sched.due_ns.len();
    let mut poller = Poller::new()?;
    for (k, conn) in readers.iter().enumerate() {
        poller.register(conn.fd(), k as u64, Interest::READABLE)?;
    }
    let mut open = vec![true; readers.len()];
    let mut answered = vec![false; n];
    let mut got = 0u64;
    let mut stats = RunStats::new(n);
    let mut events = Vec::new();
    while open.contains(&true) {
        if progress.sent_all.load(Ordering::SeqCst) {
            let waited = since(start).saturating_sub(progress.sent_all_ns.load(Ordering::SeqCst));
            if got == n as u64 || waited > DRAIN_TIMEOUT.as_nanos() as u64 {
                break;
            }
        }
        events.clear();
        poller.wait(&mut events, Some(Duration::from_millis(2)))?;
        for event in &events {
            let k = event.token as usize;
            if !open[k] {
                continue;
            }
            let outcome = readers[k].read_frames(|body| {
                let decoded = decode_response(&body);
                let now_ns = since(start);
                let Ok(frame) = decoded else {
                    stats.errors += 1;
                    return;
                };
                let Some(i) = (frame.id as usize)
                    .checked_sub(1)
                    .filter(|&i| i < n && !answered[i])
                else {
                    stats.errors += 1;
                    return;
                };
                answered[i] = true;
                got += 1;
                let latency_us = now_ns.saturating_sub(sched.due_ns[i]) as f64 / 1e3;
                let sample = sample_every > 0 && i % sample_every == 0;
                stats.settle(i, frame.result, latency_us, sample);
            });
            if outcome != ReadOutcome::Open {
                open[k] = false;
                let _ = poller.deregister(readers[k].fd());
            }
        }
    }
    stats.lost = n as u64 - got;
    Ok(stats)
}

/// Plays `sched` straight into `engine` through `Engine::submit`, with
/// no wire in between: each latency runs from the due time to the moment
/// the ticket resolves, stamped by a `Ticket::watch` callback.
pub fn run_engine(engine: &Engine, traffic: &Traffic, sched: &Schedule) -> RunStats {
    let n = sched.due_ns.len();
    let start = Instant::now() + LEAD;
    let resolved_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..n).map(|_| AtomicU64::new(u64::MAX)).collect());
    let (mut stats, tickets, late_us) = thread::scope(|scope| {
        scope
            .spawn(|| {
                precise_sleeps();
                let mut stats = RunStats::new(n);
                let mut tickets: Vec<(usize, Ticket)> = Vec::with_capacity(n);
                let mut late_us = Vec::with_capacity(n);
                for i in 0..n {
                    sleep_until(start + Duration::from_nanos(sched.due_ns[i]));
                    late_us.push(since(start).saturating_sub(sched.due_ns[i]) as f64 / 1e3);
                    let (_, req) = traffic.request(sched.seed, i);
                    match engine.submit(req) {
                        Ok(ticket) => {
                            let resolved = Arc::clone(&resolved_ns);
                            ticket.watch(move || resolved[i].store(since(start), Ordering::SeqCst));
                            tickets.push((i, ticket));
                        }
                        Err(e) => stats.settle(i, Err(e), f64::INFINITY, false),
                    }
                }
                (stats, tickets, late_us)
            })
            .join()
            .expect("the submitter thread panicked")
    });
    for (i, ticket) in tickets {
        let result = ticket.wait();
        // The watcher runs just after the result is published.
        let done_ns = loop {
            let stamp = resolved_ns[i].load(Ordering::SeqCst);
            if stamp != u64::MAX {
                break stamp;
            }
            thread::yield_now();
        };
        let latency_us = done_ns.saturating_sub(sched.due_ns[i]) as f64 / 1e3;
        stats.settle(i, result, latency_us, false);
    }
    stats.finish(late_us)
}
