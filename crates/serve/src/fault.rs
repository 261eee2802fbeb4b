//! Deterministic fault injection and the circuit breaker that rides
//! along with it.
//!
//! Chaos here is *planned*, not random: a [`FaultPlan`] is a pure
//! function of `(seed, site, key)`, where the key is a stable identity
//! (a request's admission sequence number, a response frame's
//! correlation id). Two runs with the same seed therefore inject the
//! same faults at the same logical points regardless of thread timing —
//! the soak tests rely on that to assert identical fault schedules and
//! identical fault counters across runs.
//!
//! Four fault sites exist, mirroring what long-running robot stacks
//! actually see:
//!
//! * [`FaultSite::WorkerStall`] — a worker sleeps for a bounded,
//!   deterministic duration before executing (a GC pause, a bus hiccup).
//! * [`FaultSite::WorkerCrash`] — an accelerator instance dies
//!   mid-execution; the engine drops its scratch, replaces it, and the
//!   in-flight tickets resolve to the retryable
//!   [`crate::ServeError::WorkerCrashed`].
//! * [`FaultSite::QueuePressure`] — admission behaves as if the queue
//!   were full, shedding the request (exercises client backoff).
//! * [`FaultSite::FrameCorrupt`] — a response frame is damaged on the
//!   wire (bit flip, truncation, or an oversized length prefix); the
//!   frame checksum lets the client detect and retry.
//!
//! The [`CircuitBreaker`] is the per-robot health latch the engine uses
//! to stop sending traffic at a crashing worker pool: it opens after
//! `threshold` consecutive failures, answers requests from the
//! analytical clock-period model while open (tagged degraded), and
//! half-opens after `cooldown` to let one probe through.

use roboshape_obs::hash::splitmix64;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Injection rates for the four fault sites, plus the seed that makes
/// the whole schedule deterministic. Rates are probabilities in
/// `[0, 1]` evaluated independently per site per key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic decision hash.
    pub seed: u64,
    /// Probability a request's execution is preceded by a stall.
    pub stall: f64,
    /// Probability a request's execution panics the worker.
    pub crash: f64,
    /// Probability a response frame is corrupted on the wire.
    pub corrupt: f64,
    /// Probability an admission is shed as synthetic queue pressure.
    pub pressure: f64,
}

impl FaultConfig {
    /// One rate for every site — what the CLI's `--chaos SEED:RATE`
    /// builds.
    pub fn uniform(seed: u64, rate: f64) -> FaultConfig {
        let rate = rate.clamp(0.0, 1.0);
        FaultConfig {
            seed,
            stall: rate,
            crash: rate,
            corrupt: rate,
            pressure: rate,
        }
    }

    /// Parses the CLI's `SEED:RATE` syntax (e.g. `"7:0.05"`).
    ///
    /// # Errors
    ///
    /// A human-readable message if either half fails to parse or the
    /// rate is outside `[0, 1]`.
    pub fn parse(text: &str) -> Result<FaultConfig, String> {
        let (seed_text, rate_text) = text
            .split_once(':')
            .ok_or_else(|| format!("--chaos expects SEED:RATE, got `{text}`"))?;
        let seed: u64 = seed_text
            .parse()
            .map_err(|_| format!("--chaos seed must be an integer, got `{seed_text}`"))?;
        let rate: f64 = rate_text
            .parse()
            .map_err(|_| format!("--chaos rate must be a number, got `{rate_text}`"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--chaos rate must be in [0, 1], got {rate}"));
        }
        Ok(FaultConfig::uniform(seed, rate))
    }
}

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Worker sleeps before executing a request.
    WorkerStall,
    /// Worker panics while executing a request.
    WorkerCrash,
    /// A response frame is damaged on the wire.
    FrameCorrupt,
    /// Admission sheds the request as synthetic overload.
    QueuePressure,
}

impl FaultSite {
    fn salt(self) -> u64 {
        match self {
            FaultSite::WorkerStall => 0x5741_4c4c_5354_4c31,
            FaultSite::WorkerCrash => 0x4352_4153_4855_5232,
            FaultSite::FrameCorrupt => 0x434f_5252_4652_4d33,
            FaultSite::QueuePressure => 0x5052_4553_5155_4534,
        }
    }
}

/// How a frame is damaged when [`FaultSite::FrameCorrupt`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// One bit of the frame body is flipped (the checksum catches it).
    BitFlip,
    /// The tail of the encoded frame is dropped (desyncs the stream;
    /// the client's read budget catches it).
    Truncate,
    /// The length prefix is rewritten above the frame cap (the client's
    /// framing layer rejects it immediately).
    OversizedLength,
}

/// A deterministic fault schedule: pure decisions from `(seed, site,
/// key)`. Cheap to copy; the engine and the server each hold one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// A plan over `cfg`.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan { cfg }
    }

    /// The configuration this plan evaluates.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    fn hash(&self, site: FaultSite, key: u64) -> u64 {
        splitmix64(self.cfg.seed ^ site.salt() ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Whether the fault at `site` fires for `key`. Same `(seed, site,
    /// key)` → same answer, always.
    pub fn fires(&self, site: FaultSite, key: u64) -> bool {
        let rate = match site {
            FaultSite::WorkerStall => self.cfg.stall,
            FaultSite::WorkerCrash => self.cfg.crash,
            FaultSite::FrameCorrupt => self.cfg.corrupt,
            FaultSite::QueuePressure => self.cfg.pressure,
        };
        if rate <= 0.0 {
            return false;
        }
        // Top 53 bits → uniform in [0, 1) with full f64 precision.
        let u = (self.hash(site, key) >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// Deterministic stall duration for `key`: 1–8 ms. Bounded so a
    /// stalled worker delays, but never wedges, the pool.
    pub fn stall_duration(&self, key: u64) -> Duration {
        Duration::from_millis(1 + self.hash(FaultSite::WorkerStall, key.rotate_left(17)) % 8)
    }

    /// Deterministic corruption mode for `key`.
    pub fn corruption_mode(&self, key: u64) -> CorruptionMode {
        match self.hash(FaultSite::FrameCorrupt, key.rotate_left(29)) % 3 {
            0 => CorruptionMode::BitFlip,
            1 => CorruptionMode::Truncate,
            _ => CorruptionMode::OversizedLength,
        }
    }

    /// Damages a complete wire frame (8-byte header + body) in place,
    /// per the deterministic corruption mode for `key`. The damage is
    /// applied *after* the checksum was computed, so every mode is
    /// detectable at the receiver: a body bit flip fails the checksum, a
    /// truncation desyncs the stream (caught by the read timeout), and
    /// an oversized length prefix is rejected by the framing layer.
    pub fn corrupt_wire(&self, key: u64, wire: &mut Vec<u8>) {
        const HEADER: usize = 8;
        match self.corruption_mode(key) {
            CorruptionMode::BitFlip if wire.len() > HEADER => {
                let roll = self.hash(FaultSite::FrameCorrupt, key.rotate_left(41));
                let idx = HEADER + (roll as usize % (wire.len() - HEADER));
                let bit = (roll >> 32) % 8;
                wire[idx] ^= 1 << bit;
            }
            CorruptionMode::BitFlip => {
                // Degenerate empty body: flip in the checksum field.
                wire[HEADER - 1] ^= 1;
            }
            CorruptionMode::Truncate => {
                // Drop the tail; keep at least the header so the peer
                // commits to reading a body that never fully arrives.
                let keep = HEADER.max(wire.len() - wire.len().saturating_sub(HEADER) / 2 - 1);
                wire.truncate(keep);
            }
            CorruptionMode::OversizedLength => {
                wire[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: traffic flows to the workers.
    Closed,
    /// Tripped: requests are answered from the analytical model.
    Open,
    /// Cooling down: one probe request is allowed through.
    HalfOpen,
}

impl CircuitState {
    /// Stable wire tag (also used by the health endpoint).
    pub fn tag(self) -> u8 {
        match self {
            CircuitState::Closed => 0,
            CircuitState::Open => 1,
            CircuitState::HalfOpen => 2,
        }
    }

    /// Inverse of [`CircuitState::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<CircuitState> {
        match tag {
            0 => Some(CircuitState::Closed),
            1 => Some(CircuitState::Open),
            2 => Some(CircuitState::HalfOpen),
            _ => None,
        }
    }
}

impl fmt::Display for CircuitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitState::Closed => write!(f, "closed"),
            CircuitState::Open => write!(f, "open"),
            CircuitState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// What the breaker tells admission to do with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Circuit closed: enqueue normally.
    Normal,
    /// Circuit half-open and this request won the probe slot: enqueue
    /// it and report its outcome back via `on_success`/`on_failure`.
    Probe,
    /// Circuit open (or half-open with the probe already in flight):
    /// answer from the analytical model, tagged degraded.
    Degrade,
}

/// What a recorded failure did to the breaker — the caller uses this to
/// keep the trip counter and the open-circuit gauge consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureOutcome {
    /// The breaker state did not change (streak still below threshold,
    /// or already open).
    Unchanged,
    /// This failure tripped a closed breaker open (count a trip *and*
    /// bump the open-circuit gauge).
    Tripped,
    /// A failed half-open probe re-opened the breaker (count a trip but
    /// the gauge never dropped — do not bump it again).
    Reopened,
}

const STATE_CLOSED: u8 = 0;
const STATE_OPEN: u8 = 1;
const STATE_HALF_OPEN: u8 = 2;

/// A per-robot circuit breaker: `threshold` consecutive failures trip
/// it open; after `cooldown` it half-opens and admits a single probe.
/// All transitions are lock-free; time is measured against a private
/// epoch so the state fits in atomics.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    epoch: Instant,
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    opened_at_ns: AtomicU64,
    probe_in_flight: AtomicBool,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and half-opening `cooldown` after tripping.
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            epoch: Instant::now(),
            state: AtomicU8::new(STATE_CLOSED),
            consecutive_failures: AtomicU32::new(0),
            opened_at_ns: AtomicU64::new(0),
            probe_in_flight: AtomicBool::new(false),
        }
    }

    /// Current state (resolving an elapsed cooldown to `HalfOpen`).
    pub fn state(&self) -> CircuitState {
        match self.state.load(Ordering::SeqCst) {
            STATE_OPEN if self.cooldown_elapsed() => CircuitState::HalfOpen,
            STATE_OPEN => CircuitState::Open,
            STATE_HALF_OPEN => CircuitState::HalfOpen,
            _ => CircuitState::Closed,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    fn cooldown_elapsed(&self) -> bool {
        let opened = self.opened_at_ns.load(Ordering::SeqCst);
        self.now_ns().saturating_sub(opened)
            >= self.cooldown.as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Admission decision for one request.
    pub fn admit(&self) -> Admission {
        match self.state.load(Ordering::SeqCst) {
            STATE_CLOSED => Admission::Normal,
            STATE_HALF_OPEN => self.try_claim_probe(),
            _open => {
                if self.cooldown_elapsed() {
                    // Cooldown over: move to half-open, then race for
                    // the probe slot like everybody else.
                    self.state.store(STATE_HALF_OPEN, Ordering::SeqCst);
                    self.try_claim_probe()
                } else {
                    Admission::Degrade
                }
            }
        }
    }

    fn try_claim_probe(&self) -> Admission {
        if self
            .probe_in_flight
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            Admission::Probe
        } else {
            Admission::Degrade
        }
    }

    /// Records a successful execution. Returns `true` when this success
    /// closed a half-open circuit (the caller bumps the close counter).
    pub fn on_success(&self, was_probe: bool) -> bool {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        if was_probe {
            self.probe_in_flight.store(false, Ordering::SeqCst);
            return self
                .state
                .compare_exchange(
                    STATE_HALF_OPEN,
                    STATE_CLOSED,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok();
        }
        false
    }

    /// Records a failed execution (worker crash). The returned
    /// [`FailureOutcome`] says whether this failure changed the state —
    /// tripping closed→open versus re-opening after a failed probe are
    /// distinguished so the open-circuit gauge stays exact.
    pub fn on_failure(&self, was_probe: bool) -> FailureOutcome {
        if was_probe {
            self.probe_in_flight.store(false, Ordering::SeqCst);
            self.opened_at_ns.store(self.now_ns(), Ordering::SeqCst);
            self.consecutive_failures.store(0, Ordering::SeqCst);
            // A failed probe re-opens regardless of prior state.
            return if self.state.swap(STATE_OPEN, Ordering::SeqCst) != STATE_OPEN {
                FailureOutcome::Reopened
            } else {
                FailureOutcome::Unchanged
            };
        }
        let failures = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= self.threshold
            && self
                .state
                .compare_exchange(STATE_CLOSED, STATE_OPEN, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            self.opened_at_ns.store(self.now_ns(), Ordering::SeqCst);
            self.consecutive_failures.store(0, Ordering::SeqCst);
            return FailureOutcome::Tripped;
        }
        FailureOutcome::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = FaultPlan::new(FaultConfig::uniform(42, 0.2));
        let b = FaultPlan::new(FaultConfig::uniform(42, 0.2));
        let c = FaultPlan::new(FaultConfig::uniform(43, 0.2));
        let schedule = |p: &FaultPlan| -> Vec<bool> {
            (0..512)
                .flat_map(|k| {
                    [
                        p.fires(FaultSite::WorkerStall, k),
                        p.fires(FaultSite::WorkerCrash, k),
                        p.fires(FaultSite::FrameCorrupt, k),
                        p.fires(FaultSite::QueuePressure, k),
                    ]
                })
                .collect()
        };
        assert_eq!(schedule(&a), schedule(&b), "same seed, same schedule");
        assert_ne!(schedule(&a), schedule(&c), "different seed differs");
    }

    #[test]
    fn rates_are_roughly_honoured_and_zero_rate_never_fires() {
        let p = FaultPlan::new(FaultConfig::uniform(7, 0.25));
        let n = 4000;
        let fired = (0..n)
            .filter(|&k| p.fires(FaultSite::WorkerCrash, k))
            .count();
        let frac = fired as f64 / n as f64;
        assert!((0.18..0.32).contains(&frac), "got {frac}");

        let silent = FaultPlan::new(FaultConfig::uniform(7, 0.0));
        assert!((0..n).all(|k| !silent.fires(FaultSite::WorkerStall, k)));
        let always = FaultPlan::new(FaultConfig::uniform(7, 1.0));
        assert!((0..n).all(|k| always.fires(FaultSite::QueuePressure, k)));
    }

    #[test]
    fn stall_durations_are_bounded_and_modes_cycle() {
        let p = FaultPlan::new(FaultConfig::uniform(3, 1.0));
        let mut modes = [false; 3];
        for k in 0..256 {
            let d = p.stall_duration(k);
            assert!(d >= Duration::from_millis(1) && d <= Duration::from_millis(8));
            match p.corruption_mode(k) {
                CorruptionMode::BitFlip => modes[0] = true,
                CorruptionMode::Truncate => modes[1] = true,
                CorruptionMode::OversizedLength => modes[2] = true,
            }
        }
        assert_eq!(modes, [true; 3], "all corruption modes occur");
    }

    #[test]
    fn corrupt_wire_is_deterministic_and_always_changes_the_frame() {
        let p = FaultPlan::new(FaultConfig::uniform(9, 1.0));
        for key in 0..128u64 {
            let original: Vec<u8> = {
                let body = vec![0xAB; 64];
                let mut wire = Vec::new();
                wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
                wire.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
                wire.extend_from_slice(&body);
                wire
            };
            let mut a = original.clone();
            let mut b = original.clone();
            p.corrupt_wire(key, &mut a);
            p.corrupt_wire(key, &mut b);
            assert_eq!(a, b, "same key corrupts identically");
            assert_ne!(a, original, "corruption must damage the frame");
        }
    }

    #[test]
    fn parse_accepts_seed_colon_rate_and_rejects_garbage() {
        let cfg = FaultConfig::parse("7:0.05").unwrap();
        assert_eq!(cfg.seed, 7);
        assert!((cfg.crash - 0.05).abs() < 1e-12);
        assert!(FaultConfig::parse("7").is_err());
        assert!(FaultConfig::parse("x:0.5").is_err());
        assert!(FaultConfig::parse("7:nope").is_err());
        assert!(FaultConfig::parse("7:1.5").is_err());
    }

    #[test]
    fn breaker_trips_half_opens_and_recovers() {
        let b = CircuitBreaker::new(3, Duration::from_millis(5));
        assert_eq!(b.state(), CircuitState::Closed);
        assert_eq!(b.on_failure(false), FailureOutcome::Unchanged);
        assert_eq!(b.on_failure(false), FailureOutcome::Unchanged);
        assert_eq!(
            b.on_failure(false),
            FailureOutcome::Tripped,
            "third consecutive failure trips"
        );
        assert_eq!(b.state(), CircuitState::Open);
        assert_eq!(b.admit(), Admission::Degrade);

        std::thread::sleep(Duration::from_millis(8));
        assert_eq!(b.state(), CircuitState::HalfOpen);
        assert_eq!(b.admit(), Admission::Probe, "one probe wins");
        assert_eq!(b.admit(), Admission::Degrade, "second is degraded");
        assert!(b.on_success(true), "probe success closes");
        assert_eq!(b.state(), CircuitState::Closed);
        assert_eq!(b.admit(), Admission::Normal);
    }

    #[test]
    fn failed_probe_reopens_and_success_resets_failure_streak() {
        let b = CircuitBreaker::new(2, Duration::from_millis(2));
        b.on_failure(false);
        assert!(!b.on_success(false), "plain success closes nothing");
        assert_eq!(
            b.on_failure(false),
            FailureOutcome::Unchanged,
            "streak was reset; no trip yet"
        );
        assert_eq!(b.on_failure(false), FailureOutcome::Tripped, "now it trips");
        std::thread::sleep(Duration::from_millis(4));
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(
            b.on_failure(true),
            FailureOutcome::Reopened,
            "failed probe re-opens"
        );
        assert_eq!(b.admit(), Admission::Degrade, "cooldown restarted");
    }

    #[test]
    fn circuit_state_tags_round_trip() {
        for s in [
            CircuitState::Closed,
            CircuitState::Open,
            CircuitState::HalfOpen,
        ] {
            assert_eq!(CircuitState::from_tag(s.tag()), Some(s));
        }
        assert_eq!(CircuitState::from_tag(9), None);
    }
}
