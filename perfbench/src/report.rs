//! The result line, summary statistics, peak memory, and the span
//! recorder behind the per-layer metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Operations attempted and failed in one run. Every correctness check
/// counts as one attempted operation, as does every request sent at a
/// fixed offered rate.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one check; a failure is counted and explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// The JSON object a run prints as the last line of its standard output.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && finite,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value has already made `correct` false, and JSON
        // has no spelling for it.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Nearest-rank percentile of an ascending slice, `q` in `0..=1`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Peak resident memory of this process in MiB: the kernel's high-water
/// mark `ru_maxrss`, the figure `/proc/self/status` shows as `VmHWM`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        _times: [i64; 4],
        maxrss_kib: i64,
        _rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: std::ffi::c_int, usage: *mut Rusage) -> std::ffi::c_int;
    }
    const RUSAGE_SELF: std::ffi::c_int = 0;
    let mut usage = Rusage {
        _times: [0; 4],
        maxrss_kib: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a writable `struct rusage` of the layout above
    // that outlives the call; the kernel only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss_kib as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

/// CPU time every thread of this process has used so far, in seconds.
///
/// Timings of work that does not wait on the wire are taken in CPU time:
/// on a shared virtual machine, the host can withhold the CPUs from the
/// whole machine for a hundred milliseconds and more, which inflates
/// wall-clock time but not the CPU time the guest kernel accounts to the
/// process (it counts such time as stolen).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut tp = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `tp` is a writable `struct timespec` of the 64-bit Linux
    // layout that outlives the call; the kernel only writes into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut tp) };
    if rc == 0 {
        tp.sec as f64 + tp.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_s() -> f64 {
    f64::NAN
}

/// Spans this benchmark records around its calls into each layer. One
/// span may cover `count` operations, so calls too short to time one by
/// one still get a per-operation cost.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

struct Span {
    name: &'static str,
    dur: Duration,
    count: u64,
}

impl Tracer {
    /// Times one call of `f` as one operation of `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_n(name, 1, f)
    }

    /// Times `f`, which performs `count` operations of `name`.
    pub fn span_n<T>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.spans.push(Span { name, dur, count });
        out
    }

    /// The tracer's own cost as a percentage of the time its spans cover:
    /// the cost of recording one empty span, measured here, times the
    /// spans recorded. The end-to-end run records none, so this is how
    /// much longer the traced run's layers took for being traced.
    pub fn overhead_pct(&self) -> f64 {
        const PROBES: usize = 100_000;
        let mut probe = Tracer {
            spans: Vec::with_capacity(PROBES),
        };
        let start = Instant::now();
        for _ in 0..PROBES {
            probe.span("probe", || ());
        }
        let per_span = start.elapsed().as_secs_f64() / PROBES as f64;
        let covered: f64 = self.spans.iter().map(|s| s.dur.as_secs_f64()).sum();
        100.0 * per_span * self.spans.len() as f64 / covered
    }

    /// Mean nanoseconds per operation over every span named `name`.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (ns, ops) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0u64), |(ns, ops), s| {
                (ns + s.dur.as_nanos() as f64, ops + s.count)
            });
        if ops == 0 {
            f64::NAN
        } else {
            ns / ops as f64
        }
    }

    /// Writes the recorded spans, summarised per name, to stderr.
    pub fn write_summary(&self) {
        let mut by_name: BTreeMap<&str, (u64, u64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.count;
            e.2 += s.dur.as_secs_f64();
        }
        eprintln!(
            "{:<28} {:>8} {:>10} {:>12}",
            "span", "spans", "ops", "mean_ns"
        );
        for (name, (spans, ops, total)) in by_name {
            let mean = total * 1e9 / ops.max(1) as f64;
            eprintln!("{name:<28} {spans:>8} {ops:>10} {mean:>12.1}");
        }
    }
}
