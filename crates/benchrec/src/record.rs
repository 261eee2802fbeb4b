//! The [`BenchRecord`] schema: one benchmark run, summarized for the
//! history directory.
//!
//! A record is what `bench compare` consumes on both sides: the bench
//! name, the commit it measured, a machine fingerprint (so cross-machine
//! comparisons are flagged instead of silently trusted), whether the
//! run was smoke-sized, and a flat map of metrics. Every metric carries
//! its *direction* ([`MetricKind`]) and a *noise* estimate — the
//! relative spread observed across that run's repeated measurement
//! passes — which [`crate::compare`] turns into a per-metric tolerance
//! band. Keys are wall-clock-free (rates and quantiles, never dates),
//! so a record diffs cleanly against one taken months later.

use roboshape_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Schema version stamped into every record (bump on breaking layout
/// changes; `load` rejects versions it does not understand).
pub const SCHEMA_VERSION: u64 = 1;

/// Noise floor assigned to metrics recorded from a single measurement
/// pass (no spread to measure). 5% relative — roughly the run-to-run
/// jitter of the quietest Criterion numbers on an idle machine.
pub const DEFAULT_NOISE: f64 = 0.05;

/// What a metric's direction means for regression gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Throughputs, rates, speedups: a drop past the band is a
    /// regression.
    HigherIsBetter,
    /// Latency quantiles: a rise past the band is a regression.
    LowerIsBetter,
    /// Recorded for context, never gated (e.g. µs-scale compile times
    /// whose variance swamps any honest threshold).
    Informational,
}

impl MetricKind {
    /// The string stored in the JSON record.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::HigherIsBetter => "higher",
            MetricKind::LowerIsBetter => "lower",
            MetricKind::Informational => "info",
        }
    }

    fn parse(s: &str) -> Option<MetricKind> {
        match s {
            "higher" => Some(MetricKind::HigherIsBetter),
            "lower" => Some(MetricKind::LowerIsBetter),
            "info" => Some(MetricKind::Informational),
            _ => None,
        }
    }
}

/// Classifies a metric key by the repo's naming convention, documented
/// in docs/BENCHMARKS.md: throughput-shaped suffixes gate downward
/// moves, latency-shaped suffixes gate upward moves, everything else is
/// informational. Emitters may override (e.g. to demote a noisy
/// microsecond timing), but the convention keeps hand-written baselines
/// honest by default.
pub fn classify(key: &str) -> MetricKind {
    let lower = key.to_ascii_lowercase();
    if ["per_sec", "_rps", "per_s", "speedup", "throughput"]
        .iter()
        .any(|pat| lower.contains(pat))
    {
        return MetricKind::HigherIsBetter;
    }
    if ["p50", "p90", "p95", "p99", "latency", "_us", "_ms"]
        .iter()
        .any(|pat| lower.contains(pat))
    {
        return MetricKind::LowerIsBetter;
    }
    MetricKind::Informational
}

/// One recorded metric: value, gating direction, relative noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Gating direction.
    pub kind: MetricKind,
    /// Relative spread across this run's repeated passes
    /// (`(max − min) / best`); [`DEFAULT_NOISE`] when only one pass was
    /// measured.
    pub noise: f64,
}

/// The machine fingerprint a record was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available hardware parallelism at record time.
    pub cpus: u64,
    /// Whether the `simd` cargo feature (explicit AVX intrinsics) was
    /// active in the emitting build.
    pub simd: bool,
}

impl MachineInfo {
    /// Detects the current machine. `simd` is passed in because cargo
    /// features are per-crate: only the emitting bench knows its build.
    pub fn detect(simd: bool) -> MachineInfo {
        MachineInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            simd,
        }
    }

    /// Whether two fingerprints describe comparable machines. CPU count
    /// participates (a 4-core and a 64-core box are not comparable for
    /// throughput), the `simd` flag does not — the lane backend is
    /// bit-identical either way and the delta is exactly what a compare
    /// should surface.
    pub fn comparable_to(&self, other: &MachineInfo) -> bool {
        self.os == other.os && self.arch == other.arch && self.cpus == other.cpus
    }
}

/// Typed failure loading or interpreting a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The file could not be read.
    Io(String),
    /// The bytes are not well-formed JSON.
    Parse(String),
    /// The JSON is well-formed but not a valid record (wrong schema
    /// version, missing field, wrong type, non-finite metric).
    Schema(String),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Io(m) => write!(f, "cannot read record: {m}"),
            RecordError::Parse(m) => write!(f, "malformed record JSON: {m}"),
            RecordError::Schema(m) => write!(f, "invalid record: {m}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// One benchmark run, summarized for the history directory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which bench produced this record (`sim_throughput`,
    /// `serve_throughput`, `zoo_population`).
    pub bench: String,
    /// `git rev-parse HEAD` at record time (`unknown` outside a work
    /// tree; suffixed `-dirty` when the tree had modifications).
    pub commit: String,
    /// Whether the run used smoke-sized iteration counts
    /// (`SIM_BENCH_SMOKE=1`). Comparisons involving a smoke record get
    /// wider bands.
    pub smoke: bool,
    /// The measuring machine.
    pub machine: MachineInfo,
    /// Metrics, keyed by wall-clock-free names (sorted on write).
    pub metrics: BTreeMap<String, Metric>,
}

impl BenchRecord {
    /// A new record for the current machine and commit.
    pub fn new(bench: &str, smoke: bool, simd: bool) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            commit: current_commit(),
            smoke,
            machine: MachineInfo::detect(simd),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds a metric under the key-convention direction with measured
    /// noise. Non-finite values are recorded as 0 with the maximum
    /// noise band rather than poisoning the JSON.
    pub fn push(&mut self, key: &str, value: f64, noise: f64) {
        self.push_kind(key, value, noise, classify(key));
    }

    /// Adds a metric with an explicit direction override.
    pub fn push_kind(&mut self, key: &str, value: f64, noise: f64, kind: MetricKind) {
        let (value, noise) = if value.is_finite() && noise.is_finite() {
            (value, noise.max(0.0))
        } else {
            (0.0, 1.0)
        };
        self.metrics
            .insert(key.to_string(), Metric { value, kind, noise });
    }

    /// Serializes the record (stable: sorted metric keys, fixed field
    /// order).
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("kind".to_string(), Json::Str(m.kind.name().to_string())),
                        ("noise".to_string(), Json::Num(round6(m.noise))),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Num(SCHEMA_VERSION as f64)),
            ("bench".to_string(), Json::Str(self.bench.clone())),
            ("commit".to_string(), Json::Str(self.commit.clone())),
            ("smoke".to_string(), Json::Bool(self.smoke)),
            (
                "machine".to_string(),
                Json::Obj(vec![
                    ("os".to_string(), Json::Str(self.machine.os.clone())),
                    ("arch".to_string(), Json::Str(self.machine.arch.clone())),
                    ("cpus".to_string(), Json::Num(self.machine.cpus as f64)),
                    ("simd".to_string(), Json::Bool(self.machine.simd)),
                ]),
            ),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_pretty()
    }

    /// Parses a record from JSON text.
    ///
    /// # Errors
    ///
    /// [`RecordError::Parse`] for malformed JSON, [`RecordError::Schema`]
    /// for a well-formed document that is not a v1 record.
    pub fn from_json(text: &str) -> Result<BenchRecord, RecordError> {
        let doc = json::parse(text).map_err(RecordError::Parse)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or_else(|| RecordError::Schema("missing `schema` field".to_string()))?;
        if schema != SCHEMA_VERSION as f64 {
            return Err(RecordError::Schema(format!(
                "unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"
            )));
        }
        let field_str = |key: &str| -> Result<String, RecordError> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| RecordError::Schema(format!("missing string field `{key}`")))
        };
        let machine_doc = doc
            .get("machine")
            .ok_or_else(|| RecordError::Schema("missing `machine` object".to_string()))?;
        let machine = MachineInfo {
            os: machine_doc
                .get("os")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            arch: machine_doc
                .get("arch")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            cpus: machine_doc
                .get("cpus")
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64,
            simd: machine_doc
                .get("simd")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        };
        let metrics_doc = match doc.get("metrics") {
            Some(Json::Obj(members)) => members,
            _ => return Err(RecordError::Schema("missing `metrics` object".to_string())),
        };
        let mut metrics = BTreeMap::new();
        for (key, m) in metrics_doc {
            let value = m.get("value").and_then(Json::as_f64).ok_or_else(|| {
                RecordError::Schema(format!("metric `{key}` has no numeric `value`"))
            })?;
            if !value.is_finite() {
                return Err(RecordError::Schema(format!(
                    "metric `{key}` has a non-finite value"
                )));
            }
            let kind = match m.get("kind").and_then(Json::as_str) {
                Some(name) => MetricKind::parse(name).ok_or_else(|| {
                    RecordError::Schema(format!("metric `{key}` has unknown kind `{name}`"))
                })?,
                None => classify(key),
            };
            let noise = m
                .get("noise")
                .and_then(Json::as_f64)
                .unwrap_or(DEFAULT_NOISE)
                .clamp(0.0, 10.0);
            metrics.insert(key.clone(), Metric { value, kind, noise });
        }
        Ok(BenchRecord {
            bench: field_str("bench")?,
            commit: field_str("commit")?,
            smoke: doc.get("smoke").and_then(Json::as_bool).unwrap_or(false),
            machine,
            metrics,
        })
    }

    /// Loads a record file.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] when unreadable, otherwise as
    /// [`BenchRecord::from_json`].
    pub fn load(path: &Path) -> Result<BenchRecord, RecordError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| RecordError::Io(format!("{}: {e}", path.display())))?;
        BenchRecord::from_json(&text)
    }

    /// Writes the record, creating parent directories.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), RecordError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| RecordError::Io(format!("{}: {e}", parent.display())))?;
        }
        std::fs::write(path, self.to_json())
            .map_err(|e| RecordError::Io(format!("{}: {e}", path.display())))
    }
}

fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Relative spread of repeated measurement passes:
/// `(max − min) / max(|best|, ε)` where best is the largest sample (the
/// pass where the machine stayed out of the way). This is the noise
/// estimate emitters feed [`BenchRecord::push`].
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &s in samples {
        if s.is_finite() {
            lo = lo.min(s);
            hi = hi.max(s);
        }
    }
    if !lo.is_finite() || !hi.is_finite() || hi.abs() < 1e-12 {
        return DEFAULT_NOISE;
    }
    ((hi - lo) / hi.abs()).max(0.0)
}

/// `git rev-parse HEAD` of the enclosing work tree, `-dirty`-suffixed
/// when the tree differs from HEAD; `unknown` when git is unavailable.
/// Overridable via `ROBOSHAPE_COMMIT` for hermetic builds.
pub fn current_commit() -> String {
    if let Ok(forced) = std::env::var("ROBOSHAPE_COMMIT") {
        if !forced.is_empty() {
            return forced;
        }
    }
    let git = |args: &[&str]| -> Option<std::process::Output> {
        std::process::Command::new("git").args(args).output().ok()
    };
    let Some(out) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".to_string();
    };
    if !out.status.success() {
        return "unknown".to_string();
    }
    let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if sha.is_empty() {
        return "unknown".to_string();
    }
    let dirty = git(&["status", "--porcelain"])
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_convention_classifies_directions() {
        assert_eq!(
            classify("HyQ.warm_evals_per_sec"),
            MetricKind::HigherIsBetter
        );
        assert_eq!(classify("throughput_rps"), MetricKind::HigherIsBetter);
        assert_eq!(
            classify("coalesced.lanes_speedup"),
            MetricKind::HigherIsBetter
        );
        assert_eq!(classify("latency.p99_us"), MetricKind::LowerIsBetter);
        assert_eq!(classify("cluster.p50_us"), MetricKind::LowerIsBetter);
        assert_eq!(classify("sent"), MetricKind::Informational);
        assert_eq!(classify("pareto_points"), MetricKind::Informational);
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut r = BenchRecord::new("sim_throughput", true, false);
        r.push("iiwa.warm_evals_per_sec", 102331.0, 0.03);
        r.push("latency.p99_us", 504.0, 0.12);
        r.push_kind("iiwa.compile_us", 7.46, 0.4, MetricKind::Informational);
        let text = r.to_json();
        let back = BenchRecord::from_json(&text).unwrap();
        assert_eq!(back, r, "round trip:\n{text}");
        assert_eq!(
            back.metrics["iiwa.compile_us"].kind,
            MetricKind::Informational
        );
    }

    #[test]
    fn malformed_and_invalid_records_are_typed_errors() {
        assert!(matches!(
            BenchRecord::from_json("{not json"),
            Err(RecordError::Parse(_))
        ));
        assert!(matches!(
            BenchRecord::from_json("{\"schema\": 99, \"bench\": \"x\"}"),
            Err(RecordError::Schema(_))
        ));
        assert!(matches!(
            BenchRecord::from_json("{\"schema\": 1}"),
            Err(RecordError::Schema(_))
        ));
        let missing_value = r#"{"schema": 1, "bench": "b", "commit": "c", "smoke": false,
            "machine": {"os": "linux", "arch": "x86_64", "cpus": 4, "simd": false},
            "metrics": {"a.rps": {"kind": "higher"}}}"#;
        assert!(matches!(
            BenchRecord::from_json(missing_value),
            Err(RecordError::Schema(_))
        ));
        assert!(matches!(
            BenchRecord::load(Path::new("/nonexistent/baseline.json")),
            Err(RecordError::Io(_))
        ));
    }

    #[test]
    fn relative_spread_measures_pass_jitter() {
        assert!((relative_spread(&[100.0, 95.0, 98.0]) - 0.05).abs() < 1e-12);
        assert_eq!(relative_spread(&[50.0]), 0.0);
        // Degenerate inputs fall back to the floor instead of NaN.
        assert_eq!(relative_spread(&[]), DEFAULT_NOISE);
        assert_eq!(relative_spread(&[0.0]), DEFAULT_NOISE);
    }

    #[test]
    fn machine_comparability_ignores_simd_but_not_cpus() {
        let a = MachineInfo {
            os: "linux".into(),
            arch: "x86_64".into(),
            cpus: 8,
            simd: true,
        };
        let mut b = a.clone();
        b.simd = false;
        assert!(a.comparable_to(&b));
        b.cpus = 64;
        assert!(!a.comparable_to(&b));
    }
}
