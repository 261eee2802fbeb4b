//! Validation-bundle manifests for third-party blind reproduction.
//!
//! A bundle is a directory:
//!
//! ```text
//! bundle/
//!   manifest.json        — this module's [`Manifest`]
//!   expected/<name>.txt  — expected output snapshots, byte-exact
//! ```
//!
//! `roboshape bundle export` fills it with the deterministic experiment
//! reports (pinned seeds recorded in the manifest), a latency/failure
//! context block from a live serving probe, and the exporting commit
//! SHA + machine fingerprint. `roboshape bundle verify` re-runs the
//! same generators and scores the re-run against the snapshots —
//! pass/fail per snapshot, no judgment calls — so a third party can
//! re-run the repro blind and report the score (the rpg-encoder
//! Validation Playbook's flow). This module owns the manifest format
//! and the byte-exact diffing; the CLI owns the generators.

use crate::machine::MachineInfo;
use roboshape_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Manifest schema version.
pub const BUNDLE_SCHEMA_VERSION: u64 = 1;

/// Typed failure loading or interpreting a bundle manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// The file could not be read.
    Io(String),
    /// The bytes are not well-formed JSON.
    Parse(String),
    /// The JSON is well-formed but not a valid manifest (wrong schema
    /// version, missing field, wrong type).
    Schema(String),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io(m) => write!(f, "cannot read manifest: {m}"),
            BundleError::Parse(m) => write!(f, "malformed manifest JSON: {m}"),
            BundleError::Schema(m) => write!(f, "invalid manifest: {m}"),
        }
    }
}

impl std::error::Error for BundleError {}

/// One expected snapshot: a named generator output pinned byte-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Generator name (e.g. `table2`, `ext_zoo`).
    pub name: String,
    /// Path of the snapshot file, relative to the bundle directory.
    pub file: String,
    /// Snapshot length in bytes.
    pub bytes: u64,
    /// FNV-1a 64 fingerprint of the snapshot bytes.
    pub fnv64: u64,
}

/// The bundle manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Commit SHA the bundle was exported at (informational on verify:
    /// a committed example bundle cannot contain the SHA of the commit
    /// that includes it).
    pub commit: String,
    /// The exporting machine.
    pub machine: MachineInfo,
    /// Pinned seeds and sizes the generators were run with, keyed by
    /// name (`zoo_n`, `zoo_seed`, `probe_seed`, …).
    pub seeds: BTreeMap<String, u64>,
    /// Expected snapshots.
    pub snapshots: Vec<SnapshotEntry>,
    /// Machine-dependent context from the export run (median/p95
    /// latency, failure histogram): reported alongside a verify re-run
    /// for the playbook's "minimum report", never gated byte-exactly.
    pub context: BTreeMap<String, f64>,
}

impl Manifest {
    /// Serializes the manifest.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            (
                "schema".to_string(),
                Json::Num(BUNDLE_SCHEMA_VERSION as f64),
            ),
            (
                "bundle".to_string(),
                Json::Str("roboshape-validation".to_string()),
            ),
            ("commit".to_string(), Json::Str(self.commit.clone())),
            (
                "machine".to_string(),
                Json::Obj(vec![
                    ("os".to_string(), Json::Str(self.machine.os.clone())),
                    ("arch".to_string(), Json::Str(self.machine.arch.clone())),
                    ("cpus".to_string(), Json::Num(self.machine.cpus as f64)),
                    ("simd".to_string(), Json::Bool(self.machine.simd)),
                ]),
            ),
            (
                "seeds".to_string(),
                Json::Obj(
                    self.seeds
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "snapshots".to_string(),
                Json::Arr(
                    self.snapshots
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::Str(s.name.clone())),
                                ("file".to_string(), Json::Str(s.file.clone())),
                                ("bytes".to_string(), Json::Num(s.bytes as f64)),
                                ("fnv64".to_string(), Json::Str(format!("{:016x}", s.fnv64))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "context".to_string(),
                Json::Obj(
                    self.context
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    /// Parses a manifest.
    ///
    /// # Errors
    ///
    /// [`BundleError::Parse`] for malformed JSON, [`BundleError::Schema`] for
    /// a well-formed document that is not a v1 manifest.
    pub fn from_json(text: &str) -> Result<Manifest, BundleError> {
        let doc = json::parse(text).map_err(BundleError::Parse)?;
        match doc.get("schema").and_then(Json::as_f64) {
            Some(v) if v == BUNDLE_SCHEMA_VERSION as f64 => {}
            Some(v) => {
                return Err(BundleError::Schema(format!(
                    "unsupported bundle schema version {v}"
                )))
            }
            None => return Err(BundleError::Schema("missing `schema` field".to_string())),
        }
        if doc.get("bundle").and_then(Json::as_str) != Some("roboshape-validation") {
            return Err(BundleError::Schema(
                "not a roboshape-validation bundle".to_string(),
            ));
        }
        let machine_doc = doc
            .get("machine")
            .ok_or_else(|| BundleError::Schema("missing `machine` object".to_string()))?;
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
        let mut seeds = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("seeds") {
            for (k, v) in members {
                seeds.insert(
                    k.clone(),
                    v.as_f64()
                        .ok_or_else(|| BundleError::Schema(format!("seed `{k}` is not a number")))?
                        as u64,
                );
            }
        }
        let mut snapshots = Vec::new();
        let snap_doc = doc
            .get("snapshots")
            .and_then(Json::as_arr)
            .ok_or_else(|| BundleError::Schema("missing `snapshots` array".to_string()))?;
        for s in snap_doc {
            let field = |key: &str| -> Result<String, BundleError> {
                s.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| BundleError::Schema(format!("snapshot entry missing `{key}`")))
            };
            let fnv_text = field("fnv64")?;
            snapshots.push(SnapshotEntry {
                name: field("name")?,
                file: field("file")?,
                bytes: s.get("bytes").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                fnv64: u64::from_str_radix(&fnv_text, 16).map_err(|_| {
                    BundleError::Schema(format!("snapshot fnv64 `{fnv_text}` is not hex"))
                })?,
            });
        }
        let mut context = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("context") {
            for (k, v) in members {
                if let Some(n) = v.as_f64() {
                    context.insert(k.clone(), n);
                }
            }
        }
        Ok(Manifest {
            commit: doc
                .get("commit")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            machine,
            seeds,
            snapshots,
            context,
        })
    }

    /// Loads `<dir>/manifest.json`.
    ///
    /// # Errors
    ///
    /// [`BundleError::Io`] when unreadable, otherwise as
    /// [`Manifest::from_json`].
    pub fn load(dir: &Path) -> Result<Manifest, BundleError> {
        let path = dir.join("manifest.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| BundleError::Io(format!("{}: {e}", path.display())))?;
        Manifest::from_json(&text)
    }
}

/// One snapshot's verification result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotStatus {
    /// Regenerated bytes match the snapshot exactly.
    Match,
    /// Bytes differ; carries the first differing line
    /// `(line number, expected, actual)`.
    Mismatch(usize, String, String),
    /// The snapshot file is missing or does not match its manifest
    /// fingerprint (the bundle itself is corrupt).
    Corrupt(String),
}

/// Accumulated verification outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOutcome {
    /// Per-snapshot `(name, status)`, manifest order.
    pub snapshots: Vec<(String, SnapshotStatus)>,
    /// Named re-run invariants (`lost=0`-style), with pass/fail.
    pub invariants: Vec<(String, bool)>,
    /// Context lines to print (informational).
    pub notes: Vec<String>,
}

impl VerifyOutcome {
    /// An empty outcome.
    pub fn new() -> VerifyOutcome {
        VerifyOutcome {
            snapshots: Vec::new(),
            invariants: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Checks one snapshot: the stored bytes against the manifest
    /// fingerprint, then the regenerated text against the stored bytes.
    pub fn check_snapshot(&mut self, dir: &Path, entry: &SnapshotEntry, regenerated: &str) {
        let status = match std::fs::read_to_string(dir.join(&entry.file)) {
            Err(e) => SnapshotStatus::Corrupt(format!("{}: {e}", entry.file)),
            Ok(stored) => {
                if crate::fnv1a64(stored.as_bytes()) != entry.fnv64 {
                    SnapshotStatus::Corrupt(format!(
                        "{} does not match its manifest fingerprint",
                        entry.file
                    ))
                } else if stored == regenerated {
                    SnapshotStatus::Match
                } else {
                    let (line, want, got) = first_diff(&stored, regenerated);
                    SnapshotStatus::Mismatch(line, want, got)
                }
            }
        };
        self.snapshots.push((entry.name.clone(), status));
    }

    /// Whether every snapshot matched and every invariant held.
    pub fn passed(&self) -> bool {
        self.snapshots
            .iter()
            .all(|(_, s)| *s == SnapshotStatus::Match)
            && self.invariants.iter().all(|(_, ok)| *ok)
    }

    /// The `matched/total` snapshot score.
    pub fn score(&self) -> (usize, usize) {
        (
            self.snapshots
                .iter()
                .filter(|(_, s)| *s == SnapshotStatus::Match)
                .count(),
            self.snapshots.len(),
        )
    }

    /// Renders the scoring report `bundle verify` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, status) in &self.snapshots {
            match status {
                SnapshotStatus::Match => {
                    let _ = writeln!(out, "snapshot {name:<18} ok");
                }
                SnapshotStatus::Mismatch(line, want, got) => {
                    let _ = writeln!(out, "snapshot {name:<18} MISMATCH at line {line}:");
                    let _ = writeln!(out, "  expected: {want}");
                    let _ = writeln!(out, "  actual:   {got}");
                }
                SnapshotStatus::Corrupt(msg) => {
                    let _ = writeln!(out, "snapshot {name:<18} CORRUPT: {msg}");
                }
            }
        }
        for (name, ok) in &self.invariants {
            let _ = writeln!(
                out,
                "invariant {name:<17} {}",
                if *ok { "ok" } else { "VIOLATED" }
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let (matched, total) = self.score();
        let _ = writeln!(
            out,
            "score: {matched}/{total} snapshots, {}/{} invariants → {}",
            self.invariants.iter().filter(|(_, ok)| *ok).count(),
            self.invariants.len(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

impl Default for VerifyOutcome {
    fn default() -> VerifyOutcome {
        VerifyOutcome::new()
    }
}

/// The first differing line between two texts:
/// `(1-based line, expected, actual)`.
pub fn first_diff(expected: &str, actual: &str) -> (usize, String, String) {
    let mut want = expected.lines();
    let mut got = actual.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (Some(w), Some(g)) => return (line, w.to_string(), g.to_string()),
            (Some(w), None) => return (line, w.to_string(), "<end of output>".to_string()),
            (None, Some(g)) => return (line, "<end of snapshot>".to_string(), g.to_string()),
            (None, None) => return (line, String::new(), String::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest {
            commit: "abc123".to_string(),
            machine: MachineInfo::detect(false),
            seeds: [("zoo_n".to_string(), 16), ("zoo_seed".to_string(), 7)]
                .into_iter()
                .collect(),
            snapshots: vec![SnapshotEntry {
                name: "table2".to_string(),
                file: "expected/table2.txt".to_string(),
                bytes: 11,
                fnv64: crate::fnv1a64(b"hello\nworld"),
            }],
            context: [("latency.p50_us".to_string(), 208.0)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = manifest();
        let text = m.to_json();
        assert_eq!(Manifest::from_json(&text).unwrap(), m, "{text}");
    }

    #[test]
    fn manifest_rejects_malformed_input() {
        assert!(matches!(
            Manifest::from_json("{oops"),
            Err(BundleError::Parse(_))
        ));
        assert!(matches!(
            Manifest::from_json("{\"schema\": 1, \"bundle\": \"something-else\"}"),
            Err(BundleError::Schema(_))
        ));
        assert!(matches!(
            Manifest::load(Path::new("/nonexistent-bundle")),
            Err(BundleError::Io(_))
        ));
    }

    #[test]
    fn verify_outcome_scores_snapshots_and_invariants() {
        let dir = std::env::temp_dir().join("roboshape_bundle_unit");
        std::fs::create_dir_all(dir.join("expected")).unwrap();
        std::fs::write(dir.join("expected/table2.txt"), "hello\nworld").unwrap();
        let m = manifest();

        let mut good = VerifyOutcome::new();
        good.check_snapshot(&dir, &m.snapshots[0], "hello\nworld");
        good.invariants.push(("lost=0".to_string(), true));
        assert!(good.passed());
        assert_eq!(good.score(), (1, 1));
        assert!(good.render().contains("→ PASS"));

        let mut drifted = VerifyOutcome::new();
        drifted.check_snapshot(&dir, &m.snapshots[0], "hello\nwORLD");
        assert!(!drifted.passed());
        let text = drifted.render();
        assert!(text.contains("MISMATCH at line 2"), "{text}");
        assert!(text.contains("expected: world"), "{text}");
        assert!(text.contains("→ FAIL"), "{text}");

        // A tampered snapshot file is caught by the fingerprint even if
        // the regenerated text happens to match it.
        std::fs::write(dir.join("expected/table2.txt"), "tampered").unwrap();
        let mut corrupt = VerifyOutcome::new();
        corrupt.check_snapshot(&dir, &m.snapshots[0], "tampered");
        assert!(matches!(corrupt.snapshots[0].1, SnapshotStatus::Corrupt(_)));
        assert!(!corrupt.passed());

        let mut broken_invariant = VerifyOutcome::new();
        broken_invariant
            .invariants
            .push(("lost=0".to_string(), false));
        assert!(!broken_invariant.passed());
        assert!(broken_invariant.render().contains("VIOLATED"));
    }

    #[test]
    fn first_diff_reports_the_right_line() {
        assert_eq!(
            first_diff("a\nb\nc", "a\nX\nc"),
            (2, "b".into(), "X".into())
        );
        assert_eq!(
            first_diff("a\nb", "a"),
            (2, "b".into(), "<end of output>".into())
        );
        assert_eq!(
            first_diff("a", "a\nextra"),
            (2, "<end of snapshot>".into(), "extra".into())
        );
    }
}
