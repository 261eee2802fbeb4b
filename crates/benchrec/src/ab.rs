//! The paired A/B perfbench runner behind `roboshape bench ab`.
//!
//! Host speed on a shared machine moves in phases of minutes, so two
//! sets of runs taken at different times disagree by more than any
//! useful bound. The runner therefore measures *pairs*: one run of the
//! parent's perfbench and one of the change's, back to back, with the
//! side that goes first alternating between pairs. Each pair yields one
//! log-ratio per metric, and the verdict rests on the distribution of
//! those ratios, not on either side's absolute numbers.
//!
//! Both sides are built the same way: each revision is `git archive`d
//! into `target/bench-ab/<sha>/` and its own `perfbench/Cargo.toml` is
//! built there with `--release --offline`. The built binaries run
//! directly, so a run's `peak_rss_mb` is the program's own peak.
//!
//! Per metric the report gives each side's median [q1–q3], the median
//! paired log-ratio with a distribution-free confidence interval (the
//! sign-test order statistics), and the change's wins k/N. A metric is
//! `worse` when that interval lies wholly on the worse side of 0 (the
//! direction is `better` in `BENCHMARK.json`), and `REGRESSED` when it
//! is worse and its median ratio is past the metric's `end_to_end`
//! bound. The run fails when any metric regressed or the change failed
//! a larger share of its operations than the parent.

use crate::machine::MachineInfo;
use roboshape_obs::json::{self, Json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Smallest coverage the sign-test interval aims for.
const TARGET_COVERAGE: f64 = 0.95;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Latencies, sizes, costs.
    Lower,
    /// Rates and ratios of useful work.
    Higher,
}

/// One metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Which way the metric improves.
    pub better: Better,
    /// The `end_to_end` bound: the relative worsening past which a
    /// `worse` metric counts as regressed. Per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The metric table of a `BENCHMARK.json`, `end_to_end` and
/// `per_layer` together.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricTable(Vec<(String, MetricSpec)>);

impl MetricTable {
    /// Parses the `end_to_end` and `per_layer` arrays of a
    /// `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message when the text is not JSON or an entry lacks a `name` or
    /// a `better` of `lower`/`higher`.
    pub fn from_json(text: &str) -> Result<MetricTable, String> {
        let doc = json::parse(text)?;
        let mut table = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            for entry in doc.get(section).and_then(Json::as_arr).unwrap_or(&[]) {
                let name = entry
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("a `{section}` entry has no name"))?;
                let better = match entry.get("better").and_then(Json::as_str) {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    _ => return Err(format!("`{name}` has no `better` of lower|higher")),
                };
                let bound = entry.get("bound").and_then(Json::as_f64);
                table.push((name.to_string(), MetricSpec { better, bound }));
            }
        }
        Ok(MetricTable(table))
    }

    /// The declaration of `name`, if the table has one.
    pub fn get(&self, name: &str) -> Option<&MetricSpec> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, spec)| spec)
    }
}

/// One perfbench run: its result line and its standard error.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The result line's `correct`.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in the order perfbench printed them.
    pub metrics: Vec<(String, f64, String)>,
    /// Everything the run wrote to standard error: on a failed run, the
    /// breakdown of its failures (shed, deadline, errors, lost).
    pub stderr: String,
}

impl Run {
    /// Reads a run from its standard output, whose last non-empty line
    /// is perfbench's result object.
    ///
    /// # Errors
    ///
    /// A message when there is no such line or it lacks a field.
    pub fn parse(stdout: &str, stderr: String) -> Result<Run, String> {
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("no result line on stdout")?;
        let doc = json::parse(line)?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or(format!("result line has no `{key}`"))
        };
        let Some(Json::Obj(members)) = doc.get("metrics") else {
            return Err("result line has no `metrics` object".to_string());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let value = value.ok_or(format!("metric `{name}` has no value"))?;
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                Ok((name.clone(), value, unit.to_string()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Run {
            correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            stderr,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// The `q` quantile (`0..=1`) of an ascending slice, interpolating
/// linearly between order statistics: the median of an even count is
/// the mean of the middle two.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// `P(B ≤ k)` for `B ~ Binomial(n, 1/2)`.
fn binomial_half_cdf(n: usize, k: usize) -> f64 {
    let (mut term, mut sum) = (0.5f64.powi(n as i32), 0.0);
    for i in 0..=k.min(n) {
        sum += term;
        term *= (n - i) as f64 / (i + 1) as f64;
    }
    sum
}

/// The sign-test interval for the median of `n` paired differences: the
/// largest `k` (1-based) whose order statistics `[x(k), x(n−k+1)]` cover
/// the median with probability `1 − 2·P(B ≤ k−1)` of at least 95%, and
/// that coverage. Below 6 pairs no interval reaches 95%, and the widest,
/// `k = 1` (the range), is returned with its lower coverage.
pub fn sign_test_interval(n: usize) -> (usize, f64) {
    let coverage = |k: usize| 1.0 - 2.0 * binomial_half_cdf(n, k - 1);
    let mut k = 1;
    while k < n.div_ceil(2) && coverage(k + 1) >= TARGET_COVERAGE {
        k += 1;
    }
    (k, coverage(k))
}

/// `ln(change / parent)` per pair, or `None` when some pair has a
/// non-positive value on one side only (a ratio of equal values is 0).
pub fn paired_log_ratios(pairs: &[(f64, f64)]) -> Option<Vec<f64>> {
    pairs
        .iter()
        .map(|&(parent, change)| match (parent, change) {
            (p, c) if p == c => Some(0.0),
            (p, c) if p > 0.0 && c > 0.0 => Some((c / p).ln()),
            _ => None,
        })
        .collect()
}

/// One metric's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not declared in `BENCHMARK.json`, or missing or non-positive in
    /// some run: reported, not judged.
    Unjudged,
    /// The interval includes 0.
    Inconclusive,
    /// The interval lies wholly on the better side of 0.
    Better,
    /// The interval lies wholly on the worse side of 0.
    Worse,
    /// Worse, and the median ratio is past the metric's bound.
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unjudged => "",
            Verdict::Inconclusive => "-",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// Median and interval of one metric's paired log-ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioSummary {
    /// Median paired log-ratio.
    pub median: f64,
    /// Sign-test interval, low end.
    pub lo: f64,
    /// Sign-test interval, high end.
    pub hi: f64,
}

/// One metric across every pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Metric name.
    pub name: String,
    /// Unit, as perfbench printed it.
    pub unit: String,
    /// Parent's `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change's `[q1, median, q3]`.
    pub change: [f64; 3],
    /// The paired log-ratios' summary, when every pair has one.
    pub ratio: Option<RatioSummary>,
    /// Pairs the change won (ties count for neither side); `None` when
    /// the metric has no declared direction.
    pub wins: Option<usize>,
    /// The verdict.
    pub verdict: Verdict,
}

fn quartiles(values: impl Iterator<Item = f64>) -> [f64; 3] {
    let mut sorted: Vec<f64> = values.collect();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| quantile(&sorted, q))
}

impl MetricRow {
    /// Summarizes one metric over `(parent, change)` value pairs.
    pub fn new(name: &str, unit: &str, pairs: &[(f64, f64)], spec: Option<&MetricSpec>) -> Self {
        let parent = quartiles(pairs.iter().map(|p| p.0));
        let change = quartiles(pairs.iter().map(|p| p.1));
        let ratio = paired_log_ratios(pairs)
            .filter(|r| !r.is_empty())
            .map(|mut r| {
                r.sort_by(f64::total_cmp);
                let (k, _) = sign_test_interval(r.len());
                RatioSummary {
                    median: quantile(&r, 0.5),
                    lo: r[k - 1],
                    hi: r[r.len() - k],
                }
            });
        let wins = spec.map(|s| {
            let change_better = |&(p, c): &(f64, f64)| match s.better {
                Better::Lower => c < p,
                Better::Higher => c > p,
            };
            pairs.iter().filter(|p| change_better(p)).count()
        });
        let verdict = match (spec, ratio) {
            (Some(spec), Some(r)) => {
                // Orient so that a positive log-ratio is worse.
                let (worse, lo, hi) = match spec.better {
                    Better::Lower => (r.median, r.lo, r.hi),
                    Better::Higher => (-r.median, -r.hi, -r.lo),
                };
                let worse_by = worse.exp() - 1.0;
                if lo > 0.0 && spec.bound.is_some_and(|b| worse_by > b) {
                    Verdict::Regressed
                } else if lo > 0.0 {
                    Verdict::Worse
                } else if hi < 0.0 {
                    Verdict::Better
                } else {
                    Verdict::Inconclusive
                }
            }
            _ => Verdict::Unjudged,
        };
        MetricRow {
            name: name.to_string(),
            unit: unit.to_string(),
            parent,
            change,
            ratio,
            wins,
            verdict,
        }
    }
}

/// A finished A/B measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The parent revision's commit.
    pub parent_commit: String,
    /// The change revision's commit.
    pub change_commit: String,
    /// The measuring machine.
    pub machine: MachineInfo,
    /// The arguments every run was given.
    pub args: Vec<String>,
    /// `(parent, change)` per pair, in the order they ran.
    pub pairs: Vec<(Run, Run)>,
    /// One row per metric, in the order the parent's first run printed
    /// them.
    pub rows: Vec<MetricRow>,
}

impl Report {
    /// Summarizes the pairs against the metric table.
    pub fn new(
        parent_commit: String,
        change_commit: String,
        machine: MachineInfo,
        args: Vec<String>,
        pairs: Vec<(Run, Run)>,
        table: &MetricTable,
    ) -> Report {
        let names = pairs.first().map_or(&[][..], |(p, _)| &p.metrics[..]);
        let rows = names
            .iter()
            .map(|(name, _, unit)| {
                let values: Option<Vec<(f64, f64)>> = pairs
                    .iter()
                    .map(|(p, c)| Some((p.value(name)?, c.value(name)?)))
                    .collect();
                match values {
                    Some(values) => MetricRow::new(name, unit, &values, table.get(name)),
                    // A metric some run did not print is listed, not judged.
                    None => MetricRow::new(name, unit, &[], None),
                }
            })
            .collect();
        Report {
            parent_commit,
            change_commit,
            machine,
            args,
            pairs,
            rows,
        }
    }

    /// `(attempted, failed)` summed over one side's runs.
    fn totals(&self, side: impl Fn(&(Run, Run)) -> &Run) -> (u64, u64) {
        self.pairs
            .iter()
            .map(side)
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
    }

    /// Whether the change failed a larger share of its operations than
    /// the parent did.
    pub fn fails_more(&self) -> bool {
        let share = |(attempted, failed): (u64, u64)| failed as f64 / attempted.max(1) as f64;
        share(self.totals(|p| &p.1)) > share(self.totals(|p| &p.0))
    }

    /// Whether the gate fails: a metric regressed, or the change failed
    /// a larger share of operations.
    pub fn failed(&self) -> bool {
        self.fails_more() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let n = self.pairs.len();
        let (k, coverage) = sign_test_interval(n);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench ab: parent {} → change {}\nmachine: {} {}, {} cpus\nperfbench {}\n\
             {n} pairs, alternating first side; interval: sign-test order statistics {k}..{} \
             of the paired log-ratios ({:.1}% coverage)",
            self.parent_commit,
            self.change_commit,
            self.machine.os,
            self.machine.arch,
            self.machine.cpus,
            self.args.join(" "),
            n + 1 - k,
            coverage * 100.0
        );
        let _ = writeln!(
            out,
            "{:<30} {:>34} {:>34} {:>28} {:>5}  verdict",
            "metric",
            "parent median [q1–q3]",
            "change median [q1–q3]",
            "change/parent [interval]",
            "wins"
        );
        let side = |[q1, m, q3]: [f64; 3]| format!("{} [{}–{}]", num(m), num(q1), num(q3));
        let pct = |r: f64| format!("{:+.1}%", (r.exp() - 1.0) * 100.0);
        for row in &self.rows {
            let ratio = row.ratio.map_or(String::new(), |r| {
                format!("{} [{}, {}]", pct(r.median), pct(r.lo), pct(r.hi))
            });
            let wins = row.wins.map_or(String::new(), |w| format!("{w}/{n}"));
            let _ = writeln!(
                out,
                "{:<30} {:>34} {:>34} {:>28} {:>5}  {}",
                format!("{} ({})", row.name, row.unit),
                side(row.parent),
                side(row.change),
                ratio,
                wins,
                row.verdict.label()
            );
        }
        let (pa, pf) = self.totals(|p| &p.0);
        let (ca, cf) = self.totals(|p| &p.1);
        let _ = writeln!(
            out,
            "operations: parent {pf} failed of {pa} attempted, change {cf} failed of {ca} attempted"
        );
        for (i, (parent, change)) in self.pairs.iter().enumerate() {
            for (label, run) in [("parent", parent), ("change", change)] {
                if run.failed > 0 || !run.correct {
                    let _ = writeln!(
                        out,
                        "  pair {} {label}: {} of {} failed; stderr:",
                        i + 1,
                        run.failed,
                        run.attempted
                    );
                    for line in run.stderr.lines() {
                        let _ = writeln!(out, "    {line}");
                    }
                }
            }
        }
        let regressed: Vec<&str> = self
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .map(|r| r.name.as_str())
            .collect();
        if !regressed.is_empty() {
            let _ = writeln!(out, "regressed: {}", regressed.join(", "));
        }
        if self.fails_more() {
            let _ = writeln!(out, "the change failed a larger share of operations");
        }
        out
    }
}

/// A number to four significant digits, without an exponent.
fn num(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (3 - magnitude).max(0) as usize)
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .current_dir(root)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Archives commit `sha` into `target/bench-ab/<sha>/` (once; a
/// finished archive is marked and reused) and builds its perfbench
/// there. Returns the archive directory and the binary.
fn prepare(root: &Path, sha: &str) -> Result<(PathBuf, PathBuf), String> {
    let dir = root.join("target/bench-ab").join(sha);
    let marker = dir.join(".archived");
    if !marker.exists() {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut archive = Command::new("git")
            .current_dir(root)
            .args(["archive", "--format=tar", sha])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run git archive: {e}"))?;
        let tar_in = archive.stdout.take().expect("git archive stdout is piped");
        let untar = Command::new("tar")
            .arg("-x")
            .arg("-C")
            .arg(&dir)
            .stdin(tar_in)
            .status()
            .map_err(|e| format!("cannot run tar: {e}"))?;
        let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
        if !archived.success() || !untar.success() {
            return Err(format!("cannot archive {sha} into {}", dir.display()));
        }
        std::fs::write(&marker, sha).map_err(|e| format!("{}: {e}", marker.display()))?;
    }
    let target = dir.join("target");
    let built = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(dir.join("perfbench/Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !built.success() {
        return Err(format!("perfbench of {sha} does not build"));
    }
    Ok((dir, target.join("release/roboshape-perfbench")))
}

fn run_once(binary: &Path, args: &[String]) -> Result<Run, String> {
    let out = Command::new(binary)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}:\n{stderr}",
            binary.display(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Run::parse(&stdout, stderr.clone()).map_err(|e| format!("{}: {e}\n{stderr}", binary.display()))
}

/// Builds both revisions' perfbench and runs `pairs` pairs, each run
/// given `args`, the parent first in the first, third, … pair and the
/// change first in the others. The metric table comes from the parent's `BENCHMARK.json`.
/// Progress goes to standard error.
///
/// # Errors
///
/// A message when a revision does not resolve, archive or build, or a
/// run exits nonzero or prints no result line.
pub fn run(parent: &str, change: &str, pairs: usize, args: &[String]) -> Result<Report, String> {
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let resolve = |rev: &str| {
        git(
            &root,
            &["rev-parse", "--verify", &format!("{rev}^{{commit}}")],
        )
    };
    let (parent_sha, change_sha) = (resolve(parent)?, resolve(change)?);
    let (parent_dir, parent_bin) = prepare(&root, &parent_sha)?;
    let (_, change_bin) = prepare(&root, &change_sha)?;
    let table_path = parent_dir.join("BENCHMARK.json");
    let table = std::fs::read_to_string(&table_path)
        .map_err(|e| format!("{}: {e}", table_path.display()))
        .and_then(|text| MetricTable::from_json(&text))?;
    let mut runs = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let pair = if i % 2 == 0 {
            let p = run_once(&parent_bin, args)?;
            (p, run_once(&change_bin, args)?)
        } else {
            let c = run_once(&change_bin, args)?;
            (run_once(&parent_bin, args)?, c)
        };
        eprintln!("bench ab: pair {}/{pairs} done", i + 1);
        runs.push(pair);
    }
    Ok(Report::new(
        parent_sha,
        change_sha,
        MachineInfo::detect(false),
        args.to_vec(),
        runs,
        &table,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.75), 3.25);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn sign_test_indices_match_hand_computed_binomials() {
        // n = 10: P(B ≤ 1) = 11/1024 passes, P(B ≤ 2) = 56/1024 does not.
        assert_eq!(sign_test_interval(10), (2, 1.0 - 22.0 / 1024.0));
        // n = 6 is the smallest count with a 95% interval: the range,
        // missing the median only when all six share a sign (2/64).
        assert_eq!(sign_test_interval(6), (1, 1.0 - 2.0 / 64.0));
        // n = 5 cannot reach 95%: the range covers 30/32.
        assert_eq!(sign_test_interval(5), (1, 1.0 - 2.0 / 32.0));
        // n = 8: P(B ≤ 1) = 9/256 gives 2·9/256 > 5%, so k stays 1.
        assert_eq!(sign_test_interval(8), (1, 1.0 - 2.0 / 256.0));
        // n = 20: P(B ≤ 5) = 21700/2^20 passes, P(B ≤ 6) = 60460/2^20
        // does not.
        let (k, coverage) = sign_test_interval(20);
        assert_eq!(k, 6);
        assert!((coverage - (1.0 - 43400.0 / 1_048_576.0)).abs() < 1e-12);
        assert_eq!(sign_test_interval(1), (1, 0.0));
    }

    #[test]
    fn log_ratios_pair_change_over_parent() {
        let r = paired_log_ratios(&[(100.0, 110.0), (4.0, 2.0), (0.0, 0.0)]).unwrap();
        assert!((r[0] - 1.1f64.ln()).abs() < 1e-15);
        assert!((r[1] + 2.0f64.ln()).abs() < 1e-15);
        assert_eq!(r[2], 0.0);
        assert_eq!(paired_log_ratios(&[(0.0, 1.0)]), None);
    }

    fn spec(better: Better, bound: Option<f64>) -> MetricSpec {
        MetricSpec { better, bound }
    }

    #[test]
    fn verdicts_follow_the_interval_and_the_bound() {
        let lower = spec(Better::Lower, Some(0.25));
        let scaled = |f: &[f64]| -> Vec<(f64, f64)> {
            f.iter()
                .enumerate()
                .map(|(i, x)| (100.0 + i as f64, (100.0 + i as f64) * x))
                .collect()
        };
        // Ten pairs, all 10–20% worse: worse, within the 25% bound.
        let row = MetricRow::new(
            "p50_us",
            "us",
            &scaled(&[1.1, 1.12, 1.15, 1.2, 1.11, 1.13, 1.14, 1.16, 1.18, 1.19]),
            Some(&lower),
        );
        assert_eq!(row.verdict, Verdict::Worse);
        assert_eq!(row.wins, Some(0));
        // Past the bound in the median: regressed.
        let row = MetricRow::new("p50_us", "us", &scaled(&[1.5; 10]), Some(&lower));
        assert_eq!(row.verdict, Verdict::Regressed);
        // One pair of ten on the other side still leaves x(2) > 0; two
        // do not.
        let row = MetricRow::new(
            "p50_us",
            "us",
            &scaled(&[0.9, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5]),
            Some(&lower),
        );
        assert_eq!((row.verdict, row.wins), (Verdict::Regressed, Some(1)));
        let row = MetricRow::new(
            "p50_us",
            "us",
            &scaled(&[0.9, 0.9, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5]),
            Some(&lower),
        );
        assert_eq!(row.verdict, Verdict::Inconclusive);
        // Higher-is-better flips the sides; with no bound, never regressed.
        let higher = spec(Better::Higher, None);
        let row = MetricRow::new("rate", "1/s", &scaled(&[0.5; 10]), Some(&higher));
        assert_eq!(row.verdict, Verdict::Worse);
        let row = MetricRow::new("rate", "1/s", &scaled(&[2.0; 10]), Some(&higher));
        assert_eq!((row.verdict, row.wins), (Verdict::Better, Some(10)));
        // Ties win for neither side; undeclared metrics are not judged.
        let row = MetricRow::new("p50_us", "us", &scaled(&[1.0; 10]), Some(&lower));
        assert_eq!((row.verdict, row.wins), (Verdict::Inconclusive, Some(0)));
        let row = MetricRow::new("x", "", &scaled(&[2.0; 10]), None);
        assert_eq!((row.verdict, row.wins), (Verdict::Unjudged, None));
    }

    fn run_with(p50: f64, attempted: u64, failed: u64) -> Run {
        Run::parse(
            &format!(
                "noise\n{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
                 \"metrics\": {{\"p50_us\": {{\"value\": {p50}, \"unit\": \"us\"}}}}}}\n",
                failed == 0
            ),
            "perfbench: 1 of 2 requests failed (shed 1, deadline 0, errors 0, lost 0)\n".into(),
        )
        .unwrap()
    }

    #[test]
    fn reports_fail_on_a_regression_or_a_larger_failed_share() {
        let table = MetricTable::from_json(
            r#"{"end_to_end": [{"name": "p50_us", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "sim.x", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(table.get("p50_us"), Some(&spec(Better::Lower, Some(0.25))));
        assert_eq!(table.get("sim.x"), Some(&spec(Better::Higher, None)));
        let machine = MachineInfo::detect(false);
        let report = |pairs: Vec<(Run, Run)>| {
            Report::new(
                "a".into(),
                "b".into(),
                machine.clone(),
                vec![],
                pairs,
                &table,
            )
        };
        let same = report(
            (0..6)
                .map(|_| (run_with(100.0, 10, 0), run_with(100.0, 10, 0)))
                .collect(),
        );
        assert!(!same.failed(), "{}", same.render());
        let slow = report(
            (0..6)
                .map(|i| (run_with(100.0 + i as f64, 10, 0), run_with(200.0, 10, 0)))
                .collect(),
        );
        assert!(slow.failed());
        assert!(slow.render().contains("REGRESSED"), "{}", slow.render());
        let failing = report(
            (0..6)
                .map(|i| {
                    (
                        run_with(100.0, 10, 0),
                        run_with(100.0, 10, u64::from(i == 3)),
                    )
                })
                .collect(),
        );
        assert!(failing.failed());
        let text = failing.render();
        assert!(text.contains("pair 4 change: 1 of 10 failed"), "{text}");
        assert!(
            text.contains("(shed 1, deadline 0, errors 0, lost 0)"),
            "{text}"
        );
        assert!(text.contains("change 1 failed of 60 attempted"), "{text}");
    }

    #[test]
    fn result_lines_parse_or_name_what_is_missing() {
        let run = run_with(12.5, 3, 0);
        assert!(run.correct);
        assert_eq!(
            run.metrics,
            vec![("p50_us".to_string(), 12.5, "us".to_string())]
        );
        assert!(Run::parse("", String::new()).is_err());
        assert!(Run::parse("{\"correct\": true}", String::new()).is_err());
        assert!(MetricTable::from_json(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
    }
}
