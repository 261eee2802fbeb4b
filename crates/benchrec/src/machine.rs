//! The machine fingerprint and commit a measurement or bundle names.

/// The machine fingerprint a bundle or an A/B report was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available hardware parallelism at measurement time.
    pub cpus: u64,
    /// Whether the `simd` cargo feature (explicit AVX intrinsics) was
    /// active in the emitting build.
    pub simd: bool,
}

impl MachineInfo {
    /// Detects the current machine. `simd` is passed in because cargo
    /// features are per-crate: only the emitting build knows its own.
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
    /// throughput), the `simd` flag does not: the lane backend is
    /// bit-identical either way.
    pub fn comparable_to(&self, other: &MachineInfo) -> bool {
        self.os == other.os && self.arch == other.arch && self.cpus == other.cpus
    }
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
