//! The repository's performance gate and its reproducibility bundle.
//!
//! * [`ab`] — the paired A/B runner behind `roboshape bench ab`: it
//!   builds two revisions' perfbench the same way, alternates their runs
//!   in pairs, and judges each metric by the interval of its paired
//!   log-ratios against the directions and bounds in `BENCHMARK.json`.
//! * [`bundle`] — the validation-bundle manifest for third-party blind
//!   reproduction (pinned seeds, expected report snapshots, latency and
//!   failure-histogram context, commit SHA), modeled on the
//!   rpg-encoder Validation Playbook.
//! * [`machine`] — the machine fingerprint and commit both of them
//!   report.
//!
//! The only dependency is the zero-dependency `roboshape-obs` (for its
//! FNV-1a 64 and its JSON parser/writer — the workspace vendors no
//! serde_json; see DESIGN.md §5 for the dependency policy).

#![deny(missing_docs)]

pub mod ab;
pub mod bundle;
pub mod machine;

pub use bundle::{BundleError, Manifest, SnapshotEntry, SnapshotStatus, VerifyOutcome};
pub use machine::{current_commit, MachineInfo};

/// FNV-1a 64-bit hash of a byte string — the bundle's snapshot
/// fingerprint.
pub use roboshape_obs::hash::fnv1a64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
