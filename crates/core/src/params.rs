//! StegFS configuration parameters (Table 1 of the paper).

use crate::coding::Policy;
use crate::error::{StegError, StegResult};
use crate::header::FREE_POOL_CAPACITY;

/// Tunable parameters of a StegFS volume, matching Table 1 of the paper.
///
/// | Paper symbol | Field | Default |
/// |---|---|---|
/// | `P_abandon`  | [`abandoned_pct`](Self::abandoned_pct)   | 1 % |
/// | `FB_min`     | [`free_blocks_min`](Self::free_blocks_min) | 0 |
/// | `FB_max`     | [`free_blocks_max`](Self::free_blocks_max) | 10 |
/// | `N_dummy`    | [`dummy_file_count`](Self::dummy_file_count) | 10 |
/// | `S_dummy`    | [`dummy_file_size`](Self::dummy_file_size) | 1 MB |
///
/// Each field below says which paper parameter, paper experiment or gated
/// benchmark workload (`benchmark/`, see `BENCHMARK.json`) uses it; a field
/// none of them uses does not belong here.  Observability has no switch:
/// the registry always collects, and never touches the disk.
#[derive(Debug, Clone, PartialEq)]
pub struct StegParams {
    /// Percentage of data-region blocks abandoned at format time (marked
    /// allocated in the bitmap but belonging to nothing).
    pub abandoned_pct: f64,
    /// Minimum number of free blocks held inside a hidden file; when the
    /// internal pool falls below this bound it is topped up.
    pub free_blocks_min: usize,
    /// Maximum number of free blocks held inside a hidden file; truncation
    /// returns blocks to the volume once the pool exceeds this bound.
    pub free_blocks_max: usize,
    /// Number of dummy hidden files created at format time and refreshed by
    /// [`crate::StegFs::touch_dummy_files`].
    pub dummy_file_count: usize,
    /// Size in bytes of each dummy hidden file.
    pub dummy_file_size: u64,
    /// Upper bound on locator probes before a lookup is declared
    /// unsuccessful.  Not in the paper (the kernel driver searches until it
    /// wraps); bounded here so a wrong key terminates promptly.  Every
    /// hidden-object lookup, in the paper's experiments and the benchmark
    /// alike, runs under it.
    pub max_locator_probes: usize,
    /// Volume seed: drives FAK generation, abandoned-block placement, dummy
    /// file keys and the random fill.  Fixing it makes experiments
    /// reproducible (every benchmark workload and `repro` pass sets it); a
    /// deployment would randomise it.
    pub volume_seed: u64,
    /// Whether to fill the volume with random patterns at format time
    /// (the paper's §3.1).  Required for the hiding property; the
    /// performance experiments and every benchmark workload disable it to
    /// shorten set-up, as it does not affect timing results.
    pub random_fill: bool,
    /// Blocks reserved for the write-ahead journal at format time (0 = no
    /// journal, the paper's original write-through behaviour).  With a
    /// journal, every multi-block update — plain or hidden — is
    /// crash-atomic, and the region must be sized larger than the largest
    /// single update (a file rewrite of N blocks needs roughly N + N/40 + 2
    /// slots); [`crate::StegFs::format`] validates this against
    /// [`dummy_file_size`](Self::dummy_file_size).  The benchmark's
    /// `hidden_write_journaled`, `plain_rmw` and `engine_mixed_io`
    /// workloads set it; the others run without a journal.
    pub journal_blocks: u64,
    /// Capacity of the RAM-only read-path cache, in decrypted data blocks
    /// (0 disables it, restoring the paper's literal decrypt-on-every-read
    /// behaviour).  The cache is session-scoped and purged at sign-off; it
    /// never changes what reaches the disk — see [`crate::readcache`] for
    /// the full contract.  The benchmark's read workloads size it (4 096,
    /// 1 024 and 256 blocks); the cache-off volume is the reference the
    /// image-identity tests compare cached runs against.
    pub readpath_cache_blocks: usize,
    /// Default durability policy for user-created hidden objects (files
    /// created through the `steg_*` API and hidden directories).  Dummy
    /// files and UAK directories always stay [`Policy::Plain`]; individual
    /// objects can override this via
    /// [`crate::StegFs::steg_create_with_policy`].  Shares are ordinary
    /// encrypted hidden blocks on disk, so the setting is invisible to an
    /// adversary.  The benchmark's `hidden_coded_rw` workload sets 2-of-3
    /// dispersal; the survival and k-of-n experiments sweep it.
    pub hidden_policy: Policy,
}

impl Default for StegParams {
    fn default() -> Self {
        StegParams {
            abandoned_pct: 1.0,
            free_blocks_min: 0,
            free_blocks_max: 10,
            dummy_file_count: 10,
            dummy_file_size: 1024 * 1024,
            max_locator_probes: 100_000,
            volume_seed: 0x5743_2003,
            random_fill: true,
            journal_blocks: 0,
            readpath_cache_blocks: 4096,
            hidden_policy: Policy::Plain,
        }
    }
}

impl StegParams {
    /// Parameters suitable for fast unit tests: tiny dummy files, no random
    /// fill, small abandoned percentage.
    pub fn for_tests() -> Self {
        StegParams {
            abandoned_pct: 1.0,
            free_blocks_min: 0,
            free_blocks_max: 4,
            dummy_file_count: 2,
            dummy_file_size: 4 * 1024,
            max_locator_probes: 50_000,
            volume_seed: 42,
            random_fill: false,
            journal_blocks: 0,
            readpath_cache_blocks: 1024,
            hidden_policy: Policy::Plain,
        }
    }

    /// Parameters for the performance experiments: paper defaults but without
    /// the (timing-irrelevant) random fill so gigabyte volumes format fast.
    pub fn for_experiments(seed: u64) -> Self {
        StegParams {
            random_fill: false,
            journal_blocks: 0,
            volume_seed: seed,
            ..StegParams::default()
        }
    }

    /// Validate the parameter combination.
    pub fn validate(&self) -> StegResult<()> {
        if !(0.0..=50.0).contains(&self.abandoned_pct) {
            return Err(StegError::InvalidParameter(format!(
                "abandoned_pct must be within [0, 50], got {}",
                self.abandoned_pct
            )));
        }
        if self.free_blocks_max > FREE_POOL_CAPACITY {
            return Err(StegError::InvalidParameter(format!(
                "free_blocks_max {} exceeds header capacity {}",
                self.free_blocks_max, FREE_POOL_CAPACITY
            )));
        }
        if self.free_blocks_min > self.free_blocks_max {
            return Err(StegError::InvalidParameter(format!(
                "free_blocks_min {} exceeds free_blocks_max {}",
                self.free_blocks_min, self.free_blocks_max
            )));
        }
        if self.max_locator_probes == 0 {
            return Err(StegError::InvalidParameter(
                "max_locator_probes must be positive".into(),
            ));
        }
        self.hidden_policy.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = StegParams::default();
        assert_eq!(p.abandoned_pct, 1.0);
        assert_eq!(p.free_blocks_min, 0);
        assert_eq!(p.free_blocks_max, 10);
        assert_eq!(p.dummy_file_count, 10);
        assert_eq!(p.dummy_file_size, 1024 * 1024);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn test_and_experiment_presets_validate() {
        assert!(StegParams::for_tests().validate().is_ok());
        assert!(StegParams::for_experiments(7).validate().is_ok());
    }

    #[test]
    fn invalid_combinations_rejected() {
        let p = StegParams {
            abandoned_pct: 90.0,
            ..StegParams::default()
        };
        assert!(p.validate().is_err());

        let p = StegParams {
            free_blocks_max: FREE_POOL_CAPACITY + 1,
            ..StegParams::default()
        };
        assert!(p.validate().is_err());

        let p = StegParams {
            free_blocks_min: 11,
            free_blocks_max: 10,
            ..StegParams::default()
        };
        assert!(p.validate().is_err());

        let p = StegParams {
            max_locator_probes: 0,
            ..StegParams::default()
        };
        assert!(p.validate().is_err());

        let p = StegParams {
            hidden_policy: Policy::Disperse { m: 4, n: 2 },
            ..StegParams::default()
        };
        assert!(p.validate().is_err());
    }
}
