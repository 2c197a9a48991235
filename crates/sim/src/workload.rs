//! Workload description and generation (Table 3 of the paper).

use stegfs_crypto::prng::XorShiftRng;

/// How file operations from concurrent users are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Requests from all users are interleaved block by block (the paper's
    /// default; file servers under load behave this way).
    Interleaved,
    /// Each file is accessed in its entirety before the next one is opened
    /// (the lightly-loaded case of §5.4).
    Serial,
}

/// One file in the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    /// File name (used as the object name / path / password salt by the
    /// scheme adapters).
    pub name: String,
    /// File size in bytes.
    pub size: u64,
}

/// Workload parameters (Table 3), plus the scale knobs this reproduction
/// adds so the experiments can run at laptop scale.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Size of each disk block in bytes (paper default: 1 KB).
    pub block_size: usize,
    /// Capacity of the disk volume in mebibytes (paper default: 1024 = 1 GB).
    pub volume_mb: u64,
    /// Number of files in the file system (paper default: 100).
    pub file_count: usize,
    /// Minimum file size in bytes (paper default: 1 MB, exclusive bound —
    /// sizes are drawn from `(min, max]`).
    pub file_size_min: u64,
    /// Maximum file size in bytes (paper default: 2 MB).
    pub file_size_max: u64,
    /// Number of concurrent users (paper default: 1).
    pub users: usize,
    /// File access pattern (paper default: interleaved).
    pub pattern: AccessPattern,
    /// Seed for workload generation and scheme randomness.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

impl WorkloadParams {
    /// The exact defaults of Table 3: 1 GB volume, 1 KB blocks, 100 files of
    /// (1, 2] MB, interleaved access, one user.
    pub fn paper_defaults() -> Self {
        WorkloadParams {
            block_size: 1024,
            volume_mb: 1024,
            file_count: 100,
            file_size_min: 1024 * 1024,
            file_size_max: 2 * 1024 * 1024,
            users: 1,
            pattern: AccessPattern::Interleaved,
            seed: 0x5747_2003,
        }
    }

    /// A scaled-down workload with the same *shape* (same file-size-to-volume
    /// ratio, same relative metadata overheads) that runs in seconds rather
    /// than minutes: 64 MB volume, 24 files of (256, 512] KB — the paper's
    /// volume divided by sixteen, its file count and file sizes by four each.
    pub fn scaled_quick() -> Self {
        WorkloadParams {
            block_size: 1024,
            volume_mb: 64,
            file_count: 24,
            file_size_min: 256 * 1024,
            file_size_max: 512 * 1024,
            users: 1,
            pattern: AccessPattern::Interleaved,
            seed: 0x5747_2003,
        }
    }

    /// An even smaller workload for unit tests.
    pub fn tiny_test() -> Self {
        WorkloadParams {
            block_size: 1024,
            volume_mb: 16,
            file_count: 6,
            file_size_min: 32 * 1024,
            file_size_max: 64 * 1024,
            users: 2,
            pattern: AccessPattern::Interleaved,
            seed: 7,
        }
    }

    /// Total number of blocks in the volume.
    pub fn total_blocks(&self) -> u64 {
        self.volume_mb * 1024 * 1024 / self.block_size as u64
    }

    /// Volume capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.volume_mb * 1024 * 1024
    }

    /// Sanity-check the parameter combination.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_size < 128 || !self.block_size.is_power_of_two() {
            return Err(format!("unsupported block size {}", self.block_size));
        }
        if self.file_size_min >= self.file_size_max {
            return Err("file_size_min must be below file_size_max".into());
        }
        if self.users == 0 || self.file_count == 0 {
            return Err("need at least one user and one file".into());
        }
        let total_file_bytes = self.file_size_max * self.file_count as u64;
        if total_file_bytes > self.capacity_bytes() * 9 / 10 {
            return Err(format!(
                "workload of up to {total_file_bytes} bytes will not fit a {} MB volume",
                self.volume_mb
            ));
        }
        Ok(())
    }

    /// Generate the file specifications: sizes uniform in
    /// `(file_size_min, file_size_max]`, reproducible from the seed.
    pub fn generate_files(&self) -> Vec<FileSpec> {
        let mut rng = XorShiftRng::new(self.seed ^ 0xf11e);
        (0..self.file_count)
            .map(|i| FileSpec {
                name: format!("workload-file-{i:04}"),
                size: rng.next_in_range(self.file_size_min + 1, self.file_size_max),
            })
            .collect()
    }

    /// Generate reproducible file contents of the given size.
    pub fn generate_content(&self, spec_index: usize, size: u64) -> Vec<u8> {
        let mut rng = XorShiftRng::new(self.seed ^ (spec_index as u64).wrapping_mul(0x9e3779b9));
        let mut data = vec![0u8; size as usize];
        rng.fill(&mut data);
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_3() {
        let p = WorkloadParams::paper_defaults();
        assert_eq!(p.block_size, 1024);
        assert_eq!(p.volume_mb, 1024);
        assert_eq!(p.file_count, 100);
        assert_eq!(p.file_size_min, 1024 * 1024);
        assert_eq!(p.file_size_max, 2 * 1024 * 1024);
        assert_eq!(p.users, 1);
        assert_eq!(p.pattern, AccessPattern::Interleaved);
        assert!(p.validate().is_ok());
        assert_eq!(p.total_blocks(), 1024 * 1024);
    }

    #[test]
    fn scaled_presets_validate() {
        assert!(WorkloadParams::scaled_quick().validate().is_ok());
        assert!(WorkloadParams::tiny_test().validate().is_ok());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut p = WorkloadParams::scaled_quick();
        p.block_size = 1000;
        assert!(p.validate().is_err());

        let mut p = WorkloadParams::scaled_quick();
        p.file_size_min = p.file_size_max;
        assert!(p.validate().is_err());

        let mut p = WorkloadParams::scaled_quick();
        p.users = 0;
        assert!(p.validate().is_err());

        let mut p = WorkloadParams::scaled_quick();
        p.file_count = 10_000;
        assert!(p.validate().is_err(), "workload larger than the volume");
    }

    #[test]
    fn file_generation_is_reproducible_and_in_range() {
        let p = WorkloadParams::tiny_test();
        let a = p.generate_files();
        let b = p.generate_files();
        assert_eq!(a, b);
        assert_eq!(a.len(), p.file_count);
        for spec in &a {
            assert!(spec.size > p.file_size_min && spec.size <= p.file_size_max);
        }
        // Names are unique.
        let mut names: Vec<_> = a.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), p.file_count);
    }

    #[test]
    fn content_generation_is_reproducible_and_distinct_per_file() {
        let p = WorkloadParams::tiny_test();
        let a = p.generate_content(0, 1000);
        let b = p.generate_content(0, 1000);
        let c = p.generate_content(1, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
    }
}
