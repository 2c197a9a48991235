//! Adapters that put every scheme of Table 4 behind one block-granular
//! interface, so the same driver and the same disk model measure all of them.
//!
//! | Indicator (Table 4) | Adapter | Substrate |
//! |---|---|---|
//! | `StegFS`    | [`StegFsScheme`]    | `stegfs-core` over the plain FS |
//! | `StegCover` | [`StegCoverScheme`] | `stegfs-baselines::stegcover` |
//! | `StegRand`  | [`StegRandScheme`]  | `stegfs-baselines::stegrand` |
//! | `CleanDisk` | [`PlainScheme`] with contiguous allocation | `stegfs-fs` |
//! | `FragDisk`  | [`PlainScheme`] with 8-block fragments | `stegfs-fs` |
//!
//! Every adapter owns a [`SimDisk`] over an in-memory volume and exposes the
//! simulated-disk clock, which is the quantity all timing experiments report.

use crate::workload::{FileSpec, WorkloadParams};
use stegfs_baselines::{StegCover, StegRand};
use stegfs_blockdev::{BufferCache, DiskClock, DiskParameters, MemBlockDevice, SimDisk};
use stegfs_core::{HiddenHandle, ObjectKind, StegFs, StegParams};
use stegfs_fs::{AllocPolicy, FormatOptions, PlainFs};

/// The scheme identifiers of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Freshly defragmented native file system (contiguous files).
    CleanDisk,
    /// Well-used native file system (files fragmented into 8-block runs).
    FragDisk,
    /// Anderson et al.'s cover-file scheme (16 covers per file).
    StegCover,
    /// Anderson et al.'s random-placement scheme with replication.
    StegRand,
    /// The paper's proposed scheme.
    StegFs,
}

impl SchemeKind {
    /// All five schemes, in the order the paper's figures list them.
    pub fn all() -> [SchemeKind; 5] {
        [
            SchemeKind::CleanDisk,
            SchemeKind::FragDisk,
            SchemeKind::StegCover,
            SchemeKind::StegRand,
            SchemeKind::StegFs,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::CleanDisk => "CleanDisk",
            SchemeKind::FragDisk => "FragDisk",
            SchemeKind::StegCover => "StegCover",
            SchemeKind::StegRand => "StegRand",
            SchemeKind::StegFs => "StegFS",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Replication factor the paper uses for StegRand in the timing experiments
/// ("a replication factor of 4 is used for StegRand").
pub const STEGRAND_TIMING_REPLICATION: usize = 4;

/// Sizing rule for the buffer cache placed between every scheme and the
/// simulated disk, mirroring the kernel buffer cache of Figure 5.  Without it
/// every path resolution would re-read the same metadata blocks from the
/// simulated platter, which the real system never does; with an unrealistically
/// large one the data set would fit in memory and no scheme would touch the
/// disk at all.  The cache is therefore sized well below the volume (1/128 of
/// it, capped at 4 MB), exactly as the paper's 1 GB working set dwarfed the
/// 2003-era page cache.
pub fn buffer_cache_blocks(params: &WorkloadParams) -> usize {
    let bytes = (params.capacity_bytes() / 128).min(4 * 1024 * 1024) as usize;
    (bytes / params.block_size).max(16)
}

/// A scheme instance loaded with a workload and ready for block-granular
/// access.
pub trait SchemeInstance {
    /// Which scheme this is.
    fn kind(&self) -> SchemeKind;

    /// Load every file of the workload (the preparation phase; callers reset
    /// the clock afterwards).
    fn prepare(&mut self, specs: &[FileSpec], params: &WorkloadParams) -> Result<(), String>;

    /// Granularity of chunked access in bytes.
    fn chunk_size(&self) -> usize;

    /// Number of chunks of `spec` at this scheme's granularity.
    fn chunk_count(&self, spec: &FileSpec) -> u64 {
        spec.size.div_ceil(self.chunk_size() as u64).max(1)
    }

    /// Read one chunk of a prepared file.
    fn read_chunk(&mut self, file_index: usize, spec: &FileSpec, chunk: u64) -> Result<(), String>;

    /// Overwrite one chunk of a prepared file.
    fn write_chunk(
        &mut self,
        file_index: usize,
        spec: &FileSpec,
        chunk: u64,
        data: &[u8],
    ) -> Result<(), String>;

    /// Handle onto the simulated-disk clock.
    fn clock(&self) -> DiskClock;
}

/// Build a ready-to-prepare instance of `kind` for the given workload.
pub fn build_scheme(
    kind: SchemeKind,
    params: &WorkloadParams,
) -> Result<Box<dyn SchemeInstance>, String> {
    params.validate()?;
    let device = MemBlockDevice::new(params.block_size, params.total_blocks());
    let sim = SimDisk::new(device, DiskParameters::ultra_ata_100());
    let clock = sim.clock();
    let disk = BufferCache::new(sim, buffer_cache_blocks(params));
    match kind {
        SchemeKind::CleanDisk => Ok(Box::new(PlainScheme::new(
            kind,
            disk,
            clock,
            AllocPolicy::Contiguous,
            params,
        )?)),
        SchemeKind::FragDisk => Ok(Box::new(PlainScheme::new(
            kind,
            disk,
            clock,
            AllocPolicy::frag_disk(),
            params,
        )?)),
        SchemeKind::StegFs => Ok(Box::new(StegFsScheme::new(disk, clock, params)?)),
        SchemeKind::StegCover => Ok(Box::new(StegCoverScheme::new(disk, clock, params)?)),
        SchemeKind::StegRand => Ok(Box::new(StegRandScheme::new(
            disk,
            clock,
            STEGRAND_TIMING_REPLICATION,
        )?)),
    }
}

type Disk = BufferCache<SimDisk<MemBlockDevice>>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ----------------------------------------------------------------------
// CleanDisk / FragDisk
// ----------------------------------------------------------------------

/// The native plain file system under either allocation policy.
pub struct PlainScheme {
    kind: SchemeKind,
    fs: PlainFs<Disk>,
    clock: DiskClock,
    block_size: usize,
}

impl PlainScheme {
    fn new(
        kind: SchemeKind,
        disk: Disk,
        clock: DiskClock,
        policy: AllocPolicy,
        params: &WorkloadParams,
    ) -> Result<Self, String> {
        let fs = PlainFs::format(
            disk,
            FormatOptions {
                policy,
                seed: params.seed,
                fill_random: false,
                inode_count: None,
                journal_blocks: 0,
            },
        )
        .map_err(err)?;
        Ok(PlainScheme {
            kind,
            fs,
            clock,
            block_size: params.block_size,
        })
    }

    fn path(spec: &FileSpec) -> String {
        format!("/{}", spec.name)
    }
}

impl SchemeInstance for PlainScheme {
    fn kind(&self) -> SchemeKind {
        self.kind
    }

    fn prepare(&mut self, specs: &[FileSpec], params: &WorkloadParams) -> Result<(), String> {
        for (i, spec) in specs.iter().enumerate() {
            let content = params.generate_content(i, spec.size);
            self.fs
                .write_file(&Self::path(spec), &content)
                .map_err(err)?;
        }
        Ok(())
    }

    fn chunk_size(&self) -> usize {
        self.block_size
    }

    fn read_chunk(
        &mut self,
        _file_index: usize,
        spec: &FileSpec,
        chunk: u64,
    ) -> Result<(), String> {
        let offset = chunk * self.block_size as u64;
        let len = self
            .block_size
            .min((spec.size - offset.min(spec.size)) as usize);
        self.fs
            .read_file_range(&Self::path(spec), offset, len.max(1))
            .map(|_| ())
            .map_err(err)
    }

    fn write_chunk(
        &mut self,
        _file_index: usize,
        spec: &FileSpec,
        chunk: u64,
        data: &[u8],
    ) -> Result<(), String> {
        let offset = chunk * self.block_size as u64;
        let len = (spec.size - offset.min(spec.size)).min(data.len() as u64) as usize;
        self.fs
            .write_file_range(&Self::path(spec), offset, &data[..len])
            .map_err(err)
    }

    fn clock(&self) -> DiskClock {
        self.clock.clone()
    }
}

// ----------------------------------------------------------------------
// StegFS
// ----------------------------------------------------------------------

const EXPERIMENT_UAK: &str = "experiment user access key";

/// The proposed scheme, driven through the `stegfs-core` public API.
pub struct StegFsScheme {
    fs: StegFs<Disk>,
    clock: DiskClock,
    block_size: usize,
    handles: Vec<HiddenHandle>,
}

impl StegFsScheme {
    fn new(disk: Disk, clock: DiskClock, params: &WorkloadParams) -> Result<Self, String> {
        // Paper parameters, with the dummy-file footprint kept at the paper's
        // ~1 % of the volume so scaled-down volumes keep the same overhead
        // ratio, and without the (timing-irrelevant) random fill.
        let mut steg_params = StegParams::for_experiments(params.seed);
        steg_params.dummy_file_size =
            (params.capacity_bytes() / 1000).clamp(16 * 1024, 1024 * 1024);
        let fs = StegFs::format(disk, steg_params).map_err(err)?;
        Ok(StegFsScheme {
            fs,
            clock,
            block_size: params.block_size,
            handles: Vec::new(),
        })
    }
}

impl SchemeInstance for StegFsScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::StegFs
    }

    fn prepare(&mut self, specs: &[FileSpec], params: &WorkloadParams) -> Result<(), String> {
        for (i, spec) in specs.iter().enumerate() {
            let content = params.generate_content(i, spec.size);
            self.fs
                .steg_create(&spec.name, EXPERIMENT_UAK, ObjectKind::File)
                .map_err(err)?;
            self.fs
                .write_hidden_with_key(&spec.name, EXPERIMENT_UAK, &content)
                .map_err(err)?;
        }
        // Open all files once, like a user who has connected their objects.
        self.handles.clear();
        for spec in specs {
            self.handles.push(
                self.fs
                    .open_hidden(&spec.name, EXPERIMENT_UAK)
                    .map_err(err)?,
            );
        }
        Ok(())
    }

    fn chunk_size(&self) -> usize {
        self.block_size
    }

    fn read_chunk(&mut self, file_index: usize, spec: &FileSpec, chunk: u64) -> Result<(), String> {
        let handle = self
            .handles
            .get(file_index)
            .ok_or_else(|| format!("file {file_index} was not prepared"))?;
        let offset = chunk * self.block_size as u64;
        let len = self
            .block_size
            .min((spec.size.saturating_sub(offset)) as usize);
        self.fs
            .read_range_at(handle, offset, len.max(1))
            .map(|_| ())
            .map_err(err)
    }

    fn write_chunk(
        &mut self,
        file_index: usize,
        spec: &FileSpec,
        chunk: u64,
        data: &[u8],
    ) -> Result<(), String> {
        let handle = self
            .handles
            .get_mut(file_index)
            .ok_or_else(|| format!("file {file_index} was not prepared"))?;
        let offset = chunk * self.block_size as u64;
        let len = (spec.size.saturating_sub(offset)).min(data.len() as u64) as usize;
        if len == 0 {
            return Ok(());
        }
        self.fs
            .write_at_handle(handle, offset, &data[..len])
            .map_err(err)
    }

    fn clock(&self) -> DiskClock {
        self.clock.clone()
    }
}

// ----------------------------------------------------------------------
// StegCover
// ----------------------------------------------------------------------

/// The cover-file scheme: every chunk access touches the whole 16-cover
/// subset.
pub struct StegCoverScheme {
    store: StegCover<Disk>,
    clock: DiskClock,
    block_size: usize,
    homes: Vec<u64>,
}

impl StegCoverScheme {
    fn new(disk: Disk, clock: DiskClock, params: &WorkloadParams) -> Result<Self, String> {
        // Covers sized for the largest file, as in §5.2.
        let cover_size = params
            .file_size_max
            .next_multiple_of(params.block_size as u64)
            + params.block_size as u64; // room for the length/MAC header block
        let store = StegCover::format(
            disk,
            cover_size,
            stegfs_baselines::stegcover::DEFAULT_SUBSET_SIZE,
        )
        .map_err(err)?;
        Ok(StegCoverScheme {
            store,
            clock,
            block_size: params.block_size,
            homes: Vec::new(),
        })
    }
}

impl SchemeInstance for StegCoverScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::StegCover
    }

    fn prepare(&mut self, specs: &[FileSpec], params: &WorkloadParams) -> Result<(), String> {
        self.homes.clear();
        for (i, spec) in specs.iter().enumerate() {
            let content = params.generate_content(i, spec.size);
            let home = self
                .store
                .store(&spec.name, "experiment password", &content)
                .map_err(err)?;
            self.homes.push(home);
        }
        Ok(())
    }

    fn chunk_size(&self) -> usize {
        self.block_size
    }

    fn read_chunk(
        &mut self,
        file_index: usize,
        _spec: &FileSpec,
        chunk: u64,
    ) -> Result<(), String> {
        let home = *self
            .homes
            .get(file_index)
            .ok_or_else(|| format!("file {file_index} was not prepared"))?;
        self.store
            .read_block_of(home, chunk)
            .map(|_| ())
            .map_err(err)
    }

    fn write_chunk(
        &mut self,
        file_index: usize,
        _spec: &FileSpec,
        chunk: u64,
        data: &[u8],
    ) -> Result<(), String> {
        let home = *self
            .homes
            .get(file_index)
            .ok_or_else(|| format!("file {file_index} was not prepared"))?;
        let mut block = vec![0u8; self.block_size];
        let n = data.len().min(self.block_size);
        block[..n].copy_from_slice(&data[..n]);
        self.store.write_block_of(home, chunk, &block).map_err(err)
    }

    fn clock(&self) -> DiskClock {
        self.clock.clone()
    }
}

// ----------------------------------------------------------------------
// StegRand
// ----------------------------------------------------------------------

/// The random-placement scheme with replication.
pub struct StegRandScheme {
    store: StegRand<Disk>,
    clock: DiskClock,
    /// Losses observed while reading (collisions are expected behaviour for
    /// this scheme, not an experiment failure).
    pub lost_chunks: u64,
}

impl StegRandScheme {
    fn new(disk: Disk, clock: DiskClock, replication: usize) -> Result<Self, String> {
        // The volume is already zero-filled in memory; StegRand::open avoids
        // re-filling it through the timing model.
        let store = StegRand::open(disk, replication).map_err(err)?;
        Ok(StegRandScheme {
            store,
            clock,
            lost_chunks: 0,
        })
    }
}

impl SchemeInstance for StegRandScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::StegRand
    }

    fn prepare(&mut self, specs: &[FileSpec], params: &WorkloadParams) -> Result<(), String> {
        for (i, spec) in specs.iter().enumerate() {
            let content = params.generate_content(i, spec.size);
            self.store
                .store(&spec.name, "experiment password", &content)
                .map_err(err)?;
        }
        Ok(())
    }

    fn chunk_size(&self) -> usize {
        self.store.payload_per_block()
    }

    fn read_chunk(
        &mut self,
        _file_index: usize,
        spec: &FileSpec,
        chunk: u64,
    ) -> Result<(), String> {
        match self
            .store
            .read_logical_block(&spec.name, "experiment password", chunk)
            .map_err(err)?
        {
            Some(_) => Ok(()),
            None => {
                // Overwritten beyond recovery: the paper's point, not an
                // error in the harness.  The I/O cost of hunting through the
                // replicas has been charged either way.
                self.lost_chunks += 1;
                Ok(())
            }
        }
    }

    fn write_chunk(
        &mut self,
        _file_index: usize,
        spec: &FileSpec,
        chunk: u64,
        data: &[u8],
    ) -> Result<(), String> {
        let n = data.len().min(self.store.payload_per_block());
        self.store
            .write_logical_block(&spec.name, "experiment password", chunk, &data[..n])
            .map_err(err)
    }

    fn clock(&self) -> DiskClock {
        self.clock.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_table_4() {
        assert_eq!(SchemeKind::all().len(), 5);
        assert_eq!(SchemeKind::StegFs.label(), "StegFS");
        assert_eq!(SchemeKind::CleanDisk.to_string(), "CleanDisk");
    }

    #[test]
    fn every_scheme_builds_prepares_and_serves_chunks() {
        let params = WorkloadParams::tiny_test();
        let specs = params.generate_files();
        for kind in SchemeKind::all() {
            let mut scheme = build_scheme(kind, &params).unwrap();
            scheme.prepare(&specs, &params).unwrap();
            let clock = scheme.clock();
            clock.reset();
            let spec = &specs[0];
            let chunks = scheme.chunk_count(spec);
            assert!(chunks > 0);
            scheme.read_chunk(0, spec, 0).unwrap();
            scheme.read_chunk(0, spec, chunks - 1).unwrap();
            let data = vec![0xa5u8; scheme.chunk_size()];
            scheme.write_chunk(0, spec, 0, &data).unwrap();
            assert!(
                clock.elapsed_ms() > 0.0,
                "{kind}: chunk operations must consume simulated disk time"
            );
        }
    }

    #[test]
    fn stegcover_chunk_reads_cost_an_order_of_magnitude_more_io() {
        let params = WorkloadParams::tiny_test();
        let specs = params.generate_files();

        // Read a handful of chunks so per-pass metadata lookups amortise away
        // and the per-chunk cost difference dominates.
        let chunks_to_read = 8u64;

        let mut clean = build_scheme(SchemeKind::CleanDisk, &params).unwrap();
        clean.prepare(&specs, &params).unwrap();
        let clean_clock = clean.clock();
        clean_clock.reset();
        for chunk in 0..chunks_to_read {
            clean.read_chunk(0, &specs[0], chunk).unwrap();
        }
        let clean_reads = clean_clock.stats().reads;

        let mut cover = build_scheme(SchemeKind::StegCover, &params).unwrap();
        cover.prepare(&specs, &params).unwrap();
        let cover_clock = cover.clock();
        cover_clock.reset();
        for chunk in 0..chunks_to_read {
            cover.read_chunk(0, &specs[0], chunk).unwrap();
        }
        let cover_reads = cover_clock.stats().reads;

        assert!(
            cover_reads >= clean_reads * 8,
            "StegCover issued {cover_reads} reads vs CleanDisk {clean_reads}"
        );
    }

    #[test]
    fn invalid_workload_rejected_at_build() {
        let mut params = WorkloadParams::tiny_test();
        params.users = 0;
        assert!(build_scheme(SchemeKind::CleanDisk, &params).is_err());
    }
}
