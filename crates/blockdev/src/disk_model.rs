//! Mechanical disk timing model.
//!
//! The paper's evaluation (Section 5) runs on a single Ultra ATA/100 disk
//! (Table 2) and measures file access times.  The performance differences
//! between CleanDisk, FragDisk, StegFS, StegRand and StegCover are entirely
//! explained by three mechanical effects:
//!
//! 1. **Sequential transfers are cheap** — contiguous blocks stream at the
//!    media rate and benefit from the drive's read-ahead ("particularly for
//!    read operations that benefit from the read-ahead feature of the hard
//!    disk", §5.3).
//! 2. **Random block accesses pay a seek plus rotational latency** — which is
//!    what StegFS and StegRand pay per block, and FragDisk pays per 8-block
//!    fragment.
//! 3. **Interleaving destroys sequentiality** — with many concurrent users
//!    even CleanDisk's contiguous files are accessed one block at a time with
//!    intervening seeks, which is why StegFS converges to the native file
//!    system by 8–16 users (§5.3).
//!
//! [`DiskModel`] captures exactly these effects and nothing more: a seek-time
//! curve, rotational latency, a media transfer rate, and a read-ahead window.
//! It never sleeps; callers advance a virtual clock and read it back.
//! [`SimDisk`] layers the model over any [`BlockDevice`] so the file systems
//! built above it transparently accumulate simulated service time.

use crate::device::{BlockDevice, BlockId};
use crate::error::BlockResult;
use std::sync::Arc;
use stegfs_obs::lock::Mutex;

/// Physical parameters of the simulated drive.
///
/// Defaults approximate the paper's test rig (Table 2): an Ultra ATA/100
/// 20 GB desktop drive of the early 2000s.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParameters {
    /// Minimum (track-to-track) seek time in milliseconds.
    pub track_to_track_ms: f64,
    /// Full-stroke (worst case) seek time in milliseconds.
    pub full_stroke_ms: f64,
    /// Spindle speed in revolutions per minute.
    pub rpm: f64,
    /// Sustained media transfer rate in megabytes per second.
    pub transfer_mb_per_s: f64,
    /// Fixed per-request controller/command overhead in milliseconds.
    pub controller_overhead_ms: f64,
    /// Size of the drive's read-ahead window in bytes.
    pub readahead_bytes: u64,
    /// Cost of serving a block out of the read-ahead buffer, in milliseconds.
    pub buffer_hit_ms: f64,
}

impl Default for DiskParameters {
    fn default() -> Self {
        Self::ultra_ata_100()
    }
}

impl DiskParameters {
    /// Parameters approximating the paper's Ultra ATA/100 disk (Table 2).
    pub fn ultra_ata_100() -> Self {
        DiskParameters {
            track_to_track_ms: 1.0,
            full_stroke_ms: 17.0,
            rpm: 7200.0,
            transfer_mb_per_s: 40.0,
            controller_overhead_ms: 0.2,
            readahead_bytes: 128 * 1024,
            buffer_hit_ms: 0.02,
        }
    }

    /// A much faster device (roughly an early SATA SSD); used by ablation
    /// benches to show how the StegFS penalty shrinks when seeks are cheap.
    pub fn ssd_like() -> Self {
        DiskParameters {
            track_to_track_ms: 0.02,
            full_stroke_ms: 0.02,
            rpm: 0.0,
            transfer_mb_per_s: 250.0,
            controller_overhead_ms: 0.02,
            readahead_bytes: 0,
            buffer_hit_ms: 0.005,
        }
    }

    /// Average rotational latency in milliseconds (half a revolution), or 0
    /// for non-rotating media.
    pub fn avg_rotational_latency_ms(&self) -> f64 {
        if self.rpm <= 0.0 {
            0.0
        } else {
            60_000.0 / self.rpm / 2.0
        }
    }

    /// Time to transfer `bytes` at the sustained media rate, in milliseconds.
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.transfer_mb_per_s * 1024.0 * 1024.0) * 1000.0
    }
}

/// Statistics accumulated by the disk model (all counts of block requests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Requests served from the read-ahead buffer.
    pub readahead_hits: u64,
    /// Requests that were sequential with the previous access (no seek).
    pub sequential: u64,
    /// Requests that required a seek.
    pub random: u64,
    /// Total read requests.
    pub reads: u64,
    /// Total write requests.
    pub writes: u64,
}

struct ClockState {
    elapsed_ms: f64,
    stats: DiskStats,
}

/// A cloneable handle onto the virtual clock of a [`SimDisk`] (or a bare
/// [`DiskModel`]).  The simulation harness keeps one of these so it can read
/// elapsed service time after the file-system layers have taken ownership of
/// the device itself.
#[derive(Clone)]
pub struct DiskClock {
    state: Arc<Mutex<ClockState>>,
}

impl DiskClock {
    fn new() -> Self {
        DiskClock {
            state: Arc::new(Mutex::new(ClockState {
                elapsed_ms: 0.0,
                stats: DiskStats::default(),
            })),
        }
    }

    /// Total simulated service time accumulated so far, in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.state.lock().elapsed_ms
    }

    /// Total simulated service time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ms() / 1000.0
    }

    /// Reset the clock and statistics to zero (between experiment phases).
    pub fn reset(&self) {
        let mut s = self.state.lock();
        s.elapsed_ms = 0.0;
        s.stats = DiskStats::default();
    }

    /// Snapshot of the request statistics.
    pub fn stats(&self) -> DiskStats {
        self.state.lock().stats.clone()
    }

    fn add(&self, ms: f64, update: impl FnOnce(&mut DiskStats)) {
        let mut s = self.state.lock();
        s.elapsed_ms += ms;
        update(&mut s.stats);
    }
}

/// Head-position and read-ahead state plus the timing maths.
pub struct DiskModel {
    params: DiskParameters,
    block_size: usize,
    total_blocks: u64,
    head: Option<BlockId>,
    readahead: Option<(BlockId, BlockId)>, // [start, end)
    clock: DiskClock,
}

impl DiskModel {
    /// Create a model for a volume of `total_blocks` blocks of `block_size`
    /// bytes.
    pub fn new(params: DiskParameters, block_size: usize, total_blocks: u64) -> Self {
        DiskModel {
            params,
            block_size,
            total_blocks,
            head: None,
            readahead: None,
            clock: DiskClock::new(),
        }
    }

    /// Handle onto the virtual clock.
    pub fn clock(&self) -> DiskClock {
        self.clock.clone()
    }

    /// The physical parameters in use.
    pub fn params(&self) -> &DiskParameters {
        &self.params
    }

    /// Seek time from the current head position to `block`, in milliseconds.
    fn seek_ms(&self, block: BlockId) -> f64 {
        let from = match self.head {
            None => return self.params.full_stroke_ms / 2.0,
            Some(h) => h,
        };
        let distance = from.abs_diff(block);
        if distance == 0 {
            return 0.0;
        }
        let frac = distance as f64 / self.total_blocks.max(1) as f64;
        self.params.track_to_track_ms
            + (self.params.full_stroke_ms - self.params.track_to_track_ms) * frac.sqrt()
    }

    fn readahead_blocks(&self) -> u64 {
        self.params.readahead_bytes / self.block_size as u64
    }

    /// Account for a read of `block` and return its service time in ms.
    pub fn read(&mut self, block: BlockId) -> f64 {
        let ms;
        let mut hit = false;
        let mut sequential = false;

        if let Some((start, end)) = self.readahead {
            if block >= start && block < end {
                hit = true;
            }
        }

        if hit {
            ms = self.params.buffer_hit_ms;
        } else if self.head == Some(block.wrapping_sub(1)) && block > 0 {
            // Sequential with the previous access: stream at media rate.
            sequential = true;
            ms = self.params.transfer_ms(self.block_size as u64)
                + self.params.controller_overhead_ms;
            let ra = self.readahead_blocks();
            if ra > 0 {
                self.readahead = Some((block + 1, (block + 1 + ra).min(self.total_blocks)));
            }
        } else {
            ms = self.seek_ms(block)
                + self.params.avg_rotational_latency_ms()
                + self.params.transfer_ms(self.block_size as u64)
                + self.params.controller_overhead_ms;
            let ra = self.readahead_blocks();
            if ra > 0 {
                self.readahead = Some((block + 1, (block + 1 + ra).min(self.total_blocks)));
            }
        }

        self.head = Some(block);
        self.clock.add(ms, |s| {
            s.reads += 1;
            if hit {
                s.readahead_hits += 1;
            } else if sequential {
                s.sequential += 1;
            } else {
                s.random += 1;
            }
        });
        ms
    }

    /// Account for a write of `block` and return its service time in ms.
    pub fn write(&mut self, block: BlockId) -> f64 {
        let sequential = self.head == Some(block.wrapping_sub(1)) && block > 0;
        let ms = if sequential {
            self.params.transfer_ms(self.block_size as u64) + self.params.controller_overhead_ms
        } else {
            self.seek_ms(block)
                + self.params.avg_rotational_latency_ms()
                + self.params.transfer_ms(self.block_size as u64)
                + self.params.controller_overhead_ms
        };

        // A write lands on the media; any read-ahead covering it is stale.
        if let Some((start, end)) = self.readahead {
            if block >= start && block < end {
                self.readahead = None;
            }
        }

        self.head = Some(block);
        self.clock.add(ms, |s| {
            s.writes += 1;
            if sequential {
                s.sequential += 1;
            } else {
                s.random += 1;
            }
        });
        ms
    }
}

/// A [`BlockDevice`] wrapper that charges every access to a [`DiskModel`].
///
/// The model's head/read-ahead state sits behind a mutex: a drive has one
/// arm, so concurrent requests serialise their *accounting* (the data
/// transfer itself happens in the wrapped device).
pub struct SimDisk<D: BlockDevice> {
    inner: D,
    model: Mutex<DiskModel>,
}

impl<D: BlockDevice> SimDisk<D> {
    /// Wrap `inner` with the given physical parameters.
    pub fn new(inner: D, params: DiskParameters) -> Self {
        let model = DiskModel::new(params, inner.block_size(), inner.total_blocks());
        SimDisk {
            inner,
            model: Mutex::new(model),
        }
    }

    /// Handle onto the virtual clock (cloneable; survives moving the device
    /// into a file-system object).
    pub fn clock(&self) -> DiskClock {
        self.model.lock().clock()
    }

    /// Access the underlying device.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwrap, discarding the model.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for SimDisk<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.inner.total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        self.inner.read_block(block, buf)?;
        self.model.lock().read(block);
        Ok(())
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        self.inner.write_block(block, buf)?;
        self.model.lock().write(block);
        Ok(())
    }

    fn flush(&self) -> BlockResult<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemBlockDevice;

    fn model_1kb() -> DiskModel {
        DiskModel::new(DiskParameters::ultra_ata_100(), 1024, 1024 * 1024)
    }

    #[test]
    fn sequential_reads_much_cheaper_than_random() {
        let mut m = model_1kb();
        // Prime the head.
        m.read(1000);
        let seq: f64 = (1001..1101).map(|b| m.read(b)).sum();

        let mut m2 = model_1kb();
        m2.read(1000);
        // Random pattern far apart.
        let rand: f64 = (0..100u64)
            .map(|i| m2.read((i * 7919 + 13) % 1_000_000))
            .sum();

        assert!(
            rand > seq * 10.0,
            "random {rand:.2} ms should dwarf sequential {seq:.2} ms"
        );
    }

    #[test]
    fn readahead_serves_following_blocks_cheaply() {
        let mut m = model_1kb();
        m.read(500); // random: seek + rotation, sets read-ahead at 501..
        let hit = m.read(501);
        assert!(hit <= m.params().buffer_hit_ms + 1e-9);
        let stats = m.clock().stats();
        assert_eq!(stats.readahead_hits, 1);
    }

    #[test]
    fn write_invalidates_readahead() {
        let mut m = model_1kb();
        m.read(500);
        m.write(501); // overlaps the read-ahead window -> invalidate
        let after = m.read(502);
        // 502 is sequential with 501 (head), so it is cheap but must not be a
        // buffer hit.
        assert_eq!(m.clock().stats().readahead_hits, 0);
        assert!(after > m.params().buffer_hit_ms);
    }

    #[test]
    fn seek_time_grows_with_distance() {
        let mut m = model_1kb();
        m.read(0);
        let near = m.seek_ms(100);
        let far = m.seek_ms(900_000);
        assert!(near < far);
        assert!(near >= m.params().track_to_track_ms);
        assert!(far <= m.params().full_stroke_ms + 1e-9);
    }

    #[test]
    fn zero_distance_seek_is_free() {
        let mut m = model_1kb();
        m.read(42);
        assert_eq!(m.seek_ms(42), 0.0);
    }

    #[test]
    fn rotational_latency_from_rpm() {
        let p = DiskParameters::ultra_ata_100();
        let lat = p.avg_rotational_latency_ms();
        assert!(
            (lat - 4.1666).abs() < 0.01,
            "7200 rpm -> ~4.17 ms, got {lat}"
        );
        assert_eq!(DiskParameters::ssd_like().avg_rotational_latency_ms(), 0.0);
    }

    #[test]
    fn transfer_time_scales_with_block_size() {
        let p = DiskParameters::ultra_ata_100();
        let t1 = p.transfer_ms(1024);
        let t64 = p.transfer_ms(64 * 1024);
        assert!((t64 / t1 - 64.0).abs() < 1e-6);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let mut m = model_1kb();
        let clock = m.clock();
        assert_eq!(clock.elapsed_ms(), 0.0);
        m.read(10);
        m.write(999_999);
        assert!(clock.elapsed_ms() > 0.0);
        assert_eq!(clock.stats().reads, 1);
        assert_eq!(clock.stats().writes, 1);
        clock.reset();
        assert_eq!(clock.elapsed_ms(), 0.0);
        assert_eq!(clock.stats(), DiskStats::default());
    }

    #[test]
    fn simdisk_charges_time_and_preserves_data() {
        let mem = MemBlockDevice::new(512, 128);
        let disk = SimDisk::new(mem, DiskParameters::ultra_ata_100());
        let clock = disk.clock();
        disk.write_block(7, &[9u8; 512]).unwrap();
        let mut buf = vec![0u8; 512];
        disk.read_block(7, &mut buf).unwrap();
        assert_eq!(buf, vec![9u8; 512]);
        assert!(clock.elapsed_ms() > 0.0);
        assert_eq!(clock.stats().reads, 1);
        assert_eq!(clock.stats().writes, 1);
        disk.flush().unwrap();
        assert_eq!(disk.block_size(), 512);
        assert_eq!(disk.total_blocks(), 128);
    }

    #[test]
    fn simdisk_errors_do_not_advance_clock() {
        let mem = MemBlockDevice::new(512, 8);
        let disk = SimDisk::new(mem, DiskParameters::ultra_ata_100());
        let clock = disk.clock();
        let mut buf = vec![0u8; 512];
        assert!(disk.read_block(100, &mut buf).is_err());
        assert_eq!(clock.elapsed_ms(), 0.0);
    }

    #[test]
    fn interleaving_two_streams_costs_more_than_serial() {
        // The mechanism behind Figure 7: two sequential streams interleaved
        // block-by-block force a seek per block, while run back-to-back they
        // stream cheaply.
        let total = 1_000_000u64;
        let mut serial = DiskModel::new(DiskParameters::ultra_ata_100(), 1024, total);
        for b in 0..200u64 {
            serial.read(b);
        }
        for b in 500_000..500_200u64 {
            serial.read(b);
        }
        let serial_ms = serial.clock().elapsed_ms();

        let mut inter = DiskModel::new(DiskParameters::ultra_ata_100(), 1024, total);
        for i in 0..200u64 {
            inter.read(i);
            inter.read(500_000 + i);
        }
        let inter_ms = inter.clock().elapsed_ms();
        assert!(
            inter_ms > serial_ms * 3.0,
            "interleaved {inter_ms:.1} ms vs serial {serial_ms:.1} ms"
        );
    }
}
