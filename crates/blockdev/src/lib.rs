//! # stegfs-blockdev
//!
//! Block storage substrate for the StegFS reproduction.
//!
//! The original system is a Linux 2.4 file-system driver sitting between the
//! VFS and the buffer cache, talking to a real Ultra ATA disk (Table 2 of the
//! paper).  This crate replaces that stack with a small set of composable
//! user-space pieces:
//!
//! * [`BlockDevice`] — the trait every storage backend implements: fixed-size
//!   blocks, addressed by [`BlockId`], read and written whole.  Besides the
//!   single-block transfers it carries a *batched* submission pair
//!   ([`BlockDevice::read_blocks`] / [`BlockDevice::write_blocks`]): the
//!   file-system layers hand a whole extent list down in one call, so a
//!   multi-block object read costs one submission instead of one round-trip
//!   per block.  Every backend is batch-capable (the trait provides a
//!   fallback loop); the in-memory volume, the cache, the meter and the
//!   fault injector implement it natively, and [`LatencyDevice`] *overlaps*
//!   the batch — one service time per submission, io_uring-style, instead
//!   of a sleep per block.
//! * [`MemBlockDevice`] — a `Vec`-backed volume used by unit tests and the
//!   simulation experiments (a 1 GB volume of 1 KB blocks fits comfortably in
//!   memory).
//! * [`FileBlockDevice`] — a volume backed by a regular file, so the examples
//!   can create persistent images on the host file system.
//! * [`DiskModel`] / [`SimDisk`] — a mechanical-disk timing model (seek +
//!   rotation + transfer + read-ahead).  It does not sleep; it advances a
//!   virtual clock, which is what the performance experiments measure.
//! * [`ObservedDevice`] — the one I/O meter: wraps any device and counts
//!   successful submissions, blocks, batch sizes and wall-clock latency
//!   into a `stegfs-obs` [`DeviceStats`](stegfs_obs::DeviceStats), either
//!   the volume's registry (every `PlainFs` device sits in one) or stats of
//!   its own ([`ObservedDevice::counting`]).
//! * [`BufferCache`] — a small LRU cache mirroring the role of the kernel
//!   buffer cache in Figure 5 of the paper; write-through by default, with a
//!   write-back mode ([`CacheMode`]) for the journaled stack, where the
//!   journal's group-commit flushes provide the barriers.
//! * [`LruMap`] — the exact-LRU map, O(1) per operation, that orders
//!   eviction under [`BufferCache`] and under the hidden read cache's block
//!   shards and key cache in `stegfs-core`.
//! * [`FaultDevice`] — the one fault injector, with one seeded schedule:
//!   transient failed submissions (scripted or random streaks, aimed at
//!   reads, writes or both), a sticky per-block write trip, an optional
//!   volatile write cache whose `crash()` applies, drops or tears a seeded
//!   subset of the unflushed writes (including mid-batch), and seeded bit
//!   flips, zeroing and overwrites of data *at rest*.  Every durability
//!   and survivability test stands on it.
//! * [`LatencyDevice`] — real-time service latency per submission (it
//!   actually sleeps, once per call whether it carries one block or a
//!   batch), used by the concurrency workloads to show block I/O
//!   overlapping on the wall clock.  It takes no lock of its own; under a
//!   [`BufferCache`] the sleeps of write-through writes and dirty-victim
//!   write-backs fall under the cache's lock, those of read misses and
//!   flush batches do not.
//!
//! [`BlockDevice`] I/O takes `&self`: every backend carries its own interior
//! locking (the in-memory volume stripes its storage so disjoint blocks
//! transfer in parallel; the file/cache/model wrappers serialise on the state
//! they genuinely share), which is what lets the shared-reference file-system
//! layers above drive one volume from many threads without a global device
//! lock.  [`SharedDevice`] remains the cloneable boxed handle used where two
//! owners need the same device object.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod device;
pub mod disk_model;
pub mod error;
pub mod fault;
pub mod file;
pub mod latency;
pub mod lru;
pub mod observed;

// Unit tests of the fault injector and the meter, grouped by what each
// checks: the write cache and crashes, pass-through I/O under damage, the
// failure schedule, and the standalone counting meter.
#[cfg(test)]
#[path = "tests/corrupt.rs"]
mod corrupt;
#[cfg(test)]
#[path = "tests/crash.rs"]
mod crash;
#[cfg(test)]
#[path = "tests/flaky.rs"]
mod flaky;
#[cfg(test)]
#[path = "tests/metered.rs"]
mod metered;

pub use cache::{BufferCache, CacheMode};
pub use device::{BlockDevice, BlockId, MemBlockDevice, SharedDevice};
pub use disk_model::{DiskClock, DiskModel, DiskParameters, DiskStats, SimDisk};
pub use error::{BlockError, BlockResult};
pub use fault::{Dir, FaultDevice, FaultReport, FaultTarget, Op, Park, ParkAt, Trigger};
pub use file::FileBlockDevice;
pub use latency::LatencyDevice;
pub use lru::LruMap;
pub use observed::ObservedDevice;
