//! Fault injection: one device for every fault the tests aim at a volume.
//!
//! The paper's contract is that hidden data lives on a plain volume that
//! loses and overwrites blocks.  [`FaultDevice`] wraps any [`BlockDevice`]
//! and, reproducibly from seeds:
//!
//! * **fails submissions** — the next `n` ([`script_failures`](FaultDevice::script_failures),
//!   `n` [`fail`](FaultDevice::fail) plans) or in seeded random streaks
//!   ([`random_failures`](FaultDevice::random_failures)), aimed at reads or
//!   writes ([`fail_only`](FaultDevice::fail_only)).  A failed submission
//!   reaches nothing and returns a static `Interrupted` [`BlockError::Io`],
//!   so a reissue succeeds and the error carries nothing volume- or
//!   key-derived;
//! * **trips on writes** — after [`fail_after_writes`](FaultDevice::fail_after_writes)`(n)`
//!   the next `n` *blocks* land (a batch can stop part-way) and every later
//!   write and flush fails until cleared or crashed;
//! * **loses writes** — built [`with_write_cache`](FaultDevice::with_write_cache),
//!   it holds writes pending until the [`flush`](BlockDevice::flush)
//!   barrier, and [`crash`](FaultDevice::crash) applies, drops or tears each
//!   pending block write, so a crash can land mid-batch;
//! * **damages data at rest** — bit flips, zeroing and junk overwrites,
//!   written straight to the wrapped device past the schedule and the cache.
//!
//! A test scripts single submissions with four verbs, each armed with a
//! [`Trigger`]: a submission index ([`Trigger::at`], numbered as
//! [`ops`](FaultDevice::ops) counts), or a predicate over the submission's
//! [`Op`] — its direction, blocks and flush epoch ([`Trigger::when`]):
//!
//! * [`fail`](FaultDevice::fail) — the submission reaches nothing and
//!   returns the static `Interrupted` error;
//! * [`panic`](FaultDevice::panic) — the submission panics;
//! * [`park`](FaultDevice::park) — the submission waits until its [`Park`]
//!   handle releases it, [before](ParkAt::Before) its transfer reaches the
//!   wrapped device (a write still out on the device) or
//!   [after](ParkAt::After) it (a read holding the image it fetched);
//! * [`record`](FaultDevice::record) — an observer is handed each
//!   submission that gets past the faults — direction, single or batch,
//!   blocks, write data — in the order they reach the wrapped device; a
//!   flush once the wrapped device's flush has returned `Ok`.
//!
//! Fail, panic and park are spent once they fire, and a submission fires
//! at most one of each, the earliest armed, so `n` plans on one trigger act
//! on its next `n` matches; record fires on every match.  A submission that
//! fires an after-park parks once its outcome is known, whatever it is: a
//! transfer, a failure or a panic about to be raised.  A parked or
//! panicking submission holds no lock of the device, so other I/O on it
//! completes meanwhile.  Predicates and observers run under the device's
//! lock and must not do I/O on it.
//!
//! All seeded faults draw from one xorshift.  Clones share one device (one
//! lock): the volume under test owns one handle, the harness another.

use crate::device::{check_batch, BlockDevice, BlockId};
use crate::error::{BlockError, BlockResult};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use stegfs_obs::lock::{Condvar, Mutex, MutexGuard};

/// Which submissions the scripted and random failures may hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every submission.
    #[default]
    All,
    /// Reads only.
    Reads,
    /// Writes and flushes only.
    Writes,
}

impl FaultTarget {
    fn hits(self, dir: Dir) -> bool {
        match self {
            FaultTarget::All => true,
            FaultTarget::Reads => dir == Dir::Read,
            FaultTarget::Writes => dir != Dir::Read,
        }
    }
}

/// What one crash or damage call did: a crash fills the first three
/// fields, damage the other four.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Pending writes applied whole.
    pub applied: usize,
    /// Pending writes dropped entirely.
    pub dropped: usize,
    /// Pending writes torn (a proper prefix survived).
    pub torn: usize,
    /// Individual bits flipped across all bit-rotted blocks.
    pub bits_flipped: usize,
    /// Blocks that received bit flips.
    pub blocks_bitflipped: usize,
    /// Blocks replaced with zeros.
    pub blocks_zeroed: usize,
    /// Blocks replaced with seeded junk.
    pub blocks_overwritten: usize,
}

impl FaultReport {
    /// Blocks touched by any damage mode.
    pub fn blocks_damaged(&self) -> usize {
        self.blocks_bitflipped + self.blocks_zeroed + self.blocks_overwritten
    }
}

/// Which way a submission goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `read_block` or `read_blocks`.
    Read,
    /// `write_block` or `write_blocks`.
    Write,
    /// The [`flush`](BlockDevice::flush) barrier.
    Flush,
}

/// One submission, as triggers and observers see it.
#[derive(Debug, Clone, Copy)]
pub struct Op<'a> {
    /// Submissions seen before this one: what [`Trigger::at`] matches.
    pub index: u64,
    /// Its flush epoch: flushes submitted before this one.
    pub epoch: u64,
    /// Which way it goes.
    pub dir: Dir,
    /// Submitted as a batch (`read_blocks` / `write_blocks`).
    pub batch: bool,
    /// Its blocks, in order (none for a flush).
    pub blocks: &'a [BlockId],
    /// A write's block images, concatenated (empty otherwise).
    pub data: &'a [u8],
}

impl<'a> Op<'a> {
    /// Numbered by [`FaultDevice`] on arrival.
    fn new(dir: Dir, batch: bool, blocks: &'a [BlockId], data: &'a [u8]) -> Self {
        Op {
            index: 0,
            epoch: 0,
            dir,
            batch,
            blocks,
            data,
        }
    }
}

/// Which submissions a plan fires on.
pub struct Trigger(Box<dyn Fn(&Op<'_>) -> bool + Send>);

impl Trigger {
    /// The submission numbered `index` (0-based).
    pub fn at(index: u64) -> Self {
        Self::when(move |op| op.index == index)
    }

    /// The submissions `matches` holds for.
    pub fn when(matches: impl Fn(&Op<'_>) -> bool + Send + 'static) -> Self {
        Trigger(Box::new(matches))
    }
}

/// Where a parked submission waits: before or after its transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkAt {
    /// Before it reaches the wrapped device.
    Before,
    /// After the wrapped device has served it.
    After,
}

/// The handle of one [`park`](FaultDevice::park) plan: `(parked,
/// released)` under a lock, and the condvar both sides wait on.
#[derive(Clone, Default)]
pub struct Park(Arc<(Mutex<(bool, bool)>, Condvar)>);

impl Park {
    /// Block until the planned submission is parked.
    pub fn wait(&self) {
        let (state, cv) = &*self.0;
        let mut g = state.lock();
        while !g.0 {
            g = cv.wait(g);
        }
    }

    /// Whether the planned submission is parked now.
    pub fn is_parked(&self) -> bool {
        *self.0 .0.lock() == (true, false)
    }

    /// Let the parked submission go on; a plan that has not fired yet is
    /// disarmed instead.
    pub fn release(&self) {
        self.0 .0.lock().1 = true;
        self.0 .1.notify_all();
    }

    fn released(&self) -> bool {
        self.0 .0.lock().1
    }

    /// The parked submission's side: announce it, wait for the release.
    fn hold(&self) {
        let (state, cv) = &*self.0;
        let mut g = state.lock();
        g.0 = true;
        cv.notify_all();
        while !g.1 {
            g = cv.wait(g);
        }
    }
}

enum Verb {
    /// `scripted`: armed by [`FaultDevice::script_failures`], which
    /// replaces the ones still armed.
    Fail {
        scripted: bool,
    },
    Panic,
    Park(Park, ParkAt),
    Record(Box<dyn FnMut(&Op<'_>) + Send>),
}

struct Plan {
    on: Trigger,
    verb: Verb,
}

/// The spent plans one submission fired.
#[derive(Default)]
struct Fired {
    fail: bool,
    panic: bool,
    park: Option<(Park, ParkAt)>,
}

/// A xorshift state for `seed` (offset so that seed 0 does not stick).
fn seeded(seed: u64) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15
}

/// The one xorshift every seeded fault draws from.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn transient_failure() -> BlockError {
    BlockError::Io(io::Error::new(
        io::ErrorKind::Interrupted,
        "transient device error",
    ))
}

fn tripped_failure() -> BlockError {
    BlockError::Io(io::Error::other("injected crash: device unreachable"))
}

/// Unflushed writes of a write-cache device.
#[derive(Default)]
struct Pending {
    /// In submission order, one entry per block (even within a batch).
    log: Vec<(BlockId, Vec<u8>)>,
    /// Latest pending image per block, for read-back.
    latest: HashMap<BlockId, Vec<u8>>,
}

#[derive(Default)]
struct State {
    rng: u64,
    fail_percent: u64,
    streak_len: u64,
    target: FaultTarget,
    /// Failures left in the current random streak.
    streak: u64,
    /// Block writes left before the trip (`None` = disarmed).
    writes_left: Option<u64>,
    tripped: bool,
    /// `None` on a pass-through device.
    pending: Option<Pending>,
    ops: u64,
    flushes: u64,
    injected: u64,
    plans: Vec<Plan>,
}

impl State {
    /// Take the fail, panic and park plans `op` fires, the earliest armed
    /// of each; a park whose handle was released unfired is dropped.
    fn fire(&mut self, op: &Op<'_>) -> Fired {
        let mut fired = Fired::default();
        self.plans.retain(|plan| match &plan.verb {
            Verb::Park(park, _) if park.released() => false,
            Verb::Fail { .. } if !fired.fail && (plan.on.0)(op) => {
                fired.fail = true;
                false
            }
            Verb::Panic if !fired.panic && (plan.on.0)(op) => {
                fired.panic = true;
                false
            }
            Verb::Park(park, at) if fired.park.is_none() && (plan.on.0)(op) => {
                fired.park = Some((park.clone(), *at));
                false
            }
            _ => true,
        });
        fired
    }

    /// Hand `op` to every record plan it matches.
    fn record(&mut self, op: &Op<'_>) {
        for plan in &mut self.plans {
            if let Verb::Record(observe) = &mut plan.verb {
                if (plan.on.0)(op) {
                    observe(op);
                }
            }
        }
    }

    /// Let the random failures pass or fail one submission.
    fn schedule(&mut self, dir: Dir) -> BlockResult<()> {
        let targeted = self.target.hits(dir);
        if targeted
            && self.streak == 0
            && self.fail_percent > 0
            && xorshift(&mut self.rng) % 100 < self.fail_percent
        {
            self.streak = self.streak_len;
        }
        if targeted && self.streak > 0 {
            self.streak -= 1;
            self.injected += 1;
            return Err(transient_failure());
        }
        Ok(())
    }

    /// How many of `n` block writes the trip wire lets through; trips it if
    /// that is fewer than `n` (a tripped wire has none left).
    fn admit_writes(&mut self, n: usize) -> usize {
        let through = self
            .writes_left
            .map_or(n, |left| left.min(n as u64) as usize);
        if let Some(left) = &mut self.writes_left {
            *left -= through as u64;
        }
        if through < n {
            self.tripped = true;
            self.injected += 1;
        }
        through
    }
}

/// A wrapper that fails submissions, loses unflushed writes and damages
/// blocks at rest, each reproducibly from a seed.  See the module docs.
pub struct FaultDevice<D> {
    inner: Arc<D>,
    state: Arc<Mutex<State>>,
}

impl<D> Clone for FaultDevice<D> {
    fn clone(&self) -> Self {
        FaultDevice {
            inner: Arc::clone(&self.inner),
            state: Arc::clone(&self.state),
        }
    }
}

impl<D: BlockDevice> FaultDevice<D> {
    /// A pass-through over `inner`: healthy I/O goes straight through.
    pub fn new(inner: D) -> Self {
        Self::build(inner, None)
    }

    /// A device with a volatile write cache: writes stay pending until
    /// [`flush`](BlockDevice::flush), and [`crash`](Self::crash) decides
    /// their fate.
    pub fn with_write_cache(inner: D) -> Self {
        Self::build(inner, Some(Pending::default()))
    }

    fn build(inner: D, pending: Option<Pending>) -> Self {
        let state = State {
            pending,
            ..State::default()
        };
        FaultDevice {
            inner: Arc::new(inner),
            state: Arc::new(Mutex::new(state)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock()
    }

    /// Fail exactly the next `count` submissions the [`fail_only`](Self::fail_only)
    /// target picks now, ahead of any random streak; the one after them
    /// succeeds.  These are `count` [`fail`](Self::fail) plans, which
    /// replace the ones an earlier call left armed (`0` disarms them).
    pub fn script_failures(&self, count: u64) {
        let mut st = self.lock();
        st.plans
            .retain(|plan| !matches!(plan.verb, Verb::Fail { scripted: true }));
        let target = st.target;
        for _ in 0..count {
            st.plans.push(Plan {
                on: Trigger::when(move |op| target.hits(op.dir)),
                verb: Verb::Fail { scripted: true },
            });
        }
    }

    /// From now on each targeted submission starts a streak of `streak_len`
    /// failures (minimum 1) with probability `fail_percent`/100 (at most
    /// 1), deterministically in `seed`.
    pub fn random_failures(&self, seed: u64, fail_percent: u64, streak_len: u64) {
        let mut st = self.lock();
        st.rng = seeded(seed);
        st.fail_percent = fail_percent.min(100);
        st.streak_len = streak_len.max(1);
    }

    /// Aim the random failures, and the scripted ones armed from now on,
    /// at `target` only.
    pub fn fail_only(&self, target: FaultTarget) {
        self.lock().target = target;
    }

    /// Arm the trip wire: after `n` more blocks are written, every write and
    /// flush fails until [`clear_failure`](Self::clear_failure) or
    /// [`crash`](Self::crash).
    pub fn fail_after_writes(&self, n: u64) {
        let mut st = self.lock();
        st.writes_left = Some(n);
        st.tripped = false;
    }

    /// Disarm the trip wire and clear a tripped failure without crashing.
    pub fn clear_failure(&self) {
        let mut st = self.lock();
        st.writes_left = None;
        st.tripped = false;
    }

    /// Fail the submission `on` picks: it reaches nothing and returns the
    /// static `Interrupted` error.
    pub fn fail(&self, on: Trigger) {
        self.arm(on, Verb::Fail { scripted: false });
    }

    /// Panic in the submission `on` picks, before it reaches anything.
    pub fn panic(&self, on: Trigger) {
        self.arm(on, Verb::Panic);
    }

    /// Park the submission `on` picks, `at` its transfer, until the
    /// returned handle releases it.
    pub fn park(&self, on: Trigger, at: ParkAt) -> Park {
        let park = Park::default();
        self.arm(on, Verb::Park(park.clone(), at));
        park
    }

    /// Hand every submission `on` matches to `observer` as it reaches the
    /// wrapped device (or the write cache): not one a fault refused, of a
    /// batch the trip wire cut short only the part that lands, and a flush
    /// once it has returned `Ok`, so what it covers is durable.
    pub fn record(&self, on: Trigger, observer: impl FnMut(&Op<'_>) + Send + 'static) {
        self.arm(on, Verb::Record(Box::new(observer)));
    }

    fn arm(&self, on: Trigger, verb: Verb) {
        self.lock().plans.push(Plan { on, verb });
    }

    /// Submissions seen so far, failed or passed through: the index of the
    /// next one.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Flushes seen so far, failed or passed through: the current flush
    /// epoch.
    pub fn flushes(&self) -> u64 {
        self.lock().flushes
    }

    /// Submissions failed by injection so far.
    pub fn injected(&self) -> u64 {
        self.lock().injected
    }

    /// Block writes pending, not yet flushed (0 on a pass-through).
    pub fn pending_writes(&self) -> usize {
        self.lock().pending.as_ref().map_or(0, |p| p.log.len())
    }

    /// Pull the plug: deterministically (by `seed`) apply, drop or tear each
    /// pending write in submission order, then clear the pending set and
    /// the trip wire.  The device stays usable: remount it to observe what
    /// survived.
    pub fn crash(&self, seed: u64) -> FaultReport {
        let mut st = self.lock();
        st.writes_left = None;
        st.tripped = false;
        let mut report = FaultReport::default();
        let Some(pending) = st.pending.as_mut() else {
            return report;
        };
        pending.latest.clear();
        let inner = &self.inner;
        let mut rng = seeded(seed);
        for (block, data) in std::mem::take(&mut pending.log) {
            match xorshift(&mut rng) % 100 {
                // Half the queue tends to make it to the platter whole...
                0..=49 => {
                    let _ = inner.write_block(block, &data);
                    report.applied += 1;
                }
                // ...a third is lost entirely...
                50..=84 => report.dropped += 1,
                // ...and the rest is torn: only a proper prefix survives
                // over whatever the stable store already held.
                _ => {
                    if let Ok(mut old) = inner.read_block_vec(block) {
                        let cut = 1 + (xorshift(&mut rng) as usize) % (data.len().max(2) - 1);
                        old[..cut].copy_from_slice(&data[..cut]);
                        let _ = inner.write_block(block, &old);
                    }
                    report.torn += 1;
                }
            }
        }
        report
    }

    /// Flip `count` pseudorandomly chosen bits (deterministic in `seed`)
    /// inside `block`: bit rot.
    pub fn flip_bits(&self, block: BlockId, count: usize, seed: u64) -> BlockResult<FaultReport> {
        let mut data = self.inner.read_block_vec(block)?;
        let mut rng = seeded(seed);
        for _ in 0..count {
            let bit = (xorshift(&mut rng) % (data.len() as u64 * 8)) as usize;
            data[bit / 8] ^= 1 << (bit % 8);
        }
        self.inner.write_block(block, &data)?;
        Ok(FaultReport {
            bits_flipped: count,
            blocks_bitflipped: usize::from(count > 0),
            ..FaultReport::default()
        })
    }

    /// Replace `block` with zeros, as a lost-then-remapped sector reads.
    pub fn zero_block(&self, block: BlockId) -> BlockResult<FaultReport> {
        let zeros = vec![0u8; self.block_size()];
        self.inner.write_block(block, &zeros)?;
        Ok(FaultReport {
            blocks_zeroed: 1,
            ..FaultReport::default()
        })
    }

    /// Replace `count` blocks from `start` with seeded junk, a misdirected
    /// bulk write.  The junk is full-entropy xorshift output, so damaged
    /// blocks still look like every other block of a StegFS volume.
    pub fn overwrite_region(
        &self,
        start: BlockId,
        count: u64,
        seed: u64,
    ) -> BlockResult<FaultReport> {
        let mut rng = seeded(seed);
        let mut junk = vec![0u8; self.block_size()];
        for block in start..start + count {
            for chunk in junk.chunks_mut(8) {
                chunk.copy_from_slice(&xorshift(&mut rng).to_be_bytes()[..chunk.len()]);
            }
            self.inner.write_block(block, &junk)?;
        }
        Ok(FaultReport {
            blocks_overwritten: count as usize,
            ..FaultReport::default()
        })
    }

    /// Damage `count` distinct blocks drawn (deterministically in `seed`,
    /// without replacement) from `blocks`, mixing the three damage modes.
    /// If `count` exceeds the candidates, each is damaged once.
    pub fn corrupt_random_in(
        &self,
        blocks: &[BlockId],
        count: usize,
        seed: u64,
    ) -> BlockResult<FaultReport> {
        let mut rng = seeded(seed);
        let mut pool = blocks.to_vec();
        let mut report = FaultReport::default();
        for _ in 0..count.min(blocks.len()) {
            let pick = (xorshift(&mut rng) % pool.len() as u64) as usize;
            let block = pool.swap_remove(pick);
            let damage = match xorshift(&mut rng) % 3 {
                0 => {
                    let bits = 1 + (xorshift(&mut rng) % 8) as usize;
                    self.flip_bits(block, bits, xorshift(&mut rng))?
                }
                1 => self.zero_block(block)?,
                _ => self.overwrite_region(block, 1, xorshift(&mut rng))?,
            };
            report.bits_flipped += damage.bits_flipped;
            report.blocks_bitflipped += damage.blocks_bitflipped;
            report.blocks_zeroed += damage.blocks_zeroed;
            report.blocks_overwritten += damage.blocks_overwritten;
        }
        Ok(report)
    }

    /// Number `op` and fire the plans it triggers; unless one fails or
    /// panics it, or the random failures refuse it, run `transfer` with the
    /// state locked.  An after-park holds on every outcome.
    fn submit(
        &self,
        mut op: Op<'_>,
        transfer: impl FnOnce(MutexGuard<'_, State>, &Op<'_>) -> BlockResult<()>,
    ) -> BlockResult<()> {
        let mut st = self.lock();
        (op.index, op.epoch) = (st.ops, st.flushes);
        st.ops += 1;
        st.flushes += u64::from(op.dir == Dir::Flush);
        let fired = st.fire(&op);
        let mut after = None;
        match fired.park {
            Some((park, ParkAt::Before)) => {
                drop(st);
                park.hold();
                st = self.lock();
            }
            parked => after = parked.map(|(park, _)| park),
        }
        let result = if fired.panic {
            drop(st);
            Ok(())
        } else if fired.fail {
            st.injected += 1;
            drop(st);
            Err(transient_failure())
        } else {
            match st.schedule(op.dir) {
                Ok(()) => transfer(st, &op),
                refused => {
                    drop(st);
                    refused
                }
            }
        };
        if let Some(park) = after {
            park.hold();
        }
        if fired.panic {
            panic!("injected panic at submission {}", op.index);
        }
        result
    }

    /// One read submission: `forward`ed on a pass-through, otherwise the
    /// stable images overlaid with the pending ones.
    fn read(
        &self,
        op: Op<'_>,
        buf: &mut [u8],
        forward: impl FnOnce(&D, &mut [u8]) -> BlockResult<()>,
    ) -> BlockResult<()> {
        self.submit(op, |mut st, op| {
            st.record(op);
            let Some(pending) = st.pending.as_ref() else {
                drop(st);
                return forward(&self.inner, buf);
            };
            self.inner.read_blocks(op.blocks, buf)?;
            let images = buf.chunks_mut(self.block_size());
            for (block, image) in op.blocks.iter().zip(images) {
                if let Some(data) = pending.latest.get(block) {
                    image.copy_from_slice(data);
                }
            }
            Ok(())
        })
    }

    /// One write submission: the schedule, then the trip wire lets a prefix
    /// of the blocks through, into the pending set or the wrapped device.
    fn write(&self, op: Op<'_>) -> BlockResult<()> {
        self.submit(op, |mut st, op| {
            let (blocks, buf) = (op.blocks, op.data);
            let bs = self.block_size();
            check_batch(blocks.len(), buf.len(), bs)?;
            let total = self.total_blocks();
            if let Some(&block) = blocks.iter().find(|&&b| b >= total) {
                return Err(BlockError::OutOfRange { block, total });
            }
            let n = st.admit_writes(blocks.len());
            let (through, data) = (&blocks[..n], &buf[..n * bs]);
            if n > 0 {
                st.record(&Op {
                    blocks: through,
                    data,
                    ..*op
                });
            }
            if let Some(pending) = st.pending.as_mut() {
                for (&block, image) in through.iter().zip(data.chunks(bs)) {
                    pending.log.push((block, image.to_vec()));
                    pending.latest.insert(block, image.to_vec());
                }
            } else if !through.is_empty() {
                drop(st);
                match through {
                    [block] => self.inner.write_block(*block, data)?,
                    _ => self.inner.write_blocks(through, data)?,
                }
            }
            if n < blocks.len() {
                return Err(tripped_failure());
            }
            Ok(())
        })
    }
}

impl<D: BlockDevice> BlockDevice for FaultDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.inner.total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        let op = Op::new(Dir::Read, false, std::slice::from_ref(&block), &[]);
        self.read(op, buf, |d, buf| d.read_block(block, buf))
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        let blocks = std::slice::from_ref(&block);
        self.write(Op::new(Dir::Write, false, blocks, buf))
    }

    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        let op = Op::new(Dir::Read, true, blocks, &[]);
        self.read(op, buf, |d, buf| d.read_blocks(blocks, buf))
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        self.write(Op::new(Dir::Write, true, blocks, buf))
    }

    /// The barrier: every pending write reaches the wrapped device, in
    /// order, before it is flushed.  If one of those writes fails, it and
    /// every write after it stay pending for the next flush (or crash).
    fn flush(&self) -> BlockResult<()> {
        self.submit(Op::new(Dir::Flush, false, &[], &[]), |mut st, op| {
            // A spent budget refuses the barrier too: the writes it let
            // through stay pending, never durable.
            if st.tripped || st.writes_left == Some(0) {
                st.tripped = true;
                st.injected += 1;
                return Err(tripped_failure());
            }
            let inner = &self.inner;
            if let Some(pending) = st.pending.as_mut() {
                let mut written = 0;
                let result: BlockResult<()> = pending.log.iter().try_for_each(|(block, data)| {
                    inner.write_block(*block, data)?;
                    written += 1;
                    Ok(())
                });
                pending.log.drain(..written);
                result?;
                pending.latest.clear();
            }
            drop(st);
            inner.flush()?;
            self.lock().record(op);
            Ok(())
        })
    }
}

/// The device's own tests, and the helpers the `crash`, `corrupt` and
/// `flaky` test modules share.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::device::MemBlockDevice;

    pub(crate) const BS: usize = 64;

    pub(crate) fn mem(total: u64) -> MemBlockDevice {
        MemBlockDevice::new(BS, total)
    }

    /// A pass-through device and a write-cache device over fresh volumes.
    pub(crate) fn both_modes(total: u64) -> [FaultDevice<MemBlockDevice>; 2] {
        [
            FaultDevice::new(mem(total)),
            FaultDevice::with_write_cache(mem(total)),
        ]
    }

    /// What the wrapped device holds at `block`, past any pending write.
    pub(crate) fn stable<D: BlockDevice>(dev: &FaultDevice<D>, block: BlockId) -> Vec<u8> {
        dev.inner.read_block_vec(block).unwrap()
    }

    /// A pass-through device whose every block holds `byte`.
    pub(crate) fn filled(total: u64, byte: u8) -> FaultDevice<MemBlockDevice> {
        let dev = FaultDevice::new(mem(total));
        let blocks: Vec<u64> = (0..total).collect();
        let image = vec![byte; total as usize * BS];
        dev.write_blocks(&blocks, &image).unwrap();
        dev
    }

    #[test]
    fn probabilistic_flakes_are_transient_and_deterministic() {
        let run = |seed: u64| {
            let dev = FaultDevice::new(mem(8));
            dev.random_failures(seed, 30, 2);
            (0..200u64)
                .map(|i| dev.write_block(i % 8, &[i as u8; BS]).is_ok())
                .collect::<Vec<bool>>()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same fault stream");
        assert!(a.contains(&false), "a 30% rate over 200 ops must fire");
        assert!(a.contains(&true), "flakes are transient, not fatal");
        // A run of failures is at least one whole streak, but streaks can
        // chain: the roll after a drained streak may start the next at once.
        let longest = a.split(|ok| *ok).map(<[bool]>::len).max().unwrap();
        assert!(longest >= 2, "streak length reached at least once");
    }

    #[test]
    fn fail_only_aims_the_schedule_at_one_direction() {
        let dev = FaultDevice::new(mem(8));
        dev.fail_only(FaultTarget::Writes);
        dev.script_failures(2);
        // Reads pass and leave the scripted failures to the write side.
        assert_eq!(dev.read_block_vec(0).unwrap(), vec![0; BS]);
        assert!(dev.write_block(0, &[1; BS]).is_err());
        assert!(dev.flush().is_err(), "a flush is a write-side submission");
        dev.fail_only(FaultTarget::Reads);
        dev.script_failures(1);
        dev.write_block(1, &[2; BS]).unwrap();
        dev.flush().unwrap();
        assert!(dev.read_block_vec(1).is_err());
        assert_eq!(dev.read_block_vec(1).unwrap(), vec![2; BS]);
        assert_eq!(dev.injected(), 3);
    }

    #[test]
    fn fail_after_writes_trips_and_crash_clears() {
        for dev in both_modes(8) {
            dev.fail_after_writes(3);
            dev.write_block(0, &[1; BS]).unwrap();
            let data: Vec<u8> = (2u8..6).flat_map(|v| [v; BS]).collect();
            assert!(dev.write_blocks(&[1, 2, 3, 4], &data).is_err());
            // Blocks count, not submissions: two of the batch landed.
            assert_eq!(dev.read_block_vec(2).unwrap(), vec![3; BS]);
            assert_eq!(dev.read_block_vec(3).unwrap(), vec![0; BS]);
            // Sticky for writes and the barrier, until cleared.
            assert!(dev.write_block(5, &[9; BS]).is_err());
            assert!(dev.flush().is_err(), "tripped device refuses the barrier");
            dev.clear_failure();
            dev.write_block(5, &[9; BS]).unwrap();
            dev.fail_after_writes(0);
            assert!(dev.write_block(6, &[9; BS]).is_err());
            dev.crash(1);
            dev.write_block(6, &[9; BS]).unwrap();
            dev.flush().unwrap();
            assert_eq!(dev.read_block_vec(6).unwrap(), vec![9; BS]);
            assert_eq!(dev.injected(), 4);
        }
    }

    /// A flush after exactly the armed number of landed blocks, or right
    /// after arming zero, fails, and the writes it would have made durable
    /// stay off the wrapped device.
    #[test]
    fn a_spent_write_budget_refuses_the_barrier() {
        for armed in [0, 2] {
            let store = FaultDevice::new(mem(8));
            let dev = FaultDevice::with_write_cache(store.clone());
            dev.write_block(7, &[7; BS]).unwrap();
            dev.flush().unwrap();
            dev.fail_after_writes(armed);
            for b in 0..armed {
                dev.write_block(b, &[b as u8 + 1; BS]).unwrap();
            }
            assert!(
                dev.flush().is_err(),
                "armed {armed}: the barrier is refused"
            );
            assert_eq!(dev.pending_writes(), armed as usize, "armed {armed}");
            for b in 0..armed {
                assert_eq!(store.read_block_vec(b).unwrap(), vec![0; BS]);
            }
            assert!(dev.flush().is_err(), "armed {armed}: sticky until cleared");
            dev.clear_failure();
            dev.flush().unwrap();
            for b in 0..armed {
                assert_eq!(store.read_block_vec(b).unwrap(), vec![b as u8 + 1; BS]);
            }
        }
    }

    /// Regression: a flush whose write-down failed used to take the whole
    /// pending log with it, so the unwritten tail was neither pending nor
    /// durable, and the next successful flush left zeros behind.
    #[test]
    fn failed_flush_keeps_the_unwritten_tail_pending() {
        let store = FaultDevice::new(mem(8));
        let dev = FaultDevice::with_write_cache(store.clone());
        dev.write_blocks(&[0, 1], &[[1u8; BS], [2; BS]].concat())
            .unwrap();
        store.script_failures(1);
        assert!(dev.flush().is_err());
        assert_eq!(dev.pending_writes(), 2, "nothing was written down");
        dev.flush().unwrap();
        // Part-way: the first of three lands, the other two stay pending.
        for b in 2..5 {
            dev.write_block(b, &[b as u8; BS]).unwrap();
        }
        store.fail_after_writes(1);
        assert!(dev.flush().is_err());
        assert_eq!(dev.pending_writes(), 2);
        store.clear_failure();
        dev.flush().unwrap();
        for (b, v) in [(0, 1), (1, 2), (2, 2), (3, 3), (4, 4)] {
            assert_eq!(store.read_block_vec(b).unwrap(), vec![v; BS]);
        }
    }

    /// Writes of blocks 0..3 (3 as a batch with 4), a flush, then reads of
    /// blocks 0..3: the outcome of each, numbered 0..8.
    fn script(dev: &FaultDevice<MemBlockDevice>) -> Vec<&'static str> {
        (0..8u64)
            .map(|i| {
                let run = || match i {
                    0..=2 => dev.write_block(i, &[i as u8; BS]),
                    3 => dev.write_blocks(&[3, 4], &[3; 2 * BS]),
                    4 => dev.flush(),
                    _ => dev.read_block_vec(i - 5).map(drop),
                };
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                    Ok(Ok(())) => "ok",
                    Ok(Err(_)) => "err",
                    Err(_) => "panic",
                }
            })
            .collect()
    }

    /// Index 6, and the reads of flush epoch 1 (submissions 5..8, the
    /// first of which fires), with the submission each fires on.
    fn triggers() -> [(Trigger, usize); 2] {
        let after_the_flush = |op: &Op<'_>| op.dir == Dir::Read && op.epoch == 1;
        [(Trigger::at(6), 6), (Trigger::when(after_the_flush), 5)]
    }

    #[test]
    fn fail_and_panic_fire_once_at_their_index_or_first_match() {
        for (verb, outcome) in [("fail", "err"), ("panic", "panic")] {
            for (on, hit) in triggers() {
                let dev = FaultDevice::new(mem(8));
                match verb {
                    "fail" => dev.fail(on),
                    _ => dev.panic(on),
                }
                let mut want = ["ok"; 8];
                want[hit] = outcome;
                assert_eq!(script(&dev), want, "{verb} at {hit}");
                assert_eq!(script(&dev), ["ok"; 8], "{verb}: spent");
                assert_eq!(dev.injected(), u64::from(verb == "fail"));
            }
        }
    }

    #[test]
    fn record_hands_over_each_match_with_its_kind_blocks_and_data() {
        let batch = |op: &Op<'_>| op.dir == Dir::Write && op.batch;
        for (on, hit) in [(Trigger::at(6), 6), (Trigger::when(batch), 3)] {
            let dev = FaultDevice::new(mem(8));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let tape = Arc::clone(&seen);
            dev.record(on, move |op| {
                let (blocks, data) = (op.blocks.to_vec(), op.data.to_vec());
                tape.lock().push((op.index, op.epoch, op.dir, blocks, data));
            });
            assert_eq!(script(&dev), ["ok"; 8]);
            let want = match hit {
                6 => (6, 1, Dir::Read, vec![1], vec![]),
                _ => (3, 0, Dir::Write, vec![3, 4], vec![3; 2 * BS]),
            };
            assert_eq!(*seen.lock(), [want]);
        }
        // A refused submission is not recorded.
        let dev = FaultDevice::new(mem(8));
        let seen = Arc::new(Mutex::new(0));
        let count = Arc::clone(&seen);
        dev.record(Trigger::when(|_| true), move |_| *count.lock() += 1);
        dev.fail(Trigger::at(1));
        assert_eq!(script(&dev)[..2], ["ok", "err"]);
        assert_eq!(*seen.lock(), 7);
    }

    #[test]
    fn a_parked_submission_waits_while_others_complete() {
        let reads = |op: &Op<'_>| op.dir == Dir::Read;
        for (on, at) in [
            (Trigger::at(1), ParkAt::Before),
            (Trigger::when(reads), ParkAt::After),
        ] {
            let dev = FaultDevice::new(mem(8));
            dev.write_block(0, &[1; BS]).unwrap();
            // A park released before it fires is disarmed, not spent on the
            // next submission in place of `on`'s.
            dev.park(Trigger::when(|_| true), ParkAt::Before).release();
            let park = dev.park(on, at);
            let parked = {
                let dev = dev.clone();
                std::thread::spawn(move || match at {
                    ParkAt::Before => dev.write_block(2, &[2; BS]).map(|()| Vec::new()),
                    ParkAt::After => dev.read_block_vec(0),
                })
            };
            park.wait();
            assert!(park.is_parked());
            // Other I/O on the device, the trigger's own matches included,
            // goes on: the plan is spent.
            dev.write_block(0, &[9; BS]).unwrap();
            assert_eq!(dev.read_block_vec(0).unwrap(), vec![9; BS]);
            assert_eq!(
                stable(&dev, 2),
                vec![0; BS],
                "a parked write has not landed"
            );
            park.release();
            let got = parked.join().unwrap().unwrap();
            match at {
                ParkAt::Before => assert_eq!(stable(&dev, 2), vec![2; BS]),
                ParkAt::After => assert_eq!(got, vec![1; BS], "the image it fetched"),
            }
            assert!(!park.is_parked());
        }
    }

    /// An after-park fired on a submission that fails, panics or is
    /// refused by the random failures still parks it, then lets it end so.
    #[test]
    fn an_after_park_holds_every_outcome() {
        for outcome in ["fail", "panic", "refuse"] {
            let dev = FaultDevice::new(mem(8));
            match outcome {
                "fail" => dev.fail(Trigger::at(0)),
                "panic" => dev.panic(Trigger::at(0)),
                _ => dev.random_failures(1, 100, 1),
            }
            dev.fail_only(FaultTarget::Writes);
            let park = dev.park(Trigger::at(0), ParkAt::After);
            let parked = {
                let dev = dev.clone();
                std::thread::spawn(move || dev.write_block(2, &[2; BS]))
            };
            park.wait();
            assert_eq!(dev.read_block_vec(2).unwrap(), vec![0; BS], "{outcome}");
            park.release();
            match parked.join() {
                Ok(result) => assert!(outcome != "panic" && result.is_err()),
                Err(_) => assert_eq!(outcome, "panic"),
            }
            assert_eq!(stable(&dev, 2), vec![0; BS], "{outcome}: reached nothing");
        }
    }

    #[test]
    fn script_failures_replaces_only_its_own_fail_plans() {
        let dev = FaultDevice::new(mem(8));
        dev.fail(Trigger::at(3));
        dev.script_failures(5);
        dev.script_failures(1);
        let want = ["err", "ok", "ok", "err", "ok", "ok", "ok", "ok"];
        assert_eq!(script(&dev), want);
        dev.script_failures(2);
        dev.script_failures(0);
        assert_eq!(script(&dev), ["ok"; 8]);
        assert_eq!(dev.injected(), 2);
    }

    #[test]
    fn flip_bits_changes_exactly_that_many_bits_or_fewer() {
        let dev = filled(4, 0);
        let report = dev.flip_bits(2, 5, 99).unwrap();
        assert_eq!((report.bits_flipped, report.blocks_damaged()), (5, 1));
        let data = dev.read_block_vec(2).unwrap();
        let set: u32 = data.iter().map(|b| b.count_ones()).sum();
        // Two flips can land on the same bit and cancel; parity is fixed.
        assert!((1..=5).contains(&set) && set % 2 == 1);
        assert_eq!(dev.read_block_vec(1).unwrap(), vec![0; BS]);
    }

    #[test]
    fn zero_and_overwrite_are_deterministic_and_scoped() {
        let dev = filled(8, 0xaa);
        // Damage bypasses the schedule: armed failures neither fire nor count.
        dev.script_failures(10);
        dev.fail_after_writes(0);
        assert_eq!(dev.zero_block(1).unwrap().blocks_damaged(), 1);
        assert_eq!(dev.overwrite_region(4, 2, 7).unwrap().blocks_overwritten, 2);
        assert_eq!((dev.ops(), dev.injected()), (1, 0));
        dev.clear_failure();
        dev.script_failures(0);
        assert_eq!(dev.read_block_vec(1).unwrap(), vec![0; BS]);
        let got4 = dev.read_block_vec(4).unwrap();
        assert_ne!(got4, vec![0xaa; BS]);
        assert_ne!(got4, dev.read_block_vec(5).unwrap(), "junk stream advances");
        let dev2 = filled(8, 0xaa);
        dev2.overwrite_region(4, 2, 7).unwrap();
        assert_eq!(
            dev2.read_block_vec(4).unwrap(),
            got4,
            "same seed, same junk"
        );
        for untouched in [3, 6] {
            assert_eq!(dev.read_block_vec(untouched).unwrap(), vec![0xaa; BS]);
        }
    }

    #[test]
    fn corrupt_random_in_damages_requested_count_without_replacement() {
        let dev = filled(16, 0x55);
        let candidates: Vec<u64> = (0..16).collect();
        let report = dev.corrupt_random_in(&candidates, 6, 1234).unwrap();
        assert_eq!(report.blocks_damaged(), 6);
        let visibly_damaged = (0..16)
            .filter(|&b| dev.read_block_vec(b).unwrap() != [0x55; BS])
            .count();
        // Picks are distinct; a bit-rotted block can cancel back to
        // identity, a zeroed or overwritten one cannot.
        assert!(visibly_damaged <= 6);
        assert!(visibly_damaged >= report.blocks_zeroed + report.blocks_overwritten);
        let all = filled(4, 0x55).corrupt_random_in(&[0, 1, 2, 3], 10, 5);
        assert_eq!(all.unwrap().blocks_damaged(), 4, "each candidate once");
    }
}
