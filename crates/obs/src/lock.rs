//! The workspace's one lock module: [`Mutex`], [`RwLock`] and [`Condvar`].
//!
//! Every lock in the stack is one of these three types, with the standard
//! library's primitives inside: `lock()` / `read()` / `write()` return a
//! guard, not a `Result`.
//!
//! # Named and anonymous locks
//!
//! A lock built with `new` is **anonymous**: it allocates nothing beyond
//! the std lock and never reads the clock, so per-open locks cost what a
//! bare std lock costs.  A lock built with [`Mutex::with_stats`] /
//! [`RwLock::with_stats`], or joined later with `set_stats`, is **named**:
//! it reports into a shared [`LockStats`] family — several locks (all 64
//! object shards) can share one family so it reports as one metric.  The
//! families are `fs.alloc`, `fs.alloc.N`, `fs.namespace`, `journal.state`,
//! `core.object_shards`, `core.uak_shards` and `engine.queue`
//! ([`crate::LOCK_NAMES`], [`crate::ALLOC_SHARD_NAMES`]).
//!
//! A named acquisition takes `try_lock` / `try_read` / `try_write` first:
//! success counts one acquisition, failure counts one *contended*
//! acquisition and records its wait.  Every named hold records its length.
//! A [`Condvar`] wait on a named lock closes the hold and opens a new one
//! on wake; the re-lock after a wake is not counted as an acquisition (a
//! wake-up is not competition for the lock).
//!
//! # Poison rule
//!
//! A thread that panics while holding a lock leaves it usable: every
//! acquisition and every condvar wait recovers the poisoned guard, so the
//! next caller gets in as if the lock had never been poisoned.
//! Whatever the panicking holder left half-done stays visible to that
//! caller; the engine's fail-stop (its poisoned state) is what keeps later
//! requests off a volume whose request panicked.
//!
//! # Lock order
//!
//! Outer to inner: a thread holding a lock takes only locks further down
//! the table.  Locks on one row at one level are taken one at a time
//! unless the row says how to take several.
//!
//! | Lock | Where | Rule |
//! |------|-------|------|
//! | open-file table shard | `stegfs-vfs` `table` | handle bookkeeping; never held across I/O |
//! | per-handle offset lock | `stegfs-vfs` `OpenFile::offset` | a streaming op holds it across its object I/O |
//! | object registry | `stegfs-vfs` | open / close / unlink only |
//! | per-object lock | `stegfs-vfs` `ObjectEntry` | serialises I/O on one object |
//! | UAK shard (`core.uak_shards`) | `stegfs-core` | never two at once |
//! | object shard (`core.object_shards`) | `stegfs-core` | two only in `StegFs::remove` (a child and its directory), ascending shard index |
//! | namespace (`fs.namespace`) | `stegfs-fs` | exclusive for deletes, then the victim's stripe |
//! | inode stripe | `stegfs-fs` | one per file |
//! | inode-table stripe | `stegfs-fs` | several in ascending stripe index (`FsTxn::commit`) |
//! | allocator meta (`fs.alloc`) | `stegfs-fs` | placement state only |
//! | bitmap segment (`fs.alloc.N`) | `stegfs-fs` | several in ascending segment index |
//! | journal checkpoint | `stegfs-journal` | held by the one checkpoint in flight, across its anchor write and flushes |
//! | log state (`journal.state`) | `stegfs-journal` | memory only; never takes the gate |
//! | commit gate | `stegfs-journal` | bookkeeping only, never across the flush |
//! | engine pool (`engine.queue`) | `stegfs-engine` | takes nothing under it (may start a thread) |
//! | `BufferCache` flusher, then state | `stegfs-blockdev` | dropped across device transfers |
//! | device internals | `stegfs-blockdev` | memory stripes, shared/file/fault/model devices |
//! | read-cache block shard | `stegfs-core` `readcache` | several, ascending shard index (the batched lookup); one at a time under the read cache's object shard; takes nothing under it |
//!
//! Leaves, taken under any of the above and holding nothing else: the
//! vfs session table and a session's connect table; the core RNG; the
//! read cache's object shard (then its block shards, the
//! table's last row), scope table and derived-key map, never held across
//! I/O or a key derivation; each engine client's completion queue; the fs
//! checkpoint-daemon slot (then the daemon's state); and the span
//! captures, which only `try_lock` on the hot path.
//!
//! Known exceptions to the table:
//!
//! - **The gate hook takes the engine pool lock from inside the journal.**
//!   A gate visit is a [`crate::blocking`] section; on an engine thread,
//!   entering and leaving it takes the pool lock outside the gate mutex,
//!   below whatever file-system and journal locks the request holds (the
//!   checkpoint mutex included).  It stays safe because no path takes a
//!   file-system lock under the pool lock.
//! - **The cache drops its lock across device I/O.**  A `BufferCache` read
//!   miss and a flush batch release `state` for the device transfer and take
//!   it again afterwards, so the device row is not reached with `state`
//!   held on those paths.
//! - **The checkpoint mutex comes before `journal.state`.**  A stager that
//!   finds the ring full drops the log state, waits for the checkpoint
//!   mutex, and takes the log state again under it — while still holding
//!   the bitmap segments of its snapshot.

#![allow(clippy::disallowed_types)]

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    self, Arc, LockResult, PoisonError, TryLockError, TryLockResult, WaitTimeoutResult,
};
use std::time::{Duration, Instant};

use crate::hist::{HistSummary, Histogram};

/// Shared contention accounting for one lock or lock family.
pub struct LockStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait: Histogram,
    hold: Histogram,
}

impl LockStats {
    pub fn new() -> Arc<Self> {
        Arc::new(LockStats {
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait: Histogram::new(),
            hold: Histogram::new(),
        })
    }

    /// Zero all counters and histograms (measurement-window scoping).
    pub fn reset(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
        self.wait.reset();
        self.hold.reset();
    }

    pub fn summary(&self) -> LockSummary {
        LockSummary {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            wait: self.wait.summary(),
            hold: self.hold.summary(),
        }
    }

    /// One acquisition: `try_take` first; if it fails, `take` blocks and
    /// the acquisition counts as contended, with its wait.
    #[inline]
    fn acquire<G>(&self, try_take: impl FnOnce() -> Option<G>, take: impl FnOnce() -> G) -> G {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(guard) = try_take() {
            return guard;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let guard = take();
        self.wait.record(start.elapsed().as_nanos() as u64);
        guard
    }
}

/// Point-in-time view of a [`LockStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LockSummary {
    pub acquisitions: u64,
    pub contended: u64,
    pub wait: HistSummary,
    pub hold: HistSummary,
}

impl LockSummary {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"acquisitions\": {}, \"contended\": {}, \"wait\": {}, \"hold\": {}}}",
            self.acquisitions,
            self.contended,
            self.wait.to_json(),
            self.hold.to_json()
        )
    }
}

/// The poison rule: a poisoned lock hands over its guard.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

fn try_recover<G>(result: TryLockResult<G>) -> Option<G> {
    match result {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A guard's open hold: its family and when it began (`None`: anonymous).
/// Dropping it records the hold.
struct Hold<'a>(Option<(&'a LockStats, Instant)>);

impl<'a> Hold<'a> {
    #[inline]
    fn begin(stats: Option<&'a LockStats>) -> Self {
        Hold(stats.map(|s| (s, Instant::now())))
    }

    /// Record the hold now and hand back its family, for a condvar wait.
    fn end(self) -> Option<&'a LockStats> {
        let stats = self.0.map(|(s, _)| s);
        drop(self);
        stats
    }
}

impl Drop for Hold<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((stats, since)) = self.0 {
            stats.hold.record(since.elapsed().as_nanos() as u64);
        }
    }
}

/// A mutual-exclusion lock, anonymous or named (see the module docs).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    stats: Option<Arc<LockStats>>,
    inner: sync::Mutex<T>,
}

/// Guard of a [`Mutex`]; unlocks (and, on a named lock, records the hold)
/// on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    // Declared first so the hold is recorded before the unlock.
    hold: Hold<'a>,
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// An anonymous mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            stats: None,
            inner: sync::Mutex::new(value),
        }
    }

    /// A mutex in the `stats` family.
    pub fn with_stats(value: T, stats: Arc<LockStats>) -> Self {
        Mutex {
            stats: Some(stats),
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Join the `stats` family (requires exclusive access, i.e. during setup).
    pub fn set_stats(&mut self, stats: Arc<LockStats>) {
        self.stats = Some(stats);
    }

    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = match &self.stats {
            None => recover(self.inner.lock()),
            Some(stats) => stats.acquire(
                || try_recover(self.inner.try_lock()),
                || recover(self.inner.lock()),
            ),
        };
        MutexGuard {
            hold: Hold::begin(self.stats.as_deref()),
            inner,
        }
    }

    /// The guard, if no one holds the lock; counts as an uncontended
    /// acquisition when it succeeds.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = try_recover(self.inner.try_lock())?;
        if let Some(stats) = &self.stats {
            stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        }
        Some(MutexGuard {
            hold: Hold::begin(self.stats.as_deref()),
            inner,
        })
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock, anonymous or named (see the module docs).  Reader
/// and writer acquisitions share one family; both record their holds.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    stats: Option<Arc<LockStats>>,
    inner: sync::RwLock<T>,
}

/// Shared guard of a [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    _hold: Hold<'a>,
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive guard of a [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    _hold: Hold<'a>,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// An anonymous reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            stats: None,
            inner: sync::RwLock::new(value),
        }
    }

    /// A reader-writer lock in the `stats` family.
    pub fn with_stats(value: T, stats: Arc<LockStats>) -> Self {
        RwLock {
            stats: Some(stats),
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Join the `stats` family (requires exclusive access, i.e. during setup).
    pub fn set_stats(&mut self, stats: Arc<LockStats>) {
        self.stats = Some(stats);
    }

    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = match &self.stats {
            None => recover(self.inner.read()),
            Some(stats) => stats.acquire(
                || try_recover(self.inner.try_read()),
                || recover(self.inner.read()),
            ),
        };
        RwLockReadGuard {
            _hold: Hold::begin(self.stats.as_deref()),
            inner,
        }
    }

    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = match &self.stats {
            None => recover(self.inner.write()),
            Some(stats) => stats.acquire(
                || try_recover(self.inner.try_write()),
                || recover(self.inner.write()),
            ),
        };
        RwLockWriteGuard {
            _hold: Hold::begin(self.stats.as_deref()),
            inner,
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable over this module's [`MutexGuard`].  Waits follow
/// the poison rule, and on a named mutex close the hold and open a new one
/// on wake without counting an acquisition.
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Release `guard`'s mutex, block until notified (or spuriously woken),
    /// and lock it again.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let stats = guard.hold.end();
        let inner = recover(self.0.wait(guard.inner));
        MutexGuard {
            hold: Hold::begin(stats),
            inner,
        }
    }

    /// [`wait`](Self::wait) for at most `timeout`.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let stats = guard.hold.end();
        let (inner, timed_out) = recover(self.0.wait_timeout(guard.inner, timeout));
        let guard = MutexGuard {
            hold: Hold::begin(stats),
            inner,
        };
        (guard, timed_out)
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Run `f`, which panics holding a guard of `lock`, on a thread.
    fn panic_holding<L: Send + Sync + 'static>(lock: &Arc<L>, f: fn(&L)) {
        let lock = Arc::clone(lock);
        assert!(thread::spawn(move || f(&lock)).join().is_err());
    }

    #[test]
    fn uncontended_lock_counts_acquisition() {
        let stats = LockStats::new();
        let m = Mutex::with_stats(0u32, Arc::clone(&stats));
        {
            let mut g = m.lock();
            *g += 1;
        }
        let s = stats.summary();
        assert_eq!(s.acquisitions, 1);
        assert_eq!(s.contended, 0);
        assert_eq!(s.hold.count, 1);
    }

    #[test]
    fn contended_lock_records_wait() {
        let stats = LockStats::new();
        let m = Arc::new(Mutex::with_stats(0u32, Arc::clone(&stats)));
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = thread::spawn(move || {
            let _g = m2.lock();
        });
        thread::sleep(Duration::from_millis(20));
        drop(g);
        t.join().unwrap();
        let s = stats.summary();
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.contended, 1);
        assert!(s.wait.total >= 10_000_000, "wait = {} ns", s.wait.total);
    }

    #[test]
    fn shared_family_merges_counts() {
        let stats = LockStats::new();
        let a = Mutex::with_stats(0u32, Arc::clone(&stats));
        let b = Mutex::with_stats(0u32, Arc::clone(&stats));
        drop(a.lock());
        drop(b.lock());
        assert_eq!(stats.summary().acquisitions, 2);
    }

    #[test]
    fn rwlock_counts_readers_and_writers() {
        let stats = LockStats::new();
        let l = RwLock::with_stats(1u32, Arc::clone(&stats));
        {
            let r = l.read();
            assert_eq!(*r, 1);
        }
        {
            let mut w = l.write();
            *w = 2;
        }
        let s = stats.summary();
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.hold.count, 2);
    }

    #[test]
    fn a_reader_behind_a_held_writer_is_one_contended_acquisition() {
        let stats = LockStats::new();
        let l = Arc::new(RwLock::with_stats(0u32, Arc::clone(&stats)));
        let w = l.write();
        let reader = {
            let l = Arc::clone(&l);
            thread::spawn(move || *l.read())
        };
        // The reader counts its contention once `try_read` has failed.
        while stats.summary().contended == 0 {
            thread::yield_now();
        }
        drop(w);
        assert_eq!(reader.join().unwrap(), 0);
        let s = stats.summary();
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.contended, 1);
        assert_eq!(s.wait.count, 1);
    }

    #[test]
    fn uncontended_reads_count_no_contention() {
        let stats = LockStats::new();
        let l = RwLock::with_stats(7u32, Arc::clone(&stats));
        for _ in 0..1_000 {
            assert_eq!(*l.read(), 7);
        }
        let s = stats.summary();
        assert_eq!(s.acquisitions, 1_000);
        assert_eq!(s.contended, 0);
        assert_eq!(s.wait.count, 0);
        assert_eq!(s.hold.count, 1_000);
    }

    #[test]
    fn a_condvar_wake_on_a_named_lock_is_no_acquisition() {
        use std::sync::atomic::AtomicBool;
        let stats = LockStats::new();
        let shared = Arc::new((
            Mutex::with_stats((), Arc::clone(&stats)),
            Condvar::new(),
            AtomicBool::new(false),
        ));
        let waiter = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (m, cv, go) = &*shared;
                let mut g = m.lock();
                while !go.load(Ordering::SeqCst) {
                    g = cv.wait(g);
                }
                drop(cv.wait_timeout(g, Duration::from_millis(1)));
            })
        };
        // The first wait has closed the first hold.
        while stats.summary().hold.count == 0 {
            thread::yield_now();
        }
        let (_, cv, go) = &*shared;
        go.store(true, Ordering::SeqCst);
        // Notify without taking the lock, until the waiter is gone.
        while !waiter.is_finished() {
            cv.notify_all();
            thread::yield_now();
        }
        waiter.join().unwrap();
        let s = stats.summary();
        assert_eq!(s.acquisitions, 1);
        assert_eq!(s.contended, 0);
        assert_eq!(s.wait.count, 0);
        // Each wait closed a hold and its wake opened the next: at least
        // one notified wait and the timed one.
        assert!(s.hold.count >= 3, "holds = {}", s.hold.count);
    }

    #[test]
    fn a_panicked_mutex_holder_lets_the_next_caller_in() {
        let m = Arc::new(Mutex::new(1u32));
        panic_holding(&m, |m| {
            *m.lock() = 2;
            let _g = m.lock();
            panic!("holder panics");
        });
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn a_panicked_rwlock_writer_lets_readers_and_writers_in() {
        let stats = LockStats::new();
        let l = Arc::new(RwLock::with_stats(1u32, stats));
        panic_holding(&l, |l| {
            *l.write() = 2;
            let _w = l.write();
            panic!("writer panics holding the lock");
        });
        assert_eq!(*l.read(), 2);
        *l.write() = 3;
        assert_eq!(*l.read(), 3);
    }

    #[test]
    fn a_panicked_rwlock_reader_lets_writers_in() {
        let l = Arc::new(RwLock::new(1u32));
        panic_holding(&l, |l| {
            let _r = l.read();
            panic!("reader panics holding the lock");
        });
        *l.write() = 2;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn a_condvar_wait_times_out_on_a_mutex_whose_holder_panicked() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        panic_holding(&pair, |(m, _)| {
            *m.lock() = 1;
            let _g = m.lock();
            panic!("holder panics");
        });
        let (m, cv) = &*pair;
        let (g, timeout) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timeout.timed_out());
        assert_eq!(*g, 1);
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn mutex_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }
}
