//! Plaintext scratch buffers for the hidden read and write paths.
//!
//! A hidden object's plaintext exists only in RAM, and only while it is
//! decrypted.  [`Scratch`] owns such a buffer: however its owner returns —
//! `Ok`, `Err` through `?`, or an unwind — its `Drop` zeroes the bytes and
//! hands the allocation to a tiny thread-local pool, so batched operations
//! stop allocating a fresh `Vec` each and the pool itself never holds
//! plaintext.  [`Scratch::into_vec`] is the one way a buffer leaves the pool.
//!
//! Two ways in: [`Scratch::take`] hands out a zero-filled buffer of a fixed
//! length, for callers that write into slices of it;
//! [`Scratch::with_capacity`] hands out an empty one with room reserved,
//! for a caller that appends every byte exactly once (the read cache's
//! lookup), so a read's output is not zero-filled first only to be
//! overwritten.  Every byte of a pooled
//! allocation is zero, past its length too: the appended bytes stay within
//! the reserved capacity, and `Drop` zeroes up to the length reached.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use stegfs_crypto::ct::zeroize;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    static OUTSTANDING: std::cell::Cell<isize> = const { std::cell::Cell::new(0) };
}

/// Buffers this thread has taken and neither dropped nor turned into a
/// `Vec` (takes − drops − `into_vec`s).  Every path leaves it where it was,
/// whichever way it returns.
#[cfg(test)]
pub fn outstanding() -> isize {
    OUTSTANDING.get()
}

/// Buffers retained per thread; engine workers are a fixed pool, so this
/// bounds the idle footprint.
const MAX_POOLED: usize = 8;
/// Never hoard buffers beyond this capacity.
const MAX_POOLED_CAPACITY: usize = 4 << 20;

/// A plaintext byte buffer from the thread's pool, zeroed and returned to
/// the pool on drop.
pub(crate) struct Scratch(Vec<u8>);

impl Scratch {
    /// A zero-filled buffer of exactly `len` bytes, reusing a pooled
    /// allocation when one is available.
    pub fn take(len: usize) -> Scratch {
        #[cfg(test)]
        OUTSTANDING.set(OUTSTANDING.get() + 1);
        match POOL.with(|p| p.borrow_mut().pop()) {
            Some(mut v) => {
                // `drop` zeroed every byte up to the pooled length and kept
                // that length, so only a tail past it needs writing.  A
                // shorter `len` truncates: the bytes cut off were zeroed
                // too, and no safe code writes past a `Vec`'s length.
                v.resize(len, 0);
                Scratch(v)
            }
            // A zeroed allocation, not an empty `Vec` grown by `resize`: the
            // allocator can hand out fresh pages without writing them.
            None => Scratch(vec![0u8; len]),
        }
    }

    /// An empty buffer with room for `capacity` bytes, reusing a pooled
    /// allocation when one is available; filled through
    /// [`Self::as_vec_mut`].  Nothing is zero-filled: a pooled allocation
    /// is all zeros already, and a fresh one is never read before it is
    /// written.
    pub fn with_capacity(capacity: usize) -> Scratch {
        #[cfg(test)]
        OUTSTANDING.set(OUTSTANDING.get() + 1);
        match POOL.with(|p| p.borrow_mut().pop()) {
            Some(mut v) => {
                // A pooled allocation holds only zeros, so growing it frees
                // no plaintext.
                v.clear();
                v.reserve(capacity);
                Scratch(v)
            }
            None => Scratch(Vec::with_capacity(capacity)),
        }
    }

    /// The buffer itself, for a caller that appends to it.  Appending past
    /// the capacity would move the bytes and free the old allocation
    /// un-zeroed, so the caller reserves the whole length before the first
    /// byte of plaintext lands.
    pub fn as_vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.0
    }

    /// Hand the first `len` bytes to a caller outside the pool, zeroing the
    /// bytes past `len`.  The allocation itself goes with them when it has
    /// at most `slack` bytes of spare capacity.  A pooled one may be far
    /// larger (up to `MAX_POOLED_CAPACITY`, sized by an earlier operation on
    /// this thread): its bytes are copied out at exactly `len`, and it is
    /// zeroed and freed rather than re-pooled, so it stops being handed to
    /// small reads.
    pub fn into_vec(self, len: usize, slack: usize) -> Vec<u8> {
        #[cfg(test)]
        OUTSTANDING.set(OUTSTANDING.get() - 1);
        // The buffer leaves the pool here: `Drop` has nothing left to do, and
        // skipping it keeps the hand-out as cheap as a plain move.
        let mut v = std::mem::take(&mut std::mem::ManuallyDrop::new(self).0);
        if v.capacity() - len > slack {
            let out = v[..len].to_vec();
            zeroize(&mut v);
            return out;
        }
        zeroize(&mut v[len..]);
        v.truncate(len);
        v
    }
}

impl Deref for Scratch {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl Drop for Scratch {
    /// Zero the buffer and pool it at its length, every byte zero (or free
    /// it when the pool is full).  Never panics, so it is safe mid-unwind
    /// and during thread teardown.
    fn drop(&mut self) {
        #[cfg(test)]
        let _ = OUTSTANDING.try_with(|n| n.set(n.get() - 1));
        zeroize(&mut self.0);
        let v = std::mem::take(&mut self.0);
        if v.capacity() == 0 || v.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let _ = POOL.try_with(|p| {
            if let Ok(mut pool) = p.try_borrow_mut() {
                if pool.len() < MAX_POOLED {
                    pool.push(v);
                }
            }
        });
    }
}
