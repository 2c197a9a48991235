//! A thread-local "blocking section" hook: how a thread pool learns that one
//! of its threads is about to wait on something other than CPU or locks.
//!
//! The journal's group-commit gate parks a caller for a whole device flush;
//! the engine's workers are the threads it parks.  The two crates share no
//! dependency but this one, so the contract lives here: the waiting side
//! wraps the wait in [`section`], and a pool that wants to reuse the waiter's
//! slot [`install`]s a [`BlockingHook`] on each of its threads.  On a thread
//! with no hook installed a section costs a thread-local read.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

/// Told when its thread enters and leaves a blocking section.
///
/// `leave` runs on the way out of the wait — possibly during an unwind, and
/// possibly while the waiter holds file-system locks — so it must never wait
/// for anything but a leaf lock.
pub trait BlockingHook {
    /// The thread is about to block.
    fn enter(&self);
    /// The thread stopped blocking.
    fn leave(&self);
}

thread_local! {
    static HOOK: RefCell<Option<Box<dyn BlockingHook>>> = const { RefCell::new(None) };
}

fn with_hook(f: impl FnOnce(&dyn BlockingHook)) {
    HOOK.with(|h| {
        if let Some(hook) = h.borrow().as_deref() {
            f(hook);
        }
    });
}

/// Install `hook` for the calling thread, replacing any earlier one, until
/// the returned guard drops.
#[must_use = "the hook is removed when the guard drops"]
pub fn install(hook: Box<dyn BlockingHook>) -> Installed {
    HOOK.with(|h| *h.borrow_mut() = Some(hook));
    Installed {
        _thread_bound: PhantomData,
    }
}

/// RAII guard of [`install`]: dropping it removes (and drops) the hook.
pub struct Installed {
    _thread_bound: PhantomData<Rc<()>>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let hook = HOOK.with(|h| h.borrow_mut().take());
        drop(hook);
    }
}

/// Enter a blocking section on the calling thread; it lasts until the
/// returned guard drops.  Sections do not nest.
#[must_use = "the section ends when the guard drops"]
pub fn section() -> Section {
    with_hook(|hook| hook.enter());
    Section {
        _thread_bound: PhantomData,
    }
}

/// RAII guard of one [`section`]; not `Send`, it leaves on the thread that
/// entered.
pub struct Section {
    _thread_bound: PhantomData<Rc<()>>,
}

impl Drop for Section {
    fn drop(&mut self) {
        with_hook(|hook| hook.leave());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    /// Counts enters and leaves.
    #[derive(Clone, Default)]
    struct Count(Arc<(AtomicI64, AtomicI64)>);

    impl Count {
        fn seen(&self) -> (i64, i64) {
            (
                self.0 .0.load(Ordering::SeqCst),
                self.0 .1.load(Ordering::SeqCst),
            )
        }
    }

    impl BlockingHook for Count {
        fn enter(&self) {
            self.0 .0.fetch_add(1, Ordering::SeqCst);
        }
        fn leave(&self) {
            self.0 .1.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_section_reaches_only_the_hook_installed_on_its_thread() {
        let count = Count::default();
        let hook = count.clone();
        std::thread::spawn(move || {
            drop(section()); // no hook yet: nothing to tell
            let installed = install(Box::new(hook));
            drop(section());
            drop(installed);
            drop(section()); // uninstalled
        })
        .join()
        .unwrap();
        drop(section()); // this thread never installed one
        assert_eq!(count.seen(), (1, 1));
    }

    #[test]
    fn an_unwind_leaves_the_section() {
        let count = Count::default();
        let hook = count.clone();
        let joined = std::thread::spawn(move || {
            let _installed = install(Box::new(hook));
            let _s = section();
            panic!("unwinds through the section");
        })
        .join();
        assert!(joined.is_err());
        assert_eq!(count.seen(), (1, 1));
    }
}
