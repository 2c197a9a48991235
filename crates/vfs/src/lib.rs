//! # stegfs-vfs
//!
//! A concurrent, handle-based virtual file system front-end over
//! [`stegfs_core::StegFs`].
//!
//! The paper's StegFS is a kernel driver under the Linux VFS (Figure 5),
//! serving many users at once through open-file handles and per-user
//! sessions.  This crate supplies that missing layer for the user-space
//! reproduction:
//!
//! * **A unified namespace.**  `/plain/...` maps onto the central directory
//!   everyone shares; `/hidden/...` resolves against the calling session's
//!   User Access Key, so the same path names a different (or no) object per
//!   session.  See [`path::VfsPath`].
//! * **An open-file table.**  [`Vfs::open`] yields [`VfsHandle`]s with
//!   per-handle stream offsets and positional `read_at` / `write_at` /
//!   `seek` / `truncate` — the file-descriptor surface the paper's driver
//!   gets from the kernel.  The table is sharded ([`table::SHARD_COUNT`])
//!   and never locked across I/O.
//! * **Sign-on sessions.**  [`Vfs::signon`] is deliberately infallible —
//!   there is no key registry to check, which *is* the hiding property; a
//!   wrong key sees an empty `/hidden`.  [`Vfs::connect`] is the paper's
//!   `steg_connect`: it connects an object (and a directory's offspring) to
//!   the session, whose `/hidden/<name>` reaches a connected object wherever
//!   the session's UAK listing holds no such name.  Sign-off is the
//!   paper's logoff.
//! * **Concurrency.**  There is no global volume lock: the core underneath
//!   is fully shared-reference (sharded allocator, namespaces and device),
//!   sessions resolve under a shared read guard, and every open object has
//!   its own lock in an `Arc`-based registry — all handles to one hidden
//!   object share a single cached [`stegfs_core::HiddenHandle`] behind that
//!   lock, so no handle ever observes a stale block map while handles to
//!   *different* objects overlap their block I/O.  N threads interleaving
//!   plain reads with hidden writes on one shared volume is the scenario of
//!   the paper's Figure 7 experiment; see [`vfs`]'s module docs for the
//!   locking architecture and the lock order, and the `fig7_vfs_concurrency`
//!   bench for the thread-scaling sweep it enables.
//!
//! ```
//! use stegfs_blockdev::{MemBlockDevice, SharedDevice};
//! use stegfs_core::StegParams;
//! use stegfs_vfs::{OpenOptions, Vfs};
//!
//! let dev = SharedDevice::new(MemBlockDevice::new(1024, 8192));
//! let vfs = Vfs::format(dev, StegParams::for_tests()).unwrap();
//!
//! // Alice hides a file; the adversary's session cannot even stat it.
//! let alice = vfs.signon("alice's access key");
//! let h = vfs
//!     .open(alice, "/hidden/budget", OpenOptions::read_write())
//!     .unwrap();
//! vfs.write_at(h, 0, b"the real numbers").unwrap();
//! vfs.close(h).unwrap();
//!
//! let snoop = vfs.signon("guessed key");
//! assert!(vfs.readdir(snoop, "/hidden").unwrap().is_empty());
//! assert!(vfs.stat(snoop, "/hidden/budget").unwrap_err().is_not_found());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod path;
pub mod table;
pub mod vfs;

pub use error::{VfsError, VfsResult};
pub use path::VfsPath;
pub use table::{OpenOptions, VfsHandle};
pub use vfs::{NodeKind, SessionId, Vfs, VfsDirEntry, VfsStat};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::SeekFrom;
    use stegfs_blockdev::{MemBlockDevice, SharedDevice};
    use stegfs_core::StegParams;

    fn small_vfs() -> Vfs<SharedDevice> {
        let dev = SharedDevice::new(MemBlockDevice::new(1024, 8192));
        Vfs::format(dev, StegParams::for_tests()).unwrap()
    }

    /// Create (or overwrite from the start) the file at `path`.
    fn put(vfs: &Vfs<SharedDevice>, s: SessionId, path: &str, data: &[u8]) {
        let h = vfs.open(s, path, OpenOptions::read_write()).unwrap();
        vfs.write_at(h, 0, data).unwrap();
        vfs.close(h).unwrap();
    }

    /// The whole contents of the file at `path`.
    fn get(vfs: &Vfs<SharedDevice>, s: SessionId, path: &str) -> Vec<u8> {
        let h = vfs.open(s, path, OpenOptions::read_only()).unwrap();
        let data = vfs.read_at(h, 0, 1 << 16).unwrap();
        vfs.close(h).unwrap();
        data
    }

    fn names(vfs: &Vfs<SharedDevice>, s: SessionId, path: &str) -> Vec<String> {
        let listed = vfs.readdir(s, path).unwrap();
        listed.into_iter().map(|e| e.name).collect()
    }

    #[test]
    fn root_namespace_is_fixed() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        let names: Vec<String> = vfs
            .readdir(s, "/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["plain", "hidden"]);
        assert_eq!(vfs.stat(s, "/").unwrap().kind, NodeKind::Directory);
        assert_eq!(vfs.stat(s, "/hidden").unwrap().kind, NodeKind::Directory);
    }

    #[test]
    fn plain_files_through_handles() {
        let vfs = small_vfs();
        let s = vfs.signon("any");
        vfs.mkdir(s, "/plain/docs").unwrap();
        let h = vfs
            .open(s, "/plain/docs/a.txt", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"hello plain world").unwrap();
        assert_eq!(vfs.read_at(h, 6, 5).unwrap(), b"plain");
        assert_eq!(vfs.handle_size(h).unwrap(), 17);

        // Streaming I/O with seek.
        vfs.seek(h, SeekFrom::Start(0)).unwrap();
        assert_eq!(vfs.read(h, 5).unwrap(), b"hello");
        assert_eq!(vfs.read(h, 1).unwrap(), b" ");
        vfs.seek(h, SeekFrom::End(-5)).unwrap();
        assert_eq!(vfs.read(h, 100).unwrap(), b"world");
        vfs.close(h).unwrap();

        let listed = vfs.readdir(s, "/plain/docs").unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "a.txt");
        assert_eq!(listed[0].kind, NodeKind::File);
    }

    #[test]
    fn hidden_files_visible_only_with_the_key() {
        let vfs = small_vfs();
        let alice = vfs.signon("alice key");
        let bob = vfs.signon("bob key");

        let h = vfs
            .open(alice, "/hidden/secret", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"alice's data").unwrap();
        vfs.close(h).unwrap();

        // Alice sees it.
        assert_eq!(vfs.readdir(alice, "/hidden").unwrap().len(), 1);
        assert_eq!(vfs.stat(alice, "/hidden/secret").unwrap().size, 12);

        // Bob's view of the same volume: nothing, and indistinguishably so.
        assert!(vfs.readdir(bob, "/hidden").unwrap().is_empty());
        assert!(vfs.stat(bob, "/hidden/secret").unwrap_err().is_not_found());
        assert!(vfs
            .open(bob, "/hidden/secret", OpenOptions::read_only())
            .unwrap_err()
            .is_not_found());
        // And the plain tree never mentions it.
        assert!(vfs
            .readdir(bob, "/plain")
            .unwrap()
            .iter()
            .all(|e| !e.name.contains("secret")));
    }

    #[test]
    fn two_handles_share_one_object_state() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        let a = vfs
            .open(s, "/hidden/shared", OpenOptions::read_write())
            .unwrap();
        let b = vfs
            .open(s, "/hidden/shared", OpenOptions::read_write())
            .unwrap();
        // A full rewrite through `a` relocates blocks; `b` must see the new
        // state, not a stale block map.
        vfs.write_at(a, 0, &vec![1u8; 5000]).unwrap();
        vfs.write_at(b, 0, &[2u8; 100]).unwrap();
        let through_a = vfs.read_at(a, 0, 5000).unwrap();
        assert_eq!(&through_a[..100], &[2u8; 100][..]);
        assert_eq!(&through_a[100..], &[1u8; 4900][..]);
        vfs.close(a).unwrap();
        assert_eq!(vfs.read_at(b, 4999, 10).unwrap(), vec![1u8]);
        vfs.close(b).unwrap();
        assert_eq!(vfs.open_handles(), 0);
    }

    #[test]
    fn truncate_and_append_semantics() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        let h = vfs
            .open(s, "/hidden/log", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"0123456789").unwrap();
        vfs.truncate(h, 4).unwrap();
        assert_eq!(vfs.handle_size(h).unwrap(), 4);
        assert_eq!(vfs.read_at(h, 0, 100).unwrap(), b"0123");
        vfs.close(h).unwrap();

        let log = vfs
            .open(s, "/hidden/log", OpenOptions::read_write().append(true))
            .unwrap();
        vfs.write(log, b"-appended").unwrap();
        assert_eq!(vfs.read_at(log, 0, 100).unwrap(), b"0123-appended");
        vfs.close(log).unwrap();

        // Opening with truncate resets the file.
        let h = vfs
            .open(s, "/hidden/log", OpenOptions::read_write().truncate(true))
            .unwrap();
        assert_eq!(vfs.handle_size(h).unwrap(), 0);
        vfs.close(h).unwrap();
    }

    #[test]
    fn hidden_directories_nest_in_the_namespace() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        vfs.mkdir(s, "/hidden/vault").unwrap();
        let h = vfs
            .open(s, "/hidden/vault/passwords", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"hunter2").unwrap();
        vfs.close(h).unwrap();

        let listed = vfs.readdir(s, "/hidden/vault").unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "passwords");
        assert_eq!(vfs.stat(s, "/hidden/vault/passwords").unwrap().size, 7);

        // connect() pulls the offspring into the session view.
        vfs.connect(s, "vault").unwrap();
        let names: Vec<String> = vfs
            .readdir(s, "/hidden")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.contains(&"passwords".to_string()));
        // ...which makes the child openable at top level, as after
        // steg_connect in the paper.
        let h = vfs
            .open(s, "/hidden/passwords", OpenOptions::read_only())
            .unwrap();
        assert_eq!(vfs.read_at(h, 0, 100).unwrap(), b"hunter2");
        vfs.close(h).unwrap();
    }

    #[test]
    fn unlink_and_rename_inside_hidden_directories() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        vfs.mkdir(s, "/hidden/vault").unwrap();
        let h = vfs
            .open(s, "/hidden/vault/secrets", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"keep me moving").unwrap();
        vfs.close(h).unwrap();

        // Rename within the directory: contents follow the new name.
        vfs.rename(s, "/hidden/vault/secrets", "/hidden/vault/renamed")
            .unwrap();
        assert!(vfs
            .stat(s, "/hidden/vault/secrets")
            .unwrap_err()
            .is_not_found());
        assert_eq!(vfs.stat(s, "/hidden/vault/renamed").unwrap().size, 14);

        // Moving between hidden directories (or to top level) is refused.
        vfs.mkdir(s, "/hidden/other").unwrap();
        assert!(matches!(
            vfs.rename(s, "/hidden/vault/renamed", "/hidden/other/renamed"),
            Err(VfsError::Unsupported(_))
        ));
        assert!(matches!(
            vfs.rename(s, "/hidden/vault/renamed", "/hidden/renamed"),
            Err(VfsError::Unsupported(_))
        ));

        // An open handle goes stale when the child is unlinked underneath it.
        let h = vfs
            .open(s, "/hidden/vault/renamed", OpenOptions::read_write())
            .unwrap();
        vfs.unlink(s, "/hidden/vault/renamed").unwrap();
        assert!(vfs.read_at(h, 0, 4).unwrap_err().is_not_found());
        vfs.close(h).unwrap();
        assert!(vfs.readdir(s, "/hidden/vault").unwrap().is_empty());
        assert!(vfs
            .unlink(s, "/hidden/vault/renamed")
            .unwrap_err()
            .is_not_found());

        // A non-empty hidden subdirectory cannot be unlinked; empty can.
        let h = vfs
            .open(s, "/hidden/vault/again", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"x").unwrap();
        vfs.close(h).unwrap();
        assert!(vfs.unlink(s, "/hidden/vault").is_err());
        vfs.unlink(s, "/hidden/vault/again").unwrap();
        vfs.unlink(s, "/hidden/vault").unwrap();
        assert!(vfs.stat(s, "/hidden/vault").unwrap_err().is_not_found());
    }

    #[test]
    fn rename_and_unlink() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        let h = vfs.open(s, "/plain/a", OpenOptions::read_write()).unwrap();
        vfs.write_at(h, 0, b"plain").unwrap();
        vfs.close(h).unwrap();
        let h = vfs.open(s, "/hidden/x", OpenOptions::read_write()).unwrap();
        vfs.write_at(h, 0, b"hidden").unwrap();
        vfs.close(h).unwrap();

        vfs.rename(s, "/plain/a", "/plain/b").unwrap();
        assert!(vfs.stat(s, "/plain/a").unwrap_err().is_not_found());
        vfs.rename(s, "/hidden/x", "/hidden/y").unwrap();
        assert!(vfs.stat(s, "/hidden/x").unwrap_err().is_not_found());
        assert_eq!(vfs.stat(s, "/hidden/y").unwrap().size, 6);

        assert!(matches!(
            vfs.rename(s, "/plain/b", "/hidden/b"),
            Err(VfsError::CrossNamespace { .. })
        ));

        vfs.unlink(s, "/plain/b").unwrap();
        vfs.unlink(s, "/hidden/y").unwrap();
        assert!(vfs.readdir(s, "/hidden").unwrap().is_empty());
    }

    #[test]
    fn unlink_makes_open_handles_stale() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        let h = vfs
            .open(s, "/hidden/doomed", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"short-lived").unwrap();
        vfs.unlink(s, "/hidden/doomed").unwrap();
        // The stale handle reports the same not-found family as a wrong key.
        assert!(vfs.read_at(h, 0, 10).unwrap_err().is_not_found());
        assert!(vfs.write_at(h, 0, b"x").unwrap_err().is_not_found());
    }

    #[test]
    fn stale_handle_cannot_unref_a_recreated_object() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        // Open, unlink, then recreate under the same name (same deterministic
        // physical name).
        let stale = vfs
            .open(s, "/hidden/phoenix", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(stale, 0, b"first life").unwrap();
        vfs.unlink(s, "/hidden/phoenix").unwrap();
        let live = vfs
            .open(s, "/hidden/phoenix", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(live, 0, b"second life").unwrap();

        // Closing the stale handle must not decrement the new object's
        // refcount out from under the live handle...
        vfs.close(stale).unwrap();
        assert_eq!(vfs.read_at(live, 0, 100).unwrap(), b"second life");
        // ...and the stale handle's I/O stays in the not-found family.
        let stale2 = vfs
            .open(s, "/hidden/ghost2", OpenOptions::read_write())
            .unwrap();
        vfs.unlink(s, "/hidden/ghost2").unwrap();
        assert!(vfs.read_at(stale2, 0, 4).unwrap_err().is_not_found());
        vfs.close(live).unwrap();
    }

    #[test]
    fn objects_sharing_a_physical_name_stay_apart() {
        // A re-keyed `x` moves to the physical name `<tag>:x#rev2`, which a
        // later top-level `x#rev2` gets too: only the FAK tells them apart.
        let dev = SharedDevice::new(MemBlockDevice::new(1024, 8192));
        let fs = stegfs_core::StegFs::format(dev, StegParams::for_tests()).unwrap();
        fs.steg_create("x", "k", stegfs_core::ObjectKind::File)
            .unwrap();
        fs.write_hidden_with_key("x", "k", b"bytes of x").unwrap();
        fs.revoke_sharing("x", "k").unwrap();
        fs.steg_create("x#rev2", "k", stegfs_core::ObjectKind::File)
            .unwrap();
        let (x, twin) = (fs.lookup_entry("x", "k"), fs.lookup_entry("x#rev2", "k"));
        assert_eq!(x.unwrap().physical_name, twin.unwrap().physical_name);

        let vfs = Vfs::new(fs);
        let s = vfs.signon("k");
        let hx = vfs.open(s, "/hidden/x", OpenOptions::read_write()).unwrap();
        let ht = vfs
            .open(s, "/hidden/x#rev2", OpenOptions::read_write())
            .unwrap();
        assert_eq!(vfs.read_at(ht, 0, 64).unwrap(), b"");
        vfs.write_at(ht, 0, b"twin").unwrap();
        assert_eq!(vfs.read_at(hx, 0, 64).unwrap(), b"bytes of x");
        assert_eq!(vfs.read_at(ht, 0, 64).unwrap(), b"twin");
        vfs.close(hx).unwrap();
        vfs.close(ht).unwrap();
    }

    #[test]
    fn stale_session_cache_falls_back_to_disk() {
        let vfs = small_vfs();
        // Two sessions, same key: A's connected cache can go stale when B
        // changes the world.
        let a = vfs.signon("shared key");
        let b = vfs.signon("shared key");
        let h = vfs
            .open(a, "/hidden/doc", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"v1").unwrap();
        vfs.close(h).unwrap(); // A now has "doc" cached.

        vfs.unlink(b, "/hidden/doc").unwrap();

        // A's open-with-create must see through its stale cache and create a
        // fresh object instead of failing NotFound.
        let h = vfs
            .open(a, "/hidden/doc", OpenOptions::read_write())
            .unwrap();
        assert_eq!(vfs.handle_size(h).unwrap(), 0, "fresh object, not v1");
        vfs.write_at(h, 0, b"v2").unwrap();
        vfs.close(h).unwrap();
        assert_eq!(vfs.stat(b, "/hidden/doc").unwrap().size, 2);

        // After B renames it, the listing entry A remembers is outdated:
        // the rename moved the listing generation, so A walks the listing
        // again and finds the object under its new name only.
        vfs.rename(b, "/hidden/doc", "/hidden/moved").unwrap();
        assert!(vfs.stat(a, "/hidden/doc").unwrap_err().is_not_found());
        assert_eq!(vfs.stat(a, "/hidden/moved").unwrap().size, 2);
    }

    #[test]
    fn another_sessions_rename_and_recreate_outdate_the_listing_hint() {
        let vfs = small_vfs();
        let a = vfs.signon("shared key");
        let b = vfs.signon("shared key");
        let h = vfs
            .open(a, "/hidden/doc", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"old doc").unwrap();
        vfs.close(h).unwrap();
        assert_eq!(vfs.stat(a, "/hidden/doc").unwrap().size, 7); // A's hint

        // B moves the object away and creates a new one under the old name.
        vfs.rename(b, "/hidden/doc", "/hidden/moved").unwrap();
        let h = vfs
            .open(b, "/hidden/doc", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"new").unwrap();
        vfs.close(h).unwrap();

        // A's stat, read and unlink of /hidden/doc all name B's new object.
        assert_eq!(vfs.stat(a, "/hidden/doc").unwrap().size, 3);
        let h = vfs
            .open(a, "/hidden/doc", OpenOptions::read_only())
            .unwrap();
        assert_eq!(vfs.read_at(h, 0, 64).unwrap(), b"new");
        vfs.close(h).unwrap();
        vfs.unlink(a, "/hidden/doc").unwrap();
        assert!(vfs.stat(b, "/hidden/doc").unwrap_err().is_not_found());
        let h = vfs
            .open(b, "/hidden/moved", OpenOptions::read_only())
            .unwrap();
        assert_eq!(vfs.read_at(h, 0, 64).unwrap(), b"old doc");
        vfs.close(h).unwrap();
    }

    #[test]
    fn plain_handles_pin_the_inode_across_rename() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        let h = vfs
            .open(s, "/plain/journal", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"entry one").unwrap();

        // Rename under the open handle: the handle follows the file, like a
        // POSIX fd.
        vfs.rename(s, "/plain/journal", "/plain/journal.old")
            .unwrap();
        vfs.write_at(h, 0, b"ENTRY").unwrap();
        assert_eq!(vfs.read_at(h, 0, 100).unwrap(), b"ENTRY one");

        // A new file at the old path is a different file; the handle must
        // not silently retarget to it.
        let fresh = vfs
            .open(s, "/plain/journal", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(fresh, 0, b"new file").unwrap();
        assert_eq!(vfs.read_at(h, 0, 100).unwrap(), b"ENTRY one");
        assert_eq!(vfs.read_at(fresh, 0, 100).unwrap(), b"new file");
        vfs.close(fresh).unwrap();

        // Unlinking the renamed file makes the handle stale, in the same
        // not-found family as everything else.
        vfs.unlink(s, "/plain/journal.old").unwrap();
        assert!(vfs.read_at(h, 0, 1).unwrap_err().is_not_found());
        vfs.close(h).unwrap();
    }

    #[test]
    fn absurd_offsets_report_no_space_not_oom() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        for path in ["/hidden/sparse", "/plain/sparse"] {
            let h = vfs.open(s, path, OpenOptions::read_write()).unwrap();
            vfs.write_at(h, 0, b"tiny").unwrap();
            // A write far past EOF must fail cleanly, not materialise
            // terabytes of zero-fill.
            vfs.seek(h, SeekFrom::Start(1 << 40)).unwrap();
            let e = vfs.write(h, b"x").unwrap_err();
            assert!(matches!(e, VfsError::Steg(_)), "{path}: {e}");
            // Same for truncate.
            assert!(vfs.truncate(h, 1 << 45).is_err(), "{path}");
            // Offset arithmetic at the u64 edge must not overflow-panic.
            assert!(vfs.write_at(h, u64::MAX - 1, b"xx").is_err(), "{path}");
            // The file is intact afterwards.
            assert_eq!(vfs.read_at(h, 0, 10).unwrap(), b"tiny", "{path}");
            vfs.close(h).unwrap();
        }
    }

    #[test]
    fn signoff_sweeps_session_handles() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        let keep = vfs.signon("k");
        let _a = vfs
            .open(s, "/hidden/f1", OpenOptions::read_write())
            .unwrap();
        let _b = vfs.open(s, "/plain/p1", OpenOptions::read_write()).unwrap();
        let c = vfs
            .open(keep, "/hidden/f2", OpenOptions::read_write())
            .unwrap();
        assert_eq!(vfs.open_handles(), 3);
        vfs.signoff(s).unwrap();
        assert_eq!(vfs.open_handles(), 1);
        assert_eq!(vfs.session_count(), 1);
        // The surviving session's handle still works.
        vfs.write_at(c, 0, b"still alive").unwrap();
        assert!(vfs.stat(s, "/plain/p1").is_err(), "session is gone");
    }

    #[test]
    fn sessions_with_same_key_share_the_view() {
        let vfs = small_vfs();
        let s1 = vfs.signon("shared key");
        let s2 = vfs.signon("shared key");
        let h = vfs
            .open(s1, "/hidden/ours", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"both see this").unwrap();
        vfs.close(h).unwrap();
        let h = vfs
            .open(s2, "/hidden/ours", OpenOptions::read_only())
            .unwrap();
        assert_eq!(vfs.read_at(h, 0, 100).unwrap(), b"both see this");
        vfs.close(h).unwrap();
    }

    #[test]
    fn survives_unmount_and_remount() {
        let vfs = small_vfs();
        let s = vfs.signon("key");
        let h = vfs
            .open(s, "/hidden/persist", OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"across remount").unwrap();
        vfs.close(h).unwrap();
        let dev = vfs.unmount().unwrap();

        let vfs = Vfs::mount(dev, StegParams::for_tests()).unwrap();
        let s = vfs.signon("key");
        let h = vfs
            .open(s, "/hidden/persist", OpenOptions::read_only())
            .unwrap();
        assert_eq!(vfs.read_at(h, 0, 100).unwrap(), b"across remount");
        vfs.close(h).unwrap();
    }

    #[test]
    fn concurrent_appends_from_two_handles_never_collide() {
        use std::sync::{Arc, Barrier};
        let vfs = Arc::new(small_vfs());
        let threads = 2usize;
        let per_thread = 16usize;
        let chunk = 64usize;
        let barrier = Arc::new(Barrier::new(threads));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let vfs = Arc::clone(&vfs);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let s = vfs.signon("append key");
                    let h = vfs
                        .open(s, "/hidden/ledger", OpenOptions::read_write().append(true))
                        .unwrap();
                    barrier.wait();
                    for _ in 0..per_thread {
                        // Each append is one tagged chunk; the size lookup and
                        // the write must be atomic, or two appends land on the
                        // same offset and one chunk is lost.
                        vfs.write(h, &vec![b'A' + t as u8; chunk]).unwrap();
                    }
                    vfs.close(h).unwrap();
                    vfs.signoff(s).unwrap();
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let s = vfs.signon("append key");
        let h = vfs
            .open(s, "/hidden/ledger", OpenOptions::read_only())
            .unwrap();
        let size = vfs.handle_size(h).unwrap() as usize;
        assert_eq!(
            size,
            threads * per_thread * chunk,
            "appends collided and lost data"
        );
        let all = vfs.read_at(h, 0, size).unwrap();
        // Every chunk is whole (no interleaving within a chunk) and each
        // writer's full count survived.
        let mut counts = [0usize; 2];
        for c in all.chunks(chunk) {
            let tag = c[0];
            assert!(c.iter().all(|&b| b == tag), "torn append chunk");
            counts[(tag - b'A') as usize] += 1;
        }
        assert_eq!(counts, [per_thread, per_thread]);
        vfs.close(h).unwrap();
    }

    #[test]
    fn open_access_modes_are_enforced() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        let h = vfs.open(s, "/plain/f", OpenOptions::read_write()).unwrap();
        vfs.write_at(h, 0, b"data").unwrap();
        vfs.close(h).unwrap();

        let ro = vfs.open(s, "/plain/f", OpenOptions::read_only()).unwrap();
        assert!(matches!(
            vfs.write_at(ro, 0, b"x"),
            Err(VfsError::NotWritable)
        ));
        vfs.close(ro).unwrap();

        let wo = vfs
            .open(s, "/plain/f", OpenOptions::new().write(true))
            .unwrap();
        assert!(matches!(vfs.read_at(wo, 0, 1), Err(VfsError::NotReadable)));
        vfs.close(wo).unwrap();

        // Directories cannot be opened; files cannot be readdir'd.
        assert!(vfs.open(s, "/plain", OpenOptions::read_only()).is_err());
        assert!(matches!(vfs.readdir(s, "/plain/f"), Err(VfsError::Steg(_))));
        // Access must be requested.
        assert!(vfs.open(s, "/plain/f", OpenOptions::new()).is_err());
    }

    #[test]
    fn a_listed_name_wins_over_a_connected_child_of_the_same_name() {
        let vfs = small_vfs();
        let s = vfs.signon("k");
        put(&vfs, s, "/hidden/x", b"top-level x");
        vfs.mkdir(s, "/hidden/a").unwrap();
        put(&vfs, s, "/hidden/a/x", b"child of a");
        vfs.connect(s, "a").unwrap();

        // One path, one object: the listing's `x`, for every operation.
        assert_eq!(names(&vfs, s, "/hidden"), ["a", "x"]);
        assert_eq!(vfs.stat(s, "/hidden/x").unwrap().size, 11);
        assert_eq!(get(&vfs, s, "/hidden/x"), b"top-level x");
        vfs.unlink(s, "/hidden/x").unwrap();
        assert_eq!(names(&vfs, s, "/hidden/a"), ["x"]);
        assert_eq!(get(&vfs, s, "/hidden/a/x"), b"child of a");

        // With no `x` left in the listing, the connected child answers.
        assert_eq!(names(&vfs, s, "/hidden"), ["a", "x"]);
        assert_eq!(get(&vfs, s, "/hidden/x"), b"child of a");
        assert!(vfs.unlink(s, "/hidden/x").unwrap_err().is_not_found());
    }

    #[test]
    fn a_name_another_session_lists_after_a_connect_wins_over_the_child() {
        let vfs = small_vfs();
        let first = vfs.signon("shared key");
        let second = vfs.signon("shared key");
        vfs.mkdir(first, "/hidden/a").unwrap();
        put(&vfs, first, "/hidden/a/x", b"child of a");
        vfs.connect(first, "a").unwrap();
        assert_eq!(get(&vfs, first, "/hidden/x"), b"child of a");

        put(&vfs, second, "/hidden/x", b"top-level x");
        assert_eq!(names(&vfs, first, "/hidden"), ["a", "x"]);
        assert_eq!(vfs.stat(first, "/hidden/x").unwrap().size, 11);
        assert_eq!(get(&vfs, first, "/hidden/x"), b"top-level x");
        vfs.unlink(first, "/hidden/x").unwrap();
        assert_eq!(names(&vfs, second, "/hidden"), ["a"]);
        assert_eq!(get(&vfs, second, "/hidden/a/x"), b"child of a");
    }
}
