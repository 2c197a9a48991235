//! Shared helpers for the runnable examples.
//!
//! The binaries in this package (`quickstart`, `hidden_vault`,
//! `compare_schemes`, `backup_restore`) demonstrate the public API of the
//! StegFS reproduction end to end.  Run them with, e.g.:
//!
//! ```text
//! cargo run -p stegfs-examples --bin quickstart
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stegfs_blockdev::MemBlockDevice;
use stegfs_core::{StegFs, StegParams};

/// Create an in-memory StegFS volume of `megabytes` MB with 1 KB blocks and
/// parameters sized for interactive examples (small dummy files, no random
/// fill so start-up is instant).
pub fn demo_volume(megabytes: u64) -> StegFs<MemBlockDevice> {
    let device = MemBlockDevice::with_capacity_mb(1024, megabytes);
    let params = StegParams {
        dummy_file_count: 4,
        dummy_file_size: 64 * 1024,
        random_fill: false,
        ..StegParams::default()
    };
    StegFs::format(device, params).expect("formatting an in-memory volume cannot fail")
}

/// Create an in-memory StegFS volume like [`demo_volume`], served through
/// the `stegfs-vfs` front-end on a [`stegfs_blockdev::SharedDevice`] — the
/// multi-session, handle-based surface.
pub fn demo_vfs(megabytes: u64) -> stegfs_vfs::Vfs<stegfs_blockdev::SharedDevice> {
    let device =
        stegfs_blockdev::SharedDevice::new(MemBlockDevice::with_capacity_mb(1024, megabytes));
    let params = StegParams {
        dummy_file_count: 4,
        dummy_file_size: 64 * 1024,
        random_fill: false,
        ..StegParams::default()
    };
    stegfs_vfs::Vfs::format(device, params).expect("formatting an in-memory volume cannot fail")
}

/// Pretty-print a section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_volume_is_usable() {
        let fs = demo_volume(16);
        fs.plain_fs().write_file("/hello", b"world").unwrap();
        assert_eq!(fs.plain_fs().read_file("/hello").unwrap(), b"world");
    }

    #[test]
    fn demo_vfs_is_usable() {
        let vfs = demo_vfs(16);
        let s = vfs.signon("demo key");
        let h = vfs
            .open(s, "/plain/hello", stegfs_vfs::OpenOptions::read_write())
            .unwrap();
        vfs.write_at(h, 0, b"world").unwrap();
        assert_eq!(vfs.read_at(h, 0, 5).unwrap(), b"world");
        vfs.close(h).unwrap();
    }
}
