//! Backup and recovery (§3.3): the administrator can back up and restore a
//! volume without ever being able to read — or even enumerate — the hidden
//! files on it.
//!
//! Run with `cargo run -p stegfs-examples --bin backup_restore`.

use stegfs_blockdev::MemBlockDevice;
use stegfs_core::{ObjectKind, StegFs, StegParams};
use stegfs_examples::{demo_volume, section};

fn main() {
    let fs = demo_volume(32);
    let uak = "owner key";

    section("Populate the volume");
    fs.plain_fs()
        .write_file("/readme.txt", b"ordinary visible file")
        .unwrap();
    fs.plain_fs().create_dir("/projects").unwrap();
    fs.plain_fs()
        .write_file("/projects/plan.txt", b"visible project plan")
        .unwrap();
    fs.steg_create("hidden-ledger", uak, ObjectKind::File)
        .unwrap();
    fs.write_hidden_with_key("hidden-ledger", uak, b"the ledger nobody admits exists")
        .unwrap();

    section("Administrator takes a backup (no user keys involved)");
    let admin_key = b"administrator backup key";
    let image = fs.steg_backup(admin_key).unwrap();
    println!(
        "backup image: {} bytes ({} of them raw block images of unaccounted blocks)",
        image.len(),
        stegfs_core::BackupImage::from_bytes(&image, admin_key)
            .unwrap()
            .raw_image_bytes()
    );

    section("Disaster: the original volume is lost");
    drop(fs);

    section("Recovery onto a fresh device");
    let fresh = MemBlockDevice::with_capacity_mb(1024, 32);
    let params = StegParams {
        dummy_file_count: 4,
        dummy_file_size: 64 * 1024,
        random_fill: false,
        ..StegParams::default()
    };
    let recovered = StegFs::steg_recovery(fresh, &image, admin_key, params).unwrap();

    println!(
        "plain file restored:  {:?}",
        String::from_utf8_lossy(
            &recovered
                .plain_fs()
                .read_file("/projects/plan.txt")
                .unwrap()
        )
    );
    println!(
        "hidden file restored: {:?}",
        String::from_utf8_lossy(
            &recovered
                .read_hidden_with_key("hidden-ledger", uak)
                .unwrap()
        )
    );

    section("A wrong admin key cannot restore a tampered or substituted image");
    let fresh = MemBlockDevice::with_capacity_mb(1024, 32);
    match StegFs::steg_recovery(
        fresh,
        &image,
        b"not the admin key",
        StegParams {
            random_fill: false,
            ..StegParams::default()
        },
    ) {
        Err(err) => println!("recovery with the wrong key: {err}"),
        Ok(_) => unreachable!("an unauthenticated image must never restore"),
    }

    println!();
    println!("done.");
}
