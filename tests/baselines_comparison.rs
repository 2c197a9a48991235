//! Behavioural comparisons between StegFS and the prior schemes — the claims
//! of §1 and §2 expressed as executable checks.

use stegfs_baselines::{BaselineError, StegCover, StegRand};
use stegfs_blockdev::{MemBlockDevice, ObservedDevice};
use stegfs_core::ObjectKind;
use stegfs_obs::DeviceStats;
use stegfs_tests::{payload, test_volume};

/// Block transfers a meter has counted, reads plus writes.
fn block_ios(stats: &DeviceStats) -> u64 {
    let s = stats.summary();
    s.blocks_read + s.blocks_written
}

#[test]
fn stegfs_never_loses_data_where_stegrand_does() {
    // Load the same sequence of files into StegFS and into StegRand (on
    // volumes of the same size) until the volume is reasonably full, then
    // read everything back.  StegFS must return every byte; StegRand is
    // expected to have destroyed something.
    let uak = "loader";
    let stegfs = test_volume(4096); // 4 MB
    let mut stegrand = StegRand::format(MemBlockDevice::new(1024, 4096), 4).unwrap();

    let mut stored = Vec::new();
    for i in 0..12 {
        let data = payload(i, 160 * 1024);
        let name = format!("file-{i}");
        match stegfs.steg_create(&name, uak, ObjectKind::File) {
            Ok(()) => match stegfs.write_hidden_with_key(&name, uak, &data) {
                Ok(()) => {}
                Err(stegfs_core::StegError::NoSpace) => break,
                Err(e) => panic!("unexpected StegFS error: {e}"),
            },
            Err(stegfs_core::StegError::NoSpace) => break,
            Err(e) => panic!("unexpected StegFS error: {e}"),
        }
        stegrand.store(&name, "pw", &data).unwrap();
        stored.push((name, data));
    }
    assert!(stored.len() >= 6, "expected to fit a meaningful load");

    let mut stegrand_losses = 0;
    for (name, data) in &stored {
        // StegFS: always intact.
        assert_eq!(
            stegfs.read_hidden_with_key(name, uak).unwrap(),
            *data,
            "StegFS lost {name}"
        );
        // StegRand: count the casualties.
        match stegrand.load(name, "pw", data.len()) {
            Ok(read) => {
                if read != *data {
                    stegrand_losses += 1;
                }
            }
            Err(BaselineError::DataLoss { .. }) | Err(BaselineError::NotFound(_)) => {
                stegrand_losses += 1
            }
            Err(e) => panic!("unexpected StegRand error: {e}"),
        }
    }
    assert!(
        stegrand_losses > 0,
        "at this load factor StegRand should have overwritten at least one file"
    );
}

#[test]
fn stegfs_uses_an_order_of_magnitude_fewer_ios_than_stegcover() {
    // Write then read one ~100 KB file through each scheme and compare the
    // I/O counts at the device level.
    let data = payload(42, 100 * 1024);

    // StegCover on a metered device.
    let metered = ObservedDevice::counting(MemBlockDevice::new(1024, 16 * 1024));
    let cover_stats = metered.stats().clone();
    let mut cover = StegCover::format(metered, 512 * 1024, 16).unwrap();
    cover_stats.reset();
    cover.store("doc", "pw", &data).unwrap();
    cover.load("doc", "pw").unwrap();
    let cover_ops = block_ios(&cover_stats);

    // StegFS on a metered device.
    let metered = ObservedDevice::counting(MemBlockDevice::new(1024, 16 * 1024));
    let steg_stats = metered.stats().clone();
    let fs = stegfs_core::StegFs::format(
        metered,
        stegfs_core::StegParams {
            random_fill: false,
            dummy_file_count: 0,
            ..stegfs_core::StegParams::for_tests()
        },
    )
    .unwrap();
    fs.steg_create("doc", "u", ObjectKind::File).unwrap();
    steg_stats.reset();
    fs.write_hidden_with_key("doc", "u", &data).unwrap();
    fs.read_hidden_with_key("doc", "u").unwrap();
    let steg_ops = block_ios(&steg_stats);

    assert!(
        cover_ops > steg_ops * 10,
        "StegCover used {cover_ops} I/Os vs StegFS {steg_ops}; expected >10x"
    );
}

#[test]
fn stegfs_and_baselines_all_deny_wrong_credentials_identically() {
    let data = payload(5, 8 * 1024);

    let fs = test_volume(4096);
    fs.steg_create("x", "right", ObjectKind::File).unwrap();
    fs.write_hidden_with_key("x", "right", &data).unwrap();
    assert!(fs
        .read_hidden_with_key("x", "wrong")
        .unwrap_err()
        .is_not_found());

    let mut cover = StegCover::format(MemBlockDevice::new(1024, 8192), 256 * 1024, 8).unwrap();
    cover.store("x", "right", &data).unwrap();
    assert!(matches!(
        cover.load("x", "wrong"),
        Err(BaselineError::NotFound(_))
    ));

    let mut rand = StegRand::format(MemBlockDevice::new(1024, 8192), 4).unwrap();
    rand.store("x", "right", &data).unwrap();
    assert!(matches!(
        rand.load("x", "wrong", data.len()),
        Err(BaselineError::NotFound(_))
    ));
}
