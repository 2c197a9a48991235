//! End-to-end life cycle tests spanning every crate: format → populate →
//! remount → share → back up → destroy → recover.

use stegfs_blockdev::{MemBlockDevice, SharedDevice};
use stegfs_core::{ObjectKind, Parent, StegFs, StegParams};
use stegfs_crypto::rsa::RsaKeyPair;
use stegfs_tests::{full_feature_params, payload, test_volume};
use stegfs_vfs::{OpenOptions, SessionId, Vfs, VfsError};

const ALICE: &str = "alice uak";
const BOB: &str = "bob uak";

#[test]
fn full_lifecycle_survives_remounts_and_recovery() {
    let fs = test_volume(8192);

    // Plain tree.
    fs.plain_fs().create_dir("/docs").unwrap();
    fs.plain_fs()
        .write_file("/docs/visible.txt", b"ordinary file")
        .unwrap();

    // Hidden objects for two users, including a large multi-chain file.
    let big = payload(1, 700 * 1024);
    fs.steg_create("alice-big", ALICE, ObjectKind::File)
        .unwrap();
    fs.write_hidden_with_key("alice-big", ALICE, &big).unwrap();
    fs.steg_create("bob-notes", BOB, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("bob-notes", BOB, b"bob's hidden notes")
        .unwrap();

    // Hide an existing plain file.
    fs.plain_fs()
        .write_file("/docs/to-hide.txt", b"was plain, becomes hidden")
        .unwrap();
    fs.steg_hide("/docs/to-hide.txt", "alice-hidden-doc", ALICE)
        .unwrap();
    assert!(!fs.plain_fs().exists("/docs/to-hide.txt").unwrap());

    // Remount and verify everything.
    let dev = fs.unmount().unwrap();
    let fs = StegFs::mount(dev, full_feature_params()).unwrap();
    assert_eq!(
        fs.plain_fs().read_file("/docs/visible.txt").unwrap(),
        b"ordinary file"
    );
    assert_eq!(fs.read_hidden_with_key("alice-big", ALICE).unwrap(), big);
    assert_eq!(
        fs.read_hidden_with_key("bob-notes", BOB).unwrap(),
        b"bob's hidden notes"
    );
    assert_eq!(
        fs.read_hidden_with_key("alice-hidden-doc", ALICE).unwrap(),
        b"was plain, becomes hidden"
    );
    // Each user's directory only lists their own objects.
    let alice_names: Vec<String> = fs
        .list(Parent::Uak(ALICE))
        .unwrap()
        .entries
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(alice_names.len(), 2);
    assert!(alice_names.contains(&"alice-big".to_string()));
    assert_eq!(fs.list(Parent::Uak(BOB)).unwrap().entries.len(), 1);

    // Share alice-big with Bob, verify, then revoke.
    let bob_rsa = RsaKeyPair::generate(512, b"bob rsa e2e");
    let envelope = fs
        .steg_getentry("alice-big", ALICE, &bob_rsa.public)
        .unwrap();
    fs.steg_addentry(&envelope, &bob_rsa.private, BOB).unwrap();
    assert_eq!(fs.read_hidden_with_key("alice-big", BOB).unwrap(), big);
    fs.revoke_sharing("alice-big", ALICE).unwrap();
    assert!(fs
        .read_hidden_with_key("alice-big", BOB)
        .unwrap_err()
        .is_not_found());
    assert_eq!(fs.read_hidden_with_key("alice-big", ALICE).unwrap(), big);

    // Back up, destroy, recover onto a brand new device.
    let image = fs.steg_backup(b"admin").unwrap();
    drop(fs);
    let recovered = StegFs::steg_recovery(
        MemBlockDevice::new(1024, 8192),
        &image,
        b"admin",
        full_feature_params(),
    )
    .unwrap();
    assert_eq!(
        recovered.plain_fs().read_file("/docs/visible.txt").unwrap(),
        b"ordinary file"
    );
    assert_eq!(
        recovered.read_hidden_with_key("alice-big", ALICE).unwrap(),
        big
    );
    assert_eq!(
        recovered.read_hidden_with_key("bob-notes", BOB).unwrap(),
        b"bob's hidden notes"
    );
}

#[test]
fn unhide_round_trips_through_plain_namespace() {
    let fs = test_volume(4096);
    let content = payload(2, 40 * 1024);
    fs.steg_create("secret", ALICE, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("secret", ALICE, &content).unwrap();

    fs.steg_unhide("/now-public.bin", "secret", ALICE).unwrap();
    assert_eq!(fs.plain_fs().read_file("/now-public.bin").unwrap(), content);
    assert!(fs
        .read_hidden_with_key("secret", ALICE)
        .unwrap_err()
        .is_not_found());
    assert!(fs.list(Parent::Uak(ALICE)).unwrap().entries.is_empty());
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

#[test]
fn sessions_expose_connected_objects_only() {
    let dev = SharedDevice::new(MemBlockDevice::new(1024, 4096));
    let vfs = Vfs::format(dev, StegParams::for_tests()).unwrap();
    let s = vfs.signon(ALICE);
    vfs.mkdir(s, "/hidden/vault").unwrap();
    put(&vfs, s, "/hidden/vault/inner", b"written via the session");
    put(&vfs, s, "/hidden/loose-file", b"loose");
    assert!(
        vfs.connected_objects(s).unwrap().is_empty(),
        "opening is not connecting"
    );
    assert!(vfs.stat(s, "/hidden/inner").unwrap_err().is_not_found());

    vfs.connect(s, "vault").unwrap();
    assert_eq!(vfs.connected_objects(s).unwrap(), ["inner", "vault"]);
    assert_eq!(get(&vfs, s, "/hidden/inner"), b"written via the session");

    // Disconnecting drops the one object; reconnecting reaches it again.
    assert!(vfs.disconnect(s, "inner").unwrap());
    assert!(!vfs.disconnect(s, "inner").unwrap());
    assert_eq!(vfs.connected_objects(s).unwrap(), ["vault"]);
    assert!(vfs.stat(s, "/hidden/inner").unwrap_err().is_not_found());
    vfs.connect(s, "vault").unwrap();
    assert_eq!(get(&vfs, s, "/hidden/inner"), b"written via the session");

    // A session under another key sees none of it, and cannot connect it.
    let other = vfs.signon(BOB);
    assert!(vfs.connected_objects(other).unwrap().is_empty());
    assert!(vfs.readdir(other, "/hidden").unwrap().is_empty());
    assert!(vfs.stat(other, "/hidden/inner").unwrap_err().is_not_found());
    assert!(vfs.connect(other, "vault").unwrap_err().is_not_found());

    // Sign-off (the paper's logoff) drops the whole connect table.
    vfs.signoff(s).unwrap();
    assert!(matches!(
        vfs.connected_objects(s),
        Err(VfsError::BadSession(_))
    ));
    let again = vfs.signon(ALICE);
    assert!(vfs.connected_objects(again).unwrap().is_empty());
    assert!(vfs.stat(again, "/hidden/inner").unwrap_err().is_not_found());
    assert_eq!(
        get(&vfs, again, "/hidden/vault/inner"),
        b"written via the session"
    );
}

#[test]
fn hidden_data_survives_heavy_plain_churn() {
    // Hidden blocks are protected by the bitmap even though the central
    // directory knows nothing about them: create/delete lots of plain files
    // around a hidden one and make sure it is never overwritten.
    let fs = test_volume(8192);
    let secret = payload(3, 200 * 1024);
    fs.steg_create("precious", ALICE, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("precious", ALICE, &secret)
        .unwrap();

    for round in 0..8 {
        for i in 0..12 {
            let name = format!("/churn-{round}-{i}");
            fs.plain_fs()
                .write_file(&name, &payload(round * 100 + i, 64 * 1024))
                .unwrap();
        }
        for i in 0..12 {
            if i % 2 == 0 {
                fs.plain_fs()
                    .delete(&format!("/churn-{round}-{i}"))
                    .unwrap();
            }
        }
        assert_eq!(
            fs.read_hidden_with_key("precious", ALICE).unwrap(),
            secret,
            "hidden file corrupted during churn round {round}"
        );
    }
}

#[test]
fn dummy_file_maintenance_does_not_disturb_user_data() {
    let fs = test_volume(8192);
    let secret = payload(4, 100 * 1024);
    fs.steg_create("user-data", ALICE, ObjectKind::File)
        .unwrap();
    fs.write_hidden_with_key("user-data", ALICE, &secret)
        .unwrap();
    fs.plain_fs()
        .write_file("/plain.txt", b"plain data")
        .unwrap();

    for _ in 0..5 {
        let touched = fs.touch_dummy_files().unwrap();
        assert_eq!(touched, full_feature_params().dummy_file_count);
    }
    assert_eq!(fs.read_hidden_with_key("user-data", ALICE).unwrap(), secret);
    assert_eq!(
        fs.plain_fs().read_file("/plain.txt").unwrap(),
        b"plain data"
    );
}
