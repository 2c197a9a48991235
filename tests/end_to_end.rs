//! End-to-end life cycle tests spanning every crate: format → populate →
//! remount → share → back up → destroy → recover.

use stegfs_blockdev::MemBlockDevice;
use stegfs_core::{ObjectKind, Parent, StegError, StegFs};
use stegfs_crypto::rsa::RsaKeyPair;
use stegfs_tests::{full_feature_params, payload, test_volume};

const ALICE: &str = "alice uak";
const BOB: &str = "bob uak";

#[test]
fn full_lifecycle_survives_remounts_and_recovery() {
    let fs = test_volume(8192);

    // Plain tree.
    fs.create_plain_dir("/docs").unwrap();
    fs.write_plain("/docs/visible.txt", b"ordinary file")
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
    fs.write_plain("/docs/to-hide.txt", b"was plain, becomes hidden")
        .unwrap();
    fs.steg_hide("/docs/to-hide.txt", "alice-hidden-doc", ALICE)
        .unwrap();
    assert!(!fs.plain_exists("/docs/to-hide.txt").unwrap());

    // Remount and verify everything.
    let dev = fs.unmount().unwrap();
    let fs = StegFs::mount(dev, full_feature_params()).unwrap();
    assert_eq!(
        fs.read_plain("/docs/visible.txt").unwrap(),
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
        recovered.read_plain("/docs/visible.txt").unwrap(),
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
    assert_eq!(fs.read_plain("/now-public.bin").unwrap(), content);
    assert!(fs
        .read_hidden_with_key("secret", ALICE)
        .unwrap_err()
        .is_not_found());
    assert!(fs.list(Parent::Uak(ALICE)).unwrap().entries.is_empty());
}

#[test]
fn sessions_expose_connected_objects_only() {
    let fs = test_volume(4096);
    fs.steg_create("vault", ALICE, ObjectKind::Directory)
        .unwrap();
    fs.create(
        Parent::Dir(&fs.lookup_entry("vault", ALICE).unwrap()),
        "inner",
        ObjectKind::File,
    )
    .unwrap();
    fs.steg_create("loose-file", ALICE, ObjectKind::File)
        .unwrap();

    fs.steg_connect("vault", ALICE).unwrap();
    let mut connected = fs.connected_objects();
    connected.sort();
    assert_eq!(connected, vec!["inner", "vault"]);
    assert!(matches!(
        fs.read_hidden("loose-file"),
        Err(StegError::NotConnected(_))
    ));
    fs.write_hidden("inner", b"written via session").unwrap();
    fs.disconnect_all();
    assert!(fs.connected_objects().is_empty());
    assert!(
        fs.read_hidden_with_key("inner", ALICE)
            .unwrap_err()
            .is_not_found(),
        "children created inside a hidden dir are not in the UAK directory"
    );
    // But reconnecting the vault reaches it again.
    fs.steg_connect("vault", ALICE).unwrap();
    assert_eq!(fs.read_hidden("inner").unwrap(), b"written via session");
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
            fs.write_plain(&name, &payload(round * 100 + i, 64 * 1024))
                .unwrap();
        }
        for i in 0..12 {
            if i % 2 == 0 {
                fs.delete_plain(&format!("/churn-{round}-{i}")).unwrap();
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
    fs.write_plain("/plain.txt", b"plain data").unwrap();

    for _ in 0..5 {
        let touched = fs.touch_dummy_files().unwrap();
        assert_eq!(touched, full_feature_params().dummy_file_count);
    }
    assert_eq!(fs.read_hidden_with_key("user-data", ALICE).unwrap(), secret);
    assert_eq!(fs.read_plain("/plain.txt").unwrap(), b"plain data");
}
