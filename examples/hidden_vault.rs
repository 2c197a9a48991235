//! A multi-user hidden vault: access hierarchies, hidden directories,
//! sharing and revocation (§3.2 and Figure 4 of the paper).
//!
//! Alice keeps two access levels — an "everyday" level she would disclose
//! under pressure and a "deniable" level she would not.  She shares one file
//! with Bob by encrypting its directory entry under Bob's public key, later
//! revokes the share, and Bob loses access while Alice keeps hers.
//!
//! Run with `cargo run -p stegfs-examples --bin hidden_vault`.

use stegfs_core::{AccessHierarchy, ObjectKind, Parent};
use stegfs_crypto::rsa::RsaKeyPair;
use stegfs_examples::{demo_volume, section};
use stegfs_vfs::{OpenOptions, Vfs};

fn main() {
    let fs = demo_volume(32);

    // ------------------------------------------------------------------
    // Alice's two access levels.
    // ------------------------------------------------------------------
    let alice = AccessHierarchy::new(vec![
        "alice everyday key".to_string(),
        "alice deniable key".to_string(),
    ]);
    let everyday = alice.uak_at(0).unwrap().to_string();
    let deniable = alice.uak_at(1).unwrap().to_string();

    section("Level 0 (disclosable): an address book");
    fs.steg_create("address-book", &everyday, ObjectKind::File)
        .unwrap();
    fs.write_hidden_with_key(
        "address-book",
        &everyday,
        b"mum: 555-0101, dentist: 555-0199",
    )
    .unwrap();

    section("Level 1 (deniable): a hidden directory of sensitive files");
    // The deniable level goes through a VFS session: sign on with the key,
    // build the directory under `/hidden`, connect it, sign off.
    let vfs = Vfs::new(fs);
    let session = vfs.signon(&deniable);
    vfs.mkdir(session, "/hidden/vault").unwrap();
    for name in ["sources", "draft-story"] {
        let path = format!("/hidden/vault/{name}");
        let h = vfs.open(session, &path, OpenOptions::read_write()).unwrap();
        vfs.close(h).unwrap();
    }
    // Connecting the directory reveals its offspring for this session, at
    // `/hidden/<name>`.
    vfs.connect(session, "vault").unwrap();
    for (name, text) in [
        ("sources", &b"the whistleblower's contact details"[..]),
        ("draft-story", b"working title: what the audit missed"),
    ] {
        let h = vfs
            .open(
                session,
                &format!("/hidden/{name}"),
                OpenOptions::read_write(),
            )
            .unwrap();
        vfs.write_at(h, 0, text).unwrap();
        vfs.close(h).unwrap();
    }
    println!(
        "connected after connect(vault): {:?}",
        vfs.connected_objects(session).unwrap()
    );
    // Sign-off is the paper's logoff: the session's connect table and every
    // cached decrypted byte its key could reach are gone.
    vfs.signoff(session).unwrap();
    println!("live sessions after logoff: {}", vfs.session_count());
    let fs = vfs.into_stegfs();
    let vault = fs.lookup_entry("vault", &deniable).unwrap();
    let sources = fs
        .list(Parent::Dir(&vault))
        .unwrap()
        .find("sources")
        .cloned();
    println!(
        "sources, read back through the directory's listing: {:?}",
        String::from_utf8_lossy(&fs.read_hidden_entry(&sources.unwrap()).unwrap())
    );

    section("Under compulsion: disclose level 0, deny level 1");
    for uak in alice.visible_at(0).unwrap() {
        let listing = fs.list(Parent::Uak(uak)).unwrap().entries;
        let names: Vec<_> = listing.iter().map(|e| (&e.name, e.kind)).collect();
        println!("objects visible with the disclosed key: {names:?}");
    }
    println!(
        "the deniable level is indistinguishable from not existing: {}",
        fs.read_hidden_with_key("vault", "some guessed key")
            .unwrap_err()
    );

    // ------------------------------------------------------------------
    // Sharing with Bob (Figure 4).
    // ------------------------------------------------------------------
    section("Sharing a single file with Bob");
    let bob_keys = RsaKeyPair::generate(768, b"bob's keypair seed");
    let bob_uak = "bob's own uak";

    let envelope = fs
        .steg_getentry("address-book", &everyday, &bob_keys.public)
        .unwrap();
    println!(
        "share envelope: {} opaque bytes (travels out of band, e.g. e-mail)",
        envelope.as_bytes().len()
    );
    let added = fs
        .steg_addentry(&envelope, &bob_keys.private, bob_uak)
        .unwrap();
    println!(
        "bob added '{added}' and reads: {:?}",
        String::from_utf8_lossy(&fs.read_hidden_with_key("address-book", bob_uak).unwrap())
    );

    section("Revocation: re-key the file, Bob's stale FAK stops working");
    fs.revoke_sharing("address-book", &everyday).unwrap();
    println!(
        "alice still reads: {:?}",
        String::from_utf8_lossy(&fs.read_hidden_with_key("address-book", &everyday).unwrap())
    );
    println!(
        "bob now gets: {}",
        fs.read_hidden_with_key("address-book", bob_uak)
            .unwrap_err()
    );

    println!();
    println!("done.");
}
