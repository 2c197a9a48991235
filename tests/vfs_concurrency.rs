//! Multi-threaded stress tests for the `stegfs-vfs` front-end: the workload
//! shape of the paper's Figure 7 concurrency experiment, expressed through
//! real handles on one shared volume — N threads interleaving plain reads
//! and writes with hidden reads and writes, while adversary sessions keep
//! checking that nothing hidden ever becomes visible to them.

use std::io::SeekFrom;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use stegfs_blockdev::{Dir, FaultDevice, MemBlockDevice, ParkAt, SharedDevice, Trigger};
use stegfs_core::StegParams;
use stegfs_tests::full_feature_params;
use stegfs_vfs::{OpenOptions, Vfs};

const SECRET_UAK: &str = "the real user access key";
const ROUNDS: usize = 24;

fn stress_volume() -> Arc<Vfs<SharedDevice>> {
    // 16 MB with every camouflage feature on, as in a production format.
    let dev = SharedDevice::new(MemBlockDevice::new(1024, 16384));
    Arc::new(Vfs::format(dev, full_feature_params()).expect("format"))
}

/// Deterministic per-(worker, round) payload so every reader can validate
/// whatever write it observes.
fn payload(worker: usize, round: usize, len: usize) -> Vec<u8> {
    let tag = (worker * 131 + round * 17) as u8;
    (0..len).map(|i| tag ^ (i % 251) as u8).collect()
}

#[test]
fn mixed_plain_hidden_traffic_from_many_threads() {
    let vfs = stress_volume();
    let checks = Arc::new(AtomicUsize::new(0));

    // 12 threads >= the acceptance bar of 8: 4 plain workers, 4 hidden
    // workers, 2 hidden re-readers, 2 adversaries.
    let plain_workers = 4usize;
    let hidden_workers = 4usize;
    let rereaders = 2usize;
    let adversaries = 2usize;
    let total = plain_workers + hidden_workers + rereaders + adversaries;
    let barrier = Arc::new(Barrier::new(total));
    let mut handles = Vec::new();

    for w in 0..plain_workers {
        let vfs = Arc::clone(&vfs);
        let barrier = Arc::clone(&barrier);
        let checks = Arc::clone(&checks);
        handles.push(thread::spawn(move || {
            let session = vfs.signon(&format!("plain worker {w}"));
            barrier.wait();
            for round in 0..ROUNDS {
                let path = format!("/plain/worker-{w}-{}.dat", round % 3);
                let h = vfs
                    .open(session, &path, OpenOptions::read_write())
                    .expect("open plain");
                let data = payload(w, round, 600 + round * 13);
                vfs.write_at(h, 0, &data).expect("write plain");
                let back = vfs.read_at(h, 0, data.len()).expect("read plain");
                assert_eq!(back, data, "plain roundtrip w={w} round={round}");
                // Positional re-read of a slice.
                let slice = vfs.read_at(h, 100, 50).expect("pread plain");
                assert_eq!(slice, &data[100..150]);
                vfs.close(h).expect("close plain");
                checks.fetch_add(1, Ordering::Relaxed);
            }
            vfs.signoff(session).expect("signoff");
        }));
    }

    for w in 0..hidden_workers {
        let vfs = Arc::clone(&vfs);
        let barrier = Arc::clone(&barrier);
        let checks = Arc::clone(&checks);
        handles.push(thread::spawn(move || {
            let session = vfs.signon(SECRET_UAK);
            barrier.wait();
            for round in 0..ROUNDS {
                let path = format!("/hidden/vault-{w}");
                let h = vfs
                    .open(session, &path, OpenOptions::read_write())
                    .expect("open hidden");
                let data = payload(w, round, 900 + round * 29);
                vfs.write_at(h, 0, &data).expect("write hidden");
                let back = vfs.read_at(h, 0, data.len()).expect("read hidden");
                assert_eq!(back, data, "hidden roundtrip w={w} round={round}");
                // Streaming access through the same handle.
                vfs.seek(h, SeekFrom::Start(10)).expect("seek");
                assert_eq!(vfs.read(h, 20).expect("stream read"), &data[10..30]);
                vfs.close(h).expect("close hidden");
                checks.fetch_add(1, Ordering::Relaxed);
            }
            vfs.signoff(session).expect("signoff");
        }));
    }

    for r in 0..rereaders {
        let vfs = Arc::clone(&vfs);
        let barrier = Arc::clone(&barrier);
        let checks = Arc::clone(&checks);
        handles.push(thread::spawn(move || {
            let session = vfs.signon(SECRET_UAK);
            barrier.wait();
            for round in 0..ROUNDS {
                // Re-read whatever some writer last committed; any
                // well-formed payload is acceptable, torn data is not.
                let target = format!("/hidden/vault-{}", (r + round) % 4);
                match vfs.open(session, &target, OpenOptions::read_only()) {
                    Ok(h) => {
                        let size = vfs.handle_size(h).expect("size") as usize;
                        if size > 0 {
                            let data = vfs.read_at(h, 0, size).expect("read");
                            assert_eq!(data.len(), size);
                            let tag = data[0];
                            for (i, &b) in data.iter().enumerate() {
                                assert_eq!(
                                    b,
                                    tag ^ (i % 251) as u8,
                                    "torn hidden read at byte {i} of {target}"
                                );
                            }
                        }
                        vfs.close(h).expect("close");
                        checks.fetch_add(1, Ordering::Relaxed);
                    }
                    // Not created yet by its writer: the same not-found the
                    // adversary sees, which is fine and deniable.
                    Err(e) => assert!(e.is_not_found(), "unexpected error: {e}"),
                }
            }
            vfs.signoff(session).expect("signoff");
        }));
    }

    for a in 0..adversaries {
        let vfs = Arc::clone(&vfs);
        let barrier = Arc::clone(&barrier);
        let checks = Arc::clone(&checks);
        handles.push(thread::spawn(move || {
            let session = vfs.signon(&format!("adversary guess #{a}"));
            barrier.wait();
            for round in 0..ROUNDS {
                // The hidden tree is empty under a wrong key — always.
                assert!(
                    vfs.readdir(session, "/hidden").expect("readdir").is_empty(),
                    "hidden object leaked to adversary session"
                );
                // Guessing names fails with the indistinguishable error.
                let guess = format!("/hidden/vault-{}", round % 4);
                assert!(vfs.stat(session, &guess).unwrap_err().is_not_found());
                assert!(vfs
                    .open(session, &guess, OpenOptions::read_only())
                    .unwrap_err()
                    .is_not_found());
                // The plain namespace never mentions hidden names.
                for entry in vfs.readdir(session, "/plain").expect("plain ls") {
                    assert!(
                        !entry.name.contains("vault"),
                        "hidden name in plain listing: {}",
                        entry.name
                    );
                }
                checks.fetch_add(1, Ordering::Relaxed);
            }
            vfs.signoff(session).expect("signoff");
        }));
    }

    for h in handles {
        h.join().expect("worker thread panicked");
    }

    assert!(checks.load(Ordering::Relaxed) >= (total - rereaders) * ROUNDS);
    assert_eq!(vfs.open_handles(), 0, "every handle was closed");
    assert_eq!(vfs.session_count(), 0, "every session signed off");

    // After the storm: the volume is intact and the hidden data survives a
    // remount, readable only with the key.
    let report = vfs.space_report().expect("space report");
    assert!(report.free_blocks > 0);
    let vfs = Arc::into_inner(vfs).expect("sole owner");
    let dev = vfs.unmount().expect("unmount");
    let vfs = Vfs::mount(dev, full_feature_params()).expect("remount");
    let owner = vfs.signon(SECRET_UAK);
    assert_eq!(vfs.readdir(owner, "/hidden").expect("ls").len(), 4);
    let snoop = vfs.signon("still guessing");
    assert!(vfs.readdir(snoop, "/hidden").expect("ls").is_empty());
}

#[test]
fn writers_progress_while_a_streaming_handle_stays_open() {
    // Regression test for the shared-reference redesign: under the old
    // global write lock every operation queued behind one guard; now an open
    // streaming handle on one file must not impede writers of *other* files.
    // A holder keeps one hidden file open and streams it continuously while
    // two writers chew through their own files; everyone must finish, and
    // the holder must still be mid-stream (handle open) when the writers do.
    let dev = SharedDevice::new(MemBlockDevice::new(1024, 16384));
    let vfs = Arc::new(Vfs::format(dev, StegParams::for_tests()).expect("format"));
    let writers_done = Arc::new(AtomicUsize::new(0));
    let holder_ready = Arc::new(Barrier::new(3));

    // Pre-create the streamed file.
    let owner = vfs.signon(SECRET_UAK);
    let h = vfs
        .open(owner, "/hidden/long-stream", OpenOptions::read_write())
        .expect("open");
    let streamed = payload(99, 0, 32 * 1024);
    vfs.write_at(h, 0, &streamed).expect("prefill");
    vfs.close(h).expect("close");
    vfs.signoff(owner).expect("signoff");

    let holder = {
        let vfs = Arc::clone(&vfs);
        let writers_done = Arc::clone(&writers_done);
        let holder_ready = Arc::clone(&holder_ready);
        let streamed = streamed.clone();
        thread::spawn(move || {
            let s = vfs.signon(SECRET_UAK);
            let h = vfs
                .open(s, "/hidden/long-stream", OpenOptions::read_only())
                .expect("open stream");
            holder_ready.wait();
            // Stream in small chunks, wrapping around, until both writers
            // are done — the handle stays open the whole time.
            let mut wrapped = 0usize;
            while writers_done.load(Ordering::Acquire) < 2 || wrapped < 1 {
                let chunk = vfs.read(h, 1024).expect("stream chunk");
                if chunk.is_empty() {
                    vfs.seek(h, SeekFrom::Start(0)).expect("rewind");
                    wrapped += 1;
                    continue;
                }
            }
            // Validate one full pass at the end.
            vfs.seek(h, SeekFrom::Start(0)).expect("rewind");
            let all = vfs.read_at(h, 0, streamed.len()).expect("full read");
            assert_eq!(all, streamed, "stream torn by concurrent writers");
            vfs.close(h).expect("close");
            vfs.signoff(s).expect("signoff");
        })
    };

    let writers: Vec<_> = (0..2usize)
        .map(|w| {
            let vfs = Arc::clone(&vfs);
            let writers_done = Arc::clone(&writers_done);
            let holder_ready = Arc::clone(&holder_ready);
            thread::spawn(move || {
                let s = vfs.signon(SECRET_UAK);
                holder_ready.wait();
                for round in 0..12 {
                    let path = format!("/hidden/writer-{w}");
                    let h = vfs.open(s, &path, OpenOptions::read_write()).expect("open");
                    let data = payload(w * 7, round, 4096 + round * 97);
                    vfs.write_at(h, 0, &data).expect("write");
                    assert_eq!(vfs.read_at(h, 0, data.len()).expect("read"), data);
                    vfs.close(h).expect("close");
                }
                writers_done.fetch_add(1, Ordering::Release);
                vfs.signoff(s).expect("signoff");
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer panicked");
    }
    holder.join().expect("holder panicked");
    assert_eq!(vfs.open_handles(), 0);
}

#[test]
fn many_threads_share_one_hidden_file_positionally() {
    // 8 threads, one object, disjoint 512-byte strips: concurrent pread /
    // pwrite through per-thread handles must not interleave into torn data.
    let dev = SharedDevice::new(MemBlockDevice::new(1024, 8192));
    let vfs = Arc::new(Vfs::format(dev, StegParams::for_tests()).expect("format"));
    let threads = 8usize;
    let strip = 512usize;

    // Pre-size the file so every strip write is in place.
    let owner = vfs.signon(SECRET_UAK);
    let h = vfs
        .open(owner, "/hidden/shared-arena", OpenOptions::read_write())
        .expect("open");
    vfs.write_at(h, 0, &vec![0u8; threads * strip])
        .expect("prefill");
    vfs.close(h).expect("close");

    let barrier = Arc::new(Barrier::new(threads));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let vfs = Arc::clone(&vfs);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let session = vfs.signon(SECRET_UAK);
                let h = vfs
                    .open(session, "/hidden/shared-arena", OpenOptions::read_write())
                    .expect("open");
                barrier.wait();
                for round in 0..16 {
                    let data = payload(t, round, strip);
                    vfs.write_at(h, (t * strip) as u64, &data).expect("pwrite");
                    let back = vfs.read_at(h, (t * strip) as u64, strip).expect("pread");
                    assert_eq!(back, data, "strip {t} torn in round {round}");
                }
                vfs.close(h).expect("close");
                vfs.signoff(session).expect("signoff");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("strip worker panicked");
    }

    // Every strip holds its final round intact.
    let h = vfs
        .open(owner, "/hidden/shared-arena", OpenOptions::read_only())
        .expect("reopen");
    for t in 0..threads {
        let got = vfs.read_at(h, (t * strip) as u64, strip).expect("read");
        assert_eq!(got, payload(t, 15, strip), "final strip {t}");
    }
    vfs.close(h).expect("close");
}

#[test]
fn parked_streaming_handle_does_not_block_its_table_shard() {
    // Regression test for the per-handle stream-offset locks: streaming I/O
    // used to run under the open-file-table shard lock, so a stalled stream
    // on one handle blocked *positional* I/O and seeks on every unrelated
    // handle that hashed to the same 1-of-16 shard.  Now the offset lives
    // behind a per-handle mutex: with a streaming read provably frozen
    // inside the device, same-shard positional I/O and seeks must complete.
    let dev = FaultDevice::new(MemBlockDevice::new(1024, 16384));
    let vfs = Arc::new(Vfs::format(dev.clone(), StegParams::for_tests()).expect("format"));
    let s = vfs.signon(SECRET_UAK);

    // Two unrelated files, prefilled.
    for path in ["/hidden/stream-target", "/plain/bystander"] {
        let h = vfs.open(s, path, OpenOptions::read_write()).expect("open");
        vfs.write_at(h, 0, &payload(3, 7, 8 * 1024))
            .expect("prefill");
        vfs.close(h).expect("close");
    }

    let stream = vfs
        .open(s, "/hidden/stream-target", OpenOptions::read_only())
        .expect("open stream");
    // Open bystander handles until one lands on the stream handle's table
    // shard (handle ids are sequential, so at most SHARD_COUNT opens).
    let bystander = loop {
        let h = vfs
            .open(s, "/plain/bystander", OpenOptions::read_write())
            .expect("open bystander");
        if h.raw() % stegfs_vfs::table::SHARD_COUNT as u64
            == stream.raw() % stegfs_vfs::table::SHARD_COUNT as u64
        {
            break h;
        }
        vfs.close(h).expect("close mismatched");
    };

    // Freeze a streaming read mid-device-I/O: the next block read parks
    // inside the device, holding the stream handle's offset lock (and its
    // object lock), which under the old design was the table shard lock
    // instead.
    let park = dev.park(Trigger::when(|op| op.dir == Dir::Read), ParkAt::Before);
    let streamer = {
        let vfs = Arc::clone(&vfs);
        thread::spawn(move || {
            let chunk = vfs.read(stream, 4096).expect("streaming read");
            assert_eq!(chunk, payload(3, 7, 8 * 1024)[..4096]);
            vfs.close(stream).expect("close stream");
        })
    };
    park.wait(); // the stream is now provably frozen inside the device

    // Same-shard positional I/O and seeks must complete while it is parked.
    let got = vfs.read_at(bystander, 1024, 2048).expect("positional read");
    assert_eq!(got, payload(3, 7, 8 * 1024)[1024..3072]);
    vfs.write_at(bystander, 0, b"unblocked")
        .expect("positional write");
    assert_eq!(
        vfs.seek(bystander, SeekFrom::Start(512)).expect("seek"),
        512
    );
    assert_eq!(vfs.handle_size(bystander).expect("size"), 8 * 1024);

    // Release the parked stream and let everything finish.
    park.release();
    streamer.join().expect("streamer");
    vfs.close(bystander).expect("close bystander");
    vfs.signoff(s).expect("signoff");
}

#[test]
fn hidden_namespace_nests_arbitrarily_deep() {
    // Creation at depth >= 3: resolution always walked arbitrary depth, and
    // since the journal PR creation does too — mkdir and open(create) both
    // route through the parent chain at any level.
    let vfs = stress_volume();
    let s = vfs.signon(SECRET_UAK);

    vfs.mkdir(s, "/hidden/a").expect("depth 1");
    vfs.mkdir(s, "/hidden/a/b").expect("depth 2");
    vfs.mkdir(s, "/hidden/a/b/c").expect("depth 3");
    vfs.mkdir(s, "/hidden/a/b/c/d").expect("depth 4");

    // Create a file four levels down through open(create).
    let h = vfs
        .open(
            s,
            "/hidden/a/b/c/d/deep.dat",
            OpenOptions::read_write().create(true),
        )
        .expect("create deep file");
    let data = payload(9, 4, 5000);
    vfs.write_at(h, 0, &data).expect("write deep");
    vfs.close(h).expect("close deep");

    // The whole chain resolves: stat, readdir and read at every level.
    assert_eq!(
        vfs.stat(s, "/hidden/a/b/c/d/deep.dat").expect("stat").size,
        5000
    );
    let listing = vfs.readdir(s, "/hidden/a/b/c").expect("readdir c");
    assert_eq!(listing.len(), 1);
    assert_eq!(listing[0].name, "d");
    let h = vfs
        .open(s, "/hidden/a/b/c/d/deep.dat", OpenOptions::read_only())
        .expect("reopen deep");
    assert_eq!(vfs.read_at(h, 0, 5000).expect("read deep"), data);
    vfs.close(h).expect("close");

    // Mutations at depth: rename within the directory, then unlink.
    vfs.rename(s, "/hidden/a/b/c/d/deep.dat", "/hidden/a/b/c/d/renamed.dat")
        .expect("rename at depth");
    vfs.unlink(s, "/hidden/a/b/c/d/renamed.dat")
        .expect("unlink at depth");
    vfs.unlink(s, "/hidden/a/b/c/d").expect("rmdir d");

    // A second session with the same key sees the same tree; a wrong-key
    // session sees nothing at any depth.
    let s2 = vfs.signon(SECRET_UAK);
    assert_eq!(vfs.readdir(s2, "/hidden/a/b").expect("readdir b").len(), 1);
    let intruder = vfs.signon("wrong key entirely");
    assert!(vfs
        .stat(intruder, "/hidden/a/b/c")
        .expect_err("hidden from intruder")
        .is_not_found());
    // Creating under a parent the key cannot resolve fails deniably.
    assert!(vfs
        .mkdir(intruder, "/hidden/a/b/x")
        .expect_err("cannot create under unresolvable parent")
        .is_not_found());

    // Duplicate creation at depth is refused.
    assert!(vfs.mkdir(s, "/hidden/a/b/c").is_err());
    vfs.signoff(s).expect("signoff");
    vfs.signoff(s2).expect("signoff 2");
    vfs.signoff(intruder).expect("signoff intruder");
}
