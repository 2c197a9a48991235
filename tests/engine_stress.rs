//! Request-engine stress: 12 workers, mixed plain/hidden request streams
//! from concurrent clients, an adversary session interleaved throughout.
//!
//! Asserts three things end to end:
//!
//! * **completion counts** — every submitted request completes exactly once
//!   (per-client and engine-wide totals agree);
//! * **error families** — legitimate traffic succeeds, and each failure the
//!   adversary provokes lands in the deniable not-found family;
//! * **indistinguishability** — through the engine, probing an existing
//!   object with the wrong key and probing a name that never existed return
//!   the *same* error variant, for stat, open and unlink alike.

use std::io::SeekFrom;
use std::sync::Arc;
use std::thread;
use stegfs_blockdev::MemBlockDevice;
use stegfs_core::{StegError, StegParams};
use stegfs_engine::{Engine, Request, Response};
use stegfs_vfs::{OpenOptions, Vfs, VfsError, VfsHandle};

const WORKERS: usize = 12;
const CLIENTS: usize = 6;
const ROUNDS: usize = 6;
const CHUNK: usize = 1500;

fn stress_params() -> StegParams {
    StegParams {
        random_fill: false,
        dummy_file_count: 0,
        abandoned_pct: 0.0,
        ..StegParams::for_tests()
    }
}

fn open_handle(client: &stegfs_engine::Client<MemBlockDevice>, path: &str) -> VfsHandle {
    match client
        .call(Request::Open {
            path: path.into(),
            opts: OpenOptions::read_write(),
        })
        .result
        .expect("open")
    {
        Response::Handle(h) => h,
        other => panic!("open returned {other:?}"),
    }
}

#[test]
fn engine_stress_mixed_clients_with_adversary() {
    let vfs =
        Arc::new(Vfs::format(MemBlockDevice::new(1024, 32768), stress_params()).expect("format"));
    let engine = Arc::new(Engine::start(Arc::clone(&vfs), WORKERS));

    // Legitimate clients: even ids drive /plain, odd ids /hidden (each
    // hidden client under its own key).  Every client runs open → pipelined
    // positional writes → verified reads → streaming seek/read → stat →
    // readdir → unlink → close, and reports how many requests it submitted.
    let legit: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || -> u64 {
                let client = engine.client(&format!("stress key {c}"));
                let path = if c.is_multiple_of(2) {
                    format!("/plain/stress-{c}")
                } else {
                    format!("/hidden/stress-{c}")
                };
                let mut submitted = 0u64;
                let h = open_handle(&client, &path);
                submitted += 1;

                for round in 0..ROUNDS {
                    // A burst of pipelined writes...
                    let ids: Vec<_> = (0..4u64)
                        .map(|i| {
                            client
                                .submit(Request::WriteAt {
                                    handle: h,
                                    offset: i * CHUNK as u64,
                                    data: vec![c as u8 ^ round as u8; CHUNK],
                                })
                                .expect("submit write")
                        })
                        .collect();
                    submitted += ids.len() as u64;
                    for id in ids {
                        let c = client.wait_for(id);
                        match c.result {
                            Ok(Response::Written(n)) => assert_eq!(n, CHUNK),
                            other => panic!("write completion for {path}: {other:?}"),
                        }
                        assert!(c.latency >= c.service);
                    }
                    // ...then verified reads of the same ranges...
                    for i in 0..4u64 {
                        let done = client.call(Request::ReadAt {
                            handle: h,
                            offset: i * CHUNK as u64,
                            len: CHUNK,
                        });
                        submitted += 1;
                        match done.result.expect("read") {
                            Response::Data(d) => {
                                assert_eq!(d, vec![c as u8 ^ round as u8; CHUNK])
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    // ...and a streaming seek + read.
                    let s = client.call(Request::Seek {
                        handle: h,
                        pos: SeekFrom::Start(CHUNK as u64),
                    });
                    submitted += 1;
                    assert!(matches!(s.result, Ok(Response::Offset(_))));
                    let r = client.call(Request::Read { handle: h, len: 64 });
                    submitted += 1;
                    match r.result.expect("stream read") {
                        Response::Data(d) => assert_eq!(d.len(), 64),
                        other => panic!("unexpected {other:?}"),
                    }
                }

                let st = client.call(Request::Stat { path: path.clone() });
                submitted += 1;
                match st.result.expect("stat") {
                    Response::Stat(s) => assert_eq!(s.size, 4 * CHUNK as u64),
                    other => panic!("unexpected {other:?}"),
                }
                let parent = if c.is_multiple_of(2) {
                    "/plain"
                } else {
                    "/hidden"
                };
                let dir = client.call(Request::Readdir {
                    path: parent.into(),
                });
                submitted += 1;
                match dir.result.expect("readdir") {
                    Response::Listing(entries) => {
                        assert!(entries.iter().any(|e| path.ends_with(&e.name)))
                    }
                    other => panic!("unexpected {other:?}"),
                }

                submitted += 1;
                assert!(matches!(
                    client.call(Request::Close { handle: h }).result,
                    Ok(Response::Unit)
                ));
                submitted += 1;
                assert!(matches!(
                    client.call(Request::Unlink { path: path.clone() }).result,
                    Ok(Response::Unit)
                ));
                assert_eq!(client.pending_completions(), 0);
                client.signoff().expect("signoff");
                submitted
            })
        })
        .collect();

    // The adversary runs interleaved with the legitimate burst: a session
    // under a guessed key probing names that exist (under other keys) and
    // names that never existed.  Both probes must come back as the same
    // error variant, request by request.
    let adversary = {
        let engine = Arc::clone(&engine);
        thread::spawn(move || -> u64 {
            let snoop = engine.client("guessed key");
            let mut submitted = 0u64;
            for round in 0..ROUNDS {
                // stress-1/3/5 exist under other keys; "never-existed-N"
                // matches nothing anywhere.
                for name in ["stress-1", "stress-3", "stress-5"] {
                    let existing = format!("/hidden/{name}");
                    let phantom = format!("/hidden/never-existed-{round}");
                    for probe in [
                        Request::Stat {
                            path: existing.clone(),
                        },
                        Request::Stat {
                            path: phantom.clone(),
                        },
                        Request::Open {
                            path: existing.clone(),
                            opts: OpenOptions::read_only(),
                        },
                        Request::Open {
                            path: phantom.clone(),
                            opts: OpenOptions::read_only(),
                        },
                        Request::Unlink { path: existing },
                        Request::Unlink { path: phantom },
                    ] {
                        let done = snoop.call(probe);
                        submitted += 1;
                        let err = done.result.expect_err("adversary must see nothing");
                        assert!(err.is_not_found(), "family leak: {err}");
                        // Wrong key and never-existed are the *same variant*,
                        // not merely the same family.
                        assert!(
                            matches!(err, VfsError::Steg(StegError::NotFound(_))),
                            "variant leak: {err:?}"
                        );
                    }
                }
                // The adversary's own /hidden stays empty throughout.
                let dir = snoop.call(Request::Readdir {
                    path: "/hidden".into(),
                });
                submitted += 1;
                match dir.result.expect("readdir") {
                    Response::Listing(entries) => assert!(entries.is_empty()),
                    other => panic!("unexpected {other:?}"),
                }
            }
            snoop.signoff().expect("signoff");
            submitted
        })
    };

    let mut total = 0u64;
    for worker in legit {
        total += worker.join().expect("legit client");
    }
    total += adversary.join().expect("adversary");

    assert_eq!(
        engine.completed(),
        total,
        "every submitted request completes exactly once"
    );
    assert_eq!(vfs.open_handles(), 0, "all handles closed");
    assert_eq!(vfs.session_count(), 0, "all sessions signed off");
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("engine still shared"))
        .shutdown();
}

/// Durability through the engine: concurrent clients write and `Fsync` on a
/// journaled write-back volume, the "machine" dies without unmounting, the
/// disk tears its unsynced writes — and after remount every fsynced write is
/// readable.  `SyncAll` checkpoints the whole volume the same way.
#[test]
fn fsync_group_commit_survives_a_crash() {
    use stegfs_blockdev::{BufferCache, FaultDevice};

    let params = StegParams {
        dummy_file_count: 0,
        journal_blocks: 256,
        ..stress_params()
    };
    let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 16384));
    let vfs = Arc::new(
        Vfs::format(
            BufferCache::new_write_back(dev.clone(), 128),
            params.clone(),
        )
        .expect("format journaled volume"),
    );
    let engine = Arc::new(Engine::start(Arc::clone(&vfs), 8));

    let writers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let client = engine.client("fsync stress key");
                let path = format!("/hidden/durable-{c}");
                let h = open_handle_on(&client, &path, true);
                let data = vec![c as u8 ^ 0x55; 4000];
                match client
                    .call(Request::WriteAt {
                        handle: h,
                        offset: 0,
                        data: data.clone(),
                    })
                    .result
                    .expect("write")
                {
                    Response::Written(n) => assert_eq!(n, 4000),
                    other => panic!("write returned {other:?}"),
                }
                // Concurrent fsyncs share one journal flush (group commit).
                match client
                    .call(Request::Fsync { handle: h })
                    .result
                    .expect("fsync")
                {
                    Response::Unit => {}
                    other => panic!("fsync returned {other:?}"),
                }
                client.call(Request::Close { handle: h });
                client.signoff().expect("signoff");
                data
            })
        })
        .collect();
    let expected: Vec<Vec<u8>> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    // A volume-wide checkpoint request also completes.
    let client = engine.client("fsync stress key");
    match client.call(Request::SyncAll).result.expect("sync all") {
        Response::Unit => {}
        other => panic!("sync all returned {other:?}"),
    }
    client.signoff().expect("signoff");

    // The machine dies: no unmount, the write-back cache evaporates, the
    // disk keeps a torn subset of whatever was not yet flushed.
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("engine still shared"))
        .shutdown();
    drop(vfs);
    dev.crash(0xf5f5);

    // Remount (replay runs in mount): every fsynced write is intact.
    let vfs = Vfs::mount(BufferCache::new_write_back(dev.clone(), 128), params).expect("remount");
    let s = vfs.signon("fsync stress key");
    for (c, data) in expected.iter().enumerate() {
        let h = vfs
            .open(s, &format!("/hidden/durable-{c}"), OpenOptions::read_only())
            .expect("reopen");
        assert_eq!(&vfs.read_at(h, 0, 4000).expect("read back"), data);
        vfs.close(h).expect("close");
    }
    vfs.signoff(s).expect("signoff");
}

/// A device error under the engine: a group flush's write-back batch fails
/// on a journaled write-back volume.  The write that needed the flush gets
/// an `Err`, the same for `/plain` as for `/hidden`; nothing panics (a
/// panicking request would poison the engine and fail every later one);
/// the next requests answer; and after a clean flush and a remount every
/// acknowledged write reads back.
#[test]
fn a_failed_flush_batch_is_a_clean_error_through_the_engine() {
    use stegfs_blockdev::{BufferCache, FaultDevice, FaultTarget};

    let params = StegParams {
        dummy_file_count: 0,
        journal_blocks: 256,
        ..stress_params()
    };
    let blocks = 16384;
    let dev = FaultDevice::new(MemBlockDevice::new(1024, blocks));
    dev.fail_only(FaultTarget::Writes);
    // A cache as large as the volume never evicts, so every device write is
    // a group flush's write-back batch.
    let cache = BufferCache::new_write_back(dev.clone(), blocks as usize);
    let vfs = Arc::new(Vfs::format(cache, params.clone()).expect("format journaled volume"));
    let engine = Engine::start(Arc::clone(&vfs), 4);
    let client = engine.client("fault key");
    let write = |handle, byte: u8| {
        client
            .call(Request::WriteAt {
                handle,
                offset: 0,
                data: vec![byte; 3000],
            })
            .result
    };
    let paths = ["/plain/flaky", "/hidden/flaky"];
    let handles: Vec<VfsHandle> = paths
        .iter()
        .map(|path| open_handle_on(&client, path, true))
        .collect();
    for &h in &handles {
        assert!(matches!(write(h, 1), Ok(Response::Written(3000))));
    }

    let errors: Vec<String> = handles
        .iter()
        .map(|&h| {
            dev.script_failures(1);
            let err = write(h, 2).expect_err("the flush's batch failed");
            err.to_string()
        })
        .collect();
    assert_eq!(dev.injected(), 2, "each write met its scripted failure");
    assert_eq!(errors[0], errors[1], "one error shape for both namespaces");

    for &h in &handles {
        assert!(matches!(write(h, 3), Ok(Response::Written(3000))));
        match client
            .call(Request::ReadAt {
                handle: h,
                offset: 0,
                len: 3000,
            })
            .result
        {
            Ok(Response::Data(d)) => assert_eq!(d, vec![3; 3000]),
            other => panic!("read after the failure: {other:?}"),
        }
        assert!(matches!(
            client.call(Request::Close { handle: h }).result,
            Ok(Response::Unit)
        ));
    }
    assert!(matches!(
        client.call(Request::SyncAll).result,
        Ok(Response::Unit)
    ));
    client.signoff().expect("signoff");
    engine.shutdown();
    drop(vfs);

    let vfs = Vfs::mount(BufferCache::new_write_back(dev, 128), params).expect("remount");
    let s = vfs.signon("fault key");
    for path in paths {
        let h = vfs.open(s, path, OpenOptions::read_only()).expect("reopen");
        assert_eq!(vfs.read_at(h, 0, 3000).expect("read back"), vec![3; 3000]);
        vfs.close(h).expect("close");
    }
    vfs.signoff(s).expect("signoff");
}

fn open_handle_on<D: stegfs_blockdev::BlockDevice + Send + Sync + 'static>(
    client: &stegfs_engine::Client<D>,
    path: &str,
    create: bool,
) -> VfsHandle {
    let opts = if create {
        OpenOptions::read_write().create(true)
    } else {
        OpenOptions::read_write()
    };
    match client
        .call(Request::Open {
            path: path.into(),
            opts,
        })
        .result
        .expect("open")
    {
        Response::Handle(h) => h,
        other => panic!("open returned {other:?}"),
    }
}
