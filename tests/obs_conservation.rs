//! Cross-layer conservation for the observability registry: two layers that
//! count the same events must agree exactly.
//!
//! The device meter (`ObservedDevice`) counts every successful submission
//! in `DeviceStats`, and opens one `device_io` span per submission, which
//! the engine folds into the per-op attribution table.  On a fresh volume
//! with no checkpoint daemon, every submission in the measured window runs
//! inside an engine request, so the two counts must be equal — as long as
//! no request reaches the per-request span cap (`MAX_SPANS`; a dropped span
//! shows as a shortfall).  A failed submission keeps its span (its time is
//! spent) but moves no counter; these volumes see no failures.

use std::sync::Arc;
use stegfs_blockdev::MemBlockDevice;
use stegfs_core::StegParams;
use stegfs_engine::{Client, Engine, Request, Response};
use stegfs_obs::{Phase, ENGINE_OPS};
use stegfs_tests::{full_feature_params, journaled_params, payload};
use stegfs_vfs::{OpenOptions, Vfs};

fn call(client: &Client<MemBlockDevice>, request: Request) -> Response {
    client.call(request).result.expect("request failed")
}

/// Open, write, read back, fsync and close `path` through the engine.
fn round_trip(client: &Client<MemBlockDevice>, path: &str, seed: u64, len: usize) {
    let Response::Handle(handle) = call(
        client,
        Request::Open {
            path: path.into(),
            opts: OpenOptions::read_write(),
        },
    ) else {
        panic!("open returned no handle");
    };
    call(
        client,
        Request::WriteAt {
            handle,
            offset: 0,
            data: payload(seed, len),
        },
    );
    call(
        client,
        Request::ReadAt {
            handle,
            offset: 0,
            len,
        },
    );
    call(client, Request::Fsync { handle });
    call(client, Request::Close { handle });
}

/// Σ over ops of the `device_io` cells against the device's submission
/// counters, over a window of engine requests on a fresh volume.
fn assert_device_io_spans_equal_submissions(params: StegParams) {
    let vfs = Arc::new(Vfs::format(MemBlockDevice::new(1024, 8192), params).unwrap());
    let obs = Arc::clone(vfs.obs());
    let engine = Engine::start(Arc::clone(&vfs), 2);
    let client = engine.client("conservation key");
    // A key's first hidden open probes the device thousands of times, past
    // the span cap; it runs before the window, like format and sign-on.
    round_trip(&client, "/hidden/warm-up", 99, 1024);
    obs.reset();
    for (i, path) in ["/plain/a.dat", "/hidden/b", "/plain/c.dat", "/hidden/d"]
        .iter()
        .enumerate()
    {
        round_trip(&client, path, i as u64, 4 * 1024 + 1000 * i);
    }
    round_trip(&client, "/hidden/b", 9, 6 * 1024);
    call(&client, Request::SyncAll);
    let device = obs.snapshot().device;
    let spans: u64 = (0..ENGINE_OPS.len())
        .map(|op| {
            obs.attribution
                .phase(op, Phase::DeviceIo)
                .unwrap()
                .summary()
                .count
        })
        .sum();
    client.signoff().unwrap();
    engine.shutdown();
    let submissions = device.reads + device.writes + device.flushes;
    assert!(submissions > 0, "the window must reach the device");
    assert_eq!(
        spans, submissions,
        "device_io spans vs submissions (reads {}, writes {}, flushes {})",
        device.reads, device.writes, device.flushes
    );
}

#[test]
fn device_io_spans_equal_device_submissions() {
    assert_device_io_spans_equal_submissions(full_feature_params());
}

#[test]
fn device_io_spans_equal_device_submissions_on_a_journaled_volume() {
    assert_device_io_spans_equal_submissions(journaled_params(256));
}

/// A committed in-place patch overwrites the cached blocks it rewrote and
/// drops nothing, so a run of patches with no namespace change moves the
/// cache's invalidation count and its zeroize sweeps not at all, through
/// the engine as through a direct call.
#[test]
fn in_place_hidden_patches_are_not_invalidations() {
    let vfs =
        Arc::new(Vfs::format(MemBlockDevice::new(1024, 8192), full_feature_params()).unwrap());
    let obs = Arc::clone(vfs.obs());
    let engine = Engine::start(Arc::clone(&vfs), 2);
    let client = engine.client("patch key");
    round_trip(&client, "/hidden/doc", 7, 16 * 1024);
    let Response::Handle(handle) = call(
        &client,
        Request::Open {
            path: "/hidden/doc".into(),
            opts: OpenOptions::read_write(),
        },
    ) else {
        panic!("open returned no handle");
    };
    // Warm: every block of the file is resident before the patches.
    call(
        &client,
        Request::ReadAt {
            handle,
            offset: 0,
            len: 16 * 1024,
        },
    );
    let before = vfs.cache_stats().invalidations;
    let sweeps = obs.readcache.summary().zeroize_ns.count;
    for i in 0..8u64 {
        call(
            &client,
            Request::WriteAt {
                handle,
                offset: 1500 * i,
                data: payload(40 + i, 900),
            },
        );
        call(
            &client,
            Request::ReadAt {
                handle,
                offset: 0,
                len: 16 * 1024,
            },
        );
    }
    assert_eq!(vfs.cache_stats().invalidations, before, "patches counted");
    assert_eq!(obs.readcache.summary().zeroize_ns.count, sweeps);
    call(&client, Request::Close { handle });
    client.signoff().unwrap();
    engine.shutdown();
}
