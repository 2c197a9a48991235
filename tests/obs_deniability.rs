//! Deniability tests for the observability layer (`stegfs-obs`).
//!
//! The obs registry trades visibility for nothing: an adversary who can read
//! the metrics output (or image RAM after a sign-off, or image the disk with
//! instrumentation on) must learn exactly what they would learn without it.
//! These tests pin the four load-bearing claims:
//!
//! 1. The snapshot's *shape* — every key, label, and metric name — is a
//!    static property of the binary, identical whether or not hidden objects
//!    exist or were ever touched.  Only numeric magnitudes vary.  The same
//!    holds one level down for the span layer: the attribution table's shape
//!    and the chrome-trace export's label vocabulary are closed sets baked
//!    into the binary.
//! 2. The slow-request capture and any in-flight chrome-trace capture are
//!    scrubbed on session sign-off and on unmount.
//! 3. The on-disk image is bit-identical whether or not a chrome-trace
//!    capture runs and the registry is snapshotted and reset between
//!    requests: nothing about the registry is ever persisted.
//! 4. Request ids in span trees come from a process-global monotonic
//!    counter, never from key material.
//!
//! One more pin rides on the same engine workload: every lock family of the
//! static vocabulary resolves by name and is populated by real traffic.

use std::sync::Arc;
use stegfs_blockdev::{BlockDevice, MemBlockDevice, SharedDevice};
use stegfs_core::{ObjectKind, StegFs};
use stegfs_engine::{Client, Engine, Request, Response};
use stegfs_tests::{full_feature_params, journaled_params, payload};
use stegfs_vfs::{OpenOptions, Vfs, VfsHandle};

const OWNER: &str = "the real key";

/// Run a workload on a fresh volume and return the obs snapshot.  When
/// `hidden` is set, the workload also creates, rewrites, and reads hidden
/// objects; op counts deliberately differ so only the *values* can diverge.
fn snapshot_after_workload(hidden: bool) -> stegfs_obs::Snapshot {
    let fs = StegFs::format(MemBlockDevice::new(1024, 8192), full_feature_params()).unwrap();
    fs.plain_fs()
        .write_file("/cover.txt", &payload(1, 32 * 1024))
        .unwrap();
    fs.plain_fs()
        .write_file("/cover2.txt", &payload(2, 16 * 1024))
        .unwrap();
    fs.plain_fs().read_file("/cover.txt").unwrap();
    if hidden {
        fs.steg_create("secret-a", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("secret-a", OWNER, &payload(3, 96 * 1024))
            .unwrap();
        fs.read_hidden_with_key("secret-a", OWNER).unwrap();
        fs.write_hidden_with_key("secret-a", OWNER, &payload(4, 48 * 1024))
            .unwrap();
    }
    fs.sync().unwrap();
    fs.obs().snapshot()
}

#[test]
fn snapshot_shape_is_independent_of_hidden_activity() {
    let without = snapshot_after_workload(false);
    let with = snapshot_after_workload(true);
    // Byte-identical shape: same keys, same labels, same structure.  Only
    // digit runs (the measured magnitudes) are allowed to differ.
    assert_eq!(
        without.shape(),
        with.shape(),
        "metric names/structure must not depend on hidden objects"
    );
    // And the JSON never embeds workload identifiers: names, keys, paths.
    let json = with.to_json();
    for leak in ["secret-a", OWNER, "cover", "/"] {
        assert!(
            !json.contains(leak),
            "snapshot JSON must not contain {leak:?}"
        );
    }
}

fn eng_open<D: BlockDevice + Send + Sync + 'static>(client: &Client<D>, path: &str) -> VfsHandle {
    match client
        .call(Request::Open {
            path: path.into(),
            opts: OpenOptions::read_write(),
        })
        .result
        .unwrap()
    {
        Response::Handle(h) => h,
        other => panic!("open returned {other:?}"),
    }
}

fn eng_write<D: BlockDevice + Send + Sync + 'static>(
    client: &Client<D>,
    h: VfsHandle,
    data: Vec<u8>,
) {
    let len = data.len();
    match client
        .call(Request::WriteAt {
            handle: h,
            offset: 0,
            data,
        })
        .result
        .unwrap()
    {
        Response::Written(n) => assert_eq!(n, len),
        other => panic!("write returned {other:?}"),
    }
}

fn eng_read<D: BlockDevice + Send + Sync + 'static>(client: &Client<D>, h: VfsHandle, len: usize) {
    client
        .call(Request::ReadAt {
            handle: h,
            offset: 0,
            len,
        })
        .result
        .unwrap();
}

fn eng_close<D: BlockDevice + Send + Sync + 'static>(client: &Client<D>, h: VfsHandle) {
    client.call(Request::Close { handle: h }).result.unwrap();
}

#[test]
fn trace_slow_and_capture_rings_are_zeroized_on_signoff() {
    let dev = MemBlockDevice::new(1024, 8192);
    let vfs = Arc::new(Vfs::format(dev, full_feature_params()).unwrap());
    let engine = Arc::new(Engine::start(Arc::clone(&vfs), 2));
    vfs.obs().capture.begin(1024);
    let client = engine.client(OWNER);
    let h = eng_open(&client, "/hidden/diary");
    eng_write(&client, h, payload(5, 8 * 1024));
    eng_close(&client, h);
    assert!(
        vfs.obs().slow.offered() > 0 && !vfs.obs().slow.is_zeroed(),
        "completed requests must be offered to the slow capture"
    );
    assert!(
        !vfs.obs().capture.is_zeroed(),
        "an active chrome-trace capture must hold the run's trees"
    );
    client.signoff().unwrap();
    assert!(
        vfs.obs().slow.is_zeroed(),
        "signoff must scrub the slow-request capture"
    );
    assert!(
        vfs.obs().capture.is_zeroed(),
        "signoff must scrub any in-flight chrome-trace capture"
    );
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("engine still shared"))
        .shutdown();
}

#[test]
fn slow_and_capture_rings_are_zeroized_on_unmount() {
    // A registry handle kept past unmount must not keep the request trees
    // of a session that never signed off.
    let vfs =
        Arc::new(Vfs::format(MemBlockDevice::new(1024, 8192), full_feature_params()).unwrap());
    let obs = Arc::clone(vfs.obs());
    let engine = Engine::start(Arc::clone(&vfs), 2);
    obs.capture.begin(1024);
    let client = engine.client(OWNER);
    let h = eng_open(&client, "/hidden/diary");
    eng_write(&client, h, payload(6, 8 * 1024));
    eng_close(&client, h);
    assert!(!obs.slow.is_zeroed() && !obs.capture.is_zeroed());
    drop(client);
    engine.shutdown();
    Arc::try_unwrap(vfs)
        .unwrap_or_else(|_| panic!("vfs still shared"))
        .unmount()
        .unwrap();
    assert!(
        obs.slow.is_zeroed(),
        "unmount must scrub the slow-request capture"
    );
    assert!(
        obs.capture.is_zeroed(),
        "unmount must scrub any in-flight chrome-trace capture"
    );
}

/// The fixed engine request sequence: a plain file opened, written, read and
/// closed, then (optionally) the same on a hidden object.
fn drive_requests<D: BlockDevice + Send + Sync + 'static>(client: &Client<D>, hidden: bool) {
    let h = eng_open(client, "/plain/cover.dat");
    eng_write(client, h, payload(21, 16 * 1024));
    eng_read(client, h, 16 * 1024);
    eng_close(client, h);
    if hidden {
        let h = eng_open(client, "/hidden/secret-a");
        eng_write(client, h, payload(22, 16 * 1024));
        eng_read(client, h, 16 * 1024);
        eng_close(client, h);
    }
}

/// Drive the fixed engine request sequence and return the attribution-table
/// shape plus the run's chrome-trace JSON.
fn span_layer_run(key: &str, hidden: bool) -> (String, String) {
    let vfs =
        Arc::new(Vfs::format(MemBlockDevice::new(1024, 8192), full_feature_params()).unwrap());
    let engine = Arc::new(Engine::start(Arc::clone(&vfs), 1));
    vfs.obs().capture.begin(4096);
    let client = engine.client(key);
    drive_requests(&client, hidden);
    let (events, _) = vfs.obs().capture.take();
    let json = stegfs_obs::chrome_trace_json(&events);
    let shape = vfs.obs().attribution.summary().shape();
    client.signoff().unwrap();
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("engine still shared"))
        .shutdown();
    (shape, json)
}

#[test]
fn span_layer_shape_is_independent_of_hidden_activity() {
    let (plain_shape, _) = span_layer_run(OWNER, false);
    let (hidden_shape, json) = span_layer_run(OWNER, true);
    // The attribution table is a fixed ENGINE_OPS × phases grid: its shape
    // (keys, labels, structure) is byte-identical whether or not hidden
    // objects were ever touched.
    assert_eq!(
        plain_shape, hidden_shape,
        "attribution shape must not depend on hidden activity"
    );
    // The export never embeds workload identifiers.
    for leak in ["secret", OWNER, "cover", "/plain", "/hidden"] {
        assert!(
            !json.contains(leak),
            "trace export must not contain {leak:?}"
        );
    }
    // Every event label is drawn from the closed static vocabulary baked
    // into the binary — call sites cannot invent names.
    let mut rest = json.as_str();
    let mut seen = 0usize;
    while let Some(i) = rest.find("\"name\": \"") {
        rest = &rest[i + 9..];
        let end = rest.find('"').expect("name string terminated");
        let name = &rest[..end];
        assert!(
            stegfs_obs::PHASE_NAMES.contains(&name) || stegfs_obs::ENGINE_OPS.contains(&name),
            "trace event label {name:?} is not in the static vocabulary"
        );
        rest = &rest[end..];
        seen += 1;
    }
    assert!(seen > 0, "the hidden run must export events");
    let mut rest = json.as_str();
    while let Some(i) = rest.find("\"cat\": \"") {
        rest = &rest[i + 8..];
        let end = rest.find('"').expect("cat string terminated");
        assert!(matches!(&rest[..end], "request" | "phase"));
        rest = &rest[end..];
    }
}

#[test]
fn lock_families_are_named_and_populated_by_engine_traffic() {
    // The gating benchmark reads its per-layer wait metrics by string
    // (`snapshot().lock("core.uak_shards")`, 0 if the family is absent), so
    // a renamed or unwired family would silently zero them.  On a journaled
    // volume the request sequence must resolve every name and leave traffic
    // in each family it crosses.
    let dev = MemBlockDevice::new(1024, 8192);
    let vfs = Arc::new(Vfs::format(dev, journaled_params(256)).unwrap());
    let engine = Engine::start(Arc::clone(&vfs), 2);
    let client = engine.client(OWNER);
    drive_requests(&client, true);
    let snapshot = vfs.obs().snapshot();
    client.signoff().unwrap();
    engine.shutdown();
    for name in stegfs_obs::LOCK_NAMES {
        assert!(snapshot.lock(name).is_some(), "lock family {name} absent");
    }
    for name in [
        "engine.queue",
        "fs.alloc",
        "journal.state",
        "core.uak_shards",
        "core.object_shards",
    ] {
        let acquisitions = snapshot.lock(name).map_or(0, |l| l.acquisitions);
        assert!(acquisitions > 0, "lock family {name} saw no traffic");
    }
}

#[test]
fn request_ids_are_counter_allocated_never_key_derived() {
    // The same workload under two unrelated access keys: if span request
    // ids were in any way derived from key material the two id sets could
    // interleave or collide.  A process-global monotonic counter — the only
    // allocator — makes every id of the later run strictly greater than
    // every id of the earlier run.
    let ids = |key: &str| -> Vec<u64> {
        let vfs =
            Arc::new(Vfs::format(MemBlockDevice::new(1024, 8192), full_feature_params()).unwrap());
        let engine = Arc::new(Engine::start(Arc::clone(&vfs), 1));
        vfs.obs().capture.begin(4096);
        let client = engine.client(key);
        let h = eng_open(&client, "/hidden/diary");
        eng_write(&client, h, payload(31, 8 * 1024));
        eng_close(&client, h);
        let (events, _) = vfs.obs().capture.take();
        client.signoff().unwrap();
        Arc::try_unwrap(engine)
            .unwrap_or_else(|_| panic!("engine still shared"))
            .shutdown();
        events
            .iter()
            .filter(|e| e.cat == "request")
            .map(|e| e.req_id)
            .collect()
    };
    let first = ids("alpha key material");
    let second = ids("a completely different key");
    assert_eq!(first.len(), second.len(), "identical workloads");
    assert!(!first.is_empty());
    let max_first = *first.iter().max().unwrap();
    let min_second = *second.iter().min().unwrap();
    assert!(
        min_second > max_first,
        "request ids must advance monotonically across sessions ({min_second} <= {max_first})"
    );
}

#[test]
fn disk_image_is_bit_identical_with_tracing_on_and_off() {
    // Same workload driven through the full engine stack, once with an
    // active chrome-trace capture and the registry snapshotted and reset
    // between requests, once with neither.  An adversary imaging the raw
    // device afterwards sees the same bytes either way.
    let run = |traced: bool| -> Vec<u8> {
        let shared = SharedDevice::new(MemBlockDevice::new(1024, 8192));
        let adversary = shared.clone();
        let vfs = Arc::new(Vfs::format(shared, full_feature_params()).unwrap());
        let engine = Arc::new(Engine::start(Arc::clone(&vfs), 1));
        if traced {
            vfs.obs().capture.begin(1024);
        }
        let between = || {
            if traced {
                std::hint::black_box(vfs.obs().snapshot().to_json());
                vfs.obs().reset();
            }
        };
        let client = engine.client(OWNER);
        let h = eng_open(&client, "/plain/cover.dat");
        between();
        eng_write(&client, h, payload(41, 24 * 1024));
        between();
        eng_close(&client, h);
        let h = eng_open(&client, "/hidden/secret");
        between();
        eng_write(&client, h, payload(42, 32 * 1024));
        between();
        eng_read(&client, h, 32 * 1024);
        between();
        eng_close(&client, h);
        client.signoff().unwrap();
        vfs.sync().unwrap();
        Arc::try_unwrap(engine)
            .unwrap_or_else(|_| panic!("engine still shared"))
            .shutdown();
        drop(vfs);
        let total = adversary.total_blocks();
        let mut out = Vec::new();
        for b in 0..total {
            out.extend(adversary.read_block_shared(b).unwrap());
        }
        out
    };
    assert_eq!(
        run(false),
        run(true),
        "tracing must leave no mark on the volume"
    );
}
