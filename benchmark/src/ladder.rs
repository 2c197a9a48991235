//! The layer ladder: the same 64 KiB read and write timed at every layer
//! from the raw memory device up to the request engine, so that "what does
//! layer X add" is a subtraction of two rows.  Also the stand-alone costs
//! of the primitives (AES-CBC, SHA-256, IDA) and the paper-fidelity ratios
//! from the simulator's virtual clock.
//!
//! Each row is the median of [`ITERATIONS`] timed calls after
//! [`WARMUPS`] untimed ones, on an idle single-threaded stack.

use crate::host;
use crate::model::{fill_chunk, FILE_BYTES};
use crate::probe::BLOCK_SIZE;
use crate::workloads::JOURNAL_BLOCKS;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stegfs_baselines::Ida;
use stegfs_blockdev::{BlockDevice, BufferCache, MemBlockDevice};
use stegfs_core::{ObjectKind, StegFs, StegParams};
use stegfs_crypto::{sha256, CbcCipher};
use stegfs_engine::{Engine, Request, Response};
use stegfs_fs::{FormatOptions, PlainFs};
use stegfs_sim::{experiments::figure7, SchemeKind, WorkloadParams};
use stegfs_vfs::{OpenOptions, Vfs};

const ITERATIONS: usize = 21;
const WARMUPS: usize = 3;
/// Blocks in a ladder volume (32 MiB): enough for the format-time dummy
/// files and one 64 KiB file.
const LADDER_BLOCKS: u64 = 32 * 1024;
const UAK: &str = "ladder access key";

/// Median wall time of `timed`, in microseconds; `prepare` runs before
/// every call, outside the timed interval.
fn median_us(mut prepare: impl FnMut(), mut timed: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(ITERATIONS);
    for i in 0..WARMUPS + ITERATIONS {
        prepare();
        let start = Instant::now();
        timed();
        let us = start.elapsed().as_secs_f64() * 1e6;
        if i >= WARMUPS {
            samples.push(us);
        }
    }
    host::median(&samples)
}

fn us(timed: impl FnMut()) -> f64 {
    median_us(|| {}, timed)
}

fn mem() -> MemBlockDevice {
    MemBlockDevice::new(BLOCK_SIZE, LADDER_BLOCKS)
}

/// 64 contiguous blocks through the `BlockDevice` batch calls.
fn device_rows(dev: &impl BlockDevice, data: &[u8]) -> (f64, f64) {
    let blocks: Vec<u64> = (1000..1000 + (FILE_BYTES / BLOCK_SIZE) as u64).collect();
    let write = us(|| dev.write_blocks(&blocks, black_box(data)).expect("ladder"));
    let mut back = vec![0u8; FILE_BYTES];
    let read = us(|| {
        dev.read_blocks(&blocks, black_box(&mut back))
            .expect("ladder")
    });
    assert_eq!(back, data, "ladder: device returned other bytes");
    (read, write)
}

fn plain_fs_rows(journal_blocks: u64, data: &[u8]) -> (f64, f64) {
    let options = FormatOptions {
        journal_blocks,
        ..FormatOptions::default()
    };
    let fs = PlainFs::format(mem(), options).expect("ladder: format plain fs");
    let write = us(|| fs.write_file("/ladder", black_box(data)).expect("ladder"));
    let read = us(|| {
        black_box(fs.read_file("/ladder").expect("ladder"));
    });
    assert_eq!(fs.read_file("/ladder").expect("ladder"), data);
    (read, write)
}

/// Every `*_64k_us` row, the primitive costs and the simulator ratios.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut data = vec![0u8; FILE_BYTES];
    fill_chunk(seed, 0, 0, 0, &mut data);
    let mut rows = Vec::new();

    let (read, write) = device_rows(&mem(), &data);
    rows.push(("blockdev.mem_read_64k_us", read));
    rows.push(("blockdev.mem_write_64k_us", write));
    let cache = BufferCache::new_write_back(mem(), crate::probe::BUFFER_CACHE_BLOCKS);
    let (read, write) = device_rows(&cache, &data);
    rows.push(("blockdev.buffercache_read_64k_us", read));
    rows.push(("blockdev.buffercache_write_64k_us", write));

    let cipher = CbcCipher::new(&[0x42; 32]);
    let iv = [7u8; 16];
    let sealed = cipher.encrypt(&iv, &data);
    rows.push((
        "crypto.cbc_encrypt_64k_us",
        us(|| {
            black_box(cipher.encrypt(&iv, black_box(&data)));
        }),
    ));
    rows.push((
        "crypto.cbc_decrypt_64k_us",
        us(|| {
            black_box(cipher.decrypt(&iv, black_box(&sealed)).expect("ladder"));
        }),
    ));
    rows.push((
        "crypto.sha256_64k_us",
        us(|| {
            black_box(sha256(black_box(&data)));
        }),
    ));

    let ida = Ida::new(2, 3).expect("2-of-3 is a valid code");
    let shares = ida.split(&data);
    rows.push((
        "baselines.ida_split_64k_us",
        us(|| {
            black_box(ida.split(black_box(&data)));
        }),
    ));
    rows.push((
        "baselines.ida_reconstruct_64k_us",
        us(|| {
            black_box(
                ida.reconstruct(black_box(&shares[1..]), FILE_BYTES)
                    .expect("ladder"),
            );
        }),
    ));

    let (read, write) = plain_fs_rows(0, &data);
    rows.push(("fs.read_64k_us", read));
    rows.push(("fs.write_64k_us", write));
    let (_, journaled_write) = plain_fs_rows(JOURNAL_BLOCKS, &data);
    rows.push(("journal.added_write_64k_us", journaled_write - write));

    // One volume carries the three upper rungs, each wrapping the last.
    let params = StegParams {
        random_fill: false,
        volume_seed: seed,
        ..StegParams::default()
    };
    let fs = StegFs::format(mem(), params).expect("ladder: format stegfs");
    fs.steg_create("core", UAK, ObjectKind::File)
        .expect("ladder");
    fs.write_hidden_with_key("core", UAK, &data)
        .expect("ladder");
    // The key-based lookup is priced once, as `core.open_us`; the 64 KiB
    // rows go through the open handle, which is the path `Vfs` takes too,
    // so the rungs above and below subtract cleanly.
    rows.push((
        "core.open_us",
        median_us(
            || fs.purge_read_caches(),
            || {
                black_box(fs.open_hidden("core", UAK).expect("ladder"));
            },
        ),
    ));
    let mut handle = fs.open_hidden("core", UAK).expect("ladder");
    rows.push((
        "core.write_64k_us",
        us(|| {
            fs.write_at_handle(&mut handle, 0, black_box(&data))
                .expect("ladder")
        }),
    ));
    let read_hidden = || {
        black_box(fs.read_range_at(&handle, 0, FILE_BYTES).expect("ladder"));
    };
    rows.push(("core.read_warm_64k_us", us(read_hidden)));
    rows.push((
        "core.read_cold_64k_us",
        median_us(|| fs.purge_read_caches(), read_hidden),
    ));
    assert_eq!(
        fs.read_range_at(&handle, 0, FILE_BYTES).expect("ladder"),
        data
    );

    let vfs = Vfs::new(fs);
    let session = vfs.signon(UAK);
    let handle = vfs
        .open(session, "/hidden/vfs", OpenOptions::read_write())
        .expect("ladder");
    rows.push((
        "vfs.write_64k_us",
        us(|| vfs.write_at(handle, 0, black_box(&data)).expect("ladder")),
    ));
    rows.push((
        "vfs.read_64k_us",
        us(|| {
            black_box(vfs.read_at(handle, 0, FILE_BYTES).expect("ladder"));
        }),
    ));
    assert_eq!(vfs.read_at(handle, 0, FILE_BYTES).expect("ladder"), data);
    vfs.signoff(session).expect("ladder");

    let engine = Engine::start(Arc::new(vfs), 1);
    let client = engine.client(UAK);
    let open = Request::Open {
        path: "/hidden/engine".into(),
        opts: OpenOptions::read_write(),
    };
    let Ok(Response::Handle(handle)) = client.call(open).result else {
        panic!("ladder: engine open failed");
    };
    rows.push((
        "engine.write_64k_us",
        us(|| {
            let request = Request::WriteAt {
                handle,
                offset: 0,
                data: data.clone(),
            };
            client.call(request).result.expect("ladder");
        }),
    ));
    rows.push((
        "engine.read_64k_us",
        us(|| {
            let request = Request::ReadAt {
                handle,
                offset: 0,
                len: FILE_BYTES,
            };
            black_box(client.call(request).result.expect("ladder"));
        }),
    ));
    client.signoff().expect("ladder");
    engine.shutdown();

    rows.extend(paper_ratios());
    rows
}

/// Figure 7 at 8 users on the simulator's virtual disk clock: exact, so a
/// change in any of them is a change in modelled behaviour, not noise.
fn paper_ratios() -> [(&'static str, f64); 3] {
    let rows = figure7(&WorkloadParams::scaled_quick(), &[8]).expect("simulator: figure 7");
    let of = |kind: SchemeKind| {
        let row = rows.iter().find(|r| r.scheme == kind);
        row.expect("figure 7 covers every scheme")
    };
    let (clean, cover, steg) = (
        of(SchemeKind::CleanDisk),
        of(SchemeKind::StegCover),
        of(SchemeKind::StegFs),
    );
    [
        (
            "sim.fig7_u8_read_stegfs_over_cleandisk",
            steg.read_s / clean.read_s,
        ),
        (
            "sim.fig7_u8_write_stegfs_over_cleandisk",
            steg.write_s / clean.write_s,
        ),
        (
            "sim.fig7_u8_read_stegcover_over_stegfs",
            cover.read_s / steg.read_s,
        ),
    ]
}
