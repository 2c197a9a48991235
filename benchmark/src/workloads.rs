//! The six workloads: set-up, one measured window, and the verifier.
//!
//! Every workload runs a closed loop (a caller waits for its reply before
//! sending the next request, as the paper's users do) against a stack built
//! only from facade types: `Vfs`, `Engine`/`Client`/`Request`, `StegParams`
//! and the `BlockDevice` wrappers.

use crate::model::{Rng, Shadow, CHUNKS, CHUNK_BYTES, FILE_BYTES};
use crate::probe::{Dev, Probes, Tracer, BLOCK_SIZE};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stegfs_blockdev::MemBlockDevice;
use stegfs_core::{Policy, StegParams};
use stegfs_engine::{Client, Engine, Request, RequestId, Response};
use stegfs_vfs::{OpenOptions, SessionId, Vfs, VfsHandle};

/// Blocks in every benchmark volume: 128 MiB of 1 KiB blocks.
pub const VOLUME_BLOCKS: u64 = 128 * 1024;
/// Journal size on the journaled stacks, in blocks.
pub const JOURNAL_BLOCKS: u64 = 2048;
/// Engine worker threads of `engine_mixed_io`.
pub const ENGINE_WORKERS: usize = 4;
/// Generator threads of `engine_mixed_io` (the sandbox's core count).
pub const ENGINE_CLIENTS: usize = 2;
/// Requests each engine client keeps in flight.
pub const ENGINE_DEPTH: usize = 4;
/// Share of `engine_mixed_io` requests that are reads, in percent.
pub const ENGINE_READ_PCT: usize = 70;
/// The microsecond-scale workload fully compares one read in this many;
/// the others are checked by length and one word per chunk.
pub const WARM_FULL_CHECK_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HiddenReadWarm,
    HiddenReadCold,
    HiddenWriteJournaled,
    PlainRmw,
    HiddenCodedRw,
    EngineMixedIo,
}

/// How a workload's stack differs from the common shape (1 KiB blocks,
/// 128 MiB memory device, `StegParams::default()` without the random fill).
struct Shape {
    /// Files per client.
    files: usize,
    /// Of those, how many live under `/plain` (the rest under `/hidden`).
    plain_files: usize,
    /// Write-back `BufferCache` + journal, or the bare device.
    journaled: bool,
    readcache_blocks: usize,
    policy: Policy,
    clients: usize,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::HiddenReadWarm,
        Kind::HiddenReadCold,
        Kind::HiddenWriteJournaled,
        Kind::PlainRmw,
        Kind::HiddenCodedRw,
        Kind::EngineMixedIo,
    ];

    /// Position in [`crate::metrics::WORKLOADS`], which holds the name.
    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[Kind::ALL.iter().position(|k| *k == self).expect("listed")].0
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Exactly one client thread, so device counts repeat for a fixed seed.
    pub fn single_client(self) -> bool {
        self != Kind::EngineMixedIo
    }

    fn shape(self) -> Shape {
        let default_cache = StegParams::default().readpath_cache_blocks;
        let base = Shape {
            files: 64,
            plain_files: 0,
            journaled: false,
            readcache_blocks: default_cache,
            policy: Policy::Plain,
            clients: 1,
        };
        match self {
            // 16 x 64 blocks = 1 024 blocks, well inside the 4 096-block cache.
            Kind::HiddenReadWarm => Shape { files: 16, ..base },
            // 128 x 64 = 8 192 blocks against a 1 024-block cache.
            Kind::HiddenReadCold => Shape {
                files: 128,
                readcache_blocks: 1024,
                ..base
            },
            Kind::HiddenWriteJournaled => Shape {
                journaled: true,
                ..base
            },
            Kind::PlainRmw => Shape {
                plain_files: 64,
                journaled: true,
                ..base
            },
            // A 256-block read cache holds 4 of the 64 files, so nearly every
            // read reconstructs from shares; at the default size about half
            // would hit and the median latency would flip between two modes.
            Kind::HiddenCodedRw => Shape {
                policy: Policy::Disperse { m: 2, n: 3 },
                readcache_blocks: 256,
                ..base
            },
            // 2 x 64 x 64 = 8 192 blocks against 4 096-block caches.
            Kind::EngineMixedIo => Shape {
                plain_files: 32,
                journaled: true,
                clients: ENGINE_CLIENTS,
                ..base
            },
        }
    }

    fn params(self, seed: u64) -> StegParams {
        let shape = self.shape();
        StegParams {
            random_fill: false,
            volume_seed: seed,
            journal_blocks: if shape.journaled { JOURNAL_BLOCKS } else { 0 },
            readpath_cache_blocks: shape.readcache_blocks,
            hidden_policy: shape.policy,
            ..StegParams::default()
        }
    }
}

/// How long one window runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Time(Duration),
    /// Operations per client; what the exact-repeat self-tests use.
    Ops(u64),
}

impl Limit {
    fn reached(&self, start: Instant, done: u64) -> bool {
        match *self {
            Limit::Time(d) => start.elapsed() >= d,
            Limit::Ops(n) => done >= n,
        }
    }
}

/// What one window measured, before the harness adds CPU and device deltas.
#[derive(Default)]
pub struct WindowRaw {
    /// Wall time of every operation, in completion order.
    pub latencies_ns: Vec<u64>,
    pub failed: u64,
    pub wall: Duration,
}

/// Operations attempted and operations that failed or returned wrong bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

impl Verdict {
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One user's files and what they must contain.
struct FileSet {
    uak: String,
    paths: Vec<String>,
    shadow: Shadow,
    rng: Rng,
    /// User bytes handed to write calls since set-up.
    written_bytes: u64,
}

impl FileSet {
    fn new(seed: u64, client: usize, shape: &Shape) -> Self {
        let paths = (0..shape.files)
            .map(|i| {
                let space = if i < shape.plain_files {
                    "plain"
                } else {
                    "hidden"
                };
                format!("/{space}/c{client}-f{i}")
            })
            .collect();
        let stream = seed ^ ((client as u64 + 1) << 56);
        FileSet {
            uak: format!("benchmark access key {client}"),
            paths,
            shadow: Shadow::new(stream, shape.files),
            rng: Rng::new(stream),
            written_bytes: 0,
        }
    }

    /// The payload of the next write of one chunk, which the shadow model
    /// now expects to be there.
    fn next_chunk(&mut self, file: usize, chunk: usize, out: &mut [u8]) {
        self.shadow.next_chunk(file, chunk, out);
        self.written_bytes += out.len() as u64;
    }

    /// Create every file at version 0; returns the handles, still open.
    fn populate(&mut self, vfs: &Vfs<Dev>, session: SessionId) -> Vec<VfsHandle> {
        (0..self.paths.len())
            .map(|file| {
                let h = vfs
                    .open(session, &self.paths[file], OpenOptions::read_write())
                    .expect("set-up: create file");
                vfs.write_at(h, 0, self.shadow.expected(file))
                    .expect("set-up: write file");
                h
            })
            .collect()
    }

    /// Re-read every file in a fresh session and compare it in full.
    fn verify(&mut self, vfs: &Vfs<Dev>) -> Verdict {
        let mut verdict = Verdict::default();
        let session = vfs.signon(&self.uak);
        for file in 0..self.paths.len() {
            let read = vfs
                .open(session, &self.paths[file], OpenOptions::read_only())
                .and_then(|h| {
                    // One byte more than expected, so a file that grew fails.
                    let data = vfs.read_at(h, 0, FILE_BYTES + 1);
                    vfs.close(h).and(data)
                });
            verdict.count(read.is_ok_and(|data| self.shadow.matches(file, &data)));
        }
        verdict.count(vfs.signoff(session).is_ok());
        verdict
    }
}

struct Single {
    vfs: Vfs<Dev>,
    session: SessionId,
    /// Empty on `hidden_read_cold`, which opens per operation.
    handles: Vec<VfsHandle>,
    set: FileSet,
    payload: Vec<u8>,
    ops: u64,
}

struct EngineClient {
    client: Client<Dev>,
    handles: Vec<VfsHandle>,
    set: FileSet,
}

struct Served {
    engine: Engine<Dev>,
    clients: Vec<EngineClient>,
}

enum Side {
    Single(Box<Single>),
    Engine(Served),
}

/// A set-up workload, ready to run windows.
pub struct Bench {
    kind: Kind,
    seed: u64,
    tracer: Arc<Tracer>,
    side: Side,
    pub probes: Probes,
    /// Blocks the files took, times the block size, over their bytes.
    pub stored_bytes_per_user_byte: f64,
}

/// The flushed memory device of a finished workload plus what its files
/// must hold: the input of the remount half of the verifier.
pub struct Flushed {
    pub mem: MemBlockDevice,
    params: StegParams,
    sets: Vec<FileSet>,
}

fn allocated_blocks(vfs: &Vfs<Dev>) -> u64 {
    let report = vfs.space_report().expect("space report");
    report.total_blocks - report.free_blocks
}

impl Bench {
    /// Format a volume on a fresh memory device and create the files.
    pub fn setup(kind: Kind, seed: u64, tracer: &Arc<Tracer>) -> Bench {
        let shape = kind.shape();
        let mem = MemBlockDevice::new(BLOCK_SIZE, VOLUME_BLOCKS);
        let (dev, mut probes) = Dev::build(mem, shape.journaled, false, tracer);
        let vfs = Vfs::format(dev, kind.params(seed)).expect("set-up: format");
        let formatted = allocated_blocks(&vfs);

        let mut sets: Vec<FileSet> = (0..shape.clients)
            .map(|c| FileSet::new(seed, c, &shape))
            .collect();
        let mut opened = Vec::new();
        for set in &mut sets {
            let session = vfs.signon(&set.uak);
            opened.push((session, set.populate(&vfs, session)));
        }
        let user_bytes = (shape.clients * shape.files * FILE_BYTES) as f64;
        let stored_bytes_per_user_byte =
            (allocated_blocks(&vfs) - formatted) as f64 * BLOCK_SIZE as f64 / user_bytes;

        let side = if kind == Kind::EngineMixedIo {
            // Populating under the latency model would only lengthen set-up;
            // flush, then serve the same bytes from the priced device.
            for (session, _) in opened {
                vfs.signoff(session).expect("set-up: signoff");
            }
            let mem = vfs.unmount().expect("set-up: unmount").into_mem();
            let (dev, priced) = Dev::build(mem, true, true, tracer);
            probes = priced;
            let vfs = Vfs::mount(dev, kind.params(seed)).expect("set-up: mount");
            let engine = Engine::start(Arc::new(vfs), ENGINE_WORKERS);
            let clients = sets
                .into_iter()
                .map(|set| {
                    let client = engine.client(&set.uak);
                    let handles = set
                        .paths
                        .iter()
                        .map(|path| {
                            let request = Request::Open {
                                path: path.clone(),
                                opts: OpenOptions::read_write(),
                            };
                            match client.call(request).result {
                                Ok(Response::Handle(h)) => h,
                                other => panic!("set-up: engine open gave {other:?}"),
                            }
                        })
                        .collect();
                    EngineClient {
                        client,
                        handles,
                        set,
                    }
                })
                .collect();
            Side::Engine(Served { engine, clients })
        } else {
            let (session, mut handles) = opened.pop().expect("one client");
            if kind == Kind::HiddenReadCold {
                for h in handles.drain(..) {
                    vfs.close(h).expect("set-up: close");
                }
            }
            Side::Single(Box::new(Single {
                vfs,
                session,
                handles,
                set: sets.pop().expect("one client"),
                payload: vec![0; FILE_BYTES],
                ops: 0,
            }))
        };
        Bench {
            kind,
            seed,
            tracer: Arc::clone(tracer),
            side,
            probes,
            stored_bytes_per_user_byte,
        }
    }

    /// The served volume, for the harness to read layer counters from.
    pub fn vfs(&self) -> &Vfs<Dev> {
        match &self.side {
            Side::Single(single) => &single.vfs,
            Side::Engine(served) => served.engine.vfs(),
        }
    }

    /// User bytes the workload has handed to write calls since set-up.
    pub fn user_bytes_written(&self) -> u64 {
        match &self.side {
            Side::Single(single) => single.set.written_bytes,
            Side::Engine(served) => served.clients.iter().map(|c| c.set.written_bytes).sum(),
        }
    }

    /// Run one window of closed-loop operations.
    pub fn window(&mut self, limit: Limit) -> WindowRaw {
        match &mut self.side {
            Side::Single(single) => single.window(self.kind, &self.tracer, limit),
            Side::Engine(served) => served.window(&self.tracer, limit),
        }
    }

    /// First half of the verifier: re-read every file from a fresh session
    /// of the live volume, then unmount so the device holds what was flushed.
    pub fn verify_live(self) -> (Verdict, Flushed) {
        let mut verdict = Verdict::default();
        let (vfs, mut sets) = match self.side {
            Side::Single(single) => {
                let Single {
                    vfs, session, set, ..
                } = *single;
                verdict.count(vfs.signoff(session).is_ok());
                (vfs, vec![set])
            }
            Side::Engine(Served { engine, clients }) => {
                let vfs = Arc::clone(engine.vfs());
                let mut sets = Vec::new();
                for EngineClient { client, set, .. } in clients {
                    verdict.count(client.signoff().is_ok());
                    sets.push(set);
                }
                engine.shutdown();
                let vfs = Arc::try_unwrap(vfs)
                    .unwrap_or_else(|_| panic!("the engine and its clients are gone"));
                (vfs, sets)
            }
        };
        for set in &mut sets {
            verdict.add(set.verify(&vfs));
        }
        let mem = vfs.unmount().expect("verify: unmount").into_mem();
        let flushed = Flushed {
            mem,
            params: self.kind.params(self.seed),
            sets,
        };
        (verdict, flushed)
    }

    /// Both halves of the verifier.
    pub fn verify(self) -> Verdict {
        let (mut verdict, flushed) = self.verify_live();
        verdict.add(flushed.verify());
        verdict
    }
}

impl Flushed {
    /// Second half of the verifier: mount the bare memory device (no cache
    /// left to hide an unflushed write) and re-read every file.
    pub fn verify(mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let (dev, _) = Dev::build(self.mem, false, false, &Tracer::new());
        match Vfs::mount(dev, self.params) {
            Ok(vfs) => {
                for set in &mut self.sets {
                    verdict.add(set.verify(&vfs));
                }
            }
            Err(_) => verdict.count(false),
        }
        verdict
    }
}

impl Single {
    fn window(&mut self, kind: Kind, tracer: &Tracer, limit: Limit) -> WindowRaw {
        let mut raw = WindowRaw::default();
        let start = Instant::now();
        while !limit.reached(start, raw.latencies_ns.len() as u64) {
            let (ns, ok) = self.op(kind, tracer);
            raw.latencies_ns.push(ns);
            raw.failed += u64::from(!ok);
        }
        tracer.end_op();
        raw.wall = start.elapsed();
        raw
    }

    /// One operation: choose inputs, time the calls into the stack with one
    /// `Instant` pair, then check the outputs (outside the timed interval).
    fn op(&mut self, kind: Kind, tracer: &Tracer) -> (u64, bool) {
        let Single {
            vfs,
            session,
            handles,
            set,
            payload,
            ops,
        } = self;
        *ops += 1;
        let files = set.paths.len();
        let file = set.rng.below(files);
        tracer.begin_op();
        match kind {
            Kind::HiddenReadWarm => {
                let h = handles[file];
                let start = Instant::now();
                let data = tracer.span("vfs.read_at", || vfs.read_at(h, 0, FILE_BYTES));
                let ns = start.elapsed().as_nanos() as u64;
                let ok = data.is_ok_and(|data| {
                    if *ops % WARM_FULL_CHECK_EVERY == 0 {
                        set.shadow.matches(file, &data)
                    } else {
                        set.shadow.matches_sampled(file, &data)
                    }
                });
                (ns, ok)
            }
            Kind::HiddenReadCold => {
                let path = &set.paths[file];
                let start = Instant::now();
                let data = tracer
                    .span("vfs.open", || {
                        vfs.open(*session, path, OpenOptions::read_only())
                    })
                    .and_then(|h| {
                        let data = tracer.span("vfs.read_at", || vfs.read_at(h, 0, FILE_BYTES));
                        tracer.span("vfs.close", || vfs.close(h)).and(data)
                    });
                let ns = start.elapsed().as_nanos() as u64;
                (ns, data.is_ok_and(|data| set.shadow.matches(file, &data)))
            }
            Kind::HiddenWriteJournaled => {
                let chunk = set.rng.below(CHUNKS);
                let part = &mut payload[..CHUNK_BYTES];
                set.next_chunk(file, chunk, part);
                let (h, offset) = (handles[file], (chunk * CHUNK_BYTES) as u64);
                let start = Instant::now();
                let wrote = tracer.span("vfs.write_at", || vfs.write_at(h, offset, part));
                (start.elapsed().as_nanos() as u64, wrote.is_ok())
            }
            Kind::PlainRmw => {
                let chunk = set.rng.below(CHUNKS);
                // The read must still see the version before this write.
                let before = set.shadow.expected(file).to_vec();
                let part = &mut payload[..CHUNK_BYTES];
                set.next_chunk(file, chunk, part);
                let (h, offset) = (handles[file], (chunk * CHUNK_BYTES) as u64);
                let start = Instant::now();
                let data = tracer.span("vfs.read_at", || vfs.read_at(h, 0, FILE_BYTES));
                let wrote = tracer.span("vfs.write_at", || vfs.write_at(h, offset, part));
                let ns = start.elapsed().as_nanos() as u64;
                (ns, wrote.is_ok() && data.is_ok_and(|data| data == before))
            }
            Kind::HiddenCodedRw => {
                let other = set.rng.below(files);
                for (chunk, part) in payload.chunks_exact_mut(CHUNK_BYTES).enumerate() {
                    set.next_chunk(file, chunk, part);
                }
                let (rewritten, read) = (handles[file], handles[other]);
                let start = Instant::now();
                let wrote = tracer.span("vfs.write_at", || vfs.write_at(rewritten, 0, payload));
                let data = tracer.span("vfs.read_at", || vfs.read_at(read, 0, FILE_BYTES));
                let ns = start.elapsed().as_nanos() as u64;
                let ok = wrote.is_ok() && data.is_ok_and(|data| set.shadow.matches(other, &data));
                (ns, ok)
            }
            Kind::EngineMixedIo => unreachable!("engine_mixed_io runs in Served::window"),
        }
    }
}

/// A request in flight: what was asked, and when.
struct Pending {
    id: RequestId,
    file: usize,
    write: bool,
    submitted: Instant,
}

impl Served {
    /// Every client runs its own closed loop on its own thread; the window
    /// ends when each has drained what it had in flight.
    fn window(&mut self, tracer: &Tracer, limit: Limit) -> WindowRaw {
        let start = Instant::now();
        let per_client: Vec<WindowRaw> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| scope.spawn(move || c.window(tracer, limit, start)))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("engine client thread"))
                .collect()
        });
        let mut raw = WindowRaw {
            wall: start.elapsed(),
            ..WindowRaw::default()
        };
        for part in per_client {
            raw.latencies_ns.extend(part.latencies_ns);
            raw.failed += part.failed;
        }
        raw
    }
}

impl EngineClient {
    fn window(&mut self, tracer: &Tracer, limit: Limit, start: Instant) -> WindowRaw {
        let mut raw = WindowRaw::default();
        let mut inflight: Vec<Pending> = Vec::with_capacity(ENGINE_DEPTH);
        let mut submitted = 0;
        loop {
            while inflight.len() < ENGINE_DEPTH && !limit.reached(start, submitted) {
                inflight.push(self.submit(&inflight));
                submitted += 1;
            }
            if inflight.is_empty() {
                break;
            }
            let done = self.client.recv();
            let received = Instant::now();
            let slot = inflight
                .iter()
                .position(|p| p.id == done.id)
                .expect("a completion answers a pending request");
            let pending = inflight.swap_remove(slot);
            let ok = match done.result {
                Ok(Response::Data(data)) => {
                    !pending.write && self.set.shadow.matches(pending.file, &data)
                }
                Ok(Response::Written(n)) => pending.write && n == CHUNK_BYTES,
                _ => false,
            };
            raw.failed += u64::from(!ok);
            raw.latencies_ns
                .push((received - pending.submitted).as_nanos() as u64);
            if tracer.is_on() {
                let op = tracer.new_op();
                let queued = pending.submitted + done.latency.saturating_sub(done.service);
                tracer.record("engine.submit_recv", op, pending.submitted, received);
                tracer.record("engine.queue_wait", op, pending.submitted, queued);
                tracer.record("engine.service", op, queued, queued + done.service);
            }
        }
        raw.wall = start.elapsed();
        raw
    }

    /// Submit the next request, on a file with nothing else in flight so
    /// the shadow model knows what every read must return.
    fn submit(&mut self, inflight: &[Pending]) -> Pending {
        let set = &mut self.set;
        let file = loop {
            let file = set.rng.below(set.paths.len());
            if inflight.iter().all(|p| p.file != file) {
                break file;
            }
        };
        let handle = self.handles[file];
        let write = set.rng.below(100) >= ENGINE_READ_PCT;
        let request = if write {
            let chunk = set.rng.below(CHUNKS);
            let mut data = vec![0; CHUNK_BYTES];
            set.next_chunk(file, chunk, &mut data);
            Request::WriteAt {
                handle,
                offset: (chunk * CHUNK_BYTES) as u64,
                data,
            }
        } else {
            Request::ReadAt {
                handle,
                offset: 0,
                len: FILE_BYTES,
            }
        };
        let submitted = Instant::now();
        let id = self.client.submit(request).expect("the engine is running");
        Pending {
            id,
            file,
            write,
            submitted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::BlockDevice;

    #[test]
    fn workload_names_resolve() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("no_such_workload"), None);
    }

    /// The verifier must be able to fail: flip one bit in one block of the
    /// flushed device and the remount pass has to notice.
    #[test]
    fn corrupting_one_device_block_fails_verification() {
        let mut bench = Bench::setup(Kind::PlainRmw, 11, &Tracer::new());
        assert_eq!(bench.window(Limit::Ops(8)).failed, 0);
        let (live, mut flushed) = bench.verify_live();
        assert_eq!(live.failed, 0);

        // Plain files are stored verbatim, so the block holding the start
        // of file 0 is the one that begins with its first bytes.
        let head = flushed.sets[0].shadow.expected(0)[..BLOCK_SIZE].to_vec();
        let mut block = vec![0u8; BLOCK_SIZE];
        let holder = (0..VOLUME_BLOCKS).find(|b| {
            flushed.mem.read_block(*b, &mut block).expect("in range");
            block == head
        });
        let holder = holder.expect("file 0 is on the flushed device");
        block[100] ^= 0x01;
        flushed.mem.write_block(holder, &block).expect("in range");

        let verdict = flushed.verify();
        assert!(verdict.failed > 0, "a corrupted block went unnoticed");
        assert!(
            verdict.failed < verdict.attempted,
            "only one file is damaged"
        );
    }
}
