//! The engine proper: the shared job queue, the thread pool and its slots,
//! and the per-client completion queues.

use crate::request::{Completion, Request, RequestId, Response};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use stegfs_blockdev::BlockDevice;
use stegfs_obs::blocking::{self, BlockingHook};
use stegfs_obs::lock::{Condvar, Mutex, MutexGuard};
use stegfs_obs::{span, Obs, ENGINE_OPS};
use stegfs_vfs::{SessionId, Vfs, VfsError, VfsResult};

/// Accepted-but-uncompleted requests the engine admits per worker slot;
/// beyond `workers * IN_FLIGHT_PER_WORKER` a submission is refused.  Every
/// such request may hold a thread (parked in the commit gate), so this also
/// bounds the pool.
pub const IN_FLIGHT_PER_WORKER: usize = 64;

/// One queued unit of work.
struct Job {
    client: Arc<ClientShared>,
    id: RequestId,
    session: SessionId,
    request: Request,
    submitted: Instant,
}

/// The queue and the pool's bookkeeping, under one lock.
struct Pool {
    jobs: VecDeque<Job>,
    /// Threads executing a request outside a blocking section — the slots
    /// `workers` bounds.  A thread leaving the commit gate takes its slot
    /// back without waiting, so this can exceed `workers` for a moment.
    running: usize,
    /// Threads parked on `job_ready`.
    idle: usize,
    /// Parked threads notified but not yet awake.
    notified: usize,
    /// Threads started but not yet at their first pick.
    starting: usize,
    /// Every thread started, joined at shutdown.
    threads: Vec<JoinHandle<()>>,
}

/// State shared between the engine handle, its threads and every client.
struct EngineShared {
    /// In the registry's `engine.queue` lock family.
    pool: Mutex<Pool>,
    job_ready: Condvar,
    /// Requests allowed to execute at once outside the commit gate.
    workers: usize,
    /// Accepted requests not yet completed (queued, executing or in the gate).
    in_flight: AtomicUsize,
    shutting_down: AtomicBool,
    /// Set when a request panicked mid-execution.  A panic can unwind out of
    /// a core critical section with the protected state half-mutated, and
    /// the next holder of its lock gets in regardless (the poison rule of
    /// [`stegfs_obs::lock`]), so the engine **fails stop**: no further
    /// request touches the volume — queued and future work drains as error
    /// completions, and nobody hangs.
    poisoned: AtomicBool,
    completed: AtomicU64,
    /// The volume's observability registry (queue-lock contention, queue
    /// depth, per-op latency).  Grabbed from the VFS at engine start.
    obs: Arc<Obs>,
}

/// Start one pool thread; it counts as `starting` until its first pick.
/// Caller holds the pool lock, so the handle is recorded before shutdown
/// can look for it.
fn spawn_thread<D: BlockDevice + Send + Sync + 'static>(
    vfs: &Arc<Vfs<D>>,
    shared: &Arc<EngineShared>,
    pool: &mut Pool,
) -> std::io::Result<()> {
    let tid = pool.threads.len() as u32;
    let (vfs, shared) = (Arc::clone(vfs), Arc::clone(shared));
    let handle = std::thread::Builder::new().spawn(move || worker_loop(&vfs, &shared, tid))?;
    pool.starting += 1;
    pool.threads.push(handle);
    Ok(())
}

/// Called with the pool lock after a job was queued or a slot freed by a
/// thread that will not pick the next job itself: if a queued job could run
/// now and no thread is already on its way to it, wake a parked thread, or
/// start one when none is parked.  The wake-up is sent after the lock is
/// released, so the woken thread does not block on it straight away.
fn dispatch<D: BlockDevice + Send + Sync + 'static>(
    vfs: &Arc<Vfs<D>>,
    shared: &Arc<EngineShared>,
    mut pool: MutexGuard<'_, Pool>,
) {
    let runnable = pool
        .jobs
        .len()
        .min(shared.workers.saturating_sub(pool.running));
    if runnable <= pool.notified + pool.starting {
        return;
    }
    if pool.idle > pool.notified {
        pool.notified += 1;
        drop(pool);
        shared.job_ready.notify_one();
    } else {
        // On failure the job stays queued for the next thread that frees
        // a slot.
        let _ = spawn_thread(vfs, shared, &mut pool);
    }
}

/// Installed on every pool thread: a request that parks in the journal's
/// commit gate hands its slot to the queue, and takes it back on the way out
/// without waiting (a gate waiter may hold file-system locks).
struct GateSlot<D: BlockDevice + Send + Sync + 'static> {
    vfs: Arc<Vfs<D>>,
    shared: Arc<EngineShared>,
}

impl<D: BlockDevice + Send + Sync + 'static> BlockingHook for GateSlot<D> {
    fn enter(&self) {
        let mut pool = self.shared.pool.lock();
        pool.running -= 1;
        dispatch(&self.vfs, &self.shared, pool);
    }

    fn leave(&self) {
        self.shared.pool.lock().running += 1;
    }
}

/// Index of a request in [`ENGINE_OPS`] (one latency histogram per op type).
fn op_index(request: &Request) -> usize {
    match request {
        Request::Open { .. } => 0,
        Request::Close { .. } => 1,
        Request::Read { .. } => 2,
        Request::ReadAt { .. } => 3,
        Request::Write { .. } => 4,
        Request::WriteAt { .. } => 5,
        Request::Seek { .. } => 6,
        Request::Stat { .. } => 7,
        Request::Readdir { .. } => 8,
        Request::Unlink { .. } => 9,
        Request::Fsync { .. } => 10,
        Request::SyncAll => 11,
    }
}

/// A client's completion queue.
struct ClientShared {
    completions: Mutex<VecDeque<Completion>>,
    ready: Condvar,
}

/// The thread-pool request engine.  See the crate docs for the lifecycle.
///
/// Holds one `Arc<Vfs>` and a pool of threads of which at most `workers`
/// execute requests outside the commit gate at once; dropping the engine
/// (or calling [`Engine::shutdown`]) refuses further submissions, drains
/// the queue, and joins every thread.
pub struct Engine<D: BlockDevice + Send + Sync + 'static> {
    vfs: Arc<Vfs<D>>,
    shared: Arc<EngineShared>,
}

impl<D: BlockDevice + Send + Sync + 'static> Engine<D> {
    /// Start a pool with `workers` slots over the shared volume.
    ///
    /// # Panics
    /// Panics if `workers` is zero (nothing would ever complete), or if the
    /// first `workers` threads cannot be started.
    pub fn start(vfs: Arc<Vfs<D>>, workers: usize) -> Self {
        assert!(workers > 0, "an engine needs at least one worker");
        let shared = Arc::new(EngineShared {
            pool: Mutex::with_stats(
                Pool {
                    jobs: VecDeque::new(),
                    running: 0,
                    idle: 0,
                    notified: 0,
                    starting: 0,
                    threads: Vec::new(),
                },
                Arc::clone(&vfs.obs().engine_queue),
            ),
            job_ready: Condvar::new(),
            workers,
            in_flight: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            obs: Arc::clone(vfs.obs()),
        });
        {
            let mut pool = shared.pool.lock();
            for _ in 0..workers {
                spawn_thread(&vfs, &shared, &mut pool).expect("start an engine worker");
            }
        }
        Engine { vfs, shared }
    }

    /// The served volume (e.g. for direct administrative access).
    pub fn vfs(&self) -> &Arc<Vfs<D>> {
        &self.vfs
    }

    /// Number of worker slots: requests that may execute at once outside the
    /// commit gate.
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// Total number of requests completed so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Sign a User Access Key on and return a client connection.
    /// Deliberately infallible, like [`Vfs::signon`] — a wrong key yields a
    /// client whose `/hidden` is empty, indistinguishable from a right key
    /// with nothing hidden.
    pub fn client(&self, uak: &str) -> Client<D> {
        Client {
            vfs: Arc::clone(&self.vfs),
            engine: Arc::clone(&self.shared),
            shared: Arc::new(ClientShared {
                completions: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            }),
            session: self.vfs.signon(uak),
            next_id: AtomicU64::new(0),
        }
    }

    /// Stop accepting submissions, complete everything already accepted, and
    /// join the pool.  `Drop` does the same, so letting the engine fall out
    /// of scope is equivalent.
    pub fn shutdown(self) {
        // Drop runs the teardown.
    }

    fn stop_and_join(&mut self) {
        {
            // Flip the flag under the pool lock so it serialises against
            // in-flight `submit` calls (see `Client::submit`).
            let _pool = self.shared.pool.lock();
            self.shared.shutting_down.store(true, Ordering::Release);
        }
        self.shared.job_ready.notify_all();
        // A thread may start another while draining; it records the handle
        // under the pool lock before it exits, so the next pass finds it.
        loop {
            let threads = std::mem::take(&mut self.shared.pool.lock().threads);
            if threads.is_empty() {
                break;
            }
            for t in threads {
                let _ = t.join();
            }
        }
    }
}

impl<D: BlockDevice + Send + Sync + 'static> Drop for Engine<D> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A client connection: one signed-on session plus a private completion
/// queue.  Shareable across threads (`submit`/`recv` take `&self`); a
/// multi-threaded client sees each completion exactly once.
pub struct Client<D: BlockDevice + Send + Sync + 'static> {
    vfs: Arc<Vfs<D>>,
    engine: Arc<EngineShared>,
    shared: Arc<ClientShared>,
    session: SessionId,
    next_id: AtomicU64,
}

impl<D: BlockDevice + Send + Sync + 'static> Client<D> {
    /// The session this client's `/hidden` paths resolve against.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Enqueue a request; returns its id immediately.  Fails, without
    /// waiting, when the engine is shutting down or poisoned, or when it
    /// already holds `workers *` [`IN_FLIGHT_PER_WORKER`] uncompleted
    /// requests — whatever the request or its namespace.  Accepted work is
    /// always completed.
    pub fn submit(&self, request: Request) -> VfsResult<RequestId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Job {
            client: Arc::clone(&self.shared),
            id,
            session: self.session,
            request,
            submitted: Instant::now(),
        };
        // The shutdown check and the push share one pool-lock hold (and
        // shutdown flips the flag under the same lock): a job accepted here
        // is therefore always visible to a still-running thread — it can
        // never slip into a queue whose pool has already drained and exited.
        let engine = &self.engine;
        let mut pool = engine.pool.lock();
        if engine.shutting_down.load(Ordering::Acquire) {
            return Err(VfsError::Unsupported("engine is shut down".into()));
        }
        if engine.poisoned.load(Ordering::Acquire) {
            return Err(VfsError::Unsupported(
                "engine poisoned by an earlier panicking request".into(),
            ));
        }
        // Only submissions raise the count, all under this lock, so the
        // check cannot be overtaken.
        if engine.in_flight.load(Ordering::Relaxed) >= engine.workers * IN_FLIGHT_PER_WORKER {
            return Err(VfsError::Unsupported("engine queue is full".into()));
        }
        engine.in_flight.fetch_add(1, Ordering::Relaxed);
        pool.jobs.push_back(job);
        engine.obs.engine.note_queue_depth(pool.jobs.len() as u64);
        dispatch(&self.vfs, engine, pool);
        Ok(id)
    }

    /// Block until any completion is available and return it (oldest first).
    pub fn recv(&self) -> Completion {
        let mut q = self.shared.completions.lock();
        loop {
            if let Some(c) = q.pop_front() {
                return c;
            }
            q = self.shared.ready.wait(q);
        }
    }

    /// Return a completion if one is already available.
    pub fn try_recv(&self) -> Option<Completion> {
        self.shared.completions.lock().pop_front()
    }

    /// Block until the completion of request `id` arrives, buffering (and
    /// preserving) completions of other requests.
    pub fn wait_for(&self, id: RequestId) -> Completion {
        let mut q = self.shared.completions.lock();
        loop {
            if let Some(pos) = q.iter().position(|c| c.id == id) {
                return q.remove(pos).expect("position is valid");
            }
            q = self.shared.ready.wait(q);
        }
    }

    /// Submit and wait: the blocking convenience for depth-1 clients.
    ///
    /// # Panics
    /// Panics if the engine refused the submission (see [`Client::submit`]).
    pub fn call(&self, request: Request) -> Completion {
        let id = self.submit(request).expect("engine refused the request");
        self.wait_for(id)
    }

    /// Number of completions currently waiting to be received.
    pub fn pending_completions(&self) -> usize {
        self.shared.completions.lock().len()
    }

    /// Sign the session off, closing every handle it still holds.  Dropping
    /// the client without calling this leaves the session alive (another
    /// client of the same engine could still use its handles).
    pub fn signoff(self) -> VfsResult<()> {
        self.vfs.signoff(self.session)
    }
}

/// Pool thread body: take a job when a slot is free, execute, complete;
/// exit once shut down *and* drained.  `tid` is the thread's start index,
/// used as the `tid` of captured trace events.
fn worker_loop<D: BlockDevice + Send + Sync + 'static>(
    vfs: &Arc<Vfs<D>>,
    shared: &Arc<EngineShared>,
    tid: u32,
) {
    let _hook = blocking::install(Box::new(GateSlot {
        vfs: Arc::clone(vfs),
        shared: Arc::clone(shared),
    }));
    let mut pool = shared.pool.lock();
    pool.starting -= 1;
    loop {
        let job = loop {
            if pool.running < shared.workers {
                if let Some(job) = pool.jobs.pop_front() {
                    pool.running += 1;
                    if pool.jobs.is_empty() && shared.shutting_down.load(Ordering::Acquire) {
                        // Threads parked for a slot can now exit.
                        shared.job_ready.notify_all();
                    }
                    break job;
                }
            }
            if pool.jobs.is_empty() && shared.shutting_down.load(Ordering::Acquire) {
                return;
            }
            pool.idle += 1;
            pool = shared.job_ready.wait(pool);
            pool.idle -= 1;
            pool.notified = pool.notified.saturating_sub(1);
        };
        // Execution holds no engine lock.
        drop(pool);
        run(vfs, shared, job, tid);
        pool = shared.pool.lock();
        pool.running -= 1;
    }
}

/// Execute one job and deliver its completion.
fn run<D: BlockDevice>(vfs: &Vfs<D>, shared: &EngineShared, job: Job, tid: u32) {
    let started = Instant::now();
    // A panicking request must not shrink the pool or strand its client:
    // catch the unwind, deliver an error completion, and *poison* the
    // engine.  The unwind may have left the shared volume's invariants
    // half-mutated (the poison rule of `stegfs_obs::lock` lets the next
    // holder in), so after the catch no request *begins executing* against
    // the volume — queued work drains as errors and new submissions are
    // refused.  Requests already
    // mid-execution on sibling threads do run to completion (there is no
    // cooperative cancellation), so poisoning bounds the exposure to the
    // in-flight window rather than eliminating it; the `AssertUnwindSafe` is
    // justified by that bound plus the error-only drain, not by any
    // stronger isolation.
    let request = job.request;
    let op = op_index(&request);
    let enabled = shared.obs.is_enabled();
    // Flat metrics follow `obs_enabled`; the causal span layer is
    // additionally gated on a non-zero trace capacity.
    let tracing = shared.obs.is_tracing();
    if tracing {
        // Admission: every span opened anywhere below (vfs, core, fs,
        // journal, blockdev) attaches to this request until request_end.
        span::request_begin(op);
        span::note(
            span::Phase::QueueWait,
            started.saturating_duration_since(job.submitted).as_nanos() as u64,
        );
    }
    let result = if shared.poisoned.load(Ordering::Acquire) {
        Err(VfsError::Unsupported(
            "engine poisoned by an earlier panicking request".into(),
        ))
    } else {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(vfs, job.session, request)
        }))
        .unwrap_or_else(|_| {
            shared.poisoned.store(true, Ordering::Release);
            Err(VfsError::Unsupported("request panicked".into()))
        })
    };
    let completion = Completion {
        id: job.id,
        result,
        latency: job.submitted.elapsed(),
        service: started.elapsed(),
    };
    if enabled {
        let service_ns = completion.service.as_nanos() as u64;
        shared
            .obs
            .engine
            .record_completion(op, completion.latency.as_nanos() as u64, service_ns);
        shared.obs.trace_span("engine", ENGINE_OPS[op], service_ns);
    }
    if tracing {
        // request_end force-closes anything a panicking request left open,
        // so the thread's context never leaks into the next job.
        if let Some(finished) = span::request_end() {
            shared
                .obs
                .complete_request(&finished, completion.latency.as_nanos() as u64, tid);
        }
    }
    // Count before delivering: a client that has received every one of its
    // completions must observe the full count, and may submit again.
    shared.completed.fetch_add(1, Ordering::Relaxed);
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    {
        job.client.completions.lock().push_back(completion);
    }
    job.client.ready.notify_all();
}

/// Dispatch one request against the volume.
fn execute<D: BlockDevice>(
    vfs: &Vfs<D>,
    session: SessionId,
    request: Request,
) -> VfsResult<Response> {
    match request {
        Request::Open { path, opts } => vfs.open(session, &path, opts).map(Response::Handle),
        Request::Close { handle } => vfs.close(handle).map(|()| Response::Unit),
        Request::Read { handle, len } => vfs.read(handle, len).map(Response::Data),
        Request::ReadAt {
            handle,
            offset,
            len,
        } => vfs.read_at(handle, offset, len).map(Response::Data),
        Request::Write { handle, data } => vfs
            .write(handle, &data)
            .map(|()| Response::Written(data.len())),
        Request::WriteAt {
            handle,
            offset,
            data,
        } => vfs
            .write_at(handle, offset, &data)
            .map(|()| Response::Written(data.len())),
        Request::Seek { handle, pos } => vfs.seek(handle, pos).map(Response::Offset),
        Request::Stat { path } => vfs.stat(session, &path).map(Response::Stat),
        Request::Readdir { path } => vfs.readdir(session, &path).map(Response::Listing),
        Request::Unlink { path } => vfs.unlink(session, &path).map(|()| Response::Unit),
        Request::Fsync { handle } => vfs.fsync(handle).map(|()| Response::Unit),
        Request::SyncAll => vfs.sync().map(|()| Response::Unit),
    }
}
