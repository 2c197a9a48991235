//! # stegfs-engine
//!
//! A thread-pool request engine in front of [`stegfs_vfs::Vfs`] — the role
//! the paper's kernel driver plays for its multi-user server experiments
//! (§5.3/§5.4): any number of clients submit file-system requests, a pool
//! of threads executes them against one shared volume, and every request
//! comes back as a completion carrying its own latency.
//!
//! The whole stack below is shared-reference (`&self` end to end since the
//! core redesign), so the engine holds exactly one `Arc<Vfs>` and nothing
//! else global.
//!
//! ## Workers are slots, not threads
//!
//! `Engine::start(vfs, workers)` bounds how many requests **execute outside
//! the journal's group-commit gate** at once.  A request that reaches the
//! gate (a journaled write's commit point, `Fsync`, `SyncAll`) spends a
//! whole device flush there doing no work, so the thread carrying it gives
//! its slot back to the queue for the duration: a parked thread, or a spare
//! started on demand, runs the next queued request meanwhile.  Leaving the
//! gate takes the slot back **without waiting** — the waiter may hold
//! file-system locks — so the pool can briefly run more than `workers`
//! requests; the surplus threads park as they finish.  The gate reports
//! visits through [`stegfs_obs::blocking`], a thread-local hook only pool
//! threads install.
//!
//! Admission is bounded: at `workers *` [`IN_FLIGHT_PER_WORKER`] accepted,
//! uncompleted requests, [`Client::submit`] returns an error at once, the
//! same error for `/plain` and `/hidden` requests.  Since every pool thread
//! beyond the slots carries one such request, the bound caps the pool too.
//!
//! ## Request/completion lifecycle
//!
//! 1. [`Engine::client`] signs a User Access Key on and returns a
//!    [`Client`] — the engine-side analogue of a connection.  A wrong key is
//!    *not* an error (there is nothing to validate against — that absence is
//!    the hiding property); the client simply sees an empty `/hidden`.
//! 2. [`Client::submit`] stamps the request with a per-client
//!    [`RequestId`] and a submission time, and pushes it onto the engine's
//!    shared queue.  Submission never blocks on I/O.
//! 3. A pool thread with a free slot pops the job, executes it against the
//!    `Vfs` (this is where all file-system locking and block I/O happens),
//!    and pushes a [`Completion`] — result, queue-to-completion latency, and
//!    pure service time — onto the submitting client's completion queue.
//! 4. [`Client::recv`] / [`Client::try_recv`] / [`Client::wait_for`] drain
//!    completions; [`Client::call`] is the blocking submit-and-wait
//!    convenience.  Completions of *different* requests may arrive out of
//!    submission order (that is the point of a pool).
//!
//! [`Engine::shutdown`] (and `Drop`) stops accepting submissions, lets the
//! pool **drain the queue**, then joins every thread — every accepted
//! request is completed, so a client that receives one completion per
//! submission can never hang.  A request that *panics* mid-execution poisons the engine:
//! its unwind may have left volume invariants half-mutated, so no further
//! request **begins executing** against the volume — queued work drains as
//! error completions and new submissions are refused.  Requests already
//! running on sibling threads at the moment of the panic do finish (there
//! is no cooperative cancellation); poisoning bounds the exposure to that
//! in-flight window.  Fail-stop, not limp-on.
//!
//! ## Lock order
//!
//! The engine's two locks — the **pool lock** (job queue plus slot
//! bookkeeping) and each client's **completion queue lock** — sit in the
//! table in [`stegfs_obs::lock`], with the gate hook's exception, and
//! neither is held across file-system work: a thread executing a request
//! holds *no* engine lock.  Handles are capabilities: they are valid
//! engine-wide, and a client is expected to use the ones its own session
//! opened (exactly like file descriptors handed across a process boundary).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod request;

pub use engine::{Client, Engine, IN_FLIGHT_PER_WORKER};
pub use request::{Completion, Request, RequestId, Response};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use stegfs_blockdev::{
        BlockDevice, BufferCache, Dir, FaultDevice, LatencyDevice, MemBlockDevice, ParkAt, Trigger,
    };
    use stegfs_core::StegParams;
    use stegfs_vfs::{OpenOptions, Vfs, VfsError, VfsHandle};

    fn small_engine(workers: usize) -> Engine<MemBlockDevice> {
        let vfs = Vfs::format(MemBlockDevice::new(1024, 8192), StegParams::for_tests()).unwrap();
        Engine::start(Arc::new(vfs), workers)
    }

    fn opened<D: BlockDevice + Send + Sync + 'static>(c: &Client<D>, path: &str) -> VfsHandle {
        match c
            .call(Request::Open {
                path: path.into(),
                opts: OpenOptions::read_write(),
            })
            .result
            .unwrap()
        {
            Response::Handle(h) => h,
            other => panic!("expected a handle, got {other:?}"),
        }
    }

    #[test]
    fn full_request_surface_roundtrips() {
        let engine = small_engine(3);
        let client = engine.client("alice key");

        let h = opened(&client, "/hidden/budget");
        let w = client.call(Request::WriteAt {
            handle: h,
            offset: 0,
            data: b"the real numbers".to_vec(),
        });
        assert!(matches!(w.result, Ok(Response::Written(16))));
        assert!(w.latency >= w.service);

        // Streaming read + seek through the engine.
        let seeked = client.call(Request::Seek {
            handle: h,
            pos: std::io::SeekFrom::Start(4),
        });
        assert!(matches!(seeked.result, Ok(Response::Offset(4))));
        let data = client.call(Request::Read { handle: h, len: 4 });
        match data.result.unwrap() {
            Response::Data(d) => assert_eq!(d, b"real"),
            other => panic!("unexpected {other:?}"),
        }

        let st = client.call(Request::Stat {
            path: "/hidden/budget".into(),
        });
        match st.result.unwrap() {
            Response::Stat(s) => assert_eq!(s.size, 16),
            other => panic!("unexpected {other:?}"),
        }
        let dir = client.call(Request::Readdir {
            path: "/hidden".into(),
        });
        match dir.result.unwrap() {
            Response::Listing(entries) => assert_eq!(entries.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            client.call(Request::Close { handle: h }).result,
            Ok(Response::Unit)
        ));
        assert!(matches!(
            client
                .call(Request::Unlink {
                    path: "/hidden/budget".into(),
                })
                .result,
            Ok(Response::Unit)
        ));
        // Errors come back as completions in the same deniable family.
        let gone = client.call(Request::Stat {
            path: "/hidden/budget".into(),
        });
        assert!(gone.result.unwrap_err().is_not_found());
        engine.shutdown();
    }

    #[test]
    fn pipelined_submissions_complete_out_of_order_but_fully() {
        let engine = small_engine(4);
        let client = engine.client("k");
        let h = opened(&client, "/plain/data");
        client
            .call(Request::WriteAt {
                handle: h,
                offset: 0,
                data: vec![7u8; 4096],
            })
            .result
            .unwrap();

        let ids: Vec<RequestId> = (0..32)
            .map(|i| {
                client
                    .submit(Request::ReadAt {
                        handle: h,
                        offset: (i % 4) * 1024,
                        len: 1024,
                    })
                    .unwrap()
            })
            .collect();
        for id in &ids {
            let c = client.wait_for(*id);
            assert_eq!(c.id, *id);
            match c.result.unwrap() {
                Response::Data(d) => assert_eq!(d, vec![7u8; 1024]),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(engine.completed(), 32 + 2);
        assert!(client.try_recv().is_none(), "nothing left over");
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let engine = small_engine(1);
        let client = engine.client("k");
        let h = opened(&client, "/plain/f");
        let mut expected = Vec::new();
        for i in 0..8u64 {
            expected.push(
                client
                    .submit(Request::WriteAt {
                        handle: h,
                        offset: 0,
                        data: vec![i as u8; 512],
                    })
                    .unwrap(),
            );
        }
        engine.shutdown();
        // Every accepted request completed, in *some* order.
        let mut got: Vec<RequestId> = (0..8).map(|_| client.recv().id).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        // New submissions are refused once the engine is gone.
        assert!(client.submit(Request::Stat { path: "/".into() }).is_err());
    }

    #[test]
    fn per_request_latency_is_recorded() {
        let engine = small_engine(2);
        let client = engine.client("k");
        let c = client.call(Request::Readdir { path: "/".into() });
        assert!(c.result.is_ok());
        assert!(c.latency >= c.service);
        assert!(c.latency < Duration::from_secs(5));
        engine.shutdown();
    }

    // ------------------------------------------------------------------
    // Slots, spares and admission
    // ------------------------------------------------------------------

    /// The top of the test stacks: a fault device, so a test can panic or
    /// park the reads that reach the volume's device.
    type Stack = FaultDevice<BufferCache<LatencyDevice<MemBlockDevice>>>;

    /// The next read submission.
    fn next_read() -> Trigger {
        Trigger::when(|op| op.dir == Dir::Read)
    }

    /// A journaled write-back volume whose device flush sleeps `flush`
    /// (formatted without the sleep, then remounted with it), and a handle
    /// to its top device.
    fn journaled(flush: Duration) -> (Arc<Vfs<Stack>>, Stack) {
        let params = StegParams {
            dummy_file_count: 0,
            journal_blocks: 256,
            ..StegParams::for_tests()
        };
        let stack = |mem: MemBlockDevice, flush: Duration| {
            BufferCache::new_write_back(
                LatencyDevice::new(mem, Duration::ZERO, Duration::ZERO).with_flush_latency(flush),
                256,
            )
        };
        let formatted = stack(MemBlockDevice::new(1024, 8192), Duration::ZERO);
        let vfs = Vfs::format(formatted, params.clone()).unwrap();
        let mem = vfs.unmount().unwrap().into_inner().into_inner();
        let dev = FaultDevice::new(stack(mem, flush));
        (Arc::new(Vfs::mount(dev.clone(), params).unwrap()), dev)
    }

    fn write_at(handle: VfsHandle, fill: u8) -> Request {
        Request::WriteAt {
            handle,
            offset: 0,
            data: vec![fill; 4096],
        }
    }

    fn read_at(handle: VfsHandle) -> Request {
        Request::ReadAt {
            handle,
            offset: 0,
            len: 4096,
        }
    }

    #[test]
    fn a_read_behind_a_write_overtakes_its_flush() {
        let (vfs, _) = journaled(Duration::from_millis(50));
        let engine = Engine::start(vfs, 1);
        let client = engine.client("k");
        let (a, b) = (opened(&client, "/plain/a"), opened(&client, "/plain/b"));
        client.call(write_at(b, 2)).result.unwrap();

        let write = client.submit(write_at(a, 1)).unwrap();
        let read = client.submit(read_at(b)).unwrap();
        // One slot: the read can finish first only if the write handed the
        // slot back while it waited out its 50 ms flush.
        let first = client.recv();
        assert_eq!(first.id, read);
        assert!(matches!(first.result, Ok(Response::Data(d)) if d == vec![2; 4096]));
        let second = client.recv();
        assert_eq!(second.id, write);
        assert!(matches!(second.result, Ok(Response::Written(4096))));
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_every_request_while_spares_run() {
        let (vfs, _) = journaled(Duration::from_millis(50));
        let engine = Engine::start(Arc::clone(&vfs), 1);
        let client = engine.client("k");
        let files: Vec<VfsHandle> = (0..4)
            .map(|i| opened(&client, &format!("/plain/f{i}")))
            .collect();
        let mut ids = Vec::new();
        for (i, &h) in files.iter().enumerate() {
            ids.push(client.submit(write_at(h, i as u8 + 1)).unwrap());
            ids.push(client.submit(read_at(files[(i + 1) % 4])).unwrap());
        }
        engine.shutdown();

        let done: Vec<Completion> = ids.iter().map(|_| client.recv()).collect();
        assert!(done.iter().all(|c| c.result.is_ok()));
        assert_eq!(
            done[0].id, ids[1],
            "the first read overtook the first write"
        );
        let mut got: Vec<RequestId> = done.iter().map(|c| c.id).collect();
        got.sort_unstable();
        assert_eq!(got, ids);
        drop(client);
        assert_eq!(Arc::strong_count(&vfs), 1, "every pool thread was joined");
    }

    #[test]
    fn a_panicking_request_poisons_the_engine_and_leaves_no_thread() {
        let (vfs, dev) = journaled(Duration::from_millis(50));
        let engine = Engine::start(Arc::clone(&vfs), 1);
        let client = engine.client("k");
        let (a, b) = (opened(&client, "/plain/a"), opened(&client, "/plain/b"));
        client.call(write_at(b, 2)).result.unwrap();

        let flushes = dev.flushes();
        let write = client.submit(write_at(a, 1)).unwrap();
        // Once the write is in its flush, the read runs on a spare thread
        // and panics there.
        let start = Instant::now();
        while dev.flushes() == flushes {
            assert!(start.elapsed() < Duration::from_secs(10), "timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
        dev.panic(next_read());
        let read = client.submit(read_at(b)).unwrap();
        match client.wait_for(read).result {
            Err(VfsError::Unsupported(m)) => assert_eq!(m, "request panicked"),
            other => panic!("expected the panic's completion, got {other:?}"),
        }
        assert!(client.submit(read_at(b)).is_err(), "poisoned");
        assert!(client.wait_for(write).result.is_ok(), "already running");

        drop(client);
        engine.shutdown();
        assert_eq!(Arc::strong_count(&vfs), 1, "every pool thread was joined");
    }

    #[test]
    fn a_full_engine_refuses_at_once_and_alike_for_both_namespaces() {
        // A client keeping 8 requests in flight on one slot is never refused.
        const { assert!(IN_FLIGHT_PER_WORKER > 8) };
        let (vfs, dev) = journaled(Duration::ZERO);
        let engine = Engine::start(vfs, 1);
        let client = engine.client("k");
        let a = opened(&client, "/plain/a");
        client.call(write_at(a, 7)).result.unwrap();

        // The only slot parks on a device read, outside the commit gate, so
        // everything after it queues.
        let park = dev.park(next_read(), ParkAt::Before);
        let mut accepted = vec![client.submit(read_at(a)).unwrap()];
        park.wait();
        let refused = loop {
            match client.submit(Request::Stat {
                path: "/plain/a".into(),
            }) {
                Ok(id) => accepted.push(id),
                Err(e) => break e,
            }
        };
        assert_eq!(accepted.len(), IN_FLIGHT_PER_WORKER);
        for path in ["/hidden/secret", "/plain/a"] {
            let start = Instant::now();
            let again = client.submit(Request::Stat { path: path.into() });
            assert!(start.elapsed() < Duration::from_secs(1), "did not wait");
            let again = again.expect_err("still full");
            assert!(matches!(again, VfsError::Unsupported(_)));
            assert_eq!(again.to_string(), refused.to_string(), "{path}");
        }

        park.release();
        for id in accepted {
            assert!(client.wait_for(id).result.is_ok());
        }
        assert!(client.call(read_at(a)).result.is_ok(), "admits again");
        engine.shutdown();
    }
}
