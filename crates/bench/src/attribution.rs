//! Phase-attribution sweep: *where* does a request's latency go?
//!
//! The gating benchmark measures end-to-end percentiles; this sweep answers
//! the follow-up question by running a journaled multi-user workload — the
//! `engine_mixed_io` device shape (write-back cache over a 50 µs / 500 µs
//! latency device, checkpoint daemon on) with reads mixed in — with causal
//! span tracing active, and rolling each request type's span trees up into a
//! per-phase table: p50/p99 self-time and share-of-total for `queue_wait`,
//! `uak_shard`, `journal_stage`, `gate_flush`, `device_io`, `crypto`, and
//! the rest of [`stegfs_obs::PHASE_NAMES`].  Because phases record *self*
//! time (nested children subtracted), each op's phase totals partition its
//! measured wall time — the per-phase sums stay consistent with the
//! end-to-end totals by construction.
//!
//! `repro --attribution` prints the table; `repro --trace-export` replays
//! the same workload with the chrome-trace capture buffer active and writes
//! the resulting `chrome://tracing` / Perfetto JSON.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;
use stegfs_blockdev::{BufferCache, CacheMode, LatencyDevice, MemBlockDevice};
use stegfs_core::StegParams;
use stegfs_engine::{Client, Engine, Request, Response};
use stegfs_obs::{HistSummary, WatchdogSummary, ENGINE_OPS};
use stegfs_vfs::{OpenOptions, Vfs, VfsHandle};

/// Per-submission service time of the modelled disk.
const BLOCK_LATENCY: Duration = Duration::from_micros(50);

/// Per-barrier (flush) service time: the cache-flush + FUA cost a real disk
/// charges for durability.
const FLUSH_LATENCY: Duration = Duration::from_micros(500);

/// Size of each write (bytes).
const WRITE_SIZE: usize = 4 * 1024;

/// Size of each prefilled file (bytes).
const FILE_SIZE: usize = 16 * 1024;

/// The device stack under test.
pub type SweepDevice = BufferCache<LatencyDevice<MemBlockDevice>>;

/// One request type's attribution table.
#[derive(Debug, Clone)]
pub struct OpRow {
    /// [`ENGINE_OPS`] name.
    pub op: &'static str,
    /// End-to-end (submit → completion) latency summary of the pass.
    pub e2e: HistSummary,
    /// Sum of every phase's total self-time for this op (ns).
    pub phase_total_ns: u64,
    /// Every phase's self-time summary across the pass's requests of this
    /// type, in [`stegfs_obs::PHASE_NAMES`] order (fixed shape).
    pub phases: Vec<(&'static str, HistSummary)>,
}

/// Result of [`run`]: one row per exercised request type, plus the stall
/// watchdog's view of the pass.
pub struct AttributionRun {
    /// Submitting clients.
    pub clients: usize,
    /// Engine workers.
    pub workers: usize,
    /// Rows for ops that completed at least one request, [`ENGINE_OPS`]
    /// order.
    pub ops: Vec<OpRow>,
    /// Watchdog gauges covering the measured pass.
    pub watchdog: WatchdogSummary,
}

fn params() -> StegParams {
    StegParams {
        random_fill: false,
        dummy_file_count: 0,
        journal_blocks: 1024,
        checkpoint_daemon: true,
        ..StegParams::for_tests()
    }
}

/// A client's plain and hidden file.
fn paths(client: usize) -> [String; 2] {
    [
        format!("/plain/attr-{client}.dat"),
        format!("/hidden/attr-{client}"),
    ]
}

fn build_volume(clients: usize) -> Arc<Vfs<SweepDevice>> {
    let disk = LatencyDevice::symmetric(MemBlockDevice::with_capacity_mb(1024, 48), BLOCK_LATENCY)
        .with_flush_latency(FLUSH_LATENCY);
    let dev = BufferCache::with_mode(disk, 4096, CacheMode::WriteBack);
    let vfs = Vfs::format(dev, params()).expect("format");
    for c in 0..clients {
        let s = vfs.signon("attribution key");
        for path in paths(c) {
            let h = vfs
                .open(s, &path, OpenOptions::read_write().create(true))
                .expect("create");
            vfs.write_at(h, 0, &vec![0x5au8; FILE_SIZE])
                .expect("prefill");
            vfs.close(h).expect("close");
        }
        vfs.signoff(s).expect("signoff");
    }
    vfs.sync().expect("initial checkpoint");
    Arc::new(vfs)
}

fn open_through_engine(client: &Client<SweepDevice>, path: &str) -> VfsHandle {
    match client
        .call(Request::Open {
            path: path.into(),
            opts: OpenOptions::read_write(),
        })
        .result
        .expect("engine open")
    {
        Response::Handle(h) => h,
        other => panic!("open returned {other:?}"),
    }
}

/// One pass in the paper's per-access model: every iteration is a whole
/// file access — open, one 4 KiB I/O, close — alternating between the
/// client's plain and hidden file.  Hidden opens resolve the UAK directory
/// under the uak shard locks (the convoy the attribution table exists to
/// expose); writes are journaled in-place patches except every eighth,
/// which appends past end-of-file so the allocator's claim path shows up
/// too.  3 writes : 1 read, so the journaled write path dominates.
///
/// With `signoff = false` the sessions are left signed on — sign-off
/// zeroizes the slow-request and chrome-trace captures (deniability
/// contract), so the trace exporter must read them out first.
fn one_pass(engine: &Engine<SweepDevice>, clients: usize, ops_per_client: usize, signoff: bool) {
    let barrier = &Barrier::new(clients);
    thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let client = engine.client("attribution key");
                let paths = paths(c);
                barrier.wait();
                let mut appends = 0u64;
                for op in 0..ops_per_client {
                    let h = open_through_engine(&client, &paths[op % 2]);
                    let in_place = ((op % (FILE_SIZE / WRITE_SIZE)) * WRITE_SIZE) as u64;
                    if op % 4 == 3 {
                        let completion = client.call(Request::ReadAt {
                            handle: h,
                            offset: in_place,
                            len: WRITE_SIZE,
                        });
                        match completion.result.expect("read") {
                            Response::Data(d) => assert_eq!(d.len(), WRITE_SIZE),
                            other => panic!("unexpected {other:?}"),
                        }
                    } else {
                        let offset = if op % 8 == 1 {
                            // Extending write: allocation + rewrite path.
                            appends += 1;
                            FILE_SIZE as u64 + appends * WRITE_SIZE as u64
                        } else {
                            in_place
                        };
                        let completion = client.call(Request::WriteAt {
                            handle: h,
                            offset,
                            data: vec![(c * 31 + op) as u8; WRITE_SIZE],
                        });
                        match completion.result.expect("write") {
                            Response::Written(n) => assert_eq!(n, WRITE_SIZE),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    client.call(Request::Close { handle: h });
                }
                if signoff {
                    client.signoff().expect("signoff");
                }
            });
        }
    });
}

/// Run the attribution pass: build the journaled volume, warm up, reset the
/// registry, run the measured pass, and roll the per-(op, phase) self-time
/// histograms up into [`OpRow`]s.
pub fn run(clients: usize, ops_per_client: usize, workers: usize) -> AttributionRun {
    let vfs = build_volume(clients);
    let engine = Engine::start(vfs, workers);
    one_pass(&engine, clients, ops_per_client / 4 + 1, true);
    let obs = Arc::clone(engine.vfs().obs());
    obs.reset();
    one_pass(&engine, clients, ops_per_client, true);
    // Give the checkpoint daemon at least one tick inside the window so the
    // watchdog's sample counters cover the measured pass.
    thread::sleep(Duration::from_millis(60));
    let snapshot = obs.snapshot();
    let attribution = obs.attribution.summary();
    engine.shutdown();

    let mut ops = Vec::new();
    for (i, name) in ENGINE_OPS.iter().enumerate() {
        let e2e = snapshot.engine.latency.get(i).copied().unwrap_or_default();
        if e2e.count == 0 {
            continue;
        }
        let phases = attribution
            .op(name)
            .expect("fixed-shape attribution")
            .phases
            .clone();
        ops.push(OpRow {
            op: name,
            e2e,
            phase_total_ns: phases.iter().map(|(_, s)| s.total).sum(),
            phases,
        });
    }
    AttributionRun {
        clients,
        workers,
        ops,
        watchdog: snapshot.watchdog,
    }
}

/// Run a short traced pass with the chrome-trace capture buffer active and
/// return the `chrome://tracing` JSON (plus how many events overflowed the
/// buffer).
pub fn trace_export(
    clients: usize,
    ops_per_client: usize,
    workers: usize,
    capacity: usize,
) -> (String, u64) {
    let vfs = build_volume(clients);
    let engine = Engine::start(vfs, workers);
    let obs = Arc::clone(engine.vfs().obs());
    obs.capture.begin(capacity);
    // No signoff: signing off would zeroize the capture before `take`.
    one_pass(&engine, clients, ops_per_client, false);
    let (events, dropped) = obs.capture.take();
    engine.shutdown();
    (stegfs_obs::chrome_trace_json(&events), dropped)
}

/// Render the run as text tables, one per request type.
pub fn render(run: &AttributionRun) -> String {
    let mut s = format!(
        "Phase attribution ({} clients, {} workers, journaled write-back volume)\n",
        run.clients, run.workers
    );
    for op in &run.ops {
        s.push_str(&format!(
            "\n{}  ({} reqs, e2e p50 {:.3} ms, p99 {:.3} ms)\n\
             phase            count     p50(us)     p99(us)   total(ms)   share\n",
            op.op,
            op.e2e.count,
            op.e2e.p50 as f64 / 1e6,
            op.e2e.p99 as f64 / 1e6,
        ));
        for (phase, summary) in op.phases.iter().filter(|(_, s)| s.count > 0) {
            s.push_str(&format!(
                "{:<14} {:>7} {:>11.1} {:>11.1} {:>11.2} {:>6.1}%\n",
                phase,
                summary.count,
                summary.p50 as f64 / 1e3,
                summary.p99 as f64 / 1e3,
                summary.total as f64 / 1e6,
                summary.total as f64 * 100.0 / op.phase_total_ns.max(1) as f64
            ));
        }
    }
    s.push_str(&format!(
        "\nwatchdog: ring occupancy {}‰ (hwm {}‰), {} samples ({} stalled), {} steals\n",
        run.watchdog.ring_occupancy_permille,
        run.watchdog.ring_occupancy_hwm_permille,
        run.watchdog.samples,
        run.watchdog.stall_samples,
        run.watchdog.checkpoint_steals
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(op: &OpRow, name: &str) -> HistSummary {
        let found = op.phases.iter().find(|(phase, _)| *phase == name);
        found.expect("fixed phase set").1
    }

    #[test]
    fn tiny_run_attributes_hidden_write_phases() {
        let run = run(2, 16, 2);
        let write = run
            .ops
            .iter()
            .find(|o| o.op == "write_at")
            .expect("write_at exercised");
        assert!(write.e2e.count > 0);
        // The journaled write path must attribute across the named phases.
        for required in ["queue_wait", "journal_stage", "gate_flush", "device_io"] {
            assert!(
                phase(write, required).count > 0,
                "phase {required} unpopulated on the write path"
            );
        }
        let populated = write.phases.iter().filter(|(_, s)| s.count > 0).count();
        assert!(populated >= 6, "only {populated} phases populated");
        // Hidden opens resolve the UAK directory under the uak shard locks.
        let open = run
            .ops
            .iter()
            .find(|o| o.op == "open")
            .expect("open exercised");
        assert!(
            phase(open, "uak_shard").count > 0,
            "uak_shard unpopulated on the open path"
        );
        // Self-time partitions wall time: on every exercised op row the
        // phase sums cannot exceed the end-to-end total, and every populated
        // cell is a well-formed distribution.
        for op in &run.ops {
            let name = op.op;
            assert!(op.e2e.count > 0 && op.e2e.p50 > 0, "{name}: empty e2e");
            assert!(op.e2e.p50 <= op.e2e.p99, "{name}: e2e p99 < p50");
            assert!(
                op.phase_total_ns <= op.e2e.total,
                "{name}: phase self-times exceed end-to-end wall time"
            );
            for (phase, s) in op.phases.iter().filter(|(_, s)| s.count > 0) {
                assert!(s.p50 <= s.p99, "{name}/{phase}: p99 < p50");
            }
        }
        assert!(write.phase_total_ns > 0);
        // Sign-off purged the warm-up's keys, so the measured pass derives
        // each client's hidden-object keys afresh on its first open.
        let derive = phase(open, "key_derive");
        assert!(derive.count > 0, "key_derive unpopulated on the open path");
        assert!(derive.p50 > 0, "key_derive recorded zero-length spans");
        assert!(run.watchdog.samples > 0, "daemon must sample the watchdog");
    }

    #[test]
    fn trace_export_is_chrome_trace_shaped() {
        let (json, _dropped) = trace_export(2, 4, 2, 4096);
        let body = json
            .strip_prefix("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")
            .and_then(|rest| rest.strip_suffix("]}"))
            .expect("trace-event envelope");
        // Every event closes its `args` object and itself, so "}}" ends one.
        let (mut requests, mut phases) = (0, 0);
        for ev in body.split_inclusive("}}") {
            for field in ["{\"name\": \"", "\"ph\": \"X\"", "\"tid\": "] {
                assert!(ev.contains(field), "no {field} in {ev}");
            }
            if ev.contains("\"cat\": \"request\"") {
                requests += 1;
            } else {
                assert!(ev.contains("\"cat\": \"phase\""), "unknown cat in {ev}");
                phases += 1;
            }
            let dur = ev.split("\"dur\": ").nth(1).expect("dur field");
            let dur: f64 = dur.split(',').next().unwrap().parse().expect("numeric dur");
            assert!(dur >= 0.0, "negative dur in {ev}");
        }
        assert!(
            requests > 0 && phases > 0,
            "{requests} requests, {phases} phases"
        );
    }

    #[test]
    fn phase_names_cover_the_required_set() {
        for required in ["uak_shard", "journal_stage", "gate_flush", "device_io"] {
            assert!(stegfs_obs::PHASE_NAMES.contains(&required));
        }
    }
}
