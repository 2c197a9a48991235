//! Runs one workload: set-up, warm-up, measured windows, verification, and
//! the arithmetic that turns windows into the named metrics.
//!
//! Noise on a shared host only ever slows a window down, so the clean value
//! of a timing sits at its fast end: throughput is the best window, latency
//! and CPU are the lower-quartile window (the second fastest of eight; the
//! very fastest would inherit the 10 ms granularity of the CPU clock).

use crate::host;
use crate::ladder;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probe::{CounterSnap, Span, Tracer};
use crate::workloads::{Bench, Kind, Limit, Verdict};
use std::time::{Duration, Instant};
use stegfs_core::CacheStats;

/// Measured windows per run: the fewest the issue allows, so that all the
/// gate's runs fit its time cap.
pub const WINDOWS: usize = 8;
/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// A run whose best window beats its median window by more than this is
/// marked noisy: the host, not the code, moved the numbers.
pub const NOISY_SPREAD: f64 = 1.5;

/// How much of everything one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub windows: usize,
    pub window: Limit,
    pub warmup: Limit,
    pub setups: usize,
}

impl Plan {
    /// Measure for `seconds` in total.
    pub fn timed(seconds: f64) -> Plan {
        let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
        Plan {
            windows: WINDOWS,
            window: Limit::Time(window),
            warmup: Limit::Time(window / 2),
            setups: SETUPS,
        }
    }

    /// One short window: checks that everything runs, measures nothing.
    pub fn smoke() -> Plan {
        Plan {
            windows: 1,
            window: Limit::Time(Duration::from_millis(200)),
            warmup: Limit::Time(Duration::from_millis(50)),
            setups: 1,
        }
    }

    /// A fixed number of operations per client and window (`--ops`): with
    /// one client, the device counts then repeat exactly for a seed.
    pub fn fixed_ops(ops: u64) -> Plan {
        Plan {
            windows: 2,
            window: Limit::Ops(ops),
            warmup: Limit::Ops(ops.div_ceil(2)),
            setups: 1,
        }
    }
}

/// One measured window with the host and device deltas around it.
struct Window {
    latencies_ns: Vec<u64>,
    /// Median of `latencies_ns`.
    p50_us: f64,
    failed: u64,
    wall_s: f64,
    cpu_us: f64,
    steal_ticks: u64,
    machine_ticks: u64,
    disk: CounterSnap,
    top: CounterSnap,
    traced: bool,
}

impl Window {
    fn ops(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }
}

fn measure(bench: &mut Bench, limit: Limit, traced: bool) -> Window {
    let (disk, top) = (bench.probes.disk.snap(), bench.probes.top.snap());
    let (steal, machine) = host::machine_ticks();
    let cpu = host::process_cpu_us();
    let mut raw = bench.window(limit);
    let cpu_us = host::process_cpu_us() - cpu;
    let (steal_after, machine_after) = host::machine_ticks();
    Window {
        // Reorders the samples, which nothing later depends on.
        p50_us: host::percentile(&mut raw.latencies_ns, 0.5) as f64 / 1000.0,
        failed: raw.failed,
        wall_s: raw.wall.as_secs_f64(),
        latencies_ns: raw.latencies_ns,
        cpu_us,
        steal_ticks: steal_after - steal,
        machine_ticks: machine_after - machine,
        disk: bench.probes.disk.snap().minus(&disk),
        top: bench.probes.top.snap().minus(&top),
        traced,
    }
}

/// Totals and order statistics over a set of windows.
struct Summary {
    ops: u64,
    failed: u64,
    best_ops_per_s: f64,
    window_spread: f64,
    p50_us: f64,
    cpu_us_per_op: f64,
    steal_frac: f64,
    disk: CounterSnap,
    top: CounterSnap,
}

fn per(count: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        count as f64 / ops as f64
    }
}

fn summarize<'a>(windows: impl Iterator<Item = &'a Window> + Clone) -> Summary {
    let rates: Vec<f64> = windows.clone().map(Window::ops_per_s).collect();
    let medians: Vec<f64> = windows.clone().map(|w| w.p50_us).collect();
    let cpu: Vec<f64> = windows
        .clone()
        .map(|w| w.cpu_us / w.ops().max(1) as f64)
        .collect();
    let best = rates.iter().copied().fold(0.0, f64::max);
    let mut total = Summary {
        ops: 0,
        failed: 0,
        best_ops_per_s: best,
        window_spread: best / host::median(&rates).max(f64::MIN_POSITIVE),
        p50_us: host::low_quartile(&medians),
        cpu_us_per_op: host::low_quartile(&cpu),
        steal_frac: 0.0,
        disk: CounterSnap::default(),
        top: CounterSnap::default(),
    };
    let (mut steal, mut machine) = (0, 0);
    for w in windows {
        total.ops += w.ops();
        total.failed += w.failed;
        total.disk = total.disk.plus(&w.disk);
        total.top = total.top.plus(&w.top);
        steal += w.steal_ticks;
        machine += w.machine_ticks;
    }
    total.steal_frac = per(steal, machine);
    total
}

/// The outcome of one run of one workload.
pub struct Report {
    pub kind: Kind,
    pub seed: u64,
    /// Metric values in table order: [`END_TO_END`] for an end-to-end run,
    /// [`PER_LAYER`] for a traced one.
    pub values: Vec<(&'static str, f64)>,
    pub verdict: Verdict,
    /// Operation latencies behind every percentile reported.
    pub samples: u64,
    pub windows: usize,
    pub window_spread: f64,
    pub steal_frac: f64,
    /// Spans of a traced run, for the span file.
    pub spans: Vec<Span>,
}

impl Report {
    pub fn noisy(&self) -> bool {
        self.window_spread > NOISY_SPREAD
    }

    pub fn failed_frac(&self) -> f64 {
        per(self.verdict.failed, self.verdict.attempted)
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> f64 {
        let found = self.values.iter().find(|(n, _)| *n == name);
        found.unwrap_or_else(|| panic!("no metric {name}")).1
    }
}

/// The end-to-end run: tracing off, one `Instant` pair per operation.
pub fn run_end_to_end(kind: Kind, seed: u64, plan: Plan) -> Report {
    let tracer = Tracer::new();
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..plan.setups {
        // Drop the previous volume first, or peak memory would count two.
        drop(bench.take());
        let start = Instant::now();
        bench = Some(Bench::setup(kind, seed, &tracer));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let stored = bench.stored_bytes_per_user_byte;

    measure(&mut bench, plan.warmup, false);
    let windows: Vec<Window> = (0..plan.windows)
        .map(|_| measure(&mut bench, plan.window, false))
        .collect();
    let total = summarize(windows.iter());
    let mut verdict = Verdict {
        attempted: total.ops,
        failed: total.failed,
    };
    verdict.add(bench.verify());

    let values = [
        total.best_ops_per_s,
        total.p50_us,
        total.cpu_us_per_op,
        1.0 + per(total.disk.blocks(), total.ops),
        1.0 + per(total.disk.submissions(), total.ops),
        1.0 + per(total.disk.flushes, total.ops),
        stored,
        host::median(&setup_s),
        host::peak_rss_mb(),
    ];
    Report {
        kind,
        seed,
        values: END_TO_END.iter().map(|m| m.name).zip(values).collect(),
        verdict,
        samples: total.ops,
        windows: windows.len(),
        window_spread: total.window_spread,
        steal_frac: total.steal_frac,
        spans: Vec::new(),
    }
}

/// Counters the layers keep themselves, read through the facade.
struct LayerCounters {
    cache: CacheStats,
    uak_wait_ns: u64,
    object_wait_ns: u64,
    alloc_wait_ns: u64,
}

impl LayerCounters {
    fn read(bench: &Bench) -> Self {
        let vfs = bench.vfs();
        let locks = vfs.obs().snapshot();
        // String-keyed on purpose: a renamed lock family reads as 0, it
        // does not break the build.
        let wait = |name: &str| locks.lock(name).map_or(0, |l| l.wait.total);
        LayerCounters {
            cache: vfs.cache_stats(),
            uak_wait_ns: wait("core.uak_shards"),
            object_wait_ns: wait("core.object_shards"),
            alloc_wait_ns: wait("fs.alloc"),
        }
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    per(hits, hits + misses)
}

fn p50_us(spans: &[Span], name: &str) -> f64 {
    let mut durations: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect();
    host::percentile(&mut durations, 0.5) as f64 / 1000.0
}

/// The traced run: windows alternate tracing off and on, so the two halves
/// see the same host conditions and their throughput gap is the tracing
/// overhead.  Followed by the layer ladder.
pub fn run_traced(kind: Kind, seed: u64, plan: Plan) -> Report {
    let tracer = Tracer::new();
    let mut bench = Bench::setup(kind, seed, &tracer);
    measure(&mut bench, plan.warmup, false);

    let before = LayerCounters::read(&bench);
    let written_before = bench.user_bytes_written();
    let cached_stack = bench.probes.cached();
    let mut windows = Vec::new();
    // At least one window of each kind, even for the one-window smoke plan.
    for i in 0..plan.windows.max(2) {
        let traced = i % 2 == 1;
        tracer.set_on(traced);
        windows.push(measure(&mut bench, plan.window, traced));
    }
    tracer.set_on(false);
    let after = LayerCounters::read(&bench);
    let spans = tracer.drain();

    let all = summarize(windows.iter());
    let plain = summarize(windows.iter().filter(|w| !w.traced));
    let traced = summarize(windows.iter().filter(|w| w.traced));
    let mut traced_latencies: Vec<u64> = windows
        .iter()
        .filter(|w| w.traced)
        .flat_map(|w| w.latencies_ns.iter().copied())
        .collect();
    let traced_wall_ns: u64 = traced_latencies.iter().sum();
    let attributed_ns: u64 = spans
        .iter()
        // The two engine phases lie inside their submit_recv span.
        .filter(|s| s.parent == 0 && s.op != 0)
        .filter(|s| !matches!(s.name, "engine.queue_wait" | "engine.service"))
        .map(Span::duration_ns)
        .sum();
    let op_p99_us = host::percentile(&mut traced_latencies, 0.99) as f64 / 1000.0;
    let user_blocks_written =
        (bench.user_bytes_written() - written_before) / crate::probe::BLOCK_SIZE as u64;

    let mut verdict = Verdict {
        attempted: all.ops,
        failed: all.failed,
    };
    verdict.add(bench.verify());

    let us_per_op = |ns: u64| per(ns, all.ops) / 1000.0;
    let (c0, c1) = (&before.cache, &after.cache);
    let single = kind.single_client();
    let mut values: Vec<(&'static str, f64)> = vec![
        (
            "blockdev.read_blocks_per_op",
            per(all.disk.read_blocks, all.ops),
        ),
        (
            "blockdev.write_blocks_per_op",
            per(all.disk.write_blocks, all.ops),
        ),
        (
            "blockdev.read_submissions_per_op",
            per(all.disk.read_submissions, all.ops),
        ),
        (
            "blockdev.write_submissions_per_op",
            per(all.disk.write_submissions, all.ops),
        ),
        (
            "blockdev.batch_blocks_mean",
            per(all.disk.blocks(), all.disk.submissions()),
        ),
        (
            "blockdev.nonsequential_frac",
            per(all.disk.nonsequential_blocks, all.disk.blocks()),
        ),
        (
            "blockdev.buffercache_hit_rate",
            if cached_stack && all.top.read_blocks > 0 {
                1.0 - per(all.disk.read_blocks, all.top.read_blocks)
            } else {
                0.0
            },
        ),
        (
            "blockdev.device_self_us_per_op",
            per(traced.disk.busy_ns, traced.ops) / 1000.0,
        ),
        (
            "core.readcache_header_hit_rate",
            rate(
                c1.header_hits - c0.header_hits,
                c1.header_misses - c0.header_misses,
            ),
        ),
        (
            "core.readcache_extent_hit_rate",
            rate(
                c1.extent_hits - c0.extent_hits,
                c1.extent_misses - c0.extent_misses,
            ),
        ),
        (
            "core.readcache_block_hit_rate",
            rate(
                c1.block_hits - c0.block_hits,
                c1.block_misses - c0.block_misses,
            ),
        ),
        (
            "core.readcache_evictions_per_op",
            per(c1.evictions - c0.evictions, all.ops),
        ),
        (
            "core.uak_shards_wait_us_per_op",
            us_per_op(after.uak_wait_ns - before.uak_wait_ns),
        ),
        (
            "core.object_shards_wait_us_per_op",
            us_per_op(after.object_wait_ns - before.object_wait_ns),
        ),
        (
            "fs.alloc_wait_us_per_op",
            us_per_op(after.alloc_wait_ns - before.alloc_wait_ns),
        ),
        ("journal.flushes_per_op", per(all.disk.flushes, all.ops)),
        (
            "journal.write_amplification",
            per(all.disk.write_blocks, user_blocks_written),
        ),
        ("vfs.open_us_p50", p50_us(&spans, "vfs.open")),
        ("vfs.read_at_us_p50", p50_us(&spans, "vfs.read_at")),
        ("vfs.write_at_us_p50", p50_us(&spans, "vfs.write_at")),
        ("vfs.close_us_p50", p50_us(&spans, "vfs.close")),
        ("vfs.op_us_p99", if single { op_p99_us } else { 0.0 }),
        (
            "engine.queue_wait_us_p50",
            p50_us(&spans, "engine.queue_wait"),
        ),
        ("engine.service_us_p50", p50_us(&spans, "engine.service")),
        ("engine.op_us_p99", if single { 0.0 } else { op_p99_us }),
        (
            "bench.trace_overhead_frac",
            1.0 - traced.best_ops_per_s / plain.best_ops_per_s,
        ),
        (
            "bench.unattributed_frac",
            1.0 - per(attributed_ns, traced_wall_ns),
        ),
        ("bench.steal_frac", all.steal_frac),
        ("bench.window_spread", all.window_spread),
        ("bench.latency_samples", traced.ops as f64),
        ("bench.windows", windows.len() as f64),
        ("bench.spans", spans.len() as f64),
    ];
    values.extend(ladder::run(seed));
    // Table order, and proof that every listed metric was produced.
    let values = PER_LAYER
        .iter()
        .map(|m| {
            let found = values.iter().find(|(name, _)| *name == m.name);
            *found.unwrap_or_else(|| panic!("the traced run did not produce {}", m.name))
        })
        .collect();
    Report {
        kind,
        seed,
        values,
        verdict,
        samples: traced.ops,
        windows: windows.len(),
        window_spread: all.window_spread,
        steal_frac: all.steal_frac,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With one client and a fixed operation count nothing in a run depends
    /// on time, so what reaches the device must repeat to the block.
    #[test]
    fn single_client_device_counts_repeat_exactly() {
        let exact = [
            "dev_blocks_per_op_plus1",
            "dev_submissions_per_op_plus1",
            "dev_flushes_per_op_plus1",
            "stored_bytes_per_user_byte",
        ];
        let ops = |kind| match kind {
            Kind::HiddenReadWarm => 400,
            Kind::HiddenCodedRw => 12,
            _ => 80,
        };
        for kind in Kind::ALL.into_iter().filter(|k| k.single_client()) {
            let first = run_end_to_end(kind, 7, Plan::fixed_ops(ops(kind)));
            let second = run_end_to_end(kind, 7, Plan::fixed_ops(ops(kind)));
            assert_eq!(first.verdict.failed, 0, "{}", kind.name());
            assert_eq!(first.samples, 2 * ops(kind));
            for name in exact {
                assert_eq!(
                    first.value(name),
                    second.value(name),
                    "{name} on {}",
                    kind.name()
                );
            }
            let other_seed = run_end_to_end(kind, 8, Plan::fixed_ops(ops(kind)));
            assert_eq!(other_seed.verdict.failed, 0, "{} seed 8", kind.name());
        }
    }

    #[test]
    fn engine_workload_verifies_and_reports_every_metric() {
        let report = run_end_to_end(Kind::EngineMixedIo, 3, Plan::smoke());
        assert_eq!(report.verdict.failed, 0);
        assert!(report.verdict.attempted > report.samples, "verifier ran");
        assert_eq!(report.values.len(), END_TO_END.len());
        for (name, value) in &report.values {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        assert!(
            report.value("dev_flushes_per_op_plus1") > 1.0,
            "journal flushes"
        );
    }

    /// The traced run produces every per-layer metric (it panics otherwise),
    /// its spans nest, and they explain the time they claim to explain.
    #[test]
    fn traced_run_attributes_operation_time_to_spans() {
        let report = run_traced(Kind::HiddenReadCold, 5, Plan::fixed_ops(40));
        assert_eq!(report.verdict.failed, 0);
        assert!(report.value("bench.unattributed_frac") <= 0.10);
        assert!(report.value("blockdev.read_blocks_per_op") > 0.0);
        assert!(report.value("vfs.open_us_p50") > 0.0 && report.value("vfs.close_us_p50") > 0.0);
        assert!(report.value("sim.fig7_u8_read_stegfs_over_cleandisk") > 1.0);
        let device: Vec<&Span> = report
            .spans
            .iter()
            .filter(|s| s.name.starts_with("blockdev."))
            .collect();
        assert!(!device.is_empty());
        for span in device {
            let parent = report.spans.iter().find(|p| p.id == span.parent);
            let parent = parent.expect("a device call has the layer call that caused it");
            assert!(parent.name.starts_with("vfs.") && parent.op == span.op);
            assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
        }
    }
}
