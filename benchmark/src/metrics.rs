//! The names the benchmark is judged by.  `BENCHMARK.json` at the root of
//! the repository repeats these tables; a self-test keeps the two equal.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its unit, direction and, for end-to-end metrics, the share
/// of the parent's median by which it may worsen before a change counts as
/// a regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    gated(name, unit, better, 0.0)
}

/// What a user of the file system sees.  Every workload reports all of
/// them.  The three `dev_*_plus1` counts are `1 + n/op`: the gate divides
/// by the parent's median, and a warm read touches the device 0 times; the
/// raw counts are the `blockdev.*_per_op` and `journal.flushes_per_op`
/// layer metrics.
pub const END_TO_END: [MetricDef; 9] = [
    gated("ops_per_s", "1/s", Better::Higher, 0.25),
    gated("p50_us", "us", Better::Lower, 0.25),
    gated("cpu_us_per_op", "us", Better::Lower, 0.25),
    gated("dev_blocks_per_op_plus1", "blocks/op", Better::Lower, 0.05),
    gated("dev_submissions_per_op_plus1", "1/op", Better::Lower, 0.05),
    gated("dev_flushes_per_op_plus1", "1/op", Better::Lower, 0.05),
    gated("stored_bytes_per_user_byte", "B/B", Better::Lower, 0.005),
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// Failed or mis-verified operations over operations attempted.  Reported
/// next to the end-to-end metrics but not listed in `BENCHMARK.json`: it is
/// 0 on a correct build (a listed metric may never be 0), and the gate
/// reads it from the `attempted` / `failed` keys instead.  Any increase is
/// a regression.
pub const FAILED_FRAC: MetricDef = gated("failed_frac", "ratio", Better::Lower, 0.0);

/// Single-layer metrics from the traced run, prefixed by crate.  Ungated.
/// A value of 0 on a workload that does not exercise the layer means "not
/// applicable".
pub const PER_LAYER: [MetricDef; 55] = [
    layer("blockdev.read_blocks_per_op", "blocks/op", Better::Lower),
    layer("blockdev.write_blocks_per_op", "blocks/op", Better::Lower),
    layer("blockdev.read_submissions_per_op", "1/op", Better::Lower),
    layer("blockdev.write_submissions_per_op", "1/op", Better::Lower),
    layer("blockdev.batch_blocks_mean", "blocks", Better::Higher),
    layer("blockdev.nonsequential_frac", "ratio", Better::Lower),
    layer("blockdev.buffercache_hit_rate", "ratio", Better::Higher),
    layer("blockdev.device_self_us_per_op", "us", Better::Lower),
    layer("blockdev.mem_read_64k_us", "us", Better::Lower),
    layer("blockdev.mem_write_64k_us", "us", Better::Lower),
    layer("blockdev.buffercache_read_64k_us", "us", Better::Lower),
    layer("blockdev.buffercache_write_64k_us", "us", Better::Lower),
    layer("crypto.cbc_encrypt_64k_us", "us", Better::Lower),
    layer("crypto.cbc_decrypt_64k_us", "us", Better::Lower),
    layer("crypto.sha256_64k_us", "us", Better::Lower),
    layer("core.readcache_header_hit_rate", "ratio", Better::Higher),
    layer("core.readcache_extent_hit_rate", "ratio", Better::Higher),
    layer("core.readcache_block_hit_rate", "ratio", Better::Higher),
    layer(
        "core.readcache_evictions_per_op",
        "blocks/op",
        Better::Lower,
    ),
    layer("core.read_warm_64k_us", "us", Better::Lower),
    layer("core.read_cold_64k_us", "us", Better::Lower),
    layer("core.write_64k_us", "us", Better::Lower),
    layer("core.open_us", "us", Better::Lower),
    layer("core.uak_shards_wait_us_per_op", "us", Better::Lower),
    layer("core.object_shards_wait_us_per_op", "us", Better::Lower),
    layer("fs.read_64k_us", "us", Better::Lower),
    layer("fs.write_64k_us", "us", Better::Lower),
    layer("fs.alloc_wait_us_per_op", "us", Better::Lower),
    layer("journal.added_write_64k_us", "us", Better::Lower),
    layer("journal.flushes_per_op", "1/op", Better::Lower),
    layer("journal.write_amplification", "ratio", Better::Lower),
    layer("vfs.open_us_p50", "us", Better::Lower),
    layer("vfs.read_at_us_p50", "us", Better::Lower),
    layer("vfs.write_at_us_p50", "us", Better::Lower),
    layer("vfs.close_us_p50", "us", Better::Lower),
    layer("vfs.op_us_p99", "us", Better::Lower),
    layer("vfs.read_64k_us", "us", Better::Lower),
    layer("vfs.write_64k_us", "us", Better::Lower),
    layer("engine.queue_wait_us_p50", "us", Better::Lower),
    layer("engine.service_us_p50", "us", Better::Lower),
    layer("engine.op_us_p99", "us", Better::Lower),
    layer("engine.read_64k_us", "us", Better::Lower),
    layer("engine.write_64k_us", "us", Better::Lower),
    layer("baselines.ida_split_64k_us", "us", Better::Lower),
    layer("baselines.ida_reconstruct_64k_us", "us", Better::Lower),
    layer(
        "sim.fig7_u8_read_stegfs_over_cleandisk",
        "ratio",
        Better::Lower,
    ),
    layer(
        "sim.fig7_u8_write_stegfs_over_cleandisk",
        "ratio",
        Better::Lower,
    ),
    layer(
        "sim.fig7_u8_read_stegcover_over_stegfs",
        "ratio",
        Better::Higher,
    ),
    layer("bench.trace_overhead_frac", "ratio", Better::Lower),
    layer("bench.unattributed_frac", "ratio", Better::Lower),
    layer("bench.steal_frac", "ratio", Better::Lower),
    layer("bench.window_spread", "ratio", Better::Lower),
    layer("bench.latency_samples", "count", Better::Higher),
    layer("bench.windows", "count", Better::Higher),
    layer("bench.spans", "count", Better::Higher),
];

/// The six workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "hidden_read_warm",
        "16 open hidden files fit the read cache: only readcache, the vfs handle table and copying run",
    ),
    (
        "hidden_read_cold",
        "128 hidden files are 8 times a 1024-block read cache: open+read+close pays locator, decrypt and device reads",
    ),
    (
        "hidden_write_journaled",
        "16 KiB hidden overwrites on a journaled write-back stack: encrypt, fs txn, journal commit and flush",
    ),
    (
        "plain_rmw",
        "read 64 KiB then write 16 KiB of a plain file on that stack: no crypto or hidden code, the paper's native baseline",
    ),
    (
        "hidden_coded_rw",
        "rewrite one and read another 2-of-3 dispersed hidden file: IDA coding, GF(256) and metadata replication",
    ),
    (
        "engine_mixed_io",
        "2 pipelined clients through a 4-worker engine over a 50us/500us latency device: queueing, locks, group commit",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_unique_legal_and_within_the_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER).chain([&FAILED_FRAC]) {
            assert!(name_ok(m.name), "bad metric name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "workload {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
    }

    /// `BENCHMARK.json` is what the gate reads; these tables are what the
    /// program prints.  They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = json.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strings = |key: &str| -> Vec<String> {
            json.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strings("paths"), ["benchmark"]);
        assert!(strings("command").iter().all(|arg| !arg.starts_with('/')));
        let seconds = json.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds));
        assert_eq!(seconds, crate::RUN_SECONDS as f64);

        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| {
                assert_eq!(w.entries().len(), 2);
                let text = |k| w.get(k).unwrap().as_str().unwrap().to_string();
                (text("name"), text("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let check = |key: &str, defs: &[MetricDef], bounded: bool| {
            let listed = json.get(key).unwrap().items();
            assert_eq!(listed.len(), defs.len(), "{key} count");
            for (got, want) in listed.iter().zip(defs) {
                let text = |k| got.get(k).unwrap().as_str().unwrap();
                assert_eq!(text("name"), want.name);
                assert_eq!(text("unit"), want.unit, "unit of {}", want.name);
                assert_eq!(text("better"), want.better.as_str(), "{}", want.name);
                assert_eq!(got.entries().len(), if bounded { 4 } else { 3 });
                if bounded {
                    let bound = got.get("bound").unwrap().as_f64().unwrap();
                    assert_eq!(bound, want.bound, "bound of {}", want.name);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
    }
}
