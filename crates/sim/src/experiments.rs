//! One driver function per table/figure of the paper's evaluation.
//!
//! Each function returns structured rows plus a `render_*` helper that turns
//! them into the text tables printed by the `repro` binary.  The crate
//! documentation indexes every figure/table by the function here that
//! regenerates it.

use crate::driver::{run_access, AccessResult, Operation};
use crate::report::{fmt_f64, format_table};
use crate::schemes::{build_scheme, SchemeKind};
use crate::workload::{AccessPattern, WorkloadParams};
use stegfs_baselines::stegrand::StegRandSpaceModel;
use stegfs_blockdev::DiskParameters;
use stegfs_core::{ObjectKind, StegFs, StegParams};

// ----------------------------------------------------------------------
// Tables 1-4
// ----------------------------------------------------------------------

/// Render Tables 1–4 (StegFS parameters, physical resource parameters,
/// workload parameters, algorithm indicators).
pub fn tables() -> String {
    let steg = StegParams::default();
    let table1 = format_table(
        "Table 1: Parameters of StegFS",
        &["parameter", "meaning", "default"],
        &[
            vec![
                "P_abandon".into(),
                "Percentage of abandoned blocks in the disk volume".into(),
                format!("{}%", steg.abandoned_pct),
            ],
            vec![
                "FB_min".into(),
                "Minimum number of free blocks within a hidden file".into(),
                steg.free_blocks_min.to_string(),
            ],
            vec![
                "FB_max".into(),
                "Maximum number of free blocks within a hidden file".into(),
                steg.free_blocks_max.to_string(),
            ],
            vec![
                "N_dummy".into(),
                "Number of dummy hidden files in the file system".into(),
                steg.dummy_file_count.to_string(),
            ],
            vec![
                "S_dummy".into(),
                "Average size of the dummy hidden files".into(),
                format!("{} MB", steg.dummy_file_size / (1024 * 1024)),
            ],
        ],
    );

    let disk = DiskParameters::ultra_ata_100();
    let table2 = format_table(
        "Table 2: Physical resource parameters (simulated disk model)",
        &["parameter", "value"],
        &[
            vec![
                "Disk model".into(),
                "Ultra ATA/100 class (simulated)".into(),
            ],
            vec!["Spindle speed".into(), format!("{} rpm", disk.rpm)],
            vec![
                "Track-to-track seek".into(),
                format!("{} ms", disk.track_to_track_ms),
            ],
            vec![
                "Full-stroke seek".into(),
                format!("{} ms", disk.full_stroke_ms),
            ],
            vec![
                "Avg rotational latency".into(),
                format!("{:.2} ms", disk.avg_rotational_latency_ms()),
            ],
            vec![
                "Sustained transfer rate".into(),
                format!("{} MB/s", disk.transfer_mb_per_s),
            ],
            vec![
                "Read-ahead window".into(),
                format!("{} KB", disk.readahead_bytes / 1024),
            ],
        ],
    );

    let wl = WorkloadParams::paper_defaults();
    let table3 = format_table(
        "Table 3: Workload parameters",
        &["parameter", "default"],
        &[
            vec![
                "Size of each disk block".into(),
                format!("{} KB", wl.block_size / 1024),
            ],
            vec![
                "Size of each file".into(),
                format!(
                    "({}, {}] MB",
                    wl.file_size_min / (1024 * 1024),
                    wl.file_size_max / (1024 * 1024)
                ),
            ],
            vec![
                "Capacity of the disk volume".into(),
                format!("{} GB", wl.volume_mb / 1024),
            ],
            vec![
                "Number of files in the file system".into(),
                wl.file_count.to_string(),
            ],
            vec!["File access pattern".into(), "Interleaved".into()],
            vec!["Number of concurrent users".into(), wl.users.to_string()],
        ],
    );

    let table4 = format_table(
        "Table 4: Algorithm indicators",
        &["indicator", "meaning"],
        &[
            vec!["StegFS".into(), "Our proposed StegFS scheme".into()],
            vec![
                "StegCover".into(),
                "Steganographic scheme using cover files [Anderson et al.]".into(),
            ],
            vec![
                "StegRand".into(),
                "Steganographic scheme using random block assignment [Anderson et al.]".into(),
            ],
            vec![
                "CleanDisk".into(),
                "Freshly defragmented native file system".into(),
            ],
            vec![
                "FragDisk".into(),
                "Well-used native file system with fragmentation".into(),
            ],
        ],
    );

    format!("{table1}\n{table2}\n{table3}\n{table4}")
}

// ----------------------------------------------------------------------
// Figure 6: StegRand space utilization
// ----------------------------------------------------------------------

/// One point of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Block size in bytes.
    pub block_size: u64,
    /// Replication factor.
    pub replication: usize,
    /// Effective space utilization at the first unrecoverable loss.
    pub utilization: f64,
}

/// Regenerate Figure 6: StegRand effective space utilization as a function of
/// the replication factor, one series per block size.
///
/// `volume_mb` is 1024 in the paper; smaller volumes preserve the shape and
/// run faster.  Results are averaged over `trials` placements.
pub fn figure6(volume_mb: u64, trials: usize, seed: u64) -> Vec<Fig6Row> {
    let block_sizes: [u64; 8] = [512, 1024, 2048, 4096, 8192, 16384, 32768, 65536];
    let replications: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
    let mut rows = Vec::new();
    for &bs in &block_sizes {
        let total_blocks = volume_mb * 1024 * 1024 / bs;
        for &r in &replications {
            let mut total_util = 0.0;
            for t in 0..trials.max(1) {
                let mut model = StegRandSpaceModel::new(
                    total_blocks,
                    r,
                    seed ^ (t as u64) << 32 ^ bs ^ r as u64,
                );
                let outcome = model.run_until_loss(bs, |rng| {
                    // Files uniform in (1, 2] MB as in the paper's workload.
                    let bytes = rng.next_in_range(1024 * 1024 + 1, 2 * 1024 * 1024);
                    bytes.div_ceil(bs) as u32
                });
                total_util += outcome.utilization;
            }
            rows.push(Fig6Row {
                block_size: bs,
                replication: r,
                utilization: total_util / trials.max(1) as f64,
            });
        }
    }
    rows
}

/// Render Figure 6 rows as a text table (series per block size).
pub fn render_figure6(rows: &[Fig6Row]) -> String {
    let replications: Vec<usize> = {
        let mut r: Vec<usize> = rows.iter().map(|x| x.replication).collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    let block_sizes: Vec<u64> = {
        let mut b: Vec<u64> = rows.iter().map(|x| x.block_size).collect();
        b.sort_unstable();
        b.dedup();
        b
    };
    let mut headers: Vec<String> = vec!["block size".to_string()];
    headers.extend(replications.iter().map(|r| format!("r={r}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let table_rows: Vec<Vec<String>> = block_sizes
        .iter()
        .map(|&bs| {
            let mut row = vec![format!("{} KB", bs as f64 / 1024.0)];
            for &r in &replications {
                let util = rows
                    .iter()
                    .find(|x| x.block_size == bs && x.replication == r)
                    .map(|x| x.utilization)
                    .unwrap_or(0.0);
                row.push(fmt_f64(util));
            }
            row
        })
        .collect();
    format_table(
        "Figure 6: StegRand effective space utilization vs replication factor",
        &header_refs,
        &table_rows,
    )
}

// ----------------------------------------------------------------------
// Figures 7-9: access times
// ----------------------------------------------------------------------

/// One measured point of an access-time experiment.
#[derive(Debug, Clone)]
pub struct AccessRow {
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// The swept parameter (users for Fig 7, file size in KB for Fig 8,
    /// block size in KB for Fig 9).
    pub x: f64,
    /// Average read access time (seconds of simulated disk time).
    pub read_s: f64,
    /// Average write access time.
    pub write_s: f64,
    /// Normalized read time (s/KB), used by Figure 8.
    pub read_s_per_kb: f64,
    /// Normalized write time (s/KB).
    pub write_s_per_kb: f64,
}

fn measure(
    kind: SchemeKind,
    params: &WorkloadParams,
    users: usize,
    pattern: AccessPattern,
) -> Result<(AccessResult, AccessResult), String> {
    let specs = params.generate_files();
    let mut scheme = build_scheme(kind, params)?;
    scheme.prepare(&specs, params)?;
    let read = run_access(scheme.as_mut(), &specs, users, pattern, Operation::Read)?;
    let write = run_access(scheme.as_mut(), &specs, users, pattern, Operation::Write)?;
    Ok((read, write))
}

/// Regenerate Figure 7: read/write access time vs number of concurrent users,
/// for all five schemes.
pub fn figure7(params: &WorkloadParams, user_counts: &[usize]) -> Result<Vec<AccessRow>, String> {
    let mut rows = Vec::new();
    for kind in SchemeKind::all() {
        for &users in user_counts {
            let mut p = params.clone();
            p.users = users;
            let (read, write) = measure(kind, &p, users, AccessPattern::Interleaved)?;
            rows.push(AccessRow {
                scheme: kind,
                x: users as f64,
                read_s: read.avg_access_time_s(),
                write_s: write.avg_access_time_s(),
                read_s_per_kb: read.normalized_s_per_kb(),
                write_s_per_kb: write.normalized_s_per_kb(),
            });
        }
    }
    Ok(rows)
}

/// Regenerate Figure 8: normalized access time vs file size (KB), with the
/// multi-user interleaved workload.
pub fn figure8(
    params: &WorkloadParams,
    file_sizes_kb: &[u64],
    users: usize,
) -> Result<Vec<AccessRow>, String> {
    let mut rows = Vec::new();
    for kind in SchemeKind::all() {
        for &kb in file_sizes_kb {
            let mut p = params.clone();
            p.users = users;
            p.file_size_min = (kb - 1).max(1) * 1024;
            p.file_size_max = kb * 1024;
            let (read, write) = measure(kind, &p, users, AccessPattern::Interleaved)?;
            rows.push(AccessRow {
                scheme: kind,
                x: kb as f64,
                read_s: read.avg_access_time_s(),
                write_s: write.avg_access_time_s(),
                read_s_per_kb: read.normalized_s_per_kb(),
                write_s_per_kb: write.normalized_s_per_kb(),
            });
        }
    }
    Ok(rows)
}

/// Regenerate Figure 9: serial (single-user) access time vs block size (KB).
pub fn figure9(params: &WorkloadParams, block_sizes: &[usize]) -> Result<Vec<AccessRow>, String> {
    let mut rows = Vec::new();
    for kind in SchemeKind::all() {
        for &bs in block_sizes {
            let mut p = params.clone();
            p.block_size = bs;
            p.users = 1;
            p.pattern = AccessPattern::Serial;
            let (read, write) = measure(kind, &p, 1, AccessPattern::Serial)?;
            rows.push(AccessRow {
                scheme: kind,
                x: bs as f64 / 1024.0,
                read_s: read.avg_access_time_s(),
                write_s: write.avg_access_time_s(),
                read_s_per_kb: read.normalized_s_per_kb(),
                write_s_per_kb: write.normalized_s_per_kb(),
            });
        }
    }
    Ok(rows)
}

/// Render Fig 7/8/9 rows as a pair of text tables (read and write).
pub fn render_access_rows(
    title: &str,
    x_label: &str,
    rows: &[AccessRow],
    normalized: bool,
) -> String {
    let xs: Vec<f64> = {
        let mut v: Vec<f64> = rows.iter().map(|r| r.x).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.dedup();
        v
    };
    let schemes = SchemeKind::all();
    let mut headers: Vec<String> = vec![x_label.to_string()];
    headers.extend(schemes.iter().map(|s| s.label().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let build = |selector: &dyn Fn(&AccessRow) -> f64, label: &str| -> String {
        let table_rows: Vec<Vec<String>> = xs
            .iter()
            .map(|&x| {
                let mut row = vec![fmt_f64(x)];
                for kind in schemes {
                    let v = rows
                        .iter()
                        .find(|r| r.scheme == kind && (r.x - x).abs() < 1e-9)
                        .map(selector)
                        .unwrap_or(0.0);
                    row.push(fmt_f64(v));
                }
                row
            })
            .collect();
        format_table(&format!("{title} — {label}"), &header_refs, &table_rows)
    };

    if normalized {
        format!(
            "{}\n{}",
            build(&|r| r.read_s_per_kb, "read (s/KB)"),
            build(&|r| r.write_s_per_kb, "write (s/KB)")
        )
    } else {
        format!(
            "{}\n{}",
            build(&|r| r.read_s, "read (s)"),
            build(&|r| r.write_s, "write (s)")
        )
    }
}

// ----------------------------------------------------------------------
// §5.2 space-utilization summary
// ----------------------------------------------------------------------

/// One scheme's effective space utilization.
#[derive(Debug, Clone)]
pub struct SpaceRow {
    /// Scheme name.
    pub scheme: String,
    /// Effective utilization (unique file bytes / volume capacity).
    pub utilization: f64,
    /// How the number was obtained.
    pub note: String,
}

/// Regenerate the §5.2 comparison: StegFS vs StegCover vs StegRand effective
/// space utilization under the default workload shape.
pub fn space_summary(volume_mb: u64, seed: u64) -> Result<Vec<SpaceRow>, String> {
    let block_size = 1024usize;
    let capacity = volume_mb * 1024 * 1024;

    // --- StegFS: load files until the volume refuses another one. ---
    let device = stegfs_blockdev::MemBlockDevice::new(block_size, capacity / block_size as u64);
    let mut steg_params = StegParams::for_experiments(seed);
    // Keep the paper's ~1% dummy footprint at any volume scale.
    steg_params.dummy_file_size = (capacity / 1000).clamp(16 * 1024, 1024 * 1024);
    let stegfs = StegFs::format(device, steg_params).map_err(|e| e.to_string())?;
    let mut rng = stegfs_crypto::prng::XorShiftRng::new(seed ^ 0x51ace);
    let mut loaded_bytes = 0u64;
    let mut index = 0usize;
    const UAK: &str = "space experiment uak";
    loop {
        // File sizes scaled to the volume the same way the paper's 1-2 MB
        // files relate to its 1 GB volume (1/1024 .. 1/512 of capacity).
        let size = rng.next_in_range(capacity / 1024 + 1, capacity / 512);
        let name = format!("space-file-{index}");
        let content = vec![0xccu8; size as usize];
        match stegfs
            .steg_create(&name, UAK, ObjectKind::File)
            .and_then(|_| stegfs.write_hidden_with_key(&name, UAK, &content))
        {
            Ok(()) => {
                loaded_bytes += size;
                index += 1;
            }
            Err(stegfs_core::StegError::NoSpace) => break,
            Err(e) => return Err(e.to_string()),
        }
        if loaded_bytes > capacity {
            break;
        }
    }
    let stegfs_util = loaded_bytes as f64 / capacity as f64;

    // --- StegCover: covers sized for the largest file; each cover holds one
    // file whose expected size is 75% of the cover. ---
    let cover_size = capacity / 512; // the "2 MB" cover at this scale
    let cover_count = capacity / cover_size;
    let usable_covers = cover_count.saturating_sub(15);
    let mut cover_bytes = 0u64;
    for _ in 0..usable_covers {
        cover_bytes += rng.next_in_range(cover_size / 2 + 1, cover_size);
    }
    let stegcover_util = cover_bytes as f64 / capacity as f64;

    // --- StegRand at its best replication factor (8), 1 KB blocks. ---
    let mut best_rand: f64 = 0.0;
    for replication in [4usize, 8, 16] {
        let mut model = StegRandSpaceModel::new(capacity / 1024, replication, seed ^ 77);
        let outcome = model.run_until_loss(1024, |rng| {
            rng.next_in_range(capacity / 1024 / 1024 + 1, capacity / 512 / 1024) as u32
        });
        best_rand = best_rand.max(outcome.utilization);
    }

    Ok(vec![
        SpaceRow {
            scheme: "StegFS".into(),
            utilization: stegfs_util,
            note: format!("{index} hidden files loaded until NoSpace"),
        },
        SpaceRow {
            scheme: "StegCover".into(),
            utilization: stegcover_util,
            note: "one file per 'largest-file' cover, sizes U(0.5, 1] of cover".into(),
        },
        SpaceRow {
            scheme: "StegRand".into(),
            utilization: best_rand,
            note: "best replication factor in {4, 8, 16}, 1 KB blocks".into(),
        },
    ])
}

/// Render the space-utilization summary.
pub fn render_space_summary(rows: &[SpaceRow]) -> String {
    format_table(
        "Section 5.2: effective space utilization",
        &["scheme", "utilization", "note"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    format!("{:.1}%", r.utilization * 100.0),
                    r.note.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_mention_all_parameters() {
        let t = tables();
        for needle in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "P_abandon",
            "FB_max",
            "N_dummy",
            "Interleaved",
            "StegCover",
            "FragDisk",
            "7200 rpm",
        ] {
            assert!(t.contains(needle), "missing {needle}\n{t}");
        }
    }

    #[test]
    fn figure6_shape_matches_paper() {
        // Small volume, single trial: enough to check the qualitative shape.
        let rows = figure6(128, 1, 42);
        assert_eq!(rows.len(), 8 * 7);
        // All utilizations are low (< 25%) — StegRand never gets close to a
        // normal file system.
        assert!(rows.iter().all(|r| r.utilization < 0.25));
        // For 1 KB blocks the peak lies at a moderate replication factor:
        // better than no replication, better than excessive replication.
        let util = |r: usize| {
            rows.iter()
                .find(|x| x.block_size == 1024 && x.replication == r)
                .unwrap()
                .utilization
        };
        let peak = util(8).max(util(16)).max(util(4));
        assert!(peak >= util(1), "moderate replication beats none");
        assert!(peak >= util(64), "moderate replication beats excessive");
        let rendered = render_figure6(&rows);
        assert!(rendered.contains("r=8"));
        assert!(rendered.contains("64 KB"));
    }

    #[test]
    fn figure7_tiny_run_produces_expected_ordering() {
        // A tiny configuration exercises the full pipeline quickly; the
        // full-scale run lives in the repro binary / benches.
        let params = WorkloadParams::tiny_test();
        let rows = figure7(&params, &[1, 4]).unwrap();
        assert_eq!(rows.len(), 5 * 2);
        let get = |kind: SchemeKind, users: f64| {
            rows.iter()
                .find(|r| r.scheme == kind && r.x == users)
                .unwrap()
                .clone()
        };
        // StegCover is the outlier, far above everyone else.
        assert!(get(SchemeKind::StegCover, 1.0).read_s > get(SchemeKind::StegFs, 1.0).read_s * 3.0);
        // At a single user CleanDisk beats StegFS; with concurrency the gap
        // narrows (ratio falls).
        let ratio_1 = get(SchemeKind::StegFs, 1.0).read_s / get(SchemeKind::CleanDisk, 1.0).read_s;
        let ratio_4 = get(SchemeKind::StegFs, 4.0).read_s / get(SchemeKind::CleanDisk, 4.0).read_s;
        assert!(ratio_1 > 1.0);
        assert!(ratio_4 < ratio_1);
        let rendered = render_access_rows("Figure 7", "users", &rows, false);
        assert!(rendered.contains("read (s)"));
        assert!(rendered.contains("StegFS"));
    }

    #[test]
    fn space_summary_matches_headline_claims() {
        let rows = space_summary(32, 9).unwrap();
        let get = |name: &str| rows.iter().find(|r| r.scheme == name).unwrap().utilization;
        // StegFS well above both baselines; StegCover around 75%; StegRand
        // in the single digits.
        assert!(get("StegFS") > 0.5, "StegFS {:.2}", get("StegFS"));
        assert!(get("StegFS") > get("StegRand") * 5.0);
        assert!((0.55..0.9).contains(&get("StegCover")));
        assert!(get("StegRand") < 0.2);
        let rendered = render_space_summary(&rows);
        assert!(rendered.contains("StegFS"));
        assert!(rendered.contains("%"));
    }
}
