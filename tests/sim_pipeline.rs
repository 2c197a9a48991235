//! Cross-crate check of the experiment pipeline: small versions of the
//! paper's figures must come out with the right qualitative shape.

use stegfs_sim::driver::{run_access, Operation};
use stegfs_sim::experiments::{figure6, figure9, space_summary};
use stegfs_sim::schemes::{build_scheme, SchemeKind};
use stegfs_sim::{AccessPattern, WorkloadParams};

fn tiny_params() -> WorkloadParams {
    let mut p = WorkloadParams::tiny_test();
    p.file_count = 4;
    p
}

#[test]
fn figure6_shape_utilization_peaks_at_moderate_replication() {
    let rows = figure6(64, 1, 11);
    // For every block size the peak utilization across replication factors is
    // not at replication 1 and not at replication 64 going up — i.e. the
    // curve rises then falls, as in the paper.
    for bs in [512u64, 1024, 4096, 65536] {
        let series: Vec<(usize, f64)> = rows
            .iter()
            .filter(|r| r.block_size == bs)
            .map(|r| (r.replication, r.utilization))
            .collect();
        let peak = series
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let at_1 = series.iter().find(|(r, _)| *r == 1).unwrap().1;
        let at_64 = series.iter().find(|(r, _)| *r == 64).unwrap().1;
        assert!(peak.1 >= at_1, "block size {bs}");
        assert!(peak.1 >= at_64, "block size {bs}");
        assert!(peak.1 < 0.3, "StegRand never reaches healthy utilization");
    }
    // Smaller blocks produce lower utilization at the paper's highlighted
    // point (1 KB vs 64 KB at replication 8).
    let util = |bs: u64, r: usize| {
        rows.iter()
            .find(|x| x.block_size == bs && x.replication == r)
            .unwrap()
            .utilization
    };
    assert!(util(65536, 8) >= util(512, 8));
}

#[test]
fn figure9_shape_cleandisk_fastest_stegcover_slowest_serial() {
    let params = tiny_params();
    let rows = figure9(&params, &[1024, 8192]).unwrap();
    for &bs_kb in &[1.0f64, 8.0] {
        let get = |kind: SchemeKind| {
            rows.iter()
                .find(|r| r.scheme == kind && (r.x - bs_kb).abs() < 1e-9)
                .unwrap()
                .read_s
        };
        assert!(
            get(SchemeKind::CleanDisk) <= get(SchemeKind::FragDisk) * 1.05,
            "CleanDisk should not lose to FragDisk at {bs_kb} KB"
        );
        assert!(
            get(SchemeKind::FragDisk) < get(SchemeKind::StegFs),
            "serial single-user load is where StegFS pays its penalty ({bs_kb} KB)"
        );
        assert!(
            get(SchemeKind::StegCover) > get(SchemeKind::StegFs),
            "StegCover is the most expensive scheme ({bs_kb} KB)"
        );
    }
    // The StegFS penalty shrinks as the block size grows (fewer seeks per
    // byte) — the effect visible across Figure 9's x axis.
    let ratio = |bs_kb: f64| {
        let steg = rows
            .iter()
            .find(|r| r.scheme == SchemeKind::StegFs && (r.x - bs_kb).abs() < 1e-9)
            .unwrap()
            .read_s;
        let clean = rows
            .iter()
            .find(|r| r.scheme == SchemeKind::CleanDisk && (r.x - bs_kb).abs() < 1e-9)
            .unwrap()
            .read_s;
        steg / clean
    };
    assert!(ratio(8.0) < ratio(1.0));
}

#[test]
fn interleaved_write_load_converges_stegfs_with_native_fs() {
    // The §5.3 headline: by 8 concurrent users StegFS matches the native file
    // system for writes.  At tiny scale we check the trend: the ratio at 4
    // users is much smaller than at 1 user and within a small factor.
    let params = tiny_params();
    let measure = |kind: SchemeKind, users: usize| {
        let mut p = params.clone();
        p.users = users;
        let specs = p.generate_files();
        let mut scheme = build_scheme(kind, &p).unwrap();
        scheme.prepare(&specs, &p).unwrap();
        run_access(
            scheme.as_mut(),
            &specs,
            users,
            AccessPattern::Interleaved,
            Operation::Write,
        )
        .unwrap()
        .avg_access_time_s()
    };
    let ratio_1 = measure(SchemeKind::StegFs, 1) / measure(SchemeKind::CleanDisk, 1);
    let ratio_4 = measure(SchemeKind::StegFs, 4) / measure(SchemeKind::CleanDisk, 4);
    assert!(
        ratio_1 > 2.0,
        "alone, StegFS writes are clearly slower ({ratio_1:.1}x)"
    );
    assert!(
        ratio_4 < ratio_1 / 2.0,
        "under concurrency the gap must collapse ({ratio_1:.1}x -> {ratio_4:.1}x)"
    );
    assert!(ratio_4 < 3.0, "by 4 users StegFS is within a small factor");
}

#[test]
fn space_summary_reproduces_the_order_of_magnitude_claim() {
    // At this deliberately tiny volume (24 MB) StegRand's relative
    // utilization is flattered — files are only a few dozen blocks, so the
    // first unrecoverable collision arrives later in relative terms than it
    // does at the paper's 1 GB scale.  The full 10x-plus gap is reproduced by
    // the repro binary at its default scale (`repro --space-summary`, 64 MB:
    // 94.6% vs 7.6%); here we check the ordering and a conservative 4x margin.
    let rows = space_summary(24, 3).unwrap();
    let util = |name: &str| rows.iter().find(|r| r.scheme == name).unwrap().utilization;
    assert!(util("StegFS") > 0.6);
    assert!(util("StegCover") > 0.5 && util("StegCover") < 0.9);
    assert!(util("StegRand") < 0.25);
    assert!(
        util("StegFS") >= util("StegRand") * 4.0,
        "StegFS must be several times more space-efficient than StegRand even at toy scale"
    );
}
