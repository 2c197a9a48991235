//! Survivability sweep: write amplification vs survival under damage.
//!
//! Each durability policy buys damage tolerance with extra share blocks:
//! `Replicate(r)` writes every logical block `r` times, `Disperse{m,n}`
//! writes `n` shares per `m` logical blocks.  This sweep prices that trade
//! directly.  For every policy it
//!
//! 1. formats a volume on a [`FaultDevice`], creates a working set of
//!    hidden files and measures the **write amplification** actually paid
//!    (physical share blocks per logical data block, padding included);
//! 2. damages a seeded random fraction of all share blocks (mixed bit
//!    flips, zeroed blocks and junk overwrites);
//! 3. runs the keyed scavenger and then re-reads every file, counting how
//!    many come back **byte-identical** — the survival rate.
//!
//! `smoke()` is what `repro --survival --smoke` exits non-zero on: it pins
//! the exact k-of-n boundary — destroying any `n - m` shares of every group
//! must leave every byte recoverable (warm read *and* offline repair), and
//! destroying one more share must fail closed with no partial plaintext.

use std::fmt::Write as _;
use stegfs_blockdev::{BlockDevice, FaultDevice, MemBlockDevice};
use stegfs_core::crypt::ObjectKeys;
use stegfs_core::{ObjectKind, Policy, StegFs, StegParams};
use stegfs_survival::scavenge;

/// Access key owning the sweep's working set.
const UAK: &str = "survival sweep key";

/// The policies swept, with display labels.
pub const POLICIES: [(&str, Policy); 6] = [
    ("plain", Policy::Plain),
    ("replicate-2", Policy::Replicate(2)),
    ("replicate-3", Policy::Replicate(3)),
    ("disperse-2of3", Policy::Disperse { m: 2, n: 3 }),
    ("disperse-2of4", Policy::Disperse { m: 2, n: 4 }),
    ("disperse-3of5", Policy::Disperse { m: 3, n: 5 }),
];

/// One policy's measured point.
#[derive(Debug, Clone)]
pub struct SurvivalPoint {
    /// Display label of the policy.
    pub policy: &'static str,
    /// Reconstruction threshold (logical blocks per group).
    pub m: usize,
    /// Shares stored per group.
    pub n: usize,
    /// Measured physical share blocks per logical data block.
    pub write_amp: f64,
    /// Hidden files in the working set.
    pub objects: usize,
    /// Share blocks damaged by the injector.
    pub blocks_damaged: usize,
    /// Objects the scavenger repaired in place.
    pub objects_repaired: usize,
    /// Objects the scavenger declared unrecoverable.
    pub objects_lost: usize,
    /// Fraction of objects that read back byte-identical after the
    /// scavenge pass.
    pub survival_rate: f64,
}

fn params(policy: Policy) -> StegParams {
    StegParams {
        random_fill: false,
        dummy_file_count: 0,
        hidden_policy: policy,
        ..StegParams::for_tests()
    }
}

fn content(index: usize, len: usize) -> Vec<u8> {
    // Deterministic, non-uniform per file so a torn read cannot pass.
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(index as u8))
        .collect()
}

/// The damageable volume every sweep runs on.
type Volume = StegFs<FaultDevice<MemBlockDevice>>;

fn name(index: usize) -> String {
    format!("survival-{index}")
}

fn build_volume(policy: Policy, files: usize, file_kb: usize) -> Volume {
    let dev = FaultDevice::new(MemBlockDevice::new(1024, 16384));
    let fs = StegFs::format(dev, params(policy)).expect("format");
    for i in 0..files {
        fs.steg_create(&name(i), UAK, ObjectKind::File)
            .expect("create");
        fs.write_hidden_with_key(&name(i), UAK, &content(i, file_kb * 1024))
            .expect("write");
    }
    fs
}

/// Every share block of the working set.
fn all_shares(fs: &Volume, files: usize) -> Vec<u64> {
    let extents = |i| fs.hidden_share_extents(&name(i), UAK).expect("extents");
    (0..files).flat_map(extents).flatten().collect()
}

/// How many of the working set's files read back byte-identical.
fn count_identical<D: BlockDevice>(fs: &StegFs<D>, files: usize, file_kb: usize) -> usize {
    (0..files)
        .filter(|&i| check_identical(fs, i, file_kb, "").is_ok())
        .count()
}

/// `Err` unless file `index` reads back byte-identical; `what` names the
/// read in the message.
fn check_identical<D: BlockDevice>(
    fs: &StegFs<D>,
    index: usize,
    file_kb: usize,
    what: &str,
) -> Result<(), String> {
    let file = name(index);
    match fs.read_hidden_with_key(&file, UAK) {
        Ok(got) if got == content(index, file_kb * 1024) => Ok(()),
        Ok(_) => Err(format!("{what} read of {file} is not byte-identical")),
        Err(e) => Err(format!("{what} read of {file} failed: {e}")),
    }
}

/// Run the sweep: `files` hidden files of `file_kb` KiB per policy, with
/// `damage_frac` of all share blocks damaged (seeded by `seed`).
pub fn run_sweep(files: usize, file_kb: usize, damage_frac: f64, seed: u64) -> Vec<SurvivalPoint> {
    let bs = 1024usize;
    let logical_per_file = (file_kb * 1024).div_ceil(bs);
    POLICIES
        .iter()
        .map(|&(label, policy)| {
            let fs = build_volume(policy, files, file_kb);
            let (m, n) = policy.shares();

            let all_shares = all_shares(&fs, files);
            let write_amp = all_shares.len() as f64 / (files * logical_per_file) as f64;

            let damage_count = ((all_shares.len() as f64) * damage_frac).round() as usize;
            let dev = fs.plain_fs().device().clone();
            dev.corrupt_random_in(&all_shares, damage_count, seed)
                .expect("damage");
            fs.purge_read_caches();

            let report = scavenge(&fs, &[UAK]).expect("scavenge");
            let survived = count_identical(&fs, files, file_kb);

            SurvivalPoint {
                policy: label,
                m,
                n,
                write_amp,
                objects: files,
                blocks_damaged: damage_count,
                objects_repaired: report.objects_repaired,
                objects_lost: report.objects_lost,
                survival_rate: survived as f64 / files as f64,
            }
        })
        .collect()
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The metadata replica groups of `name` (see
/// [`HiddenObject::metadata_groups`](stegfs_core::hidden::HiddenObject::metadata_groups)).
fn metadata_groups(fs: &Volume, name: &str) -> Vec<Vec<u64>> {
    let entry = fs.lookup_entry(name, UAK).expect("entry");
    let keys = ObjectKeys::derive(&entry.physical_name, &entry.fak);
    let obj = fs.object_io(&keys).open(&entry.physical_name);
    obj.expect("open").metadata_groups()
}

/// One redundant policy's metadata-damage point: header/chain replicas *and*
/// data shares destroyed within tolerance, read degraded, healed by a keyed
/// scavenge pass, then verified converged by a second pass.
#[derive(Debug, Clone)]
pub struct MetadataPoint {
    /// Display label of the policy.
    pub policy: &'static str,
    /// Reconstruction threshold.
    pub m: usize,
    /// Shares per group.
    pub n: usize,
    /// Hidden files in the working set.
    pub objects: usize,
    /// Header/chain replica blocks destroyed.
    pub metadata_replicas_damaged: usize,
    /// Data share blocks destroyed.
    pub shares_damaged: usize,
    /// Damaged objects whose *live* (degraded) read was byte-identical.
    pub degraded_reads_ok: usize,
    /// Objects the healing scavenge pass repaired in place.
    pub objects_repaired: usize,
    /// Share and replica blocks that pass rebuilt and rewrote.
    pub shares_rewritten: usize,
    /// Objects a second scavenge pass found fully intact (the first really
    /// did restore full redundancy).
    pub scavenge_intact_after: usize,
    /// Objects byte-identical after everything.
    pub byte_identical: usize,
}

/// Run the metadata-damage sweep over every redundant policy (plain has a
/// single header copy and nothing to tolerate, so it is skipped).
pub fn run_metadata_sweep(files: usize, file_kb: usize, seed: u64) -> Vec<MetadataPoint> {
    POLICIES
        .iter()
        .filter(|(_, policy)| !matches!(policy, Policy::Plain))
        .map(|&(label, policy)| {
            let fs = build_volume(policy, files, file_kb);
            let (m, n) = policy.shares();
            let tol = n - m;
            let dev = fs.plain_fs().device().clone();
            let mut rng = seed ^ 0x6d65_7461;
            // Zero `tol` random blocks of every group, never its last copy.
            let mut destroy = |groups: Vec<Vec<u64>>| {
                let mut destroyed = 0usize;
                for mut pool in groups {
                    for _ in 0..tol.min(pool.len().saturating_sub(1)) {
                        let pick = (xorshift(&mut rng) % pool.len() as u64) as usize;
                        dev.zero_block(pool.swap_remove(pick)).expect("zero");
                        destroyed += 1;
                    }
                }
                destroyed
            };
            let mut metadata_replicas_damaged = 0usize;
            let mut shares_damaged = 0usize;
            for i in 0..files {
                metadata_replicas_damaged += destroy(metadata_groups(&fs, &name(i)));
                shares_damaged += destroy(fs.hidden_share_extents(&name(i), UAK).expect("extents"));
            }
            fs.purge_read_caches();

            let degraded_reads_ok = count_identical(&fs, files, file_kb);
            let healed = scavenge(&fs, &[UAK]).expect("scavenge");
            let again = scavenge(&fs, &[UAK]).expect("scavenge");
            fs.purge_read_caches();
            let byte_identical = count_identical(&fs, files, file_kb);

            MetadataPoint {
                policy: label,
                m,
                n,
                objects: files,
                metadata_replicas_damaged,
                shares_damaged,
                degraded_reads_ok,
                objects_repaired: healed.objects_repaired,
                shares_rewritten: healed.shares_rewritten,
                scavenge_intact_after: again.objects_intact,
                byte_identical,
            }
        })
        .collect()
}

/// Render the metadata-damage sweep as a text table.
pub fn render_metadata(points: &[MetadataPoint]) -> String {
    let mut s = String::from(
        "Metadata survivability (header/chain replicas + shares damaged, keyed scavenge)\n\
         policy           m/n    meta-dmg   share-dmg   degraded-ok   repaired   rewritten   intact-after\n",
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:<15} {:>2}/{:<2} {:>9} {:>11} {:>13} {:>10} {:>11} {:>14}",
            p.policy,
            p.m,
            p.n,
            p.metadata_replicas_damaged,
            p.shares_damaged,
            p.degraded_reads_ok,
            p.objects_repaired,
            p.shares_rewritten,
            p.scavenge_intact_after,
        );
    }
    s
}

/// Pin the exact k-of-n recovery boundary for `Disperse{2,4}`.
///
/// Destroying any `n - m` shares of *every* group must leave every byte
/// recoverable both by a warm (degraded) read and by offline repair; one
/// more destroyed share in any group must fail closed — a clean error, no
/// partial plaintext.  Returns an error message instead of panicking so
/// `repro` can print context.
pub fn smoke() -> Result<(), String> {
    let policy = Policy::Disperse { m: 2, n: 4 };
    let (m, n) = policy.shares();
    let files = 3usize;
    let file_kb = 8usize;
    let fs = build_volume(policy, files, file_kb);
    let dev = fs.plain_fs().device().clone();
    let zero = |block| dev.zero_block(block).map_err(|e| format!("zero: {e}"));
    let extents = |file: &str| {
        fs.hidden_share_extents(file, UAK)
            .map_err(|e| format!("extents: {e}"))
    };

    // Phase 1: exactly n - m shares of every group destroyed.
    for i in 0..files {
        for (g, group) in extents(&name(i))?.iter().enumerate() {
            for k in 0..(n - m) {
                // Mix the damage modes across groups.
                let victim = group[(g + k) % n];
                if k % 2 == 0 {
                    zero(victim)?;
                } else {
                    dev.overwrite_region(victim, 1, victim ^ 0xdead)
                        .map_err(|e| format!("junk: {e}"))?;
                }
            }
        }
    }
    fs.purge_read_caches();

    // Degraded reads must already be byte-identical (checksum fallback).
    for i in 0..files {
        check_identical(&fs, i, file_kb, "degraded")?;
    }

    // Offline repair must rebuild every destroyed share and leave nothing
    // lost; afterwards reads come from fully healed groups.
    let report = scavenge(&fs, &[UAK]).map_err(|e| format!("scavenge: {e}"))?;
    if !report.all_recovered() || report.objects_repaired != files {
        return Err(format!("scavenge did not repair everything: {report:?}"));
    }
    fs.purge_read_caches();
    for i in 0..files {
        check_identical(&fs, i, file_kb, "post-repair")?;
    }

    // Phase 2: one more share destroyed in one group of file 0 — beyond
    // tolerance.  The read must fail closed and the scavenger must report
    // the object lost without writing anything.
    for &b in extents("survival-0")?[0].iter().take(n - m + 1) {
        zero(b)?;
    }
    fs.purge_read_caches();
    match fs.read_hidden_with_key("survival-0", UAK) {
        Ok(_) => return Err("read beyond tolerance returned data".into()),
        Err(e) if e.to_string().contains("live shares") => {}
        Err(e) => return Err(format!("expected a fail-closed share error, got: {e}")),
    }
    let report = scavenge(&fs, &[UAK]).map_err(|e| format!("scavenge: {e}"))?;
    if report.objects_lost != 1 || report.lost != vec!["survival-0".to_string()] {
        return Err(format!("expected exactly survival-0 lost: {report:?}"));
    }
    // The other files are untouched by the second round of damage.
    for i in 1..files {
        check_identical(&fs, i, file_kb, "bystander")?;
    }

    // Phase 3: metadata damage within tolerance on survival-1 — n-m header
    // replicas and n-m chain replicas destroyed.  The live read must be
    // byte-identical, a scavenge pass must repair exactly survival-1 (and
    // report survival-0 lost again), and a second pass must find nothing
    // left to repair.
    for group in &metadata_groups(&fs, "survival-1") {
        for &b in group.iter().take(n - m) {
            zero(b)?;
        }
    }
    fs.purge_read_caches();
    check_identical(&fs, 1, file_kb, "metadata-degraded")?;
    let report = scavenge(&fs, &[UAK]).map_err(|e| format!("scavenge: {e}"))?;
    if report.objects_repaired != 1 || report.shares_rewritten == 0 || report.objects_lost != 1 {
        return Err(format!("expected survival-1 repaired: {report:?}"));
    }
    let again = scavenge(&fs, &[UAK]).map_err(|e| format!("scavenge: {e}"))?;
    if again.objects_repaired != 0 || again.objects_intact != files - 1 {
        return Err(format!(
            "repair left survival-1 not fully redundant: {again:?}"
        ));
    }

    // Phase 4: metadata damage beyond tolerance on survival-2 — every
    // header replica destroyed.  The read must fail closed in the deniable
    // absent-object family and the scavenger must report it lost.
    for &b in &metadata_groups(&fs, "survival-2")[0] {
        zero(b)?;
    }
    fs.purge_read_caches();
    match fs.read_hidden_with_key("survival-2", UAK) {
        Ok(_) => return Err("read with destroyed header returned data".into()),
        Err(e) if e.is_not_found() => {}
        Err(e) => return Err(format!("expected the absent-object family, got: {e}")),
    }
    let report = scavenge(&fs, &[UAK]).map_err(|e| format!("scavenge: {e}"))?;
    if report.objects_lost != 2 || !report.lost.contains(&"survival-2".to_string()) {
        return Err(format!(
            "expected survival-0 and survival-2 lost after metadata destruction: {report:?}"
        ));
    }
    Ok(())
}

/// Operator-facing walk-through of the offline scavenger: build a coded
/// volume, damage it, repair it in place, and narrate the result.  This is
/// what `repro --scavenge` prints.
pub fn scavenge_demo() -> String {
    let mut s =
        String::from("Offline scavenge demo (Disperse{m:2, n:4}, damage then keyed repair)\n");
    let policy = Policy::Disperse { m: 2, n: 4 };
    let files = 4usize;
    let file_kb = 16usize;
    let fs = build_volume(policy, files, file_kb);
    let dev = fs.plain_fs().device().clone();

    let all_shares = all_shares(&fs, files);
    let damage = dev
        .corrupt_random_in(&all_shares, all_shares.len() / 5, 0xda_ba_9e)
        .expect("damage");
    fs.purge_read_caches();
    let _ = writeln!(
        s,
        "damaged {} of {} share blocks ({} bit-rotted, {} zeroed, {} overwritten)",
        damage.blocks_damaged(),
        all_shares.len(),
        damage.blocks_bitflipped,
        damage.blocks_zeroed,
        damage.blocks_overwritten,
    );

    let report = scavenge(&fs, &[UAK]).expect("scavenge");
    let _ = writeln!(
        s,
        "scavenge: {} scanned, {} intact, {} repaired ({} shares rewritten), {} lost",
        report.objects_scanned,
        report.objects_intact,
        report.objects_repaired,
        report.shares_rewritten,
        report.objects_lost,
    );
    for name in &report.lost {
        let _ = writeln!(s, "  lost: {name}");
    }
    let survived = count_identical(&fs, files, file_kb);
    let _ = writeln!(
        s,
        "post-repair verification: {survived}/{files} byte-identical"
    );
    s
}

/// Render the sweep as a text table.
pub fn render(points: &[SurvivalPoint]) -> String {
    let mut s = String::from(
        "Survivability sweep (randomized share damage, then keyed scavenge)\n\
         policy           m/n    write-amp   objects   damaged   repaired   lost   survival\n",
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:<15} {:>2}/{:<2} {:>10.2} {:>9} {:>9} {:>10} {:>6} {:>9.0}%",
            p.policy,
            p.m,
            p.n,
            p.write_amp,
            p.objects,
            p.blocks_damaged,
            p.objects_repaired,
            p.objects_lost,
            p.survival_rate * 100.0,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pins_the_recovery_boundary() {
        smoke().unwrap();
    }

    #[test]
    fn tiny_sweep_orders_policies_sanely() {
        let points = run_sweep(2, 4, 0.12, 99);
        assert_eq!(points.len(), POLICIES.len());
        let by = |name: &str| points.iter().find(|p| p.policy == name).unwrap();
        // Amplification reflects the policy (padding can only raise it).
        assert!((by("plain").write_amp - 1.0).abs() < 0.01);
        assert!(by("replicate-2").write_amp >= 2.0);
        assert!(by("disperse-2of4").write_amp >= 2.0);
        assert!(by("disperse-2of3").write_amp < by("replicate-2").write_amp);
        // Redundant policies must not survive worse than plain under the
        // same damage fraction (plain repairs nothing by construction).
        assert_eq!(by("plain").objects_repaired, 0);
    }

    // The test below runs the metadata sweep at `repro --survival --smoke`
    // size (2 files x 4 KiB) and holds its result struct to what the sweep
    // exists to show; `repro` itself only prints it.

    #[test]
    fn metadata_damage_heals_under_every_coded_policy() {
        let points = run_metadata_sweep(2, 4, 0x4d45_5441);
        assert_eq!(points.len(), POLICIES.len() - 1, "every policy but plain");
        for p in &points {
            assert!(p.metadata_replicas_damaged > 0, "no metadata damage: {p:?}");
            assert_eq!(p.objects_repaired, p.objects, "repair incomplete: {p:?}");
            assert!(p.shares_rewritten > 0, "nothing rewritten: {p:?}");
            assert_eq!(
                p.degraded_reads_ok, p.objects,
                "degraded read lost bytes: {p:?}"
            );
            assert_eq!(p.byte_identical, p.objects, "healed read differs: {p:?}");
            assert_eq!(
                p.scavenge_intact_after, p.objects,
                "repair left replicas thin: {p:?}"
            );
        }
    }
}
