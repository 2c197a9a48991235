//! What the host tells us (`/proc`) and the order statistics the harness
//! reports.  Linux only, like the rest of the repository's tooling.

use std::fs;

/// Microseconds per `/proc` clock tick (`USER_HZ` is 100 on every Linux
/// the repository targets).
const TICK_US: f64 = 10_000.0;

fn field<T: std::str::FromStr>(text: &str, index: usize) -> Option<T> {
    text.split_ascii_whitespace().nth(index)?.parse().ok()
}

/// CPU time this process has used so far (all threads, user + system), in
/// microseconds; 0 when `/proc` is unreadable.
pub fn process_cpu_us() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; the numbered fields resume after
    // its closing parenthesis, where field 0 is the state letter.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let utime: u64 = field(rest, 11).unwrap_or(0);
    let stime: u64 = field(rest, 12).unwrap_or(0);
    (utime + stime) as f64 * TICK_US
}

/// `(steal, total)` ticks of the whole machine since boot.
pub fn machine_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or("");
    let ticks: Vec<u64> = cpu
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user, so the first eight fields are the total.
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 when `/proc`
/// is unreadable.  Process-wide, which is why `run` gives every workload a
/// process of its own, as the gate does.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| field::<f64>(rest, 0))
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value a quarter of the way up the sorted `values` (the second
/// smallest of eight, the smallest of up to four); 0 for an empty slice.
pub fn low_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 4).copied().unwrap_or(0.0)
}

/// The `q`-quantile (0..=1) of unsorted integer samples by nearest rank.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    *samples.select_nth_unstable(rank).1
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the gate uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_numbers() {
        let (steal, total) = machine_ticks();
        assert!(total > 0 && steal <= total);
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_us();
        let mut x = 1u64;
        while process_cpu_us() - before < 2.0 * TICK_US {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let eight = [8.0, 3.0, 5.0, 1.0, 7.0, 2.0, 6.0, 4.0];
        assert_eq!(
            (low_quartile(&eight), low_quartile(&eight[..4])),
            (2.0, 1.0)
        );
        assert_eq!((low_quartile(&[9.0]), low_quartile(&[])), (9.0, 0.0));
        assert_eq!(percentile(&mut [5, 1, 9, 3, 7], 0.5), 5);
        assert_eq!(percentile(&mut [5, 1, 9, 3, 7], 1.0), 9);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }
}
