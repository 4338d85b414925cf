//! Order statistics the benchmark reports: percentiles under the
//! "ten samples beyond" rule, medians, and the quartile spread the
//! acceptance contract is written in.

/// Sort a sample ascending (NaN-free by construction: every value is a
/// measured duration or count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    values
}

/// Median of a sample (mean of the middle pair for even sizes); 0 for
/// an empty one.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Plain nearest-rank percentile `p` of an ascending sample (0 when
/// empty) — for per-window statistics, of which a quartile over windows
/// is what is reported.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Nearest-rank percentile `p` of an ascending sample, lowered until at
/// least ten samples lie beyond it (a p99 read off 200 samples is the
/// single worst request, not a percentile). Never lowered below the
/// median; an empty sample reports 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let asked = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let supported = n.saturating_sub(11);
    let floor = (n - 1) / 2;
    sorted[asked.min(supported.max(floor))]
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the acceptance rule is stated in those terms. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The favourable quartile of per-window values: the first quartile of
/// a cost, the third of a rate (one window's value when there is only
/// one, 0 when there is none).
///
/// The disturbances of a shared host are one-sided — a stolen or paused
/// vCPU only ever makes a window slower — and on the builder's host
/// they spoil up to half the windows of some runs, which moves even the
/// median. The quartile on the undisturbed side sits among the windows
/// the host left alone. A change to the product moves every window, and
/// with them this quartile.
pub fn favourable(values: &[f64], lower_is_better: bool) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => {
            if lower_is_better {
                q1
            } else {
                q3
            }
        }
        None => values.first().copied().unwrap_or(0.0),
    }
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the contract bounds.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        // 1 000 samples support p99 exactly: rank 990, ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), 990.0);
        // 500 samples do not: p99 would leave five beyond, so the
        // report drops to rank 490 (ten beyond it), which is p98.
        assert_eq!(percentile(&ramp(500), 0.99), 490.0);
        // The median is always supported, even by a tiny sample.
        assert_eq!(percentile(&ramp(5), 0.99), 3.0);
        assert_eq!(percentile(&ramp(1000), 0.5), 500.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        // The per-window form never lowers.
        assert_eq!(nearest_rank(&ramp(500), 0.99), 495.0);
        assert_eq!(nearest_rank(&ramp(20), 0.95), 19.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[7.0]), None);
        assert!((spread(&ramp(10)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn favourable_quartile_ignores_disturbed_windows() {
        // Nine one-second windows of a p90, five of them hit by the host.
        let p90s = [1.63, 1.08, 1.03, 1.28, 1.61, 2.13, 2.45, 1.04, 1.01];
        let q1 = favourable(&p90s, true);
        assert!((1.03..=1.04).contains(&q1), "{q1}");
        assert!(median(&p90s) > 1.25);
        // Rates take the other side.
        assert_eq!(favourable(&[100.0, 90.0, 99.0, 101.0, 60.0], false), 100.5);
        assert_eq!(favourable(&[7.0], true), 7.0);
        assert_eq!(favourable(&[], false), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
