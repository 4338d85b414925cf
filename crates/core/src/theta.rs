//! Sample-size bounds: how many RR sets guarantee `(1 − 1/e − ε)`.
//!
//! The paper's bounds (all denominators use an *estimate* of the unknown
//! optimum, produced by [`crate::opt`]):
//!
//! ```text
//! Theorem 1 (RIS):   θ  ≥ (8+2ε)·|V| · (ln|V| + ln C(|V|,k) + ln 2) / (OPT_k · ε²)
//! Eqn 6    (WRIS):   θ  ≥ (8+2ε)·φ_Q · (ln|V| + ln C(|V|,Q.k) + ln 2) / (OPT^Q_k · ε²)
//! Eqn 8    (θ̂_w):   θ̂_w = (8+2ε)·Σtf_w · (ln|V| + ln C(|V|,K) + ln 2) / (OPT^w_1 · ε²)
//! Eqn 10   (θ_w):    θ_w = (8+2ε)·Σtf_w · (ln|V| + ln C(|V|,K) + ln 2) / (OPT^w_K · ε²)
//! ```
//!
//! Eqn 10 is the paper's "improved estimation" (§4.3): replacing the
//! singleton optimum `OPT^w_1` with the size-`K` optimum `OPT^w_K` shrinks
//! the per-keyword index by an order of magnitude (their Table 3) while
//! Lemma 4 keeps `θ_w ≥ θ·p_w`, preserving the guarantee.
//!
//! `ln C(n, k)` is computed exactly via log-gamma (Lanczos approximation),
//! not the `k·ln n` upper bound, matching the paper's formulas.

/// Tuning knobs shared by every sampler in the crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Approximation slack ε of the `(1 − 1/e − ε)` guarantee. The paper
    /// fixes ε = 0.1 in all experiments.
    pub eps: f64,
    /// `K`: the system-wide upper bound on `Q.k` (paper: 100, queries up
    /// to 50).
    pub k_max: u32,
    /// Optional hard cap on any single θ value. The paper's server-scale
    /// settings produce θ_w in the hundreds of thousands; laptop-scale
    /// benches cap it to bound build time. `None` = faithful, uncapped.
    pub theta_cap: Option<u64>,
    /// RR sets drawn in the first round of OPT estimation.
    pub opt_initial_samples: u64,
    /// Maximum doubling rounds of OPT estimation.
    pub opt_max_rounds: u32,
    /// Relative-change threshold at which the OPT estimate is considered
    /// converged.
    pub opt_tolerance: f64,
    /// Worker threads for the parallel sampling/coverage paths; `None`
    /// uses the machine's available parallelism. Results are **identical
    /// for every value** — work is sharded deterministically with
    /// per-shard RNG streams (see `kbtim-exec`), so this knob trades
    /// wall-clock time only, never reproducibility.
    pub threads: Option<usize>,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl SamplingConfig {
    /// The paper's experimental settings: ε = 0.1, K = 100, uncapped.
    pub fn paper() -> SamplingConfig {
        SamplingConfig {
            eps: 0.1,
            k_max: 100,
            theta_cap: None,
            opt_initial_samples: 512,
            opt_max_rounds: 16,
            opt_tolerance: 0.1,
            threads: None,
        }
    }

    /// Laptop-scale settings used by tests, examples and benches:
    /// ε = 0.5, K = 50, θ capped at 200 000 per computation. The θ formulas
    /// are unchanged — only the constants differ.
    pub fn fast() -> SamplingConfig {
        SamplingConfig {
            eps: 0.5,
            k_max: 50,
            theta_cap: Some(200_000),
            opt_initial_samples: 256,
            opt_max_rounds: 12,
            opt_tolerance: 0.15,
            threads: None,
        }
    }

    /// Executor for this configuration's `threads` setting.
    pub fn pool(&self) -> kbtim_exec::ExecPool {
        kbtim_exec::ExecPool::new(self.threads)
    }

    /// Apply the configured cap and rounding to a raw θ bound.
    pub fn finalize_theta(&self, raw: f64) -> u64 {
        let theta = raw.max(1.0).ceil() as u64;
        match self.theta_cap {
            Some(cap) => theta.min(cap),
            None => theta,
        }
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
///
/// Accurate to ~1e-13 relative error for x > 0, which is far tighter than
/// the concentration constants feeding it.
#[allow(clippy::excessive_precision)] // Lanczos constants kept at published precision
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    const SQRT_TWO_PI: f64 = 2.506_628_274_631_000_5;
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_93;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    (SQRT_TWO_PI * acc).ln() + (x + 0.5) * t.ln() - t
}

/// `ln C(n, k)` — log binomial coefficient; 0 when `k == 0 || k == n`,
/// `-inf`-free: out-of-range `k > n` is a panic (caller bug).
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose requires k <= n (got {k} > {n})");
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Shared numerator `ln|V| + ln C(|V|, k) + ln 2` of every θ bound.
fn log_term(num_nodes: u64, k: u64) -> f64 {
    let k = k.min(num_nodes);
    (num_nodes.max(2) as f64).ln() + ln_choose(num_nodes, k) + std::f64::consts::LN_2
}

/// Theorem 1: θ for classic (uniform) RIS on the plain IM problem.
pub fn ris_theta(num_nodes: u64, k: u32, opt: f64, config: &SamplingConfig) -> u64 {
    wris_theta(num_nodes, k, num_nodes as f64, opt, config)
}

/// Eqn 6: θ for WRIS on a KB-TIM query with total relevance mass `φ_Q` and
/// estimated optimum `OPT^{Q.T}_{Q.k}`.
///
/// Returns 0 when `φ_Q = 0` (no targeted user exists).
pub fn wris_theta(num_nodes: u64, k: u32, phi_q: f64, opt: f64, config: &SamplingConfig) -> u64 {
    if phi_q <= 0.0 {
        return 0;
    }
    assert!(opt > 0.0, "OPT estimate must be positive when phi_q > 0");
    let eps = config.eps;
    let raw = (8.0 + 2.0 * eps) * phi_q * log_term(num_nodes, k as u64) / (opt * eps * eps);
    config.finalize_theta(raw)
}

/// Eqn 8 / Eqn 10: the per-keyword index size `θ_w`.
///
/// `tf_sum = Σ_v tf(w, v)` and `opt_w` is the estimated keyword optimum —
/// `OPT^w_1` for the conservative `θ̂_w` (Eqn 8) or `OPT^w_K` for the
/// compact `θ_w` (Eqn 10); both are measured in raw-tf units (the idf
/// factor cancels, see the Lemma 3 proof).
pub fn keyword_theta(num_nodes: u64, tf_sum: f64, opt_w: f64, config: &SamplingConfig) -> u64 {
    if tf_sum <= 0.0 {
        return 0;
    }
    assert!(opt_w > 0.0, "OPT^w estimate must be positive when tf_sum > 0");
    let eps = config.eps;
    let raw =
        (8.0 + 2.0 * eps) * tf_sum * log_term(num_nodes, config.k_max as u64) / (opt_w * eps * eps);
    config.finalize_theta(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_choose_matches_exact_binomials() {
        let exact = |n: u64, k: u64| -> f64 {
            let mut c = 1f64;
            for i in 0..k {
                c = c * (n - i) as f64 / (i + 1) as f64;
            }
            c.ln()
        };
        for &(n, k) in &[(10u64, 3u64), (52, 5), (100, 50), (1000, 2), (7, 7), (7, 0)] {
            let expect = if k == 0 || k == n { 0.0 } else { exact(n, k) };
            assert!(
                (ln_choose(n, k) - expect).abs() < 1e-8,
                "C({n},{k}): {} vs {expect}",
                ln_choose(n, k)
            );
        }
    }

    #[test]
    fn ln_choose_symmetry() {
        for &(n, k) in &[(30u64, 7u64), (100, 13), (64, 32)] {
            assert!((ln_choose(n, k) - ln_choose(n, n - k)).abs() < 1e-8);
        }
    }

    #[test]
    #[should_panic(expected = "k <= n")]
    fn ln_choose_rejects_k_above_n() {
        ln_choose(3, 4);
    }

    #[test]
    fn theta_monotonic_in_eps() {
        let tight = SamplingConfig { eps: 0.1, theta_cap: None, ..SamplingConfig::paper() };
        let loose = SamplingConfig { eps: 0.5, theta_cap: None, ..SamplingConfig::paper() };
        let t_tight = wris_theta(10_000, 20, 500.0, 50.0, &tight);
        let t_loose = wris_theta(10_000, 20, 500.0, 50.0, &loose);
        assert!(t_tight > t_loose * 10, "{t_tight} vs {t_loose}");
    }

    #[test]
    fn theta_scales_with_phi_over_opt() {
        let config = SamplingConfig { theta_cap: None, ..SamplingConfig::fast() };
        let base = wris_theta(10_000, 20, 100.0, 10.0, &config);
        let double_phi = wris_theta(10_000, 20, 200.0, 10.0, &config);
        let double_opt = wris_theta(10_000, 20, 100.0, 20.0, &config);
        // Allow ±1 for ceiling effects.
        assert!((double_phi as i64 - 2 * base as i64).abs() <= 2);
        assert!((double_opt as i64 - (base / 2) as i64).abs() <= 2);
    }

    #[test]
    fn zero_mass_means_zero_theta() {
        let config = SamplingConfig::fast();
        assert_eq!(wris_theta(100, 5, 0.0, 1.0, &config), 0);
        assert_eq!(keyword_theta(100, 0.0, 1.0, &config), 0);
    }

    #[test]
    fn cap_applies() {
        let config = SamplingConfig { theta_cap: Some(1000), ..SamplingConfig::paper() };
        assert_eq!(wris_theta(1_000_000, 50, 1e6, 1.0, &config), 1000);
        let uncapped = SamplingConfig { theta_cap: None, ..config };
        assert!(wris_theta(1_000_000, 50, 1e6, 1.0, &uncapped) > 1000);
    }

    #[test]
    fn ris_theta_is_wris_with_node_mass() {
        let config = SamplingConfig { theta_cap: None, ..SamplingConfig::fast() };
        assert_eq!(ris_theta(5000, 10, 42.0, &config), wris_theta(5000, 10, 5000.0, 42.0, &config));
    }

    #[test]
    fn eqn8_exceeds_eqn10() {
        // OPT^w_1 ≤ OPT^w_K, so θ̂_w (Eqn 8, singleton OPT) ≥ θ_w (Eqn 10).
        let config = SamplingConfig { theta_cap: None, ..SamplingConfig::fast() };
        let opt_1 = 4.0;
        let opt_k = 22.0;
        assert!(
            keyword_theta(10_000, 120.0, opt_1, &config)
                > keyword_theta(10_000, 120.0, opt_k, &config)
        );
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let config = SamplingConfig { theta_cap: None, ..SamplingConfig::fast() };
        // Does not panic: k is clamped to |V| inside log_term.
        let theta = wris_theta(10, 50, 10.0, 1.0, &config);
        assert!(theta > 0);
    }
}
