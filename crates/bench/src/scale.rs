//! Experiment scale presets.
//!
//! The paper ran on a 60 GB server against graphs with up to 1.3 B edges;
//! this reproduction targets laptops. Two presets keep the *shape* of
//! every experiment while bounding wall-clock time; `full` is the larger
//! of the two.

/// All knobs that size an experiment run.
#[derive(Debug, Clone)]
pub struct ExpScale {
    /// Preset name ("small" / "full"), echoed in report headers.
    pub name: &'static str,
    /// News-family |V| sweep (paper: 0.2M–1.4M).
    pub news_sizes: Vec<u32>,
    /// Twitter-family |V| sweep (paper: 10M–40M).
    pub twitter_sizes: Vec<u32>,
    /// Topic-space size (paper: 200).
    pub num_topics: u32,
    /// Per-keyword θ cap for news builds.
    pub news_theta_cap: u64,
    /// Per-keyword θ cap for twitter builds.
    pub twitter_theta_cap: u64,
    /// θ cap used by the *online* WRIS baseline at query time.
    pub wris_theta_cap: u64,
    /// Queries measured per data point (paper: 100).
    pub queries_per_length: usize,
    /// Queries measured per data point for the slow WRIS baseline.
    pub wris_queries: usize,
    /// The `Q.k` sweep of Figure 5 / Tables 6–7.
    pub k_values: Vec<u32>,
    /// The `|Q.T|` sweep of Figure 6.
    pub keyword_counts: Vec<usize>,
    /// Default `Q.k` (paper: 30).
    pub default_k: u32,
    /// Default `|Q.T|` (paper: 5).
    pub default_keywords: usize,
    /// Monte-Carlo rounds for spread ground truth (Table 7).
    pub mc_rounds: u32,
    /// ε used everywhere (paper: 0.1).
    pub eps: f64,
    /// `K` — the Q.k upper bound baked into the index (paper: 100).
    pub k_max: u32,
}

impl ExpScale {
    /// Minutes-scale smoke preset.
    pub fn small() -> ExpScale {
        ExpScale {
            name: "small",
            news_sizes: vec![5_000, 10_000, 15_000, 20_000],
            twitter_sizes: vec![3_000, 5_000, 8_000, 10_000],
            num_topics: 24,
            news_theta_cap: 15_000,
            twitter_theta_cap: 10_000,
            wris_theta_cap: 150_000,
            queries_per_length: 5,
            wris_queries: 2,
            k_values: vec![10, 20, 30, 40, 50],
            keyword_counts: vec![1, 2, 3, 4, 5, 6],
            default_k: 30,
            default_keywords: 5,
            mc_rounds: 2_000,
            // ε = 1.0 keeps the θ formulas un-capped at laptop scale so the
            // growth trends of Tables 3/5 and Figure 7 are visible; the
            // bound is a uniform 1/ε² factor.
            eps: 1.0,
            k_max: 50,
        }
    }

    /// The full-scale preset (÷10 news, ÷1000 twitter vs the paper).
    pub fn full() -> ExpScale {
        ExpScale {
            name: "full",
            news_sizes: vec![20_000, 60_000, 100_000, 140_000],
            twitter_sizes: vec![10_000, 20_000, 30_000, 40_000],
            num_topics: 48,
            news_theta_cap: 40_000,
            twitter_theta_cap: 25_000,
            wris_theta_cap: 400_000,
            queries_per_length: 10,
            wris_queries: 1,
            k_values: vec![10, 15, 20, 25, 30, 35, 40, 45, 50],
            keyword_counts: vec![1, 2, 3, 4, 5, 6],
            default_k: 30,
            default_keywords: 5,
            mc_rounds: 2_000,
            // See ExpScale::small on ε.
            eps: 1.0,
            k_max: 50,
        }
    }

    /// Tiny preset for the crate's unit tests; not selectable by name.
    pub fn bench() -> ExpScale {
        ExpScale {
            name: "bench",
            news_sizes: vec![2_000],
            twitter_sizes: vec![2_000],
            num_topics: 12,
            news_theta_cap: 4_000,
            twitter_theta_cap: 3_000,
            wris_theta_cap: 20_000,
            queries_per_length: 3,
            wris_queries: 1,
            k_values: vec![10, 30, 50],
            keyword_counts: vec![1, 3, 6],
            default_k: 30,
            default_keywords: 3,
            mc_rounds: 500,
            eps: 0.5,
            k_max: 50,
        }
    }

    /// Parse a preset by name.
    pub fn by_name(name: &str) -> Option<ExpScale> {
        match name {
            "small" => Some(ExpScale::small()),
            "full" => Some(ExpScale::full()),
            _ => None,
        }
    }

    /// The "default" dataset sizes used by single-dataset experiments
    /// (paper: n0.6M and t10M).
    pub fn default_news_size(&self) -> u32 {
        self.news_sizes.get(1).copied().unwrap_or(self.news_sizes[0])
    }

    /// See [`ExpScale::default_news_size`].
    pub fn default_twitter_size(&self) -> u32 {
        self.twitter_sizes[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        for name in ["small", "full"] {
            let scale = ExpScale::by_name(name).unwrap();
            assert_eq!(scale.name, name);
            assert!(!scale.news_sizes.is_empty());
            assert!(!scale.twitter_sizes.is_empty());
        }
        assert!(ExpScale::by_name("nope").is_none());
    }

    #[test]
    fn full_matches_scaled_table2() {
        let full = ExpScale::full();
        assert_eq!(full.news_sizes, vec![20_000, 60_000, 100_000, 140_000]);
        assert_eq!(full.twitter_sizes, vec![10_000, 20_000, 30_000, 40_000]);
        assert_eq!(full.k_values.len(), 9);
        assert_eq!(full.default_k, 30);
        assert_eq!(full.default_keywords, 5);
    }

    #[test]
    fn default_sizes() {
        let s = ExpScale::small();
        assert_eq!(s.default_news_size(), 10_000);
        assert_eq!(s.default_twitter_size(), 3_000);
    }
}
