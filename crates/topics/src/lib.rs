//! Topic space, user profiles and advertisement queries for KB-TIM (§3.1).
//!
//! Each user `v` carries a sparse weighted term vector `tf(w, v)` over a
//! universal topic space `T`; an advertisement is a keyword set `Q.T ⊆ T`.
//! Relevance uses the tf-idf model:
//!
//! ```text
//! φ(v, Q)  = Σ_{w ∈ Q.T}  tf(w, v) · idf(w)          (Eqn 1)
//! φ_Q      = Σ_{v ∈ V}    φ(v, Q)                     (normaliser of Eqn 3)
//! ```
//!
//! [`UserProfiles`] stores the vectors twice — a per-user CSR for scoring
//! `φ(v, Q)` and a per-topic inverted CSR for the per-keyword samplers
//! `ps(v, w) ∝ tf(w, v)` used by offline index construction (§4.1) — plus
//! the per-topic aggregates (`Σ_v tf(w, v)`, document frequency, idf) that
//! the θ formulas (Eqns 8/10) consume.
//!
//! The [`workload`] module generates Zipf-skewed synthetic profiles and
//! keyword-query workloads standing in for the paper's LDA topics and AOL
//! query log.

pub mod io;
pub mod workload;
pub mod zipf;

use kbtim_graph::NodeId;

/// Dense topic identifier (`0..num_topics`).
pub type TopicId = u32;

/// A KB-TIM advertisement query `Q = (Q.T, Q.k)` (Definition 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    topics: Vec<TopicId>,
    k: u32,
}

impl Query {
    /// Build a query from a keyword set and seed count. Topics are
    /// deduplicated and sorted; `k` must be at least 1.
    pub fn new(topics: impl IntoIterator<Item = TopicId>, k: u32) -> Query {
        assert!(k >= 1, "Q.k must be >= 1");
        let mut topics: Vec<TopicId> = topics.into_iter().collect();
        topics.sort_unstable();
        topics.dedup();
        assert!(!topics.is_empty(), "Q.T must not be empty");
        Query { topics, k }
    }

    /// The keyword set `Q.T`, sorted ascending.
    pub fn topics(&self) -> &[TopicId] {
        &self.topics
    }

    /// Number of seeds requested, `Q.k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of keywords `|Q.T|`.
    pub fn num_topics(&self) -> usize {
        self.topics.len()
    }
}

/// Sparse tf-idf user profiles over a topic space.
///
/// Immutable once built. All `tf` values must be positive and finite; a
/// user/topic pair absent from the structure has `tf = 0`.
#[derive(Debug, Clone)]
pub struct UserProfiles {
    num_users: u32,
    num_topics: u32,
    // Per-user CSR.
    user_offsets: Vec<u64>,
    user_topics: Vec<TopicId>,
    user_tfs: Vec<f32>,
    // Per-topic inverted CSR.
    topic_offsets: Vec<u64>,
    topic_users: Vec<NodeId>,
    topic_tfs: Vec<f32>,
    // Per-topic aggregates.
    tf_sums: Vec<f64>,
    doc_freq: Vec<u32>,
    idf: Vec<f64>,
}

impl UserProfiles {
    /// Build profiles from `(user, topic, tf)` triples.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids, non-positive/non-finite `tf`, or a
    /// duplicate `(user, topic)` pair.
    pub fn from_entries(
        num_users: u32,
        num_topics: u32,
        entries: &[(NodeId, TopicId, f32)],
    ) -> UserProfiles {
        let mut triples: Vec<(NodeId, TopicId, f32)> = entries.to_vec();
        for &(u, w, tf) in &triples {
            assert!(u < num_users, "user {u} out of range");
            assert!(w < num_topics, "topic {w} out of range");
            assert!(tf.is_finite() && tf > 0.0, "tf must be positive and finite, got {tf}");
        }
        triples.sort_unstable_by_key(|t| (t.0, t.1));
        for pair in triples.windows(2) {
            assert!(
                (pair[0].0, pair[0].1) != (pair[1].0, pair[1].1),
                "duplicate (user, topic) entry ({}, {})",
                pair[0].0,
                pair[0].1
            );
        }

        // Per-user CSR.
        let nu = num_users as usize;
        let nt = num_topics as usize;
        let mut user_offsets = vec![0u64; nu + 1];
        for &(u, _, _) in &triples {
            user_offsets[u as usize + 1] += 1;
        }
        for i in 0..nu {
            user_offsets[i + 1] += user_offsets[i];
        }
        let user_topics: Vec<TopicId> = triples.iter().map(|t| t.1).collect();
        let user_tfs: Vec<f32> = triples.iter().map(|t| t.2).collect();

        // Per-topic inverted CSR via stable counting sort.
        let mut topic_offsets = vec![0u64; nt + 1];
        for &(_, w, _) in &triples {
            topic_offsets[w as usize + 1] += 1;
        }
        for i in 0..nt {
            topic_offsets[i + 1] += topic_offsets[i];
        }
        let mut cursor = topic_offsets.clone();
        let mut topic_users = vec![0 as NodeId; triples.len()];
        let mut topic_tfs = vec![0f32; triples.len()];
        for &(u, w, tf) in &triples {
            let slot = cursor[w as usize] as usize;
            topic_users[slot] = u;
            topic_tfs[slot] = tf;
            cursor[w as usize] += 1;
        }

        // Aggregates.
        let mut tf_sums = vec![0f64; nt];
        let mut doc_freq = vec![0u32; nt];
        for &(_, w, tf) in &triples {
            tf_sums[w as usize] += tf as f64;
            doc_freq[w as usize] += 1;
        }
        // idf(w) = ln(1 + |V| / df(w)); topics nobody holds get idf 0 so
        // they contribute nothing anywhere.
        let idf = doc_freq
            .iter()
            .map(|&df| if df == 0 { 0.0 } else { (1.0 + num_users as f64 / df as f64).ln() })
            .collect();

        UserProfiles {
            num_users,
            num_topics,
            user_offsets,
            user_topics,
            user_tfs,
            topic_offsets,
            topic_users,
            topic_tfs,
            tf_sums,
            doc_freq,
            idf,
        }
    }

    /// Number of users.
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Size of the topic space `|T|`.
    pub fn num_topics(&self) -> u32 {
        self.num_topics
    }

    /// Total number of nonzero `(user, topic)` entries.
    pub fn num_entries(&self) -> u64 {
        self.user_topics.len() as u64
    }

    /// `tf(w, v)`, or 0 when the user does not hold the topic.
    pub fn tf(&self, user: NodeId, topic: TopicId) -> f32 {
        let (topics, tfs) = self.user_vector(user);
        match topics.binary_search(&topic) {
            Ok(i) => tfs[i],
            Err(_) => 0.0,
        }
    }

    /// The sparse vector of one user: parallel `(topics, tfs)` slices.
    pub fn user_vector(&self, user: NodeId) -> (&[TopicId], &[f32]) {
        let lo = self.user_offsets[user as usize] as usize;
        let hi = self.user_offsets[user as usize + 1] as usize;
        (&self.user_topics[lo..hi], &self.user_tfs[lo..hi])
    }

    /// The inverted list of one topic: parallel `(users, tfs)` slices,
    /// users ascending.
    pub fn topic_vector(&self, topic: TopicId) -> (&[NodeId], &[f32]) {
        let lo = self.topic_offsets[topic as usize] as usize;
        let hi = self.topic_offsets[topic as usize + 1] as usize;
        (&self.topic_users[lo..hi], &self.topic_tfs[lo..hi])
    }

    /// Document frequency `df(w)`: number of users with `tf(w, v) > 0`.
    pub fn doc_freq(&self, topic: TopicId) -> u32 {
        self.doc_freq[topic as usize]
    }

    /// Inverse document frequency `idf(w) = ln(1 + |V|/df(w))`; 0 for
    /// topics nobody holds.
    pub fn idf(&self, topic: TopicId) -> f64 {
        self.idf[topic as usize]
    }

    /// `Σ_v tf(w, v)` — the factor of Eqns 8–10.
    pub fn tf_sum(&self, topic: TopicId) -> f64 {
        self.tf_sums[topic as usize]
    }

    /// `φ_w = Σ_v tf(w, v) · idf(w)` — one keyword's total relevance mass.
    pub fn keyword_mass(&self, topic: TopicId) -> f64 {
        self.tf_sums[topic as usize] * self.idf[topic as usize]
    }

    /// `φ(v, Q)` — the tf-idf impact of advertisement `Q` on user `v`
    /// (Eqn 1).
    pub fn phi(&self, user: NodeId, query: &Query) -> f64 {
        let (topics, tfs) = self.user_vector(user);
        let mut acc = 0.0f64;
        // Merge-scan: both `topics` and `query.topics()` are sorted.
        let mut qi = 0;
        let qt = query.topics();
        for (i, &w) in topics.iter().enumerate() {
            while qi < qt.len() && qt[qi] < w {
                qi += 1;
            }
            if qi == qt.len() {
                break;
            }
            if qt[qi] == w {
                acc += tfs[i] as f64 * self.idf[w as usize];
            }
        }
        acc
    }

    /// `φ_Q = Σ_v φ(v, Q) = Σ_{w ∈ Q.T} φ_w` — the weighted-sampling
    /// normaliser of Eqn 3.
    pub fn phi_q(&self, query: &Query) -> f64 {
        query.topics().iter().map(|&w| self.keyword_mass(w)).sum()
    }

    /// The per-keyword mixture weight `p_w = φ_w / φ_Q` of Eqn 7.
    ///
    /// Returns 0 for every keyword when `φ_Q = 0` (a query over topics
    /// nobody holds).
    pub fn keyword_proportion(&self, query: &Query, topic: TopicId) -> f64 {
        let phi_q = self.phi_q(query);
        if phi_q <= 0.0 {
            0.0
        } else {
            self.keyword_mass(topic) / phi_q
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two users, three topics:
    ///   user 0: topic 0 → 0.6, topic 1 → 0.4
    ///   user 1: topic 1 → 1.0
    fn sample() -> UserProfiles {
        UserProfiles::from_entries(2, 3, &[(0, 0, 0.6), (0, 1, 0.4), (1, 1, 1.0)])
    }

    #[test]
    fn tf_lookup() {
        let p = sample();
        assert_eq!(p.tf(0, 0), 0.6);
        assert_eq!(p.tf(0, 1), 0.4);
        assert_eq!(p.tf(0, 2), 0.0);
        assert_eq!(p.tf(1, 0), 0.0);
        assert_eq!(p.tf(1, 1), 1.0);
    }

    #[test]
    fn aggregates() {
        let p = sample();
        assert_eq!(p.doc_freq(0), 1);
        assert_eq!(p.doc_freq(1), 2);
        assert_eq!(p.doc_freq(2), 0);
        assert!((p.tf_sum(1) - 1.4).abs() < 1e-6);
        assert_eq!(p.idf(2), 0.0);
        assert!((p.idf(0) - (1.0f64 + 2.0).ln()).abs() < 1e-12);
        assert!((p.idf(1) - (1.0f64 + 1.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn phi_matches_manual_sum() {
        let p = sample();
        let q = Query::new([0, 1], 1);
        let expect0 = 0.6 * p.idf(0) + 0.4 * p.idf(1);
        let expect1 = 1.0 * p.idf(1);
        assert!((p.phi(0, &q) - expect0).abs() < 1e-6);
        assert!((p.phi(1, &q) - expect1).abs() < 1e-6);
        assert!((p.phi_q(&q) - (expect0 + expect1)).abs() < 1e-6);
    }

    #[test]
    fn phi_q_equals_sum_of_keyword_masses() {
        let p = sample();
        let q = Query::new([0, 1, 2], 3);
        let mass: f64 = q.topics().iter().map(|&w| p.keyword_mass(w)).sum();
        assert!((p.phi_q(&q) - mass).abs() < 1e-12);
    }

    #[test]
    fn keyword_proportions_sum_to_one() {
        let p = sample();
        let q = Query::new([0, 1], 2);
        let total: f64 = q.topics().iter().map(|&w| p.keyword_proportion(&q, w)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_topic_query_is_zero_mass() {
        let p = sample();
        let q = Query::new([2], 1);
        assert_eq!(p.phi_q(&q), 0.0);
        assert_eq!(p.keyword_proportion(&q, 2), 0.0);
    }

    #[test]
    fn topic_vector_is_inverted_user_vector() {
        let p = sample();
        let (users, tfs) = p.topic_vector(1);
        assert_eq!(users, &[0, 1]);
        assert_eq!(tfs, &[0.4, 1.0]);
        let (users0, _) = p.topic_vector(0);
        assert_eq!(users0, &[0]);
        let (users2, _) = p.topic_vector(2);
        assert!(users2.is_empty());
    }

    #[test]
    fn query_normalizes_topics() {
        let q = Query::new([3, 1, 3, 2], 5);
        assert_eq!(q.topics(), &[1, 2, 3]);
        assert_eq!(q.k(), 5);
        assert_eq!(q.num_topics(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_entry_panics() {
        UserProfiles::from_entries(2, 2, &[(0, 0, 0.5), (0, 0, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_tf_panics() {
        UserProfiles::from_entries(1, 1, &[(0, 0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "Q.T must not be empty")]
    fn empty_query_panics() {
        Query::new(std::iter::empty(), 1);
    }

    #[test]
    fn no_entries_is_valid() {
        let p = UserProfiles::from_entries(3, 2, &[]);
        assert_eq!(p.num_entries(), 0);
        assert_eq!(p.tf(2, 1), 0.0);
        let q = Query::new([0], 1);
        assert_eq!(p.phi_q(&q), 0.0);
    }
}
