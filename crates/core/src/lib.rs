//! Core KB-TIM algorithms (§2–§3 of the paper).
//!
//! This crate holds everything between the propagation substrate and the
//! disk indexes:
//!
//! * [`maxcover`] — the greedy maximum-coverage solver (step 2 of RIS),
//!   in naive and lazy (CELF-style) variants with identical, deterministic
//!   tie-breaking.
//! * [`invindex`] / [`bitset`] — the flat data path under the solver: a
//!   counting-sort CSR inverted index (node → set ids, one arena) and the
//!   word-packed coverage bitset the CELF loop marks into.
//! * [`alias`] — O(1) weighted sampling (Vose alias method) for the
//!   weighted root distributions `ps(v, Q)` and `ps(v, w)`.
//! * [`theta`] — the sample-size bounds: Theorem 1 (RIS), Eqn 6 (WRIS),
//!   Eqn 8 (`θ̂_w`) and Eqn 10 (`θ_w`), plus `ln C(n, k)` via a Lanczos
//!   log-gamma.
//! * [`opt`] — the iterative greedy lower-bound estimator for `OPT`
//!   (adapting the estimation approach of TIM \[21\]).
//! * [`wris`] — the paper's online solution: weighted RIS sampling with the
//!   `(1 − 1/e − ε)` guarantee (§3.2).
//! * [`ris`] — the uniform-sampling RIS baseline (§2.2), which ignores the
//!   query and reproduces the "same seeds for every advertisement"
//!   behaviour of Table 8's last row.
//! * [`engine`] — a convenience facade bundling graph + profiles + model.
//! * [`paper_example`] — the worked Figure 1 instance with its documented
//!   expected values, used as an exact test oracle.

#![deny(missing_docs)]

pub mod alias;
pub mod baselines;
pub mod bitset;
pub mod engine;
pub mod invindex;
pub mod maxcover;
pub mod opt;
pub mod paper_example;
pub mod prefetch;
pub mod ris;
pub mod theta;
pub mod wris;

pub use bitset::Bitset;
pub use engine::KbTimEngine;
pub use invindex::{InvertedIndex, InvertedIndexBuilder, InvertedIndexFiller};
pub use maxcover::{
    greedy_max_cover, greedy_max_cover_batch, greedy_max_cover_naive, MaxCoverResult,
};
pub use theta::SamplingConfig;
pub use wris::{wris_query, WrisResult};
