//! # kbtim — Real-time Targeted Influence Maximization
//!
//! A Rust reproduction of *"Real-time Targeted Influence Maximization for
//! Online Advertisements"* (Li, Zhang, Tan — PVLDB 8(10), 2015).
//!
//! The paper introduces the **KB-TIM** query: given a social network whose
//! users carry sparse topic profiles, find the `k` seed users maximizing the
//! expected influence *over users relevant to a given advertisement*. This
//! facade crate re-exports the workspace:
//!
//! * [`graph`] — CSR social graph, generators, degree statistics.
//! * [`topics`] — tf-idf user profiles, queries, workload generation.
//! * [`propagation`] — IC / LT / triggering models, RR-set sampling,
//!   Monte-Carlo spread estimation.
//! * [`core`] — WRIS / RIS samplers, greedy maximum coverage, θ bounds,
//!   OPT estimation and the in-memory query engine.
//! * [`index`] — the disk-based RR and IRR indexes (the paper's real-time
//!   query path).
//! * [`datagen`] — synthetic news-like / twitter-like dataset families.
//! * [`codec`] / [`storage`] — integer compression and segment-file
//!   substrates.
//!
//! ## Quickstart
//!
//! ```
//! use kbtim::datagen::{DatasetConfig, DatasetFamily};
//! use kbtim::topics::Query;
//! use kbtim::core::{KbTimEngine, SamplingConfig};
//!
//! // A small news-like dataset (graph + profiles), deterministic seed.
//! let data = DatasetConfig::family(DatasetFamily::News)
//!     .num_users(400)
//!     .num_topics(8)
//!     .seed(7)
//!     .build();
//!
//! // Online WRIS engine (the paper's baseline solution).
//! let config = SamplingConfig { theta_cap: Some(2_000), ..SamplingConfig::fast() };
//! let engine = KbTimEngine::new(&data.graph, &data.profiles, config);
//! let query = Query::new([0, 1], 10);
//! let result = engine.wris(&query, &mut rand::thread_rng());
//! assert!(!result.seeds.is_empty() && result.seeds.len() <= 10);
//! assert!(result.estimated_influence > 0.0);
//! ```
//!
//! For the real-time path, build a disk index once with
//! [`index::IndexBuilder`] and answer queries with
//! [`index::KbtimIndex::query_rr`] (Algorithm 2 — the keyword scan the
//! serving tier runs for every `algo`) or
//! [`index::KbtimIndex::query_irr`] (Algorithm 4) — see `examples/`.
//! Classic IM baselines (CELF, degree heuristics) live in
//! [`core::baselines`], and the `kbtim` binary drives everything from
//! the shell.
//!
//! For *concurrent* serving, share one index through an
//! `Arc<KbtimIndex>` behind [`index::QueryEngine`] (identical in-flight
//! requests coalesce to one execution; with a merge cache the decoded
//! keyword lists it leases are the RAM-resident copy), open it with
//! [`index::KbtimIndex::open_shared`] so resident segment pages dedupe
//! through the process-wide [`storage::PageCache`], and speak the
//! [`serve`] line-JSON protocol via `kbtim serve` (stdin/stdout or
//! TCP). Concurrent answers are bit-identical to serial execution for
//! any interleaving, backend and thread count.

pub mod serve;

pub use kbtim_codec as codec;
pub use kbtim_core as core;
pub use kbtim_datagen as datagen;
pub use kbtim_fault as fault;
pub use kbtim_graph as graph;
pub use kbtim_index as index;
pub use kbtim_propagation as propagation;
pub use kbtim_storage as storage;
pub use kbtim_topics as topics;
