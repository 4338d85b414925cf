//! Benchmark harness for the KB-TIM paper's evaluation (§6).
//!
//! Its one consumer, the `experiments` binary (`cargo run --release -p
//! kbtim-bench --bin experiments`), regenerates **every table and figure**
//! of the paper, and the ablations of its design choices, as text rows
//! (its module doc lists the experiments).
//!
//! Indexes are cached under a root directory keyed by dataset + build
//! configuration, so query experiments do not pay repeated build costs
//! and build experiments report the originally measured times.

pub mod scale;
pub mod setup;
pub mod table;

pub use scale::ExpScale;
pub use setup::ExpContext;
