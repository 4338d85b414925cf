//! Theorem 3 across build seeds: IRR (Algorithm 4, the NRA over the
//! partitioned lists) returns RR's answer (Algorithm 2, the full scan)
//! — the same seeds under the `(max gain, min id)` tie rule, the same
//! marginal gains, the same coverage — on every build, not only on the
//! one seed a fixture happens to use.
//!
//! A tie is what breaks it: when a candidate's gain equals the bound on
//! every user the scan has not reached, an unseen user with a smaller
//! id may score the same, and RR takes that user. So the sweep rebuilds
//! one small News fixture at many build seeds (ties land on different
//! queries at each) and asks every topic subset at several `k`.

use kbtim::core::theta::SamplingConfig;
use kbtim::datagen::{Dataset, DatasetConfig, DatasetFamily};
use kbtim::index::{
    IndexBuildConfig, IndexBuilder, IndexVariant, KbtimIndex, ServingMode, ThetaMode,
};
use kbtim::propagation::model::IcModel;
use kbtim::storage::{IoStats, TempDir};
use kbtim::topics::Query;

const NUM_TOPICS: u32 = 6;
/// Build seeds swept; seed 3 holds a known tie (topics [2], k = 10).
const BUILD_SEEDS: std::ops::RangeInclusive<u64> = 1..=16;
const KS: [u32; 5] = [1, 3, 5, 10, 15];

/// Every topic subset × `KS` on the fixture built at `seed`: one line
/// per query where IRR's answer is not RR's.
fn mismatches(data: &Dataset, seed: u64) -> Vec<String> {
    let model = IcModel::weighted_cascade(&data.graph);
    let config = IndexBuildConfig {
        sampling: SamplingConfig {
            theta_cap: Some(1_500),
            opt_initial_samples: 64,
            opt_max_rounds: 5,
            ..SamplingConfig::fast()
        },
        theta_mode: ThetaMode::Compact,
        variant: IndexVariant::Irr { partition_size: 16 },
        threads: 1,
        seed,
        ..IndexBuildConfig::default()
    };
    let dir = TempDir::new("theorem3").unwrap();
    IndexBuilder::new(&model, &data.profiles, config).build(dir.path()).unwrap();
    let index = KbtimIndex::open_with(dir.path(), IoStats::new(), ServingMode::File).unwrap();
    let mut out = Vec::new();
    for subset in 1u32..1 << NUM_TOPICS {
        let topics: Vec<u32> = (0..NUM_TOPICS).filter(|t| subset >> t & 1 == 1).collect();
        for k in KS {
            let query = Query::new(topics.iter().copied(), k);
            let rr = index.query_rr(&query).unwrap();
            let irr = index.query_irr(&query).unwrap();
            if (&rr.seeds, &rr.marginal_gains, rr.coverage)
                != (&irr.seeds, &irr.marginal_gains, irr.coverage)
            {
                out.push(format!(
                    "seed {seed}, topics {topics:?}, k = {k}: rr {:?} gains {:?}, \
                     irr {:?} gains {:?}",
                    rr.seeds, rr.marginal_gains, irr.seeds, irr.marginal_gains
                ));
            }
        }
    }
    out
}

#[test]
fn irr_answers_as_rr_on_every_build_seed() {
    let data = DatasetConfig::family(DatasetFamily::News)
        .num_users(500)
        .num_topics(NUM_TOPICS)
        .seed(77)
        .build();
    // The queries dominate the cost: two threads take alternate seeds.
    let found: Vec<String> = std::thread::scope(|scope| {
        let sweeps: Vec<_> = (0..2u64)
            .map(|half| {
                let data = &data;
                scope.spawn(move || {
                    BUILD_SEEDS
                        .filter(|seed| seed % 2 == half)
                        .flat_map(|seed| mismatches(data, seed))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        sweeps.into_iter().flat_map(|sweep| sweep.join().expect("sweep thread")).collect()
    });
    assert!(found.is_empty(), "IRR differs from RR:\n{}", found.join("\n"));
}
