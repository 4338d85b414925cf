//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! cargo run --release -p kbtim-bench --bin experiments -- \
//!     [--scale small|full] [--root DIR] [--only table2,fig5,...]
//! ```
//!
//! Experiments: `table2 fig4 table3 table4 table5 fig5 table6 table7 fig6
//! fig7 table8 ablations`. Indexes are cached under `--root` (default
//! `target/kbtim-exp`), so reruns only pay query time.
//!
//! `ablations` times the paper's design choices, each beside the equality
//! that makes its timing a fair comparison: lazy vs naive greedy (a1,
//! §5.2), the raw vs packed list codec (a2, Table 4's codec), the IRR
//! partition size δ (a3, §5 fixes δ = 100), alias vs cumulative root
//! sampling (a4) and RR-set sampling under IC vs LT (a5, §6.6). It exits
//! 1 if any equality column reads `NO`.
//!
//! Reading the RR-vs-IRR comparisons (fig5–fig7, table6): *RR sets
//! loaded* is the paper's quantity and is exact — `θ^Q` for RR, the
//! distinct sets the loaded partitions touch for IRR. Wall time and
//! I/O, however, price what `kbtim` actually does to answer: both
//! algorithms read inverted lists only and never fetch the RR-set
//! payloads (`rr` / `rr_off` / `irp`) the paper's loaders read, so the
//! time gap between them is narrower than the sets-loaded gap.

use kbtim_bench::table::{fmt_bytes, fmt_duration, TextTable};
use kbtim_bench::{ExpContext, ExpScale};
use kbtim_codec::Codec;
use kbtim_core::alias::{AliasTable, CumulativeSampler};
use kbtim_core::maxcover::{greedy_max_cover, greedy_max_cover_naive};
use kbtim_core::ris::ris_query;
use kbtim_core::wris::wris_query;
use kbtim_datagen::{Dataset, DatasetFamily};
use kbtim_graph::stats::{graph_stats, in_degree_histogram, log_binned_in_degrees, log_log_slope};
use kbtim_index::{IndexVariant, KbtimIndex, ThetaMode};
use kbtim_propagation::model::{IcModel, LtModel};
use kbtim_propagation::spread::monte_carlo_targeted;
use kbtim_propagation::{RrSampler, TriggeringModel};
use kbtim_topics::Query;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

// table7 precedes fig5/table6 so the shared Q.k sweep is computed once
// *with* its Monte-Carlo spread columns and then reused.
const ALL: &[&str] = &[
    "table2",
    "fig4",
    "table3",
    "table4",
    "table5",
    "table7",
    "fig5",
    "table6",
    "fig6",
    "fig7",
    "table8",
    "ablations",
];

fn main() {
    let mut scale = ExpScale::small();
    let mut root = String::from("target/kbtim-exp");
    let mut only: Option<Vec<String>> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--scale" => {
                let name = value();
                scale = ExpScale::by_name(&name).unwrap_or_else(|| {
                    usage_error(&format!("unknown scale {name:?} (small|full)"))
                });
            }
            "--root" => root = value(),
            "--only" => only = Some(value().split(',').map(str::to_string).collect()),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let selected: Vec<&str> = match &only {
        Some(list) => {
            if let Some(name) = list.iter().find(|name| !ALL.contains(&name.as_str())) {
                usage_error(&format!("unknown experiment {name:?}"));
            }
            ALL.iter().copied().filter(|e| list.iter().any(|s| s == e)).collect()
        }
        None => ALL.to_vec(),
    };

    let ctx = ExpContext::new(scale, &root);
    println!("== KB-TIM experiment harness  (scale: {}, cache root: {root}) ==\n", ctx.scale.name);
    let started = std::time::Instant::now();
    let mut harness = Harness::new(ctx);
    for exp in &selected {
        match *exp {
            "table2" => harness.table2(),
            "fig4" => harness.fig4(),
            "table3" => harness.table3(),
            "table4" => harness.table4(),
            "table5" => harness.table5(),
            "fig5" => harness.fig5(),
            "table6" => harness.table6(),
            "table7" => harness.table7(),
            "fig6" => harness.fig6(),
            "fig7" => harness.fig7(),
            "table8" => harness.table8(),
            "ablations" => harness.ablations(),
            _ => unreachable!(),
        }
    }
    println!("== done in {} ==", fmt_duration(started.elapsed()));
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: experiments [--scale small|full] [--root DIR] [--only NAME[,NAME...]]");
    eprintln!("  NAME: {}", ALL.join("|"));
    std::process::exit(2);
}

/// One row of the shared Q.k sweep (feeds Fig 5, Table 6 and Table 7).
struct SweepRow {
    k: u32,
    rr_time: Duration,
    irr_time: Duration,
    wris_time: Duration,
    rr_loaded: u64,
    irr_loaded: u64,
    irr_ios: u64,
    spread_wris: f64,
    spread_rr: f64,
    spread_irr: f64,
    spread_rr_hat: Option<f64>,
}

struct Harness {
    ctx: ExpContext,
    datasets: HashMap<(DatasetFamily, u32), Dataset>,
    /// Cached Q.k sweeps per family; the flag records whether the cached
    /// rows include the (expensive) Monte-Carlo spread columns.
    sweeps: HashMap<DatasetFamily, (bool, Vec<SweepRow>)>,
}

impl Harness {
    fn new(ctx: ExpContext) -> Harness {
        Harness { ctx, datasets: HashMap::new(), sweeps: HashMap::new() }
    }

    fn sizes(&self, family: DatasetFamily) -> Vec<u32> {
        match family {
            DatasetFamily::News => self.ctx.scale.news_sizes.clone(),
            DatasetFamily::Twitter => self.ctx.scale.twitter_sizes.clone(),
        }
    }

    fn dataset(&mut self, family: DatasetFamily, size: u32) -> &Dataset {
        let ctx = &self.ctx;
        self.datasets.entry((family, size)).or_insert_with(|| ctx.dataset(family, size))
    }

    fn default_size(&self, family: DatasetFamily) -> u32 {
        match family {
            DatasetFamily::News => self.ctx.scale.default_news_size(),
            DatasetFamily::Twitter => self.ctx.scale.default_twitter_size(),
        }
    }

    /// Packed IRR index (the workhorse shared by most query experiments)
    /// plus the default query workload for the dataset.
    fn default_index(&mut self, family: DatasetFamily, size: u32) -> (KbtimIndex, Vec<Query>) {
        let keywords = self.ctx.scale.default_keywords;
        let k = self.ctx.scale.default_k;
        let ctx = self.ctx.clone();
        let data = self.dataset(family, size);
        let build = ctx.build_or_load(
            data,
            Codec::Packed,
            IndexVariant::Irr { partition_size: 100 },
            ThetaMode::Compact,
            None,
        );
        let queries = ctx.queries(data, keywords, k);
        (ctx.open(&build), queries)
    }

    // ------------------------------------------------------------------
    // Table 2: dataset statistics.
    // ------------------------------------------------------------------
    fn table2(&mut self) {
        println!("-- Table 2: dataset statistics (scaled; paper: news 0.2M-1.4M, twitter 10M-40M)");
        let mut t = TextTable::new(["dataset", "#users", "#edges", "avg degree"]);
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            for size in self.sizes(family) {
                let data = self.dataset(family, size);
                let s = graph_stats(&data.graph);
                let name = data.name.clone();
                t.row([
                    name,
                    s.num_nodes.to_string(),
                    s.num_edges.to_string(),
                    format!("{:.1}", s.avg_degree),
                ]);
            }
        }
        t.print();
    }

    // ------------------------------------------------------------------
    // Figure 4: in-degree distributions.
    // ------------------------------------------------------------------
    fn fig4(&mut self) {
        println!("-- Figure 4: in-degree distributions (log-binned, base 2)");
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            let size = *self.sizes(family).last().expect("sizes");
            let data = self.dataset(family, size);
            let name = data.name.clone();
            let slope = log_log_slope(&in_degree_histogram(&data.graph)).unwrap_or(f64::NAN);
            let binned = log_binned_in_degrees(&data.graph, 2.0);
            let mut t = TextTable::new(["in-degree ≥", "#users"]);
            for (deg, count) in binned {
                t.row([deg.to_string(), count.to_string()]);
            }
            println!("{name}  (log-log slope {slope:.2}; heavy tails as in the paper's Fig 4)");
            t.print();
        }
    }

    // ------------------------------------------------------------------
    // Table 3: θ̂_w (Eqn 8) vs θ_w (Eqn 10) — size & build time, news.
    // ------------------------------------------------------------------
    fn table3(&mut self) {
        println!(
            "-- Table 3: index size/time with theta-hat (Eqn 8) vs theta (Eqn 10), news family"
        );
        // A higher cap than the family default so the θ̂/θ contrast is not
        // clipped.
        let cap = self.ctx.scale.news_theta_cap * 4;
        let mut t = TextTable::new([
            "dataset",
            "RR th^ size",
            "RR th size",
            "IRR th^ size",
            "IRR th size",
            "RR th^ time",
            "RR th time",
            "IRR th^ time",
            "IRR th time",
        ]);
        for size in self.sizes(DatasetFamily::News) {
            let ctx = self.ctx.clone();
            let data = self.dataset(DatasetFamily::News, size);
            let mut cells = vec![data.name.clone()];
            let mut times = Vec::new();
            for variant in [IndexVariant::Rr, IndexVariant::Irr { partition_size: 100 }] {
                for mode in [ThetaMode::Conservative, ThetaMode::Compact] {
                    let b = ctx.build_or_load(data, Codec::Packed, variant, mode, Some(cap));
                    cells.push(fmt_bytes(b.total_bytes));
                    times.push(fmt_duration(b.elapsed));
                }
            }
            cells.extend(times);
            t.row(cells);
        }
        t.print();
    }

    // ------------------------------------------------------------------
    // Table 4: compressed vs uncompressed — size & time, both families.
    // ------------------------------------------------------------------
    fn table4(&mut self) {
        println!("-- Table 4: disk size & build time, uncompressed (Raw) vs compressed (Packed)");
        let mut t = TextTable::new([
            "dataset",
            "RR raw",
            "IRR raw",
            "RR packed",
            "IRR packed",
            "t(RR raw)",
            "t(IRR raw)",
            "t(RR packed)",
            "t(IRR packed)",
        ]);
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            for size in self.sizes(family) {
                let ctx = self.ctx.clone();
                let data = self.dataset(family, size);
                let mut sizes = vec![data.name.clone()];
                let mut times = Vec::new();
                for codec in [Codec::Raw, Codec::Packed] {
                    for variant in [IndexVariant::Rr, IndexVariant::Irr { partition_size: 100 }] {
                        let b = ctx.build_or_load(data, codec, variant, ThetaMode::Compact, None);
                        sizes.push(fmt_bytes(b.total_bytes));
                        times.push(fmt_duration(b.elapsed));
                    }
                }
                sizes.extend(times);
                t.row(sizes);
            }
        }
        t.print();
    }

    // ------------------------------------------------------------------
    // Table 5: Σ θ_w and mean RR-set size per graph size.
    // ------------------------------------------------------------------
    fn table5(&mut self) {
        println!("-- Table 5: sum of theta_w and mean RR-set size vs graph size");
        let mut t = TextTable::new(["dataset", "sum theta_w", "mean RR size"]);
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            for size in self.sizes(family) {
                let ctx = self.ctx.clone();
                let data = self.dataset(family, size);
                let b = ctx.build_or_load(
                    data,
                    Codec::Packed,
                    IndexVariant::Irr { partition_size: 100 },
                    ThetaMode::Compact,
                    None,
                );
                t.row([
                    data.name.clone(),
                    b.total_theta.to_string(),
                    format!("{:.1}", b.mean_rr_size),
                ]);
            }
        }
        t.print();
    }

    // ------------------------------------------------------------------
    // Shared Q.k sweep (Fig 5 / Table 6 / Table 7).
    // ------------------------------------------------------------------
    fn k_sweep(&mut self, family: DatasetFamily, with_spreads: bool) -> &[SweepRow] {
        if let Some((has_spreads, _)) = self.sweeps.get(&family) {
            if !with_spreads || *has_spreads {
                return &self.sweeps[&family].1;
            }
        }
        let size = self.default_size(family);
        let keywords = self.ctx.scale.default_keywords;
        let ctx = self.ctx.clone();
        let scale = ctx.scale.clone();
        let (index, _) = self.default_index(family, size);
        let data = &self.datasets[&(family, size)];
        let model = IcModel::weighted_cascade(&data.graph);
        let wris_config = ctx.wris_sampling();

        // Conservative (θ̂) RR index for Table 7's extra news column.
        let rr_hat_index = (with_spreads && family == DatasetFamily::News).then(|| {
            let cap = scale.news_theta_cap * 4;
            let b = ctx.build_or_load(
                data,
                Codec::Packed,
                IndexVariant::Rr,
                ThetaMode::Conservative,
                Some(cap),
            );
            ctx.open(&b)
        });

        let mut rows = Vec::new();
        for &k in &scale.k_values {
            let queries = ctx.queries(data, keywords, k);
            let mc_queries = queries.len().min(3);
            let mut row = SweepRow {
                k,
                rr_time: Duration::ZERO,
                irr_time: Duration::ZERO,
                wris_time: Duration::ZERO,
                rr_loaded: 0,
                irr_loaded: 0,
                irr_ios: 0,
                spread_wris: 0.0,
                spread_rr: 0.0,
                spread_irr: 0.0,
                spread_rr_hat: rr_hat_index.as_ref().map(|_| 0.0),
            };
            let mut mc_rng = SmallRng::seed_from_u64(1000 + k as u64);
            for (qi, q) in queries.iter().enumerate() {
                let rr = index.query_rr(q).expect("rr");
                let irr = index.query_irr(q).expect("irr");
                row.rr_time += rr.stats.elapsed;
                row.irr_time += irr.stats.elapsed;
                row.rr_loaded += rr.stats.rr_sets_loaded;
                row.irr_loaded += irr.stats.rr_sets_loaded;
                row.irr_ios += irr.stats.io.read_ops;
                if with_spreads && qi < mc_queries {
                    row.spread_rr += monte_carlo_targeted(
                        &model,
                        &data.profiles,
                        q,
                        &rr.seeds,
                        scale.mc_rounds,
                        &mut mc_rng,
                    );
                    row.spread_irr += monte_carlo_targeted(
                        &model,
                        &data.profiles,
                        q,
                        &irr.seeds,
                        scale.mc_rounds,
                        &mut mc_rng,
                    );
                    if let (Some(hat), Some(total)) =
                        (rr_hat_index.as_ref(), row.spread_rr_hat.as_mut())
                    {
                        let hat_outcome = hat.query_rr(q).expect("rr-hat");
                        *total += monte_carlo_targeted(
                            &model,
                            &data.profiles,
                            q,
                            &hat_outcome.seeds,
                            scale.mc_rounds,
                            &mut mc_rng,
                        );
                    }
                }
            }
            let n = queries.len() as u32;
            row.rr_time /= n;
            row.irr_time /= n;
            row.rr_loaded /= n as u64;
            row.irr_loaded /= n as u64;
            row.irr_ios /= n as u64;

            // WRIS: fewer runs — it is the slow baseline.
            let wris_n = queries.len().min(scale.wris_queries);
            let mut wris_rng = SmallRng::seed_from_u64(2000 + k as u64);
            for q in queries.iter().take(wris_n) {
                let t0 = std::time::Instant::now();
                let result = wris_query(&model, &data.profiles, q, &wris_config, &mut wris_rng);
                row.wris_time += t0.elapsed();
                if with_spreads {
                    row.spread_wris += monte_carlo_targeted(
                        &model,
                        &data.profiles,
                        q,
                        &result.seeds,
                        scale.mc_rounds,
                        &mut mc_rng,
                    );
                }
            }
            row.wris_time /= wris_n as u32;
            if with_spreads {
                row.spread_rr /= mc_queries as f64;
                row.spread_irr /= mc_queries as f64;
                row.spread_wris /= wris_n as f64;
                if let Some(total) = row.spread_rr_hat.as_mut() {
                    *total /= mc_queries as f64;
                }
            }
            rows.push(row);
        }
        self.sweeps.insert(family, (with_spreads, rows));
        &self.sweeps[&family].1
    }

    // ------------------------------------------------------------------
    // Figure 5: query time and #RR sets loaded vs Q.k.
    // ------------------------------------------------------------------
    fn fig5(&mut self) {
        println!(
            "-- Figure 5: vary Q.k ({}-keyword queries; avg over {} queries)",
            self.ctx.scale.default_keywords, self.ctx.scale.queries_per_length
        );
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            let rows = self.k_sweep(family, false);
            let mut t = TextTable::new([
                "Q.k",
                "RR time",
                "IRR time",
                "WRIS time",
                "RR loaded",
                "IRR loaded",
            ]);
            for r in rows {
                t.row([
                    r.k.to_string(),
                    fmt_duration(r.rr_time),
                    fmt_duration(r.irr_time),
                    fmt_duration(r.wris_time),
                    r.rr_loaded.to_string(),
                    r.irr_loaded.to_string(),
                ]);
            }
            println!("{family:?}");
            t.print();
        }
    }

    // ------------------------------------------------------------------
    // Table 6: IRR I/O counts vs Q.k.
    // ------------------------------------------------------------------
    fn table6(&mut self) {
        println!("-- Table 6: number of positioned reads for IRR when varying Q.k");
        let headers: Vec<String> = std::iter::once("dataset".to_string())
            .chain(self.ctx.scale.k_values.iter().map(|k| format!("k={k}")))
            .collect();
        let mut t = TextTable::new(headers);
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            let rows = self.k_sweep(family, false);
            let cells: Vec<String> = std::iter::once(format!("{family:?}"))
                .chain(rows.iter().map(|r| r.irr_ios.to_string()))
                .collect();
            t.row(cells);
        }
        t.print();
    }

    // ------------------------------------------------------------------
    // Table 7: influence spread vs Q.k (Monte-Carlo ground truth).
    // ------------------------------------------------------------------
    fn table7(&mut self) {
        println!(
            "-- Table 7: targeted influence spread vs Q.k ({} MC rounds)",
            self.ctx.scale.mc_rounds
        );
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            let rows = self.k_sweep(family, true);
            let has_hat = rows.first().is_some_and(|r| r.spread_rr_hat.is_some());
            let mut headers = vec!["Q.k".to_string(), "WRIS".to_string()];
            if has_hat {
                headers.push("RR(th-hat)".to_string());
            }
            headers.push("RR".to_string());
            headers.push("IRR".to_string());
            let mut t = TextTable::new(headers);
            for r in rows {
                let mut cells = vec![r.k.to_string(), format!("{:.1}", r.spread_wris)];
                if let Some(hat) = r.spread_rr_hat {
                    cells.push(format!("{hat:.1}"));
                }
                cells.push(format!("{:.1}", r.spread_rr));
                cells.push(format!("{:.1}", r.spread_irr));
                t.row(cells);
            }
            println!("{family:?}");
            t.print();
        }
    }

    // ------------------------------------------------------------------
    // Figure 6: vary the number of query keywords.
    // ------------------------------------------------------------------
    fn fig6(&mut self) {
        println!(
            "-- Figure 6: vary |Q.T| (k = {}; avg over {} queries)",
            self.ctx.scale.default_k, self.ctx.scale.queries_per_length
        );
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            let size = self.default_size(family);
            let ctx = self.ctx.clone();
            let scale = ctx.scale.clone();
            let (index, _) = self.default_index(family, size);
            let data = &self.datasets[&(family, size)];
            let model = IcModel::weighted_cascade(&data.graph);
            let wris_config = ctx.wris_sampling();
            let mut t = TextTable::new([
                "|Q.T|",
                "RR time",
                "IRR time",
                "WRIS time",
                "RR loaded",
                "IRR loaded",
            ]);
            for &len in &scale.keyword_counts {
                let queries = ctx.queries(data, len, scale.default_k);
                let mut rr_time = Duration::ZERO;
                let mut irr_time = Duration::ZERO;
                let mut rr_loaded = 0u64;
                let mut irr_loaded = 0u64;
                for q in &queries {
                    let rr = index.query_rr(q).expect("rr");
                    let irr = index.query_irr(q).expect("irr");
                    rr_time += rr.stats.elapsed;
                    irr_time += irr.stats.elapsed;
                    rr_loaded += rr.stats.rr_sets_loaded;
                    irr_loaded += irr.stats.rr_sets_loaded;
                }
                let n = queries.len() as u32;
                let mut wris_time = Duration::ZERO;
                let wris_n = queries.len().min(scale.wris_queries);
                let mut rng = SmallRng::seed_from_u64(3000 + len as u64);
                for q in queries.iter().take(wris_n) {
                    let t0 = std::time::Instant::now();
                    let _ = wris_query(&model, &data.profiles, q, &wris_config, &mut rng);
                    wris_time += t0.elapsed();
                }
                t.row([
                    len.to_string(),
                    fmt_duration(rr_time / n),
                    fmt_duration(irr_time / n),
                    fmt_duration(wris_time / wris_n as u32),
                    (rr_loaded / n as u64).to_string(),
                    (irr_loaded / n as u64).to_string(),
                ]);
            }
            println!("{family:?}");
            t.print();
        }
    }

    // ------------------------------------------------------------------
    // Figure 7: vary the graph size.
    // ------------------------------------------------------------------
    fn fig7(&mut self) {
        println!(
            "-- Figure 7: vary |V| ({}-keyword queries, k = {})",
            self.ctx.scale.default_keywords, self.ctx.scale.default_k
        );
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            let ctx = self.ctx.clone();
            let scale = ctx.scale.clone();
            let mut t = TextTable::new([
                "dataset",
                "RR time",
                "IRR time",
                "WRIS time",
                "RR loaded",
                "IRR loaded",
            ]);
            for size in self.sizes(family) {
                let (index, queries) = self.default_index(family, size);
                let data = &self.datasets[&(family, size)];
                let model = IcModel::weighted_cascade(&data.graph);
                let wris_config = ctx.wris_sampling();
                let mut rr_time = Duration::ZERO;
                let mut irr_time = Duration::ZERO;
                let mut rr_loaded = 0u64;
                let mut irr_loaded = 0u64;
                for q in &queries {
                    let rr = index.query_rr(q).expect("rr");
                    let irr = index.query_irr(q).expect("irr");
                    rr_time += rr.stats.elapsed;
                    irr_time += irr.stats.elapsed;
                    rr_loaded += rr.stats.rr_sets_loaded;
                    irr_loaded += irr.stats.rr_sets_loaded;
                }
                let n = queries.len() as u32;
                let mut wris_time = Duration::ZERO;
                let wris_n = queries.len().min(scale.wris_queries);
                let mut rng = SmallRng::seed_from_u64(4000 + size as u64);
                for q in queries.iter().take(wris_n) {
                    let t0 = std::time::Instant::now();
                    let _ = wris_query(&model, &data.profiles, q, &wris_config, &mut rng);
                    wris_time += t0.elapsed();
                }
                t.row([
                    data.name.clone(),
                    fmt_duration(rr_time / n),
                    fmt_duration(irr_time / n),
                    fmt_duration(wris_time / wris_n as u32),
                    (rr_loaded / n as u64).to_string(),
                    (irr_loaded / n as u64).to_string(),
                ]);
            }
            println!("{family:?}");
            t.print();
        }
    }

    // ------------------------------------------------------------------
    // Table 8: example seeds per keyword, IC vs LT vs untargeted RIS.
    // ------------------------------------------------------------------
    fn table8(&mut self) {
        println!("-- Table 8: top-8 seeds per keyword (synthetic topics named after the paper's)");
        for family in [DatasetFamily::News, DatasetFamily::Twitter] {
            let size = self.default_size(family);
            let ctx = self.ctx.clone();
            let data = self.dataset(family, size);
            // Two popular held topics stand in for "software" / "journal".
            let mut held: Vec<u32> = (0..data.profiles.num_topics())
                .filter(|&w| data.profiles.doc_freq(w) > 0)
                .collect();
            held.sort_by_key(|&w| std::cmp::Reverse(data.profiles.doc_freq(w)));
            let keywords = [("software", held[1]), ("journal", held[4.min(held.len() - 1)])];

            let ic = IcModel::weighted_cascade(&data.graph);
            let mut lt_rng = SmallRng::seed_from_u64(88);
            let lt = LtModel::random_weights(&data.graph, &mut lt_rng);
            let sampling = ctx.wris_sampling();

            let mut t = TextTable::new(["method", "keyword", "top-8 seeds"]);
            for (label, model) in [("WRIS(IC)", &ic as &dyn TriggeringModel), ("WRIS(LT)", &lt)] {
                for (name, topic) in keywords {
                    let mut rng = SmallRng::seed_from_u64(55);
                    let q = Query::new([topic], 8);
                    let seeds = wris_query(model, &data.profiles, &q, &sampling, &mut rng).seeds;
                    t.row([label.to_string(), name.to_string(), format!("{seeds:?}")]);
                }
            }
            let mut rng = SmallRng::seed_from_u64(55);
            let ris = ris_query(&ic, 8, &sampling, &mut rng);
            t.row(["RIS".to_string(), "(any)".to_string(), format!("{:?}", ris.seeds)]);
            println!("{family:?}");
            t.print();
        }
    }

    // ------------------------------------------------------------------
    // Ablations: the paper's design choices, each timed beside the
    // equality that makes the timing a fair comparison.
    // ------------------------------------------------------------------
    fn ablations(&mut self) {
        let checks = [self.a1_greedy(), self.a2_codec(), self.a3_partition_size()];
        self.a4_root_sampler();
        self.a5_models();
        if checks.contains(&false) {
            eprintln!("ablations: an equality column reads NO, so its timing compares unlike work");
            std::process::exit(1);
        }
    }

    fn a1_greedy(&self) -> bool {
        const K: u32 = 30;
        println!("-- Ablation a1: lazy (CELF) vs naive greedy max-cover (§5.2; k = {K}, sets of 1-7 ids < 1000)");
        let mut rng = SmallRng::seed_from_u64(5);
        let mut t = TextTable::new(["#sets", "lazy", "naive", "naive / lazy", "same seeds"]);
        let mut all_same = true;
        for num_sets in [2_000usize, 10_000] {
            let sets: Vec<Vec<u32>> = (0..num_sets)
                .map(|_| {
                    let len = rng.gen_range(1..8);
                    let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..1_000)).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            let lazy = time_per_call(|| greedy_max_cover(&sets, K));
            let naive = time_per_call(|| greedy_max_cover_naive(&sets, K));
            let same = greedy_max_cover(&sets, K) == greedy_max_cover_naive(&sets, K);
            all_same &= same;
            t.row([
                num_sets.to_string(),
                fmt_duration(lazy),
                fmt_duration(naive),
                format!("{:.1}x", naive.as_secs_f64() / lazy.as_secs_f64()),
                yes_no(same),
            ]);
        }
        t.print();
        all_same
    }

    fn a2_codec(&self) -> bool {
        const LEN: u32 = 100_000;
        println!("-- Ablation a2: list codec, raw u32 vs delta + bit-packing (Table 4; {LEN} ids, gaps 1-16)");
        let mut rng = SmallRng::seed_from_u64(9);
        let mut id = 0u32;
        let list: Vec<u32> = (0..LEN)
            .map(|_| {
                id += rng.gen_range(1..=16);
                id
            })
            .collect();
        let mut t =
            TextTable::new(["codec", "encode Mu32/s", "decode Mu32/s", "B/u32", "round-trips"]);
        let mut all_exact = true;
        for (label, codec) in [("raw", Codec::Raw), ("packed", Codec::Packed)] {
            let mut encoded = Vec::new();
            codec.encode_sorted(&list, &mut encoded);
            let mut decoded = Vec::new();
            let exact = codec.decode_sorted(&encoded, &mut decoded).is_ok() && decoded == list;
            all_exact &= exact;
            let encode = time_per_call(|| {
                let mut out = Vec::new();
                codec.encode_sorted(&list, &mut out);
                out
            });
            let decode = time_per_call(|| {
                let mut out = Vec::new();
                codec.decode_sorted(&encoded, &mut out).map(|_| out)
            });
            let rate = |d: Duration| format!("{:.0}", LEN as f64 / d.as_secs_f64() / 1e6);
            t.row([
                label.to_string(),
                rate(encode),
                rate(decode),
                format!("{:.2}", encoded.len() as f64 / LEN as f64),
                yes_no(exact),
            ]);
        }
        t.print();
        all_exact
    }

    fn a3_partition_size(&mut self) -> bool {
        let size = self.default_size(DatasetFamily::News);
        let ctx = self.ctx.clone();
        let (keywords, k) = (ctx.scale.default_keywords, ctx.scale.default_k);
        let data = self.dataset(DatasetFamily::News, size);
        println!(
            "-- Ablation a3: IRR partition size δ (§5 fixes δ = 100; {}, {keywords}-keyword queries, k = {k}; avg over {} queries)",
            data.name, ctx.scale.queries_per_length
        );
        let queries = ctx.queries(data, keywords, k);
        let mut t = TextTable::new([
            "δ",
            "IRR time",
            "IRR loaded",
            "IRR reads",
            "RR time",
            "RR loaded",
            "same answer as RR",
        ]);
        let mut all_same = true;
        for partition_size in [10u32, 100, 1_000] {
            let variant = IndexVariant::Irr { partition_size };
            let build = ctx.build_or_load(data, Codec::Packed, variant, ThetaMode::Compact, None);
            let index = ctx.open(&build);
            let (mut irr_time, mut rr_time) = (Duration::ZERO, Duration::ZERO);
            let (mut irr_loaded, mut rr_loaded, mut irr_reads) = (0u64, 0u64, 0u64);
            let mut same = true;
            for q in &queries {
                let irr = index.query_irr(q).expect("irr");
                let rr = index.query_rr(q).expect("rr");
                same &= irr.seeds == rr.seeds;
                irr_time += irr.stats.elapsed;
                rr_time += rr.stats.elapsed;
                irr_loaded += irr.stats.rr_sets_loaded;
                rr_loaded += rr.stats.rr_sets_loaded;
                irr_reads += irr.stats.io.read_ops;
            }
            all_same &= same;
            let n = queries.len() as u64;
            t.row([
                partition_size.to_string(),
                fmt_duration(irr_time / n as u32),
                (irr_loaded / n).to_string(),
                (irr_reads / n).to_string(),
                fmt_duration(rr_time / n as u32),
                (rr_loaded / n).to_string(),
                yes_no(same),
            ]);
        }
        t.print();
        all_same
    }

    fn a4_root_sampler(&self) {
        const DRAWS: u32 = 1_000_000;
        println!(
            "-- Ablation a4: alias vs cumulative root sampling (weights U(0,1); gap = largest |observed - expected| share in {DRAWS} draws)"
        );
        let mut rng = SmallRng::seed_from_u64(13);
        let mut t = TextTable::new([
            "n",
            "alias ns/draw",
            "cumulative ns/draw",
            "alias max gap",
            "cumulative max gap",
        ]);
        for n in [1_000usize, 100_000] {
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let total: f64 = weights.iter().sum();
            let alias = AliasTable::new(&weights).expect("weights");
            let cumulative = CumulativeSampler::new(&weights).expect("weights");
            let measure = |sample: &dyn Fn(&mut SmallRng) -> usize| {
                let mut rng = SmallRng::seed_from_u64(1);
                let started = Instant::now();
                let draws: Vec<usize> = (0..DRAWS).map(|_| sample(&mut rng)).collect();
                let ns = started.elapsed().as_nanos() as f64 / DRAWS as f64;
                let mut counts = vec![0u32; n];
                for draw in draws {
                    counts[draw] += 1;
                }
                let gap = counts
                    .iter()
                    .zip(&weights)
                    .map(|(&c, &w)| (c as f64 / DRAWS as f64 - w / total).abs())
                    .fold(0.0, f64::max);
                (ns, gap)
            };
            let (alias_ns, alias_gap) = measure(&|rng| alias.sample(rng));
            let (cumulative_ns, cumulative_gap) = measure(&|rng| cumulative.sample(rng));
            t.row([
                n.to_string(),
                format!("{alias_ns:.1}"),
                format!("{cumulative_ns:.1}"),
                format!("{alias_gap:.1e}"),
                format!("{cumulative_gap:.1e}"),
            ]);
        }
        t.print();
    }

    fn a5_models(&mut self) {
        const SETS: u32 = 20_000;
        let size = self.default_size(DatasetFamily::Twitter);
        let data = self.dataset(DatasetFamily::Twitter, size);
        println!(
            "-- Ablation a5: RR-set sampling under IC vs LT (§6.6; {}, {SETS} sets from uniform roots)",
            data.name
        );
        let graph = &data.graph;
        let ic = IcModel::weighted_cascade(graph);
        let lt = LtModel::random_weights(graph, &mut SmallRng::seed_from_u64(3));
        let mut t = TextTable::new(["model", "µs/set", "mean set size"]);
        for (label, model) in [("IC", &ic as &dyn TriggeringModel), ("LT", &lt)] {
            let mut sampler = RrSampler::new(graph.num_nodes());
            let mut rng = SmallRng::seed_from_u64(7);
            let mut out = Vec::new();
            let mut members = 0u64;
            let started = Instant::now();
            for _ in 0..SETS {
                let root = rng.gen_range(0..graph.num_nodes());
                sampler.sample_into(model, root, &mut rng, &mut out);
                members += out.len() as u64;
            }
            let us = started.elapsed().as_secs_f64() * 1e6 / SETS as f64;
            t.row([
                label.to_string(),
                format!("{us:.2}"),
                format!("{:.2}", members as f64 / SETS as f64),
            ]);
        }
        t.print();
    }
}

/// Mean wall time of one call of `f`: a warm-up call, then calls until
/// 200 ms have passed (at least three).
fn time_per_call<R>(mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || started.elapsed() < Duration::from_millis(200) {
        std::hint::black_box(f());
        calls += 1;
    }
    started.elapsed() / calls
}

fn yes_no(same: bool) -> String {
    if same { "yes" } else { "NO" }.to_string()
}
