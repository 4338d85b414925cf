//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! cargo run --release -p kbtim-bench --bin experiments -- \
//!     [--scale small|full] [--root DIR] [--only table2,fig5,...]
//! ```
//!
//! Experiments: `table2 fig4 table3 table4 table5 fig5 table6 table7 fig6
//! fig7 table8`. Indexes are cached under `--root` (default
//! `target/kbtim-exp`), so reruns only pay query time.
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
use kbtim_core::ris::ris_query;
use kbtim_core::wris::wris_query;
use kbtim_datagen::{Dataset, DatasetFamily};
use kbtim_graph::stats::{graph_stats, in_degree_histogram, log_binned_in_degrees, log_log_slope};
use kbtim_index::{IndexVariant, KbtimIndex, ThetaMode};
use kbtim_propagation::model::{IcModel, LtModel};
use kbtim_propagation::spread::monte_carlo_targeted;
use kbtim_propagation::TriggeringModel;
use kbtim_topics::Query;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Duration;

// table7 precedes fig5/table6 so the shared Q.k sweep is computed once
// *with* its Monte-Carlo spread columns and then reused.
const ALL: &[&str] = &[
    "table2", "fig4", "table3", "table4", "table5", "table7", "fig5", "table6", "fig6", "fig7",
    "table8",
];

fn main() {
    let mut scale = ExpScale::small();
    let mut root = String::from("target/kbtim-exp");
    let mut only: Option<Vec<String>> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = ExpScale::by_name(&args[i]).unwrap_or_else(|| {
                    eprintln!("unknown scale {:?} (small|full)", args[i]);
                    std::process::exit(2);
                });
            }
            "--root" => {
                i += 1;
                root = args[i].clone();
            }
            "--only" => {
                i += 1;
                only = Some(args[i].split(',').map(str::to_string).collect());
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: experiments [--scale small|full] [--root DIR] [--only LIST]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let selected: Vec<&str> = match &only {
        Some(list) => {
            for name in list {
                assert!(ALL.contains(&name.as_str()), "unknown experiment {name}");
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
            _ => unreachable!(),
        }
    }
    println!("== done in {} ==", fmt_duration(started.elapsed()));
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
}
