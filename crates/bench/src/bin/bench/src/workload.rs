//! The four workloads: what each one serves, how its server is
//! started, and the seeded request streams the generator sends.
//!
//! Fixtures are fixed (dataset seed 6, build seed 42) so that index
//! bytes, answers and every exact count repeat; only the *order* of
//! requests comes from `--seed`. The product never sees the seed, only
//! the generated request lines.

/// Dataset seed of every fixture (`kbtim gen --seed`).
pub const DATA_SEED: u64 = 6;
/// Build seed of every fixture (`kbtim build --seed`, also what
/// `serve --data` must repeat).
pub const BUILD_SEED: u64 = 42;
/// Seed-set sizes a request draws from.
pub const K_CHOICES: [u32; 3] = [5, 10, 25];
/// Keyword sets in the `hot_cached` population.
pub const HOT_SETS: usize = 12;
/// Writer acks between explicit `{"op":"flush"}` requests.
pub const FLUSH_EVERY: u64 = 100;

/// SplitMix64 — the benchmark's own generator, so request streams do
/// not change when the product's vendored `rand` does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotCached,
    ColdScan,
    ShardedScan,
    LiveIngest,
}

/// One workload: the server configuration it runs against and its
/// frozen open-loop rate and latency limit.
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    /// `kbtim serve` flags beyond `--index/--listen/--workers/--threads`.
    pub serve_flags: &'static [&'static str],
    /// `kbtim build --shards`.
    pub shards: usize,
    /// Open-loop rate of the `paced` phase, requests per second, frozen:
    /// half of this tree's `qps` on the builder's host at two
    /// significant digits, less where that sat on a knee (see README.md
    /// §calibration).
    pub paced_rate: f64,
    /// A paced response later than this counts as failed.
    pub latency_limit_ms: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::HotCached,
        name: "hot_cached",
        why: "12 Zipf keyword sets fit the merge cache: decode and merge are skipped, so \
              front end, protocol, admission and greedy are what is timed",
        serve_flags: &["--merge-cache", "64"],
        shards: 1,
        paced_rate: 1500.0,
        latency_limit_ms: 20.0,
    },
    Workload {
        kind: Kind::ColdScan,
        name: "cold_scan",
        why: "all 2500 keyword sets, file backend, no batching or cache: the paper's \
              per-request RR scan and IRR NRA, where storage, codec and merge dominate",
        serve_flags: &["--serving", "file", "--batch", "0", "--merge-cache", "0"],
        shards: 1,
        paced_rate: 81.0,
        latency_limit_ms: 250.0,
    },
    Workload {
        kind: Kind::ShardedScan,
        name: "sharded_scan",
        why: "the cold_scan requests on a 4-shard index with a cache 40x too small: \
              batch planner, scatter-gather decode and one global greedy",
        serve_flags: &["--merge-cache", "64"],
        shards: 4,
        paced_rate: 110.0,
        latency_limit_ms: 250.0,
    },
    Workload {
        kind: Kind::LiveIngest,
        name: "live_ingest",
        why: "a closed-loop writer beside paced readers on the delta tier, then kill -9 \
              and recovery: write-path gains that cost reader latency show, and the reverse",
        serve_flags: &[],
        shards: 1,
        paced_rate: 1000.0,
        latency_limit_ms: 50.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Fixture sizes. `full` is what `BENCHMARK.json` measures; `smoke`
/// runs the same code on a fixture small enough for a 20 s check.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub users: u32,
    pub topics: u32,
    pub cap: u64,
    pub live_users: u32,
    pub live_topics: u32,
    pub live_cap: u64,
    /// Requests the in-process trace replays per pass.
    pub trace_requests: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        users: 100_000,
        topics: 16,
        cap: 50_000,
        live_users: 20_000,
        live_topics: 8,
        live_cap: 2_000,
        trace_requests: 80,
    };
    pub const SMOKE: Scale = Scale {
        users: 2_000,
        topics: 16,
        cap: 1_000,
        live_users: 2_000,
        live_topics: 8,
        live_cap: 600,
        trace_requests: 40,
    };
}

/// What `kbtim gen | build` are asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixtureSpec {
    pub users: u32,
    pub topics: u32,
    pub cap: u64,
    pub shards: usize,
    /// Serve with `--data` (mutable delta tier).
    pub live: bool,
}

impl Workload {
    pub fn fixture(&self, scale: &Scale) -> FixtureSpec {
        if self.kind == Kind::LiveIngest {
            FixtureSpec {
                users: scale.live_users,
                topics: scale.live_topics,
                cap: scale.live_cap,
                shards: 1,
                live: true,
            }
        } else {
            FixtureSpec {
                users: scale.users,
                topics: scale.topics,
                cap: scale.cap,
                shards: self.shards,
                live: false,
            }
        }
    }
}

/// Every subset of `0..topics` with `min..=max` members, smallest sizes
/// first, lexicographic within a size.
pub fn keyword_sets(topics: u32, min: usize, max: usize) -> Vec<Vec<u32>> {
    fn extend(topics: u32, size: usize, from: u32, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if cur.len() == size {
            out.push(cur.clone());
            return;
        }
        for t in from..topics {
            cur.push(t);
            extend(topics, size, t + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    for size in min..=max {
        extend(topics, size, 0, &mut Vec::new(), &mut out);
    }
    out
}

/// One query request (the id is assigned when it is sent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReq {
    pub topics: Vec<u32>,
    pub k: u32,
    pub irr: bool,
}

impl QueryReq {
    pub fn algo(&self) -> &'static str {
        if self.irr {
            "irr"
        } else {
            "rr"
        }
    }

    pub fn line(&self, id: u64) -> String {
        let topics: Vec<String> = self.topics.iter().map(u32::to_string).collect();
        format!(
            "{{\"id\":{id},\"topics\":[{}],\"k\":{},\"algo\":\"{}\"}}",
            topics.join(","),
            self.k,
            self.algo()
        )
    }
}

/// The seeded query stream of one workload.
pub struct QueryGen {
    sets: Vec<Vec<u32>>,
    /// Cumulative Zipf(1.0) weights over `sets` (`hot_cached`); uniform
    /// when `None`.
    zipf_cdf: Option<Vec<f64>>,
    rng: SplitMix64,
    sent: u64,
}

impl QueryGen {
    pub fn new(kind: Kind, topics: u32, seed: u64) -> QueryGen {
        let (sets, zipf_cdf) = match kind {
            Kind::HotCached => {
                // A fixed dozen of the 2–4-keyword sets, the same for
                // every `--seed`: the cache working set must not change
                // between runs, only the order of requests.
                let mut all = keyword_sets(topics, 2, 4);
                let mut pick = SplitMix64::new(DATA_SEED);
                let mut sets = Vec::with_capacity(HOT_SETS);
                while sets.len() < HOT_SETS && !all.is_empty() {
                    sets.push(all.swap_remove(pick.below(all.len() as u64) as usize));
                }
                let mut acc = 0.0;
                let cdf: Vec<f64> = (1..=sets.len())
                    .map(|rank| {
                        acc += 1.0 / rank as f64;
                        acc
                    })
                    .collect();
                (sets, Some(cdf))
            }
            Kind::ColdScan | Kind::ShardedScan => (keyword_sets(topics, 2, 4), None),
            Kind::LiveIngest => (keyword_sets(topics, 2, 3), None),
        };
        QueryGen { sets, zipf_cdf, rng: SplitMix64::new(seed ^ 0x5eed_0001), sent: 0 }
    }

    pub fn next_query(&mut self) -> QueryReq {
        let set = match &self.zipf_cdf {
            Some(cdf) => {
                let x = self.rng.unit() * cdf[cdf.len() - 1];
                cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)
            }
            None => self.rng.below(self.sets.len() as u64) as usize,
        };
        let k = K_CHOICES[self.rng.below(K_CHOICES.len() as u64) as usize];
        // rr and irr strictly alternate, so both algorithms see the
        // same share of the stream whatever the seed.
        let irr = self.sent % 2 == 1;
        self.sent += 1;
        QueryReq { topics: self.sets[set].clone(), k, irr }
    }
}

/// One write request of the `live_ingest` writer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteReq {
    Edge { from: u32, to: u32 },
    Weight { user: u32, topic: u32, weight: f32 },
    User,
    Flush,
}

impl WriteReq {
    pub fn op(&self) -> &'static str {
        match self {
            WriteReq::Edge { .. } => "ingest_edge",
            WriteReq::Weight { .. } => "set_topic_weight",
            WriteReq::User => "ingest_user",
            WriteReq::Flush => "flush",
        }
    }

    pub fn line(&self, id: u64) -> String {
        match *self {
            WriteReq::Edge { from, to } => {
                format!("{{\"id\":{id},\"op\":\"ingest_edge\",\"from\":{from},\"to\":{to}}}")
            }
            WriteReq::Weight { user, topic, weight } => format!(
                "{{\"id\":{id},\"op\":\"set_topic_weight\",\"user\":{user},\
                 \"topic\":{topic},\"weight\":{weight:.2}}}"
            ),
            WriteReq::User => format!("{{\"id\":{id},\"op\":\"ingest_user\"}}"),
            WriteReq::Flush => format!("{{\"id\":{id},\"op\":\"flush\"}}"),
        }
    }
}

/// The seeded mutation stream: edges, weight updates and new users in
/// ratio 8:3:1 (the per-round edge-estimate updates of online influence
/// maximisation dominate), endpoints among the fixture's original
/// users so no write can be rejected.
pub struct WriteGen {
    rng: SplitMix64,
    users: u32,
    topics: u32,
    sent: u64,
}

impl WriteGen {
    pub fn new(users: u32, topics: u32, seed: u64) -> WriteGen {
        WriteGen { rng: SplitMix64::new(seed ^ 0x5eed_0002), users, topics, sent: 0 }
    }

    pub fn next_write(&mut self) -> WriteReq {
        const CYCLE: [u8; 12] = *b"eeweeeweeweu";
        let slot = CYCLE[(self.sent % 12) as usize];
        self.sent += 1;
        let user = self.rng.below(self.users as u64) as u32;
        match slot {
            b'e' => {
                let to = (user + 1 + self.rng.below(self.users as u64 - 1) as u32) % self.users;
                WriteReq::Edge { from: user, to }
            }
            b'w' => WriteReq::Weight {
                user,
                topic: self.rng.below(self.topics as u64) as u32,
                weight: 0.05 + self.rng.below(19) as f32 / 20.0,
            },
            _ => WriteReq::User,
        }
    }
}

/// A fixed open-loop schedule: request `i` is due `i / rate` seconds
/// after the phase starts, whatever happened to the requests before
/// it. Times are nanoseconds since the phase start.
#[derive(Debug, Clone)]
pub struct PacedSchedule {
    rate: f64,
    total: u64,
    next: u64,
}

impl PacedSchedule {
    /// A schedule of `rate` requests per second for `duration_ns`.
    pub fn new(rate: f64, duration_ns: u64) -> PacedSchedule {
        PacedSchedule { rate, total: (rate * duration_ns as f64 / 1e9).floor() as u64, next: 0 }
    }

    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * 1e9 / self.rate) as u64
    }

    /// When the next unsent request is due, if any is left.
    pub fn next_due_ns(&self) -> Option<u64> {
        (self.next < self.total).then(|| self.due_ns(self.next))
    }

    /// Index of the next unsent request (it picks the connection).
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Requests of the schedule that were never sent.
    pub fn unsent(&self) -> u64 {
        self.total - self.next
    }

    /// The next request whose due time has passed at `now_ns`, with
    /// that due time. After a stall every overdue request comes out,
    /// one call each, still carrying its *original* due time — latency
    /// is measured from there, so the stall is charged to the requests
    /// it delayed and not hidden by re-planning.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        let due = self.next_due_ns()?;
        (due <= now_ns).then(|| {
            self.next += 1;
            (self.next - 1, due)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_set_population_sizes() {
        // C(16,2) + C(16,3) + C(16,4) = 120 + 560 + 1820.
        assert_eq!(keyword_sets(16, 2, 4).len(), 2500);
        assert_eq!(keyword_sets(8, 2, 3).len(), 28 + 56);
        assert_eq!(keyword_sets(4, 2, 2)[0], vec![0, 1]);
    }

    #[test]
    fn same_seed_same_stream_and_hot_sets_ignore_the_seed() {
        let draw = |seed| {
            let mut gen = QueryGen::new(Kind::HotCached, 16, seed);
            (0..50).map(|_| gen.next_query()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let sets = |seed| QueryGen::new(Kind::HotCached, 16, seed).sets;
        assert_eq!(sets(3), sets(4));
        assert_eq!(sets(3).len(), HOT_SETS);
        assert_eq!(QueryGen::new(Kind::ColdScan, 16, 1).sets.len(), 2500);
    }

    #[test]
    fn algorithms_alternate_and_lines_parse_as_requests() {
        let mut gen = QueryGen::new(Kind::ColdScan, 16, 9);
        for i in 0..20u64 {
            let q = gen.next_query();
            assert_eq!(q.irr, i % 2 == 1);
            let parsed = kbtim::serve::ServeRequest::parse(&q.line(i)).unwrap();
            assert_eq!(parsed.id, Some(i));
            assert_eq!(parsed.request.topics, q.topics);
            assert_eq!(parsed.request.k, q.k);
        }
    }

    #[test]
    fn write_stream_keeps_its_ratio_and_parses() {
        let mut gen = WriteGen::new(500, 8, 2);
        let mut counts = [0usize; 3];
        for i in 0..120u64 {
            let w = gen.next_write();
            match w {
                WriteReq::Edge { from, to } => {
                    assert!(from < 500 && to < 500 && from != to);
                    counts[0] += 1;
                }
                WriteReq::Weight { user, topic, weight } => {
                    assert!(user < 500 && topic < 8 && weight > 0.0);
                    counts[1] += 1;
                }
                WriteReq::User => counts[2] += 1,
                WriteReq::Flush => unreachable!("flushes are the writer's, not the stream's"),
            }
            let parsed = kbtim::serve::ServeRequest::parse(&w.line(i)).unwrap();
            assert_eq!(parsed.op.name(), w.op());
        }
        assert_eq!(counts, [80, 30, 10]);
        kbtim::serve::ServeRequest::parse(&WriteReq::Flush.line(1)).unwrap();
    }

    #[test]
    fn due_times_survive_an_injected_stall() {
        // 1 000 requests/s for 20 ms: twenty requests, one per ms.
        let mut sched = PacedSchedule::new(1000.0, 20_000_000);
        assert_eq!(sched.total, 20);
        assert_eq!(sched.pop_due(0), Some((0, 0)));
        assert_eq!(sched.pop_due(500_000), None);
        assert_eq!(sched.next_due_ns(), Some(1_000_000));
        assert_eq!(sched.pop_due(1_000_000), Some((1, 1_000_000)));
        // The generator stalls until t = 10.2 ms. Requests 2..=10 were
        // due meanwhile: each comes out with its own due time, so its
        // latency will include the 8.2 … 0.2 ms it waited to be sent.
        let now = 10_200_000;
        let mut late = Vec::new();
        while let Some((i, due)) = sched.pop_due(now) {
            late.push((i, now - due));
        }
        assert_eq!(late.len(), 9);
        assert_eq!(late[0], (2, 8_200_000));
        assert_eq!(late[8], (10, 200_000));
        // Nothing was skipped and nothing re-planned.
        assert_eq!(sched.next_due_ns(), Some(11_000_000));
        while sched.pop_due(u64::MAX).is_some() {}
        assert_eq!(sched.next_due_ns(), None);
    }
}
