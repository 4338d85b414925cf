//! Named failpoints for deterministic fault injection.
//!
//! The serving runtime's failure paths — a corrupt block, a slow read, a
//! panicking worker — are rare by construction, which makes them
//! untestable by waiting. This crate puts a *named failpoint* on each
//! such surface: a call to [`inject`] that does nothing until the point
//! is armed, and then fails on purpose, deterministically.
//!
//! # Cost when disarmed
//!
//! The fast path is one relaxed atomic load and a branch ([`inject`]
//! returns `false` immediately when nothing is armed anywhere in the
//! process), so failpoints are compiled into release builds and left in
//! hot loops. The benchmark's `fault.inject_ns` row prices one site
//! (≈ 1 ns against requests of microseconds to a millisecond).
//!
//! # Arming
//!
//! Programmatically ([`arm`], [`disarm`], [`disarm_all`]) or through the
//! `KBTIM_FAILPOINTS` environment variable, read once at first use:
//!
//! ```text
//! KBTIM_FAILPOINTS='storage.read=err;engine.greedy=1%25*delay(100)'
//! ```
//!
//! Each entry is `name=spec`, separated by `;` or `,`. The spec grammar
//! is `[P%][N*]action`:
//!
//! * `P%` — fire with probability `P` (a float, default 100). Draws are
//!   a seeded counter hash per point, so a fixed seed replays the same
//!   fire pattern (see [`set_seed`] and `KBTIM_FAULT_SEED`).
//! * `N*` — a fire budget: trigger at most `N` times, then pass.
//! * `action` — what a fire does:
//!   * `err` — [`inject`] returns `true`; the call site returns its own
//!     injected error.
//!   * `delay(USEC)` — sleep that many microseconds, then pass.
//!   * `panic` — panic with a message naming the failpoint.
//!   * `noop` — never misbehave, but count evaluations (for measuring
//!     how often a site is reached).
//!
//! The special name `*` is a wildcard matched by every failpoint that is
//! not armed by its own name — `KBTIM_FAILPOINTS='*=0.1%delay(50)'`
//! jitters every instrumented site in the process. A name ending in `*`
//! is a *prefix* pattern: `flush.*=3%err` covers `flush.build`,
//! `flush.verify`, and `flush.commit`. Resolution order is exact name,
//! then the longest matching prefix pattern, then the catch-all `*`.
//!
//! # Books
//!
//! [`evaluations`] lists how many times each armed point was reached and
//! how many times it fired; [`reset`] disarms everything and clears the
//! books.
//!
//! # Test isolation
//!
//! The registry is process-global and `cargo test` runs a binary's
//! tests on parallel threads, so a test that arms a point would fail
//! its siblings. A test that arms holds [`exclusive`] for its whole
//! body; every other test in a binary that arms anywhere holds
//! [`shared`]. Both are RAII [`Lease`]s on one registry-wide lock.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The call site returns its injected error ([`inject`] → `true`).
    Err,
    /// Sleep this many microseconds, then pass.
    Delay(u64),
    /// Panic with a message naming the failpoint.
    Panic,
    /// Pass always — arm a point just to count how often it is reached.
    Noop,
}

/// One armed failpoint's full configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// The effect of a fire.
    pub action: Action,
    /// Fire probability in `0.0..=1.0` (evaluated on a seeded
    /// deterministic counter hash; `1.0` fires every evaluation).
    pub probability: f64,
    /// Remaining fire budget; `None` is unlimited.
    pub budget: Option<u64>,
}

impl Config {
    /// An always-firing, unlimited configuration for `action`.
    pub fn new(action: Action) -> Config {
        Config { action, probability: 1.0, budget: None }
    }
}

/// Parse a spec string (`[P%][N*]action`) into a [`Config`].
///
/// ```
/// use kbtim_fault::{parse_spec, Action};
/// let c = parse_spec("25%3*delay(100)").unwrap();
/// assert_eq!(c.action, Action::Delay(100));
/// assert_eq!(c.probability, 0.25);
/// assert_eq!(c.budget, Some(3));
/// ```
pub fn parse_spec(spec: &str) -> Result<Config, String> {
    let mut rest = spec.trim();
    let mut probability = 1.0f64;
    let mut budget = None;
    if let Some(pos) = rest.find('%') {
        let p: f64 =
            rest[..pos].trim().parse().map_err(|_| format!("bad probability in {spec:?}"))?;
        if !(0.0..=100.0).contains(&p) {
            return Err(format!("probability out of range in {spec:?}"));
        }
        probability = p / 100.0;
        rest = &rest[pos + 1..];
    }
    if let Some(pos) = rest.find('*') {
        let n: u64 = rest[..pos].trim().parse().map_err(|_| format!("bad budget in {spec:?}"))?;
        budget = Some(n);
        rest = &rest[pos + 1..];
    }
    let rest = rest.trim();
    let action = if rest == "err" {
        Action::Err
    } else if rest == "panic" {
        Action::Panic
    } else if rest == "noop" {
        Action::Noop
    } else if let Some(usec) = rest.strip_prefix("delay(").and_then(|r| r.strip_suffix(')')) {
        Action::Delay(usec.trim().parse().map_err(|_| format!("bad delay in {spec:?}"))?)
    } else {
        return Err(format!("unknown failpoint action {rest:?}"));
    };
    Ok(Config { action, probability, budget })
}

/// One registered point's mutable state.
#[derive(Debug)]
struct Point {
    config: Config,
    /// Evaluations so far (drives the deterministic probability draw).
    hits: u64,
    /// Actual fires so far.
    fires: u64,
}

#[derive(Default)]
struct Registry {
    points: HashMap<String, Point>,
    seed: u64,
}

/// Number of armed points; zero keeps [`inject`] on its fast path.
///
/// Starts at [`UNINITIALIZED`] so the very first evaluation anywhere
/// takes the slow path and initializes the registry — otherwise a
/// process that only ever calls [`inject`] (the production binary
/// under `KBTIM_FAILPOINTS`) would never parse its environment arming.
static ARMED: AtomicUsize = AtomicUsize::new(UNINITIALIZED);

const UNINITIALIZED: usize = usize::MAX;

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    let lock = REGISTRY.get_or_init(|| {
        let mut reg = Registry { points: HashMap::new(), seed: 0x9E3779B97F4A7C15 };
        if let Ok(seed) = std::env::var("KBTIM_FAULT_SEED") {
            if let Ok(seed) = seed.trim().parse() {
                reg.seed = seed;
            }
        }
        if let Ok(spec) = std::env::var("KBTIM_FAILPOINTS") {
            for entry in spec.split([';', ',']).map(str::trim).filter(|e| !e.is_empty()) {
                match entry.split_once('=') {
                    Some((name, spec)) => match parse_spec(spec) {
                        Ok(config) => {
                            reg.points.insert(
                                name.trim().to_string(),
                                Point { config, hits: 0, fires: 0 },
                            );
                        }
                        Err(err) => eprintln!("kbtim-fault: ignoring {entry:?}: {err}"),
                    },
                    None => eprintln!("kbtim-fault: ignoring malformed entry {entry:?}"),
                }
            }
        }
        ARMED.store(reg.points.len(), Ordering::Release);
        Mutex::new(reg)
    });
    // A panicking failpoint unwinds holding no lock, but a *user* panic
    // while the registry is borrowed elsewhere must not wedge every
    // later inject: recover the data (registry state is always
    // consistent between lock ops).
    lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// SplitMix64 — the deterministic per-evaluation draw.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, stable across runs (names key the draw stream so two
    // points armed with the same seed fire on different schedules).
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Evaluate the failpoint `name`.
///
/// Returns `true` when an armed `err` action fires — the call site then
/// returns its own injected error. `delay` sleeps and `panic` panics
/// right here; both otherwise return `false`, as does every disarmed
/// evaluation. When nothing at all is armed this is one relaxed atomic
/// load (the first evaluation in the process takes the slow path once,
/// to load any `KBTIM_FAILPOINTS` environment arming).
#[inline]
pub fn inject(name: &str) -> bool {
    if ARMED.load(Ordering::Acquire) == 0 {
        return false;
    }
    inject_slow(name)
}

#[cold]
fn inject_slow(name: &str) -> bool {
    let action = {
        let mut reg = registry();
        let seed = reg.seed;
        // Exact name first, then the longest matching trailing-`*`
        // prefix pattern (`flush.*` covers `flush.commit`), then the
        // catch-all `*`.
        let key = if reg.points.contains_key(name) {
            Some(name.to_string())
        } else {
            reg.points
                .keys()
                .filter(|k| k.len() > 1 && k.ends_with('*') && name.starts_with(&k[..k.len() - 1]))
                .max_by_key(|k| k.len())
                .cloned()
        };
        let point = match key {
            Some(k) => reg.points.get_mut(&k).expect("key drawn from the map"),
            None => match reg.points.get_mut("*") {
                Some(point) => point,
                None => return false,
            },
        };
        point.hits += 1;
        let fired = match point.config.action {
            Action::Noop => false,
            _ => {
                let within_budget = point.config.budget.is_none_or(|b| point.fires < b);
                let draw = splitmix64(seed ^ hash_name(name) ^ point.hits);
                // Map the draw to [0, 1); p = 1.0 always fires.
                let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
                within_budget && u < point.config.probability
            }
        };
        if !fired {
            return false;
        }
        point.fires += 1;
        point.config.action
    };
    match action {
        Action::Err => true,
        Action::Delay(usec) => {
            std::thread::sleep(Duration::from_micros(usec));
            false
        }
        Action::Panic => panic!("failpoint '{name}' fired: injected panic"),
        Action::Noop => false,
    }
}

/// Arm failpoint `name` with a spec string (see [`parse_spec`]).
pub fn arm(name: &str, spec: &str) -> Result<(), String> {
    arm_with(name, parse_spec(spec)?);
    Ok(())
}

/// Arm failpoint `name` with an explicit [`Config`].
pub fn arm_with(name: &str, config: Config) {
    let mut reg = registry();
    reg.points.insert(name.to_string(), Point { config, hits: 0, fires: 0 });
    ARMED.store(reg.points.len(), Ordering::Release);
}

/// Disarm failpoint `name` (keeping every other point armed).
pub fn disarm(name: &str) {
    let mut reg = registry();
    reg.points.remove(name);
    ARMED.store(reg.points.len(), Ordering::Release);
}

/// Disarm every failpoint (books survive until [`reset`]).
pub fn disarm_all() {
    let mut reg = registry();
    reg.points.clear();
    ARMED.store(0, Ordering::Release);
}

/// Disarm everything and clear the books and re-seed from the default —
/// test isolation in one call.
pub fn reset() {
    let mut reg = registry();
    reg.points.clear();
    ARMED.store(0, Ordering::Release);
}

/// A lease on the process-global registry (see [`exclusive`] and
/// [`shared`]); released on drop.
pub struct Lease(LeaseSide);

enum LeaseSide {
    Exclusive { _held: RwLockWriteGuard<'static, ()> },
    Shared { _held: RwLockReadGuard<'static, ()> },
}

static LEASES: RwLock<()> = RwLock::new(());

/// Take the registry for a test that arms failpoints: waits until no
/// other lease is out, then [`reset`]s. Dropping the lease resets
/// again — also when the test panics — before any waiting lease is
/// granted, so armed points never leak into another test.
pub fn exclusive() -> Lease {
    let _held = LEASES.write().unwrap_or_else(PoisonError::into_inner);
    reset();
    Lease(LeaseSide::Exclusive { _held })
}

/// Take the shared side for a fault-free test that lives in a binary
/// where some other test arms: any number of shared leases coexist, and
/// none coexists with an [`exclusive`] one. Do not nest leases on one
/// thread.
pub fn shared() -> Lease {
    Lease(LeaseSide::Shared { _held: LEASES.read().unwrap_or_else(PoisonError::into_inner) })
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let LeaseSide::Exclusive { .. } = self.0 {
            reset();
        }
    }
}

/// Set the deterministic draw seed (also `KBTIM_FAULT_SEED` at startup).
/// Existing points keep their evaluation counters.
pub fn set_seed(seed: u64) {
    registry().seed = seed;
}

/// Whether any failpoint is currently armed (environment arming
/// included — this initializes the registry if nothing else has).
pub fn any_armed() -> bool {
    !registry().points.is_empty()
}

/// Per-point books: `(name, evaluations, fires)` for every armed point,
/// sorted by name.
pub fn evaluations() -> Vec<(String, u64, u64)> {
    let reg = registry();
    let mut rows: Vec<(String, u64, u64)> =
        reg.points.iter().map(|(n, p)| (n.clone(), p.hits, p.fires)).collect();
    rows.sort();
    rows
}

/// Evaluations recorded for one point (0 when not armed).
pub fn hits(name: &str) -> u64 {
    registry().points.get(name).map_or(0, |p| p.hits)
}

/// Fires recorded for one point (0 when not armed).
pub fn fires(name: &str) -> u64 {
    registry().points.get(name).map_or(0, |p| p.fires)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_inject_is_pass() {
        let _lease = exclusive();
        assert!(!inject("nothing.armed"));
        assert!(!any_armed());
    }

    #[test]
    fn err_action_fires_and_counts() {
        let _lease = exclusive();
        arm("t.err", "err").unwrap();
        assert!(inject("t.err"));
        assert!(inject("t.err"));
        assert_eq!(hits("t.err"), 2);
        assert_eq!(fires("t.err"), 2);
        assert!(!inject("t.other"), "other names stay clean");
        reset();
        assert!(!inject("t.err"));
    }

    #[test]
    fn budget_caps_fires() {
        let _lease = exclusive();
        arm("t.budget", "2*err").unwrap();
        let fired = (0..10).filter(|_| inject("t.budget")).count();
        assert_eq!(fired, 2);
        assert_eq!(hits("t.budget"), 10);
        assert_eq!(fires("t.budget"), 2);
    }

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let _lease = exclusive();
        set_seed(7);
        arm("t.prob", "25%err").unwrap();
        let pattern_a: Vec<bool> = (0..400).map(|_| inject("t.prob")).collect();
        let fired = pattern_a.iter().filter(|&&f| f).count();
        assert!((50..150).contains(&fired), "~25% of 400, got {fired}");
        // Same seed → same pattern.
        arm("t.prob", "25%err").unwrap();
        set_seed(7);
        let pattern_b: Vec<bool> = (0..400).map(|_| inject("t.prob")).collect();
        assert_eq!(pattern_a, pattern_b);
        // Different seed → different pattern.
        arm("t.prob", "25%err").unwrap();
        set_seed(8);
        let pattern_c: Vec<bool> = (0..400).map(|_| inject("t.prob")).collect();
        assert_ne!(pattern_a, pattern_c);
    }

    #[test]
    fn delay_sleeps_then_passes() {
        let _lease = exclusive();
        arm("t.delay", "delay(2000)").unwrap();
        let start = std::time::Instant::now();
        assert!(!inject("t.delay"));
        assert!(start.elapsed() >= Duration::from_micros(1500));
    }

    #[test]
    fn panic_action_panics_with_name() {
        let _lease = exclusive();
        arm("t.panic", "panic").unwrap();
        let caught = std::panic::catch_unwind(|| inject("t.panic"));
        reset();
        let message = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("t.panic"), "{message}");
    }

    #[test]
    fn noop_counts_without_firing() {
        let _lease = exclusive();
        arm("t.noop", "noop").unwrap();
        assert!(!inject("t.noop"));
        assert_eq!(hits("t.noop"), 1);
        assert_eq!(fires("t.noop"), 0);
    }

    #[test]
    fn wildcard_matches_unarmed_names() {
        let _lease = exclusive();
        arm("*", "err").unwrap();
        arm("t.mine", "noop").unwrap();
        assert!(inject("t.anything"), "wildcard catches unarmed names");
        assert!(!inject("t.mine"), "an explicit point shadows the wildcard");
        assert_eq!(fires("*"), 1);
    }

    #[test]
    fn prefix_wildcard_matches_by_longest_prefix() {
        let _lease = exclusive();
        arm("flush.*", "err").unwrap();
        arm("flush.commit", "noop").unwrap();
        arm("*", "noop").unwrap();
        assert!(!inject("flush.commit"), "an exact point shadows the prefix");
        assert!(inject("flush.build"), "prefix pattern catches the family");
        assert!(inject("flush.verify"));
        assert!(!inject("engine.decode"), "unrelated names fall to the catch-all");
        assert_eq!(fires("flush.*"), 2);
        assert_eq!(hits("*"), 1);
        reset();
        arm("flush.*", "noop").unwrap();
        arm("flush.c*", "err").unwrap();
        assert!(inject("flush.commit"), "the longest matching prefix wins");
        assert!(!inject("flush.build"));
    }

    #[test]
    fn exclusive_lease_resets_when_its_holder_unwinds() {
        let unwound = std::panic::catch_unwind(|| {
            let _lease = exclusive();
            arm("t.leak", "err").unwrap();
            panic!("test body failed with a point armed");
        });
        assert!(unwound.is_err());
        let _lease = exclusive();
        assert!(!inject("t.leak"), "a panicking holder must not leak its arming");
    }

    #[test]
    fn a_shared_lease_excludes_the_exclusive_side() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let held = shared();
        let armed = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (started_tx, started_rx) = std::sync::mpsc::channel();
            let armed = &armed;
            let armer = scope.spawn(move || {
                started_tx.send(()).unwrap();
                let _lease = exclusive();
                armed.store(true, Ordering::SeqCst);
            });
            started_rx.recv().unwrap();
            // The shared lease is still out: the armer cannot have run.
            assert!(!armed.load(Ordering::SeqCst));
            drop(held);
            armer.join().unwrap();
        });
        assert!(armed.load(Ordering::SeqCst));
    }

    #[test]
    fn shared_leases_coexist_across_threads() {
        // std's RwLock parks new readers behind a waiting writer, so a
        // sibling test's `exclusive()` queued between the two
        // acquisitions blocks the second one until the first is gone.
        // The holder therefore never waits on it unboundedly: it gives
        // its lease up and tries again.
        loop {
            let first = shared();
            let (held_tx, held_rx) = std::sync::mpsc::channel();
            let second = std::thread::spawn(move || {
                let _lease = shared();
                let _ = held_tx.send(());
            });
            let coexisted = held_rx.recv_timeout(std::time::Duration::from_millis(200)).is_ok();
            drop(first);
            second.join().unwrap();
            if coexisted {
                break;
            }
        }
    }

    #[test]
    fn spec_parser_accepts_grammar_and_rejects_garbage() {
        assert_eq!(parse_spec("err").unwrap(), Config::new(Action::Err));
        assert_eq!(parse_spec("delay(50)").unwrap().action, Action::Delay(50));
        assert_eq!(parse_spec("50%panic").unwrap().probability, 0.5);
        assert_eq!(parse_spec("3*err").unwrap().budget, Some(3));
        let full = parse_spec("0.5% 2* delay( 10 )").unwrap();
        assert_eq!(full, Config { action: Action::Delay(10), probability: 0.005, budget: Some(2) });
        assert!(parse_spec("explode").is_err());
        assert!(parse_spec("200%err").is_err());
        assert!(parse_spec("x*err").is_err());
        assert!(parse_spec("delay(x)").is_err());
    }

    #[test]
    fn evaluations_lists_books() {
        let _lease = exclusive();
        arm("t.a", "noop").unwrap();
        arm("t.b", "err").unwrap();
        inject("t.a");
        inject("t.b");
        let rows = evaluations();
        assert_eq!(rows, vec![("t.a".into(), 1, 0), ("t.b".into(), 1, 1)]);
    }
}
