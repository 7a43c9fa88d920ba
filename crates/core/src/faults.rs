//! Deterministic fault injection: a seeded [`FaultPlan`] compiled into
//! a [`FaultHandle`] that rides on every [`Budget`](crate::Budget)
//! exactly like the [`Tracer`](crate::trace::Tracer) does.
//!
//! Hardened code asks the handle "should fault X fire here?" at the
//! places where real-world failures strike — worker dispatch (panics),
//! lock acquisition (poisoning), budget checkpoints (slow-downs),
//! admission (queue-full forcing), the wire (truncation/corruption) —
//! and the handle answers from a *deterministic* per-site schedule:
//! site `s` fires on the `k`-th check iff `k ≡ phase(seed, s) (mod
//! period(s))`. The schedule depends only on the seed and on how many
//! times the site has been checked, never on wall clock or thread
//! identity, so a fault-laden run is reproducible enough for CI to
//! assert on it (the *assignment* of fires to threads may vary, the
//! multiset of fires per site does not).
//!
//! **Cost model.** The default handle is *inert*: every
//! [`FaultHandle::fire`] is a single branch on an `Option` that is
//! `None` — no atomics touched, nothing allocated — mirroring the
//! disabled-[`Tracer`](crate::trace::Tracer) contract. Production builds
//! pay one predictable branch per site; the full machinery only
//! materialises when a plan is parsed from `--faults=SPEC`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where in the stack a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside a worker's request execution.
    WorkerPanic,
    /// Deliberately poison a shared lock (panic while holding it).
    LockPoison,
    /// Sleep at a budget checkpoint, simulating a stalled worker.
    SlowDown,
    /// Truncate a wire request line mid-byte.
    WireTruncate,
    /// Corrupt bytes of a wire request line.
    WireCorrupt,
    /// Treat a lane queue as full regardless of its real occupancy.
    QueueFull,
}

/// Number of distinct [`FaultSite`]s.
const SITES: usize = 6;

/// Independent deterministic sub-streams per site, so a sharded
/// consumer (e.g. one stream per worker lane) can guarantee every
/// shard sees its share of fires. Stream 0 is the default.
pub const FAULT_STREAMS: usize = 4;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::WorkerPanic => 0,
            FaultSite::LockPoison => 1,
            FaultSite::SlowDown => 2,
            FaultSite::WireTruncate => 3,
            FaultSite::WireCorrupt => 4,
            FaultSite::QueueFull => 5,
        }
    }

    /// Stable lower-snake name (used in `--faults=SPEC` and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "panic",
            FaultSite::LockPoison => "poison",
            FaultSite::SlowDown => "slow",
            FaultSite::WireTruncate => "truncate",
            FaultSite::WireCorrupt => "corrupt",
            FaultSite::QueueFull => "queue-full",
        }
    }

    /// Every site, in index order.
    pub fn all() -> [FaultSite; SITES] {
        [
            FaultSite::WorkerPanic,
            FaultSite::LockPoison,
            FaultSite::SlowDown,
            FaultSite::WireTruncate,
            FaultSite::WireCorrupt,
            FaultSite::QueueFull,
        ]
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded schedule of injected faults: for each site, fire every
/// `period`-th check (0 disables the site). Parsed from the
/// `--faults=SPEC` flag syntax:
///
/// ```text
/// seed=7,panic=5,poison=9,slow=11,slow-ms=2,truncate=17,corrupt=13,queue-full=6
/// ```
///
/// Every key is optional; unknown keys are rejected so typos fail loud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed shifting each site's firing phase (reproducibility knob).
    pub seed: u64,
    /// Per-site periods, indexed by [`FaultSite::index`]; 0 = disabled.
    periods: [u64; SITES],
    /// Sleep applied when [`FaultSite::SlowDown`] fires.
    pub slow_down: Duration,
}

impl Default for FaultPlan {
    /// All sites disabled, seed 0.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            periods: [0; SITES],
            slow_down: Duration::from_millis(1),
        }
    }
}

impl FaultPlan {
    /// A plan with every site disabled (fires nothing even if armed).
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the firing period of `site` (every `period`-th check; 0
    /// disables).
    pub fn with_period(mut self, site: FaultSite, period: u64) -> Self {
        self.periods[site.index()] = period;
        self
    }

    /// Sets the seed (shifts every site's firing phase).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sleep injected by [`FaultSite::SlowDown`] fires.
    pub fn with_slow_down(mut self, d: Duration) -> Self {
        self.slow_down = d;
        self
    }

    /// The firing period of `site` (0 = disabled).
    pub fn period(&self, site: FaultSite) -> u64 {
        self.periods[site.index()]
    }

    /// True if no site can ever fire.
    pub fn is_empty(&self) -> bool {
        self.periods.iter().all(|&p| p == 0)
    }

    /// Parses the `--faults=SPEC` syntax (see type docs).
    ///
    /// # Errors
    ///
    /// A message naming the offending `key=value` pair. Repeating a key
    /// (`panic=5,panic=9`) is an error rather than silently keeping the
    /// last value: a duplicated key in a fault spec is almost always a
    /// typo for a *different* site, and last-wins would arm a schedule
    /// the operator never asked for.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: expected key=value"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|e| format!("fault spec `{part}`: {e}"))?;
            let key = key.trim();
            if seen.contains(&key) {
                return Err(format!("fault spec `{part}`: duplicate key `{key}`"));
            }
            match key {
                "seed" => plan.seed = n,
                "slow-ms" => plan.slow_down = Duration::from_millis(n),
                other => {
                    let site = FaultSite::all()
                        .into_iter()
                        .find(|s| s.name() == other)
                        .ok_or_else(|| {
                            format!(
                                "fault spec `{part}`: unknown key (expected seed, slow-ms, or one \
                                 of panic/poison/slow/truncate/corrupt/queue-full)"
                            )
                        })?;
                    plan.periods[site.index()] = n;
                }
            }
            seen.push(key);
        }
        Ok(plan)
    }
}

/// The armed form of a [`FaultPlan`]: per-(site, stream) check counters
/// plus per-(site, stream) fire counts, shared across threads.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    checks: [AtomicU64; SITES * FAULT_STREAMS],
    fired: [AtomicU64; SITES * FAULT_STREAMS],
}

impl FaultInjector {
    /// Arms `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            checks: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Seed-derived phase offset of `(site, stream)`: which residue of
    /// the check counter fires. Kept below the period so the very first
    /// `period` checks always contain exactly one fire.
    fn phase(&self, slot: usize, period: u64) -> u64 {
        // splitmix-style scramble; any fixed mixing works, it only has
        // to depend on (seed, slot) and stay stable across runs.
        let mut z = self
            .plan
            .seed
            .wrapping_add((slot as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % period
    }

    /// Records one check of `site` on `stream` and reports whether the
    /// fault fires there. Stream indices are taken modulo
    /// [`FAULT_STREAMS`].
    pub fn fire_in(&self, site: FaultSite, stream: usize) -> bool {
        let period = self.plan.periods[site.index()];
        if period == 0 {
            return false;
        }
        let slot = site.index() * FAULT_STREAMS + (stream % FAULT_STREAMS);
        let k = self.checks[slot].fetch_add(1, Ordering::Relaxed);
        let fires = k % period == self.phase(slot, period);
        if fires {
            self.fired[slot].fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// [`fire_in`](Self::fire_in) on the default stream 0.
    pub fn fire(&self, site: FaultSite) -> bool {
        self.fire_in(site, 0)
    }

    /// Total fires of `site` across all streams so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        let base = site.index() * FAULT_STREAMS;
        (0..FAULT_STREAMS)
            .map(|s| self.fired[base + s].load(Ordering::Relaxed))
            .sum()
    }

    /// Fires of `site` on one specific stream.
    pub fn injected_in(&self, site: FaultSite, stream: usize) -> u64 {
        self.fired[site.index() * FAULT_STREAMS + (stream % FAULT_STREAMS)].load(Ordering::Relaxed)
    }
}

/// The handle hardened code consults, carried by [`Budget`](crate::Budget)
/// the same way the tracer is. `Default` is the inert handle: one
/// `Option` branch per check, nothing else — the production cost of the
/// fault layer when `--faults` is off.
#[derive(Debug, Clone, Default)]
pub struct FaultHandle {
    injector: Option<Arc<FaultInjector>>,
}

impl FaultHandle {
    /// The inert handle (never fires, costs one branch per check).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Arms `plan`. An empty plan still short-circuits to inert.
    pub fn new(plan: FaultPlan) -> Self {
        if plan.is_empty() {
            return Self::default();
        }
        FaultHandle {
            injector: Some(Arc::new(FaultInjector::new(plan))),
        }
    }

    /// True when a non-empty plan is armed.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.injector.is_some()
    }

    /// Should `site` fire at this check? Inert handles answer `false`
    /// from a single branch.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> bool {
        match &self.injector {
            Some(inj) => inj.fire(site),
            None => false,
        }
    }

    /// [`fire`](Self::fire) on a specific deterministic sub-stream
    /// (e.g. one per worker lane).
    #[inline]
    pub fn fire_in(&self, site: FaultSite, stream: usize) -> bool {
        match &self.injector {
            Some(inj) => inj.fire_in(site, stream),
            None => false,
        }
    }

    /// Applies a [`FaultSite::SlowDown`] check: sleeps the planned
    /// duration when the site fires. Call from amortised checkpoints
    /// only — an inert handle reduces this to one branch.
    #[inline]
    pub fn maybe_slow_down(&self) {
        if let Some(inj) = &self.injector {
            if inj.fire(FaultSite::SlowDown) {
                std::thread::sleep(inj.plan.slow_down);
            }
        }
    }

    /// Fires of `site` on one specific stream (0 for inert handles).
    pub fn injected_in(&self, site: FaultSite, stream: usize) -> u64 {
        self.injector
            .as_ref()
            .map_or(0, |inj| inj.injected_in(site, stream))
    }

    /// Total fires of `site` so far (0 for inert handles).
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injector.as_ref().map_or(0, |inj| inj.injected(site))
    }

    /// The armed injector, if any (doctor-style reports read counters
    /// through this).
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_deref()
    }
}

/// Installs — once per process — a panic hook that swallows the panics
/// this module's consumers inject (payloads starting with
/// `"injected "`), delegating every other panic to the previously
/// installed hook. Without it, a fault-laden replay (`cspdb doctor`)
/// buries its report under dozens of expected-and-caught backtraces;
/// real panics still report normally.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
                .is_some_and(|m| m.starts_with("injected "));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_handle_never_fires() {
        let h = FaultHandle::disabled();
        assert!(!h.is_active());
        for site in FaultSite::all() {
            for _ in 0..100 {
                assert!(!h.fire(site));
            }
            assert_eq!(h.injected(site), 0);
        }
        h.maybe_slow_down(); // must not sleep or panic
        assert!(h.injector().is_none());
        // An empty plan collapses to the inert handle.
        assert!(!FaultHandle::new(FaultPlan::none()).is_active());
    }

    #[test]
    fn parse_roundtrips_the_spec_syntax() {
        let plan = FaultPlan::parse(
            "seed=7,panic=5,poison=9,slow=11,slow-ms=2,truncate=17,corrupt=13,queue-full=6",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.period(FaultSite::WorkerPanic), 5);
        assert_eq!(plan.period(FaultSite::LockPoison), 9);
        assert_eq!(plan.period(FaultSite::SlowDown), 11);
        assert_eq!(plan.period(FaultSite::WireTruncate), 17);
        assert_eq!(plan.period(FaultSite::WireCorrupt), 13);
        assert_eq!(plan.period(FaultSite::QueueFull), 6);
        assert_eq!(plan.slow_down, Duration::from_millis(2));
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("panic").is_err(), "missing =value");
        assert!(FaultPlan::parse("panic=x").is_err(), "non-numeric");
        assert!(FaultPlan::parse("frobnicate=3").is_err(), "unknown key");
    }

    #[test]
    fn parse_rejects_duplicate_keys() {
        for spec in [
            "panic=5,panic=9",
            "seed=1,seed=2",
            "slow-ms=1,slow-ms=2",
            "seed=7, panic=3 ,poison=2,panic=3",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains("duplicate key"), "{spec}: {err}");
        }
        // Distinct keys still parse; a site name never clashes with the
        // scalar keys.
        let plan = FaultPlan::parse("seed=1,slow-ms=2,panic=3").unwrap();
        assert_eq!(plan.period(FaultSite::WorkerPanic), 3);
    }

    #[test]
    fn firing_is_deterministic_and_periodic() {
        let make = || {
            FaultHandle::new(
                FaultPlan::none()
                    .with_seed(42)
                    .with_period(FaultSite::WorkerPanic, 5),
            )
        };
        let a = make();
        let b = make();
        let seq = |h: &FaultHandle| -> Vec<bool> {
            (0..25).map(|_| h.fire(FaultSite::WorkerPanic)).collect()
        };
        let sa = seq(&a);
        assert_eq!(sa, seq(&b), "same seed, same schedule");
        assert_eq!(
            sa.iter().filter(|&&f| f).count(),
            5,
            "period 5 over 25 checks fires exactly 5 times"
        );
        // Exactly one fire in every window of `period` checks.
        for w in sa.chunks(5) {
            assert_eq!(w.iter().filter(|&&f| f).count(), 1, "{sa:?}");
        }
        assert_eq!(a.injected(FaultSite::WorkerPanic), 5);
    }

    #[test]
    fn seed_shifts_the_phase() {
        let phase_of = |seed: u64| -> usize {
            let h = FaultHandle::new(
                FaultPlan::none()
                    .with_seed(seed)
                    .with_period(FaultSite::LockPoison, 50),
            );
            (0..50)
                .position(|_| h.fire(FaultSite::LockPoison))
                .expect("one fire per period window")
        };
        let phases: Vec<usize> = (0..8).map(phase_of).collect();
        let distinct: std::collections::HashSet<_> = phases.iter().collect();
        assert!(distinct.len() > 1, "seeds must move the phase: {phases:?}");
    }

    #[test]
    fn streams_are_independent() {
        let h = FaultHandle::new(
            FaultPlan::none()
                .with_seed(3)
                .with_period(FaultSite::WorkerPanic, 4),
        );
        // Each stream fires within its own first `period` checks,
        // regardless of what other streams consumed.
        for stream in 0..FAULT_STREAMS {
            let fired = (0..4).any(|_| h.fire_in(FaultSite::WorkerPanic, stream));
            assert!(fired, "stream {stream} must fire in its first window");
            assert_eq!(h.injected_in(FaultSite::WorkerPanic, stream), 1);
        }
        assert_eq!(h.injected(FaultSite::WorkerPanic), FAULT_STREAMS as u64);
    }

    #[test]
    fn site_names_are_stable_and_displayed() {
        for site in FaultSite::all() {
            assert_eq!(site.to_string(), site.name());
            // Every name parses back as a spec key.
            let plan = FaultPlan::parse(&format!("{}=3", site.name())).unwrap();
            assert_eq!(plan.period(site), 3);
        }
    }
}
