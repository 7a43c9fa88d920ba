//! Resource governance: budgets, cooperative cancellation, and the
//! `Sat / Unsat / Unknown` answer taxonomy.
//!
//! Every solver path in this workspace can run under a [`Budget`]: a
//! wall-clock deadline, a step (node/revision/iteration) limit, a cap on
//! intermediate tuples materialised by join-style algorithms, and a
//! cooperative [`CancelToken`]. A budget is plain data; one [`Meter`]
//! enforces it. Every governed algorithm has one governed entry point,
//! `<algo>_metered(.., meter: &mut Meter)`, and calls [`Meter::tick`]
//! once per unit of work and [`Meter::charge_tuples`] per materialised
//! batch.
//!
//! **Local counts.** A meter counts in plain integers. The clock and
//! the cancellation flag are read when it leases quota — on its first
//! unit of work and then once per [`CHECK_INTERVAL`] units — so
//! governance costs a counter increment on the fast path.
//!
//! **Leased quota.** Step and tuple limits live in a pool shared by
//! every handle of a meter. A handle leases quota from the pool in
//! `CHECK_INTERVAL` chunks, capped by what remains, and returns what it
//! did not use when it is dropped. When the pool runs dry the limit
//! drains: every handle returns its quota and charges the pool directly,
//! so a limit never trips before the handles' total work passes it.
//!
//! **One fork per worker.** A parallel kernel hands each worker a
//! [`Meter::fork`] of its meter, which first returns the parent's own
//! quota to the pool. The first handle to trip latches the reason in
//! the pool, and every other handle fails its next call.
//!
//! When a limit trips, the algorithm unwinds with
//! [`ExhaustionReason`], and entry points report
//! [`Answer::Unknown`] rather than guessing. The contract everywhere is
//! **soundness under exhaustion**: a budgeted run may say `Unknown`, but
//! if it says `Sat` or `Unsat` that answer agrees with the unbudgeted
//! ground truth.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::CoreError;
use crate::faults::{FaultHandle, FaultPlan};
use crate::trace::{TraceSink, Tracer};

/// Number of steps (or tuples) a [`Meter`] handle leases at a time, and
/// so the number of [`Meter::tick`] calls between expensive checkpoint
/// checks (clock read, cancellation flag load).
pub const CHECK_INTERVAL: u64 = 1024;

/// Shared flag for cooperative cancellation.
///
/// Clone the token, hand one copy to the solving thread's [`Budget`],
/// and call [`CancelToken::cancel`] from anywhere (another thread, a
/// signal handler, a UI callback). Running algorithms observe the flag
/// at their next checkpoint and unwind with
/// [`ExhaustionReason::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks. Cancelling a
    /// [`child`](Self::child) does not cancel its parent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) has been called on this token
    /// or on any ancestor it was [`child`](Self::child)-derived from.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// Derives a linked token: cancelling the parent cancels the child,
    /// but cancelling the child leaves the parent (and its other
    /// children) running. Portfolio racing uses this — the race's
    /// "winner found" cancellation must not look like a caller abort.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }
}

/// Which resource a budgeted run exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustionReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The step (search node / revision / iteration) limit was reached.
    StepLimitExceeded,
    /// The cap on materialised intermediate tuples was reached.
    TupleLimitExceeded,
    /// The [`CancelToken`] was triggered.
    Cancelled,
}

impl ExhaustionReason {
    /// Short resource name, as used in [`CoreError::ResourceExhausted`].
    pub fn resource_name(self) -> &'static str {
        match self {
            ExhaustionReason::DeadlineExceeded => "wall-clock",
            ExhaustionReason::StepLimitExceeded => "steps",
            ExhaustionReason::TupleLimitExceeded => "tuples",
            ExhaustionReason::Cancelled => "cancellation",
        }
    }
}

impl std::fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustionReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExhaustionReason::StepLimitExceeded => write!(f, "step limit exceeded"),
            ExhaustionReason::TupleLimitExceeded => write!(f, "tuple limit exceeded"),
            ExhaustionReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Declarative resource limits for one solving run.
///
/// A `Budget` is plain data: cloning it gives an identical set of
/// limits (and shares the same [`CancelToken`]). To *enforce* a budget,
/// create a [`Meter`] with [`Budget::meter`] and tick it through the
/// algorithm's hot loop.
///
/// ```
/// use cspdb_core::budget::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::new()
///     .with_deadline(Duration::from_millis(10))
///     .with_step_limit(1_000_000)
///     .with_tuple_limit(500_000);
/// let mut meter = budget.meter();
/// while meter.tick().is_ok() {
///     // one unit of work
///     # break;
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Maximum wall-clock time, measured from [`Budget::meter`].
    pub deadline: Option<Duration>,
    /// Maximum number of [`Meter::tick`] steps.
    pub step_limit: Option<u64>,
    /// Maximum number of tuples charged via [`Meter::charge_tuples`].
    pub tuple_limit: Option<u64>,
    /// Cooperative cancellation flag, if any.
    pub cancel: Option<CancelToken>,
    /// Telemetry handle copied into every meter created from this
    /// budget. Disabled by default; see [`Budget::with_trace`].
    trace: Tracer,
    /// Fault-injection handle copied into every meter created from
    /// this budget (slow-down faults apply at checkpoints) and read by
    /// fault-aware subsystems like the service. Inert by default; see
    /// [`Budget::with_faults`].
    faults: FaultHandle,
}

impl Budget {
    /// An unlimited budget: all limits absent. `Meter`s over it never
    /// trip (their fast path is still just a counter increment).
    pub fn new() -> Self {
        Self::default()
    }

    /// Alias for [`Budget::new`], reading better at call sites that
    /// explicitly want no governance.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps wall-clock time.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Caps the number of elementary steps (search nodes, arc
    /// revisions, fixpoint sweeps, DP cells, ...).
    pub fn with_step_limit(mut self, steps: u64) -> Self {
        self.step_limit = Some(steps);
        self
    }

    /// Caps the number of intermediate tuples materialised by
    /// join-style algorithms.
    pub fn with_tuple_limit(mut self, tuples: u64) -> Self {
        self.tuple_limit = Some(tuples);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a trace sink: every meter created from this budget
    /// emits [`crate::trace::TraceEvent`]s to it. A sink that reports
    /// itself disabled (e.g. [`crate::trace::NullSink`]) keeps the
    /// tracer inert.
    pub fn with_trace(self, sink: Arc<dyn TraceSink>) -> Self {
        self.with_tracer(Tracer::new(sink))
    }

    /// Attaches an already-built [`Tracer`] (shares its sink).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.trace = tracer;
        self
    }

    /// The budget's tracer (disabled unless a sink was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.trace
    }

    /// Arms a fault-injection plan: every meter created from this
    /// budget applies slow-down faults at its checkpoints, and
    /// fault-aware subsystems (the service) consult the handle at
    /// their own sites. An empty plan stays inert.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.with_fault_handle(FaultHandle::new(plan))
    }

    /// Attaches an already-armed [`FaultHandle`] (shares its counters).
    pub fn with_fault_handle(mut self, handle: FaultHandle) -> Self {
        self.faults = handle;
        self
    }

    /// The budget's fault handle (inert unless a plan was armed).
    pub fn faults(&self) -> &FaultHandle {
        &self.faults
    }

    /// True if no limit of any kind is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.step_limit.is_none()
            && self.tuple_limit.is_none()
            && self.cancel.is_none()
    }

    /// A proportional slice of this budget for one phase of a larger
    /// computation: numeric limits are scaled by `num / den` (min 1 if
    /// the original was finite), the cancel token and the tracer are
    /// shared.
    ///
    /// Used by tiered strategies to give each tier a fraction of the
    /// caller's budget while the overall deadline still applies.
    ///
    /// A zero-width slice (`num == 0`) exhausts immediately: its meters
    /// trip on the first tick or checkpoint regardless of whether the
    /// parent was limited.
    pub fn slice(&self, num: u64, den: u64) -> Budget {
        assert!(den > 0, "slice denominator must be positive");
        if num == 0 {
            return Budget {
                deadline: Some(Duration::ZERO),
                step_limit: Some(0),
                tuple_limit: Some(0),
                cancel: self.cancel.clone(),
                trace: self.trace.clone(),
                faults: self.faults.clone(),
            };
        }
        let scale = |v: u64| (v.saturating_mul(num) / den).max(1);
        Budget {
            deadline: self.deadline.map(|d| d.mul_f64(num as f64 / den as f64)),
            step_limit: self.step_limit.map(scale),
            tuple_limit: self.tuple_limit.map(scale),
            cancel: self.cancel.clone(),
            trace: self.trace.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Starts enforcement: the returned meter's clock begins now.
    ///
    /// [`Meter::fork`] the meter to hand one handle to each worker
    /// thread: every handle draws on the same limits, clock, latch and
    /// tracer.
    pub fn meter(&self) -> Meter {
        Meter {
            pool: Arc::new(Pool {
                start: Instant::now(),
                deadline: self.deadline,
                cancel: self.cancel.clone(),
                trace: self.trace.clone(),
                faults: self.faults.clone(),
                steps: Quota::new(self.step_limit, STEPS_DRAINING),
                tuples: Quota::new(self.tuple_limit, TUPLES_DRAINING),
                state: AtomicU8::new(0),
            }),
            steps: Tally::default(),
            tuples: Tally::default(),
        }
    }
}

/// Resources consumed by a (possibly exhausted) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Elementary steps ticked.
    pub steps: u64,
    /// Intermediate tuples charged.
    pub tuples: u64,
    /// Wall-clock time elapsed.
    pub elapsed: Duration,
}

impl std::fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} steps, {} tuples, {:.3} ms",
            self.steps,
            self.tuples,
            self.elapsed.as_secs_f64() * 1e3
        )
    }
}

/// Stateful enforcer of one [`Budget`] over one run, on one thread or
/// many.
///
/// A meter is a handle on a pool holding the budget's limits, clock,
/// latched trip and totals. Each handle counts in plain integers inside
/// quota it leases from the pool in [`CHECK_INTERVAL`] chunks, so the
/// fast path of [`tick`](Meter::tick) is one relaxed load of the pool's
/// state, an increment and a compare; the clock and the cancellation
/// flag are read when a lease runs out. When the pool cannot cover a
/// lease, the limit drains: every handle flushes its counts and returns
/// its quota at its next call, then charges the pool directly. A limit
/// thus never trips before the total work of all handles passes it. It
/// overshoots by at most one unit per handle racing the trip, plus what
/// a handle that has made no call since the drain began still holds.
///
/// [`fork`](Meter::fork) gives a worker a new handle. Dropping a handle
/// flushes its counts and returns its quota. Once any handle trips,
/// every handle fails its next call.
#[derive(Debug)]
pub struct Meter {
    pool: Arc<Pool>,
    steps: Tally,
    tuples: Tally,
}

/// The state every handle of one [`Meter`] shares.
///
/// Its atomics use `Relaxed`: the state and the counters publish no
/// other data, and a worker's final flush (on drop) is ordered before
/// the parent's [`Meter::usage`] by the thread join that ends the
/// worker.
#[derive(Debug)]
struct Pool {
    start: Instant,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    trace: Tracer,
    faults: FaultHandle,
    steps: Quota,
    tuples: Quota,
    /// The latched trip reason (`REASON_MASK`) and each draining
    /// quota's bit; zero while nothing has happened.
    state: AtomicU8,
}

const REASON_MASK: u8 = 0b0_0111;
const STEPS_DRAINING: u8 = 0b0_1000;
const TUPLES_DRAINING: u8 = 0b1_0000;

/// One counted resource of a [`Pool`]: its limit, the quota leased to
/// handles, and the units handles have flushed.
#[derive(Debug)]
struct Quota {
    limit: Option<u64>,
    leased: AtomicU64,
    used: AtomicU64,
    /// This quota's draining bit in [`Pool::state`].
    draining: u8,
}

impl Quota {
    fn new(limit: Option<u64>, draining: u8) -> Self {
        Quota {
            limit,
            leased: AtomicU64::new(0),
            used: AtomicU64::new(0),
            draining,
        }
    }

    /// Leases up to `want` units, capped by what remains of the limit.
    fn lease(&self, want: u64) -> u64 {
        let Some(limit) = self.limit else {
            return want;
        };
        let mut got = 0;
        let _ = self
            .leased
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |leased| {
                got = want.min(limit.saturating_sub(leased));
                Some(leased + got)
            });
        got
    }

    /// Returns `n` leased units that were never used.
    fn give_back(&self, n: u64) {
        if self.limit.is_some() && n > 0 {
            self.leased.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` used units; returns the flushed total.
    fn flush(&self, n: u64) -> u64 {
        self.used.fetch_add(n, Ordering::Relaxed).saturating_add(n)
    }
}

/// One handle's local count of one resource.
#[derive(Debug, Default)]
struct Tally {
    /// Units counted since the last flush.
    count: u64,
    /// The value `count` may reach on the quota this handle holds.
    room: u64,
}

impl Tally {
    /// Flushes the count and makes room for the next unit. Outside a
    /// drain it leases the part of the count its quota did not cover,
    /// plus headroom, and starts a drain if the pool cannot cover that;
    /// in a drain it holds no quota. `None` once the flushed total
    /// passes the limit, else whether a checkpoint is due.
    fn refill(&mut self, quota: &Quota, state: &AtomicU8) -> Option<bool> {
        let need = self.count - self.room;
        let flushed = std::mem::take(&mut self.count);
        self.room = 0;
        let total = quota.flush(flushed);
        if state.load(Ordering::Relaxed) & quota.draining == 0 {
            let got = quota.lease(need.max(CHECK_INTERVAL));
            if got >= need {
                self.room = got - need;
                return Some(true);
            }
            quota.give_back(got);
            state.fetch_or(quota.draining, Ordering::Relaxed);
        }
        if quota.limit.is_some_and(|limit| total > limit) {
            return None;
        }
        // A drain reads the clock once per CHECK_INTERVAL pool units.
        Some((total - flushed) / CHECK_INTERVAL != total / CHECK_INTERVAL)
    }

    /// Flushes the count and returns the unused quota.
    fn settle(&mut self, quota: &Quota) {
        if self.count > 0 {
            quota.flush(self.count);
        }
        quota.give_back(self.room.saturating_sub(self.count));
        *self = Tally::default();
    }
}

impl Default for Meter {
    /// An unlimited meter (equivalent to `Budget::unlimited().meter()`).
    fn default() -> Self {
        Budget::unlimited().meter()
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        self.steps.settle(&self.pool.steps);
        self.tuples.settle(&self.pool.tuples);
    }
}

impl Meter {
    /// Records one elementary step; errs if the budget is exhausted.
    ///
    /// Call this once per search node, arc revision, fixpoint
    /// iteration, DP cell, derived fact — whatever the algorithm's
    /// natural unit of work is.
    #[inline]
    pub fn tick(&mut self) -> std::result::Result<(), ExhaustionReason> {
        self.observe_state()?;
        self.steps.count += 1;
        if self.steps.count > self.steps.room {
            self.refill(ExhaustionReason::StepLimitExceeded)
        } else {
            Ok(())
        }
    }

    /// Records `n` materialised tuples; errs if over the tuple cap.
    ///
    /// Unlike the clock, the tuple cap is checked on every call: a
    /// single join step can materialise a huge batch, so amortising here
    /// would defeat the cap. The *expensive* checks (deadline,
    /// cancellation) run whenever the charge outgrows the handle's
    /// lease, i.e. at least once per [`CHECK_INTERVAL`] tuples. Without
    /// this, a skewed join whose inner loop only charges tuples — one
    /// outer row matching millions — would never observe a deadline or
    /// a cancellation when no tuple cap is set.
    #[inline]
    pub fn charge_tuples(&mut self, n: u64) -> std::result::Result<(), ExhaustionReason> {
        self.observe_state()?;
        self.tuples.count = self.tuples.count.saturating_add(n);
        if self.tuples.count > self.tuples.room {
            self.refill(ExhaustionReason::TupleLimitExceeded)
        } else {
            Ok(())
        }
    }

    /// A new handle on the same pool for one worker, holding no counts
    /// and no quota. This handle first flushes its counts and returns
    /// its unused quota, so the workers can lease all that remains.
    pub fn fork(&mut self) -> Meter {
        self.steps.settle(&self.pool.steps);
        self.tuples.settle(&self.pool.tuples);
        Meter {
            pool: Arc::clone(&self.pool),
            steps: Tally::default(),
            tuples: Tally::default(),
        }
    }

    /// Refills the tally `reason` names when it outgrows its quota.
    #[cold]
    fn refill(&mut self, reason: ExhaustionReason) -> std::result::Result<(), ExhaustionReason> {
        let (tally, quota) = match reason {
            ExhaustionReason::StepLimitExceeded => (&mut self.steps, &self.pool.steps),
            _ => (&mut self.tuples, &self.pool.tuples),
        };
        match tally.refill(quota, &self.pool.state) {
            None => Err(self.trip(reason)),
            Some(true) => self.checkpoint(),
            Some(false) => Ok(()),
        }
    }

    /// Forces the expensive checks (clock, cancellation) right now,
    /// regardless of the amortisation counter. Call before starting a
    /// phase whose unit of work is coarse.
    pub fn checkpoint(&mut self) -> std::result::Result<(), ExhaustionReason> {
        self.observe_state()?;
        // Slow-down faults strike here, where real stalls are observed:
        // amortised to checkpoint cadence, inert = one branch.
        self.pool.faults.maybe_slow_down();
        if let Some(token) = &self.pool.cancel {
            if token.is_cancelled() {
                return Err(self.trip(ExhaustionReason::Cancelled));
            }
        }
        if let Some(deadline) = self.pool.deadline {
            if self.pool.start.elapsed() >= deadline {
                return Err(self.trip(ExhaustionReason::DeadlineExceeded));
            }
        }
        Ok(())
    }

    #[inline]
    fn observe_state(&mut self) -> std::result::Result<(), ExhaustionReason> {
        match self.pool.state.load(Ordering::Relaxed) {
            0 => Ok(()),
            state => self.on_state(state),
        }
    }

    /// Every call's slow path once the pool has tripped or a quota is
    /// draining: fail on a trip, else settle each draining tally.
    #[cold]
    fn on_state(&mut self, state: u8) -> std::result::Result<(), ExhaustionReason> {
        if let Some(reason) = decode_reason(state & REASON_MASK) {
            return Err(reason);
        }
        if state & STEPS_DRAINING != 0 {
            self.steps.settle(&self.pool.steps);
        }
        if state & TUPLES_DRAINING != 0 {
            self.tuples.settle(&self.pool.tuples);
        }
        Ok(())
    }

    /// Latches `reason`; the first trip wins and every handle observes it.
    fn trip(&self, reason: ExhaustionReason) -> ExhaustionReason {
        let code = reason_code(reason);
        match self
            .pool
            .state
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                (s & REASON_MASK == 0).then_some(s | code)
            }) {
            Ok(_) => reason,
            Err(prior) => decode_reason(prior & REASON_MASK).expect("latched code decodes"),
        }
    }

    /// The latched exhaustion reason, if any limit has tripped on any
    /// handle of this meter.
    #[inline]
    pub fn exhausted(&self) -> Option<ExhaustionReason> {
        decode_reason(self.pool.state.load(Ordering::Relaxed) & REASON_MASK)
    }

    /// The tracer carried from the originating [`Budget`]; shared by
    /// every handle, so parallel workers emit to one sink.
    #[inline]
    pub fn tracer(&self) -> &Tracer {
        &self.pool.trace
    }

    /// Resources consumed so far: everything flushed to the pool (every
    /// dropped handle's work included) plus this handle's own counts.
    pub fn usage(&self) -> ResourceUsage {
        let total = |quota: &Quota, tally: &Tally| {
            quota
                .used
                .load(Ordering::Relaxed)
                .saturating_add(tally.count)
        };
        ResourceUsage {
            steps: total(&self.pool.steps, &self.steps),
            tuples: total(&self.pool.tuples, &self.tuples),
            elapsed: self.pool.start.elapsed(),
        }
    }

    /// The tripped limit as a [`CoreError::ResourceExhausted`], for
    /// APIs surfacing `CoreError`.
    pub fn as_core_error(&self, reason: ExhaustionReason) -> CoreError {
        let usage = self.usage();
        let (spent, limit) = match reason {
            ExhaustionReason::DeadlineExceeded => (
                usage.elapsed.as_millis() as u64,
                self.pool
                    .deadline
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
            ),
            ExhaustionReason::StepLimitExceeded => {
                (usage.steps, self.pool.steps.limit.unwrap_or(0))
            }
            ExhaustionReason::TupleLimitExceeded => {
                (usage.tuples, self.pool.tuples.limit.unwrap_or(0))
            }
            ExhaustionReason::Cancelled => (0, 0),
        };
        CoreError::ResourceExhausted {
            resource: reason.resource_name(),
            spent,
            limit,
        }
    }
}

fn reason_code(reason: ExhaustionReason) -> u8 {
    match reason {
        ExhaustionReason::DeadlineExceeded => 1,
        ExhaustionReason::StepLimitExceeded => 2,
        ExhaustionReason::TupleLimitExceeded => 3,
        ExhaustionReason::Cancelled => 4,
    }
}

fn decode_reason(code: u8) -> Option<ExhaustionReason> {
    match code {
        1 => Some(ExhaustionReason::DeadlineExceeded),
        2 => Some(ExhaustionReason::StepLimitExceeded),
        3 => Some(ExhaustionReason::TupleLimitExceeded),
        4 => Some(ExhaustionReason::Cancelled),
        _ => None,
    }
}

/// Three-valued outcome of a budgeted decision procedure.
///
/// The invariant every budgeted entry point upholds: `Sat`/`Unsat` are
/// *definite* — they agree with what an unlimited run would return —
/// and resource exhaustion only ever widens the answer to `Unknown`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A solution exists; the witness maps each variable to a value.
    Sat(Vec<u32>),
    /// Definitely no solution.
    Unsat,
    /// The run exhausted its budget before deciding.
    Unknown(ExhaustionReason),
}

impl Answer {
    /// True for [`Answer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Answer::Sat(_))
    }

    /// True for [`Answer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Answer::Unsat)
    }

    /// True for [`Answer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, Answer::Unknown(_))
    }

    /// True if the answer is definite (`Sat` or `Unsat`).
    pub fn is_decided(&self) -> bool {
        !self.is_unknown()
    }

    /// The witness, for [`Answer::Sat`].
    pub fn witness(&self) -> Option<&[u32]> {
        match self {
            Answer::Sat(w) => Some(w),
            _ => None,
        }
    }

    /// Checks agreement with a ground-truth boolean satisfiability:
    /// `Unknown` agrees with everything, `Sat`/`Unsat` must match.
    pub fn agrees_with(&self, ground_truth_sat: bool) -> bool {
        match self {
            Answer::Sat(_) => ground_truth_sat,
            Answer::Unsat => !ground_truth_sat,
            Answer::Unknown(_) => true,
        }
    }
}

impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Answer::Sat(_) => write!(f, "sat"),
            Answer::Unsat => write!(f, "unsat"),
            Answer::Unknown(r) => write!(f, "unknown ({r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unlimited_meter_never_trips() {
        let mut m = Budget::unlimited().meter();
        for _ in 0..10_000 {
            assert!(m.tick().is_ok());
        }
        assert!(m.charge_tuples(u64::MAX).is_ok());
        assert_eq!(m.exhausted(), None);
        assert_eq!(m.usage().steps, 10_000);
    }

    #[test]
    fn step_limit_trips_exactly() {
        let mut m = Budget::new().with_step_limit(5).meter();
        for _ in 0..5 {
            assert!(m.tick().is_ok());
        }
        assert_eq!(m.tick(), Err(ExhaustionReason::StepLimitExceeded));
        // Latched: every later call fails instantly.
        assert_eq!(m.tick(), Err(ExhaustionReason::StepLimitExceeded));
        assert_eq!(m.charge_tuples(1), Err(ExhaustionReason::StepLimitExceeded));
    }

    #[test]
    fn tuple_limit_is_not_amortised() {
        let mut m = Budget::new().with_tuple_limit(100).meter();
        assert!(m.charge_tuples(100).is_ok());
        assert_eq!(
            m.charge_tuples(1),
            Err(ExhaustionReason::TupleLimitExceeded)
        );
    }

    #[test]
    fn deadline_trips_at_checkpoint() {
        let mut m = Budget::new()
            .with_deadline(Duration::from_millis(1))
            .meter();
        thread::sleep(Duration::from_millis(3));
        let mut tripped = false;
        // Amortisation: must trip within one CHECK_INTERVAL of ticks.
        for _ in 0..=CHECK_INTERVAL {
            if m.tick() == Err(ExhaustionReason::DeadlineExceeded) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn cancellation_observed_at_checkpoint() {
        let token = CancelToken::new();
        let mut m = Budget::new().with_cancel(token.clone()).meter();
        assert!(m.checkpoint().is_ok());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(m.checkpoint(), Err(ExhaustionReason::Cancelled));
        assert_eq!(m.tick(), Err(ExhaustionReason::Cancelled));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let budget = Budget::new().with_cancel(token.clone());
        let clone = budget.clone();
        token.cancel();
        let mut m = clone.meter();
        assert_eq!(m.checkpoint(), Err(ExhaustionReason::Cancelled));
    }

    #[test]
    fn slice_scales_limits_and_shares_cancel() {
        let token = CancelToken::new();
        let b = Budget::new()
            .with_deadline(Duration::from_millis(100))
            .with_step_limit(1000)
            .with_tuple_limit(10)
            .with_cancel(token.clone());
        let s = b.slice(1, 4);
        assert_eq!(s.deadline, Some(Duration::from_millis(25)));
        assert_eq!(s.step_limit, Some(250));
        assert_eq!(s.tuple_limit, Some(2));
        token.cancel();
        let mut m = s.meter();
        assert_eq!(m.checkpoint(), Err(ExhaustionReason::Cancelled));
        // Finite limits never scale to zero.
        assert_eq!(b.slice(1, 100_000).step_limit, Some(1));
    }

    #[test]
    fn zero_width_slice_exhausts_immediately() {
        // Regression: slice(0, den) of an *unlimited* parent used to
        // produce another unlimited budget (scaling only applied to
        // limits that were present). A zero-width slice must exhaust
        // on the very first unit of work.
        let s = Budget::unlimited().slice(0, 4);
        assert_eq!(s.step_limit, Some(0));
        assert_eq!(s.tuple_limit, Some(0));
        assert_eq!(s.deadline, Some(Duration::ZERO));
        let mut m = s.meter();
        assert!(m.tick().is_err());
        let mut m2 = s.meter();
        assert!(m2.charge_tuples(1).is_err());
        let mut m3 = s.meter();
        assert!(m3.fork().checkpoint().is_err());
        // Same for a limited parent.
        let s = Budget::new().with_step_limit(1000).slice(0, 4);
        assert!(s.meter().tick().is_err());
        // The cancel token is still shared through a zero slice.
        let token = CancelToken::new();
        let s = Budget::new().with_cancel(token.clone()).slice(0, 2);
        assert!(s.cancel.is_some());
    }

    #[test]
    fn usage_reports_consumption() {
        let mut m = Budget::unlimited().meter();
        for _ in 0..42 {
            m.tick().unwrap();
        }
        m.charge_tuples(7).unwrap();
        let u = m.usage();
        assert_eq!(u.steps, 42);
        assert_eq!(u.tuples, 7);
        assert!(u.to_string().contains("42 steps"));
    }

    #[test]
    fn core_error_conversion_carries_numbers() {
        let mut m = Budget::new().with_step_limit(3).meter();
        let reason = loop {
            if let Err(r) = m.tick() {
                break r;
            }
        };
        let err = m.as_core_error(reason);
        match err {
            CoreError::ResourceExhausted {
                resource,
                spent,
                limit,
            } => {
                assert_eq!(resource, "steps");
                assert_eq!(spent, 4);
                assert_eq!(limit, 3);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn charge_tuples_observes_deadline_without_tuple_cap() {
        // Regression: a skewed join whose inner loop only charges
        // tuples (no ticks) must still observe the deadline, even when
        // no tuple cap is set.
        let mut m = Budget::new()
            .with_deadline(Duration::from_millis(1))
            .meter();
        thread::sleep(Duration::from_millis(3));
        let mut tripped = false;
        for _ in 0..=CHECK_INTERVAL {
            if m.charge_tuples(1) == Err(ExhaustionReason::DeadlineExceeded) {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline never observed through charge_tuples");
    }

    #[test]
    fn charge_tuples_observes_cancellation_mid_batch() {
        let token = CancelToken::new();
        let mut m = Budget::new().with_cancel(token.clone()).meter();
        token.cancel();
        // A single huge batch crosses a CHECK_INTERVAL boundary, so the
        // cancellation is observed on this very call.
        assert_eq!(
            m.charge_tuples(10 * CHECK_INTERVAL),
            Err(ExhaustionReason::Cancelled)
        );
    }

    #[test]
    fn child_token_links_one_way() {
        let parent = CancelToken::new();
        let child = parent.child();
        // Child cancellation does not propagate up.
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        // Parent cancellation propagates down, even to other children.
        let second = parent.child();
        parent.cancel();
        assert!(second.is_cancelled());
    }

    #[test]
    fn meter_clones_count_across_threads() {
        let mut m = Budget::unlimited().meter();
        thread::scope(|s| {
            for _ in 0..4 {
                let mut m = m.fork();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.tick().unwrap();
                        m.charge_tuples(2).unwrap();
                    }
                });
            }
        });
        let u = m.usage();
        assert_eq!(u.steps, 4000);
        assert_eq!(u.tuples, 8000);
        assert_eq!(m.exhausted(), None);
    }

    #[test]
    fn meter_clones_share_one_step_limit() {
        // Four workers share a 2000-step budget: the limit bounds their
        // *sum*, and every worker observes the latched trip.
        let mut m = Budget::new().with_step_limit(2000).meter();
        let mut reasons = Vec::new();
        thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut m = m.fork();
                    s.spawn(move || {
                        for _ in 0..1000 {
                            if let Err(r) = m.tick() {
                                return Some(r);
                            }
                        }
                        None
                    })
                })
                .collect();
            for h in handles {
                reasons.push(h.join().unwrap());
            }
        });
        let tripped = reasons.iter().filter(|r| r.is_some()).count();
        assert!(tripped >= 2, "at least half the workers must trip");
        for r in reasons.into_iter().flatten() {
            assert_eq!(r, ExhaustionReason::StepLimitExceeded);
        }
        assert_eq!(m.exhausted(), Some(ExhaustionReason::StepLimitExceeded));
        let steps = m.usage().steps;
        assert!(steps > 2000, "no worker trips before the limit is spent");
        assert!(steps <= 2000 + 4, "overshoot bounded by workers");
    }

    #[test]
    fn meter_clones_first_trip_wins() {
        let mut m = Budget::new().with_step_limit(1).with_tuple_limit(1).meter();
        m.tick().unwrap();
        assert_eq!(m.tick(), Err(ExhaustionReason::StepLimitExceeded));
        // A later, different violation reports the latched reason.
        assert_eq!(
            m.fork().charge_tuples(100),
            Err(ExhaustionReason::StepLimitExceeded)
        );
    }

    #[test]
    fn meter_clones_stop_promptly_on_cancel() {
        // Bounded-latency cancellation: once the token fires, every
        // worker unwinds within one CHECK_INTERVAL of further ticks.
        let token = CancelToken::new();
        let mut m = Budget::new().with_cancel(token.clone()).meter();
        thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let mut m = m.fork();
                    s.spawn(move || {
                        let mut ticks_after_latch = 0u64;
                        loop {
                            match m.tick() {
                                Err(r) => return (r, ticks_after_latch),
                                Ok(()) if m.exhausted().is_some() => ticks_after_latch += 1,
                                Ok(()) => {}
                            }
                        }
                    })
                })
                .collect();
            token.cancel();
            for h in handles {
                let (reason, after_latch) = h.join().unwrap();
                assert_eq!(reason, ExhaustionReason::Cancelled);
                // A tick may pass its entry check concurrently with the
                // latch, but the very next call must fail.
                assert!(after_latch <= 1, "latched trip must fail the next call");
            }
        });
    }

    #[test]
    fn meter_clone_deadline_trips() {
        let mut m = Budget::new()
            .with_deadline(Duration::from_millis(1))
            .meter()
            .fork();
        thread::sleep(Duration::from_millis(3));
        let mut tripped = false;
        for _ in 0..=CHECK_INTERVAL {
            if m.tick() == Err(ExhaustionReason::DeadlineExceeded) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn dropped_clone_returns_unused_quota() {
        let mut m = Budget::new().with_step_limit(2000).meter();
        let mut first = m.fork();
        for _ in 0..10 {
            first.tick().unwrap();
        }
        drop(first);
        let mut second = m.fork();
        let mut ticks = 0u64;
        let reason = loop {
            match second.tick() {
                Ok(()) => ticks += 1,
                Err(reason) => break reason,
            }
        };
        assert_eq!(reason, ExhaustionReason::StepLimitExceeded);
        assert_eq!(ticks, 1990, "the dropped clone's unused lease must return");
        assert_eq!(m.usage().steps, 2001, "the failing tick counts");
    }

    #[test]
    fn live_clones_share_quota_up_to_the_limit() {
        // Three live handles take turns: the first two lease all 2000
        // steps between them, and the third must still get its share.
        let mut m = Budget::new().with_step_limit(2000).meter();
        let mut handles = [m.fork(), m.fork(), m.fork()];
        for i in 0..2000 {
            assert_eq!(handles[i % 3].tick(), Ok(()), "tick {} of 2000", i + 1);
        }
        assert_eq!(
            handles[2000 % 3].tick(),
            Err(ExhaustionReason::StepLimitExceeded)
        );
        drop(handles);
        assert_eq!(m.usage().steps, 2001);
        match m.as_core_error(ExhaustionReason::StepLimitExceeded) {
            CoreError::ResourceExhausted { spent, limit, .. } => {
                assert_eq!((spent, limit), (2001, 2000));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn live_clones_share_tuple_quota_up_to_the_limit() {
        let mut m = Budget::new().with_tuple_limit(3000).meter();
        let mut handles = [m.fork(), m.fork(), m.fork(), m.fork()];
        for i in 0..1000 {
            assert_eq!(handles[i % 4].charge_tuples(3), Ok(()));
        }
        assert_eq!(
            handles[1].charge_tuples(1),
            Err(ExhaustionReason::TupleLimitExceeded)
        );
    }

    #[test]
    fn fork_returns_the_parents_quota() {
        // The parent ticks, then forks a worker and waits: the worker
        // can use every step the parent did not.
        let mut m = Budget::new().with_step_limit(1000).meter();
        for _ in 0..21 {
            m.tick().unwrap();
        }
        let mut worker = m.fork();
        for _ in 0..979 {
            worker.tick().unwrap();
        }
        assert_eq!(worker.tick(), Err(ExhaustionReason::StepLimitExceeded));
    }

    #[test]
    fn faults_ride_the_budget_like_the_tracer() {
        use crate::faults::{FaultPlan, FaultSite};
        let b = Budget::new().with_faults(
            FaultPlan::none()
                .with_seed(1)
                .with_period(FaultSite::QueueFull, 3),
        );
        assert!(b.faults().is_active());
        // Slices share the armed injector: counters are one pool.
        let s = b.slice(1, 2);
        assert!(s.faults().is_active());
        for _ in 0..3 {
            s.faults().fire(FaultSite::QueueFull);
        }
        assert_eq!(b.faults().injected(FaultSite::QueueFull), 1);
        // Default budgets stay inert, and empty plans collapse to inert.
        assert!(!Budget::unlimited().faults().is_active());
        assert!(!Budget::new()
            .with_faults(FaultPlan::none())
            .faults()
            .is_active());
    }

    #[test]
    fn slow_down_fault_applies_at_checkpoints() {
        use crate::faults::{FaultPlan, FaultSite};
        let plan = FaultPlan::none()
            .with_period(FaultSite::SlowDown, 1)
            .with_slow_down(Duration::from_millis(5));
        let mut m = Budget::new().with_faults(plan.clone()).meter();
        let t = Instant::now();
        m.checkpoint().unwrap();
        assert!(
            t.elapsed() >= Duration::from_millis(5),
            "checkpoint must observe the injected stall"
        );
        let mut clone = Budget::new().with_faults(plan).meter().fork();
        let t = Instant::now();
        clone.checkpoint().unwrap();
        assert!(t.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn answer_taxonomy_predicates() {
        let sat = Answer::Sat(vec![0, 1]);
        let unsat = Answer::Unsat;
        let unk = Answer::Unknown(ExhaustionReason::DeadlineExceeded);
        assert!(sat.is_sat() && sat.is_decided() && !sat.is_unknown());
        assert!(unsat.is_unsat() && unsat.is_decided());
        assert!(unk.is_unknown() && !unk.is_decided());
        assert_eq!(sat.witness(), Some(&[0u32, 1][..]));
        assert_eq!(unk.witness(), None);
        assert!(sat.agrees_with(true) && !sat.agrees_with(false));
        assert!(unsat.agrees_with(false) && !unsat.agrees_with(true));
        assert!(unk.agrees_with(true) && unk.agrees_with(false));
        assert_eq!(unk.to_string(), "unknown (deadline exceeded)");
    }
}
