//! The unified [`Solver`] facade and the governed dispatch machinery.
//!
//! One builder covers every solving mode — plain, budget-governed, and
//! the parallel portfolio race:
//!
//! ```
//! use cspdb::{Solver, SolveStrategy};
//! use cspdb::core::budget::Budget;
//! use cspdb::core::graphs::{clique, cycle};
//!
//! let report = Solver::new()
//!     .budget(Budget::unlimited())
//!     .strategy(SolveStrategy::Ladder)
//!     .solve(&cycle(6), &clique(2));
//! assert!(report.answer.is_sat());
//! ```
//!
//! Attach a [`TraceSink`] with [`Solver::trace`] to receive typed
//! [`TraceEvent`]s from every phase of the run, and read the per-phase
//! wall-time/step/tuple summary from [`GovernedReport::trace`].

use cspdb_core::budget::{Answer, Budget, CancelToken, ExhaustionReason, Meter, ResourceUsage};
use cspdb_core::trace::{TraceEvent, TraceSink, Tracer};
use cspdb_core::{CspInstance, Structure};
use cspdb_solver::BudgetedRun;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Which strategy a solve ended up using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Schaefer-class polynomial solver (which one is in the payload).
    Schaefer(cspdb_schaefer::SolverUsed),
    /// Yannakakis on an acyclic instance.
    Yannakakis,
    /// Dynamic programming over a tree decomposition of the given width.
    Treewidth(usize),
    /// Generic MAC backtracking.
    Backtracking,
    /// Arc-consistency fallback (sound refutations only).
    ArcConsistency,
    /// Strong k-consistency fallback (sound refutations only).
    KConsistency(usize),
}

impl Strategy {
    /// Stable machine-readable phase name, without payloads — the
    /// `strategy` field of [`TraceEvent::TierStart`]/[`TraceEvent::TierEnd`].
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Schaefer(_) => "schaefer",
            Strategy::Yannakakis => "yannakakis",
            Strategy::Treewidth(_) => "treewidth",
            Strategy::Backtracking => "backtracking",
            Strategy::ArcConsistency => "arc_consistency",
            Strategy::KConsistency(_) => "k_consistency",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Schaefer(used) => write!(f, "schaefer({used:?})"),
            Strategy::Yannakakis => write!(f, "yannakakis"),
            Strategy::Treewidth(w) => write!(f, "treewidth({w})"),
            Strategy::Backtracking => write!(f, "backtracking"),
            Strategy::ArcConsistency => write!(f, "arc-consistency"),
            Strategy::KConsistency(k) => write!(f, "{k}-consistency"),
        }
    }
}

/// The result of a plain (unbudgeted) solve, as returned by
/// [`GovernedReport::expect_decided`].
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The strategy that produced the answer.
    pub strategy: Strategy,
    /// A homomorphism `A -> B`, if one exists.
    pub witness: Option<Vec<u32>>,
}

/// How one tier of the governed ladder (or one portfolio racer) ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierOutcome {
    /// The tier produced the final answer.
    Decided,
    /// The tier was skipped, with the reason (inapplicable / too big).
    Skipped(&'static str),
    /// The tier's budget slice ran out before it could decide.
    Exhausted(ExhaustionReason),
    /// The tier completed but could not decide (e.g. consistency held).
    Inconclusive,
}

impl TierOutcome {
    /// Short human-readable label (`"decided"`, `"skipped: ..."`,
    /// `"exhausted: ..."`, `"inconclusive"`).
    pub fn label(&self) -> String {
        match self {
            TierOutcome::Decided => "decided".into(),
            TierOutcome::Skipped(why) => format!("skipped: {why}"),
            TierOutcome::Exhausted(r) => format!("exhausted: {r}"),
            TierOutcome::Inconclusive => "inconclusive".into(),
        }
    }
}

/// One rung of the degradation ladder: which strategy was tried and how
/// it ended. The full trace explains an `Unknown` answer.
#[derive(Debug, Clone)]
pub struct TierAttempt {
    /// The strategy attempted.
    pub strategy: Strategy,
    /// How the attempt ended.
    pub outcome: TierOutcome,
}

/// Wall time and meter counters one phase of a governed run consumed.
///
/// Under portfolio racing all racers draw on forks of one meter, so step
/// and tuple counts are unattributable per racer: racer phases report
/// zero counters and an aggregate `"portfolio"` phase carries the
/// totals.
#[derive(Debug, Clone)]
pub struct PhaseTrace {
    /// Display name of the phase (e.g. `"treewidth(2)"`).
    pub phase: String,
    /// Wall time the phase consumed, in microseconds.
    pub micros: u64,
    /// Meter steps the phase ticked.
    pub steps: u64,
    /// Meter tuples the phase charged.
    pub tuples: u64,
}

/// Per-phase summary of a governed run — available on every
/// [`GovernedReport`] whether or not a [`TraceSink`] was attached.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// One entry per phase, in execution order.
    pub phases: Vec<PhaseTrace>,
}

/// The result of a governed solve: a three-valued answer plus the
/// ladder trace that produced it.
///
/// Soundness contract: `Sat`/`Unsat` always agree with the unbudgeted
/// ground truth; exhaustion only ever widens the answer to `Unknown`.
#[derive(Debug, Clone)]
pub struct GovernedReport {
    /// `Sat` with witness, `Unsat`, or `Unknown(reason)`.
    pub answer: Answer,
    /// The strategy that decided, `None` when the answer is `Unknown`.
    pub strategy: Option<Strategy>,
    /// Every tier attempted, in ladder order.
    pub attempts: Vec<TierAttempt>,
    /// Per-phase wall time and meter counters.
    pub trace: TraceSummary,
}

impl GovernedReport {
    /// Collapses a decided report into the legacy [`SolveReport`] shape.
    ///
    /// # Panics
    ///
    /// Panics when the answer is `Unknown` — only use this on runs whose
    /// budget cannot exhaust (e.g. the unlimited default).
    pub fn expect_decided(self) -> SolveReport {
        SolveReport {
            strategy: self.strategy.expect("budgeted run did not decide"),
            witness: self.answer.witness().map(<[u32]>::to_vec),
        }
    }
}

/// Uniform three-valued verdict accessor over every report type the
/// workspace produces ([`SolveReport`], [`GovernedReport`], and the
/// solver crate's [`BudgetedRun`]).
pub trait SolveOutcome {
    /// The run's verdict as a core [`Answer`].
    fn outcome(&self) -> Answer;
}

impl SolveOutcome for GovernedReport {
    fn outcome(&self) -> Answer {
        self.answer.clone()
    }
}

impl SolveOutcome for SolveReport {
    fn outcome(&self) -> Answer {
        match &self.witness {
            Some(w) => Answer::Sat(w.clone()),
            None => Answer::Unsat,
        }
    }
}

impl SolveOutcome for BudgetedRun {
    fn outcome(&self) -> Answer {
        self.answer.clone()
    }
}

impl From<SolveReport> for GovernedReport {
    fn from(report: SolveReport) -> Self {
        let strategy = report.strategy;
        GovernedReport {
            answer: match report.witness {
                Some(w) => Answer::Sat(w),
                None => Answer::Unsat,
            },
            strategy: Some(strategy),
            attempts: vec![TierAttempt {
                strategy,
                outcome: TierOutcome::Decided,
            }],
            trace: TraceSummary::default(),
        }
    }
}

impl From<BudgetedRun> for GovernedReport {
    fn from(run: BudgetedRun) -> Self {
        let usage = run.usage;
        let (strategy, outcome) = match &run.answer {
            Answer::Unknown(r) => (None, TierOutcome::Exhausted(*r)),
            _ => (Some(Strategy::Backtracking), TierOutcome::Decided),
        };
        GovernedReport {
            answer: run.answer,
            strategy,
            attempts: vec![TierAttempt {
                strategy: Strategy::Backtracking,
                outcome,
            }],
            trace: TraceSummary {
                phases: vec![PhaseTrace {
                    phase: Strategy::Backtracking.to_string(),
                    micros: usage.elapsed.as_micros() as u64,
                    steps: usage.steps,
                    tuples: usage.tuples,
                }],
            },
        }
    }
}

/// Maximum heuristic treewidth for which the DP route is attempted.
const TREEWIDTH_CUTOFF: usize = 4;

/// Pebble count for the k-consistency fallback tier.
const FALLBACK_K: usize = 3;

/// Largest `W^k` table the k-consistency fallback will build when the
/// budget carries no tuple cap of its own.
const FALLBACK_WK_CAP: u64 = 1_000_000;

/// How [`Solver::solve`] dispatches over the paper's tractability map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveStrategy {
    /// Straight MAC backtracking — no structural dispatch.
    Direct,
    /// The sequential degradation ladder: Schaefer, Yannakakis,
    /// treewidth DP, backtracking, then sound-refutation consistency
    /// fallbacks, each under a budget slice (the default).
    #[default]
    Ladder,
    /// The applicable structural strategies race on [`rayon`] workers,
    /// each charging a fork of one meter; first sound answer wins and
    /// cancels the rest.
    Portfolio,
}

/// Builder facade over every solving mode of the workspace.
///
/// ```
/// use cspdb::Solver;
/// use cspdb::core::graphs::{clique, cycle};
///
/// let report = Solver::new().solve(&cycle(6), &clique(2));
/// assert!(report.answer.is_sat()); // even cycles are 2-colorable
/// ```
///
/// With a budget, a strategy, and a trace sink:
///
/// ```
/// use cspdb::{Solver, SolveStrategy};
/// use cspdb::core::budget::Budget;
/// use cspdb::core::trace::Recorder;
/// use cspdb::core::graphs::{clique, cycle};
/// use std::sync::Arc;
///
/// let rec = Arc::new(Recorder::new());
/// let report = Solver::new()
///     .budget(Budget::unlimited())
///     .strategy(SolveStrategy::Ladder)
///     .trace(rec.clone())
///     .solve(&cycle(5), &clique(3));
/// assert!(report.answer.is_sat());
/// assert!(!rec.events().is_empty());
/// ```
#[derive(Clone)]
pub struct Solver {
    budget: Budget,
    strategy: SolveStrategy,
    parallel: bool,
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("budget", &self.budget)
            .field("strategy", &self.strategy)
            .field("parallel", &self.parallel)
            .field("trace", &self.sink.is_some())
            .finish()
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// A solver with an unlimited budget, the [`SolveStrategy::Ladder`]
    /// dispatch, sequential tier execution, and no trace sink.
    pub fn new() -> Self {
        Solver {
            budget: Budget::unlimited(),
            strategy: SolveStrategy::default(),
            parallel: false,
            sink: None,
        }
    }

    /// Sets the resource [`Budget`] governing the whole run.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Selects the dispatch [`SolveStrategy`].
    pub fn strategy(mut self, strategy: SolveStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Runs the ladder's Yannakakis and treewidth tiers on their
    /// level-parallel kernels instead of the sequential ones. The
    /// verdicts and witnesses are identical either way.
    /// [`SolveStrategy::Portfolio`] always races in parallel, regardless
    /// of this flag.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches a [`TraceSink`] receiving typed [`TraceEvent`]s from
    /// every phase. Builder-order independent: the sink is composed with
    /// the budget at solve time, so `.trace(..).budget(..)` and
    /// `.budget(..).trace(..)` behave identically.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Solves the homomorphism problem `A -> B`.
    ///
    /// # Panics
    ///
    /// Panics if the structures have different vocabularies.
    pub fn solve(&self, a: &Structure, b: &Structure) -> GovernedReport {
        assert_eq!(a.vocabulary(), b.vocabulary(), "vocabulary mismatch");
        let instance = CspInstance::from_homomorphism(a, b).expect("same vocabulary");
        self.solve_csp(&instance)
    }

    /// Solves a classical CSP instance.
    pub fn solve_csp(&self, instance: &CspInstance) -> GovernedReport {
        let budget = match &self.sink {
            Some(sink) => self.budget.clone().with_trace(sink.clone()),
            None => self.budget.clone(),
        };
        match self.strategy {
            SolveStrategy::Direct => run_direct(instance, &budget),
            SolveStrategy::Ladder => run_ladder(instance, &budget, self.parallel),
            SolveStrategy::Portfolio => run_portfolio(instance, &budget),
        }
    }
}

fn answer_of(witness: Option<Vec<u32>>) -> Answer {
    match witness {
        Some(w) => Answer::Sat(w),
        None => Answer::Unsat,
    }
}

/// Shared bookkeeping of one governed run: the attempt list, the phase
/// summary, the latched exhaustion reason, and the event tracer.
struct Dispatch {
    tracer: Tracer,
    attempts: Vec<TierAttempt>,
    trace: TraceSummary,
    last_exhaustion: Option<ExhaustionReason>,
}

impl Dispatch {
    fn new(budget: &Budget) -> Self {
        Dispatch {
            tracer: budget.tracer().clone(),
            attempts: Vec::new(),
            trace: TraceSummary::default(),
            last_exhaustion: None,
        }
    }

    /// Emits [`TraceEvent::TierStart`] and stamps the tier's clock.
    fn begin(&self, name: &'static str) -> Instant {
        self.tracer
            .emit_with(|| TraceEvent::TierStart { strategy: name });
        Instant::now()
    }

    /// Records a finished tier: [`TraceEvent::TierEnd`] (plus
    /// [`TraceEvent::Exhausted`] when applicable), a [`PhaseTrace`]
    /// entry, and the [`TierAttempt`].
    fn finish(
        &mut self,
        strategy: Strategy,
        outcome: TierOutcome,
        micros: u64,
        usage: ResourceUsage,
    ) {
        let label = outcome.label();
        self.tracer.emit_with(|| TraceEvent::TierEnd {
            strategy: strategy.name(),
            outcome: label,
            micros,
            steps: usage.steps,
            tuples: usage.tuples,
        });
        if let TierOutcome::Exhausted(reason) = outcome {
            self.last_exhaustion = Some(reason);
            self.tracer.emit_with(|| TraceEvent::Exhausted {
                phase: strategy.name(),
                reason,
            });
        }
        self.trace.phases.push(PhaseTrace {
            phase: strategy.to_string(),
            micros,
            steps: usage.steps,
            tuples: usage.tuples,
        });
        self.attempts.push(TierAttempt { strategy, outcome });
    }

    /// Finishes a deciding tier and closes the report.
    fn decided(
        mut self,
        answer: Answer,
        strategy: Strategy,
        micros: u64,
        usage: ResourceUsage,
    ) -> GovernedReport {
        self.finish(strategy, TierOutcome::Decided, micros, usage);
        self.report(answer, Some(strategy))
    }

    fn report(self, answer: Answer, strategy: Option<Strategy>) -> GovernedReport {
        GovernedReport {
            answer,
            strategy,
            attempts: self.attempts,
            trace: self.trace,
        }
    }

    fn unknown(self) -> GovernedReport {
        let reason = self
            .last_exhaustion
            .expect("some tier exhausted, else a complete tier decided");
        self.report(Answer::Unknown(reason), None)
    }
}

fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

/// Tier 1 of both the ladder and the portfolio: Schaefer's polynomial
/// solvers run inline (they are low-order polynomial and complete).
/// `Some` when the template was Boolean and in a Schaefer class.
fn schaefer_tier(
    d: &Dispatch,
    instance: &CspInstance,
    budget: &Budget,
) -> Option<(Strategy, Answer, u64)> {
    if instance.num_values() != 2 || budget.meter().checkpoint().is_err() {
        return None;
    }
    let start = d.begin("schaefer");
    match cspdb_schaefer::solve_boolean_polynomial(instance) {
        Some((used, witness)) => Some((
            Strategy::Schaefer(used),
            answer_of(witness),
            micros_since(start),
        )),
        None => {
            // NP-side Boolean template: fall through to the structural
            // strategies without recording a ladder attempt (only the
            // event stream sees the probe).
            let micros = micros_since(start);
            d.tracer.emit_with(|| TraceEvent::TierEnd {
                strategy: "schaefer",
                outcome: "skipped: template not in a polynomial Schaefer class".into(),
                micros,
                steps: 0,
                tuples: 0,
            });
            None
        }
    }
}

/// Sound-refutation consistency fallbacks (ladder tiers 5a/5b), shared
/// verbatim by the sequential ladder and the portfolio's post-race path.
fn consistency_fallbacks(
    mut d: Dispatch,
    instance: &CspInstance,
    a: &Structure,
    b: &Structure,
    budget: &Budget,
) -> GovernedReport {
    // 5a. Arc-consistency approximation: a wipeout soundly refutes.
    let slice = budget.slice(1, 8);
    let mut meter = slice.meter();
    let start = d.begin("arc_consistency");
    match cspdb_consistency::ac3_metered(instance, &mut meter) {
        Ok(None) => {
            return d.decided(
                Answer::Unsat,
                Strategy::ArcConsistency,
                micros_since(start),
                meter.usage(),
            )
        }
        Ok(Some(_)) => d.finish(
            Strategy::ArcConsistency,
            TierOutcome::Inconclusive,
            micros_since(start),
            meter.usage(),
        ),
        Err(r) => d.finish(
            Strategy::ArcConsistency,
            TierOutcome::Exhausted(r),
            micros_since(start),
            meter.usage(),
        ),
    }

    // 5b. Strong k-consistency approximation: a Spoiler win in the
    // existential k-pebble game soundly refutes. Gated by an
    // overflow-safe table estimate so an uncapped budget cannot be
    // tricked into building a gigantic W^k table.
    let wk_ok = cspdb_consistency::wk_table_bound(a.domain_size(), b.domain_size(), FALLBACK_K)
        .map(|bound| bound <= FALLBACK_WK_CAP)
        .unwrap_or(false);
    if wk_ok {
        let slice = budget.slice(1, 8);
        let mut meter = slice.meter();
        let start = d.begin("k_consistency");
        match cspdb_consistency::k_consistency_refutes_metered(a, b, FALLBACK_K, &mut meter) {
            Ok(Some(false)) => {
                return d.decided(
                    Answer::Unsat,
                    Strategy::KConsistency(FALLBACK_K),
                    micros_since(start),
                    meter.usage(),
                )
            }
            Ok(_) => d.finish(
                Strategy::KConsistency(FALLBACK_K),
                TierOutcome::Inconclusive,
                micros_since(start),
                meter.usage(),
            ),
            Err(r) => d.finish(
                Strategy::KConsistency(FALLBACK_K),
                TierOutcome::Exhausted(r),
                micros_since(start),
                meter.usage(),
            ),
        }
    } else {
        let start = d.begin("k_consistency");
        d.finish(
            Strategy::KConsistency(FALLBACK_K),
            TierOutcome::Skipped("W^k table estimate above cap"),
            micros_since(start),
            ResourceUsage::default(),
        );
    }

    d.unknown()
}

/// [`SolveStrategy::Direct`]: MAC backtracking with no dispatch.
fn run_direct(instance: &CspInstance, budget: &Budget) -> GovernedReport {
    let mut d = Dispatch::new(budget);
    let start = d.begin("backtracking");
    let run = cspdb_solver::solve_csp_metered(instance, &mut budget.meter());
    let usage = run.usage;
    match run.answer {
        Answer::Unknown(r) => {
            d.finish(
                Strategy::Backtracking,
                TierOutcome::Exhausted(r),
                micros_since(start),
                usage,
            );
            d.unknown()
        }
        sound => d.decided(sound, Strategy::Backtracking, micros_since(start), usage),
    }
}

/// [`SolveStrategy::Ladder`]: resource-governed dispatch walking the
/// paper's tractability ladder under budget slices, degrading gracefully
/// instead of hanging.
///
/// 1. Boolean template in a Schaefer class → the dedicated polynomial
///    solver (Section 3);
/// 2. α-acyclic constraint hypergraph → Yannakakis under a budget slice;
/// 3. small heuristic Gaifman treewidth → decomposition DP under a
///    budget slice (the planning pass is budgeted too — min-fill alone
///    can dwarf a millisecond deadline on large instances);
/// 4. MAC backtracking under a budget slice;
/// 5. approximation fallback: budgeted arc-consistency, then strong
///    k-consistency, which can soundly answer `Unsat` (a wipeout /
///    Spoiler win refutes, Sections 4–5) but never `Sat`.
///
/// Every decided answer agrees with the unbudgeted ground truth; if all
/// tiers exhaust, the answer is `Unknown` carrying the last tier's
/// exhaustion reason and the trace of every attempt.
fn run_ladder(instance: &CspInstance, budget: &Budget, parallel: bool) -> GovernedReport {
    let mut d = Dispatch::new(budget);

    // 1. Schaefer.
    if let Some((strategy, answer, micros)) = schaefer_tier(&d, instance, budget) {
        return d.decided(answer, strategy, micros, ResourceUsage::default());
    }

    // 2. Acyclic hypergraph: Yannakakis under a quarter slice.
    if cspdb_relalg::is_acyclic_instance(instance) {
        let slice = budget.slice(1, 4);
        let start = d.begin("yannakakis");
        let mut meter = slice.meter();
        let result = cspdb_relalg::solve_acyclic_metered(instance, &mut meter, parallel);
        let usage = meter.usage();
        match result {
            Ok(witness) => {
                return d.decided(
                    answer_of(witness),
                    Strategy::Yannakakis,
                    micros_since(start),
                    usage,
                )
            }
            Err(cspdb_relalg::AcyclicSolveError::Exhausted(r)) => d.finish(
                Strategy::Yannakakis,
                TierOutcome::Exhausted(r),
                micros_since(start),
                usage,
            ),
            Err(cspdb_relalg::AcyclicSolveError::NotAcyclic) => {
                unreachable!("checked acyclic")
            }
        }
    } else {
        let start = d.begin("yannakakis");
        d.finish(
            Strategy::Yannakakis,
            TierOutcome::Skipped("hypergraph is not α-acyclic"),
            micros_since(start),
            ResourceUsage::default(),
        );
    }

    // 3. Bounded treewidth: budgeted planning, then budgeted DP, drawing
    // on one quarter-slice meter together.
    let (a, b) = instance.to_homomorphism();
    {
        let slice = budget.slice(1, 4);
        let g = cspdb_decomp::Graph::gaifman(&a);
        let start = d.begin("treewidth");
        let mut meter = slice.meter();
        match treewidth_tier(&a, &b, &g, &mut meter, parallel) {
            TreewidthTier::Decided(width, witness) => {
                return d.decided(
                    answer_of(witness),
                    Strategy::Treewidth(width),
                    micros_since(start),
                    meter.usage(),
                )
            }
            TreewidthTier::Other(width, outcome) => d.finish(
                Strategy::Treewidth(width),
                outcome,
                micros_since(start),
                meter.usage(),
            ),
        }
    }

    // 4. Generic MAC backtracking under a quarter slice (complete given
    // enough budget: with no limits this tier always decides).
    {
        let slice = budget.slice(1, 4);
        let start = d.begin("backtracking");
        let run = cspdb_solver::solve_csp_metered(instance, &mut slice.meter());
        let usage = run.usage;
        match run.answer {
            Answer::Unknown(r) => d.finish(
                Strategy::Backtracking,
                TierOutcome::Exhausted(r),
                micros_since(start),
                usage,
            ),
            sound => return d.decided(sound, Strategy::Backtracking, micros_since(start), usage),
        }
    }

    // 5. Sound-refutation fallbacks.
    consistency_fallbacks(d, instance, &a, &b, budget)
}

/// Outcome of the treewidth tier's planning + DP pipeline.
enum TreewidthTier {
    /// The DP decided: width used and the verdict.
    Decided(usize, Option<Vec<u32>>),
    /// Planning exhausted, width above cutoff, or DP exhausted.
    Other(usize, TierOutcome),
}

/// Runs min-fill planning, the cutoff check, and the decomposition DP on
/// one meter. `parallel` selects the level-parallel DP.
fn treewidth_tier(
    a: &Structure,
    b: &Structure,
    g: &cspdb_decomp::Graph,
    meter: &mut Meter,
    parallel: bool,
) -> TreewidthTier {
    let order = match cspdb_decomp::min_fill_order_metered(g, meter) {
        Ok(order) => order,
        Err(r) => {
            // Planning alone blew the slice: record under the treewidth
            // strategy with the width unknown (the cutoff stands in).
            return TreewidthTier::Other(TREEWIDTH_CUTOFF, TierOutcome::Exhausted(r));
        }
    };
    let width = cspdb_decomp::order_width(g, &order);
    if width > TREEWIDTH_CUTOFF {
        return TreewidthTier::Other(
            width,
            TierOutcome::Skipped("heuristic treewidth above cutoff"),
        );
    }
    let td = cspdb_decomp::from_elimination_order(g, &order);
    match cspdb_decomp::solve_with_decomposition_metered(a, b, &td, meter, parallel) {
        Ok(witness) => TreewidthTier::Decided(width, witness),
        Err(cspdb_decomp::DecompSolveError::Exhausted(r)) => {
            TreewidthTier::Other(width, TierOutcome::Exhausted(r))
        }
        Err(cspdb_decomp::DecompSolveError::Invalid(msg)) => {
            unreachable!("constructed decomposition is valid: {msg}")
        }
    }
}

/// How one racer in the portfolio ended.
enum RaceResult {
    Decided(Answer),
    Skipped(&'static str),
    Exhausted(ExhaustionReason),
}

/// [`SolveStrategy::Portfolio`]: instead of walking the ladder tier by
/// tier with budget *slices*, the applicable structural strategies —
/// Yannakakis on acyclic instances, the treewidth DP when planning stays
/// under the cutoff, and MAC backtracking — **race on [`rayon`] workers,
/// each charging a fork of one [`Meter`]**. The
/// budget's step, tuple, and deadline limits bound the racers' *total*
/// work, and the first racer to produce a sound answer cancels the rest
/// through a [`CancelToken`] child of the caller's token (so cancelling
/// the caller still stops everything, while the race's own cancellation
/// never escapes to the caller).
///
/// Schaefer's polynomial solvers still run inline first (they are
/// low-order polynomial and complete), and the sound-refutation-only
/// consistency fallbacks run after the race only if no racer decided.
/// Soundness is unchanged: every decided answer agrees with the
/// unbudgeted ground truth.
fn run_portfolio(instance: &CspInstance, budget: &Budget) -> GovernedReport {
    let mut d = Dispatch::new(budget);

    // 1. Schaefer inline — same as the sequential ladder.
    if let Some((strategy, answer, micros)) = schaefer_tier(&d, instance, budget) {
        return d.decided(answer, strategy, micros, ResourceUsage::default());
    }

    // 2. Race the structural strategies under one meter. The race
    // token is a *child* of the caller's token: caller cancellation
    // propagates in, the winner's `race.cancel()` does not leak out.
    let race = match &budget.cancel {
        Some(caller) => caller.child(),
        None => CancelToken::new(),
    };
    let race_budget = budget.clone().with_cancel(race.clone());
    let mut meter = race_budget.meter();
    let acyclic = cspdb_relalg::is_acyclic_instance(instance);
    let (a, b) = instance.to_homomorphism();
    // One fork per racer, moved into it so it flushes when the racer ends.
    let forks = [meter.fork(), meter.fork(), meter.fork()];
    let [yannakakis_meter, treewidth_meter, backtracking_meter] = forks;

    type Racer<'r> = Box<dyn FnOnce() -> (Strategy, RaceResult, u64) + Send + 'r>;
    let racers: Vec<Racer> = vec![
        Box::new(|| {
            let mut meter = yannakakis_meter;
            meter.tracer().emit_with(|| TraceEvent::TierStart {
                strategy: "yannakakis",
            });
            let start = Instant::now();
            if !acyclic {
                return (
                    Strategy::Yannakakis,
                    RaceResult::Skipped("hypergraph is not α-acyclic"),
                    micros_since(start),
                );
            }
            let result = match cspdb_relalg::solve_acyclic_metered(instance, &mut meter, true) {
                Ok(witness) => {
                    race.cancel();
                    RaceResult::Decided(answer_of(witness))
                }
                Err(cspdb_relalg::AcyclicSolveError::Exhausted(r)) => RaceResult::Exhausted(r),
                Err(cspdb_relalg::AcyclicSolveError::NotAcyclic) => {
                    unreachable!("checked acyclic")
                }
            };
            (Strategy::Yannakakis, result, micros_since(start))
        }),
        Box::new(|| {
            let mut meter = treewidth_meter;
            meter.tracer().emit_with(|| TraceEvent::TierStart {
                strategy: "treewidth",
            });
            let start = Instant::now();
            let g = cspdb_decomp::Graph::gaifman(&a);
            let (strategy, result) = match treewidth_tier(&a, &b, &g, &mut meter, true) {
                TreewidthTier::Decided(width, witness) => {
                    race.cancel();
                    (
                        Strategy::Treewidth(width),
                        RaceResult::Decided(answer_of(witness)),
                    )
                }
                TreewidthTier::Other(width, TierOutcome::Exhausted(r)) => {
                    (Strategy::Treewidth(width), RaceResult::Exhausted(r))
                }
                TreewidthTier::Other(width, TierOutcome::Skipped(why)) => {
                    (Strategy::Treewidth(width), RaceResult::Skipped(why))
                }
                TreewidthTier::Other(..) => unreachable!("planning is exhaustive"),
            };
            (strategy, result, micros_since(start))
        }),
        Box::new(|| {
            let mut meter = backtracking_meter;
            meter.tracer().emit_with(|| TraceEvent::TierStart {
                strategy: "backtracking",
            });
            let start = Instant::now();
            let run = cspdb_solver::solve_csp_metered(instance, &mut meter);
            let result = match run.answer {
                Answer::Unknown(r) => RaceResult::Exhausted(r),
                sound => {
                    race.cancel();
                    RaceResult::Decided(sound)
                }
            };
            (Strategy::Backtracking, result, micros_since(start))
        }),
    ];
    let race_start = Instant::now();
    let results: Vec<(Strategy, RaceResult, u64)> =
        racers.into_par_iter().map(|tier| tier()).collect();
    let race_micros = micros_since(race_start);

    let mut winner: Option<(Strategy, Answer)> = None;
    let mut losers: Vec<(&'static str, String)> = Vec::new();
    for (strategy, result, micros) in results {
        let outcome = match result {
            RaceResult::Decided(answer) => {
                if winner.is_none() {
                    winner = Some((strategy, answer));
                } else {
                    losers.push((strategy.name(), "decided late".into()));
                }
                TierOutcome::Decided
            }
            RaceResult::Skipped(why) => {
                losers.push((strategy.name(), format!("skipped: {why}")));
                TierOutcome::Skipped(why)
            }
            RaceResult::Exhausted(r) => {
                losers.push((strategy.name(), r.to_string()));
                TierOutcome::Exhausted(r)
            }
        };
        // Racer phases report zero counters: the racers share one
        // budget, so per-racer step/tuple attribution does not exist.
        d.finish(strategy, outcome, micros, ResourceUsage::default());
    }
    if let Some((strategy, _)) = &winner {
        let name = strategy.name();
        d.tracer
            .emit_with(|| TraceEvent::RaceWinner { strategy: name });
        losers.retain(|(loser, _)| *loser != name);
    }
    for (name, cause) in losers {
        d.tracer.emit_with(move || TraceEvent::RaceLoser {
            strategy: name,
            cause,
        });
    }
    let total = meter.usage();
    d.trace.phases.push(PhaseTrace {
        phase: "portfolio".into(),
        micros: race_micros,
        steps: total.steps,
        tuples: total.tuples,
    });
    if let Some((strategy, answer)) = winner {
        return d.report(answer, Some(strategy));
    }

    // 3. Sound-refutation fallbacks, sequential, under the race-token
    // budget (the race found no winner, so the token is untripped unless
    // the caller cancelled).
    consistency_fallbacks(d, instance, &a, &b, &race_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, path};
    use cspdb_core::trace::Recorder;
    use cspdb_core::Relation;
    use std::sync::Arc;

    fn solve(a: &Structure, b: &Structure) -> SolveReport {
        Solver::new().solve(a, b).expect_decided()
    }

    #[test]
    fn dispatches_to_schaefer_for_boolean_templates() {
        // 2-coloring = CSP(K2): Boolean, xor-like template.
        let report = solve(&cycle(6), &clique(2));
        assert!(matches!(report.strategy, Strategy::Schaefer(_)));
        assert!(report.witness.is_some());
        let report = solve(&cycle(7), &clique(2));
        assert!(matches!(report.strategy, Strategy::Schaefer(_)));
        assert!(report.witness.is_none());
    }

    #[test]
    fn dispatches_to_yannakakis_for_acyclic() {
        // Star coloring with 3 colors: acyclic instance, non-Boolean.
        let mut p = CspInstance::new(4, 3);
        let neq = Arc::new(
            Relation::from_tuples(
                2,
                (0..3u32).flat_map(|i| (0..3u32).filter_map(move |j| (i != j).then_some([i, j]))),
            )
            .unwrap(),
        );
        for leaf in 1..4u32 {
            p.add_constraint([0, leaf], neq.clone()).unwrap();
        }
        let report = Solver::new().solve_csp(&p).expect_decided();
        assert_eq!(report.strategy, Strategy::Yannakakis);
        assert!(report.witness.is_some());
        assert!(p.is_solution(report.witness.as_ref().unwrap()));
    }

    #[test]
    fn dispatches_to_treewidth_for_cyclic_sparse() {
        // Odd cycle into K3: cyclic, treewidth 2, 3 values.
        let report = solve(&cycle(5), &clique(3));
        assert!(matches!(report.strategy, Strategy::Treewidth(w) if w <= 2));
        let h = report.witness.expect("3-colorable");
        assert!(cspdb_core::is_homomorphism(&h, &cycle(5), &clique(3)));
    }

    #[test]
    fn dispatches_to_backtracking_for_dense() {
        // K7 into K6: treewidth 6 > cutoff, not Boolean, cyclic.
        let report = solve(&clique(7), &clique(6));
        assert_eq!(report.strategy, Strategy::Backtracking);
        assert!(report.witness.is_none());
        let report = solve(&clique(7), &clique(7));
        assert_eq!(report.strategy, Strategy::Backtracking);
        assert!(report.witness.is_some());
    }

    #[test]
    fn all_strategies_agree_with_each_other() {
        let mut state = 0x1357924680ACE135u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10 {
            let n = 4 + (next() % 3) as usize;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if next() % 2 == 0 {
                        edges.push((u, v));
                    }
                }
            }
            let a = cspdb_core::graphs::undirected(n, &edges);
            for b in [clique(2), clique(3)] {
                let report = solve(&a, &b);
                let direct = cspdb_solver::find_homomorphism(&a, &b);
                assert_eq!(report.witness.is_some(), direct.is_some());
                if let Some(h) = report.witness {
                    assert!(cspdb_core::is_homomorphism(&h, &a, &b));
                }
            }
        }
    }

    #[test]
    fn witnesses_verify_for_path_instances() {
        let report = solve(&path(6), &clique(2));
        let h = report.witness.unwrap();
        assert!(cspdb_core::is_homomorphism(&h, &path(6), &clique(2)));
    }

    #[test]
    fn parallel_ladder_agrees_with_sequential() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let cases = [
            (cycle(5), clique(3), true),
            (cycle(5), clique(2), false),
            (clique(4), clique(3), false),
            (path(7), clique(2), true),
        ];
        for (a, b, expected) in cases {
            let seq = Solver::new().solve(&a, &b);
            let par = pool.install(|| Solver::new().parallel(true).solve(&a, &b));
            assert_eq!(seq.answer.is_sat(), expected, "sequential on {a}");
            assert_eq!(par.answer.is_sat(), expected, "parallel on {a}");
        }
    }

    #[test]
    fn direct_strategy_is_pure_backtracking() {
        let report = Solver::new()
            .strategy(SolveStrategy::Direct)
            .solve(&cycle(5), &clique(3));
        assert_eq!(report.strategy, Some(Strategy::Backtracking));
        assert!(report.answer.is_sat());
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.trace.phases.len(), 1);
        assert_eq!(report.trace.phases[0].phase, "backtracking");
    }

    #[test]
    fn portfolio_agrees_with_sequential_ladder() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let cases = [
            (cycle(5), clique(3), true),   // treewidth territory
            (cycle(5), clique(4), true),   // treewidth territory, sat
            (clique(4), clique(3), false), // backtracking territory
            (clique(4), clique(4), true),  // backtracking territory, sat
            (cycle(6), clique(2), true),   // Schaefer inline
            (cycle(7), clique(2), false),  // Schaefer inline, unsat
        ];
        for (a, b, expected) in cases {
            let solver = Solver::new().strategy(SolveStrategy::Portfolio);
            let report = pool.install(|| solver.solve(&a, &b));
            assert!(
                report.strategy.is_some(),
                "unlimited portfolio must decide on {a}"
            );
            assert_eq!(report.answer.is_sat(), expected, "on {a} -> {b}");
            if let Some(w) = report.answer.witness() {
                assert!(cspdb_core::is_homomorphism(w, &a, &b));
            }
            // And agreement with the sequential governed ladder.
            let seq = Solver::new().solve(&a, &b);
            assert_eq!(report.answer.is_sat(), seq.answer.is_sat());
        }
    }

    #[test]
    fn portfolio_acyclic_instances_race_yannakakis() {
        // Non-Boolean star: Schaefer is inapplicable, so the race decides
        // — and the Yannakakis racer must at least appear in the trace.
        let mut p = CspInstance::new(4, 3);
        let neq = Arc::new(
            Relation::from_tuples(
                2,
                (0..3u32).flat_map(|i| (0..3u32).filter_map(move |j| (i != j).then_some([i, j]))),
            )
            .unwrap(),
        );
        for leaf in 1..4u32 {
            p.add_constraint([0, leaf], neq.clone()).unwrap();
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let solver = Solver::new().strategy(SolveStrategy::Portfolio);
        let report = pool.install(|| solver.solve_csp(&p));
        assert!(report.answer.is_sat());
        assert!(p.is_solution(report.answer.witness().unwrap()));
        assert!(report
            .attempts
            .iter()
            .any(|t| t.strategy == Strategy::Yannakakis));
    }

    #[test]
    fn portfolio_exhausts_to_unknown_soundly() {
        // A 1-step budget cannot decide K4 -> K3 (not Boolean, cyclic,
        // planning alone costs more): every racer exhausts, fallbacks
        // exhaust or stay inconclusive, answer is Unknown — never wrong.
        let report = Solver::new()
            .budget(Budget::new().with_step_limit(1))
            .strategy(SolveStrategy::Portfolio)
            .solve(&clique(4), &clique(3));
        assert!(report.answer.is_unknown());
        assert!(report.strategy.is_none());
    }

    #[test]
    fn portfolio_respects_caller_cancellation() {
        let token = cspdb_core::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token.clone());
        // K7 -> K6 is big enough that every racer crosses an amortised
        // checkpoint, so the pre-cancelled token must yield Unknown.
        let report = Solver::new()
            .budget(budget)
            .strategy(SolveStrategy::Portfolio)
            .solve(&clique(7), &clique(6));
        assert!(report.answer.is_unknown());
        // The race's internal cancellation must never fire the caller's
        // token; here it was already cancelled by the caller, and the
        // token object is unchanged (still just "cancelled").
        assert!(token.is_cancelled());
        // Conversely a fresh caller token stays untripped after a
        // portfolio run in which a winner cancelled the race internally.
        let token = cspdb_core::CancelToken::new();
        let budget = Budget::unlimited().with_cancel(token.clone());
        let report = Solver::new()
            .budget(budget)
            .strategy(SolveStrategy::Portfolio)
            .solve(&cycle(5), &clique(3));
        assert!(report.answer.is_sat());
        assert!(
            !token.is_cancelled(),
            "race cancellation leaked to the caller token"
        );
    }

    #[test]
    fn trace_summary_records_every_ladder_phase() {
        // K4 -> K3: Schaefer inapplicable (3 values), not acyclic,
        // treewidth 3 <= cutoff decides.
        let report = Solver::new().solve(&clique(4), &clique(3));
        assert!(report.answer.is_unsat());
        let phases: Vec<&str> = report
            .trace
            .phases
            .iter()
            .map(|p| p.phase.as_str())
            .collect();
        assert_eq!(report.trace.phases.len(), report.attempts.len());
        assert!(phases[0].starts_with("yannakakis"), "got {phases:?}");
        assert!(phases[1].starts_with("treewidth"), "got {phases:?}");
        // The deciding treewidth phase consumed meter resources.
        assert!(report.trace.phases[1].steps > 0);
    }

    #[test]
    fn recorder_sees_tier_events_in_order() {
        let rec = Arc::new(Recorder::new());
        let report = Solver::new()
            .trace(rec.clone())
            .solve(&cycle(5), &clique(3));
        assert!(report.answer.is_sat());
        let events = rec.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        // Tier events frame the run; the deciding treewidth tier also
        // emits decomposition and DP-table events in between.
        assert!(kinds.contains(&"tier_start"));
        assert!(kinds.contains(&"tier_end"));
        assert!(kinds.contains(&"decomposition"));
        assert!(kinds.contains(&"dp_table"));
        // TierStart always precedes its TierEnd.
        let first_start = kinds.iter().position(|k| *k == "tier_start").unwrap();
        let first_end = kinds.iter().position(|k| *k == "tier_end").unwrap();
        assert!(first_start < first_end);
    }

    #[test]
    fn report_conversions_unify_outcomes() {
        let solve_report = solve(&cycle(6), &clique(2));
        assert!(solve_report.outcome().is_sat());
        let governed: GovernedReport = solve_report.into();
        assert!(governed.outcome().is_sat());
        assert_eq!(governed.attempts.len(), 1);

        let run = cspdb_solver::solve_csp_metered(
            &CspInstance::from_homomorphism(&cycle(5), &clique(3)).unwrap(),
            &mut Budget::unlimited().meter(),
        );
        assert!(run.outcome().is_sat());
        let governed: GovernedReport = run.into();
        assert!(governed.outcome().is_sat());
        assert_eq!(governed.strategy, Some(Strategy::Backtracking));
        assert_eq!(governed.trace.phases.len(), 1);

        let exhausted = cspdb_solver::solve_csp_metered(
            &CspInstance::from_homomorphism(&clique(5), &clique(4)).unwrap(),
            &mut Budget::new().with_step_limit(1).meter(),
        );
        let governed: GovernedReport = exhausted.into();
        assert!(governed.outcome().is_unknown());
        assert_eq!(governed.strategy, None);
    }

    #[test]
    fn builder_is_order_insensitive_for_trace_and_budget() {
        let rec1 = Arc::new(Recorder::new());
        let rec2 = Arc::new(Recorder::new());
        let r1 = Solver::new()
            .trace(rec1.clone())
            .budget(Budget::unlimited())
            .solve(&cycle(5), &clique(3));
        let r2 = Solver::new()
            .budget(Budget::unlimited())
            .trace(rec2.clone())
            .solve(&cycle(5), &clique(3));
        assert_eq!(r1.answer.is_sat(), r2.answer.is_sat());
        assert_eq!(rec1.events().len(), rec2.events().len());
        assert!(!rec1.events().is_empty());
    }
}
