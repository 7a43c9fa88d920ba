//! Backtracking search with configurable variable ordering and
//! propagation.
//!
//! This is the generic NP engine of the workspace: every polynomial-time
//! special case implemented elsewhere (Datalog/consistency, bounded
//! treewidth, Schaefer classes, Yannakakis) is validated against it in
//! tests and raced against it in benchmarks.

use std::ops::ControlFlow;

use cspdb_core::budget::{ExhaustionReason, Meter, ResourceUsage};
use cspdb_core::trace::TraceEvent;

use crate::domain::DomainSet;
use crate::problem::Problem;

/// Variable-selection heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarOrder {
    /// Smallest index first.
    Lex,
    /// Minimum remaining values, ties by smallest index.
    Mrv,
    /// Minimum remaining values, ties by descending constraint degree.
    #[default]
    MrvDegree,
}

/// Constraint-propagation level maintained during search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Propagation {
    /// Check constraints only once fully assigned (chronological
    /// backtracking).
    Backcheck,
    /// One generalized-arc-consistency pass over the constraints touching
    /// the just-assigned variable (forward checking, generalized).
    Forward,
    /// Full generalized arc consistency to a fixpoint after every
    /// assignment (MAC).
    #[default]
    Gac,
}

/// Search configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    /// Variable ordering heuristic.
    pub var_order: VarOrder,
    /// Propagation level.
    pub propagation: Propagation,
    /// Optional cap on search nodes; `None` means unlimited.
    pub node_limit: Option<u64>,
}

/// Counters reported by a search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Nodes (assignments tried).
    pub nodes: u64,
    /// Dead ends that forced undoing an assignment.
    pub backtracks: u64,
    /// Constraint revisions performed by propagation.
    pub revisions: u64,
    /// Number of solutions delivered to the callback.
    pub solutions: u64,
}

/// Outcome of a search run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Search space exhausted (all solutions were visited).
    Exhausted,
    /// The solution callback requested an early stop.
    Stopped,
    /// The node limit was hit before exhausting the space.
    NodeLimit,
    /// The attached budget ran out before exhausting the space.
    ///
    /// Solutions delivered before exhaustion are still valid; the
    /// *absence* of solutions is inconclusive.
    BudgetExhausted(ExhaustionReason),
}

/// Runs generalized arc consistency to a fixpoint on the problem's
/// initial domains without any search. Returns the filtered domains, or
/// `None` on a wipeout — a sound, polynomial-time refutation (this is
/// the 2-pebble-game / canonical-Datalog approximation of Sections 4–5
/// of the paper).
pub fn gac_fixpoint(problem: &Problem) -> Option<Vec<DomainSet>> {
    gac_fixpoint_metered(problem, &mut Meter::default()).expect("unlimited budget cannot exhaust")
}

/// [`gac_fixpoint`] under a [`Meter`]: `Err` when the budget ran out
/// mid-fixpoint (inconclusive), otherwise the same contract — `Ok(None)`
/// is a *sound* refutation, `Ok(Some(domains))` the GAC-filtered
/// domains.
pub fn gac_fixpoint_metered(
    problem: &Problem,
    meter: &mut Meter,
) -> Result<Option<Vec<DomainSet>>, ExhaustionReason> {
    if problem.trivially_false {
        return Ok(None);
    }
    let mut domains = problem.initial_domains.clone();
    if domains.iter().any(DomainSet::is_empty) && problem.num_vars > 0 {
        return Ok(None);
    }
    let mut search = Search::with_meter(problem, Config::default(), meter);
    if search.propagate_all(&mut domains)? {
        Ok(Some(domains))
    } else {
        Ok(None)
    }
}

/// A configured search over a [`Problem`], charging one [`Meter`].
pub struct Search<'a> {
    problem: &'a Problem,
    config: Config,
    stats: Stats,
    meter: SearchMeter<'a>,
}

/// The meter a [`Search`] charges: its own unlimited one, or the
/// caller's.
enum SearchMeter<'a> {
    Own(Meter),
    Caller(&'a mut Meter),
}

impl std::ops::Deref for SearchMeter<'_> {
    type Target = Meter;

    fn deref(&self) -> &Meter {
        match self {
            SearchMeter::Own(m) => m,
            SearchMeter::Caller(m) => m,
        }
    }
}

impl std::ops::DerefMut for SearchMeter<'_> {
    fn deref_mut(&mut self) -> &mut Meter {
        match self {
            SearchMeter::Own(m) => m,
            SearchMeter::Caller(m) => m,
        }
    }
}

impl<'a> Search<'a> {
    /// Creates a search with the given configuration and no resource
    /// budget.
    pub fn new(problem: &'a Problem, config: Config) -> Self {
        Search::build(problem, config, SearchMeter::Own(Meter::default()))
    }

    /// Creates a search charging the caller's `meter`: the run returns
    /// [`Outcome::BudgetExhausted`] as soon as a limit trips (checked at
    /// every node and, amortised, inside propagation), and the caller
    /// reads the meter's usage and tracer afterwards.
    pub fn with_meter(problem: &'a Problem, config: Config, meter: &'a mut Meter) -> Self {
        Search::build(problem, config, SearchMeter::Caller(meter))
    }

    fn build(problem: &'a Problem, config: Config, meter: SearchMeter<'a>) -> Self {
        Search {
            problem,
            config,
            stats: Stats::default(),
            meter,
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Budget resources consumed so far.
    pub fn usage(&self) -> ResourceUsage {
        self.meter.usage()
    }

    /// Runs the search, invoking `on_solution` for every solution found
    /// (in an order determined by the heuristics). Return
    /// [`ControlFlow::Break`] from the callback to stop early.
    ///
    /// `seed_domains`, when given, overrides the problem's initial
    /// domains (used to fix or restrict variables).
    pub fn run(
        &mut self,
        seed_domains: Option<Vec<DomainSet>>,
        mut on_solution: impl FnMut(&[u32]) -> ControlFlow<()>,
    ) -> Outcome {
        let outcome = self.run_inner(seed_domains, &mut on_solution);
        let stats = self.stats;
        self.meter.tracer().emit_with(|| TraceEvent::Search {
            nodes: stats.nodes,
            backtracks: stats.backtracks,
            revisions: stats.revisions,
            solutions: stats.solutions,
        });
        if let Outcome::BudgetExhausted(reason) = outcome {
            self.meter.tracer().emit_with(|| TraceEvent::Exhausted {
                phase: "backtracking",
                reason,
            });
        }
        outcome
    }

    fn run_inner(
        &mut self,
        seed_domains: Option<Vec<DomainSet>>,
        on_solution: &mut impl FnMut(&[u32]) -> ControlFlow<()>,
    ) -> Outcome {
        if self.problem.trivially_false {
            return Outcome::Exhausted;
        }
        let mut domains = seed_domains.unwrap_or_else(|| self.problem.initial_domains.clone());
        assert_eq!(domains.len(), self.problem.num_vars, "domain vector size");
        // Seeds may be broader than the initial domains; clamp.
        for (v, d) in domains.iter_mut().enumerate() {
            d.intersect_with(&self.problem.initial_domains[v]);
        }
        // Root propagation under GAC catches immediate wipeouts.
        if matches!(self.config.propagation, Propagation::Gac) {
            match self.propagate_all(&mut domains) {
                Ok(true) => {}
                Ok(false) => return Outcome::Exhausted,
                Err(reason) => return Outcome::BudgetExhausted(reason),
            }
        }
        if domains.iter().any(DomainSet::is_empty) && self.problem.num_vars > 0 {
            return Outcome::Exhausted;
        }
        let mut assigned = vec![false; self.problem.num_vars];
        match self.backtrack(&mut domains, &mut assigned, 0, on_solution) {
            ControlFlow::Continue(()) => Outcome::Exhausted,
            ControlFlow::Break(Stop::Requested) => Outcome::Stopped,
            ControlFlow::Break(Stop::NodeLimit) => Outcome::NodeLimit,
            ControlFlow::Break(Stop::Budget(reason)) => Outcome::BudgetExhausted(reason),
        }
    }

    fn backtrack(
        &mut self,
        domains: &mut Vec<DomainSet>,
        assigned: &mut Vec<bool>,
        depth: usize,
        on_solution: &mut impl FnMut(&[u32]) -> ControlFlow<()>,
    ) -> ControlFlow<Stop> {
        if depth == self.problem.num_vars {
            let solution: Vec<u32> = domains
                .iter()
                .map(|d| d.singleton().expect("all variables assigned"))
                .collect();
            // Backcheck/Forward may not have verified every constraint.
            if self.problem.is_solution(&solution) {
                self.stats.solutions += 1;
                if on_solution(&solution).is_break() {
                    return ControlFlow::Break(Stop::Requested);
                }
            }
            return ControlFlow::Continue(());
        }
        let var = self.select_variable(domains, assigned);
        let values: Vec<u32> = domains[var].iter().collect();
        for value in values {
            if let Some(limit) = self.config.node_limit {
                if self.stats.nodes >= limit {
                    return ControlFlow::Break(Stop::NodeLimit);
                }
            }
            if let Err(reason) = self.meter.tick() {
                return ControlFlow::Break(Stop::Budget(reason));
            }
            self.stats.nodes += 1;
            let saved = domains.clone();
            domains[var].assign(value);
            assigned[var] = true;
            let ok = match self.config.propagation {
                Propagation::Backcheck => Ok(self.backcheck(domains, assigned, var)),
                Propagation::Forward => self.propagate_from(domains, var, false),
                Propagation::Gac => self.propagate_from(domains, var, true),
            };
            let ok = match ok {
                Ok(ok) => ok,
                Err(reason) => return ControlFlow::Break(Stop::Budget(reason)),
            };
            if ok {
                self.backtrack(domains, assigned, depth + 1, on_solution)?;
            } else {
                self.stats.backtracks += 1;
            }
            assigned[var] = false;
            *domains = saved;
        }
        ControlFlow::Continue(())
    }

    fn select_variable(&self, domains: &[DomainSet], assigned: &[bool]) -> usize {
        let unassigned = (0..self.problem.num_vars).filter(|&v| !assigned[v]);
        match self.config.var_order {
            VarOrder::Lex => unassigned.min().expect("depth < num_vars"),
            VarOrder::Mrv => unassigned
                .min_by_key(|&v| (domains[v].len(), v))
                .expect("depth < num_vars"),
            VarOrder::MrvDegree => unassigned
                .min_by_key(|&v| {
                    (
                        domains[v].len(),
                        usize::MAX - self.problem.var_constraints[v].len(),
                        v,
                    )
                })
                .expect("depth < num_vars"),
        }
    }

    /// Checks every constraint of `var` whose scope is fully assigned.
    fn backcheck(&mut self, domains: &[DomainSet], assigned: &[bool], var: usize) -> bool {
        let mut image = Vec::new();
        for &ci in &self.problem.var_constraints[var] {
            let c = &self.problem.constraints[ci as usize];
            if !c.scope.iter().all(|&v| assigned[v as usize]) {
                continue;
            }
            image.clear();
            for &v in &c.scope {
                image.push(domains[v as usize].singleton().expect("assigned"));
            }
            if !c.table.contains(&image) {
                return false;
            }
        }
        true
    }

    /// GAC revision of a single constraint. Returns `(changed, wiped)`.
    fn revise(&mut self, domains: &mut [DomainSet], ci: u32) -> (bool, bool) {
        self.stats.revisions += 1;
        let c = &self.problem.constraints[ci as usize];
        let arity = c.scope.len();
        let mut supported: Vec<DomainSet> = c
            .scope
            .iter()
            .map(|&v| DomainSet::empty(domains[v as usize].capacity()))
            .collect();
        'tuples: for t in c.table.iter() {
            for (i, &x) in t.iter().enumerate() {
                if !domains[c.scope[i] as usize].contains(x) {
                    continue 'tuples;
                }
            }
            for (i, &x) in t.iter().enumerate() {
                supported[i].insert(x);
            }
        }
        let mut changed = false;
        let mut wiped = false;
        let _ = arity;
        for (i, supp) in supported.iter().enumerate() {
            let v = c.scope[i] as usize;
            if domains[v].intersect_with(supp) {
                changed = true;
                if domains[v].is_empty() {
                    wiped = true;
                }
            }
        }
        (changed, wiped)
    }

    /// Propagates starting from the constraints of `var`. If `fixpoint`
    /// is set, continues until quiescence (MAC); otherwise does a single
    /// pass (forward checking). `Ok(false)` on domain wipeout, `Err` if
    /// the budget ran out mid-propagation.
    fn propagate_from(
        &mut self,
        domains: &mut [DomainSet],
        var: usize,
        fixpoint: bool,
    ) -> Result<bool, ExhaustionReason> {
        let mut queue: Vec<u32> = self.problem.var_constraints[var].clone();
        let mut queued: Vec<bool> = vec![false; self.problem.constraints.len()];
        for &ci in &queue {
            queued[ci as usize] = true;
        }
        while let Some(ci) = queue.pop() {
            self.meter.tick()?;
            queued[ci as usize] = false;
            let (changed, wiped) = self.revise(domains, ci);
            if wiped {
                return Ok(false);
            }
            if changed && fixpoint {
                let scope = self.problem.constraints[ci as usize].scope.clone();
                for &v in &scope {
                    for &cj in &self.problem.var_constraints[v as usize] {
                        if cj != ci && !queued[cj as usize] {
                            queued[cj as usize] = true;
                            queue.push(cj);
                        }
                    }
                }
            }
        }
        Ok(true)
    }

    /// Propagates every constraint to a fixpoint (root preprocessing).
    /// `Ok(false)` on wipeout, `Err` on budget exhaustion.
    fn propagate_all(&mut self, domains: &mut [DomainSet]) -> Result<bool, ExhaustionReason> {
        let mut queue: Vec<u32> = (0..self.problem.constraints.len() as u32).collect();
        let mut queued: Vec<bool> = vec![true; self.problem.constraints.len()];
        while let Some(ci) = queue.pop() {
            self.meter.tick()?;
            queued[ci as usize] = false;
            let (changed, wiped) = self.revise(domains, ci);
            if wiped {
                return Ok(false);
            }
            if changed {
                let scope = self.problem.constraints[ci as usize].scope.clone();
                for &v in &scope {
                    for &cj in &self.problem.var_constraints[v as usize] {
                        if cj != ci && !queued[cj as usize] {
                            queued[cj as usize] = true;
                            queue.push(cj);
                        }
                    }
                }
            }
        }
        Ok(true)
    }
}

enum Stop {
    Requested,
    NodeLimit,
    Budget(ExhaustionReason),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, path};

    fn count(a: &cspdb_core::Structure, b: &cspdb_core::Structure, config: Config) -> u64 {
        let p = Problem::from_structures(a, b);
        let mut s = Search::new(&p, config);
        s.run(None, |_| ControlFlow::Continue(()));
        s.stats().solutions
    }

    #[test]
    fn counts_agree_across_configurations() {
        let cases = [
            (cycle(5), clique(3)),
            (cycle(4), clique(2)),
            (path(4), clique(2)),
            (cycle(3), clique(3)),
        ];
        for (a, b) in &cases {
            let mut counts = Vec::new();
            for var_order in [VarOrder::Lex, VarOrder::Mrv, VarOrder::MrvDegree] {
                for propagation in [
                    Propagation::Backcheck,
                    Propagation::Forward,
                    Propagation::Gac,
                ] {
                    counts.push(count(
                        a,
                        b,
                        Config {
                            var_order,
                            propagation,
                            node_limit: None,
                        },
                    ));
                }
            }
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "counts differ: {counts:?}"
            );
        }
    }

    #[test]
    fn chromatic_counts_are_exact() {
        // Homomorphisms C5 -> K3 = number of proper 3-colorings of C5 = 30.
        assert_eq!(count(&cycle(5), &clique(3), Config::default()), 30);
        // C4 -> K2: 2 proper 2-colorings.
        assert_eq!(count(&cycle(4), &clique(2), Config::default()), 2);
        // C5 -> K2: odd cycle, none.
        assert_eq!(count(&cycle(5), &clique(2), Config::default()), 0);
    }

    #[test]
    fn early_stop_is_honored() {
        let p = Problem::from_structures(&path(3), &clique(3));
        let mut s = Search::new(&p, Config::default());
        let mut seen = 0;
        let outcome = s.run(None, |_| {
            seen += 1;
            if seen == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(outcome, Outcome::Stopped);
        assert_eq!(seen, 2);
    }

    #[test]
    fn node_limit_reported() {
        let config = Config {
            node_limit: Some(1),
            ..Config::default()
        };
        let p = Problem::from_structures(&cycle(5), &clique(3));
        let mut s = Search::new(&p, config);
        let outcome = s.run(None, |_| ControlFlow::Continue(()));
        assert_eq!(outcome, Outcome::NodeLimit);
    }

    #[test]
    fn seed_domains_restrict_search() {
        let p = Problem::from_structures(&path(3), &clique(2));
        // Fix vertex 0 to color 1: colorings become 1,0,1 only.
        let mut seeds = p.initial_domains.clone();
        seeds[0].assign(1);
        let mut s = Search::new(&p, Config::default());
        let mut solutions = Vec::new();
        s.run(Some(seeds), |sol| {
            solutions.push(sol.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(solutions, vec![vec![1, 0, 1]]);
    }

    #[test]
    fn gac_alone_cannot_refute_triangle_into_k2_but_search_does() {
        // Arc consistency does NOT detect odd-cycle non-2-colorability
        // (every edge constraint supports both colors); this is exactly
        // why strong k-consistency (Section 5) is needed. The search
        // still refutes it, after branching at least once.
        let p = Problem::from_structures(&cycle(3), &clique(2));
        let mut s = Search::new(&p, Config::default());
        let outcome = s.run(None, |_| ControlFlow::Continue(()));
        assert_eq!(outcome, Outcome::Exhausted);
        assert_eq!(s.stats().solutions, 0);
        assert!(s.stats().nodes > 0, "refutation requires branching");
    }

    #[test]
    fn empty_initial_domain_fails_without_branching() {
        use cspdb_core::{CspInstance, Relation};
        use std::sync::Arc;
        // A unary constraint with an empty relation empties the domain.
        let mut csp = CspInstance::new(2, 2);
        csp.add_constraint([0], Arc::new(Relation::empty(1)))
            .unwrap();
        let p = Problem::from_csp(&csp);
        let mut s = Search::new(&p, Config::default());
        let outcome = s.run(None, |_| ControlFlow::Continue(()));
        assert_eq!(outcome, Outcome::Exhausted);
        assert_eq!(s.stats().nodes, 0);
        assert_eq!(s.stats().solutions, 0);
    }
}

#[cfg(test)]
mod gac_fixpoint_tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, path};

    #[test]
    fn gac_refutes_only_unsatisfiable() {
        // Soundness: wipeout implies unsatisfiable.
        let p = Problem::from_structures(&path(3), &clique(2));
        assert!(gac_fixpoint(&p).is_some());
        // Triangle into K2: unsatisfiable, but AC alone cannot see it.
        let p = Problem::from_structures(&cycle(3), &clique(2));
        assert!(gac_fixpoint(&p).is_some(), "AC is incomplete here");
        // A genuinely AC-refutable instance: unary wipeout.
        let mut csp = cspdb_core::CspInstance::new(1, 2);
        csp.add_constraint([0], std::sync::Arc::new(cspdb_core::Relation::empty(1)))
            .unwrap();
        assert!(gac_fixpoint(&Problem::from_csp(&csp)).is_none());
    }

    #[test]
    fn gac_domains_keep_all_solutions() {
        let p = Problem::from_structures(&cycle(6), &clique(2));
        let domains = gac_fixpoint(&p).unwrap();
        let mut s = Search::new(&p, Config::default());
        s.run(None, |sol| {
            for (v, &x) in sol.iter().enumerate() {
                assert!(domains[v].contains(x));
            }
            std::ops::ControlFlow::Continue(())
        });
    }
}
