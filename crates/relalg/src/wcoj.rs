//! Worst-case-optimal multiway join: leapfrog intersection over sorted
//! trie views (Veldhuizen's leapfrog triejoin shape).
//!
//! The tutorial's hard CSP cores are exactly the *cyclic* queries —
//! triangles, k-cliques, Loomis–Whitney — where any binary join order
//! materializes an intermediate result asymptotically larger than the
//! output. The AGM bound shows the output of a join is at most
//! `∏ |R_i|^{x_i}` for any fractional edge cover `x`, and engines that
//! bind one *attribute* at a time (instead of one relation at a time)
//! meet that bound. This module implements such an engine:
//!
//! * every relation is materialized as a trie view — its projection
//!   onto its columns in a single global attribute order, which is
//!   sorted lexicographically, so each attribute level is a sorted run
//!   supporting binary-search `seek`;
//! * [`wcoj_join_with_order`] runs the leapfrog intersection: at each
//!   level, the relations containing that attribute intersect their
//!   candidate value sets by repeated max-of-fronts seeks, and every
//!   surviving binding recurses one level deeper;
//! * [`choose_engine`] is the cost gate: the binary System-R plan's
//!   estimated peak intermediate cardinality is compared against the
//!   square-root AGM bound (valid whenever every attribute is shared by
//!   at least two relations), and WCOJ is selected only for cyclic
//!   hypergraphs where the AGM bound is smaller.
//!
//! The engine is metered like every other kernel: one `tick` per trie
//! row built and per seek, one `charge_tuples` per output row, a
//! [`TraceEvent::WcojLevel`] per attribute level with its binding
//! cardinality, and one [`TraceEvent::Operator`] (kind `multiway_join`)
//! accounting for the output — so trace/meter reconciliation holds
//! across engines. The leapfrog core streams its bindings, so the rule
//! bodies of view maintenance and Datalog run on it too
//! ([`for_each_body_valuation`]).

use crate::named::NamedRelation;
use crate::planner::{plan_join_order, JoinOrder};
use crate::rule_body::{for_each_body_valuation, BodyAtom, BodyTerm, TrieCache};
use cspdb_core::budget::{ExhaustionReason, Meter};
use cspdb_core::trace::{OperatorKind, TraceEvent, Tracer};
use cspdb_core::Relation;
use cspdb_decomp::Hypergraph;
use std::collections::HashMap;

/// Which engine [`choose_engine`] selected for a multiway join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineChoice {
    /// The left-deep binary hash-join pipeline in the planner's order.
    Binary {
        /// The System-R plan to execute.
        plan: JoinOrder,
        /// Why binary was kept (for `--explain` / `PlanChosen`).
        reason: String,
    },
    /// The worst-case-optimal leapfrog engine.
    Wcoj {
        /// The binary plan that was *rejected* (kept for estimates and
        /// trace context).
        plan: JoinOrder,
        /// Global attribute order the leapfrog binds, outermost first.
        attr_order: Vec<u32>,
        /// The square-root AGM output bound that beat the binary peak.
        agm_bound: u64,
        /// Why WCOJ won (for `--explain` / `PlanChosen`).
        reason: String,
    },
}

impl EngineChoice {
    /// Stable engine name (`"binary"` / `"wcoj"`).
    pub fn engine_name(&self) -> &'static str {
        match self {
            EngineChoice::Binary { .. } => "binary",
            EngineChoice::Wcoj { .. } => "wcoj",
        }
    }

    /// The selection rationale.
    pub fn reason(&self) -> &str {
        match self {
            EngineChoice::Binary { reason, .. } | EngineChoice::Wcoj { reason, .. } => reason,
        }
    }

    /// The chosen engine's estimated peak materialized cardinality:
    /// the plan's peak intermediate for binary, the AGM output bound
    /// for WCOJ (which materializes nothing but the output).
    pub fn est_peak(&self) -> u64 {
        match self {
            EngineChoice::Binary { plan, .. } => plan.est_peak(),
            EngineChoice::Wcoj { agm_bound, .. } => *agm_bound,
        }
    }
}

/// Picks the join engine for `relations` cost-wise: binary stays the
/// default; the WCOJ engine is selected only when the join hypergraph
/// is cyclic, every attribute is shared (so the square-root fractional
/// edge cover is feasible), and the resulting AGM bound undercuts the
/// binary plan's estimated peak intermediate cardinality.
pub fn choose_engine(relations: &[NamedRelation]) -> EngineChoice {
    let plan = plan_join_order(relations);
    if relations.len() < 3 {
        return EngineChoice::Binary {
            plan,
            reason: "fewer than 3 relations: a single pairwise join is already optimal".into(),
        };
    }
    let Some(agm_bound) = agm_sqrt_bound(relations) else {
        return EngineChoice::Binary {
            plan,
            reason: "an attribute is private to one relation: no square-root edge cover".into(),
        };
    };
    if !is_cyclic_join(relations) {
        return EngineChoice::Binary {
            plan,
            reason: "acyclic join hypergraph: binary plans keep intermediates output-bounded"
                .into(),
        };
    }
    let binary_peak = plan.est_peak();
    if agm_bound < binary_peak {
        let reason = format!(
            "cyclic join hypergraph and AGM output bound {agm_bound} undercuts binary plan \
             peak estimate {binary_peak}"
        );
        EngineChoice::Wcoj {
            attr_order: global_attribute_order(relations),
            plan,
            agm_bound,
            reason,
        }
    } else {
        EngineChoice::Binary {
            plan,
            reason: format!(
                "cyclic join hypergraph but binary plan peak estimate {binary_peak} stays \
                 within AGM output bound {agm_bound}"
            ),
        }
    }
}

/// The chosen engine's estimated peak materialized cardinality for
/// joining `relations` — what admission control should compare against
/// a heavy-work threshold (a WCOJ-eligible cyclic query is *not* as
/// expensive as its binary plan pretends).
pub fn estimated_join_peak(relations: &[NamedRelation]) -> u64 {
    choose_engine(relations).est_peak()
}

/// True if the schemas of `relations` form a cyclic (non-α-acyclic)
/// hypergraph — the shapes where binary join orders provably pay an
/// intermediate-result premium.
pub fn is_cyclic_join(relations: &[NamedRelation]) -> bool {
    // Remap sparse attribute ids to dense hypergraph vertices.
    let mut dense: HashMap<u32, u32> = HashMap::new();
    for r in relations {
        for &a in r.schema() {
            let next = dense.len() as u32;
            dense.entry(a).or_insert(next);
        }
    }
    let mut hg = Hypergraph::new(dense.len());
    for r in relations {
        if !r.schema().is_empty() {
            hg.add_edge(r.schema().iter().map(|a| dense[a]));
        }
    }
    !hg.is_acyclic()
}

/// The square-root AGM bound `∏ |R_i|^{1/2}` (floor), valid whenever
/// every attribute occurs in at least two relations — then weighting
/// every edge 1/2 is a feasible fractional edge cover. `None` when some
/// attribute is private to a single relation (the cover is infeasible
/// and the bound would be wrong). Saturates at `u64::MAX`.
pub fn agm_sqrt_bound(relations: &[NamedRelation]) -> Option<u64> {
    let mut occurrences: HashMap<u32, u32> = HashMap::new();
    for r in relations {
        for &a in r.schema() {
            *occurrences.entry(a).or_insert(0) += 1;
        }
    }
    if occurrences.is_empty() || occurrences.values().any(|&n| n < 2) {
        return None;
    }
    let mut product: u128 = 1;
    for r in relations {
        if r.schema().is_empty() {
            continue;
        }
        match product.checked_mul(r.len() as u128) {
            Some(p) => product = p,
            // √(overflowing u128 product) exceeds u64 anyway.
            None => return Some(u64::MAX),
        }
    }
    Some(u64::try_from(isqrt_u128(product)).unwrap_or(u64::MAX))
}

/// Floor integer square root of a `u128` (the result always fits u64).
fn isqrt_u128(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    let (mut lo, mut hi) = (1u128, 1u128 << 64);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if mid.checked_mul(mid).is_some_and(|sq| sq <= n) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// The global attribute order the leapfrog binds, outermost first:
/// attributes shared by more relations come first (their intersections
/// prune hardest), ties broken by ascending minimum distinct count
/// (most selective first), then by attribute id for determinism.
pub fn global_attribute_order(relations: &[NamedRelation]) -> Vec<u32> {
    let mut occurrences: HashMap<u32, u32> = HashMap::new();
    let mut min_distinct: HashMap<u32, u64> = HashMap::new();
    for r in relations {
        for (&a, d) in r.schema().iter().zip(r.distinct_counts()) {
            *occurrences.entry(a).or_insert(0) += 1;
            min_distinct
                .entry(a)
                .and_modify(|cur| *cur = (*cur).min(d))
                .or_insert(d);
        }
    }
    let mut order: Vec<u32> = occurrences.keys().copied().collect();
    order.sort_by_key(|a| (std::cmp::Reverse(occurrences[a]), min_distinct[a], *a));
    order
}

/// One input of the leapfrog: rows sorted lexicographically whose
/// columns bind strictly increasing levels of the variable order, so
/// the rows matching any bound prefix form one contiguous range and
/// each level within it is a sorted run.
pub(crate) struct TrieView<'a> {
    rows: &'a Relation,
    /// For each level, the column (depth) this view binds there, or
    /// `None` when the view does not bind that level.
    depth_at_level: Vec<Option<usize>>,
}

impl<'a> TrieView<'a> {
    /// A view over `rows` whose column `d` binds level `levels[d]`, out
    /// of `num_levels` levels.
    pub(crate) fn new(rows: &'a Relation, levels: &[usize], num_levels: usize) -> TrieView<'a> {
        debug_assert!(levels.windows(2).all(|w| w[0] < w[1]));
        let mut depth_at_level = vec![None; num_levels];
        for (depth, &level) in levels.iter().enumerate() {
            depth_at_level[level] = Some(depth);
        }
        TrieView {
            rows,
            depth_at_level,
        }
    }
}

/// [`wcoj_join_with_order`] under the heuristic
/// [`global_attribute_order`].
pub fn wcoj_join_metered(
    relations: &[NamedRelation],
    meter: &mut Meter,
) -> Result<NamedRelation, ExhaustionReason> {
    let order = global_attribute_order(relations);
    wcoj_join_with_order(relations, &order, meter)
}

/// Evaluates the full natural join of `relations` with the leapfrog
/// worst-case-optimal engine, binding attributes in `attr_order`
/// (which must be exactly the set of attributes appearing in the
/// schemas): a rule body whose atoms are the relations, run by
/// [`for_each_body_valuation`]. The output schema is `attr_order`; only
/// output tuples are materialized, never an intermediate join.
///
/// # Errors
///
/// Propagates meter exhaustion: one step per row of a relation whose
/// columns are not already in `attr_order` (it is sorted into a trie
/// view) and per seek, one tuple charge per output row.
///
/// # Panics
///
/// Panics if `attr_order` misses an attribute used by some relation.
pub fn wcoj_join_with_order(
    relations: &[NamedRelation],
    attr_order: &[u32],
    meter: &mut Meter,
) -> Result<NamedRelation, ExhaustionReason> {
    if relations.is_empty() {
        return Ok(NamedRelation::unit());
    }
    if relations.iter().any(NamedRelation::is_empty) {
        // Any empty input empties the whole join.
        return Ok(NamedRelation::empty(attr_order.to_vec()));
    }
    let span = meter.tracer().span_start();
    let slot_of: HashMap<u32, usize> = attr_order
        .iter()
        .enumerate()
        .map(|(l, &a)| (a, l))
        .collect();
    let terms: Vec<Vec<BodyTerm>> = relations
        .iter()
        .map(|r| {
            r.schema()
                .iter()
                .map(|a| BodyTerm::Var(slot_of[a]))
                .collect()
        })
        .collect();
    let atoms: Vec<BodyAtom> = relations
        .iter()
        .zip(&terms)
        .map(|(r, terms)| BodyAtom {
            terms,
            rel: r.relation(),
            cache_as: None,
        })
        .collect();
    let order: Vec<usize> = (0..attr_order.len()).collect();
    let (mut output_rows, mut out) = (0u64, Vec::new());
    let matches =
        for_each_body_valuation(&atoms, &order, &mut TrieCache::new(), meter, &mut |row| {
            out.extend_from_slice(row);
            output_rows += 1;
        })?;
    // Nullary relations with rows are join units, not inputs.
    let inputs: Vec<&NamedRelation> = relations
        .iter()
        .filter(|r| !r.schema().is_empty())
        .collect();
    for (l, &attr) in attr_order.iter().enumerate() {
        meter.tracer().emit_with(|| TraceEvent::WcojLevel {
            level: l as u32,
            attr,
            relations: inputs.iter().filter(|r| r.schema().contains(&attr)).count() as u32,
            matches: matches[l],
        });
    }
    // One Operator event for the whole multiway join, so trace/meter
    // tuple reconciliation holds for either engine. "Left" carries the
    // total input rows, "right" the relation count.
    meter.tracer().emit_with(|| TraceEvent::Operator {
        op: OperatorKind::MultiwayJoin,
        left_rows: inputs.iter().map(|r| r.len() as u64).sum(),
        right_rows: inputs.len() as u64,
        output_rows,
        micros: Tracer::span_micros(span),
    });
    let relation = Relation::from_flat(attr_order.len(), output_rows as usize, out);
    Ok(NamedRelation::from_relation(attr_order.to_vec(), relation))
}

/// The streaming leapfrog core shared by every multiway join: calls
/// `emit` once per binding of levels `0..num_levels` on which all
/// `views` agree, with the values by level, and returns how many
/// bindings each level matched. The views must be non-empty and every
/// level must be bound by at least one of them; with no levels, the
/// empty binding is emitted once.
///
/// Metered: one tick per seek, one tuple charge per emitted binding.
pub(crate) fn leapfrog(
    views: &[TrieView],
    num_levels: usize,
    meter: &mut Meter,
    emit: &mut dyn FnMut(&[u32]),
) -> Result<Vec<u64>, ExhaustionReason> {
    let participants: Vec<Vec<usize>> = (0..num_levels)
        .map(|l| {
            (0..views.len())
                .filter(|&v| views[v].depth_at_level[l].is_some())
                .collect()
        })
        .collect();
    assert!(
        participants.iter().all(|p| !p.is_empty()),
        "every level must be bound by some view"
    );
    debug_assert!(views.iter().all(|v| !v.rows.is_empty()));
    let mut state = Leapfrog {
        views,
        saved: vec![Vec::new(); num_levels],
        participants,
        ranges: views.iter().map(|v| (0, v.rows.len())).collect(),
        prefix: Vec::with_capacity(num_levels),
        matches: vec![0; num_levels],
    };
    state.descend(0, meter, emit)?;
    Ok(state.matches)
}

/// The leapfrog's working state: each view's current row range, the
/// bound prefix, and per level the participants and the ranges to
/// restore on leaving it (kept here so the recursion allocates
/// nothing).
struct Leapfrog<'v, 'a> {
    views: &'v [TrieView<'a>],
    participants: Vec<Vec<usize>>,
    saved: Vec<Vec<(usize, usize)>>,
    ranges: Vec<(usize, usize)>,
    prefix: Vec<u32>,
    matches: Vec<u64>,
}

impl Leapfrog<'_, '_> {
    /// Binds `level` and everything below it; the participants'
    /// ranges are restored before returning, so the caller's state
    /// survives.
    fn descend(
        &mut self,
        level: usize,
        meter: &mut Meter,
        emit: &mut dyn FnMut(&[u32]),
    ) -> Result<(), ExhaustionReason> {
        if level == self.participants.len() {
            meter.charge_tuples(1)?;
            emit(&self.prefix);
            return Ok(());
        }
        let parts = std::mem::take(&mut self.participants[level]);
        let mut saved = std::mem::take(&mut self.saved[level]);
        saved.clear();
        saved.extend(parts.iter().map(|&p| self.ranges[p]));
        let result = self.intersect(level, &parts, &saved, meter, emit);
        for (&p, &range) in parts.iter().zip(&saved) {
            self.ranges[p] = range;
        }
        self.participants[level] = parts;
        self.saved[level] = saved;
        result
    }

    /// The leapfrog intersection at `level`: the participants' ranges
    /// are intersected on their level column, and every surviving value
    /// is bound and recursed one level deeper.
    fn intersect(
        &mut self,
        level: usize,
        parts: &[usize],
        saved: &[(usize, usize)],
        meter: &mut Meter,
        emit: &mut dyn FnMut(&[u32]),
    ) -> Result<(), ExhaustionReason> {
        let views = self.views;
        let depth = |p: usize| views[p].depth_at_level[level].expect("participant binds level");
        // The leapfrog front: the largest of the participants' first
        // values; every participant is seeked up to it, and a round
        // where nobody moves past it is a match.
        let mut x = parts
            .iter()
            .map(|&p| views[p].rows.row(self.ranges[p].0)[depth(p)])
            .max()
            .expect("every level has a participant");
        loop {
            let mut aligned = true;
            for &p in parts {
                meter.tick()?;
                let d = depth(p);
                let (lo, hi) = self.ranges[p];
                // Seek: first row in range with row[d] >= x. The rows
                // share the bound prefix, so the level column is sorted.
                let seek = views[p].rows.partition_point(lo..hi, |row| row[d] < x);
                if seek == hi {
                    return Ok(()); // some participant exhausted: done
                }
                self.ranges[p].0 = seek;
                let v = views[p].rows.row(seek)[d];
                if v > x {
                    x = v;
                    aligned = false;
                    break; // restart the round at the new front
                }
            }
            if !aligned {
                continue;
            }
            // Every participant agrees on x: narrow each to its
            // x-block, bind, and descend.
            self.matches[level] += 1;
            for &p in parts {
                let d = depth(p);
                let (lo, hi) = self.ranges[p];
                self.ranges[p].1 = views[p].rows.partition_point(lo..hi, |row| row[d] == x);
            }
            self.prefix.push(x);
            let deeper = self.descend(level + 1, meter, emit);
            self.prefix.pop();
            deeper?;
            // Resume each participant after its x-block.
            for (&p, &(_, hi)) in parts.iter().zip(saved) {
                self.ranges[p] = (self.ranges[p].1, hi);
            }
            match x.checked_add(1) {
                Some(next) => x = next,
                None => return Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::budget::Budget;
    use cspdb_core::trace::Recorder;
    use std::sync::Arc;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> NamedRelation {
        NamedRelation::new(schema.to_vec(), rows.iter().map(|r| r.to_vec()))
    }

    fn edges(schema: [u32; 2], pairs: &[(u32, u32)]) -> NamedRelation {
        NamedRelation::new(schema.to_vec(), pairs.iter().map(|&(a, b)| vec![a, b]))
    }

    /// Canonical projection for schema-order-independent comparison.
    fn canon(rel: &NamedRelation) -> std::collections::BTreeSet<Vec<u32>> {
        let mut attrs: Vec<u32> = rel.schema().to_vec();
        attrs.sort_unstable();
        rel.project(&attrs).iter().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn triangle_join_matches_binary() {
        let pairs = [(0u32, 1u32), (1, 2), (2, 0), (0, 3), (3, 4)];
        let r = edges([0, 1], &pairs);
        let s = edges([1, 2], &pairs);
        let t = edges([2, 0], &pairs);
        let rels = vec![r, s, t];
        let mut meter = Budget::unlimited().meter();
        let wcoj = wcoj_join_metered(&rels, &mut meter).unwrap();
        let binary = crate::join_all_size_ordered(rels, &mut Meter::default()).unwrap();
        assert_eq!(canon(&wcoj), canon(&binary));
        assert!(!wcoj.is_empty(), "0→1→2→0 closes a triangle");
    }

    #[test]
    fn empty_input_and_empty_relation_edge_cases() {
        let mut meter = Budget::unlimited().meter();
        assert_eq!(
            wcoj_join_metered(&[], &mut meter).unwrap(),
            NamedRelation::unit()
        );
        let r = edges([0, 1], &[(0, 1)]);
        let empty = NamedRelation::empty(vec![1, 2]);
        let t = edges([2, 0], &[(5, 0)]);
        let joined = wcoj_join_metered(&[r, empty, t], &mut meter).unwrap();
        assert!(joined.is_empty());
    }

    #[test]
    fn disconnected_inputs_cross_product() {
        let a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[1], &[&[7]]);
        // Private attributes: not WCOJ-eligible by the cost gate, but
        // the kernel itself must still be correct on them.
        let mut meter = Budget::unlimited().meter();
        let wcoj = wcoj_join_metered(&[a.clone(), b.clone()], &mut meter).unwrap();
        let binary = crate::join_all_size_ordered(vec![a, b], &mut Meter::default()).unwrap();
        assert_eq!(canon(&wcoj), canon(&binary));
        assert_eq!(wcoj.len(), 2);
    }

    #[test]
    fn trace_levels_account_for_output() {
        let pairs: Vec<(u32, u32)> = (0..6u32).flat_map(|i| [(i, (i + 1) % 6), (i, 0)]).collect();
        let rels = vec![
            edges([0, 1], &pairs),
            edges([1, 2], &pairs),
            edges([2, 0], &pairs),
        ];
        let rec = Arc::new(Recorder::new());
        let budget = Budget::unlimited().with_trace(rec.clone());
        let mut meter = budget.meter();
        let joined = wcoj_join_metered(&rels, &mut meter).unwrap();
        let events = rec.events();
        let levels: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::WcojLevel { .. }))
            .collect();
        assert_eq!(levels.len(), 3, "one event per attribute level");
        // The deepest level's matches are exactly the output tuples,
        // which are exactly the metered tuples.
        let TraceEvent::WcojLevel { matches, .. } = levels.last().unwrap() else {
            unreachable!()
        };
        assert_eq!(*matches, joined.len() as u64);
        assert_eq!(meter.usage().tuples, joined.len() as u64);
        let operator_rows: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Operator { output_rows, .. } => Some(*output_rows),
                _ => None,
            })
            .sum();
        assert_eq!(operator_rows, meter.usage().tuples);
    }

    #[test]
    fn tuple_budget_aborts_mid_join() {
        let pairs: Vec<(u32, u32)> = (0..8u32)
            .flat_map(|i| (0..8u32).map(move |j| (i, j)))
            .collect();
        let rels = vec![
            edges([0, 1], &pairs),
            edges([1, 2], &pairs),
            edges([2, 0], &pairs),
        ];
        let mut meter = Budget::unlimited().with_tuple_limit(5).meter();
        assert_eq!(
            wcoj_join_metered(&rels, &mut meter),
            Err(ExhaustionReason::TupleLimitExceeded),
            "complete tripartite digraph joins to 512 tuples"
        );
    }

    #[test]
    fn cost_gate_picks_wcoj_only_on_dense_cyclic_inputs() {
        // Dense digraph on 8 vertices (all 64 pairs): the binary plan
        // estimates a peak of |R|³/V² = 4096 intermediate tuples while
        // the AGM bound caps the output at √(64³) = 512.
        let dense: Vec<(u32, u32)> = (0..8u32)
            .flat_map(|i| (0..8u32).map(move |j| (i, j)))
            .collect();
        let cyclic = vec![
            edges([0, 1], &dense),
            edges([1, 2], &dense),
            edges([2, 0], &dense),
        ];
        let choice = choose_engine(&cyclic);
        assert_eq!(choice.engine_name(), "wcoj", "{}", choice.reason());
        assert!(matches!(choice, EngineChoice::Wcoj { agm_bound: 512, .. }));

        // Acyclic path query over the same relations: binary stays.
        let path = vec![edges([0, 1], &dense), edges([1, 2], &dense)];
        let choice = choose_engine(&path);
        assert_eq!(choice.engine_name(), "binary");

        // A private attribute disables the square-root cover.
        let private = vec![
            edges([0, 1], &dense),
            edges([1, 2], &dense),
            edges([2, 3], &dense),
        ];
        assert_eq!(agm_sqrt_bound(&private), None);
        assert_eq!(choose_engine(&private).engine_name(), "binary");

        // Skewed star: the System-R estimate stays under the AGM bound,
        // so the gate (by design, cardinalities only) keeps binary.
        let star: Vec<(u32, u32)> = (1..=16u32).flat_map(|i| [(i, 0), (0, i)]).collect();
        let skewed = vec![
            edges([0, 1], &star),
            edges([1, 2], &star),
            edges([2, 0], &star),
        ];
        assert_eq!(choose_engine(&skewed).engine_name(), "binary");
    }

    #[test]
    fn agm_bound_is_sqrt_of_size_product() {
        let r = edges([0, 1], &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let s = edges([1, 2], &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let t = edges([2, 0], &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        // √(4·4·4) = 8.
        assert_eq!(agm_sqrt_bound(&[r, s, t]), Some(8));
        assert_eq!(isqrt_u128(0), 0);
        assert_eq!(isqrt_u128(1), 1);
        assert_eq!(isqrt_u128(15), 3);
        assert_eq!(isqrt_u128(16), 4);
        assert_eq!(isqrt_u128(u128::MAX), (1 << 64) - 1);
    }

    #[test]
    fn attribute_order_prefers_shared_then_selective() {
        // Attr 1 is in all three relations; attrs 0 and 2 in one each.
        let r = rel(&[0, 1], &[&[0, 0], &[1, 1]]);
        let s = rel(&[1], &[&[0]]);
        let t = rel(&[1, 2], &[&[0, 5], &[1, 6], &[1, 7]]);
        let order = global_attribute_order(&[r, s, t]);
        assert_eq!(order[0], 1, "most-shared attribute binds first");
        assert_eq!(order.len(), 3);
    }
}
