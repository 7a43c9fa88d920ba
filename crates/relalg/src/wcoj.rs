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
//! * every relation is materialized as a [`TrieView`] — rows with
//!   columns permuted into a single global attribute order, sorted
//!   lexicographically, so each attribute level is a sorted run
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
//! The engine is metered like every other kernel: one `tick` per seek,
//! one `charge_tuples` per output row, a [`TraceEvent::WcojLevel`] per
//! attribute level with its binding cardinality, and one
//! [`TraceEvent::Operator`] (kind `multiway_join`) accounting for the
//! output — so trace/meter reconciliation holds across engines.

use crate::named::NamedRelation;
use crate::planner::{plan_join_order, JoinOrder};
use cspdb_core::budget::{ExhaustionReason, Meter};
use cspdb_core::trace::{OperatorKind, TraceEvent, Tracer};
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
        for (c, &a) in r.schema().iter().enumerate() {
            *occurrences.entry(a).or_insert(0) += 1;
            let mut vals: Vec<u32> = r.rows().iter().map(|row| row[c]).collect();
            vals.sort_unstable();
            vals.dedup();
            let d = vals.len() as u64;
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

/// One relation's sorted trie view: rows with columns permuted into
/// global-attribute-order positions and sorted lexicographically, so
/// the rows matching any bound prefix form one contiguous range and
/// each level within it is a sorted run.
struct TrieView {
    rows: Vec<Vec<u32>>,
    /// For each global level, the column (depth) this relation binds
    /// there, or `None` when the attribute is absent from its schema.
    depth_at_level: Vec<Option<usize>>,
}

impl TrieView {
    /// Builds the view (one metered tick per row materialized).
    fn build(
        rel: &NamedRelation,
        attr_order: &[u32],
        meter: &mut Meter,
    ) -> Result<TrieView, ExhaustionReason> {
        let level_of: HashMap<u32, usize> = attr_order
            .iter()
            .enumerate()
            .map(|(l, &a)| (a, l))
            .collect();
        // Columns sorted by their attribute's position in the global
        // order — the permutation applied to every row.
        let mut cols: Vec<(usize, usize)> = rel
            .schema()
            .iter()
            .enumerate()
            .map(|(c, a)| (level_of[a], c))
            .collect();
        cols.sort_unstable();
        let mut rows: Vec<Vec<u32>> = Vec::with_capacity(rel.len());
        for row in rel.rows() {
            meter.tick()?;
            rows.push(cols.iter().map(|&(_, c)| row[c]).collect());
        }
        rows.sort_unstable();
        let mut depth_at_level = vec![None; attr_order.len()];
        for (depth, &(level, _)) in cols.iter().enumerate() {
            depth_at_level[level] = Some(depth);
        }
        Ok(TrieView {
            rows,
            depth_at_level,
        })
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
/// schemas). The output schema is `attr_order`; only output tuples are
/// materialized, never an intermediate join.
///
/// # Errors
///
/// Propagates meter exhaustion: one step per trie row and per seek, one
/// tuple charge per output row.
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
    // Nullary relations with rows are join units; drop them.
    let inputs: Vec<&NamedRelation> = relations
        .iter()
        .filter(|r| !r.schema().is_empty())
        .collect();
    let mut views = Vec::with_capacity(inputs.len());
    for r in &inputs {
        views.push(TrieView::build(r, attr_order, meter)?);
    }
    // Relations participating at each level, fixed by the schemas.
    let participants: Vec<Vec<usize>> = (0..attr_order.len())
        .map(|l| {
            (0..views.len())
                .filter(|&v| views[v].depth_at_level[l].is_some())
                .collect()
        })
        .collect();
    let mut ranges: Vec<(usize, usize)> = views.iter().map(|v| (0, v.rows.len())).collect();
    let mut matches = vec![0u64; attr_order.len()];
    let mut prefix: Vec<u32> = Vec::with_capacity(attr_order.len());
    let mut out: Vec<Vec<u32>> = Vec::new();
    leapfrog(
        &views,
        &participants,
        0,
        &mut ranges,
        &mut prefix,
        &mut matches,
        &mut out,
        meter,
    )?;
    let output_rows = out.len() as u64;
    let input_rows: u64 = inputs.iter().map(|r| r.len() as u64).sum();
    for (l, &attr) in attr_order.iter().enumerate() {
        meter.tracer().emit_with(|| TraceEvent::WcojLevel {
            level: l as u32,
            attr,
            relations: participants[l].len() as u32,
            matches: matches[l],
        });
    }
    // One Operator event for the whole multiway join, so trace/meter
    // tuple reconciliation holds for either engine. "Left" carries the
    // total input rows, "right" the relation count.
    meter.tracer().emit_with(|| TraceEvent::Operator {
        op: OperatorKind::MultiwayJoin,
        left_rows: input_rows,
        right_rows: inputs.len() as u64,
        output_rows,
        micros: Tracer::span_micros(span),
    });
    Ok(NamedRelation::new(attr_order.to_vec(), out))
}

/// The recursive leapfrog intersection: at `level`, the participating
/// views' current ranges are intersected on their level column; every
/// surviving value is bound and recursed one level deeper. `ranges` is
/// restored before returning, so the caller's state survives.
#[allow(clippy::too_many_arguments)]
fn leapfrog(
    views: &[TrieView],
    participants: &[Vec<usize>],
    level: usize,
    ranges: &mut [(usize, usize)],
    prefix: &mut Vec<u32>,
    matches: &mut [u64],
    out: &mut Vec<Vec<u32>>,
    meter: &mut Meter,
) -> Result<(), ExhaustionReason> {
    if level == participants.len() {
        meter.charge_tuples(1)?;
        out.push(prefix.clone());
        return Ok(());
    }
    let parts = &participants[level];
    let saved: Vec<(usize, usize)> = parts.iter().map(|&p| ranges[p]).collect();
    // The leapfrog front: the largest of the participants' first
    // values; every participant is seeked up to it, and a round where
    // nobody moves past it is a match.
    let mut x = parts
        .iter()
        .map(|&p| {
            let depth = views[p].depth_at_level[level].expect("participant binds level");
            views[p].rows[ranges[p].0][depth]
        })
        .max()
        .expect("an attribute occurs in at least one relation");
    let result = 'outer: loop {
        let mut aligned = true;
        for &p in parts {
            if let Err(reason) = meter.tick() {
                break 'outer Err(reason);
            }
            let depth = views[p].depth_at_level[level].expect("participant binds level");
            let (lo, hi) = ranges[p];
            // Seek: first row in range with row[depth] >= x. The rows
            // share the bound prefix, so the level column is sorted.
            let seek = lo + views[p].rows[lo..hi].partition_point(|row| row[depth] < x);
            if seek == hi {
                break 'outer Ok(()); // some participant exhausted: done
            }
            ranges[p].0 = seek;
            let v = views[p].rows[seek][depth];
            if v > x {
                x = v;
                aligned = false;
                break; // restart the round at the new front
            }
        }
        if !aligned {
            continue;
        }
        // Every participant agrees on x: narrow each to its x-block,
        // bind, and descend.
        matches[level] += 1;
        let mut blocks = Vec::with_capacity(parts.len());
        for &p in parts {
            let depth = views[p].depth_at_level[level].expect("participant binds level");
            let (lo, hi) = ranges[p];
            let end = lo + views[p].rows[lo..hi].partition_point(|row| row[depth] == x);
            blocks.push(end);
            ranges[p] = (lo, end);
        }
        prefix.push(x);
        let deeper = leapfrog(
            views,
            participants,
            level + 1,
            ranges,
            prefix,
            matches,
            out,
            meter,
        );
        prefix.pop();
        for (i, &p) in parts.iter().enumerate() {
            ranges[p] = (blocks[i], saved[i].1);
        }
        if let Err(reason) = deeper {
            break 'outer Err(reason);
        }
        match x.checked_add(1) {
            Some(next) => x = next,
            None => break 'outer Ok(()),
        }
    };
    for (i, &p) in parts.iter().enumerate() {
        ranges[p] = saved[i];
    }
    result
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
        rel.project(&attrs).rows().iter().cloned().collect()
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
