//! Test oracles for Algorithm 4: the direct implementations of
//! `pick_stc_dtc_subset`, `realize_pairs` and `evaluate_modification` that
//! the production versions replaced. They recount every extension's
//! partition, dedupe extensions through a set of sorted index vectors,
//! re-sort each source class's rows on every realization and evaluate
//! every query's removed/added rows separately. Tests pin the production
//! versions byte-identical to them.
//!
//! The file names this crate `qfe_core`, so it compiles both as a unit-test
//! module of `qfe-core` and, included by path, in the workspace property
//! tests.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use qfe_core::{
    objective, CellEdit, ClassPair, CostInputs, CostParams, GenerationContext, GroupEffect,
    ModificationEvaluation, PickOutcome, QfeError, RealizedModification, Result,
    MAX_COST_EVALUATIONS, MAX_SETS_PER_LEVEL,
};
use qfe_relation::{min_edit_rows, Tuple};

struct EvaluatedSet {
    indices: Vec<usize>,
    pairs: Vec<ClassPair>,
    realized: RealizedModification,
    evaluation: ModificationEvaluation,
    cost: f64,
    abstract_balance: f64,
}

/// Algorithm 4 as first written. `extension_checks` counts every extension
/// whose balance it computed.
pub fn pick_stc_dtc_subset(
    ctx: &GenerationContext,
    skyline: &[ClassPair],
    params: &CostParams,
    best_binary_x: Option<usize>,
) -> Result<PickOutcome> {
    pick_traced(ctx, skyline, params, best_binary_x, &mut Vec::new())
}

/// [`pick_stc_dtc_subset`] that also records the number of sets each
/// extension level kept, so tests can tell which caps a context reaches.
pub fn pick_traced(
    ctx: &GenerationContext,
    skyline: &[ClassPair],
    params: &CostParams,
    best_binary_x: Option<usize>,
    level_sizes: &mut Vec<usize>,
) -> Result<PickOutcome> {
    let start = Instant::now();
    if skyline.is_empty() {
        return Err(QfeError::NoDistinguishingDatabase {
            remaining: ctx.queries().iter().map(|q| q.display_name()).collect(),
        });
    }

    let cost_evaluations = std::cell::Cell::new(0usize);
    let mut extension_checks = 0usize;

    let evaluate_set = |indices: &[usize]| -> Option<EvaluatedSet> {
        if cost_evaluations.get() >= MAX_COST_EVALUATIONS {
            return None;
        }
        cost_evaluations.set(cost_evaluations.get() + 1);
        let pairs: Vec<ClassPair> = indices.iter().map(|&i| skyline[i].clone()).collect();
        let realized = realize_pairs(ctx, &pairs)?;
        let evaluation = evaluate_modification(ctx, &realized.edits);
        if evaluation.group_count() <= 1 {
            return None;
        }
        let inputs = CostInputs {
            db_edit_cost: realized.db_edit_cost,
            modified_relations: realized.modified_relations,
            modified_tuples: realized.modified_tuples,
            result_edit_costs: evaluation.result_edit_costs(),
            partition_sizes: evaluation.partition_sizes(),
            best_binary_x,
        };
        let cost = objective(params, &inputs);
        let abstract_balance = ctx.balance_of(skyline, indices);
        Some(EvaluatedSet {
            indices: indices.to_vec(),
            pairs,
            realized,
            evaluation,
            cost,
            abstract_balance,
        })
    };

    let mut best: Vec<EvaluatedSet> = Vec::new();
    let mut min_cost = f64::INFINITY;
    let mut current_level: Vec<(Vec<usize>, f64)> = Vec::new();
    for i in 0..skyline.len() {
        let abstract_balance = ctx.balance_of(skyline, &[i]);
        current_level.push((vec![i], abstract_balance));
        if let Some(eval) = evaluate_set(&[i]) {
            if eval.cost < min_cost {
                min_cost = eval.cost;
                best = vec![eval];
            } else if eval.cost == min_cost {
                best.push(eval);
            }
        }
    }

    loop {
        let mut next_level: Vec<(Vec<usize>, f64)> = Vec::new();
        let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
        for (indices, balance) in &current_level {
            for p in 0..skyline.len() {
                if indices.contains(&p) {
                    continue;
                }
                let mut extended = indices.clone();
                extended.push(p);
                extended.sort_unstable();
                if !seen.insert(extended.clone()) {
                    continue;
                }
                extension_checks += 1;
                let extended_balance = ctx.balance_of(skyline, &extended);
                if extended_balance < *balance {
                    if let Some(eval) = evaluate_set(&extended) {
                        if eval.cost < min_cost {
                            min_cost = eval.cost;
                            best = vec![eval];
                        } else if eval.cost == min_cost {
                            best.push(eval);
                        }
                    }
                    next_level.push((extended, extended_balance));
                    if next_level.len() >= MAX_SETS_PER_LEVEL {
                        break;
                    }
                }
            }
            if next_level.len() >= MAX_SETS_PER_LEVEL {
                break;
            }
        }
        level_sizes.push(next_level.len());
        if next_level.is_empty() || cost_evaluations.get() >= MAX_COST_EVALUATIONS {
            break;
        }
        current_level = next_level;
    }

    let chosen = best
        .into_iter()
        .min_by(|a, b| {
            a.abstract_balance
                .partial_cmp(&b.abstract_balance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.indices.len().cmp(&b.indices.len()))
                .then_with(|| a.indices.cmp(&b.indices))
        })
        .ok_or_else(|| QfeError::NoDistinguishingDatabase {
            remaining: ctx.queries().iter().map(|q| q.display_name()).collect(),
        })?;

    Ok(PickOutcome {
        chosen: chosen.pairs,
        realized: chosen.realized,
        evaluation: chosen.evaluation,
        cost: chosen.cost,
        cost_evaluations: cost_evaluations.get(),
        extension_checks,
        elapsed: start.elapsed(),
    })
}

/// `realize_pairs` as first written: each call re-sorts every source
/// class's rows by fan-out.
pub fn realize_pairs(ctx: &GenerationContext, pairs: &[ClassPair]) -> Option<RealizedModification> {
    let mut used_join_rows: BTreeSet<usize> = BTreeSet::new();
    let mut edited_cells: BTreeSet<(String, usize, String)> = BTreeSet::new();
    let mut edits: Vec<CellEdit> = Vec::new();

    for pair in pairs {
        for &pos in &pair.changed_attributes {
            if !ctx.block_realizable(pos, pair.destination[pos]) {
                return None;
            }
        }
        let members = ctx.source_classes().get(&pair.source)?;
        let mut candidates: Vec<(usize, usize)> = members
            .iter()
            .filter(|r| !used_join_rows.contains(r))
            .map(|&jrow| {
                let fan_out: usize = pair
                    .changed_attributes
                    .iter()
                    .map(|&pos| {
                        let attr = &ctx.class_space().attributes()[pos];
                        let base_row = ctx.join().rows()[jrow]
                            .provenance
                            .get(&attr.table)
                            .copied()
                            .unwrap_or(usize::MAX);
                        ctx.join_index().fan_out(&attr.table, base_row)
                    })
                    .sum();
                (fan_out, jrow)
            })
            .collect();
        candidates.sort_unstable();

        let mut realized_this_pair = false;
        'candidate: for (_, jrow) in candidates {
            let mut pair_edits: Vec<CellEdit> = Vec::new();
            for &pos in &pair.changed_attributes {
                let attr = &ctx.class_space().attributes()[pos];
                let base_row = match ctx.join().rows()[jrow].provenance.get(&attr.table) {
                    Some(&r) => r,
                    None => continue 'candidate,
                };
                let key = (attr.table.clone(), base_row, attr.base_column.clone());
                if edited_cells.contains(&key) {
                    continue 'candidate;
                }
                let new_value = attr.blocks[pair.destination[pos]].representative().clone();
                pair_edits.push(CellEdit {
                    table: attr.table.clone(),
                    row: base_row,
                    column: attr.base_column.clone(),
                    new_value,
                });
            }
            for e in &pair_edits {
                edited_cells.insert((e.table.clone(), e.row, e.column.clone()));
            }
            used_join_rows.insert(jrow);
            edits.extend(pair_edits);
            realized_this_pair = true;
            break;
        }
        if !realized_this_pair {
            return None;
        }
    }

    let modified_relations = edits
        .iter()
        .map(|e| e.table.as_str())
        .collect::<BTreeSet<_>>()
        .len();
    let modified_tuples = edits
        .iter()
        .map(|e| (e.table.as_str(), e.row))
        .collect::<BTreeSet<_>>()
        .len();
    Some(RealizedModification {
        db_edit_cost: edits.len(),
        modified_relations,
        modified_tuples,
        edits,
    })
}

/// `evaluate_modification` as first written: every query projects, sorts
/// and keys its own removed/added rows.
pub fn evaluate_modification(
    ctx: &GenerationContext,
    edits: &[CellEdit],
) -> ModificationEvaluation {
    let patched = ctx.patched_join_rows(edits);
    let arity = ctx.bound_queries()[0].projection_indices().len();

    let mut groups: BTreeMap<(Vec<Tuple>, Vec<Tuple>), Vec<usize>> = BTreeMap::new();
    for (qidx, bound) in ctx.bound_queries().iter().enumerate() {
        let mut removed: Vec<Tuple> = Vec::new();
        let mut added: Vec<Tuple> = Vec::new();
        for (_, old, new) in &patched {
            let old_match = bound.matches_row(old);
            let new_match = bound.matches_row(new);
            let old_proj = old.project(bound.projection_indices());
            let new_proj = new.project(bound.projection_indices());
            match (old_match, new_match) {
                (true, false) => removed.push(old_proj),
                (false, true) => added.push(new_proj),
                (true, true) => {
                    if old_proj != new_proj {
                        removed.push(old_proj);
                        added.push(new_proj);
                    }
                }
                (false, false) => {}
            }
        }
        removed.sort();
        added.sort();
        groups.entry((removed, added)).or_default().push(qidx);
    }

    let groups = groups
        .into_iter()
        .map(|((removed, added), query_indices)| {
            let result_edit_cost = min_edit_rows(&removed, &added, arity);
            GroupEffect {
                query_indices,
                removed,
                added,
                result_edit_cost,
            }
        })
        .collect();
    ModificationEvaluation { groups }
}
