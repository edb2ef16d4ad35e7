//! The executor: runs physical plans under a forget-visibility mode, with
//! optional zone map, index, summary and micro-model support, reporting
//! per-query execution statistics.

use amnesia_columnar::{
    Estimate, SortedIndex, SummaryStore, Table, ValueRange, WordZoneMap, ZoneMap,
};
use amnesia_columnar::{ModelStore, RowId, Value};
use amnesia_util::WORD_BITS;
use amnesia_workload::query::{AggKind, RangePredicate};
use serde::{Deserialize, Serialize};

use crate::batch::AggState;
use crate::cost::CostModel;
use crate::group::GroupTable;
use crate::kernels;
use crate::mode::ForgetVisibility;
use crate::morsel::{self, ExecMode, SchedStats};
use crate::physical::{
    finalize_scalar, scan_tag, ColPred, PhysItem, PhysicalPlan, PlanHint, Scalar, SortDir,
};

/// Auxiliary structures available to one scan slot of a plan.
#[derive(Default, Clone, Copy)]
pub struct Aux<'a> {
    /// Zone map over the queried column, if maintained.
    pub zonemap: Option<&'a ZoneMap>,
    /// Word-granularity zone map over the queried column: min/max per
    /// 64-row activity word, consulted inside the batch kernels so scans
    /// skip words the predicate cannot hit.
    pub word_zones: Option<&'a WordZoneMap>,
    /// Sorted index over the queried column, if built.
    pub index: Option<&'a SortedIndex>,
    /// Summaries of forgotten data (enables whole-table aggregates that
    /// account for what rotted away).
    pub summaries: Option<&'a SummaryStore>,
    /// Micro-models of forgotten data (paper §5 \[15\]): unlike summaries
    /// they also *interpolate* range-restricted aggregates.
    pub models: Option<&'a ModelStore>,
}

/// Result rows or an aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Matching row ids (insertion order for scans, value order for index
    /// probes).
    Rows(Vec<RowId>),
    /// Aggregate value; `None` encodes SQL NULL (empty selection).
    Agg(Option<f64>),
}

impl QueryOutput {
    /// Row count for row outputs, 0 for aggregates.
    pub fn cardinality(&self) -> usize {
        match self {
            QueryOutput::Rows(rows) => rows.len(),
            QueryOutput::Agg(_) => 0,
        }
    }

    /// The rows, if this is a row output.
    pub fn rows(&self) -> Option<&[RowId]> {
        match self {
            QueryOutput::Rows(r) => Some(r),
            QueryOutput::Agg(_) => None,
        }
    }

    /// The aggregate value, if this is an aggregate output.
    pub fn agg(&self) -> Option<Option<f64>> {
        match self {
            QueryOutput::Agg(v) => Some(*v),
            QueryOutput::Rows(_) => None,
        }
    }
}

/// Per-query execution statistics — the one accounting struct every
/// execution surface reports (it absorbed the SQL crate's old
/// `QueryStats`, so SQL, the workload driver and the benches all speak
/// the same numbers).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Rows examined.
    pub rows_scanned: usize,
    /// Blocks skipped thanks to zone-map / block-meta / join-key-range
    /// pruning.
    pub blocks_pruned: usize,
    /// 64-row words skipped thanks to the word-granularity zone map.
    pub words_pruned: usize,
    /// Result cardinality: the plan's output rows — selected row ids
    /// for the row-id output shape, the group count for grouped
    /// aggregation, 1 for a global aggregate.
    pub result_rows: usize,
    /// Join pairs produced (0 without a join).
    pub join_pairs: usize,
    /// Groups produced (0 without aggregation; 1 for a global
    /// aggregate's implicit group).
    pub groups: usize,
    /// Abstract cost charged by the cost model.
    pub cost: f64,
    /// Which access path slot 0's scan took (or which join ran).
    pub plan: PlanTag,
    /// Morsels the scheduler executed across all plan stages (0 when
    /// every stage ran serially).
    pub morsels: usize,
    /// Morsels a worker claimed from another worker's range.
    pub morsel_steals: usize,
    /// Nanoseconds spent merging per-worker partial state at pipeline
    /// breakers.
    pub merge_ns: u64,
    /// Per-predicate execution breakdown for cost-ordered conjunctive
    /// scans: one entry per pushed-down predicate across all scan slots,
    /// in the order the executor actually evaluated them. Empty when the
    /// plan ran under [`crate::physical::PlanHint::SyntacticOrder`] or
    /// carried no multi-predicate conjunction.
    pub pred_stats: Vec<PredStat>,
    /// Estimated vs. actual output cardinality per plan stage (one entry
    /// per scan slot, plus one for the join when present), in stage
    /// order. Empty under the syntactic escape hatch.
    pub stage_estimates: Vec<StageEstimate>,
    /// Which scan slot the hash join built its table from (`Some(1)`
    /// means the cost model swapped the syntactic build side). `None`
    /// without a join or under the syntactic hint.
    pub build_side: Option<usize>,
}

impl ExecStats {
    /// Record the scheduler's accounting for the whole plan.
    fn note_sched(&mut self, sched: &SchedStats) {
        self.morsels = sched.morsels;
        self.morsel_steals = sched.steals;
        self.merge_ns = sched.merge_ns;
    }
}

/// Execution accounting for one pushed-down predicate of a cost-ordered
/// conjunctive scan (see [`crate::stats::order_predicates`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PredStat {
    /// Scan slot the predicate belongs to.
    pub slot: usize,
    /// Human-readable predicate, as the plan would display it.
    pub display: String,
    /// Position in the plan's syntactic (as-written) conjunction.
    pub syntactic_pos: usize,
    /// Position the cost model ran it at (0 = evaluated first).
    pub exec_rank: usize,
    /// Estimated surviving rows for this predicate alone.
    pub est_rows: f64,
    /// Frozen blocks this predicate's block meta pruned outright
    /// (attributed to the first predicate in execution order whose meta
    /// check failed).
    pub blocks_pruned: usize,
    /// Frozen blocks where this predicate ran as a sparse residual
    /// refinement over the prior predicates' survivors instead of a
    /// dense block kernel.
    pub blocks_refined: usize,
}

/// Estimated vs. actual cardinality for one executed plan stage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageEstimate {
    /// Stage label: the scan's table label, or `"join"`.
    pub label: String,
    /// Rows the statistics layer predicted the stage would output.
    pub est_rows: f64,
    /// Rows the stage actually output.
    pub actual_rows: usize,
}

/// Compact plan identifier for stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PlanTag {
    /// Full table scan.
    #[default]
    FullScan,
    /// Zone-map pruned scan.
    PrunedScan,
    /// Sorted-index probe.
    IndexProbe,
    /// Tier-aware scan: frozen blocks run the fused compressed kernels
    /// behind their cached block meta, the hot tail runs the flat
    /// kernel. Chosen automatically once a table holds frozen blocks.
    TieredScan,
    /// Tier-aware hash join: the build side streams frozen blocks' keys
    /// in compressed space, the probe side prunes frozen blocks against
    /// the build key range and probes survivors in their codec's domain
    /// (see [`crate::join`]). Chosen automatically once either side holds
    /// frozen blocks.
    TieredJoin,
    /// Sort-merge join over frozen-sorted key columns: both sides'
    /// cached block metadata proves the key columns nondecreasing, so
    /// the selected keys gather in order and merge without building a
    /// hash table. Chosen by the cost-based planner when both sides
    /// carry the sorted hint (and verified against the gathered keys,
    /// falling back to the hash join otherwise).
    MergeJoin,
}

/// A query result with its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Rows or aggregate.
    pub output: QueryOutput,
    /// Statistics.
    pub stats: ExecStats,
}

/// Query executor: runs [`PhysicalPlan`]s under a forget-visibility
/// regime, serially or morsel-parallel.
#[derive(Debug, Clone)]
pub struct Executor {
    mode: ForgetVisibility,
    cost: CostModel,
    exec_mode: ExecMode,
    morsel_rows: usize,
}

impl Default for Executor {
    /// Serial unless `AMNESIA_TEST_THREADS` selects a parallel pool
    /// (morsel size likewise overridable via `AMNESIA_MORSEL_ROWS`) — so
    /// CI's thread matrix drives every default-constructed executor
    /// through the morsel scheduler without touching call sites.
    fn default() -> Self {
        Self {
            mode: ForgetVisibility::default(),
            cost: CostModel::default(),
            exec_mode: ExecMode::from_env(),
            morsel_rows: morsel::morsel_rows_from_env(),
        }
    }
}

impl Executor {
    /// Executor with explicit mode and cost model (execution mode still
    /// comes from the environment, as in [`Executor::default`]).
    pub fn new(mode: ForgetVisibility, cost: CostModel) -> Self {
        Self {
            mode,
            cost,
            ..Self::default()
        }
    }

    /// The forget-visibility mode.
    pub fn mode(&self) -> ForgetVisibility {
        self.mode
    }

    /// Select how [`Self::execute_plan`] runs: serial, or morsel-driven
    /// across a fixed worker pool.
    pub fn with_exec_mode(mut self, exec_mode: ExecMode) -> Self {
        self.exec_mode = exec_mode;
        self
    }

    /// Override the target rows per morsel (floored at one 64-row
    /// activity word) — tests shrink it to force multi-morsel schedules
    /// on small tables.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(WORD_BITS);
        self
    }

    /// The configured execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Execute a [`PhysicalPlan`] — scans with pushed-down predicate
    /// conjunctions, optional tiered hash join, fused or grouped
    /// aggregation, projection gather, sort + limit — returning the
    /// output and one unified [`ExecStats`]. This is the executor's one
    /// query entry point: SQL's `BoundQuery::lower()` and the workload
    /// queries' [`PhysicalPlan::from_query`] both land here.
    ///
    /// **Visibility.** Under [`ForgetVisibility::ActiveOnly`] every stage
    /// sees exactly the active data, per the paper's §1 contract that
    /// forgotten tuples "will never show up in query results". Under
    /// [`ForgetVisibility::ScanSeesForgotten`] a one-scan plan without
    /// aggregates takes the *complete scan* ("a complete scan will fetch
    /// all data"): forgotten rows are selected too, and no zone map,
    /// index or block meta — all of which track active data only — may
    /// prune. Joins and aggregates read the active set under either
    /// regime.
    ///
    /// **Access paths.** A scan slot with one predicate that is a
    /// half-open range picks its access path by the [`CostModel`]: a
    /// full (or tiered) scan, a zone-map pruned scan, or a sorted-index
    /// probe (index probes return rows in value order), from the slot's
    /// [`Aux`] structures; a full scan of a hot table with word zones
    /// skips words whose min/max miss the range. The choice happens
    /// before the serial/parallel split, so both modes report the same
    /// [`ExecStats::plan`] and [`ExecStats::cost`]; only the unassisted
    /// full scan fans out over morsels. Every other scan evaluates fused
    /// 64-bit selection masks — under [`PlanHint::CostBased`], two or
    /// more predicates run in estimated `selectivity × eval_cost` order.
    ///
    /// **Row-id output.** A one-scan plan with no items returns its
    /// selection in [`PhysResult::row_ids`] (ascending, or the index's
    /// value order), straight from the row-emitting scan kernels; its
    /// [`PhysResult::rows`] is empty.
    ///
    /// **Fused aggregate.** A one-scan global aggregate with at most one
    /// range predicate, whose aggregates all read the predicate's column
    /// (or are `COUNT(*)`), folds filter and aggregate in one pass
    /// (serially; a parallel pool folds its morsel selection instead).
    /// Slot 0's [`Aux::summaries`] fold into an unpredicated aggregate
    /// and [`Aux::models`] pro-rate forgotten mass into the answer,
    /// which then finalizes as [`Scalar::Float`].
    ///
    /// Under [`ExecMode::Parallel`] every other stage dispatches through
    /// the [`morsel`] scheduler — tier-aligned morsels, a work-stealing
    /// worker pool, deterministic merges — and returns output
    /// byte-identical to the serial path. Scheduler accounting lands in
    /// [`ExecStats::morsels`], [`ExecStats::morsel_steals`] and
    /// [`ExecStats::merge_ns`].
    pub fn execute_plan(
        &self,
        tables: &[&Table],
        auxes: &[Aux<'_>],
        plan: &PhysicalPlan,
    ) -> PhysResult {
        assert_eq!(
            tables.len(),
            plan.scans.len(),
            "one table per plan scan slot"
        );
        let default_aux = Aux::default();
        let threads = self.exec_mode.threads();
        if let Some((col, pred)) = fused_aggregate_shape(plan) {
            let aux = auxes.first().unwrap_or(&default_aux);
            return self.fused_aggregate(tables[0], aux, plan, col, pred, threads);
        }
        let mut stats = ExecStats::default();
        let mut sched = SchedStats::default();
        let cost_based = plan.hint == PlanHint::CostBased;
        let model = &self.cost;
        let row_ids = plan.scans.len() == 1 && plan.join.is_none() && plan.items.is_empty();
        let complete = self.mode == ForgetVisibility::ScanSeesForgotten
            && plan.join.is_none()
            && !plan.has_aggregates();

        // 1. Scans: per-slot selections under the pushed-down
        //    conjunction. Under the cost hint, multi-predicate
        //    conjunctions run in estimated `selectivity × eval_cost`
        //    order with sparse residual refinement (AND commutes, so the
        //    selection is byte-identical to the syntactic order).
        let mut sels: Vec<Vec<u64>> = Vec::new();
        let mut scan_estimates: Vec<f64> = Vec::new();
        for (slot, scan) in plan.scans.iter().enumerate() {
            let table = tables[slot];
            let (sel, s, est) = if complete {
                let (sel, s) = self.complete_scan(table, &scan.preds);
                (sel, s, None)
            } else if cost_based && scan.preds.len() >= 2 {
                let po = crate::stats::order_predicates(table, &scan.preds, model);
                let (sel, s) =
                    self.ordered_scan(table, slot, &scan.preds, &po, threads, &mut sched);
                (sel, s, Some(po.est_out_rows))
            } else {
                let est =
                    cost_based.then(|| crate::stats::estimate_scan_rows(table, &scan.preds, model));
                let aux = auxes.get(slot).unwrap_or(&default_aux);
                let (sel, s) = self.scan(table, &scan.preds, aux, row_ids, threads, &mut sched);
                (sel, s, est)
            };
            stats.rows_scanned += s.rows_scanned;
            stats.blocks_pruned += s.blocks_pruned;
            stats.words_pruned += s.words_pruned;
            stats.cost += s.cost;
            stats.pred_stats.extend(s.pred_stats);
            if slot == 0 {
                stats.plan = s.plan;
            }
            if let Some(e) = est {
                scan_estimates.push(e);
                stats.stage_estimates.push(StageEstimate {
                    label: scan.label.clone(),
                    est_rows: e,
                    actual_rows: sel.len(),
                });
            }
            if row_ids {
                let row_ids = sel.into_rows();
                stats.result_rows = row_ids.len();
                stats.note_sched(&sched);
                return PhysResult {
                    rows: Vec::new(),
                    row_ids,
                    stats,
                };
            }
            sels.push(sel.into_words(table.num_rows().div_ceil(WORD_BITS)));
        }

        // 2. Join. The physical choice is cost-driven and
        //    mode-independent (the same strategy runs serial and
        //    parallel, so rows *and* accounting agree across modes):
        //    a merge join when both key columns are provably
        //    frozen-sorted, otherwise a hash join building on the side
        //    with the smaller estimated post-filter cardinality.
        let pairs: Option<Vec<(RowId, RowId)>> = plan.join.as_ref().map(|join| {
            let est_l = scan_estimates.first().copied().unwrap_or(0.0);
            let est_r = scan_estimates.get(1).copied().unwrap_or(0.0);
            if cost_based
                && tables[0].col_tier(join.left_col).sorted_hint()
                && tables[1].col_tier(join.right_col).sorted_hint()
            {
                if let Some(p) = merge_join_sorted(
                    tables[0],
                    join.left_col,
                    &sels[0],
                    tables[1],
                    join.right_col,
                    &sels[1],
                ) {
                    stats.join_pairs = p.len();
                    stats.plan = PlanTag::MergeJoin;
                    stats.stage_estimates.push(StageEstimate {
                        label: "join".into(),
                        est_rows: est_l.max(est_r),
                        actual_rows: p.len(),
                    });
                    return p;
                }
            }
            // Hash join: under the cost hint, build on the smaller
            // estimated side (syntactically the build side is slot 0).
            let swap = cost_based && est_r < est_l;
            let (bslot, pslot, bcol, pcol) = if swap {
                (1usize, 0usize, join.right_col, join.left_col)
            } else {
                (0usize, 1usize, join.left_col, join.right_col)
            };
            let (mut p, probe) = if threads > 1 {
                let ((build, key_range), s) = morsel::par_build_rows_map(
                    tables[bslot],
                    bcol,
                    &sels[bslot],
                    threads,
                    self.morsel_rows,
                );
                sched.absorb(&s);
                let (p, probe, s) = morsel::par_probe(
                    tables[pslot],
                    pcol,
                    &sels[pslot],
                    &build,
                    key_range,
                    threads,
                    self.morsel_rows,
                );
                sched.absorb(&s);
                (p, probe)
            } else {
                let (build, key_range) =
                    crate::join::build_rows_map_with(tables[bslot], bcol, &sels[bslot]);
                let mut p = Vec::new();
                let probe = crate::batch::probe_tiered(
                    tables[pslot].col_tier(pcol),
                    &sels[pslot],
                    &build,
                    key_range,
                    &mut p,
                );
                (p, probe)
            };
            if swap {
                // The kernel emitted (build=right, probe=left) pairs in
                // probe-major order; restore the canonical
                // (left, right) pairs sorted by (right, left).
                for pr in p.iter_mut() {
                    *pr = (pr.1, pr.0);
                }
                p.sort_unstable_by_key(|&(l, r)| (r.as_usize(), l.as_usize()));
            }
            stats.blocks_pruned += probe.blocks_pruned;
            // Probe rows the key-range meta pruned were never streamed,
            // so they subtract from `rows_scanned`. Only exact when the probe scan pushed no
            // predicates down (then its selection is the activity map,
            // which is what `probe_rows_skipped` counts); a filtered
            // probe side keeps the scan-phase count.
            if plan.scans[pslot].preds.is_empty() {
                stats.rows_scanned = stats.rows_scanned.saturating_sub(probe.probe_rows_skipped);
            }
            stats.join_pairs = p.len();
            if tables.iter().any(|t| t.has_frozen()) {
                stats.plan = PlanTag::TieredJoin;
            }
            if cost_based {
                stats.build_side = Some(bslot);
                stats.stage_estimates.push(StageEstimate {
                    label: "join".into(),
                    est_rows: est_l.max(est_r),
                    actual_rows: p.len(),
                });
            }
            p
        });

        // 3. Projection or (grouped) aggregation.
        let mut rows: Vec<Vec<Scalar>> = match (&pairs, plan.has_aggregates()) {
            (None, false) => {
                self.project_selection(tables[0], &sels[0], &plan.items, threads, &mut sched)
            }
            (None, true) => self.aggregate_selection_rows(
                tables[0], &sels[0], plan, threads, &mut stats, &mut sched,
            ),
            (Some(pairs), false) => project_pairs(
                tables,
                pairs,
                &plan.items,
                threads,
                self.morsel_rows,
                &mut sched,
            ),
            (Some(pairs), true) => aggregate_pairs(
                tables,
                pairs,
                plan,
                threads,
                self.morsel_rows,
                &mut stats,
                &mut sched,
            ),
        };

        // 4. Sort + limit over the materialized scalars (type-aware
        //    total order: i64 keys never collapse through f64). The
        //    parallel path chunk-sorts and k-way merges with leftmost
        //    tie preference — exactly the serial stable sort's order.
        if let Some((idx, dir)) = plan.order_by {
            let cmp = |a: &Vec<Scalar>, b: &Vec<Scalar>| {
                let ord = a[idx].total_cmp(&b[idx]);
                match dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                }
            };
            if threads > 1 && rows.len() > self.morsel_rows {
                sched.merge_ns += morsel::par_sort_by(&mut rows, threads, cmp);
            } else {
                rows.sort_by(cmp);
            }
        }
        if let Some(limit) = plan.limit {
            rows.truncate(limit as usize);
        }
        stats.result_rows = rows.len();
        stats.note_sched(&sched);
        PhysResult {
            rows,
            row_ids: Vec::new(),
            stats,
        }
    }

    /// Projection gather over a single-table selection: each output
    /// column streams through the tier-aware gather (compressed blocks
    /// are never decoded), then rows zip positionally. With a parallel
    /// pool each column's gather fans out over morsels and concatenates
    /// in ascending row order.
    fn project_selection(
        &self,
        table: &Table,
        sel: &[u64],
        items: &[PhysItem],
        threads: usize,
        sched: &mut SchedStats,
    ) -> Vec<Vec<Scalar>> {
        let n_out = kernels::selection_count(sel);
        let mut bufs: Vec<Vec<Value>> = Vec::with_capacity(items.len());
        for item in items {
            let PhysItem::Column { col, .. } = item else {
                unreachable!("projection plans carry only column items");
            };
            if threads > 1 {
                let (buf, s) =
                    morsel::par_gather_column(table, sel, *col, threads, self.morsel_rows);
                sched.absorb(&s);
                bufs.push(buf);
            } else {
                let mut buf = Vec::with_capacity(n_out);
                kernels::gather_column(table, sel, *col, &mut buf);
                bufs.push(buf);
            }
        }
        (0..n_out)
            .map(|i| bufs.iter().map(|b| Scalar::Int(b[i])).collect())
            .collect()
    }

    /// Global or grouped aggregation over a single-table selection.
    fn aggregate_selection_rows(
        &self,
        table: &Table,
        sel: &[u64],
        plan: &PhysicalPlan,
        threads: usize,
        stats: &mut ExecStats,
        sched: &mut SchedStats,
    ) -> Vec<Vec<Scalar>> {
        if let Some((_, gcol, _)) = &plan.group_by {
            // The vectorized hash group-by: folds over compressed blocks,
            // morsel-parallel with a deterministic first-seen-order merge
            // under a worker pool.
            let agg_cols: Vec<Option<usize>> = agg_specs(&plan.items)
                .iter()
                .map(|(_, arg)| arg.map(|(_, c)| c))
                .collect();
            let groups = if threads > 1 {
                let (groups, s) = morsel::par_grouped_fold(
                    table,
                    sel,
                    *gcol,
                    &agg_cols,
                    threads,
                    self.morsel_rows,
                );
                sched.absorb(&s);
                groups
            } else {
                crate::group::grouped_fold(table, sel, *gcol, &agg_cols)
            };
            stats.groups = groups.len();
            return finalize_groups(&groups, &plan.items);
        }
        // Global aggregates: one fused fold per distinct input column,
        // COUNT(*) is a popcount of the selection.
        stats.groups = 1;
        let mut cache: Vec<(usize, AggState)> = Vec::new();
        let row = plan
            .items
            .iter()
            .map(|item| match item {
                PhysItem::Aggregate {
                    kind,
                    arg: Some((_, c)),
                    ..
                } => {
                    let state = match cache.iter().find(|(col, _)| col == c) {
                        Some((_, s)) => *s,
                        None => {
                            let s = if threads > 1 {
                                let (s, sc) = morsel::par_aggregate_selection(
                                    table,
                                    sel,
                                    *c,
                                    threads,
                                    self.morsel_rows,
                                );
                                sched.absorb(&sc);
                                s
                            } else {
                                kernels::aggregate_selection(table, sel, *c)
                            };
                            cache.push((*c, s));
                            s
                        }
                    };
                    finalize_scalar(&state, *kind)
                }
                PhysItem::Aggregate { arg: None, .. } => {
                    Scalar::Int(kernels::selection_count(sel) as i64)
                }
                PhysItem::Column { .. } => {
                    unreachable!("plain columns require GROUP BY")
                }
            })
            .collect();
        vec![row]
    }

    /// One scan slot under the amnesiac regime. A single half-open range
    /// runs on the access path [`Self::access_path`] prices cheapest,
    /// charged that path's estimated cost whichever kernel then runs it
    /// (an empty range selects and scans nothing). Anything else
    /// evaluates fused selection masks over the tiers. Only the
    /// unassisted scans fan out over morsels under a worker pool.
    /// `want_rows` asks for row ids rather than selection words where a
    /// kernel emits rows directly.
    fn scan(
        &self,
        table: &Table,
        preds: &[ColPred],
        aux: &Aux<'_>,
        want_rows: bool,
        threads: usize,
        sched: &mut SchedStats,
    ) -> (Selection, ExecStats) {
        let range = match preds {
            [p] => p.as_range(),
            _ => None,
        };
        let Some(range) = range else {
            let (sel, ts) = self.selection_scan(table, preds, threads, sched);
            let stats = ExecStats {
                rows_scanned: ts.rows_scanned,
                blocks_pruned: ts.blocks_pruned,
                cost: self.cost.full_scan(ts.rows_scanned),
                plan: scan_tag(table),
                ..Default::default()
            };
            return (Selection::Words(sel), stats);
        };
        if range.is_empty() {
            return (Selection::Rows(Vec::new()), ExecStats::default());
        }
        let col = preds[0].col;
        let (path, cost) = self.access_path(table, col, range, aux);
        let mut stats = ExecStats {
            cost,
            plan: scan_tag(table),
            ..Default::default()
        };
        let sel = match path {
            Access::IndexProbe(idx) => {
                let rows = idx.probe_range_active(table, range.lo, range.hi_inclusive());
                stats.rows_scanned = rows.len();
                stats.plan = PlanTag::IndexProbe;
                Selection::Rows(rows)
            }
            Access::PrunedScan(zm, blocks) => {
                let rows = kernels::range_scan_blocks(table, col, range, &blocks, zm.block_rows());
                stats.rows_scanned = blocks.len() * zm.block_rows();
                stats.blocks_pruned = zm.num_blocks() - blocks.len();
                stats.plan = PlanTag::PrunedScan;
                Selection::Rows(rows)
            }
            Access::WordZones(wz) => {
                let (rows, zs) = kernels::range_scan_active_zoned(table, col, wz, range);
                stats.rows_scanned = zs.rows_scanned;
                stats.words_pruned = zs.words_pruned;
                Selection::Rows(rows)
            }
            Access::FullScan if want_rows && threads <= 1 => {
                let (rows, ts) = kernels::range_scan_tiered(table, col, range);
                stats.rows_scanned = ts.rows_scanned;
                stats.blocks_pruned = ts.blocks_pruned;
                Selection::Rows(rows)
            }
            Access::FullScan => {
                let (sel, ts) = self.selection_scan(table, preds, threads, sched);
                stats.rows_scanned = ts.rows_scanned;
                stats.blocks_pruned = ts.blocks_pruned;
                Selection::Words(sel)
            }
        };
        (sel, stats)
    }

    /// The fused selection-mask scan, serial or over morsels.
    fn selection_scan(
        &self,
        table: &Table,
        preds: &[ColPred],
        threads: usize,
        sched: &mut SchedStats,
    ) -> (Vec<u64>, kernels::TierStats) {
        if threads > 1 {
            let (sel, ts, s) = morsel::par_selection_scan(table, preds, threads, self.morsel_rows);
            sched.absorb(&s);
            (sel, ts)
        } else {
            kernels::selection_scan(table, preds)
        }
    }

    /// Price the access paths for `range` over `col` under the cost
    /// model and return the cheapest with its estimated cost: a full
    /// scan of every physical row, a scan of the zone map's candidate
    /// blocks, or a probe of a usable sorted index. A frozen table drops
    /// the external zone map (its tiers' cached block meta prunes
    /// equivalently inside the scan kernel); a full scan of a hot table
    /// takes word zones when they cover `col`.
    fn access_path<'a>(
        &self,
        table: &Table,
        col: usize,
        range: RangePredicate,
        aux: &Aux<'a>,
    ) -> (Access<'a>, f64) {
        let frozen = table.has_frozen();
        let mut best = match aux.word_zones.filter(|wz| wz.column() == col && !frozen) {
            Some(wz) => Access::WordZones(wz),
            None => Access::FullScan,
        };
        let mut best_cost = self.cost.full_scan(table.num_rows());
        if let Some(zm) = aux.zonemap.filter(|zm| zm.column() == col && !frozen) {
            let blocks = zm.candidate_blocks(range.lo, range.hi_inclusive());
            let cost = self.cost.pruned_scan(blocks.len(), zm.block_rows());
            if cost < best_cost {
                (best, best_cost) = (Access::PrunedScan(zm, blocks), cost);
            }
        }
        if let Some(idx) = aux.index.filter(|i| i.column() == col && i.is_usable()) {
            // Cardinality estimate: uniform fraction of the seen range.
            let span = table
                .max_seen(col)
                .zip(table.min_seen(col))
                .map(|(max, min)| max.saturating_sub(min).saturating_add(1).max(1))
                .unwrap_or(1);
            let est_rows = (range.width() as f64 / span as f64).min(1.0) * idx.len() as f64;
            let cost = self.cost.index_probe_cost(est_rows);
            if cost < best_cost {
                (best, best_cost) = (Access::IndexProbe(idx), cost);
            }
        }
        (best, best_cost)
    }

    /// The §1 complete scan: every physical row passing `preds`,
    /// forgotten or not. It reads every row (no zone map, index or block
    /// meta may prune: they describe active data only), so it is priced
    /// as a full scan.
    fn complete_scan(&self, table: &Table, preds: &[ColPred]) -> (Selection, ExecStats) {
        if let [p] = preds {
            if !p.negated && p.is_empty_range() {
                return (Selection::Rows(Vec::new()), ExecStats::default());
            }
        }
        let n = table.num_rows();
        let stats = ExecStats {
            rows_scanned: n,
            cost: self.cost.full_scan(n),
            plan: PlanTag::FullScan,
            ..Default::default()
        };
        (
            Selection::Words(kernels::selection_scan_all(table, preds)),
            stats,
        )
    }

    /// A cost-ordered conjunctive scan of `slot`: predicates run in the
    /// estimated order `po`, and each one's execution accounting lands
    /// in the returned [`ExecStats::pred_stats`].
    fn ordered_scan(
        &self,
        table: &Table,
        slot: usize,
        preds: &[ColPred],
        po: &crate::stats::PredOrder,
        threads: usize,
        sched: &mut SchedStats,
    ) -> (Selection, ExecStats) {
        let (sel, ts, per_pred) = if threads > 1 {
            let (sel, ts, per_pred, s) = morsel::par_selection_scan_ordered(
                table,
                preds,
                &po.order,
                threads,
                self.morsel_rows,
            );
            sched.absorb(&s);
            (sel, ts, per_pred)
        } else {
            let mut per_pred = vec![kernels::PredScanStats::default(); preds.len()];
            let (sel, ts) = kernels::selection_scan_ordered(table, preds, &po.order, &mut per_pred);
            (sel, ts, per_pred)
        };
        let pred_stats = po
            .order
            .iter()
            .enumerate()
            .map(|(rank, &i)| PredStat {
                slot,
                display: preds[i].display.clone(),
                syntactic_pos: i,
                exec_rank: rank,
                est_rows: po.est_rows[i],
                blocks_pruned: per_pred[i].blocks_pruned,
                blocks_refined: per_pred[i].blocks_refined,
            })
            .collect();
        let stats = ExecStats {
            rows_scanned: ts.rows_scanned,
            blocks_pruned: ts.blocks_pruned,
            cost: self.cost.full_scan(ts.rows_scanned),
            plan: scan_tag(table),
            pred_stats,
            ..Default::default()
        };
        (Selection::Words(sel), stats)
    }

    /// The fused-aggregate plan shape (see [`fused_aggregate_shape`]):
    /// one filter+fold pass over `col` under `pred` — frozen blocks fold
    /// in code/offset space behind their cached meta, a hot table with
    /// word zones skips words a predicate cannot hit — then slot 0's
    /// summaries and micro-models fold in. A worker pool instead folds
    /// the morsel-parallel selection; the integer-exact state is the
    /// same either way.
    fn fused_aggregate(
        &self,
        table: &Table,
        aux: &Aux<'_>,
        plan: &PhysicalPlan,
        col: usize,
        pred: Option<RangePredicate>,
        threads: usize,
    ) -> PhysResult {
        let preds = &plan.scans[0].preds;
        let mut sched = SchedStats::default();
        let mut stats = ExecStats {
            plan: scan_tag(table),
            groups: 1,
            result_rows: 1,
            ..Default::default()
        };
        let mut state = if threads > 1 {
            let (sel, ts) = self.selection_scan(table, preds, threads, &mut sched);
            let (state, s) =
                morsel::par_aggregate_selection(table, &sel, col, threads, self.morsel_rows);
            sched.absorb(&s);
            stats.rows_scanned = ts.rows_scanned;
            stats.blocks_pruned = ts.blocks_pruned;
            state
        } else if table.has_frozen() {
            let (state, ts) = kernels::aggregate_state_tiered(table, col, pred);
            stats.rows_scanned = ts.rows_scanned;
            stats.blocks_pruned = ts.blocks_pruned;
            state
        } else if let Some(wz) = aux
            .word_zones
            .filter(|wz| wz.column() == col && pred.is_some())
        {
            let (state, zs) = kernels::aggregate_state_active_zoned(table, col, wz, pred);
            stats.rows_scanned = zs.rows_scanned;
            stats.words_pruned = zs.words_pruned;
            state
        } else {
            let (state, scanned) = kernels::aggregate_state_active(table, col, pred);
            stats.rows_scanned = scanned;
            state
        };
        stats.cost = self.cost.full_scan(stats.rows_scanned);
        if plan.hint == PlanHint::CostBased {
            stats.stage_estimates.push(StageEstimate {
                label: plan.scans[0].label.clone(),
                est_rows: crate::stats::estimate_scan_rows(table, preds, &self.cost),
                actual_rows: state.count() as usize,
            });
        }

        // Whole-table aggregates fold in summaries of forgotten data
        // (paper §1: summaries answer "specific aggregation queries" only
        // — a predicate disables them because cell membership is
        // unknown). The cell folds into the running state, so a
        // micro-model combine below still sees the summary contribution.
        if pred.is_none() {
            if let Some(cell) = aux.summaries.map(SummaryStore::combined) {
                if cell.count > 0 {
                    state.push_block(cell.count, cell.sum, cell.min, cell.max);
                }
            }
        }
        // Micro-models go further: their histograms pro-rate the
        // forgotten mass inside a predicate, so ranged aggregates get an
        // estimate instead of an active-only answer.
        let estimate = aux
            .models
            .map(|m| m.estimate(pred.map(|p| ValueRange { lo: p.lo, hi: p.hi })))
            .filter(|est| est.count > 1e-12);
        let row = plan
            .items
            .iter()
            .map(|item| match (item, &estimate) {
                (PhysItem::Aggregate { kind, .. }, Some(est)) => {
                    Scalar::Float(combine_with_estimate(&state, *kind, est))
                }
                (PhysItem::Aggregate { kind, .. }, None) => finalize_scalar(&state, *kind),
                (PhysItem::Column { .. }, _) => unreachable!("fused aggregates carry no columns"),
            })
            .collect();
        stats.note_sched(&sched);
        PhysResult {
            rows: vec![row],
            row_ids: Vec::new(),
            stats,
        }
    }
}

/// An access path [`Executor::access_path`] can choose for a one-range
/// scan.
enum Access<'a> {
    /// Scan every active row (tier-aware once blocks are frozen).
    FullScan,
    /// Full scan of a hot table, skipping words the zones rule out.
    WordZones(&'a WordZoneMap),
    /// Scan only the zone map's candidate blocks.
    PrunedScan(&'a ZoneMap, Vec<usize>),
    /// Probe the sorted index.
    IndexProbe(&'a SortedIndex),
}

/// Does `plan` have the fused-aggregate shape — one scan, no join, no
/// `GROUP BY`, only aggregates, at least one of them reading a column
/// `c` and the rest reading `c` or counting rows, and at most one
/// predicate, a half-open range over `c`? Returns `c` and the range.
fn fused_aggregate_shape(plan: &PhysicalPlan) -> Option<(usize, Option<RangePredicate>)> {
    if plan.scans.len() != 1 || plan.join.is_some() || plan.group_by.is_some() {
        return None;
    }
    let mut col = None;
    for item in &plan.items {
        match item {
            PhysItem::Aggregate { arg: None, .. } => {}
            PhysItem::Aggregate {
                arg: Some((0, c)), ..
            } if col.is_none_or(|seen| seen == *c) => col = Some(*c),
            _ => return None,
        }
    }
    let col = col?;
    match plan.scans[0].preds.as_slice() {
        [] => Some((col, None)),
        [p] if p.col == col => Some((col, Some(p.as_range()?))),
        _ => None,
    }
}

/// A scan operator's output: selection-mask words (one per 64 rows), or
/// an explicit row list when the access path emits rows directly (index
/// probes return value order).
enum Selection {
    /// One 64-bit selection word per activity word, ascending row order.
    Words(Vec<u64>),
    /// Explicit rows in access-path order.
    Rows(Vec<RowId>),
}

impl Selection {
    /// Selected-row count.
    fn len(&self) -> usize {
        match self {
            Selection::Words(w) => kernels::selection_count(w),
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// Materialize as row ids (ascending for [`Selection::Words`]).
    fn into_rows(self) -> Vec<RowId> {
        match self {
            Selection::Rows(rows) => rows,
            Selection::Words(words) => kernels::selection_rows(&words),
        }
    }

    /// Materialize as `nwords` selection words.
    fn into_words(self, nwords: usize) -> Vec<u64> {
        match self {
            Selection::Words(words) => words,
            Selection::Rows(rows) => {
                let mut words = vec![0u64; nwords];
                for r in rows {
                    let i = r.as_usize();
                    words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
                }
                words
            }
        }
    }
}

/// The result of executing a [`PhysicalPlan`]: materialized output rows
/// plus the unified [`ExecStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhysResult {
    /// Output rows, one [`Scalar`] per plan item (empty for the row-id
    /// output shape).
    pub rows: Vec<Vec<Scalar>>,
    /// The selection of a one-scan plan with no items, in access-path
    /// order (empty for every other plan).
    pub row_ids: Vec<RowId>,
    /// Execution statistics across every operator.
    pub stats: ExecStats,
}

/// Sort-merge join over two selections whose key columns the cached
/// block metadata proved frozen-sorted
/// ([`sorted_hint`](amnesia_columnar::TieredColumn::sorted_hint)):
/// gather each side's selected rows and keys in row order (which *is*
/// key order for a sorted column), verify the gathered keys really are
/// nondecreasing (returning `None` — hash-join fallback — otherwise),
/// then two-pointer merge the equal-key groups. Pairs emit in the hash
/// join's canonical probe-major order, so the physical choice never
/// changes results.
fn merge_join_sorted(
    left: &Table,
    left_col: usize,
    lsel: &[u64],
    right: &Table,
    right_col: usize,
    rsel: &[u64],
) -> Option<Vec<(RowId, RowId)>> {
    let lrows = kernels::selection_rows(lsel);
    let rrows = kernels::selection_rows(rsel);
    let mut lkeys = Vec::with_capacity(lrows.len());
    kernels::gather_column(left, lsel, left_col, &mut lkeys);
    let mut rkeys = Vec::with_capacity(rrows.len());
    kernels::gather_column(right, rsel, right_col, &mut rkeys);
    if lkeys.windows(2).any(|w| w[0] > w[1]) || rkeys.windows(2).any(|w| w[0] > w[1]) {
        return None;
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lkeys.len() && j < rkeys.len() {
        match lkeys[i].cmp(&rkeys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let k = lkeys[i];
                let i0 = i;
                while i < lkeys.len() && lkeys[i] == k {
                    i += 1;
                }
                let j0 = j;
                while j < rkeys.len() && rkeys[j] == k {
                    j += 1;
                }
                for &rr in &rrows[j0..j] {
                    for &lr in &lrows[i0..i] {
                        out.push((lr, rr));
                    }
                }
            }
        }
    }
    Some(out)
}

/// The aggregate items of a plan, in item order.
fn agg_specs(
    items: &[PhysItem],
) -> Vec<(amnesia_workload::query::AggKind, Option<(usize, usize)>)> {
    items
        .iter()
        .filter_map(|i| match i {
            PhysItem::Aggregate { kind, arg, .. } => Some((*kind, *arg)),
            PhysItem::Column { .. } => None,
        })
        .collect()
}

/// Materialize a [`GroupTable`] as output rows in first-seen group
/// order: plain columns replay the group key, aggregates finalize with
/// the checked (overflow-widening) conversion.
fn finalize_groups(groups: &GroupTable, items: &[PhysItem]) -> Vec<Vec<Scalar>> {
    (0..groups.len())
        .map(|g| {
            let states = groups.group_states(g);
            let mut agg_i = 0usize;
            items
                .iter()
                .map(|item| match item {
                    PhysItem::Column { .. } => Scalar::Int(groups.keys()[g]),
                    PhysItem::Aggregate { kind, .. } => {
                        let s = finalize_scalar(&states[agg_i], *kind);
                        agg_i += 1;
                        s
                    }
                })
                .collect()
        })
        .collect()
}

/// Row id of `slot` within a join pair.
#[inline]
fn pair_row(pair: &(RowId, RowId), slot: usize) -> RowId {
    if slot == 0 {
        pair.0
    } else {
        pair.1
    }
}

/// Project join pairs: per-item tier-aware point reads (codec
/// `value_at`, never a block decode). Under a parallel pool the pair
/// vector splits into index-range morsels whose projected rows
/// concatenate back in pair order.
fn project_pairs(
    tables: &[&Table],
    pairs: &[(RowId, RowId)],
    items: &[PhysItem],
    threads: usize,
    morsel_rows: usize,
    sched: &mut SchedStats,
) -> Vec<Vec<Scalar>> {
    let project_range = |range: &std::ops::Range<usize>| -> Vec<Vec<Scalar>> {
        pairs[range.clone()]
            .iter()
            .map(|pair| {
                items
                    .iter()
                    .map(|item| match item {
                        PhysItem::Column { slot, col, .. } => {
                            Scalar::Int(tables[*slot].value(*col, pair_row(pair, *slot)))
                        }
                        PhysItem::Aggregate { .. } => {
                            unreachable!("projection plans carry only column items")
                        }
                    })
                    .collect()
            })
            .collect()
    };
    let chunks = morsel::index_chunks(pairs.len(), morsel_rows);
    if threads <= 1 || chunks.len() <= 1 {
        return project_range(&(0..pairs.len()));
    }
    let (parts, s) = morsel::run_morsels(chunks.len(), threads, |i| {
        project_range(&(chunks[i].0..chunks[i].1))
    });
    sched.absorb(&s);
    let mut out = Vec::with_capacity(pairs.len());
    for p in parts {
        out.extend(p);
    }
    out
}

/// Aggregate join pairs, grouped or global, via tier-aware point reads.
/// Under a parallel pool each index-range morsel folds a local
/// [`GroupTable`] keyed with the *pair index* as its first-seen marker;
/// the merged table re-sorts by that marker, reproducing the serial
/// first-seen group order (global aggregates merge integer-exact
/// states in morsel order).
fn aggregate_pairs(
    tables: &[&Table],
    pairs: &[(RowId, RowId)],
    plan: &PhysicalPlan,
    threads: usize,
    morsel_rows: usize,
    stats: &mut ExecStats,
    sched: &mut SchedStats,
) -> Vec<Vec<Scalar>> {
    let specs = agg_specs(&plan.items);
    let chunks = morsel::index_chunks(pairs.len(), morsel_rows);
    let parallel = threads > 1 && chunks.len() > 1;
    if let Some((gslot, gcol, _)) = &plan.group_by {
        let fold_range = |lo: usize, hi: usize| -> GroupTable {
            let mut groups = GroupTable::new(specs.len());
            for (i, pair) in pairs[lo..hi].iter().enumerate() {
                let key = tables[*gslot].value(*gcol, pair_row(pair, *gslot));
                let slot = groups.slot_at(key, lo + i);
                for (a, (_, arg)) in specs.iter().enumerate() {
                    match arg {
                        Some((aslot, acol)) => groups
                            .state_mut(slot, a)
                            .push(tables[*aslot].value(*acol, pair_row(pair, *aslot))),
                        None => groups.bump(slot, a),
                    }
                }
            }
            groups
        };
        let groups = if parallel {
            let (parts, s) = morsel::run_morsels(chunks.len(), threads, |i| {
                fold_range(chunks[i].0, chunks[i].1)
            });
            sched.absorb(&s);
            let mut merged = GroupTable::new(specs.len());
            for part in &parts {
                merged.absorb(part);
            }
            merged.sort_by_first_row();
            merged
        } else {
            fold_range(0, pairs.len())
        };
        stats.groups = groups.len();
        return finalize_groups(&groups, &plan.items);
    }
    stats.groups = 1;
    let fold_range = |lo: usize, hi: usize| -> Vec<AggState> {
        let mut states = vec![AggState::new(); specs.len()];
        for pair in &pairs[lo..hi] {
            for (state, (_, arg)) in states.iter_mut().zip(&specs) {
                match arg {
                    Some((aslot, acol)) => {
                        state.push(tables[*aslot].value(*acol, pair_row(pair, *aslot)))
                    }
                    None => state.push_block(1, 0, Value::MAX, Value::MIN),
                }
            }
        }
        states
    };
    let states = if parallel {
        let (parts, s) = morsel::run_morsels(chunks.len(), threads, |i| {
            fold_range(chunks[i].0, chunks[i].1)
        });
        sched.absorb(&s);
        let mut states = vec![AggState::new(); specs.len()];
        for part in &parts {
            for (state, p) in states.iter_mut().zip(part) {
                state.merge(p);
            }
        }
        states
    } else {
        fold_range(0, pairs.len())
    };
    let mut agg_i = 0usize;
    let row = plan
        .items
        .iter()
        .map(|item| match item {
            PhysItem::Aggregate { kind, .. } => {
                let s = finalize_scalar(&states[agg_i], *kind);
                agg_i += 1;
                s
            }
            PhysItem::Column { .. } => unreachable!("plain columns require GROUP BY"),
        })
        .collect();
    vec![row]
}

/// Merge the aggregate state (active rows, plus any summary cell already
/// folded in by the executor) with a micro-model estimate of the
/// forgotten mass. The state is already restricted to the query's
/// predicate, so its COUNT/SUM slot straight into the combination.
fn combine_with_estimate(state: &kernels::AggState, kind: AggKind, est: &Estimate) -> f64 {
    let n_active = state.count() as f64;
    match kind {
        AggKind::Count => n_active + est.count,
        AggKind::Sum => state.sum() as f64 + est.sum,
        AggKind::Avg => (state.sum() as f64 + est.sum) / (n_active + est.count),
        AggKind::Min => {
            let m = est.min.map(|v| v as f64);
            match (state.finalize(AggKind::Min), m) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => f64::NAN,
            }
        }
        AggKind::Max => {
            let m = est.max.map(|v| v as f64);
            match (state.finalize(AggKind::Max), m) {
                (Some(a), Some(b)) => a.max(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => f64::NAN,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::scalar;
    use crate::join::hash_join;
    use crate::physical::{JoinSpec, PhysScan};
    use amnesia_columnar::Schema;
    use amnesia_util::SimRng;
    use amnesia_workload::Query as Q;

    fn table() -> Table {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[10, 20, 30, 40, 50], 0).unwrap();
        t.forget(RowId(1), 1).unwrap(); // 20 forgotten
        t
    }

    /// `n` sequential values, nothing forgotten.
    fn big_table(n: i64) -> Table {
        let mut t = Table::new(Schema::single("a"));
        let values: Vec<i64> = (0..n).collect();
        t.insert_batch(&values, 0).unwrap();
        t
    }

    /// `n` random values with a quarter of the rows forgotten.
    fn random_table(n: usize) -> Table {
        let mut rng = SimRng::new(7);
        let values: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 10_000)).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        for _ in 0..n / 4 {
            if let Some(r) = t.random_active(&mut rng) {
                t.forget(r, 1).unwrap();
            }
        }
        t
    }

    fn on(ex: &Executor, threads: usize) -> Executor {
        let mode = if threads <= 1 {
            ExecMode::Serial
        } else {
            ExecMode::Parallel(threads)
        };
        ex.clone().with_exec_mode(mode).with_morsel_rows(64)
    }

    /// Run `plan` serially and on small-morsel pools of 2, 3 and 8
    /// workers: output, access path and cost must agree across modes.
    /// Returns the serial result.
    fn run_plan(
        ex: &Executor,
        tables: &[&Table],
        auxes: &[Aux<'_>],
        plan: &PhysicalPlan,
    ) -> PhysResult {
        let serial = on(ex, 1).execute_plan(tables, auxes, plan);
        for threads in [2, 3, 8] {
            let par = on(ex, threads).execute_plan(tables, auxes, plan);
            assert_eq!(par.rows, serial.rows, "rows at {threads} threads");
            assert_eq!(par.row_ids, serial.row_ids, "row ids at {threads} threads");
            assert_eq!(
                par.stats.plan, serial.stats.plan,
                "plan at {threads} threads"
            );
            assert_eq!(
                par.stats.cost, serial.stats.cost,
                "cost at {threads} threads"
            );
        }
        serial
    }

    /// A workload query over column 0 of `t`, through [`run_plan`].
    fn run(ex: &Executor, t: &Table, q: &Q, aux: &Aux<'_>) -> PhysResult {
        run_plan(ex, &[t], &[*aux], &PhysicalPlan::from_query(0, q))
    }

    /// The scalar answer of a workload aggregate.
    fn agg(
        ex: &Executor,
        t: &Table,
        kind: AggKind,
        predicate: Option<RangePredicate>,
        aux: &Aux<'_>,
    ) -> Option<f64> {
        let r = run(ex, t, &Q::Aggregate { kind, predicate }, aux);
        assert_eq!(r.stats.result_rows, 1);
        r.rows[0][0].as_f64()
    }

    #[test]
    fn range_active_only() {
        let t = table();
        let ex = Executor::default();
        let r = run(
            &ex,
            &t,
            &Q::Range(RangePredicate::new(15, 45)),
            &Aux::default(),
        );
        assert_eq!(r.row_ids, &[RowId(2), RowId(3)]);
        assert!(r.rows.is_empty());
        assert_eq!(r.stats.result_rows, 2);
        assert_eq!(r.stats.plan, PlanTag::FullScan);
    }

    #[test]
    fn scan_sees_forgotten_mode() {
        let t = table();
        let ex = Executor::new(ForgetVisibility::ScanSeesForgotten, CostModel::default());
        let r = run(
            &ex,
            &t,
            &Q::Range(RangePredicate::new(15, 45)),
            &Aux::default(),
        );
        // The complete scan fetches the forgotten 20 as well.
        assert_eq!(r.row_ids, &[RowId(1), RowId(2), RowId(3)]);
        assert_eq!(r.stats.rows_scanned, t.num_rows());
        // Aggregates read the active set under either regime.
        let avg = agg(&ex, &t, AggKind::Avg, None, &Aux::default());
        assert_eq!(avg, Some(32.5));
    }

    #[test]
    fn index_path_always_skips_forgotten() {
        let t = table();
        let mut idx = SortedIndex::build(&t, 0);
        idx.rebuild(&t);
        let rows = idx.probe_range_active(&t, 15, 44);
        assert_eq!(rows, vec![RowId(2), RowId(3)]);
        // On a table large enough for the probe to win, the executor's
        // index path skips forgotten rows too.
        let mut big = big_table(50_000);
        big.forget(RowId(120), 1).unwrap();
        let idx = SortedIndex::build(&big, 0);
        let aux = Aux {
            index: Some(&idx),
            ..Default::default()
        };
        let r = run(
            &Executor::default(),
            &big,
            &Q::Range(RangePredicate::new(100, 140)),
            &aux,
        );
        assert_eq!(r.stats.plan, PlanTag::IndexProbe);
        assert_eq!(r.row_ids.len(), 39);
        assert!(!r.row_ids.contains(&RowId(120)));
    }

    #[test]
    fn point_query() {
        let t = table();
        let ex = Executor::default();
        let r = run(&ex, &t, &Q::Point(30), &Aux::default());
        assert_eq!(r.row_ids, &[RowId(2)]);
        let miss = run(&ex, &t, &Q::Point(20), &Aux::default());
        assert!(miss.row_ids.is_empty(), "forgotten point");
    }

    #[test]
    fn aggregate_without_summaries_drifts() {
        let t = table();
        // Active: 10,30,40,50 → 32.5 (true avg over history is 30).
        let avg = agg(
            &Executor::default(),
            &t,
            AggKind::Avg,
            None,
            &Aux::default(),
        );
        assert_eq!(avg, Some(32.5));
    }

    #[test]
    fn aggregate_with_summaries_recovers_exact_answer() {
        let t = table();
        let mut summaries = SummaryStore::new();
        summaries.absorb(0, 20); // the forgotten value
        let ex = Executor::default();
        let aux = Aux {
            summaries: Some(&summaries),
            ..Default::default()
        };
        let avg = agg(&ex, &t, AggKind::Avg, None, &aux);
        assert_eq!(avg, Some(30.0), "summary restores the exact average");
        assert_eq!(agg(&ex, &t, AggKind::Count, None, &aux), Some(5.0));
        assert_eq!(agg(&ex, &t, AggKind::Min, None, &aux), Some(10.0));
    }

    #[test]
    fn predicated_aggregate_ignores_summaries() {
        let t = table();
        let mut summaries = SummaryStore::new();
        summaries.absorb(0, 20);
        let aux = Aux {
            summaries: Some(&summaries),
            ..Default::default()
        };
        let pred = Some(RangePredicate::new(0, 100));
        let avg = agg(&Executor::default(), &t, AggKind::Avg, pred, &aux);
        // Summaries cannot be sliced by value: active-only answer.
        assert_eq!(avg, Some(32.5));
    }

    #[test]
    fn predicated_aggregate_uses_models() {
        let t = table();
        let mut models = ModelStore::new(8);
        models.absorb(1, 20); // the forgotten value
        models.seal();
        let ex = Executor::default();
        let aux = Aux {
            models: Some(&models),
            ..Default::default()
        };
        // Range [0, 100) contains the forgotten 20: COUNT recovers it.
        let count = agg(
            &ex,
            &t,
            AggKind::Count,
            Some(RangePredicate::new(0, 100)),
            &aux,
        );
        assert_eq!(count, Some(5.0), "model restores the ranged count");
        // Range [35, 100) excludes it: no model contribution.
        let count = agg(
            &ex,
            &t,
            AggKind::Count,
            Some(RangePredicate::new(35, 100)),
            &aux,
        );
        assert_eq!(count, Some(2.0), "40 and 50 only");
        // Whole-table AVG is exact from model totals.
        assert_eq!(agg(&ex, &t, AggKind::Avg, None, &aux), Some(30.0));
    }

    #[test]
    fn summaries_and_models_chain() {
        // Forget 20 (absorbed by the summary) and 30 (absorbed by the
        // model): both contributions must land in the final answer.
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[10, 20, 30, 40, 50], 0).unwrap();
        t.forget(RowId(1), 1).unwrap();
        t.forget(RowId(2), 1).unwrap();
        let mut summaries = SummaryStore::new();
        summaries.absorb(0, 20);
        let mut models = ModelStore::new(8);
        models.absorb(1, 30);
        models.seal();
        let ex = Executor::default();
        let aux = Aux {
            summaries: Some(&summaries),
            models: Some(&models),
            ..Default::default()
        };
        // Active 10+40+50 = 100, summary adds 20, model adds 30.
        assert_eq!(agg(&ex, &t, AggKind::Sum, None, &aux), Some(150.0));
        assert_eq!(agg(&ex, &t, AggKind::Count, None, &aux), Some(5.0));
    }

    #[test]
    fn empty_predicate_short_circuits() {
        let t = table();
        let r = run(
            &Executor::default(),
            &t,
            &Q::Range(RangePredicate::new(50, 10)),
            &Aux::default(),
        );
        assert!(r.row_ids.is_empty());
        assert_eq!(r.stats.rows_scanned, 0);
    }

    #[test]
    fn word_zones_prune_full_scans() {
        let t = big_table(50_000);
        let wz = WordZoneMap::build(&t, 0);
        let ex = Executor::default();
        let q = Q::Range(RangePredicate::new(100, 200));
        let plain = run(&ex, &t, &q, &Aux::default());
        let aux = Aux {
            word_zones: Some(&wz),
            ..Default::default()
        };
        let zoned = run(&ex, &t, &q, &aux);
        assert_eq!(zoned.row_ids, plain.row_ids, "zones never change results");
        assert_eq!(zoned.stats.plan, PlanTag::FullScan);
        // 50k rows = 782 words; the sorted column leaves ~3 live.
        assert!(
            zoned.stats.words_pruned > 770,
            "{}",
            zoned.stats.words_pruned
        );
        assert!(zoned.stats.rows_scanned < plain.stats.rows_scanned);

        // Predicated aggregates ride the same zones.
        let agg_q = Q::Aggregate {
            kind: AggKind::Sum,
            predicate: Some(RangePredicate::new(100, 200)),
        };
        let plain_agg = on(&ex, 1).execute_plan(
            &[&t],
            &[Aux::default()],
            &PhysicalPlan::from_query(0, &agg_q),
        );
        let zoned_agg =
            on(&ex, 1).execute_plan(&[&t], &[aux], &PhysicalPlan::from_query(0, &agg_q));
        assert_eq!(zoned_agg.rows, plain_agg.rows);
        assert!(zoned_agg.stats.words_pruned > 770);
    }

    #[test]
    fn frozen_table_takes_tiered_plan_with_identical_results() {
        let mut flat = big_table(50_000);
        for r in (0..50_000u64).step_by(7) {
            flat.forget(RowId(r), 1).unwrap();
        }
        let mut frozen = flat.clone();
        frozen.freeze_upto(48_000);
        assert!(frozen.has_frozen());
        let ex = Executor::default();
        let queries = [
            Q::Range(RangePredicate::new(100, 220)),
            Q::Point(10_000),
            Q::Aggregate {
                kind: AggKind::Avg,
                predicate: Some(RangePredicate::new(1_000, 40_000)),
            },
            Q::Aggregate {
                kind: AggKind::Sum,
                predicate: None,
            },
        ];
        for q in &queries {
            let want = run(&ex, &flat, q, &Aux::default());
            let got = run(&ex, &frozen, q, &Aux::default());
            assert_eq!(got.rows, want.rows, "{q:?}");
            assert_eq!(got.row_ids, want.row_ids, "{q:?}");
            assert_eq!(got.stats.plan, PlanTag::TieredScan, "{q:?}");
        }
        // The narrow range prunes nearly every frozen block via meta.
        let narrow = run(
            &ex,
            &frozen,
            &Q::Range(RangePredicate::new(100, 220)),
            &Aux::default(),
        );
        assert!(
            narrow.stats.blocks_pruned > 40,
            "{}",
            narrow.stats.blocks_pruned
        );
        assert!(narrow.stats.rows_scanned < flat.active_rows());
        // The complete-scan regime still sees forgotten rows.
        let ex_all = Executor::new(ForgetVisibility::ScanSeesForgotten, CostModel::default());
        let r = run(
            &ex_all,
            &frozen,
            &Q::Range(RangePredicate::new(0, 100)),
            &Aux::default(),
        );
        assert_eq!(r.row_ids.len(), 100);
    }

    #[test]
    fn execute_join_surfaces_tier_accounting() {
        let left = big_table(100);
        let mut right = Table::new(Schema::single("k"));
        // Second block disjoint from the build keys: prunes under meta.
        let vals: Vec<i64> = (0..1024)
            .map(|i| i % 100)
            .chain((0..1024).map(|i| 50_000 + i))
            .collect();
        right.insert_batch(&vals, 0).unwrap();
        let plan = PhysicalPlan {
            scans: vec![PhysScan::default(), PhysScan::default()],
            join: Some(JoinSpec {
                left_col: 0,
                right_col: 0,
                display: "l.k = r.k".into(),
            }),
            items: vec![
                PhysItem::Column {
                    slot: 0,
                    col: 0,
                    display: "l.k".into(),
                },
                PhysItem::Column {
                    slot: 1,
                    col: 0,
                    display: "r.k".into(),
                },
            ],
            group_by: None,
            order_by: None,
            limit: None,
            hint: PlanHint::SyntacticOrder,
        };
        let ex = Executor::default();
        let hot = run_plan(&ex, &[&left, &right], &[], &plan);
        let want = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(hot.stats.plan, PlanTag::FullScan);
        assert_eq!(hot.stats.join_pairs, want.stats.output_pairs);
        assert_eq!(hot.stats.result_rows, want.stats.output_pairs);
        right.freeze_upto(2048);
        let frozen = run_plan(&ex, &[&left, &right], &[], &plan);
        assert_eq!(frozen.rows, hot.rows, "freezing never changes the join");
        assert_eq!(frozen.stats.plan, PlanTag::TieredJoin);
        assert_eq!(frozen.stats.blocks_pruned, 1, "the 50k block");
        assert_eq!(
            frozen.stats.rows_scanned,
            left.active_rows() + right.active_rows() - 1024,
            "pruned probe rows subtract from the scanned accounting"
        );
        // The ground-truth join is forgotten-inclusive.
        let truth = hash_join(&left, 0, &right, 0, ForgetVisibility::ScanSeesForgotten);
        assert_eq!(truth.stats.output_pairs, 1024);
    }

    #[test]
    fn pruned_scan_engages_with_zonemap() {
        let t = big_table(50_000);
        let zm = ZoneMap::build(&t, 0);
        let aux = Aux {
            zonemap: Some(&zm),
            ..Default::default()
        };
        let r = run(
            &Executor::default(),
            &t,
            &Q::Range(RangePredicate::new(100, 200)),
            &aux,
        );
        assert_eq!(r.stats.plan, PlanTag::PrunedScan);
        assert!(r.stats.blocks_pruned > 40);
        assert_eq!(r.row_ids.len(), 100);
    }

    // -----------------------------------------------------------------
    // Access-path choice: the scan stage prices full scan, zone-map
    // pruned scan and index probe under the cost model.
    // -----------------------------------------------------------------

    /// The access path and cost a range query over `t` takes.
    fn path(t: &Table, pred: RangePredicate, aux: &Aux<'_>) -> (PlanTag, f64, Vec<RowId>) {
        let r = run(&Executor::default(), t, &Q::Range(pred), aux);
        let mut want = scalar::range_scan_active(t, 0, pred);
        let mut got = r.row_ids.clone();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "every access path returns the active matches");
        (r.stats.plan, r.stats.cost, r.row_ids)
    }

    #[test]
    fn selective_query_prefers_index() {
        let t = big_table(100_000);
        let idx = SortedIndex::build(&t, 0);
        let aux = Aux {
            index: Some(&idx),
            ..Default::default()
        };
        let (plan, cost, _) = path(&t, RangePredicate::new(500, 600), &aux);
        assert_eq!(plan, PlanTag::IndexProbe);
        let model = CostModel::default();
        assert!(
            (cost - model.index_probe_cost(100.0)).abs() < 1e-9,
            "{cost}"
        );
    }

    #[test]
    fn wide_query_prefers_scan_over_index() {
        let t = big_table(1000);
        let idx = SortedIndex::build(&t, 0);
        let aux = Aux {
            index: Some(&idx),
            ..Default::default()
        };
        // Index would return everything: probing is pure overhead.
        let (plan, cost, _) = path(&t, RangePredicate::new(0, 1000), &aux);
        assert_eq!(plan, PlanTag::FullScan);
        assert_eq!(cost, CostModel::default().full_scan(1000));
    }

    #[test]
    fn zonemap_pruning_wins_when_blocks_drop() {
        let t = big_table(100_000);
        let zm = ZoneMap::build_with_block_rows(&t, 0, 1024);
        let aux = Aux {
            zonemap: Some(&zm),
            ..Default::default()
        };
        let (plan, cost, rows) = path(&t, RangePredicate::new(500, 600), &aux);
        assert_eq!(plan, PlanTag::PrunedScan);
        let model = CostModel::default();
        // A narrow range touches ≤ 2 blocks.
        assert!(cost <= model.pruned_scan(2, 1024), "{cost}");
        assert!(cost < model.full_scan(100_000));
        assert_eq!(rows.len(), 100);
    }

    #[test]
    fn dropped_index_is_ignored() {
        let t = big_table(10_000);
        let mut idx = SortedIndex::build(&t, 0);
        idx.drop_index();
        let aux = Aux {
            index: Some(&idx),
            ..Default::default()
        };
        let (plan, cost, _) = path(&t, RangePredicate::new(5, 10), &aux);
        assert_eq!(plan, PlanTag::FullScan);
        assert_eq!(cost, CostModel::default().full_scan(10_000));
    }

    #[test]
    fn no_aux_structures_full_scan() {
        let t = big_table(100);
        let (plan, cost, _) = path(&t, RangePredicate::new(0, 10), &Aux::default());
        assert_eq!(plan, PlanTag::FullScan);
        assert!((cost - CostModel::default().full_scan(100)).abs() < 1e-9);
    }

    // -----------------------------------------------------------------
    // Parallel == serial: workload plans on morsel pools against the
    // row-at-a-time references.
    // -----------------------------------------------------------------

    #[test]
    fn chunks_respect_floor_and_alignment() {
        // Morsels of a hot table are word-aligned row ranges of at least
        // the requested size (bar the last), tiling the row space; with
        // frozen blocks they start at block boundaries.
        for (n, frozen_upto) in [
            (100usize, 0usize),
            (10_000, 0),
            (10_000, 4_096),
            (10_000, 10_000),
        ] {
            let mut t = random_table(n);
            t.freeze_upto(frozen_upto);
            for morsel_rows in [1usize, 64, 1_000, 4_096] {
                let spans = morsel::table_morsels(&t, morsel_rows);
                let mut next_row = 0;
                for (i, span) in spans.iter().enumerate() {
                    let (lo, hi) = match *span {
                        morsel::Span::Blocks { first, last } => {
                            (first * t.block_rows(), last * t.block_rows())
                        }
                        morsel::Span::Rows { lo, hi } => {
                            assert_eq!(lo % WORD_BITS, 0, "span start {lo} word-aligned");
                            if i + 1 < spans.len() {
                                assert!(hi - lo >= morsel_rows.max(WORD_BITS), "span under floor");
                            }
                            (lo, hi)
                        }
                    };
                    assert_eq!(lo, next_row, "spans tile the row space");
                    next_row = hi;
                }
                assert_eq!(next_row, n);
            }
        }
    }

    #[test]
    fn parallel_scan_equals_serial_scan() {
        let t = random_table(100_000);
        let pred = RangePredicate::new(2_000, 7_000);
        let r = run(&Executor::default(), &t, &Q::Range(pred), &Aux::default());
        assert_eq!(r.row_ids, scalar::range_scan_active(&t, 0, pred));
    }

    #[test]
    fn parallel_aggregate_equals_serial_aggregate() {
        let t = random_table(100_000);
        let pred = Some(RangePredicate::new(1_000, 9_000));
        for kind in AggKind::ALL {
            let (want, _) = scalar::aggregate_active(&t, 0, pred, kind);
            let got = agg(&Executor::default(), &t, kind, pred, &Aux::default());
            match (want, got) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{kind:?}"),
                (a, b) => assert_eq!(a, b, "{kind:?}"),
            }
        }
    }

    #[test]
    fn empty_and_tiny_tables() {
        let ex = Executor::default();
        let t = Table::new(Schema::single("a"));
        let r = run(
            &ex,
            &t,
            &Q::Range(RangePredicate::new(0, 10)),
            &Aux::default(),
        );
        assert!(r.row_ids.is_empty());
        let count = run(
            &ex,
            &t,
            &Q::Aggregate {
                kind: AggKind::Count,
                predicate: None,
            },
            &Aux::default(),
        );
        assert_eq!(count.rows, vec![vec![Scalar::Int(0)]]);
        assert_eq!(count.stats.rows_scanned, 0);

        let mut tiny = Table::new(Schema::single("a"));
        tiny.insert_batch(&[5], 0).unwrap();
        let r = run(
            &ex,
            &tiny,
            &Q::Range(RangePredicate::new(0, 10)),
            &Aux::default(),
        );
        assert_eq!(r.row_ids, vec![RowId(0)]);
    }

    #[test]
    fn parallel_compressed_scan_equals_serial() {
        let t = random_table(100_000);
        let seg = t.compress_column(0);
        assert!(seg.frozen_segments() > 8);
        let pred = RangePredicate::new(2_000, 7_000);
        let want = scalar::range_scan_active(&t, 0, pred);
        assert_eq!(kernels::range_scan_compressed(&t, &seg, pred), want);
        // The same column frozen in place answers identically on every
        // pool width.
        let mut frozen = t.clone();
        frozen.freeze_upto(t.num_rows());
        let r = run(
            &Executor::default(),
            &frozen,
            &Q::Range(pred),
            &Aux::default(),
        );
        assert_eq!(r.row_ids, want);
    }

    #[test]
    fn parallel_tiered_scan_and_aggregate_equal_serial() {
        let mut t = random_table(100_000);
        let pred = RangePredicate::new(2_000, 7_000);
        let want_rows = scalar::range_scan_active(&t, 0, pred);
        let want_aggs: Vec<_> = AggKind::ALL
            .iter()
            .map(|&kind| scalar::aggregate_active(&t, 0, Some(pred), kind))
            .collect();
        t.freeze_upto(90_000); // mixed: 87 frozen blocks + hot tail
        assert!(t.has_frozen());
        let ex = Executor::default();
        // Tiering never changes answers.
        let r = run(&ex, &t, &Q::Range(pred), &Aux::default());
        assert_eq!(r.row_ids, want_rows);
        for (kind, (want, want_scanned)) in AggKind::ALL.into_iter().zip(want_aggs) {
            let q = Q::Aggregate {
                kind,
                predicate: Some(pred),
            };
            let r = run(&ex, &t, &q, &Aux::default());
            match (want, r.rows[0][0].as_f64()) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{kind:?}"),
                (a, b) => assert_eq!(a, b, "{kind:?}"),
            }
            assert!(
                r.stats.rows_scanned <= want_scanned,
                "{kind:?}: block meta may only shrink scanned rows"
            );
        }
    }

    #[test]
    fn parallel_join_equals_serial_join() {
        let mut rng = SimRng::new(31);
        let mut left = Table::new(Schema::single("k"));
        let lvals: Vec<i64> = (0..40_000).map(|_| rng.range_i64(0, 2_000)).collect();
        left.insert_batch(&lvals, 0).unwrap();
        let mut right = Table::new(Schema::single("k"));
        let rvals: Vec<i64> = (0..60_000).map(|_| rng.range_i64(0, 2_000)).collect();
        right.insert_batch(&rvals, 0).unwrap();
        for _ in 0..10_000 {
            if let Some(r) = left.random_active(&mut rng) {
                left.forget(r, 1).unwrap();
            }
            if let Some(r) = right.random_active(&mut rng) {
                right.forget(r, 1).unwrap();
            }
        }
        // COUNT(*) GROUP BY the join key: one output row per key with its
        // pair count, in first-seen probe order.
        let plan = PhysicalPlan {
            scans: vec![PhysScan::default(), PhysScan::default()],
            join: Some(JoinSpec {
                left_col: 0,
                right_col: 0,
                display: "l.k = r.k".into(),
            }),
            items: vec![PhysItem::Aggregate {
                kind: AggKind::Count,
                arg: None,
                display: "count".into(),
            }],
            group_by: Some((1, 0, "r.k".into())),
            order_by: None,
            limit: None,
            hint: PlanHint::SyntacticOrder,
        };
        let ex = Executor::default();
        let want = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        let hot = run_plan(&ex, &[&left, &right], &[], &plan);
        assert_eq!(hot.stats.join_pairs, want.stats.output_pairs);
        let total: i64 = hot.rows.iter().map(|r| r[0].as_int().unwrap()).sum();
        assert_eq!(total as usize, want.pairs.len());
        // Frozen sides: morsels at tier boundaries, same pairs.
        right.freeze_upto(50_000);
        left.freeze_upto(30_000);
        assert!(right.has_frozen() && left.has_frozen());
        let frozen = run_plan(&ex, &[&left, &right], &[], &plan);
        assert_eq!(frozen.rows, hot.rows);
        assert_eq!(frozen.stats.join_pairs, want.stats.output_pairs);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let t = random_table(10);
        let pred = RangePredicate::new(0, 10_000);
        let plan = PhysicalPlan::from_query(0, &Q::Range(pred));
        let par = Executor::default()
            .with_exec_mode(ExecMode::Parallel(128))
            .execute_plan(&[&t], &[], &plan);
        assert_eq!(par.row_ids, scalar::range_scan_active(&t, 0, pred));
    }
}
