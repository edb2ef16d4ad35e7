//! What *physically* happens to forgotten tuples.
//!
//! Paper §1 lists the design space: "A DBMS might be as radical as to
//! delete all data being forgotten. A lighter and more feasible option is
//! to stop indexing the forgotten data … A more cost-effective option is
//! to move forgotten data to cheap slow cold-storage. Finally, a possibly
//! poor information retention approach would be to keep a summary."
//!
//! [`AmnesiacStore`] realizes all of them behind one insert/forget/query
//! API so the `ABL-FORGET` ablation can compare bytes resident, query cost
//! and recoverability under identical workloads.

use amnesia_columnar::vacuum::vacuum;
use amnesia_columnar::{
    ColdStore, DurabilityHook, Epoch, ModelStore, RowId, Schema, SortedIndex, SummaryStore, Table,
    Value, WalStats, WordZoneMap, ZoneMap,
};
use amnesia_engine::{
    Aux, CostModel, ExecResult, Executor, ForgetVisibility, PhysicalPlan, QueryOutput,
};
use amnesia_util::{Result, SimRng};
use amnesia_workload::Query;
use serde::{Deserialize, Serialize};

/// Physical fate of forgotten tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForgetMode {
    /// Mark inactive only (the simulator's measurable baseline).
    MarkOnly,
    /// Mark, then physically vacuum every `vacuum_every` batches.
    Delete {
        /// Batches between vacuum passes.
        vacuum_every: u64,
    },
    /// Keep tuples scannable but evict them from index structures; index
    /// paths skip them, full scans still see them.
    Deindex,
    /// Move tuple payloads to cold storage, then mark.
    Tier,
    /// Absorb tuples into per-epoch aggregate summaries, then mark and
    /// periodically vacuum (summaries replace the bytes).
    Summarize,
    /// Absorb tuples into per-epoch micro-models (paper §5 \[15\]): like
    /// `Summarize` but the histogram also interpolates *range-restricted*
    /// aggregates. `bins` sets the per-epoch histogram resolution.
    Model {
        /// Histogram buckets per epoch model.
        bins: usize,
    },
}

impl ForgetMode {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ForgetMode::MarkOnly => "mark-only",
            ForgetMode::Delete { .. } => "delete",
            ForgetMode::Deindex => "deindex",
            ForgetMode::Tier => "tier",
            ForgetMode::Summarize => "summarize",
            ForgetMode::Model { .. } => "model",
        }
    }
}

/// Storage accounting snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreFootprint {
    /// Physical rows in the hot table (active + still-marked).
    pub hot_rows: usize,
    /// Active rows.
    pub active_rows: usize,
    /// Approximate resident bytes (table + index + zone map). Frozen
    /// blocks count at their *compressed* size.
    pub hot_bytes: usize,
    /// Compressed bytes held by frozen tier blocks (part of
    /// `hot_bytes`).
    pub bytes_frozen: usize,
    /// Tuples parked in cold storage.
    pub cold_rows: usize,
    /// Cold storage bytes.
    pub cold_bytes: u64,
    /// Summary bytes.
    pub summary_bytes: usize,
    /// Micro-model bytes.
    pub model_bytes: usize,
}

/// Tier scheduling configuration: how many of the newest rows stay hot
/// (uncompressed) when the store freezes its cold prefix at batch
/// boundaries, and when heavily-forgotten frozen blocks re-encode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierConfig {
    /// Rows kept hot at the tail (rounded up to a block boundary by the
    /// freeze).
    pub hot_rows: usize,
    /// Recompress frozen blocks whose active fraction drops to this or
    /// below (0.5 = half forgotten).
    pub recompress_below: f64,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            hot_rows: 4_096,
            recompress_below: 0.5,
        }
    }
}

/// A table plus the machinery that executes its forget mode.
pub struct AmnesiacStore {
    table: Table,
    mode: ForgetMode,
    executor: Executor,
    index: Option<SortedIndex>,
    zonemap: Option<ZoneMap>,
    word_zones: Option<WordZoneMap>,
    cold: Option<Box<dyn ColdStore>>,
    summaries: SummaryStore,
    models: Option<ModelStore>,
    batches_since_vacuum: u64,
    total_forgotten: u64,
    tiering: Option<TierConfig>,
    blocks_dropped: u64,
    blocks_recompressed: u64,
    durability: Option<Box<dyn DurabilityHook>>,
}

impl AmnesiacStore {
    /// New single-attribute store under `mode`.
    ///
    /// `Tier` mode requires a cold store: pass one with
    /// [`AmnesiacStore::with_cold_store`] before the first forget.
    pub fn new(mode: ForgetMode) -> Self {
        Self::from_table(Table::new(Schema::single("a")), mode)
    }

    /// Wrap an existing table (e.g. one recovered from a
    /// [`PersistentTable`](amnesia_columnar::PersistentTable)) under
    /// `mode`. Auxiliary structures start empty; enable them with the
    /// usual `with_*` builders, which build from the given table.
    pub fn from_table(table: Table, mode: ForgetMode) -> Self {
        let visibility = match mode {
            ForgetMode::Deindex => ForgetVisibility::ScanSeesForgotten,
            _ => ForgetVisibility::ActiveOnly,
        };
        Self {
            table,
            mode,
            executor: Executor::new(visibility, CostModel::default()),
            index: None,
            zonemap: None,
            word_zones: None,
            cold: None,
            summaries: SummaryStore::new(),
            models: match mode {
                ForgetMode::Model { bins } => Some(ModelStore::new(bins)),
                _ => None,
            },
            batches_since_vacuum: 0,
            total_forgotten: 0,
            tiering: None,
            blocks_dropped: 0,
            blocks_recompressed: 0,
            durability: None,
        }
    }

    /// Attach a cold store (required for `Tier`).
    pub fn with_cold_store(mut self, cold: Box<dyn ColdStore>) -> Self {
        self.cold = Some(cold);
        self
    }

    /// Attach a durability hook (typically a
    /// [`DurableLog`](amnesia_columnar::DurableLog) split off a
    /// [`PersistentTable`](amnesia_columnar::PersistentTable) via
    /// `into_parts`). Every insert, forget and tier transition is logged
    /// *before* it is applied; [`AmnesiacStore::end_batch`] commits the
    /// batch, checkpoints after a vacuum (vacuums renumber rows and are
    /// not replayable) and shreds covered segments after a block drop so
    /// forgotten values' encoded bytes do not outlive the drop.
    pub fn with_durability(mut self, hook: Box<dyn DurabilityHook>) -> Self {
        self.durability = Some(hook);
        self
    }

    /// Cumulative counters of the attached durability hook, if any.
    pub fn durability_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(|d| d.stats())
    }

    /// Restore the cumulative tier-transition counters (used when resuming
    /// a store from a recovered table, so `metrics_snapshot` keeps
    /// counting from the pre-crash totals).
    pub fn restore_tier_counters(&mut self, blocks_dropped: u64, blocks_recompressed: u64) {
        self.blocks_dropped = blocks_dropped;
        self.blocks_recompressed = blocks_recompressed;
    }

    /// Give the durability hook back (e.g. to checkpoint and close
    /// cleanly), detaching it from the store.
    pub fn take_durability(&mut self) -> Option<Box<dyn DurabilityHook>> {
        self.durability.take()
    }

    /// Enable tiered freeze scheduling: at every batch boundary the store
    /// compresses all but the newest `cfg.hot_rows` rows in place
    /// ([`Table::freeze_upto`]), drops the payloads of fully-forgotten
    /// frozen blocks, and recompresses blocks whose active fraction fell
    /// below `cfg.recompress_below`.
    ///
    /// Ignored under `Deindex` mode: its complete-scan regime must keep
    /// reading forgotten tuples, which block drops and recompression
    /// would rewrite.
    pub fn with_tiering(mut self, cfg: TierConfig) -> Self {
        self.tiering = Some(cfg);
        self
    }

    /// Enable a sorted index (rebuilt on vacuum, staleness-tracked).
    pub fn with_index(mut self) -> Self {
        self.index = Some(SortedIndex::build(&self.table, 0));
        self
    }

    /// Enable a zone map.
    pub fn with_zonemap(mut self) -> Self {
        self.zonemap = Some(ZoneMap::build(&self.table, 0));
        self
    }

    /// Enable a word-granularity zone map: scans skip 64-row words whose
    /// min/max can't intersect the predicate, on top of block pruning.
    pub fn with_word_zones(mut self) -> Self {
        self.word_zones = Some(WordZoneMap::build(&self.table, 0));
        self
    }

    /// The forget mode.
    pub fn mode(&self) -> ForgetMode {
        self.mode
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Total tuples forgotten through this store.
    pub fn total_forgotten(&self) -> u64 {
        self.total_forgotten
    }

    /// Insert a batch of values at `epoch`.
    pub fn insert_batch(&mut self, values: &[Value], epoch: Epoch) -> Result<()> {
        if let Some(d) = &mut self.durability {
            // Validate before logging: a record the table would reject
            // must never reach the WAL, or replay would fail on it and
            // brick every future recovery.
            self.table.validate_insert_batch()?;
            let rows: Vec<Vec<Value>> = values.iter().map(|&v| vec![v]).collect();
            d.log_insert_rows(&rows, epoch)?;
        }
        self.table.insert_batch(values, epoch)?;
        // Both zone maps are dead weight once blocks are frozen: the
        // executor switches to the tier's built-in block meta, and a
        // rebuild would pay per-row point reads into compressed blocks.
        if let Some(zm) = &mut self.zonemap {
            if !self.table.has_frozen() {
                zm.sync(&self.table);
            }
        }
        // Word zones are dead weight once blocks are frozen (the executor
        // switches to block-meta pruning) — skip the full-column decode
        // their rebuild would cost.
        if let Some(wz) = &mut self.word_zones {
            if !self.table.has_frozen() {
                wz.sync(&self.table);
            }
        }
        if let Some(idx) = &mut self.index {
            idx.rebuild(&self.table);
        }
        Ok(())
    }

    /// Forget one tuple at `epoch`, applying the mode's physical action.
    pub fn forget(&mut self, row: RowId, epoch: Epoch) -> Result<()> {
        if let Some(d) = &mut self.durability {
            self.table.validate_forget(row)?;
            d.log_forget(row, epoch)?;
        }
        match self.mode {
            ForgetMode::MarkOnly | ForgetMode::Delete { .. } | ForgetMode::Deindex => {}
            ForgetMode::Tier => {
                let values = self.table.row_values(row);
                if let Some(cold) = &mut self.cold {
                    cold.archive(row, &values)?;
                }
            }
            ForgetMode::Summarize => {
                let v = self.table.value(0, row);
                self.summaries.absorb(self.table.insert_epoch(row), v);
            }
            ForgetMode::Model { .. } => {
                let v = self.table.value(0, row);
                if let Some(models) = &mut self.models {
                    models.absorb(self.table.insert_epoch(row), v);
                }
            }
        }
        if self.table.forget(row, epoch)? {
            self.total_forgotten += 1;
            if let Some(zm) = &mut self.zonemap {
                zm.note_forget(row);
            }
            if let Some(wz) = &mut self.word_zones {
                wz.note_forget(row);
            }
            if let Some(idx) = &mut self.index {
                idx.note_forget();
            }
        }
        Ok(())
    }

    /// Forget many tuples.
    pub fn forget_batch(&mut self, rows: &[RowId], epoch: Epoch) -> Result<()> {
        for &r in rows {
            self.forget(r, epoch)?;
        }
        Ok(())
    }

    /// Batch boundary: vacuum if the mode schedules it, refresh auxiliary
    /// structures.
    pub fn end_batch(&mut self) -> Result<()> {
        self.batches_since_vacuum += 1;
        if let Some(models) = &mut self.models {
            models.seal();
        }
        let vacuum_due = match self.mode {
            ForgetMode::Delete { vacuum_every } => self.batches_since_vacuum >= vacuum_every,
            // Summaries and models replace the bytes: reclaim aggressively.
            ForgetMode::Summarize | ForgetMode::Model { .. } => true,
            _ => false,
        };
        if vacuum_due && self.table.forgotten_rows() > 0 {
            let result = vacuum(&self.table);
            self.table = result.table;
            self.batches_since_vacuum = 0;
            // A vacuum renumbers rows, which no WAL replay can reproduce:
            // re-anchor durability on a fresh snapshot of the compacted
            // table instead.
            if let Some(d) = &mut self.durability {
                d.checkpoint(&self.table)?;
            }
            if let Some(idx) = &mut self.index {
                idx.rebuild(&self.table);
            }
            if let Some(zm) = &mut self.zonemap {
                *zm = ZoneMap::build_with_block_rows(&self.table, 0, zm.block_rows());
            }
            if let Some(wz) = &mut self.word_zones {
                if !self.table.has_frozen() {
                    wz.sync(&self.table);
                }
            }
        } else {
            if let Some(zm) = &mut self.zonemap {
                if !self.table.has_frozen() {
                    zm.sync(&self.table);
                }
            }
            if let Some(wz) = &mut self.word_zones {
                if !self.table.has_frozen() {
                    wz.sync(&self.table);
                }
            }
            if let Some(idx) = &mut self.index {
                if idx.needs_rebuild(0.25) {
                    idx.rebuild(&self.table);
                }
            }
        }
        // Tier scheduling: freeze the cold prefix in place, drop dead
        // blocks, recompress heavily-forgotten ones. Gated off the
        // complete-scan regime (Deindex), whose scans must keep reading
        // forgotten tuples.
        if let Some(cfg) = self.tiering {
            if self.executor.mode() == ForgetVisibility::ActiveOnly {
                let n = self.table.num_rows();
                let upto = n.saturating_sub(cfg.hot_rows);
                // Tier transitions log their *parameters* ahead of the
                // mutation; replay re-runs the same deterministic calls.
                if let Some(d) = &mut self.durability {
                    d.log_freeze(upto)?;
                    d.log_drop_blocks()?;
                    d.log_recompress(cfg.recompress_below)?;
                }
                self.table.freeze_upto(upto);
                let (dropped, _) = self.table.drop_forgotten_blocks();
                self.blocks_dropped += dropped as u64;
                let (recompressed, _) = self.table.recompress_frozen(cfg.recompress_below);
                self.blocks_recompressed += recompressed as u64;
                if let Some(d) = &mut self.durability {
                    d.note_transition_results(dropped as u64, recompressed as u64);
                    if dropped > 0 {
                        // Amnesia must reach the log too: snapshot the
                        // post-drop state and destroy the covered
                        // segments, where the dropped values' encodings
                        // still live.
                        d.shred(&self.table)?;
                    }
                }
            }
        }
        if let Some(d) = &mut self.durability {
            d.commit()?;
        }
        Ok(())
    }

    /// Forget every remaining active row of frozen block `b` (a
    /// block-level amnesia decision — see
    /// [`AmnesiaPolicy::select_victim_blocks`](crate::policy::AmnesiaPolicy::select_victim_blocks))
    /// and immediately drop its payload. Returns the rows forgotten.
    pub fn forget_block(&mut self, b: usize, epoch: Epoch) -> Result<usize> {
        let block_rows = self.table.block_rows();
        if b >= self.table.frozen_blocks() {
            return Ok(0);
        }
        let lo = b * block_rows;
        let hi = (lo + block_rows).min(self.table.num_rows());
        let victims: Vec<RowId> = (lo..hi)
            .map(RowId::from)
            .filter(|&r| self.table.activity().is_active(r))
            .collect();
        for &r in &victims {
            self.forget(r, epoch)?;
        }
        if let Some(d) = &mut self.durability {
            d.log_drop_blocks()?;
        }
        let (dropped, _) = self.table.drop_forgotten_blocks();
        self.blocks_dropped += dropped as u64;
        if let Some(d) = &mut self.durability {
            d.note_transition_results(dropped as u64, 0);
            if dropped > 0 {
                d.shred(&self.table)?;
            }
        }
        Ok(victims.len())
    }

    /// Execute a query with the mode's visibility and auxiliary
    /// structures: the query lowers onto a one-scan physical plan
    /// ([`PhysicalPlan::from_query`]) that the executor's one entry
    /// point runs.
    pub fn query(&self, q: &Query) -> ExecResult {
        let aux = Aux {
            zonemap: self.zonemap.as_ref(),
            word_zones: self.word_zones.as_ref(),
            index: self.index.as_ref(),
            summaries: matches!(self.mode, ForgetMode::Summarize).then_some(&self.summaries),
            models: self.models.as_ref(),
        };
        let plan = PhysicalPlan::from_query(0, q);
        let res = self.executor.execute_plan(&[&self.table], &[aux], &plan);
        let output = match q {
            Query::Aggregate { .. } => QueryOutput::Agg(res.rows[0][0].as_f64()),
            Query::Range(_) | Query::Point(_) => QueryOutput::Rows(res.row_ids),
        };
        ExecResult {
            output,
            stats: res.stats,
        }
    }

    /// Explicitly recover a tuple from cold storage (paper §5: cold data
    /// only returns through deliberate user action).
    pub fn recover_from_cold(&mut self, row: RowId) -> Result<Option<Vec<Value>>> {
        match &mut self.cold {
            Some(cold) => cold.fetch(row),
            None => Ok(None),
        }
    }

    /// Pick a uniformly random active row (for driving test workloads).
    pub fn random_active(&self, rng: &mut SimRng) -> Option<RowId> {
        self.table.random_active(rng)
    }

    /// Storage accounting.
    pub fn footprint(&self) -> StoreFootprint {
        StoreFootprint {
            hot_rows: self.table.num_rows(),
            active_rows: self.table.active_rows(),
            hot_bytes: self.table.memory_bytes()
                + self.index.as_ref().map_or(0, SortedIndex::memory_bytes)
                + self.zonemap.as_ref().map_or(0, ZoneMap::memory_bytes)
                + self
                    .word_zones
                    .as_ref()
                    .map_or(0, WordZoneMap::memory_bytes),
            bytes_frozen: self.table.bytes_frozen(),
            cold_rows: self.cold.as_ref().map_or(0, |c| c.len()),
            cold_bytes: self.cold.as_ref().map_or(0, |c| c.bytes_used()),
            summary_bytes: self.summaries.memory_bytes(),
            model_bytes: self.models.as_ref().map_or(0, ModelStore::memory_bytes),
        }
    }

    /// Tier-aware metrics snapshot: resident bytes, frozen-block
    /// accounting and the overall compression ratio — what budget- and
    /// cost-based policies watch to see compression actually postponing
    /// forgetting.
    pub fn metrics_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        crate::metrics::MetricsSnapshot {
            total_rows: self.table.num_rows(),
            active_rows: self.table.active_rows(),
            resident_bytes: self.table.memory_bytes(),
            bytes_frozen: self.table.bytes_frozen(),
            frozen_blocks: self.table.frozen_blocks(),
            blocks_dropped: self.blocks_dropped,
            blocks_recompressed: self.blocks_recompressed,
            dropped_rows: self.table.dropped_rows(),
            compression_ratio: self.table.compression_ratio(),
            block_accesses: self.table.block_accesses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::{MemoryColdStore, SummaryStore};
    use amnesia_workload::query::{AggKind, RangePredicate};

    fn run_forgetting(mode: ForgetMode) -> AmnesiacStore {
        let mut store = AmnesiacStore::new(mode);
        if matches!(mode, ForgetMode::Tier) {
            store = store.with_cold_store(Box::new(MemoryColdStore::new()));
        }
        store
            .insert_batch(&(0..100).collect::<Vec<i64>>(), 0)
            .unwrap();
        // Forget the first half over two batches.
        store
            .forget_batch(&(0..25).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store.end_batch().unwrap();
        store
            .forget_batch(&(25..50).map(RowId).collect::<Vec<_>>(), 2)
            .unwrap();
        store.end_batch().unwrap();
        store
    }

    #[test]
    fn point_query_reaches_the_domain_edge() {
        // `Point(i64::MAX)` is the inclusive range [MAX, MAX]; the
        // half-open form `[MAX, MAX + 1)` cannot express it.
        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly);
        store
            .insert_batch(&[i64::MIN, -1, 0, i64::MAX, i64::MAX], 0)
            .unwrap();
        store.forget(RowId(4), 1).unwrap();
        let rows = |q: Query| store.query(&q).output.rows().unwrap().to_vec();
        assert_eq!(rows(Query::Point(i64::MAX)), vec![RowId(3)]);
        assert_eq!(rows(Query::Point(i64::MIN)), vec![RowId(0)]);
        assert_eq!(rows(Query::Point(0)), vec![RowId(2)]);
    }

    #[test]
    fn word_zones_ride_along_and_prune() {
        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly).with_word_zones();
        store
            .insert_batch(&(0..10_000).collect::<Vec<i64>>(), 0)
            .unwrap();
        store
            .forget_batch(&(0..500).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store.end_batch().unwrap();
        let q = Query::Range(RangePredicate::new(6_000, 6_100));
        let r = store.query(&q);
        let expect: Vec<RowId> = (6_000..6_100).map(RowId).collect();
        assert_eq!(r.output.rows().unwrap(), expect);
        assert!(r.stats.words_pruned > 140, "{}", r.stats.words_pruned);
    }

    #[test]
    fn mark_only_keeps_bytes() {
        let store = run_forgetting(ForgetMode::MarkOnly);
        let fp = store.footprint();
        assert_eq!(fp.hot_rows, 100);
        assert_eq!(fp.active_rows, 50);
        assert_eq!(store.total_forgotten(), 50);
    }

    #[test]
    fn delete_reclaims_rows() {
        let store = run_forgetting(ForgetMode::Delete { vacuum_every: 1 });
        let fp = store.footprint();
        assert_eq!(fp.hot_rows, 50, "vacuum removed the forgotten rows");
        assert_eq!(fp.active_rows, 50);
    }

    #[test]
    fn tier_archives_payloads_and_recovers_them() {
        let mut store = run_forgetting(ForgetMode::Tier);
        let fp = store.footprint();
        assert_eq!(fp.cold_rows, 50);
        assert!(fp.cold_bytes > 0);
        // Forgotten values never appear in queries…
        let r = store.query(&Query::Range(RangePredicate::new(0, 50)));
        assert_eq!(r.output.cardinality(), 0);
        // …but can be explicitly recovered.
        let values = store.recover_from_cold(RowId(7)).unwrap();
        assert_eq!(values, Some(vec![7]));
        assert_eq!(store.recover_from_cold(RowId(99)).unwrap(), None);
    }

    #[test]
    fn summarize_answers_whole_table_aggregates_exactly() {
        let store = run_forgetting(ForgetMode::Summarize);
        // Hot bytes shrink (vacuumed) but the whole-table average is exact.
        let fp = store.footprint();
        assert_eq!(fp.hot_rows, 50);
        assert!(fp.summary_bytes > 0);
        let avg = store
            .query(&Query::Aggregate {
                kind: AggKind::Avg,
                predicate: None,
            })
            .output
            .agg()
            .unwrap();
        assert_eq!(avg, Some(49.5), "exact average over all 100 values");
        let count = store
            .query(&Query::Aggregate {
                kind: AggKind::Count,
                predicate: None,
            })
            .output
            .agg()
            .unwrap();
        assert_eq!(count, Some(100.0));
    }

    #[test]
    fn model_mode_recovers_ranged_aggregates_approximately() {
        let store = run_forgetting(ForgetMode::Model { bins: 16 });
        let fp = store.footprint();
        assert_eq!(fp.hot_rows, 50, "models vacuum like summarize");
        assert!(fp.model_bytes > 0);
        assert_eq!(
            fp.summary_bytes,
            SummaryStore::new().memory_bytes(),
            "summary store stays empty in model mode"
        );
        // Whole-table aggregates are exact (model totals are exact).
        let avg = store
            .query(&Query::Aggregate {
                kind: AggKind::Avg,
                predicate: None,
            })
            .output
            .agg()
            .unwrap();
        assert_eq!(avg, Some(49.5));
        // Ranged COUNT over [0, 50) — all 50 forgotten values: the
        // histogram estimate lands near the truth where summarize would
        // answer 0.
        let count = store
            .query(&Query::Aggregate {
                kind: AggKind::Count,
                predicate: Some(RangePredicate::new(0, 50)),
            })
            .output
            .agg()
            .unwrap()
            .unwrap();
        assert!((count - 50.0).abs() < 5.0, "ranged count {count}");
    }

    #[test]
    fn deindex_full_scans_still_see_forgotten_data() {
        let store = run_forgetting(ForgetMode::Deindex);
        let r = store.query(&Query::Range(RangePredicate::new(0, 50)));
        // Scan path: complete answer including forgotten tuples.
        assert_eq!(r.output.cardinality(), 50);
    }

    #[test]
    fn index_is_maintained_through_vacuum() {
        let mut store = AmnesiacStore::new(ForgetMode::Delete { vacuum_every: 1 }).with_index();
        store
            .insert_batch(&(0..1000).collect::<Vec<i64>>(), 0)
            .unwrap();
        store
            .forget_batch(&(0..500).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store.end_batch().unwrap();
        // After vacuum row ids changed; the index was rebuilt, so a probe
        // must return exactly the surviving values.
        let r = store.query(&Query::Range(RangePredicate::new(400, 600)));
        assert_eq!(r.output.cardinality(), 100, "values 500..600 survive");
    }

    #[test]
    fn tiering_freezes_cold_prefix_and_shrinks_resident_bytes() {
        let mut plain = AmnesiacStore::new(ForgetMode::MarkOnly);
        let mut tiered = AmnesiacStore::new(ForgetMode::MarkOnly).with_tiering(TierConfig {
            hot_rows: 2_048,
            recompress_below: 0.5,
        });
        let values: Vec<i64> = (0..50_000).collect();
        plain.insert_batch(&values, 0).unwrap();
        tiered.insert_batch(&values, 0).unwrap();
        plain.end_batch().unwrap();
        tiered.end_batch().unwrap();
        let snap = tiered.metrics_snapshot();
        assert!(snap.frozen_blocks >= 46, "{}", snap.frozen_blocks);
        assert!(snap.bytes_frozen > 0);
        assert!(snap.compression_ratio > 2.0, "{}", snap.compression_ratio);
        assert!(
            tiered.footprint().hot_bytes < plain.footprint().hot_bytes,
            "tiered {} vs plain {}",
            tiered.footprint().hot_bytes,
            plain.footprint().hot_bytes
        );
        assert_eq!(tiered.footprint().bytes_frozen, snap.bytes_frozen);
        // Queries answer identically through the tiers.
        let q = Query::Range(RangePredicate::new(10_000, 10_100));
        assert_eq!(tiered.query(&q).output, plain.query(&q).output);
        let agg = Query::Aggregate {
            kind: AggKind::Sum,
            predicate: Some(RangePredicate::new(0, 25_000)),
        };
        assert_eq!(tiered.query(&agg).output, plain.query(&agg).output);
    }

    #[test]
    fn tiering_drops_dead_blocks_and_recompresses_rotten_ones() {
        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly).with_tiering(TierConfig {
            hot_rows: 0,
            recompress_below: 0.6,
        });
        // Block 1 interleaves a constant survivor value with serial
        // noise, so forgetting the noise lets recompression collapse it.
        let values: Vec<i64> = (0..4_096)
            .map(|i| {
                if (1_024..2_048).contains(&i) && i % 2 == 1 {
                    100_000
                } else {
                    i
                }
            })
            .collect();
        store.insert_batch(&values, 0).unwrap();
        store.end_batch().unwrap();
        assert_eq!(store.metrics_snapshot().frozen_blocks, 4);
        // Kill block 0 entirely, the noisy half of block 1.
        store
            .forget_batch(&(0..1_024).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store
            .forget_batch(
                &(1_024..2_048)
                    .filter(|r| r % 2 == 0)
                    .map(RowId)
                    .collect::<Vec<_>>(),
                1,
            )
            .unwrap();
        let before = store.metrics_snapshot().bytes_frozen;
        store.end_batch().unwrap();
        let snap = store.metrics_snapshot();
        assert_eq!(snap.blocks_dropped, 1);
        assert!(snap.blocks_recompressed >= 1);
        assert!(snap.bytes_frozen < before);
        // Survivors still answer.
        let r = store.query(&Query::Range(RangePredicate::new(100_000, 100_001)));
        assert_eq!(r.output.cardinality(), 512, "block 1 survivors");
    }

    #[test]
    fn dropped_blocks_report_separately_instead_of_inflating_ratio() {
        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly).with_tiering(TierConfig {
            hot_rows: 0,
            recompress_below: 0.0,
        });
        // Incompressible values keep the honest codec ratio near 1.
        let values: Vec<i64> = (0..4_096).map(|i| (i * 0x9E37_79B9) ^ (i << 19)).collect();
        store.insert_batch(&values, 0).unwrap();
        store.end_batch().unwrap();
        let honest = store.metrics_snapshot().compression_ratio;
        assert_eq!(store.metrics_snapshot().dropped_rows, 0);
        // Forget and drop 3 of 4 blocks.
        store
            .forget_batch(&(0..3_072).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store.end_batch().unwrap();
        let snap = store.metrics_snapshot();
        assert_eq!(snap.blocks_dropped, 3);
        assert_eq!(snap.dropped_rows, 3_072, "amnesia savings report as rows");
        assert!(
            snap.compression_ratio < honest * 1.5,
            "codec ratio must not absorb drop savings: {} vs {honest}",
            snap.compression_ratio
        );
    }

    #[test]
    fn forget_block_drops_whole_blocks_via_policy_candidates() {
        use crate::policy::{AmnesiaPolicy, PolicyContext, UniformPolicy};
        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly).with_tiering(TierConfig {
            hot_rows: 0,
            recompress_below: 0.0,
        });
        store
            .insert_batch(&(0..3_072).collect::<Vec<i64>>(), 0)
            .unwrap();
        store.end_batch().unwrap();
        // Make block 1 the cheapest to evict.
        store
            .forget_batch(
                &(1_024..2_048)
                    .filter(|r| r % 4 != 0)
                    .map(RowId)
                    .collect::<Vec<_>>(),
                1,
            )
            .unwrap();
        let mut rng = SimRng::new(5);
        let mut policy = UniformPolicy;
        let ctx = PolicyContext {
            table: store.table(),
            epoch: 2,
        };
        let blocks = policy.select_victim_blocks(&ctx, 1, &mut rng);
        assert_eq!(blocks, vec![1], "fewest active rows first");
        let forgotten = store.forget_block(1, 2).unwrap();
        assert_eq!(forgotten, 256, "the surviving quarter");
        assert_eq!(store.metrics_snapshot().blocks_dropped, 1);
        let r = store.query(&Query::Range(RangePredicate::new(1_024, 2_048)));
        assert_eq!(r.output.cardinality(), 0, "whole block forgotten");
        assert_eq!(
            store
                .query(&Query::Range(RangePredicate::new(0, 1_024)))
                .output
                .cardinality(),
            1_024,
            "neighbours untouched"
        );
    }

    #[test]
    fn durable_store_recovers_exact_tier_layout() {
        use crate::metrics::MetricsSnapshot;
        use amnesia_columnar::PersistentTable;
        let dir = std::env::temp_dir().join(format!("amn-store-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        let (table, log) = pt.into_parts();
        let mut store = AmnesiacStore::from_table(table, ForgetMode::MarkOnly)
            .with_durability(Box::new(log))
            .with_tiering(TierConfig {
                hot_rows: 0,
                recompress_below: 0.5,
            });
        store
            .insert_batch(&(0..4_096).collect::<Vec<i64>>(), 0)
            .unwrap();
        store.end_batch().unwrap();
        // Kill block 0 (dropped + shredded at the batch boundary) and rot
        // most of block 1 (recompressed).
        store
            .forget_batch(&(0..1_024).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store
            .forget_batch(
                &(1_024..2_048)
                    .filter(|r| r % 4 != 0)
                    .map(RowId)
                    .collect::<Vec<_>>(),
                1,
            )
            .unwrap();
        store.end_batch().unwrap();
        // Tail work after the shred: replayed from the log, not the
        // snapshot.
        store
            .insert_batch(&(0..100).collect::<Vec<i64>>(), 2)
            .unwrap();
        store.forget(RowId(4_100), 2).unwrap();
        let snap = store.metrics_snapshot();
        assert!(snap.blocks_dropped >= 1, "{snap:?}");
        assert!(snap.blocks_recompressed >= 1, "{snap:?}");
        drop(store);

        let rec = PersistentTable::open(&dir).unwrap();
        assert!(rec.recovered_clean());
        let mut recovered = MetricsSnapshot::from_table(
            rec.table(),
            rec.blocks_dropped(),
            rec.blocks_recompressed(),
        );
        // Heap accounting tracks allocation history (Vec growth), which a
        // rebuild legitimately differs on — everything logical must match
        // exactly, resident bytes within a whisker.
        let drift = (recovered.resident_bytes as f64 - snap.resident_bytes as f64).abs()
            / snap.resident_bytes as f64;
        assert!(drift < 0.02, "resident bytes drift {drift}");
        recovered.resident_bytes = snap.resident_bytes;
        recovered.compression_ratio = snap.compression_ratio;
        assert_eq!(
            recovered, snap,
            "recovered tier layout must match pre-crash"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footprint_shrinks_most_under_summarize() {
        let mark = run_forgetting(ForgetMode::MarkOnly).footprint();
        let del = run_forgetting(ForgetMode::Delete { vacuum_every: 1 }).footprint();
        let summ = run_forgetting(ForgetMode::Summarize).footprint();
        assert!(del.hot_rows < mark.hot_rows);
        assert!(summ.hot_rows <= del.hot_rows);
        assert!(summ.summary_bytes < 1024);
    }
}
