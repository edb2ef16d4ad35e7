//! Query execution over amnesiac tables.
//!
//! The paper sketches three execution regimes for forgotten data (§1):
//! delete it, stop indexing it ("a complete scan will fetch all data, but a
//! fast index-based query evaluation will skip the forgotten data"), or
//! tier/summarize it. This crate provides the executor that realizes those
//! regimes over [`amnesia_columnar::Table`] — and, since the morsel
//! rewrite, runs every plan stage either serially or morsel-parallel with
//! byte-identical results.
//!
//! # The morsel pipeline
//!
//! Every [`physical::PhysicalPlan`] stage — selection scan, join
//! build/probe, grouped fold, projection gather, sort — executes as a
//! sequence of *morsels*: work units aligned to the storage tiers, so a
//! frozen block or a 64-row activity word never straddles two workers.
//!
//! ```text
//!   plan stage                 morsel scheduler              pipeline breaker
//!   ──────────                 ────────────────              ────────────────
//!   TieredColumn               ┌─ worker 0 ─┐ partial 0 ┐
//!   [B0|B1|B2|B3|hot tail] ──► ├─ worker 1 ─┤ partial 1 ├──► deterministic
//!    └──┬───┘└┬─┘ └──┬──┘      ├─   ...    ─┤    ...    │    merge in morsel
//!   block-run  │  word-aligned └─ worker n ─┘ partial n ┘    order ==
//!   morsels  morsel  row morsels   atomic cursors +          serial output
//!                                  work stealing
//! ```
//!
//! Workers pull morsels from per-worker atomic cursors (stealing from the
//! most-loaded peer when their range drains) and fold each morsel with
//! the *same* fused compressed-space kernel the serial path uses — so
//! parallelism adds zero block decodes. Per-worker partial state
//! (selection words, [`group::GroupTable`]s, pair buffers) merges at the
//! pipeline breakers in morsel order: selections stitch at word offsets,
//! gathers and join pairs concatenate by ascending row, group tables
//! merge by key then re-sort by global first-seen row, and the sort
//! breaker k-way-merges stably. [`morsel::ExecMode::Serial`] survives as
//! the equivalence oracle the tests hold the parallel path to.
//!
//! # Modules
//!
//! * [`batch`] — the word-at-a-time vectorized batch layer: selection
//!   masks over raw column slices and packed activity words, fused
//!   filter+aggregate, whole-word skips of forgotten regions,
//! * [`kernels`] — the scan / filter / aggregate entry points, built on
//!   [`batch`] (row-at-a-time references live in [`batch::scalar`]),
//! * [`physical`] — the **physical plan**: the one execution API every
//!   query surface lowers onto (tier-aware scans with pushed-down
//!   predicate conjunctions as 64-bit selection masks, tiered hash
//!   join, fused/grouped aggregation, projection gather, sort + limit);
//!   SQL's `BoundQuery::lower()` and the workload queries'
//!   [`PhysicalPlan::from_query`] both target it,
//! * [`morsel`] — the morsel-driven scheduler described above: span
//!   enumeration, the work-stealing worker pool, and the parallel
//!   operators with their deterministic merges,
//! * [`group`] — the vectorized hash group-by kernel, folding `GROUP BY`
//!   aggregates straight over compressed blocks,
//! * [`stats`] — block-statistics cardinality estimation: per-column
//!   pseudo-histograms from cached `BlockMeta`, predicate selectivity,
//!   codec-aware evaluation costs, and the conjunct ordering the
//!   executor runs (`selectivity × eval_cost`, ascending),
//! * [`cost`] — the abstract cost model (hot rows vs. cold fetches,
//!   per-codec predicate evaluation),
//! * [`exec`] — the [`exec::Executor`] tying it together: its one entry
//!   point, [`exec::Executor::execute_plan`], picks each scan's access
//!   path (full or tiered scan, zone-map pruned scan, sorted-index
//!   probe, word zones) under the [`cost`] model, runs serial or
//!   [`morsel::ExecMode::Parallel`], and reports [`exec::ExecStats`]
//!   for every query,
//! * [`join`] — hash equi-joins with per-visibility answers (the §2.2
//!   SELECT-PROJECT-JOIN subspace, and §5's referential precision),
//! * [`mode`] — forget-visibility modes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod cost;
pub mod exec;
pub mod group;
pub mod join;
pub mod kernels;
pub mod mode;
pub mod morsel;
pub mod physical;
pub mod stats;

pub use batch::{AggState, BATCH_ROWS};
pub use cost::CostModel;
pub use exec::{
    Aux, ExecResult, ExecStats, Executor, PhysResult, PredStat, QueryOutput, StageEstimate,
};
pub use group::GroupTable;
pub use join::{hash_join, hash_join_count, JoinResult, JoinStats};
pub use mode::ForgetVisibility;
pub use morsel::{ExecMode, SchedStats};
pub use physical::{ColPred, PhysItem, PhysScan, PhysicalPlan, PlanHint, Scalar, SortDir};
pub use stats::{estimate_scan_rows, order_predicates, q_error, ColumnStats, PredOrder};
