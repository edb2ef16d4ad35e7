//! Vectorized scan and aggregate kernels.
//!
//! These are the tight loops underneath every query: filter a column by a
//! range predicate intersected with the activity bitmap, or fold an
//! aggregate over the selection. Since the word-at-a-time rewrite they are
//! thin entry points over [`crate::batch`]: raw column slices, packed
//! activity words, branch-light selection masks, and whole-word skips for
//! all-forgotten regions. The row-at-a-time originals survive as
//! [`crate::batch::scalar`] for equivalence tests and benchmarks.

use amnesia_columnar::compress::BlockAgg;
use amnesia_columnar::{RowId, SegmentedColumn, Table, Value, WordZoneMap};
use amnesia_util::WORD_BITS;
use amnesia_workload::query::RangePredicate;

use crate::batch;
use crate::physical::ColPred;

pub use crate::batch::{AggState, TierStats, ZoneStats};

/// Collect active rows of `col` matching `pred` (insertion order).
/// Tier-aware: a column with frozen blocks takes the fused compressed
/// path per block; fully-hot columns take the flat slice kernel.
pub fn range_scan_active(table: &Table, col: usize, pred: RangePredicate) -> Vec<RowId> {
    if table.has_frozen() {
        return range_scan_tiered(table, col, pred).0;
    }
    let mut out = Vec::new();
    batch::scan_active_into(
        table.col_values(col),
        table.activity_words(),
        0,
        table.num_rows(),
        pred,
        &mut out,
    );
    out
}

/// Tier-aware scan with its pruning accounting: frozen blocks are
/// skipped by their cached meta before the payload is touched, and the
/// hot tail takes the raw-slice kernel. This is what the executor runs
/// (and reports `blocks_pruned` from) once a table has frozen blocks.
pub fn range_scan_tiered(
    table: &Table,
    col: usize,
    pred: RangePredicate,
) -> (Vec<RowId>, TierStats) {
    let mut out = Vec::new();
    let stats =
        batch::scan_tiered_active_into(table.col_tier(col), table.activity_words(), pred, &mut out);
    (out, stats)
}

/// Collect active matches restricted to the given physical blocks
/// (`block_rows` rows per block) — the zone-map pruned path. Each block is
/// scanned with the same word-masked batch kernel as full scans.
///
/// On a frozen table this delegates to the fused tiered scan (whose
/// built-in block meta prunes equivalently) and restricts the result to
/// the requested blocks — the external zone map's blocks need not align
/// with tier blocks, and per-row point access into compressed blocks
/// would be quadratic. The executor prefers the tiered scan outright
/// once anything is frozen.
pub fn range_scan_blocks(
    table: &Table,
    col: usize,
    pred: RangePredicate,
    blocks: &[usize],
    block_rows: usize,
) -> Vec<RowId> {
    let mut out = Vec::new();
    let n = table.num_rows();
    if table.has_frozen() {
        let mut wanted = blocks.to_vec();
        wanted.sort_unstable();
        let (rows, _) = range_scan_tiered(table, col, pred);
        return rows
            .into_iter()
            .filter(|r| wanted.binary_search(&(r.as_usize() / block_rows)).is_ok())
            .collect();
    }
    let values = table.col_values(col);
    let words = table.activity_words();
    for &b in blocks {
        let lo = b * block_rows;
        let hi = (lo + block_rows).min(n);
        batch::scan_active_into(values, words, lo, hi, pred, &mut out);
    }
    out
}

/// Zone-pruned [`range_scan_active`]: identical rows, but words (and so
/// whole blocks) whose min/max can't intersect `pred` are skipped before
/// their values are touched. Returns the rows plus the pruning
/// accounting.
pub fn range_scan_active_zoned(
    table: &Table,
    col: usize,
    zones: &WordZoneMap,
    pred: RangePredicate,
) -> (Vec<RowId>, ZoneStats) {
    debug_assert_eq!(zones.column(), col, "zone map covers a different column");
    if table.has_frozen() {
        // Frozen columns carry their own block meta; the word-zone slice
        // no longer maps onto a flat value slice, so the tiered kernel
        // (identical results, block-granular pruning) takes over.
        let (rows, ts) = range_scan_tiered(table, col, pred);
        return (
            rows,
            ZoneStats {
                words_pruned: 0,
                rows_scanned: ts.rows_scanned,
            },
        );
    }
    let mut out = Vec::new();
    let stats = batch::scan_active_zoned_into(
        table.col_values(col),
        table.activity_words(),
        zones.zones(),
        0,
        table.num_rows(),
        pred,
        &mut out,
    );
    (out, stats)
}

/// Zone-pruned fused filter+aggregate (see
/// [`batch::aggregate_active_zoned`]).
pub fn aggregate_state_active_zoned(
    table: &Table,
    col: usize,
    zones: &WordZoneMap,
    pred: Option<RangePredicate>,
) -> (AggState, ZoneStats) {
    debug_assert_eq!(zones.column(), col, "zone map covers a different column");
    if table.has_frozen() {
        let (state, ts) = aggregate_state_tiered(table, col, pred);
        return (
            state,
            ZoneStats {
                words_pruned: 0,
                rows_scanned: ts.rows_scanned,
            },
        );
    }
    batch::aggregate_active_zoned(
        table.col_values(col),
        table.activity_words(),
        zones.zones(),
        0,
        table.num_rows(),
        pred,
    )
}

/// Scan a compressed snapshot of a column (see
/// [`Table::compress_column`]) without decompressing it: each frozen
/// block's codec evaluates the predicate in its own domain and the
/// resulting selection masks AND with the table's activity words.
pub fn range_scan_compressed(
    table: &Table,
    col: &SegmentedColumn,
    pred: RangePredicate,
) -> Vec<RowId> {
    let mut out = Vec::new();
    batch::scan_compressed_active_into(col, table.activity_words(), pred, &mut out);
    out
}

/// Count active matches in a compressed column without decompressing.
pub fn count_compressed(table: &Table, col: &SegmentedColumn, pred: RangePredicate) -> usize {
    batch::count_compressed_active(col, table.activity_words(), pred)
}

/// Fused filter + aggregate returning the full [`AggState`], so callers
/// needing several aggregate kinds (COUNT and SUM and AVG…) pay for one
/// scan instead of one per kind. Tier-aware: frozen blocks fold in
/// code/offset/run space via the codecs' `fold_range_masked` — they are
/// never decoded.
pub fn aggregate_state_active(
    table: &Table,
    col: usize,
    pred: Option<RangePredicate>,
) -> (AggState, usize) {
    if table.has_frozen() {
        let (state, stats) = aggregate_state_tiered(table, col, pred);
        return (state, stats.rows_scanned);
    }
    batch::aggregate_active(
        table.col_values(col),
        table.activity_words(),
        0,
        table.num_rows(),
        pred,
    )
}

/// Tier-aware fused filter+aggregate with block-pruning accounting (the
/// executor's entry point once blocks are frozen).
pub fn aggregate_state_tiered(
    table: &Table,
    col: usize,
    pred: Option<RangePredicate>,
) -> (AggState, TierStats) {
    batch::aggregate_tiered_active(table.col_tier(col), table.activity_words(), pred)
}

// ---------------------------------------------------------------------
// Selection-vector operators: the physical plan's scan, gather and
// aggregate stages. A *selection* is one 64-bit word per activity word
// (`sel = activity & pred₀ & pred₁ & …`), the currency every operator
// below exchanges — produced once by `selection_scan`, consumed by the
// join build/probe, the projection gather, the fused aggregate and the
// grouped hash aggregation of [`crate::group`].
// ---------------------------------------------------------------------

/// Evaluate a conjunction of pushed-down predicates over `table` into a
/// selection-mask vector, tier-aware:
///
/// * hot words AND each predicate's [`batch`] mask into the activity
///   word (early exit once a word empties),
/// * frozen blocks are pruned when *any* predicate's cached
///   [`BlockMeta`](amnesia_columnar::BlockMeta) proves it cannot match,
///   survivors evaluate every predicate via the codecs' fused
///   `filter_range_masks` — the block is never decoded.
///
/// `rows_scanned` counts the active rows the selection examined (all of
/// them when `preds` is empty — the downstream operators will read every
/// survivor); meta-pruned blocks' rows are excluded, which is the work
/// the metadata saved.
pub fn selection_scan(table: &Table, preds: &[ColPred]) -> (Vec<u64>, TierStats) {
    let n = table.num_rows();
    let nwords = n.div_ceil(WORD_BITS);
    let words = table.activity_words();
    let mut sel = vec![0u64; nwords];
    let mut stats = TierStats::default();
    if preds.is_empty() {
        for (wi, s) in sel.iter_mut().enumerate() {
            *s = words.get(wi).copied().unwrap_or(0);
            stats.rows_scanned += s.count_ones() as usize;
        }
        return (sel, stats);
    }
    let imp = batch::mask_impl();
    if !table.has_frozen() {
        let cols: Vec<&[Value]> = preds.iter().map(|p| table.col_values(p.col)).collect();
        for (wi, out) in sel.iter_mut().enumerate() {
            let active = words.get(wi).copied().unwrap_or(0);
            if active == 0 {
                continue;
            }
            stats.rows_scanned += active.count_ones() as usize;
            let base = wi * WORD_BITS;
            let hi = (base + WORD_BITS).min(n);
            let mut s = active;
            for (p, col) in preds.iter().zip(&cols) {
                s = batch::conj_word(&col[base..hi], s, p, imp);
                if s == 0 {
                    break;
                }
            }
            *out = s;
        }
        return (sel, stats);
    }

    // Frozen prefix: per block, meta-prune across every predicate column,
    // then AND the codec-fused masks of the survivors.
    let br = table.block_rows();
    let nb = table.frozen_blocks();
    let block_nwords = br / WORD_BITS;
    let mut mask_buf = Vec::new();
    'blocks: for b in 0..nb {
        let active_in_block = table.col_tier(0).meta(b).active;
        if active_in_block == 0 {
            stats.blocks_pruned += 1;
            continue;
        }
        for p in preds {
            if !p.block_may_match(table.col_tier(p.col).meta(b)) {
                stats.blocks_pruned += 1;
                continue 'blocks;
            }
        }
        stats.rows_scanned += active_in_block;
        let first_word = b * br / WORD_BITS;
        for k in 0..block_nwords {
            sel[first_word + k] = words.get(first_word + k).copied().unwrap_or(0);
        }
        for p in preds {
            let tier = table.col_tier(p.col);
            tier.note_block_access(b);
            let f = tier.frozen(b).expect("frozen block");
            batch::conj_block_masks(f.encoded(), p, &mut mask_buf);
            for k in 0..block_nwords {
                sel[first_word + k] &= mask_buf.get(k).copied().unwrap_or(0);
            }
        }
    }
    // Hot tail: the flat word loop over each predicate column's tail.
    let tail_start = table.col_tier(0).hot_start();
    let tails: Vec<&[Value]> = preds
        .iter()
        .map(|p| table.col_tier(p.col).hot_values())
        .collect();
    let tail_len = tails.first().map_or(0, |t| t.len());
    for j in 0..tail_len.div_ceil(WORD_BITS) {
        let wi = tail_start / WORD_BITS + j;
        let base = j * WORD_BITS;
        let chunk_len = (tail_len - base).min(WORD_BITS);
        let active = batch::tail_word(words, wi, chunk_len);
        if active == 0 {
            continue;
        }
        stats.rows_scanned += active.count_ones() as usize;
        let mut s = active;
        for (p, tail) in preds.iter().zip(&tails) {
            s = batch::conj_word(&tail[base..base + chunk_len], s, p, imp);
            if s == 0 {
                break;
            }
        }
        sel[wi] = s;
    }
    (sel, stats)
}

/// Complete-scan [`selection_scan`]: every physical row passing `preds`,
/// forgotten or not — the "complete scan will fetch all data" regime of
/// paper §1. Nothing prunes, since block meta describes active rows
/// only; frozen blocks still evaluate in codec space, and dropped blocks
/// (whose values were surrendered) select nothing.
pub fn selection_scan_all(table: &Table, preds: &[ColPred]) -> Vec<u64> {
    let n = table.num_rows();
    let mut sel = vec![0u64; n.div_ceil(WORD_BITS)];
    let block_nwords = table.block_rows() / WORD_BITS;
    let mut mask_buf = Vec::new();
    for b in 0..table.frozen_blocks() {
        let block_sel = &mut sel[b * block_nwords..(b + 1) * block_nwords];
        if table.col_tier(0).frozen(b).is_none_or(|f| f.is_dropped()) {
            continue;
        }
        block_sel.fill(!0);
        for p in preds {
            let f = table.col_tier(p.col).frozen(b).expect("frozen block");
            batch::conj_block_masks(f.encoded(), p, &mut mask_buf);
            for (s, &m) in block_sel.iter_mut().zip(&mask_buf) {
                *s &= m;
            }
        }
    }
    let imp = batch::mask_impl();
    let hot: Vec<(&[Value], usize)> = preds.iter().map(|p| hot_slice(table, p.col)).collect();
    let hot_start = table.frozen_blocks() * table.block_rows();
    for (wi, out) in sel.iter_mut().enumerate().skip(hot_start / WORD_BITS) {
        let base = wi * WORD_BITS;
        let len = (n - base).min(WORD_BITS);
        let mut s = u64::MAX >> (WORD_BITS - len);
        for (p, &(slice, start)) in preds.iter().zip(&hot) {
            s = batch::conj_word(&slice[base - start..base - start + len], s, p, imp);
        }
        *out = s;
    }
    sel
}

/// Per-predicate accounting of the cost-ordered selection scan: how the
/// work split across the conjunction. Indexed *syntactically* (parallel
/// to the plan's predicate list), whatever execution order the cost
/// model chose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredScanStats {
    /// Frozen blocks whose cached meta this predicate killed. Pruning is
    /// attributed to the *first* predicate (in execution order) whose
    /// meta check failed, so the sum across predicates equals the scan's
    /// total `blocks_pruned`.
    pub blocks_pruned: usize,
    /// Frozen blocks where this predicate ran as a *residual* — refining
    /// the survivors of earlier conjuncts via
    /// `batch::refine_block_masks` instead of filtering the whole
    /// block.
    pub blocks_refined: usize,
}

impl PredScanStats {
    /// Fold in another span's accounting (parallel partials).
    pub fn merge(&mut self, other: PredScanStats) {
        self.blocks_pruned += other.blocks_pruned;
        self.blocks_refined += other.blocks_refined;
    }
}

/// Cost-ordered [`selection_scan`]: evaluates the same conjunction in an
/// explicit execution `order` (indices into `preds`, as produced by
/// [`crate::stats::order_predicates`]), short-circuiting later
/// predicates to the surviving selection:
///
/// * frozen blocks meta-check every predicate in execution order (prune
///   attributed to the first failure), the first surviving predicate
///   filters densely, and each *residual* predicate refines only the
///   surviving selection words — sparse survivors test individual rows
///   in codec space (`batch::refine_block_masks`), and a block whose
///   selection empties skips its remaining predicates outright,
/// * hot words AND predicate masks in execution order with the same
///   early exit the syntactic kernel uses.
///
/// AND commutes, so the returned selection is byte-identical to
/// [`selection_scan`]'s for any `order`; only the work (and its
/// per-predicate attribution in `per_pred`) differs. `per_pred` must be
/// `preds.len()` long.
pub fn selection_scan_ordered(
    table: &Table,
    preds: &[ColPred],
    order: &[usize],
    per_pred: &mut [PredScanStats],
) -> (Vec<u64>, TierStats) {
    debug_assert_eq!(order.len(), preds.len());
    debug_assert_eq!(per_pred.len(), preds.len());
    let n = table.num_rows();
    let nwords = n.div_ceil(WORD_BITS);
    let words = table.activity_words();
    let mut sel = vec![0u64; nwords];
    let mut stats = TierStats::default();
    if preds.is_empty() {
        return selection_scan(table, preds);
    }
    let imp = batch::mask_impl();
    if !table.has_frozen() {
        let cols: Vec<&[Value]> = preds.iter().map(|p| table.col_values(p.col)).collect();
        for (wi, out) in sel.iter_mut().enumerate() {
            let active = words.get(wi).copied().unwrap_or(0);
            if active == 0 {
                continue;
            }
            stats.rows_scanned += active.count_ones() as usize;
            let base = wi * WORD_BITS;
            let hi = (base + WORD_BITS).min(n);
            let mut s = active;
            for &i in order {
                s = batch::conj_word(&cols[i][base..hi], s, &preds[i], imp);
                if s == 0 {
                    break;
                }
            }
            *out = s;
        }
        return (sel, stats);
    }

    let br = table.block_rows();
    let nb = table.frozen_blocks();
    let block_nwords = br / WORD_BITS;
    let mut mask_buf = Vec::new();
    'blocks: for b in 0..nb {
        let active_in_block = table.col_tier(0).meta(b).active;
        if active_in_block == 0 {
            stats.blocks_pruned += 1;
            continue;
        }
        for &i in order {
            if !preds[i].block_may_match(table.col_tier(preds[i].col).meta(b)) {
                stats.blocks_pruned += 1;
                per_pred[i].blocks_pruned += 1;
                continue 'blocks;
            }
        }
        stats.rows_scanned += active_in_block;
        let first_word = b * br / WORD_BITS;
        scan_block_ordered(
            table,
            preds,
            order,
            per_pred,
            b,
            &mut sel[first_word..first_word + block_nwords],
            &words[first_word..(first_word + block_nwords).min(words.len())],
            &mut mask_buf,
        );
    }
    // Hot tail: identical to the syntactic kernel, in execution order.
    let tail_start = table.col_tier(0).hot_start();
    let tails: Vec<&[Value]> = preds
        .iter()
        .map(|p| table.col_tier(p.col).hot_values())
        .collect();
    let tail_len = tails.first().map_or(0, |t| t.len());
    for j in 0..tail_len.div_ceil(WORD_BITS) {
        let wi = tail_start / WORD_BITS + j;
        let base = j * WORD_BITS;
        let chunk_len = (tail_len - base).min(WORD_BITS);
        let active = batch::tail_word(words, wi, chunk_len);
        if active == 0 {
            continue;
        }
        stats.rows_scanned += active.count_ones() as usize;
        let mut s = active;
        for &i in order {
            s = batch::conj_word(&tails[i][base..base + chunk_len], s, &preds[i], imp);
            if s == 0 {
                break;
            }
        }
        sel[wi] = s;
    }
    (sel, stats)
}

/// One surviving frozen block of the cost-ordered scan: seed the block's
/// selection words from activity, filter densely with the first
/// predicate in execution order, then refine residuals sparsely —
/// bailing out of the block as soon as the selection empties. `sel` and
/// `act` are the block's word slices.
// The arguments are the per-block slices of the caller's scan state;
// bundling them into a struct would rebuild it for every frozen block
// on the hot path without making any call site clearer.
#[allow(clippy::too_many_arguments)]
fn scan_block_ordered(
    table: &Table,
    preds: &[ColPred],
    order: &[usize],
    per_pred: &mut [PredScanStats],
    b: usize,
    sel: &mut [u64],
    act: &[u64],
    mask_buf: &mut Vec<u64>,
) {
    for (k, s) in sel.iter_mut().enumerate() {
        *s = act.get(k).copied().unwrap_or(0);
    }
    for (rank, &i) in order.iter().enumerate() {
        let p = &preds[i];
        let tier = table.col_tier(p.col);
        if sel.iter().all(|&w| w == 0) {
            return; // earlier conjuncts emptied the block
        }
        tier.note_block_access(b);
        let f = tier.frozen(b).expect("frozen block");
        if rank == 0 {
            batch::conj_block_masks(f.encoded(), p, mask_buf);
            for (k, s) in sel.iter_mut().enumerate() {
                *s &= mask_buf.get(k).copied().unwrap_or(0);
            }
        } else {
            per_pred[i].blocks_refined += 1;
            batch::refine_block_masks(f.encoded(), p, sel, mask_buf);
        }
    }
}

/// Materialize a selection as ascending [`RowId`]s.
pub fn selection_rows(sel: &[u64]) -> Vec<RowId> {
    let mut out = Vec::new();
    for (wi, &w) in sel.iter().enumerate() {
        batch::emit_selection(w, wi * WORD_BITS, &mut out);
    }
    out
}

/// Selected-row count: one popcount per word.
pub fn selection_count(sel: &[u64]) -> usize {
    sel.iter().map(|w| w.count_ones() as usize).sum()
}

/// Gather the values of `col` at the selected rows, in ascending row
/// order. Frozen blocks stream through the codecs'
/// `for_each_active` under the block's selection words — no decode, no
/// dense materialization; the hot tail reads the raw slice.
pub fn gather_column(table: &Table, sel: &[u64], col: usize, out: &mut Vec<Value>) {
    if !table.has_frozen() {
        let values = table.col_values(col);
        for (wi, &w) in sel.iter().enumerate() {
            let mut w = w;
            let base = wi * WORD_BITS;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                out.push(values[base + bit]);
            }
        }
        return;
    }
    let tier = table.col_tier(col);
    for b in 0..tier.frozen_blocks() {
        let bw = batch::block_words(tier, sel, b);
        if bw.iter().all(|&w| w == 0) {
            continue;
        }
        let f = tier.frozen(b).expect("frozen block");
        f.encoded().for_each_active(bw, |_, v| out.push(v));
    }
    let tail = tier.hot_values();
    let tail_start = tier.hot_start();
    for (j, chunk) in tail.chunks(WORD_BITS).enumerate() {
        let wi = tail_start / WORD_BITS + j;
        let mut w = batch::tail_word(sel, wi, chunk.len());
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            out.push(chunk[bit]);
        }
    }
}

/// Fused aggregate of `col` over an externally-computed selection:
/// frozen blocks fold in run/code/offset space via the codecs'
/// `fold_range_masked` with the selection words standing in for the
/// activity words (no decode), the hot tail folds the raw slice.
pub fn aggregate_selection(table: &Table, sel: &[u64], col: usize) -> AggState {
    let mut state = AggState::new();
    if !table.has_frozen() {
        let values = table.col_values(col);
        for (wi, &w) in sel.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let base = wi * WORD_BITS;
            let chunk = &values[base..(base + WORD_BITS).min(values.len())];
            batch::fold_selection(&mut state, chunk, w);
        }
        return state;
    }
    let tier = table.col_tier(col);
    for b in 0..tier.frozen_blocks() {
        let bw = batch::block_words(tier, sel, b);
        if bw.iter().all(|&w| w == 0) {
            continue;
        }
        let f = tier.frozen(b).expect("frozen block");
        let mut agg = BlockAgg::new();
        f.encoded().fold_range_masked(None, bw, &mut agg);
        if agg.count > 0 {
            state.push_block(agg.count, agg.sum, agg.min, agg.max);
        }
    }
    let tail = tier.hot_values();
    let tail_start = tier.hot_start();
    for (j, chunk) in tail.chunks(WORD_BITS).enumerate() {
        let wi = tail_start / WORD_BITS + j;
        let w = batch::tail_word(sel, wi, chunk.len());
        if w != 0 {
            batch::fold_selection(&mut state, chunk, w);
        }
    }
    state
}

// ---------------------------------------------------------------------
// Span variants: the same fused kernels, restricted to one morsel of the
// table (a run of frozen blocks or a word-aligned hot row range). The
// morsel scheduler (`crate::morsel`) stitches their results back in span
// order, reproducing the full-table kernels bit for bit.
// ---------------------------------------------------------------------

/// Hot-side value slice and its first absolute row: the hot tail of a
/// frozen column, or the whole column of a fully hot table.
fn hot_slice(table: &Table, col: usize) -> (&[Value], usize) {
    if table.has_frozen() {
        let tier = table.col_tier(col);
        (tier.hot_values(), tier.hot_start())
    } else {
        (table.col_values(col), 0)
    }
}

/// [`selection_scan`] restricted to `span`. Returns the span's selection
/// words (local, starting at the span's first word) and its share of the
/// tier accounting. Callers guarantee `preds` is non-empty — the empty
/// conjunction short-circuits to the serial kernel before spans exist.
pub(crate) fn selection_scan_span(
    table: &Table,
    preds: &[ColPred],
    span: &crate::morsel::Span,
) -> (Vec<u64>, TierStats) {
    debug_assert!(!preds.is_empty());
    let words = table.activity_words();
    let imp = batch::mask_impl();
    let mut stats = TierStats::default();
    match *span {
        crate::morsel::Span::Blocks { first, last } => {
            let br = table.block_rows();
            let block_nwords = br / WORD_BITS;
            let mut sel = vec![0u64; (last - first) * block_nwords];
            let mut mask_buf = Vec::new();
            'blocks: for b in first..last {
                let active_in_block = table.col_tier(0).meta(b).active;
                if active_in_block == 0 {
                    stats.blocks_pruned += 1;
                    continue;
                }
                for p in preds {
                    if !p.block_may_match(table.col_tier(p.col).meta(b)) {
                        stats.blocks_pruned += 1;
                        continue 'blocks;
                    }
                }
                stats.rows_scanned += active_in_block;
                let global_word = b * br / WORD_BITS;
                let local_word = (b - first) * block_nwords;
                for k in 0..block_nwords {
                    sel[local_word + k] = words.get(global_word + k).copied().unwrap_or(0);
                }
                for p in preds {
                    let tier = table.col_tier(p.col);
                    tier.note_block_access(b);
                    let f = tier.frozen(b).expect("frozen block");
                    batch::conj_block_masks(f.encoded(), p, &mut mask_buf);
                    for k in 0..block_nwords {
                        sel[local_word + k] &= mask_buf.get(k).copied().unwrap_or(0);
                    }
                }
            }
            (sel, stats)
        }
        crate::morsel::Span::Rows { lo, hi } => {
            let slices: Vec<(&[Value], usize)> =
                preds.iter().map(|p| hot_slice(table, p.col)).collect();
            let first_word = lo / WORD_BITS;
            let mut sel = vec![0u64; hi.div_ceil(WORD_BITS) - first_word];
            for wi in first_word..hi.div_ceil(WORD_BITS) {
                let base = wi * WORD_BITS;
                let chunk_len = (hi - base).min(WORD_BITS);
                let active = batch::tail_word(words, wi, chunk_len);
                if active == 0 {
                    continue;
                }
                stats.rows_scanned += active.count_ones() as usize;
                let mut s = active;
                for (p, &(slice, start)) in preds.iter().zip(&slices) {
                    let off = base - start;
                    s = batch::conj_word(&slice[off..off + chunk_len], s, p, imp);
                    if s == 0 {
                        break;
                    }
                }
                sel[wi - first_word] = s;
            }
            (sel, stats)
        }
    }
}

/// [`selection_scan_ordered`] restricted to `span`: the morsel unit of
/// the cost-ordered scan. Returns the span's local selection words, its
/// tier accounting, and its per-predicate attribution (merged across
/// spans by the parallel wrapper). Callers guarantee `preds` is
/// non-empty.
pub(crate) fn selection_scan_ordered_span(
    table: &Table,
    preds: &[ColPred],
    order: &[usize],
    span: &crate::morsel::Span,
) -> (Vec<u64>, TierStats, Vec<PredScanStats>) {
    debug_assert!(!preds.is_empty());
    let words = table.activity_words();
    let imp = batch::mask_impl();
    let mut stats = TierStats::default();
    let mut per_pred = vec![PredScanStats::default(); preds.len()];
    match *span {
        crate::morsel::Span::Blocks { first, last } => {
            let br = table.block_rows();
            let block_nwords = br / WORD_BITS;
            let mut sel = vec![0u64; (last - first) * block_nwords];
            let mut mask_buf = Vec::new();
            'blocks: for b in first..last {
                let active_in_block = table.col_tier(0).meta(b).active;
                if active_in_block == 0 {
                    stats.blocks_pruned += 1;
                    continue;
                }
                for &i in order {
                    if !preds[i].block_may_match(table.col_tier(preds[i].col).meta(b)) {
                        stats.blocks_pruned += 1;
                        per_pred[i].blocks_pruned += 1;
                        continue 'blocks;
                    }
                }
                stats.rows_scanned += active_in_block;
                let global_word = b * br / WORD_BITS;
                let local_word = (b - first) * block_nwords;
                scan_block_ordered(
                    table,
                    preds,
                    order,
                    &mut per_pred,
                    b,
                    &mut sel[local_word..local_word + block_nwords],
                    words
                        .get(global_word..(global_word + block_nwords).min(words.len()))
                        .unwrap_or(&[]),
                    &mut mask_buf,
                );
            }
            (sel, stats, per_pred)
        }
        crate::morsel::Span::Rows { lo, hi } => {
            let slices: Vec<(&[Value], usize)> =
                preds.iter().map(|p| hot_slice(table, p.col)).collect();
            let first_word = lo / WORD_BITS;
            let mut sel = vec![0u64; hi.div_ceil(WORD_BITS) - first_word];
            for wi in first_word..hi.div_ceil(WORD_BITS) {
                let base = wi * WORD_BITS;
                let chunk_len = (hi - base).min(WORD_BITS);
                let active = batch::tail_word(words, wi, chunk_len);
                if active == 0 {
                    continue;
                }
                stats.rows_scanned += active.count_ones() as usize;
                let mut s = active;
                for &i in order {
                    let (slice, start) = slices[i];
                    let off = base - start;
                    s = batch::conj_word(&slice[off..off + chunk_len], s, &preds[i], imp);
                    if s == 0 {
                        break;
                    }
                }
                sel[wi - first_word] = s;
            }
            (sel, stats, per_pred)
        }
    }
}

/// [`gather_column`] restricted to `span`, appending to `out` in
/// ascending row order. `sel` is the full-table selection.
pub(crate) fn gather_column_span(
    table: &Table,
    sel: &[u64],
    col: usize,
    span: &crate::morsel::Span,
    out: &mut Vec<Value>,
) {
    match *span {
        crate::morsel::Span::Blocks { first, last } => {
            let tier = table.col_tier(col);
            for b in first..last {
                let bw = batch::block_words(tier, sel, b);
                if bw.iter().all(|&w| w == 0) {
                    continue;
                }
                let f = tier.frozen(b).expect("frozen block");
                f.encoded().for_each_active(bw, |_, v| out.push(v));
            }
        }
        crate::morsel::Span::Rows { lo, hi } => {
            let (slice, start) = hot_slice(table, col);
            for wi in lo / WORD_BITS..hi.div_ceil(WORD_BITS) {
                let base = wi * WORD_BITS;
                let mut w = batch::tail_word(sel, wi, (hi - base).min(WORD_BITS));
                while w != 0 {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    out.push(slice[base - start + bit]);
                }
            }
        }
    }
}

/// [`aggregate_selection`] restricted to `span`. The returned partial
/// states merge exactly (integer count/sum, min/max), so folding the
/// spans' results in any order reproduces the full-table fold.
pub(crate) fn aggregate_selection_span(
    table: &Table,
    sel: &[u64],
    col: usize,
    span: &crate::morsel::Span,
) -> AggState {
    let mut state = AggState::new();
    match *span {
        crate::morsel::Span::Blocks { first, last } => {
            let tier = table.col_tier(col);
            for b in first..last {
                let bw = batch::block_words(tier, sel, b);
                if bw.iter().all(|&w| w == 0) {
                    continue;
                }
                let f = tier.frozen(b).expect("frozen block");
                let mut agg = BlockAgg::new();
                f.encoded().fold_range_masked(None, bw, &mut agg);
                if agg.count > 0 {
                    state.push_block(agg.count, agg.sum, agg.min, agg.max);
                }
            }
        }
        crate::morsel::Span::Rows { lo, hi } => {
            let (slice, start) = hot_slice(table, col);
            for wi in lo / WORD_BITS..hi.div_ceil(WORD_BITS) {
                let base = wi * WORD_BITS;
                let chunk_len = (hi - base).min(WORD_BITS);
                let w = batch::tail_word(sel, wi, chunk_len);
                if w != 0 {
                    let off = base - start;
                    batch::fold_selection(&mut state, &slice[off..off + chunk_len], w);
                }
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::Schema;
    use amnesia_workload::query::{AggKind, RangePredicate as P};

    /// The fused aggregate finalized for one kind, with its scan count.
    fn aggregate_active(
        table: &Table,
        col: usize,
        pred: Option<P>,
        kind: AggKind,
    ) -> (Option<f64>, usize) {
        let (state, scanned) = aggregate_state_active(table, col, pred);
        (state.finalize(kind), scanned)
    }

    fn preds(pred: P) -> [ColPred; 1] {
        [ColPred::from_range(0, pred)]
    }

    fn table() -> Table {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[5, 15, 25, 35, 45, 55], 0).unwrap();
        t.forget(RowId(2), 1).unwrap(); // 25 forgotten
        t
    }

    #[test]
    fn active_scan_skips_forgotten() {
        let t = table();
        let rows = range_scan_active(&t, 0, P::new(10, 40));
        assert_eq!(rows, vec![RowId(1), RowId(3)]); // 15, 35
        let (sel, _) = selection_scan(&t, &preds(P::new(10, 40)));
        assert_eq!(selection_count(&sel), 2);
        assert_eq!(selection_rows(&sel), rows);
    }

    #[test]
    fn full_scan_sees_forgotten() {
        let t = table();
        let sel = selection_scan_all(&t, &preds(P::new(10, 40)));
        assert_eq!(selection_rows(&sel), vec![RowId(1), RowId(2), RowId(3)]);
        // Frozen blocks answer the complete scan in codec space.
        let mut big = Table::new(Schema::single("a"));
        big.insert_batch(&(0..3_000).collect::<Vec<i64>>(), 0)
            .unwrap();
        for r in (0..3_000u64).step_by(3) {
            big.forget(RowId(r), 1).unwrap();
        }
        let want = crate::batch::scalar::range_scan_all(&big, 0, P::new(1_000, 2_500));
        let flat = selection_rows(&selection_scan_all(&big, &preds(P::new(1_000, 2_500))));
        big.freeze_upto(2_048);
        let tiered = selection_rows(&selection_scan_all(&big, &preds(P::new(1_000, 2_500))));
        assert_eq!(flat, want);
        assert_eq!(tiered, want);
    }

    #[test]
    fn block_scan_matches_full_active_scan() {
        let t = table();
        let pred = P::new(0, 100);
        let via_blocks = range_scan_blocks(&t, 0, pred, &[0, 1, 2], 2);
        let direct = range_scan_active(&t, 0, pred);
        assert_eq!(via_blocks, direct);
        // Restricting blocks restricts results.
        let partial = range_scan_blocks(&t, 0, pred, &[0], 2);
        assert_eq!(partial, vec![RowId(0), RowId(1)]);
    }

    #[test]
    fn aggregates_respect_activity() {
        let t = table();
        // Active values: 5, 15, 35, 45, 55 — sum 155, avg 31.
        let (avg, scanned) = aggregate_active(&t, 0, None, AggKind::Avg);
        assert_eq!(avg, Some(31.0));
        assert_eq!(scanned, 5);
        let (sum, _) = aggregate_active(&t, 0, None, AggKind::Sum);
        assert_eq!(sum, Some(155.0));
        let (min, _) = aggregate_active(&t, 0, None, AggKind::Min);
        assert_eq!(min, Some(5.0));
        let (max, _) = aggregate_active(&t, 0, None, AggKind::Max);
        assert_eq!(max, Some(55.0));
        let (count, _) = aggregate_active(&t, 0, None, AggKind::Count);
        assert_eq!(count, Some(5.0));
    }

    #[test]
    fn aggregate_with_predicate() {
        let t = table();
        let (avg, _) = aggregate_active(&t, 0, Some(P::new(10, 50)), AggKind::Avg);
        // matching active values: 15, 35, 45 → avg 31.666…
        assert!((avg.unwrap() - 95.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_selection_semantics() {
        let t = table();
        let (avg, _) = aggregate_active(&t, 0, Some(P::new(1000, 2000)), AggKind::Avg);
        assert_eq!(avg, None, "AVG of empty is NULL");
        let (count, _) = aggregate_active(&t, 0, Some(P::new(1000, 2000)), AggKind::Count);
        assert_eq!(count, Some(0.0), "COUNT of empty is 0");
    }

    #[test]
    fn aggregate_rows_over_explicit_ids() {
        // Rows 0 and 5 as a selection: one word with bits 0 and 5 set.
        let t = table();
        let state = aggregate_selection(&t, &[0b10_0001], 0);
        assert_eq!(state.finalize(AggKind::Sum), Some(60.0));
        assert_eq!(
            aggregate_selection(&t, &[0], 0).finalize(AggKind::Sum),
            None
        );
    }

    #[test]
    fn zoned_and_compressed_wrappers_agree() {
        let t = table();
        let pred = P::new(10, 50);
        let want = range_scan_active(&t, 0, pred);

        let wz = WordZoneMap::build(&t, 0);
        let (rows, _) = range_scan_active_zoned(&t, 0, &wz, pred);
        assert_eq!(rows, want);
        let (sel, _) = selection_scan(&t, &preds(pred));
        assert_eq!(selection_count(&sel), want.len());
        let (state, _) = aggregate_state_active_zoned(&t, 0, &wz, Some(pred));
        assert_eq!(state.count() as usize, want.len());

        let seg = t.compress_column(0);
        assert_eq!(range_scan_compressed(&t, &seg, pred), want);
        assert_eq!(count_compressed(&t, &seg, pred), want.len());
    }

    #[test]
    fn one_pass_state_serves_every_kind() {
        let t = table();
        let (state, scanned) = aggregate_state_active(&t, 0, None);
        assert_eq!(scanned, 5);
        assert_eq!(state.count(), 5);
        assert_eq!(state.finalize(AggKind::Sum), Some(155.0));
        assert_eq!(state.finalize(AggKind::Avg), Some(31.0));
        assert_eq!(state.finalize(AggKind::Min), Some(5.0));
        assert_eq!(state.finalize(AggKind::Max), Some(55.0));
    }

    #[test]
    fn agg_state_extremes() {
        let mut s = AggState::new();
        s.push(i64::MAX);
        s.push(i64::MAX);
        // i128 accumulator: no overflow.
        assert_eq!(s.finalize(AggKind::Sum), Some(2.0 * i64::MAX as f64));
        assert_eq!(s.finalize(AggKind::Avg), Some(i64::MAX as f64));
    }
}
