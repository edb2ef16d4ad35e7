//! Word-at-a-time vectorized batch kernels with selection vectors.
//!
//! # Why this layer exists
//!
//! The paper's argument for amnesia is that bounding the active set keeps
//! scans fast (§1, §6). The original kernels threw that advantage away by
//! walking row-at-a-time: a `column.get(r)` bounds check plus an
//! `activity.is_active(id)` bitmap shift *per physical row*. This module
//! is the batch-execution footing underneath every scan, aggregate and
//! join kernel: raw `&[Value]` slices on one side, the packed `u64`
//! activity words of [`amnesia_util::Bitmap`] on the other.
//!
//! # The selection-vector contract
//!
//! Work proceeds in units of one **activity word** = [`WORD_BITS`] = 64
//! rows; a logical *batch* is [`BATCH_ROWS`] = 1024 rows = 16 words
//! (matching `amnesia_columnar::DEFAULT_BLOCK_ROWS`, so a zone-map block
//! is exactly one batch). For each word the kernels build a *selection
//! mask*:
//!
//! ```text
//! sel = predicate_mask(values[w*64 .. w*64+64]) & activity_word[w]
//! ```
//!
//! * `predicate_mask` evaluates the range test as one unsigned compare
//!   per value with no data-dependent branches, dispatching to an
//!   AVX-512/AVX2 kernel at runtime on x86-64 (portable byte-lane
//!   fallback elsewhere).
//! * An all-forgotten word (`activity == 0`) is skipped before its values
//!   are ever touched: forgetting data makes scans *cheaper*, which is the
//!   paper's point.
//! * Word processing is **density-adaptive**: words with at least
//!   `DENSE_WORD_MIN_ACTIVE` active rows take the vectorized mask path;
//!   sparser words iterate just their set bits, so heavily-forgotten
//!   regions never pay for 64 evaluations to select 3 rows.
//! * An all-selected word (`sel == !0`) takes a fused fast path that
//!   folds the whole 64-value slice without per-row bit tests; partial
//!   selections extract bits with `trailing_zeros`, costing one short
//!   dependency chain per *selected* row, not per physical row.
//!
//! Positions in a selection mask are row ids relative to the word's base
//! row (`word_index * 64`); consumers materialize them as [`RowId`]s, feed
//! them to the fused aggregate, or count them with one `popcount`.
//!
//! All kernels take explicit `[lo, hi)` row bounds with word-boundary
//! masking (via the same mask algebra as
//! [`Bitmap::masked_word`](amnesia_util::Bitmap::masked_word)), so
//! zone-map pruned blocks and parallel chunks run the identical code path
//! as full scans.
//!
//! # Zone-map pruning at word granularity
//!
//! The `*_zoned` kernel variants take a [`Zone`] slice — one min/max per
//! activity word, built by
//! [`WordZoneMap`](amnesia_columnar::zonemap::WordZoneMap) — checked *in
//! front of* the per-word work: a word whose zone proves the predicate
//! cannot match is skipped before its values are loaded, composing with
//! the all-forgotten (`activity == 0`) skip so cold and forgotten regions
//! cost one metadata compare per 64 rows. On sorted or clustered columns
//! a selective scan degenerates into a zone walk.
//!
//! # Fused scans over compressed blocks
//!
//! The `*_compressed` kernels run on a
//! [`SegmentedColumn`]: each frozen
//! block answers the predicate through its codec's fused
//! `filter_range_masks` (RLE compares once per run, dictionaries compare
//! bit-packed codes against a code range, FOR compares rebased offsets —
//! see `amnesia_columnar::compress`), producing exactly the selection-mask
//! words defined above. Those masks AND with the block's activity words
//! and feed the same emit/count loops as hot-path scans, so cold
//! compressed data is scanned without ever materializing a `Vec<Value>` —
//! the paper's bargain: compression postpones forgetting only if the
//! compressed form stays queryable at memory speed.
//!
//! The row-at-a-time originals live in [`scalar`] as the reference
//! implementations; `tests/kernel_equivalence.rs` holds the
//! vectorized == scalar == parallel == compressed property tests, and the
//! `scan_kernels`/`parallel_scan`/`compressed_scan` benches measure the
//! gaps.

use std::collections::HashMap;

use amnesia_columnar::compress::{dict, rle, BlockAgg, Encoding};
use amnesia_columnar::{
    RowId, SegmentedColumn, Table, TieredColumn, Value, Zone, DEFAULT_BLOCK_ROWS,
};
use amnesia_util::WORD_BITS;
use amnesia_workload::query::{AggKind, RangePredicate};

/// Rows per logical batch (16 activity words, one zone-map block —
/// tied to the storage block size so the identities in the module doc
/// hold by construction).
pub const BATCH_ROWS: usize = DEFAULT_BLOCK_ROWS;

const _: () = assert!(
    BATCH_ROWS.is_multiple_of(WORD_BITS),
    "a batch must be a whole number of activity words"
);

/// Streaming aggregate state: COUNT/SUM/MIN/MAX folded in one pass, AVG
/// derived at finalize. SUM accumulates in `i128` so no `i64` input can
/// overflow it.
#[derive(Debug, Clone, Copy)]
pub struct AggState {
    count: u64,
    sum: i128,
    min: Value,
    max: Value,
}

impl AggState {
    /// Empty state.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: Value::MAX,
            max: Value::MIN,
        }
    }

    /// Fold one value.
    #[inline]
    pub fn push(&mut self, v: Value) {
        self.count += 1;
        self.sum += v as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold a pre-aggregated block (the all-selected word fast path).
    #[inline]
    pub fn push_block(&mut self, count: u64, sum: i128, min: Value, max: Value) {
        self.count += count;
        self.sum += sum;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }

    /// Number of folded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running sum of folded values.
    pub fn sum(&self) -> i128 {
        self.sum
    }

    /// Minimum folded value (`None` when the selection was empty).
    pub fn min_value(&self) -> Option<Value> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum folded value (`None` when the selection was empty).
    pub fn max_value(&self) -> Option<Value> {
        (self.count > 0).then_some(self.max)
    }

    /// Fold another state in (parallel partial aggregation).
    pub fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finalize for an aggregate kind; `None` when the selection was empty
    /// (COUNT returns 0 instead).
    pub fn finalize(&self, kind: AggKind) -> Option<f64> {
        match kind {
            AggKind::Count => Some(self.count as f64),
            AggKind::Sum => (self.count > 0).then_some(self.sum as f64),
            AggKind::Avg => (self.count > 0).then(|| self.sum as f64 / self.count as f64),
            AggKind::Min => (self.count > 0).then_some(self.min as f64),
            AggKind::Max => (self.count > 0).then_some(self.max as f64),
        }
    }
}

impl Default for AggState {
    fn default() -> Self {
        Self::new()
    }
}

/// Minimum active bits for a word to take the vectorized mask path.
///
/// Building a predicate mask costs ~64 branch-light compares regardless
/// of how many rows are active; iterating set bits costs ~2 ns per
/// *active* row. The crossover on current hardware sits around 20–25
/// active bits, so mostly-forgotten words keep the cheap sparse path —
/// forgetting data keeps making scans cheaper, per the paper's argument.
const DENSE_WORD_MIN_ACTIVE: u32 = 24;

/// Which predicate-mask kernel this CPU gets. Resolved once per kernel
/// invocation (not per 64-row word) so the detection's atomic loads and
/// branches stay out of the hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MaskImpl {
    /// Byte-lane scalar loop; every architecture.
    Portable,
    /// AVX2 sign-bias compare + movmskpd (x86-64 only).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F unsigned compare straight into kmasks (x86-64 only).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Environment variable that pins predicate evaluation to the portable
/// (non-SIMD) kernel when set to anything but `0` — CI's way of running
/// the whole suite down the fallback path that non-AVX hardware takes.
pub const PORTABLE_ONLY_ENV: &str = "AMNESIA_PORTABLE_ONLY";

/// True when [`PORTABLE_ONLY_ENV`] disables SIMD dispatch (read once).
fn portable_forced() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED
        .get_or_init(|| std::env::var(PORTABLE_ONLY_ENV).is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// Detect the best available mask kernel.
#[inline]
pub(crate) fn mask_impl() -> MaskImpl {
    if portable_forced() {
        return MaskImpl::Portable;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return MaskImpl::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return MaskImpl::Avx2;
        }
    }
    MaskImpl::Portable
}

/// Branch-light predicate evaluation over up to 64 values: bit `i` of the
/// result is set iff `pred` matches `values[i]`.
///
/// The range test is a single unsigned compare (`(v - lo) as u64 <
/// hi - lo`, the classic wrapping-subtract trick, valid for every `i64`
/// `lo < hi`). Full 64-value words dispatch on the pre-resolved
/// [`MaskImpl`]; the portable fallback builds eight independent byte
/// lanes so the dependency chain is 8 steps, not 64 — about 2x the naive
/// `mask |= test << i` loop.
#[inline]
fn predicate_mask(values: &[Value], lo: Value, hi: Value, imp: MaskImpl) -> u64 {
    debug_assert!(values.len() <= WORD_BITS);
    #[cfg(target_arch = "x86_64")]
    if values.len() == WORD_BITS {
        match imp {
            // SAFETY: mask_impl() verified the feature on this CPU.
            MaskImpl::Avx512 => return unsafe { simd::mask_avx512(values, lo, hi) },
            // SAFETY: mask_impl() verified the feature on this CPU.
            MaskImpl::Avx2 => return unsafe { simd::mask_avx2(values, lo, hi) },
            MaskImpl::Portable => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = imp;
    let width = range_width(lo, hi);
    let mut bytes = [0u8; 8];
    let mut chunks = values.chunks_exact(8);
    let mut group = 0usize;
    for chunk in &mut chunks {
        let mut b = 0u8;
        for (i, &v) in chunk.iter().enumerate() {
            b |= ((((v as u64).wrapping_sub(lo as u64)) < width) as u8) << i;
        }
        bytes[group] = b;
        group += 1;
    }
    let mut mask = u64::from_le_bytes(bytes);
    let base = group * 8;
    for (i, &v) in chunks.remainder().iter().enumerate() {
        mask |= ((((v as u64).wrapping_sub(lo as u64)) < width) as u64) << (base + i);
    }
    mask
}

/// `hi - lo` in the unsigned domain (fits `u64` for every `i64` pair;
/// callers guarantee `lo < hi` via the `is_empty` guards).
#[inline]
fn range_width(lo: Value, hi: Value) -> u64 {
    (hi as i128 - lo as i128) as u64
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! SIMD predicate-mask kernels, selected at runtime.
    //!
    //! Both evaluate the same single-compare range test as the portable
    //! path. AVX-512 compares eight `i64` lanes straight into a `__mmask8`
    //! (`vpcmpuq`); AVX2 lacks unsigned 64-bit compares, so the operands
    //! are sign-bias-flipped and compared signed (`x <u w  ⇔
    //! x ^ MIN <s w ^ MIN`), then lane signs are extracted with
    //! `movmskpd`. Measured ~2x over the portable byte-lane loop at 1M
    //! rows (memory-bandwidth-bound from there).

    use super::{range_width, Value, WORD_BITS};

    /// Mask for exactly 64 values via AVX2.
    ///
    /// # Safety
    /// Caller must verify `avx2` is available and pass exactly 64 values.
    #[target_feature(enable = "avx2")]
    // SAFETY: sound iff `avx2` is present (callers dispatch through
    // `mask_impl()`, which feature-detects) and `values.len() == 64`, so
    // the 16 × 4-lane unaligned loads below never read past the slice.
    pub(super) unsafe fn mask_avx2(values: &[Value], lo: Value, hi: Value) -> u64 {
        use std::arch::x86_64::*;
        debug_assert_eq!(values.len(), WORD_BITS);
        let sign = _mm256_set1_epi64x(i64::MIN);
        let lo_v = _mm256_set1_epi64x(lo);
        let width_biased = _mm256_set1_epi64x((range_width(lo, hi) ^ (i64::MIN as u64)) as i64);
        let mut mask = 0u64;
        for group in 0..WORD_BITS / 4 {
            let v = _mm256_loadu_si256(values.as_ptr().add(group * 4) as *const __m256i);
            let t = _mm256_xor_si256(_mm256_sub_epi64(v, lo_v), sign);
            let m = _mm256_cmpgt_epi64(width_biased, t);
            let bits = _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u64;
            mask |= bits << (group * 4);
        }
        mask
    }

    /// Mask for exactly 64 values via AVX-512F.
    ///
    /// # Safety
    /// Caller must verify `avx512f` is available and pass exactly 64
    /// values.
    #[target_feature(enable = "avx512f")]
    // SAFETY: sound iff `avx512f` is present (callers dispatch through
    // `mask_impl()`, which feature-detects) and `values.len() == 64`, so
    // the 8 × 8-lane unaligned loads below never read past the slice.
    pub(super) unsafe fn mask_avx512(values: &[Value], lo: Value, hi: Value) -> u64 {
        use std::arch::x86_64::*;
        debug_assert_eq!(values.len(), WORD_BITS);
        let lo_v = _mm512_set1_epi64(lo);
        let width_v = _mm512_set1_epi64(range_width(lo, hi) as i64);
        let mut mask = 0u64;
        for group in 0..WORD_BITS / 8 {
            let v = _mm512_loadu_si512(values.as_ptr().add(group * 8) as *const __m512i);
            let t = _mm512_sub_epi64(v, lo_v);
            let m = _mm512_cmplt_epu64_mask(t, width_v) as u64;
            mask |= m << (group * 8);
        }
        mask
    }
}

// Boundary clipping lives in `amnesia_util::bitmap::clip_word` — one
// home for the algebra shared with `Bitmap::masked_word`.
use amnesia_util::bitmap::clip_word;
use amnesia_util::bitmap::for_each_set_bit_in;

/// Append `RowId`s for every set bit of `sel`, offset by `base` rows.
#[inline]
pub(crate) fn emit_selection(mut sel: u64, base: usize, out: &mut Vec<RowId>) {
    while sel != 0 {
        let bit = sel.trailing_zeros() as usize;
        sel &= sel - 1;
        out.push(RowId::from(base + bit));
    }
}

/// Selection mask for one word: `pred` over the values, restricted to
/// `active`. Density-adaptive: dense words evaluate all 64 values
/// branch-light (vectorizable), sparse words test only the active rows.
#[inline]
fn selection_word(chunk: &[Value], active: u64, pred: RangePredicate, imp: MaskImpl) -> u64 {
    if active.count_ones() >= DENSE_WORD_MIN_ACTIVE {
        predicate_mask(chunk, pred.lo, pred.hi, imp) & active
    } else {
        let mut sel = 0u64;
        let mut w = active;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            sel |= (pred.matches(chunk[bit]) as u64) << bit;
        }
        sel
    }
}

/// Bit `i` set iff `values[i]` lies in the *inclusive* range `[lo, hi]`.
/// Reuses the half-open SIMD kernels when `hi < i64::MAX`; the domain
/// edge takes a portable `<=` compare (the half-open width would
/// overflow there).
#[inline]
fn predicate_mask_incl(values: &[Value], lo: Value, hi: Value, imp: MaskImpl) -> u64 {
    debug_assert!(lo <= hi);
    if hi < Value::MAX {
        return predicate_mask(values, lo, hi + 1, imp);
    }
    // v in [lo, MAX] ⇔ (v - lo) as u64 <= (MAX - lo) as u64.
    let width = (Value::MAX as i128 - lo as i128) as u64;
    let mut mask = 0u64;
    for (i, &v) in values.iter().enumerate() {
        mask |= ((((v as u64).wrapping_sub(lo as u64)) <= width) as u64) << i;
    }
    mask
}

/// Narrow one word's selection by a pushed-down [`ColPred`]: surviving
/// bits of `sel` are those whose value passes the (possibly negated)
/// inclusive range. Density-adaptive like [`selection_word`]; negation
/// inverts the mask, and `& sel` clears any stray bits past the chunk.
#[inline]
pub(crate) fn conj_word(
    chunk: &[Value],
    sel: u64,
    p: &crate::physical::ColPred,
    imp: MaskImpl,
) -> u64 {
    if p.is_empty_range() {
        return if p.negated { sel } else { 0 };
    }
    if sel.count_ones() >= DENSE_WORD_MIN_ACTIVE {
        let m = predicate_mask_incl(chunk, p.lo, p.hi, imp);
        (if p.negated { !m } else { m }) & sel
    } else {
        let mut out = 0u64;
        let mut w = sel;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            out |= (p.matches(chunk[bit]) as u64) << bit;
        }
        out
    }
}

/// Selection-mask words for one frozen block under a [`ColPred`]: the
/// codec's fused `filter_range_masks` evaluates the inclusive range in
/// its own domain (run / code / offset space — the block is never
/// decoded), with negation folded in by complementing the mask words.
/// The `i64` domain edges route through the complement of the
/// representable half (`[lo, MAX]` = NOT `[MIN, lo)`). Stray high bits
/// in the last word are the caller's to clear via the activity AND.
pub(crate) fn conj_block_masks(
    block: &amnesia_columnar::compress::EncodedBlock,
    p: &crate::physical::ColPred,
    out: &mut Vec<u64>,
) {
    let nwords = block.len().div_ceil(WORD_BITS);
    let mut invert = p.negated;
    if p.is_empty_range() {
        out.clear();
        out.resize(nwords, 0);
    } else if p.hi < Value::MAX {
        block.filter_range_masks(p.lo, p.hi + 1, out);
    } else if p.lo > Value::MIN {
        // [lo, MAX] is the complement of [MIN, lo).
        block.filter_range_masks(Value::MIN, p.lo, out);
        invert = !invert;
    } else {
        // The whole domain.
        out.clear();
        out.resize(nwords, !0u64);
    }
    if invert {
        for w in out.iter_mut() {
            *w = !*w;
        }
    }
}

/// Sparse residual refinement: narrow an existing selection (`sel`) by a
/// further [`ColPred`](crate::physical::ColPred) without re-filtering the
/// whole block. When earlier conjuncts left only a few survivors and the
/// codec supports O(1) random access ([`EncodedBlock::value_at`] for
/// plain / FOR / dict), each surviving bit is tested individually in
/// codec space; otherwise the block-wide fused filter runs once and ANDs
/// in. Both paths compute the same conjunction (AND commutes), so the
/// selection is byte-identical to evaluating the predicate densely —
/// only the work differs. The block is never decoded either way.
///
/// [`EncodedBlock::value_at`]: amnesia_columnar::compress::EncodedBlock::value_at
pub(crate) fn refine_block_masks(
    block: &amnesia_columnar::compress::EncodedBlock,
    p: &crate::physical::ColPred,
    sel: &mut [u64],
    scratch: &mut Vec<u64>,
) {
    let surviving: usize = sel.iter().map(|w| w.count_ones() as usize).sum();
    if surviving == 0 {
        return;
    }
    let random_access = matches!(
        block.encoding(),
        Encoding::Plain | Encoding::ForPack | Encoding::Dict
    );
    if random_access && surviving * 8 <= block.len() {
        for (k, w) in sel.iter_mut().enumerate() {
            let mut m = *w;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                if !p.matches(block.value_at(k * WORD_BITS + bit)) {
                    *w &= !(1u64 << bit);
                }
            }
        }
    } else {
        conj_block_masks(block, p, scratch);
        for (w, &m) in sel.iter_mut().zip(scratch.iter()) {
            *w &= m;
        }
    }
}

/// Fold the selected values of one word into `state`.
///
/// The hot accumulation runs on a word-local `i64` sum — `checked_add`
/// spills to the `i128` total on the (practically never taken) overflow
/// branch — because an `i128` add per row measurably drags the loop. A
/// fully-selected full word folds the slice with no bit tests at all.
#[inline]
pub(crate) fn fold_selection(state: &mut AggState, chunk: &[Value], sel: u64) {
    if sel == 0 {
        return;
    }
    let mut count = 0u64;
    let mut sum = 0i64;
    let mut spill = 0i128;
    let mut min = Value::MAX;
    let mut max = Value::MIN;
    if sel == !0u64 && chunk.len() == WORD_BITS {
        for &v in chunk {
            count += 1;
            match sum.checked_add(v) {
                Some(s) => sum = s,
                None => {
                    spill += sum as i128;
                    sum = v;
                }
            }
            min = min.min(v);
            max = max.max(v);
        }
    } else {
        let mut sel = sel;
        while sel != 0 {
            let bit = sel.trailing_zeros() as usize;
            sel &= sel - 1;
            let v = chunk[bit];
            count += 1;
            match sum.checked_add(v) {
                Some(s) => sum = s,
                None => {
                    spill += sum as i128;
                    sum = v;
                }
            }
            min = min.min(v);
            max = max.max(v);
        }
    }
    state.push_block(count, spill + sum as i128, min, max);
}

/// Collect active rows in `[lo, hi)` matching `pred` into `out`
/// (ascending row order). `values` and `words` span the whole table.
pub fn scan_active_into(
    values: &[Value],
    words: &[u64],
    lo: usize,
    hi: usize,
    pred: RangePredicate,
    out: &mut Vec<RowId>,
) {
    let hi = hi.min(values.len());
    if lo >= hi || pred.is_empty() {
        return;
    }
    let imp = mask_impl();
    let first = lo / WORD_BITS;
    let last = (hi - 1) / WORD_BITS;
    for (wi, &word) in words.iter().enumerate().take(last + 1).skip(first) {
        let active = clip_word(word, wi, lo, hi);
        if active == 0 {
            continue; // all-forgotten word: values never touched
        }
        let base = wi * WORD_BITS;
        let chunk = &values[base..hi.min(base + WORD_BITS)];
        emit_selection(selection_word(chunk, active, pred, imp), base, out);
    }
}

/// Fused filter + aggregate over active rows in `[lo, hi)`: one pass
/// builds the selection mask and folds matching values. Returns the state
/// and the number of *active* rows examined (the executor's
/// `rows_scanned`). All-selected words fold slice-at-a-time.
pub fn aggregate_active(
    values: &[Value],
    words: &[u64],
    lo: usize,
    hi: usize,
    pred: Option<RangePredicate>,
) -> (AggState, usize) {
    let hi = hi.min(values.len());
    let mut state = AggState::new();
    if lo >= hi {
        return (state, 0);
    }
    if pred.is_some_and(|p| p.is_empty()) {
        // Predicate selects nothing, but the scan still visits every
        // active row (scanned mirrors the row-at-a-time semantics).
        // masked_word tolerates a words slice shorter than the value
        // range, matching the iterator-driven loops below.
        let scanned: usize = (lo / WORD_BITS..=(hi - 1) / WORD_BITS)
            .map(|wi| amnesia_util::bitmap::masked_word(words, wi, lo, hi).count_ones() as usize)
            .sum();
        return (state, scanned);
    }
    let imp = mask_impl();
    let first = lo / WORD_BITS;
    let last = (hi - 1) / WORD_BITS;
    let mut scanned = 0usize;
    for (wi, &word) in words.iter().enumerate().take(last + 1).skip(first) {
        let active = clip_word(word, wi, lo, hi);
        scanned += active.count_ones() as usize;
        if active == 0 {
            continue;
        }
        let base = wi * WORD_BITS;
        let chunk = &values[base..hi.min(base + WORD_BITS)];
        let sel = match pred {
            Some(p) => selection_word(chunk, active, p, imp),
            None => active,
        };
        fold_selection(&mut state, chunk, sel);
    }
    (state, scanned)
}

/// Can any active value in the zone's word satisfy `pred`?
///
/// Zones carry *inclusive* bounds over active rows; `pred.hi` is
/// exclusive. A stale zone is only ever wider than the truth, so a `false`
/// here is always safe to skip on.
#[inline]
fn zone_may_match(z: &Zone, pred: RangePredicate) -> bool {
    z.active > 0 && z.min < pred.hi && z.max >= pred.lo
}

/// Work accounting returned by the zone-pruned kernels: how many words
/// the zones skipped outright and how many active rows were actually
/// examined. The gap between `rows_scanned` and the table's active count
/// is the work the metadata saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneStats {
    /// Words skipped because min/max proved the predicate can't match.
    pub words_pruned: usize,
    /// Active rows whose values were examined.
    pub rows_scanned: usize,
}

impl ZoneStats {
    /// Fold in another chunk's accounting (parallel partials).
    pub fn merge(&mut self, other: ZoneStats) {
        self.words_pruned += other.words_pruned;
        self.rows_scanned += other.rows_scanned;
    }
}

/// Zone-pruned [`scan_active_into`]: identical results, but each word
/// consults `zones[word_index]` (from
/// [`WordZoneMap::zones`](amnesia_columnar::zonemap::WordZoneMap::zones))
/// before touching values. Words beyond `zones` are scanned unpruned, so
/// a short zone slice degrades to correctness, never to wrong answers.
pub fn scan_active_zoned_into(
    values: &[Value],
    words: &[u64],
    zones: &[Zone],
    lo: usize,
    hi: usize,
    pred: RangePredicate,
    out: &mut Vec<RowId>,
) -> ZoneStats {
    let hi = hi.min(values.len());
    let mut stats = ZoneStats::default();
    if lo >= hi || pred.is_empty() {
        return stats;
    }
    let imp = mask_impl();
    let first = lo / WORD_BITS;
    let last = (hi - 1) / WORD_BITS;
    for (wi, &word) in words.iter().enumerate().take(last + 1).skip(first) {
        let active = clip_word(word, wi, lo, hi);
        if active == 0 {
            continue; // all-forgotten word: free before zones even apply
        }
        if let Some(z) = zones.get(wi) {
            if !zone_may_match(z, pred) {
                stats.words_pruned += 1;
                continue;
            }
        }
        stats.rows_scanned += active.count_ones() as usize;
        let base = wi * WORD_BITS;
        let chunk = &values[base..hi.min(base + WORD_BITS)];
        emit_selection(selection_word(chunk, active, pred, imp), base, out);
    }
    stats
}

/// Zone-pruned fused filter+aggregate. Zone pruning *reduces*
/// `rows_scanned` relative to [`aggregate_active`] — the delta is work
/// the metadata saved, which the executor reports per query.
pub fn aggregate_active_zoned(
    values: &[Value],
    words: &[u64],
    zones: &[Zone],
    lo: usize,
    hi: usize,
    pred: Option<RangePredicate>,
) -> (AggState, ZoneStats) {
    let hi = hi.min(values.len());
    let mut state = AggState::new();
    let mut stats = ZoneStats::default();
    if lo >= hi {
        return (state, stats);
    }
    let fallthrough = match pred {
        // No predicate: zones cannot prune (every active row
        // contributes); empty predicate: nothing to prune toward.
        None => true,
        Some(p) => p.is_empty(),
    };
    if fallthrough {
        let (state, scanned) = aggregate_active(values, words, lo, hi, pred);
        stats.rows_scanned = scanned;
        return (state, stats);
    }
    let p = pred.expect("non-empty predicate");
    let imp = mask_impl();
    let first = lo / WORD_BITS;
    let last = (hi - 1) / WORD_BITS;
    for (wi, &word) in words.iter().enumerate().take(last + 1).skip(first) {
        let active = clip_word(word, wi, lo, hi);
        if active == 0 {
            continue;
        }
        if let Some(z) = zones.get(wi) {
            if !zone_may_match(z, p) {
                stats.words_pruned += 1;
                continue;
            }
        }
        stats.rows_scanned += active.count_ones() as usize;
        let base = wi * WORD_BITS;
        let chunk = &values[base..hi.min(base + WORD_BITS)];
        fold_selection(&mut state, chunk, selection_word(chunk, active, p, imp));
    }
    (state, stats)
}

/// Scan one frozen compressed block: fused decode+filter through the
/// codec, masks ANDed with the block's activity words, positions emitted
/// relative to `base_row` (which must be word-aligned). `mask_buf` is a
/// scratch buffer reused across blocks.
fn scan_frozen_block_into(
    block: &amnesia_columnar::compress::EncodedBlock,
    words: &[u64],
    base_row: usize,
    pred: RangePredicate,
    mask_buf: &mut Vec<u64>,
    out: &mut Vec<RowId>,
) {
    debug_assert!(base_row.is_multiple_of(WORD_BITS));
    let base_word = base_row / WORD_BITS;
    let nwords = block.len().div_ceil(WORD_BITS);
    // All-forgotten block: skip the decode entirely — forgetting keeps
    // making scans cheaper, even compressed ones.
    let block_words = words
        .get(base_word..(base_word + nwords).min(words.len()))
        .unwrap_or(&[]);
    if block_words.iter().all(|&w| w == 0) {
        return;
    }
    block.filter_range_masks(pred.lo, pred.hi, mask_buf);
    for (k, &m) in mask_buf.iter().enumerate() {
        let sel = m & block_words.get(k).copied().unwrap_or(0);
        emit_selection(sel, base_row + k * WORD_BITS, out);
    }
}

/// Assert the segmented column's blocks tile whole activity words — the
/// alignment every compressed kernel relies on.
#[inline]
fn assert_word_aligned(col: &SegmentedColumn) {
    assert!(
        col.block_rows().is_multiple_of(WORD_BITS),
        "block size {} must be a whole number of {WORD_BITS}-row words",
        col.block_rows()
    );
}

/// Scan the frozen blocks `[first_block, last_block)` of a compressed
/// column — the parallel kernels' per-chunk primitive. Blocks are
/// word-aligned by construction, so chunking at block boundaries never
/// splits an activity word across threads.
pub fn scan_compressed_blocks_into(
    col: &SegmentedColumn,
    words: &[u64],
    first_block: usize,
    last_block: usize,
    pred: RangePredicate,
    out: &mut Vec<RowId>,
) {
    assert_word_aligned(col);
    let br = col.block_rows();
    let mut mask_buf = Vec::new();
    for b in first_block..last_block.min(col.frozen_segments()) {
        let block = col.frozen_block(b).expect("frozen block in range");
        scan_frozen_block_into(block, words, b * br, pred, &mut mask_buf, out);
    }
}

/// Scan the uncompressed tail of a compressed column with the regular
/// raw-slice kernel (the tail start is word-aligned because every frozen
/// block is).
pub fn scan_compressed_tail_into(
    col: &SegmentedColumn,
    words: &[u64],
    pred: RangePredicate,
    out: &mut Vec<RowId>,
) {
    assert_word_aligned(col);
    let tail = col.tail_values();
    let tail_start = col.frozen_segments() * col.block_rows();
    let imp = mask_impl();
    for (j, chunk) in tail.chunks(WORD_BITS).enumerate() {
        let wi = tail_start / WORD_BITS + j;
        let active = tail_word(words, wi, chunk.len());
        if active == 0 {
            continue;
        }
        let base = tail_start + j * WORD_BITS;
        emit_selection(selection_word(chunk, active, pred, imp), base, out);
    }
}

/// Activity word `wi` clipped to the `chunk_len` rows the compressed
/// snapshot actually covers. The live table may have grown past the
/// snapshot, in which case the word carries activity bits for rows the
/// snapshot does not hold — scanning those would index past the chunk.
#[inline]
pub(crate) fn tail_word(words: &[u64], wi: usize, chunk_len: usize) -> u64 {
    let word = words.get(wi).copied().unwrap_or(0);
    if chunk_len >= WORD_BITS {
        word
    } else {
        word & ((1u64 << chunk_len) - 1)
    }
}

/// Scan a compressed (segmented) column for active rows matching `pred`:
/// every frozen block runs the fused decode+filter path, the uncompressed
/// tail runs the regular raw-slice kernel. `words` spans the whole
/// column. The column's block size must be a whole number of activity
/// words (the default, 1024, is 16 words).
pub fn scan_compressed_active_into(
    col: &SegmentedColumn,
    words: &[u64],
    pred: RangePredicate,
    out: &mut Vec<RowId>,
) {
    if pred.is_empty() || col.is_empty() {
        return;
    }
    scan_compressed_blocks_into(col, words, 0, col.frozen_segments(), pred, out);
    scan_compressed_tail_into(col, words, pred, out);
}

/// Count active matches in a compressed column without materializing row
/// ids — one popcount per selection word, runs and dictionary fast paths
/// included.
pub fn count_compressed_active(
    col: &SegmentedColumn,
    words: &[u64],
    pred: RangePredicate,
) -> usize {
    if pred.is_empty() || col.is_empty() {
        return 0;
    }
    assert_word_aligned(col);
    let br = col.block_rows();
    let mut count = 0usize;
    let mut mask_buf = Vec::new();
    for b in 0..col.frozen_segments() {
        let block = col.frozen_block(b).expect("frozen block in range");
        let base_word = b * br / WORD_BITS;
        let nwords = block.len().div_ceil(WORD_BITS);
        let block_words = words
            .get(base_word..(base_word + nwords).min(words.len()))
            .unwrap_or(&[]);
        if block_words.iter().all(|&w| w == 0) {
            continue;
        }
        block.filter_range_masks(pred.lo, pred.hi, &mut mask_buf);
        for (k, &m) in mask_buf.iter().enumerate() {
            count += (m & block_words.get(k).copied().unwrap_or(0)).count_ones() as usize;
        }
    }
    let tail = col.tail_values();
    let tail_start = col.frozen_segments() * br;
    let imp = mask_impl();
    for (j, chunk) in tail.chunks(WORD_BITS).enumerate() {
        let wi = tail_start / WORD_BITS + j;
        let active = tail_word(words, wi, chunk.len());
        if active == 0 {
            continue;
        }
        count += selection_word(chunk, active, pred, imp).count_ones() as usize;
    }
    count
}

// ---------------------------------------------------------------------
// Tier-aware kernels: scans and aggregates straight over a TieredColumn
// (frozen compressed blocks + hot tail) — the storage's resting state,
// not a snapshot.
// ---------------------------------------------------------------------

/// Work accounting for the tier-aware kernels: how many frozen blocks the
/// cached [`BlockMeta`](amnesia_columnar::BlockMeta) pruned before their
/// payloads were touched, and how many active rows were examined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Frozen blocks skipped because meta proved the predicate can't
    /// match (fully-forgotten blocks included).
    pub blocks_pruned: usize,
    /// Active rows whose values (compressed or hot) were examined.
    pub rows_scanned: usize,
}

impl TierStats {
    /// Fold in another chunk's accounting (parallel partials).
    pub fn merge(&mut self, other: TierStats) {
        self.blocks_pruned += other.blocks_pruned;
        self.rows_scanned += other.rows_scanned;
    }
}

/// The activity words covering frozen block `b` of `tier` (block-local
/// indexing: bit `i` of word `i/64` is row `b * block_rows + i`). Blocks
/// are word-aligned by construction.
#[inline]
pub(crate) fn block_words<'a>(tier: &TieredColumn, words: &'a [u64], b: usize) -> &'a [u64] {
    let base_word = b * tier.block_rows() / WORD_BITS;
    let nwords = tier.block_rows() / WORD_BITS;
    words
        .get(base_word..(base_word + nwords).min(words.len()))
        .unwrap_or(&[])
}

/// Scan frozen blocks `[first, last)` of a tiered column for active rows
/// matching `pred` — the per-chunk primitive behind both the serial and
/// the parallel tiered scans. Each block is pruned by its cached meta
/// (min/max over active rows, active count) before the codec's fused
/// `filter_range_masks` runs; surviving masks AND with the activity
/// words and feed the shared emit loop.
pub fn scan_tiered_blocks_into(
    tier: &TieredColumn,
    words: &[u64],
    first: usize,
    last: usize,
    pred: RangePredicate,
    out: &mut Vec<RowId>,
) -> TierStats {
    let mut stats = TierStats::default();
    let br = tier.block_rows();
    let mut mask_buf = Vec::new();
    for b in first..last.min(tier.frozen_blocks()) {
        let f = tier.frozen(b).expect("frozen block in range");
        let meta = f.meta();
        if !meta.may_match(pred.lo, pred.hi) {
            stats.blocks_pruned += 1;
            continue;
        }
        tier.note_block_access(b);
        let bw = block_words(tier, words, b);
        f.encoded()
            .filter_range_masks(pred.lo, pred.hi, &mut mask_buf);
        stats.rows_scanned += meta.active;
        for (k, &m) in mask_buf.iter().enumerate() {
            let sel = m & bw.get(k).copied().unwrap_or(0);
            emit_selection(sel, b * br + k * WORD_BITS, out);
        }
    }
    stats
}

/// Scan the hot tail of a tiered column with the raw-slice selection
/// kernel (the tail start is word-aligned because frozen blocks tile
/// whole activity words). Returns active rows examined.
pub fn scan_tiered_tail_into(
    tier: &TieredColumn,
    words: &[u64],
    pred: RangePredicate,
    out: &mut Vec<RowId>,
) -> usize {
    let tail = tier.hot_values();
    let tail_start = tier.hot_start();
    let imp = mask_impl();
    let mut scanned = 0usize;
    for (j, chunk) in tail.chunks(WORD_BITS).enumerate() {
        let wi = tail_start / WORD_BITS + j;
        let active = tail_word(words, wi, chunk.len());
        if active == 0 {
            continue;
        }
        scanned += active.count_ones() as usize;
        let base = tail_start + j * WORD_BITS;
        emit_selection(selection_word(chunk, active, pred, imp), base, out);
    }
    scanned
}

/// Scan a tiered column for active rows matching `pred`: frozen blocks
/// run meta-pruned fused decode+filter, the hot tail runs the raw-slice
/// kernel. Results are identical to a flat scan of the same logical
/// column.
pub fn scan_tiered_active_into(
    tier: &TieredColumn,
    words: &[u64],
    pred: RangePredicate,
    out: &mut Vec<RowId>,
) -> TierStats {
    if pred.is_empty() || tier.is_empty() {
        return TierStats::default();
    }
    let mut stats = scan_tiered_blocks_into(tier, words, 0, tier.frozen_blocks(), pred, out);
    stats.rows_scanned += scan_tiered_tail_into(tier, words, pred, out);
    stats
}

/// Fold frozen blocks `[first, last)` into an aggregate state via the
/// codecs' fused `fold_range_masked` — SUM/COUNT/MIN/MAX accumulate in
/// code/offset/run space and the block is never decoded (the
/// `agg_compressed` path the compressed benches measure).
pub fn agg_compressed_blocks(
    tier: &TieredColumn,
    words: &[u64],
    first: usize,
    last: usize,
    pred: Option<RangePredicate>,
) -> (AggState, TierStats) {
    let mut state = AggState::new();
    let mut stats = TierStats::default();
    let filter = pred.map(|p| (p.lo, p.hi));
    for b in first..last.min(tier.frozen_blocks()) {
        let f = tier.frozen(b).expect("frozen block in range");
        let meta = f.meta();
        if meta.active == 0 {
            stats.blocks_pruned += 1;
            continue;
        }
        if let Some(p) = pred {
            if !meta.may_match(p.lo, p.hi) {
                stats.blocks_pruned += 1;
                continue;
            }
        }
        tier.note_block_access(b);
        let mut agg = BlockAgg::new();
        f.encoded()
            .fold_range_masked(filter, block_words(tier, words, b), &mut agg);
        stats.rows_scanned += meta.active;
        if agg.count > 0 {
            state.push_block(agg.count, agg.sum, agg.min, agg.max);
        }
    }
    (state, stats)
}

/// Fold the hot tail of a tiered column (fused filter+aggregate over the
/// raw slice). Returns the partial state and active rows examined.
pub fn agg_tiered_tail(
    tier: &TieredColumn,
    words: &[u64],
    pred: Option<RangePredicate>,
) -> (AggState, usize) {
    let tail = tier.hot_values();
    let tail_start = tier.hot_start();
    let imp = mask_impl();
    let mut state = AggState::new();
    let mut scanned = 0usize;
    for (j, chunk) in tail.chunks(WORD_BITS).enumerate() {
        let wi = tail_start / WORD_BITS + j;
        let active = tail_word(words, wi, chunk.len());
        scanned += active.count_ones() as usize;
        if active == 0 {
            continue;
        }
        let sel = match pred {
            Some(p) => selection_word(chunk, active, p, imp),
            None => active,
        };
        fold_selection(&mut state, chunk, sel);
    }
    (state, scanned)
}

/// Fused filter+aggregate over a tiered column: frozen blocks fold
/// through [`agg_compressed_blocks`] (no decode), the hot tail through
/// the raw-slice path. `rows_scanned` mirrors the flat kernels' contract
/// (active rows examined; meta-pruned blocks are skipped, which is the
/// work the metadata saved). An empty predicate still reports every
/// active row as scanned, matching [`aggregate_active`].
pub fn aggregate_tiered_active(
    tier: &TieredColumn,
    words: &[u64],
    pred: Option<RangePredicate>,
) -> (AggState, TierStats) {
    let mut stats = TierStats::default();
    if tier.is_empty() {
        return (AggState::new(), stats);
    }
    if pred.is_some_and(|p| p.is_empty()) {
        // Predicate selects nothing, but the scan still visits every
        // active row (mirrors the flat kernel's accounting).
        let n = tier.len();
        let scanned: usize = (0..n.div_ceil(WORD_BITS))
            .map(|wi| amnesia_util::bitmap::masked_word(words, wi, 0, n).count_ones() as usize)
            .sum();
        stats.rows_scanned = scanned;
        return (AggState::new(), stats);
    }
    let (mut state, mut stats2) = agg_compressed_blocks(tier, words, 0, tier.frozen_blocks(), pred);
    let (tail_state, tail_scanned) = agg_tiered_tail(tier, words, pred);
    state.merge(&tail_state);
    stats2.rows_scanned += tail_scanned;
    stats.merge(stats2);
    (state, stats)
}

// ---------------------------------------------------------------------
// Tier-aware join kernels: hash-probe frozen blocks in compressed space.
//
// The build side streams keys through `EncodedBlock::for_each_active`
// (and its run/dictionary specializations) in `crate::join`; the probe
// side lives here because it shares the tier plumbing (block words, meta
// pruning, tail clipping) with the scan kernels above. The contract
// mirrors the scans: results are identical to materializing the probe
// column densely and walking it row-at-a-time, but frozen blocks are
// probed in their compressed domain — RLE touches the hash table once
// per run, dictionaries translate the whole lookup into a per-code match
// table computed once per block, FOR/delta/plain stream active rows
// through `for_each_active` without a `Vec<Value>` detour — and blocks
// whose cached meta cannot intersect the build side's key range are
// skipped before their payload is touched.
// ---------------------------------------------------------------------

/// Work accounting for the tiered join probe: frozen probe blocks pruned
/// against the build side's key range, and the active probe rows those
/// skips avoided streaming. The gap between the probe side's active count
/// and `probe_rows_skipped` is the work actually done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Frozen probe blocks skipped (meta disjoint from the build keys,
    /// fully-forgotten, or probed against an empty build side).
    pub blocks_pruned: usize,
    /// Active probe rows inside those skipped blocks.
    pub probe_rows_skipped: usize,
}

impl ProbeStats {
    /// Fold in another chunk's accounting (parallel partials).
    pub fn merge(&mut self, other: ProbeStats) {
        self.blocks_pruned += other.blocks_pruned;
        self.probe_rows_skipped += other.probe_rows_skipped;
    }
}

/// Probe frozen blocks `[first, last)` of a tiered column against a hash
/// table *in compressed space* — the per-chunk primitive behind
/// [`probe_tiered`] and the parallel join. `on_hit(payload, probe_row)`
/// fires for every active probe row whose key is in `build`, in ascending
/// probe-row order (the order a dense probe would emit). `key_range` is
/// the inclusive `[min, max]` of the build keys; blocks whose cached meta
/// cannot intersect it are skipped before their payload is touched
/// (`None` means the build side is empty and every block skips).
pub fn probe_tiered_blocks_with<T>(
    tier: &TieredColumn,
    words: &[u64],
    first: usize,
    last: usize,
    build: &HashMap<Value, T>,
    key_range: Option<(Value, Value)>,
    mut on_hit: impl FnMut(&T, usize),
) -> ProbeStats {
    let mut stats = ProbeStats::default();
    let br = tier.block_rows();
    for b in first..last.min(tier.frozen_blocks()) {
        let f = tier.frozen(b).expect("frozen block in range");
        let meta = f.meta();
        if meta.active == 0 {
            stats.blocks_pruned += 1;
            continue;
        }
        let in_range = match key_range {
            Some((lo, hi)) => meta.may_match_inclusive(lo, hi),
            None => false,
        };
        if !in_range {
            stats.blocks_pruned += 1;
            stats.probe_rows_skipped += meta.active;
            continue;
        }
        tier.note_block_access(b);
        let bw = block_words(tier, words, b);
        let base = b * br;
        let block = f.encoded();
        match block.encoding() {
            // One hash lookup per *run*, fanned over the run's active
            // rows — a long matching run costs its emits, a long missing
            // run costs one lookup.
            Encoding::Rle => rle::for_each_run(block.data(), |v, start, len| {
                if let Some(t) = build.get(&v) {
                    for_each_set_bit_in(bw, start, start + len, |row| on_hit(t, base + row));
                }
            }),
            // The whole hash lookup collapses to a code → match table
            // computed once per block dictionary; the row walk then tests
            // packed codes without reconstructing a single value.
            Encoding::Dict => {
                let dictionary = dict::read_dictionary(block.data());
                let matches: Vec<Option<&T>> = dictionary.iter().map(|v| build.get(v)).collect();
                dict::for_each_active_code(block.data(), bw, |row, code| {
                    if let Some(t) = matches[code as usize] {
                        on_hit(t, base + row);
                    }
                });
            }
            // FOR / delta / plain stream active rows in their own domain
            // (offset rebase, prefix walk, raw reads) — parsed once, no
            // dense materialization.
            _ => block.for_each_active(bw, |row, v| {
                if let Some(t) = build.get(&v) {
                    on_hit(t, base + row);
                }
            }),
        }
    }
    stats
}

/// Probe the hot tail of a tiered column: a direct slice walk over the
/// uncompressed values, one hash lookup per active row, ascending.
pub fn probe_tiered_tail_with<T>(
    tier: &TieredColumn,
    words: &[u64],
    build: &HashMap<Value, T>,
    mut on_hit: impl FnMut(&T, usize),
) {
    let tail = tier.hot_values();
    let tail_start = tier.hot_start();
    for (j, chunk) in tail.chunks(WORD_BITS).enumerate() {
        let wi = tail_start / WORD_BITS + j;
        let mut active = tail_word(words, wi, chunk.len());
        let base = tail_start + j * WORD_BITS;
        while active != 0 {
            let bit = active.trailing_zeros() as usize;
            active &= active - 1;
            if let Some(t) = build.get(&chunk[bit]) {
                on_hit(t, base + bit);
            }
        }
    }
}

/// Probe a whole tiered column against a hash table: frozen blocks in
/// compressed space behind key-range meta pruning, then the hot tail as a
/// direct slice walk. `on_hit` fires in ascending probe-row order —
/// identical to probing a dense materialization of the column.
pub fn probe_tiered_with<T>(
    tier: &TieredColumn,
    words: &[u64],
    build: &HashMap<Value, T>,
    key_range: Option<(Value, Value)>,
    mut on_hit: impl FnMut(&T, usize),
) -> ProbeStats {
    let stats = probe_tiered_blocks_with(
        tier,
        words,
        0,
        tier.frozen_blocks(),
        build,
        key_range,
        &mut on_hit,
    );
    probe_tiered_tail_with(tier, words, build, on_hit);
    stats
}

/// Pair-emitting [`probe_tiered_with`]: the hash-join probe. Appends
/// `(build row, probe row)` pairs grouped by probe row (right-major), the
/// exact order the dense hash join emits.
pub fn probe_tiered(
    tier: &TieredColumn,
    words: &[u64],
    build: &HashMap<Value, Vec<RowId>>,
    key_range: Option<(Value, Value)>,
    out: &mut Vec<(RowId, RowId)>,
) -> ProbeStats {
    probe_tiered_with(tier, words, build, key_range, |ls, row| {
        out.extend(ls.iter().map(|&l| (l, RowId::from(row))));
    })
}

pub mod scalar {
    //! Row-at-a-time reference kernels.
    //!
    //! These are the pre-vectorization implementations, kept verbatim as
    //! the behavioral reference: `tests/kernel_equivalence.rs` asserts the
    //! batch kernels return identical results, and the `scan_kernels` /
    //! `parallel_scan` benches measure the speedup against them.

    use super::*;

    /// Row-at-a-time [`scan_active_into`] equivalent.
    pub fn range_scan_active(table: &Table, col: usize, pred: RangePredicate) -> Vec<RowId> {
        let mut out = Vec::new();
        let column = table.column(col);
        for row in table.iter_active() {
            if pred.matches(column.get(row.as_usize())) {
                out.push(row);
            }
        }
        out
    }

    /// Row-at-a-time complete scan: every physical row, forgotten
    /// included.
    pub fn range_scan_all(table: &Table, col: usize, pred: RangePredicate) -> Vec<RowId> {
        let column = table.column(col);
        (0..table.num_rows())
            .filter(|&r| pred.matches(column.get(r)))
            .map(RowId::from)
            .collect()
    }

    /// Row-at-a-time [`aggregate_active`](super::aggregate_active).
    pub fn aggregate_active(
        table: &Table,
        col: usize,
        pred: Option<RangePredicate>,
        kind: AggKind,
    ) -> (Option<f64>, usize) {
        let column = table.column(col);
        let mut state = AggState::new();
        let mut scanned = 0usize;
        for row in table.iter_active() {
            scanned += 1;
            let v = column.get(row.as_usize());
            if pred.is_none_or(|p| p.matches(v)) {
                state.push(v);
            }
        }
        (state.finalize(kind), scanned)
    }

    /// Row-at-a-time blocked scan (zone-map pruned path reference).
    pub fn range_scan_blocks(
        table: &Table,
        col: usize,
        pred: RangePredicate,
        blocks: &[usize],
        block_rows: usize,
    ) -> Vec<RowId> {
        let mut out = Vec::new();
        let column = table.column(col);
        let activity = table.activity();
        let n = table.num_rows();
        for &b in blocks {
            let lo = b * block_rows;
            let hi = (lo + block_rows).min(n);
            for r in lo..hi {
                let id = RowId::from(r);
                if activity.is_active(id) && pred.matches(column.get(r)) {
                    out.push(id);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::Schema;
    use amnesia_util::SimRng;

    fn table(n: usize, forget_every: usize) -> Table {
        let mut rng = SimRng::new(42);
        let values: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 1000)).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        if forget_every > 0 {
            for r in (0..n).step_by(forget_every) {
                t.forget(RowId::from(r), 1).unwrap();
            }
        }
        t
    }

    #[test]
    fn predicate_mask_bits_match_predicate() {
        let values: Vec<i64> = (0..64).collect();
        let m = predicate_mask(&values, 10, 20, mask_impl());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(m >> i & 1 == 1, (10..20).contains(&v), "bit {i}");
        }
        // Short (tail) chunk: high bits stay clear.
        let m = predicate_mask(&values[..5], 0, 1000, mask_impl());
        assert_eq!(m, 0b11111);
    }

    #[test]
    fn clip_word_bounds() {
        // Algebra lives in amnesia_util; spot-check it from the consumer
        // side so kernel assumptions stay pinned.
        assert_eq!(clip_word(!0, 0, 0, 64), !0);
        assert_eq!(clip_word(!0, 0, 3, 64), !0 << 3);
        assert_eq!(clip_word(!0, 1, 0, 70), (1 << 6) - 1);
        assert_eq!(clip_word(!0, 1, 130, 200), 0);
        assert_eq!(clip_word(!0, 3, 0, 64), 0);
    }

    #[test]
    fn scan_matches_scalar_on_awkward_sizes() {
        for n in [0usize, 1, 63, 64, 65, 1023, 1024, 1025] {
            for forget_every in [0usize, 3] {
                let t = table(n, forget_every);
                let pred = RangePredicate::new(100, 600);
                let mut got = Vec::new();
                scan_active_into(t.col_values(0), t.activity_words(), 0, n, pred, &mut got);
                assert_eq!(
                    got,
                    scalar::range_scan_active(&t, 0, pred),
                    "n={n} forget_every={forget_every}"
                );
            }
        }
    }

    #[test]
    fn subrange_scan_masks_boundaries() {
        let t = table(300, 4);
        let pred = RangePredicate::new(0, 1000); // everything matches
        for (lo, hi) in [
            (0, 300),
            (1, 299),
            (63, 65),
            (64, 128),
            (100, 100),
            (170, 300),
        ] {
            let mut got = Vec::new();
            scan_active_into(t.col_values(0), t.activity_words(), lo, hi, pred, &mut got);
            let expect: Vec<RowId> = t
                .iter_active()
                .filter(|r| (lo..hi).contains(&r.as_usize()))
                .collect();
            assert_eq!(got, expect, "range [{lo}, {hi})");
        }
    }

    #[test]
    fn count_equals_scan_len() {
        let t = table(5000, 7);
        let pred = RangePredicate::new(250, 500);
        let mut rows = Vec::new();
        scan_active_into(
            t.col_values(0),
            t.activity_words(),
            0,
            5000,
            pred,
            &mut rows,
        );
        let (state, _) = aggregate_active(t.col_values(0), t.activity_words(), 0, 5000, Some(pred));
        assert_eq!(state.count() as usize, rows.len());
    }

    #[test]
    fn fused_aggregate_matches_scalar() {
        let t = table(4097, 5);
        for pred in [None, Some(RangePredicate::new(200, 800))] {
            let (state, scanned) =
                aggregate_active(t.col_values(0), t.activity_words(), 0, 4097, pred);
            for kind in AggKind::ALL {
                let (expect, expect_scanned) = scalar::aggregate_active(&t, 0, pred, kind);
                assert_eq!(state.finalize(kind), expect, "{kind:?} pred={pred:?}");
                assert_eq!(scanned, expect_scanned);
            }
        }
    }

    #[test]
    fn aggregate_empty_predicate_still_scans() {
        let t = table(100, 3);
        let (state, scanned) = aggregate_active(
            t.col_values(0),
            t.activity_words(),
            0,
            100,
            Some(RangePredicate::new(50, 10)),
        );
        assert_eq!(state.count(), 0);
        assert_eq!(scanned, t.active_rows());
    }

    #[test]
    fn all_selected_fast_path_engages() {
        // No forgetting, predicate matches everything: every full word
        // takes the slice-fold path; result must still be exact.
        let t = table(640, 0);
        let (state, scanned) = aggregate_active(
            t.col_values(0),
            t.activity_words(),
            0,
            640,
            Some(RangePredicate::new(0, 1000)),
        );
        assert_eq!(state.count(), 640);
        assert_eq!(scanned, 640);
        let expect_sum: i128 = t.col_values(0).iter().map(|&v| v as i128).sum();
        assert_eq!(state.sum(), expect_sum);
    }

    #[test]
    fn agg_state_extremes() {
        let mut s = AggState::new();
        s.push(i64::MAX);
        s.push(i64::MAX);
        assert_eq!(s.finalize(AggKind::Sum), Some(2.0 * i64::MAX as f64));
        assert_eq!(s.finalize(AggKind::Avg), Some(i64::MAX as f64));
        let mut other = AggState::new();
        other.push(i64::MIN);
        s.merge(&other);
        assert_eq!(s.finalize(AggKind::Min), Some(i64::MIN as f64));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn zoned_scan_matches_and_prunes() {
        use amnesia_columnar::WordZoneMap;
        // Sorted column: zones are tight, a narrow predicate prunes hard.
        let values: Vec<i64> = (0..10_000).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        for r in (0..10_000).step_by(9) {
            t.forget(RowId::from(r), 1).unwrap();
        }
        let wz = WordZoneMap::build(&t, 0);
        let pred = RangePredicate::new(4_000, 4_100);
        let n = t.num_rows();

        let mut plain = Vec::new();
        scan_active_into(t.col_values(0), t.activity_words(), 0, n, pred, &mut plain);
        let mut zoned = Vec::new();
        let stats = scan_active_zoned_into(
            t.col_values(0),
            t.activity_words(),
            wz.zones(),
            0,
            n,
            pred,
            &mut zoned,
        );
        assert_eq!(zoned, plain);
        // 10k rows = 157 words; ~2 words can match; everything else prunes.
        assert!(
            stats.words_pruned > 150,
            "pruned only {} words",
            stats.words_pruned
        );
        assert!(
            stats.rows_scanned < 200,
            "scanned {} rows",
            stats.rows_scanned
        );

        let (state, astats) = aggregate_active_zoned(
            t.col_values(0),
            t.activity_words(),
            wz.zones(),
            0,
            n,
            Some(pred),
        );
        let (want, want_scanned) =
            aggregate_active(t.col_values(0), t.activity_words(), 0, n, Some(pred));
        assert_eq!(state.finalize(AggKind::Sum), want.finalize(AggKind::Sum));
        assert_eq!(state.count() as usize, plain.len());
        assert_eq!(astats, stats);
        assert!(
            astats.rows_scanned < want_scanned,
            "zones must shrink scanned rows"
        );
    }

    #[test]
    fn zoned_kernels_tolerate_short_zone_slices() {
        let t = table(200, 3);
        let pred = RangePredicate::new(100, 600);
        let mut want = Vec::new();
        scan_active_into(t.col_values(0), t.activity_words(), 0, 200, pred, &mut want);
        // Empty zone slice: no pruning, same answer.
        let mut got = Vec::new();
        let stats = scan_active_zoned_into(
            t.col_values(0),
            t.activity_words(),
            &[],
            0,
            200,
            pred,
            &mut got,
        );
        assert_eq!(got, want);
        assert_eq!(stats.words_pruned, 0);
    }

    #[test]
    fn compressed_scan_matches_flat_scan() {
        let mut rng = amnesia_util::SimRng::new(9);
        let values: Vec<i64> = (0..5_000).map(|_| rng.range_i64(0, 500)).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        for r in (0..5_000).step_by(4) {
            t.forget(RowId::from(r), 1).unwrap();
        }
        let seg = t.compress_column(0);
        assert!(seg.frozen_segments() >= 4, "test must cover frozen blocks");
        assert!(!seg.tail_values().is_empty(), "test must cover the tail");
        for pred in [
            RangePredicate::new(100, 200),
            RangePredicate::new(0, 500),
            RangePredicate::new(900, 100),
        ] {
            let mut want = Vec::new();
            scan_active_into(
                t.col_values(0),
                t.activity_words(),
                0,
                5_000,
                pred,
                &mut want,
            );
            let mut got = Vec::new();
            scan_compressed_active_into(&seg, t.activity_words(), pred, &mut got);
            assert_eq!(got, want, "pred {pred:?}");
            assert_eq!(
                count_compressed_active(&seg, t.activity_words(), pred),
                want.len()
            );
        }
    }

    #[test]
    fn compressed_scan_tolerates_table_grown_past_snapshot() {
        // Regression: a compressed snapshot is a point-in-time copy; if
        // the live table grows afterwards, its activity words carry bits
        // for rows the snapshot's tail chunk does not hold. Those bits
        // must be clipped, not indexed.
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&(0..1_000).collect::<Vec<i64>>(), 0)
            .unwrap();
        for r in 960..1_000 {
            t.forget(RowId::from(r), 1).unwrap();
        }
        let seg = t.compress_column(0); // covers rows 0..1000
        t.insert_batch(&(1_000..1_010).collect::<Vec<i64>>(), 1)
            .unwrap();
        let pred = RangePredicate::new(0, 2_000);
        let mut got = Vec::new();
        scan_compressed_active_into(&seg, t.activity_words(), pred, &mut got);
        let expect: Vec<RowId> = (0..960).map(RowId::from).collect();
        assert_eq!(got, expect, "snapshot scan covers snapshot rows only");
        assert_eq!(
            count_compressed_active(&seg, t.activity_words(), pred),
            expect.len()
        );
    }

    #[test]
    fn tiered_kernels_match_flat_kernels() {
        let mut rng = amnesia_util::SimRng::new(13);
        let values: Vec<i64> = (0..6_000).map(|_| rng.range_i64(0, 700)).collect();
        let mut flat = Table::new(Schema::single("a"));
        flat.insert_batch(&values, 0).unwrap();
        let mut tiered = flat.clone();
        for r in (0..6_000).step_by(3) {
            flat.forget(RowId::from(r), 1).unwrap();
            tiered.forget(RowId::from(r), 1).unwrap();
        }
        tiered.freeze_upto(5_000); // 4 frozen blocks + hot tail
        assert_eq!(tiered.frozen_blocks(), 4);
        let words = tiered.activity_words();
        let tier = tiered.col_tier(0);
        for pred in [
            RangePredicate::new(100, 300),
            RangePredicate::new(0, 700),
            RangePredicate::new(650, 100),
        ] {
            let mut want = Vec::new();
            scan_active_into(
                flat.col_values(0),
                flat.activity_words(),
                0,
                6_000,
                pred,
                &mut want,
            );
            let mut got = Vec::new();
            scan_tiered_active_into(tier, words, pred, &mut got);
            assert_eq!(got, want, "scan {pred:?}");
            let (state, _) = aggregate_tiered_active(tier, words, Some(pred));
            assert_eq!(state.count() as usize, want.len(), "count {pred:?}");
            for predicate in [None, Some(pred)] {
                let (want_state, want_scanned) = aggregate_active(
                    flat.col_values(0),
                    flat.activity_words(),
                    0,
                    6_000,
                    predicate,
                );
                let (state, stats) = aggregate_tiered_active(tier, words, predicate);
                assert_eq!(state.count(), want_state.count(), "agg count {predicate:?}");
                assert_eq!(state.sum(), want_state.sum(), "agg sum {predicate:?}");
                for kind in AggKind::ALL {
                    assert_eq!(
                        state.finalize(kind),
                        want_state.finalize(kind),
                        "agg {kind:?} {predicate:?}"
                    );
                }
                assert!(
                    stats.rows_scanned <= want_scanned,
                    "meta may only shrink work"
                );
            }
            // Complete scan sees forgotten rows too.
            let preds = [crate::physical::ColPred::from_range(0, pred)];
            let want_all = scalar::range_scan_all(&flat, 0, pred);
            let flat_all = crate::kernels::selection_scan_all(&flat, &preds);
            let got_all = crate::kernels::selection_scan_all(&tiered, &preds);
            assert_eq!(
                crate::kernels::selection_rows(&flat_all),
                want_all,
                "scan-all {pred:?}"
            );
            assert_eq!(
                crate::kernels::selection_rows(&got_all),
                want_all,
                "scan-all {pred:?}"
            );
        }
    }

    #[test]
    fn tiered_meta_prunes_blocks() {
        // Sorted column: block meta is tight; a narrow predicate prunes
        // every frozen block but one.
        let values: Vec<i64> = (0..8_192).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        t.freeze_upto(8_192);
        assert_eq!(t.frozen_blocks(), 8);
        let tier = t.col_tier(0);
        let pred = RangePredicate::new(3_100, 3_200); // inside block 3
        let mut out = Vec::new();
        let stats = scan_tiered_active_into(tier, t.activity_words(), pred, &mut out);
        assert_eq!(out.len(), 100);
        assert_eq!(stats.blocks_pruned, 7, "only block 3 survives");
        assert!(stats.rows_scanned <= 1024);
        // Fully-forgotten blocks prune without the payload being touched.
        let mut t2 = Table::new(Schema::single("a"));
        t2.insert_batch(&values, 0).unwrap();
        for r in 0..1_024u64 {
            t2.forget(RowId(r), 1).unwrap();
        }
        t2.freeze_upto(8_192);
        let (state, stats) = aggregate_tiered_active(t2.col_tier(0), t2.activity_words(), None);
        assert_eq!(state.count(), 8_192 - 1_024);
        assert_eq!(stats.blocks_pruned, 1, "the dead block");
    }

    #[test]
    fn compressed_scan_skips_forgotten_blocks() {
        // Whole first block forgotten: the scan must not decode it (we
        // can't observe the skip directly, but the result must hold).
        let values: Vec<i64> = (0..2_048).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        for r in 0..1_024 {
            t.forget(RowId::from(r), 1).unwrap();
        }
        let seg = t.compress_column(0);
        let mut got = Vec::new();
        scan_compressed_active_into(
            &seg,
            t.activity_words(),
            RangePredicate::new(0, 3_000),
            &mut got,
        );
        let expect: Vec<RowId> = (1_024..2_048).map(RowId::from).collect();
        assert_eq!(got, expect);
    }
}
