//! Equi-join execution over amnesiac tables — tier-aware since the
//! tiered-join PR.
//!
//! The paper carves its workload out of "the unbounded space of
//! SELECT-PROJECT-JOIN queries" (§2.2) and flags joins as the place where
//! amnesia bites hardest: a forgotten tuple on *either* side removes all
//! its join partners from the result (§5's referential-integrity
//! discussion). The hash join here exposes both visibility regimes so the
//! JOIN-PREC experiment can compare the amnesiac answer with the
//! all-rows-ever ground truth kept by mark-only storage.
//!
//! # Tier-aware execution
//!
//! Compression is the table's *resting state* (see
//! [`amnesia_columnar::tier`]): cold blocks live as [`EncodedBlock`]s and
//! every scan/aggregate kernel reads them in place. Joins were the last
//! operator that silently undid that — `col_values_dense` re-materialized
//! every frozen block into a `Vec<Value>`, spending exactly the memory
//! tiering saved. Under [`ForgetVisibility::ActiveOnly`] both join sides
//! now run in compressed space:
//!
//! * **Build** streams each frozen block's active keys straight into the
//!   hash table via the codecs' structural visitors: RLE decodes a run's
//!   value once and touches the hash table once per run
//!   ([`rle::for_each_run`]), dictionaries insert each distinct value
//!   *once* and fan row ids out by code
//!   ([`dict::read_dictionary`] + [`dict::for_each_active_code`]),
//!   FOR/delta walk active rows in offset/prefix space
//!   ([`EncodedBlock::for_each_active`]). The hot tail is a raw slice
//!   walk. No dense `Vec<Value>` is ever allocated —
//!   [`amnesia_columnar::compress::block_decodes`] pins that in tests
//!   and `join_bench`.
//! * **Probe** runs [`crate::batch::probe_tiered`]: frozen probe blocks
//!   are pruned by their cached [`BlockMeta`](amnesia_columnar::BlockMeta)
//!   against the build side's `[min, max]` key range before the payload
//!   is touched ([`JoinStats::blocks_pruned`] /
//!   [`JoinStats::probe_rows_skipped`] report the skips), survivors probe
//!   in their codec's domain (one lookup per RLE run, a code→match table
//!   per block dictionary, offset/prefix walks for FOR/delta), and the
//!   hot tail probes as a direct slice.
//!
//! Output pairs are byte-identical to the dense join: ascending per key
//! on the build side, right-major in probe-row order on the probe side
//! (`tests/kernel_equivalence.rs` proves it across codecs × block sizes ×
//! freeze/forget/recompress interleavings).
//!
//! The [`ForgetVisibility::ScanSeesForgotten`] ground truth still
//! materializes densely on purpose: it must read *forgotten* rows, which
//! the active-only streaming never touches — and the store layer gates
//! every lossy tier transition (drop/recompress) off that regime. Those
//! deliberate decodes carry inline `lint: allow(dense)` waivers;
//! `amnesia-lint` statically bans dense materialization everywhere else
//! (the no-decode rule and its waiver policy live in `CONTRIBUTING.md`
//! at the repo root).
//!
//! [`EncodedBlock`]: amnesia_columnar::compress::EncodedBlock
//! [`EncodedBlock::for_each_active`]: amnesia_columnar::compress::EncodedBlock::for_each_active
//! [`rle::for_each_run`]: amnesia_columnar::compress::rle::for_each_run
//! [`dict::read_dictionary`]: amnesia_columnar::compress::dict::read_dictionary
//! [`dict::for_each_active_code`]: amnesia_columnar::compress::dict::for_each_active_code

use std::collections::HashMap;

use amnesia_columnar::compress::{dict, rle, Encoding};
use amnesia_columnar::{RowId, Table, Value};

use amnesia_util::bitmap::{any_set_bit_in, count_set_bits_in, for_each_set_bit_in};

use crate::batch;
use crate::mode::ForgetVisibility;

/// Cardinalities observed while executing a join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinStats {
    /// Rows hashed on the build side.
    pub build_rows: usize,
    /// Distinct keys in the build table.
    pub build_distinct_keys: usize,
    /// Rows participating on the probe side (active rows under the
    /// amnesiac regime; [`Self::probe_rows_skipped`] of them may have
    /// been pruned without being streamed).
    pub probe_rows: usize,
    /// Output pairs produced.
    pub output_pairs: usize,
    /// Frozen probe blocks skipped because their cached meta cannot
    /// intersect the build side's key range (tiered probe only).
    pub blocks_pruned: usize,
    /// Active probe rows inside those skipped blocks — work the metadata
    /// saved.
    pub probe_rows_skipped: usize,
}

/// A join answer: matching `(left row, right row)` pairs plus stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinResult {
    /// Matching row pairs in probe order (right-major).
    pub pairs: Vec<(RowId, RowId)>,
    /// Execution cardinalities.
    pub stats: JoinStats,
}

/// A build-side hash table (`key → ascending build rows`) plus the
/// inclusive `[min, max]` range of its keys (`None` when no active row
/// exists) — what the probe side prunes frozen blocks against.
type BuildTable = (HashMap<Value, Vec<RowId>>, Option<(Value, Value)>);

/// Widen an inclusive key range to cover `v`.
#[inline]
fn widen(range: &mut Option<(Value, Value)>, v: Value) {
    *range = Some(match *range {
        Some((lo, hi)) => (lo.min(v), hi.max(v)),
        None => (v, v),
    });
}

/// How a build-side accumulator ingests the keys streamed from the
/// tiers. The block dispatch — which codec streams how — lives once in
/// [`stream_active_keys`]; the two sinks below decide what accumulates
/// (ascending row lists for the pair join, multiplicities for the
/// count-only join).
trait BuildSink {
    /// An RLE run of `len` rows sharing `v`, starting at block-local row
    /// `start` of the block whose first global row is `base`; `bw` are
    /// the block-local activity words.
    fn run(&mut self, v: Value, bw: &[u64], base: usize, start: usize, len: usize);
    /// One distinct dictionary value with its ascending block-local
    /// active rows (never empty).
    fn code_group(&mut self, v: Value, base: usize, rows: &[u32]);
    /// A single active row at global `row` holding `v`.
    fn row(&mut self, v: Value, row: usize);
}

/// Stream the active keys of one column into a [`BuildSink`] without
/// dense materialization. Each codec feeds through its structure: RLE
/// hands whole runs over ([`rle::for_each_run`] — one sink call per
/// run), dict buckets active rows per code in one unpacking pass and
/// hands each distinct dictionary value over exactly once, FOR/delta/
/// plain stream `(row, value)` through
/// [`amnesia_columnar::compress::EncodedBlock::for_each_active`], and
/// the hot tail walks as a raw slice. Blocks ascend and every fan-out
/// ascends, so per key the accumulated rows are byte-identical to a
/// dense build's.
fn stream_active_keys(table: &Table, col: usize, sink: &mut impl BuildSink) {
    stream_selected_keys(table, col, table.activity_words(), sink)
}

/// [`stream_active_keys`] under an *external* selection-mask vector —
/// the physical plan's filtered build side. `words` stands in for the
/// activity words everywhere (the scan already ANDed activity in), so
/// only rows surviving the pushed-down predicates reach the sink; blocks
/// whose selection words are all zero skip before their payload is
/// touched.
fn stream_selected_keys(table: &Table, col: usize, words: &[u64], sink: &mut impl BuildSink) {
    let tier = table.col_tier(col);
    stream_selected_keys_blocks(table, col, words, 0, tier.frozen_blocks(), sink);
    stream_selected_keys_rows(table, col, words, tier.hot_start(), table.num_rows(), sink);
}

/// The frozen-block half of [`stream_selected_keys`], restricted to
/// blocks `[first, last)` — the morsel scheduler's build unit.
fn stream_selected_keys_blocks(
    table: &Table,
    col: usize,
    words: &[u64],
    first: usize,
    last: usize,
    sink: &mut impl BuildSink,
) {
    let tier = table.col_tier(col);
    let br = tier.block_rows();
    for b in first..last {
        let f = tier.frozen(b).expect("frozen block in range");
        if f.meta().active == 0 {
            continue; // dropped or fully-forgotten: payload never touched
        }
        let bw = batch::block_words(tier, words, b);
        if bw.iter().all(|&w| w == 0) {
            continue; // nothing selected in this block
        }
        tier.note_block_access(b);
        let base = b * br;
        let block = f.encoded();
        match block.encoding() {
            Encoding::Rle => rle::for_each_run(block.data(), |v, start, len| {
                sink.run(v, bw, base, start, len)
            }),
            Encoding::Dict => {
                let dictionary = dict::read_dictionary(block.data());
                let mut rows_per_code: Vec<Vec<u32>> = vec![Vec::new(); dictionary.len()];
                dict::for_each_active_code(block.data(), bw, |row, code| {
                    rows_per_code[code as usize].push(row as u32);
                });
                for (code, rows) in rows_per_code.iter().enumerate() {
                    if !rows.is_empty() {
                        sink.code_group(dictionary[code], base, rows);
                    }
                }
            }
            _ => block.for_each_active(bw, |row, v| sink.row(v, base + row)),
        }
    }
}

/// The hot half of [`stream_selected_keys`], restricted to absolute rows
/// `[lo, hi)` (word-aligned `lo`, rows at or past the column's
/// `hot_start`).
fn stream_selected_keys_rows(
    table: &Table,
    col: usize,
    words: &[u64],
    lo: usize,
    hi: usize,
    sink: &mut impl BuildSink,
) {
    let tier = table.col_tier(col);
    let hot = tier.hot_values();
    let start = tier.hot_start();
    for wi in lo / amnesia_util::WORD_BITS..hi.div_ceil(amnesia_util::WORD_BITS) {
        let base = wi * amnesia_util::WORD_BITS;
        let mut active = batch::tail_word(words, wi, (hi - base).min(amnesia_util::WORD_BITS));
        while active != 0 {
            let bit = active.trailing_zeros() as usize;
            active &= active - 1;
            sink.row(hot[base - start + bit], base + bit);
        }
    }
}

/// Accumulates `key → ascending build rows` — the pair join's build.
struct RowsSink {
    map: HashMap<Value, Vec<RowId>>,
    range: Option<(Value, Value)>,
}

impl BuildSink for RowsSink {
    fn run(&mut self, v: Value, bw: &[u64], base: usize, start: usize, len: usize) {
        // One entry lookup per run; runs with no active rows are skipped
        // so the table never learns rowless keys.
        if any_set_bit_in(bw, start, start + len) {
            widen(&mut self.range, v);
            let rows = self.map.entry(v).or_default();
            for_each_set_bit_in(bw, start, start + len, |row| {
                rows.push(RowId::from(base + row));
            });
        }
    }

    fn code_group(&mut self, v: Value, base: usize, rows: &[u32]) {
        widen(&mut self.range, v);
        self.map
            .entry(v)
            .or_default()
            .extend(rows.iter().map(|&row| RowId::from(base + row as usize)));
    }

    fn row(&mut self, v: Value, row: usize) {
        widen(&mut self.range, v);
        self.map.entry(v).or_default().push(RowId::from(row));
    }
}

/// Accumulates `key → multiplicity` — the count-only join's build (RLE
/// runs fold a whole popcount at once instead of fanning out rows).
struct CountsSink {
    map: HashMap<Value, usize>,
    range: Option<(Value, Value)>,
}

impl CountsSink {
    fn note(&mut self, v: Value, n: usize) {
        if n > 0 {
            widen(&mut self.range, v);
            *self.map.entry(v).or_default() += n;
        }
    }
}

impl BuildSink for CountsSink {
    fn run(&mut self, v: Value, bw: &[u64], _base: usize, start: usize, len: usize) {
        self.note(v, count_set_bits_in(bw, start, start + len));
    }

    fn code_group(&mut self, v: Value, _base: usize, rows: &[u32]) {
        self.note(v, rows.len());
    }

    fn row(&mut self, v: Value, _row: usize) {
        self.note(v, 1);
    }
}

/// Build the hash table `key → ascending build rows` from the active rows
/// of one column, streaming frozen blocks in compressed space (no dense
/// `Vec<Value>` detour), plus the inclusive `[min, max]` key range the
/// probe prunes against (`None` when no active row exists).
fn build_rows_map(table: &Table, col: usize) -> BuildTable {
    let mut sink = RowsSink {
        map: HashMap::with_capacity(table.active_rows()),
        range: None,
    };
    stream_active_keys(table, col, &mut sink);
    (sink.map, sink.range)
}

/// Build the pair-join hash table from the rows *selected* by an
/// external selection-mask vector (the physical plan's filtered build
/// side), streaming frozen blocks in compressed space exactly like
/// [`build_rows_map`]. Exposed for
/// [`Executor::execute_plan`](crate::exec::Executor::execute_plan).
pub(crate) fn build_rows_map_with(table: &Table, col: usize, words: &[u64]) -> BuildTable {
    let mut sink = RowsSink {
        map: HashMap::new(),
        range: None,
    };
    stream_selected_keys(table, col, words, &mut sink);
    (sink.map, sink.range)
}

/// [`build_rows_map_with`] restricted to one morsel of the build side.
/// Each per-morsel map holds ascending rows per key; the scheduler
/// concatenates the maps in span order, so a key's final row list is
/// byte-identical to the serial build's.
pub(crate) fn build_rows_map_span(
    table: &Table,
    col: usize,
    words: &[u64],
    span: &crate::morsel::Span,
) -> BuildTable {
    let mut sink = RowsSink {
        map: HashMap::new(),
        range: None,
    };
    match *span {
        crate::morsel::Span::Blocks { first, last } => {
            stream_selected_keys_blocks(table, col, words, first, last, &mut sink)
        }
        crate::morsel::Span::Rows { lo, hi } => {
            stream_selected_keys_rows(table, col, words, lo, hi, &mut sink)
        }
    }
    (sink.map, sink.range)
}

/// Build `key → multiplicity` for the count-only join.
fn build_counts_map(table: &Table, col: usize) -> (HashMap<Value, usize>, Option<(Value, Value)>) {
    let mut sink = CountsSink {
        map: HashMap::new(),
        range: None,
    };
    stream_active_keys(table, col, &mut sink);
    (sink.map, sink.range)
}

/// Pre-size the pair output: each probe row matches the average build-key
/// multiplicity (exact for foreign-key joins, an estimate otherwise).
/// Capped at the input cardinality so a skewed build side (one hot key)
/// cannot request a quadratic allocation up front — beyond the cap,
/// normal Vec growth takes over.
fn pair_estimate(build_rows: usize, build_distinct_keys: usize, probe_rows: usize) -> usize {
    let avg_multiplicity = build_rows.div_ceil(build_distinct_keys.max(1));
    probe_rows
        .saturating_mul(avg_multiplicity)
        .min(probe_rows.max(build_rows))
}

/// The amnesiac hash join: build and probe both run tier-aware — frozen
/// blocks stream/probe in compressed space, hot tails as raw slices, and
/// a fully hot table is simply the all-tail case of the same code path.
fn hash_join_active(left: &Table, left_col: usize, right: &Table, right_col: usize) -> JoinResult {
    let build_rows = left.active_rows();
    let probe_rows = right.active_rows();
    let (build, key_range) = build_rows_map(left, left_col);
    let build_distinct_keys = build.len();
    let mut pairs = Vec::with_capacity(pair_estimate(build_rows, build_distinct_keys, probe_rows));
    let probe = batch::probe_tiered(
        right.col_tier(right_col),
        right.activity_words(),
        &build,
        key_range,
        &mut pairs,
    );
    let output_pairs = pairs.len();
    JoinResult {
        pairs,
        stats: JoinStats {
            build_rows,
            build_distinct_keys,
            probe_rows,
            output_pairs,
            blocks_pruned: probe.blocks_pruned,
            probe_rows_skipped: probe.probe_rows_skipped,
        },
    }
}

/// The mark-only ground truth: every physical row participates, so both
/// sides materialize densely (forgotten rows' values live nowhere else).
/// The store layer gates lossy tier transitions (drop/recompress) off
/// this regime, which is what keeps the answer exact.
fn hash_join_all(left: &Table, left_col: usize, right: &Table, right_col: usize) -> JoinResult {
    let build_rows = left.num_rows();
    let probe_rows = right.num_rows();
    // lint: allow(dense) mark-only ground truth: forgotten rows' values survive nowhere but the dense decode
    let left_vals = left.col_values_dense(left_col);
    // lint: allow(dense) mark-only ground truth: forgotten rows' values survive nowhere but the dense decode
    let right_vals = right.col_values_dense(right_col);
    let left_vals = left_vals.as_ref();
    let right_vals = right_vals.as_ref();

    let mut build: HashMap<Value, Vec<RowId>> = HashMap::with_capacity(build_rows);
    for (r, &v) in left_vals.iter().enumerate() {
        build.entry(v).or_default().push(RowId::from(r));
    }
    let build_distinct_keys = build.len();
    let mut pairs = Vec::with_capacity(pair_estimate(build_rows, build_distinct_keys, probe_rows));
    for (r, &v) in right_vals.iter().enumerate() {
        if let Some(ls) = build.get(&v) {
            pairs.extend(ls.iter().map(|&l| (l, RowId::from(r))));
        }
    }
    let output_pairs = pairs.len();
    JoinResult {
        pairs,
        stats: JoinStats {
            build_rows,
            build_distinct_keys,
            probe_rows,
            output_pairs,
            blocks_pruned: 0,
            probe_rows_skipped: 0,
        },
    }
}

/// Hash equi-join `left.left_col = right.right_col`.
///
/// Builds on the left input and probes with the right, so pairs come out
/// grouped by right row. `visibility` decides whether forgotten tuples
/// participate: [`ForgetVisibility::ActiveOnly`] is the amnesiac answer
/// (tier-aware: frozen blocks build and probe in compressed space — see
/// the module docs), [`ForgetVisibility::ScanSeesForgotten`] the
/// mark-only ground truth (dense by necessity: it must read forgotten
/// rows).
pub fn hash_join(
    left: &Table,
    left_col: usize,
    right: &Table,
    right_col: usize,
    visibility: ForgetVisibility,
) -> JoinResult {
    match visibility {
        ForgetVisibility::ActiveOnly => hash_join_active(left, left_col, right, right_col),
        ForgetVisibility::ScanSeesForgotten => hash_join_all(left, left_col, right, right_col),
    }
}

/// Number of matching pairs without materializing them. Tier-aware under
/// [`ForgetVisibility::ActiveOnly`]: the build folds multiplicities in
/// compressed space (one popcount per RLE run, a histogram per block
/// dictionary) and the probe adds `multiplicity` per hit without touching
/// row ids.
pub fn hash_join_count(
    left: &Table,
    left_col: usize,
    right: &Table,
    right_col: usize,
    visibility: ForgetVisibility,
) -> usize {
    match visibility {
        ForgetVisibility::ActiveOnly => {
            let (build, key_range) = build_counts_map(left, left_col);
            let mut count = 0usize;
            batch::probe_tiered_with(
                right.col_tier(right_col),
                right.activity_words(),
                &build,
                key_range,
                |&m, _| count += m,
            );
            count
        }
        ForgetVisibility::ScanSeesForgotten => {
            // lint: allow(dense) ScanSeesForgotten is a whitelisted seam: it must see rows the tiered path hides
            let left_vals = left.col_values_dense(left_col);
            // lint: allow(dense) ScanSeesForgotten is a whitelisted seam: it must see rows the tiered path hides
            let right_vals = right.col_values_dense(right_col);
            let mut build: HashMap<Value, usize> = HashMap::with_capacity(left.num_rows());
            for &v in left_vals.as_ref() {
                *build.entry(v).or_default() += 1;
            }
            right_vals
                .as_ref()
                .iter()
                .filter_map(|v| build.get(v).copied())
                .sum()
        }
    }
}

/// Join precision under amnesia: pairs surviving in the active join over
/// pairs in the all-rows ground truth (`RF/(RF+MF)` lifted to joins).
/// `None` when the ground-truth join is empty.
pub fn join_precision(
    left: &Table,
    left_col: usize,
    right: &Table,
    right_col: usize,
) -> Option<f64> {
    let truth = hash_join_count(
        left,
        left_col,
        right,
        right_col,
        ForgetVisibility::ScanSeesForgotten,
    );
    if truth == 0 {
        return None;
    }
    let active = hash_join_count(
        left,
        left_col,
        right,
        right_col,
        ForgetVisibility::ActiveOnly,
    );
    Some(active as f64 / truth as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::Schema;

    /// parent(key), child(fk, payload).
    fn fixtures() -> (Table, Table) {
        let mut parent = Table::new(Schema::single("key"));
        for k in [1i64, 2, 3, 3] {
            parent.insert(&[k], 0).unwrap();
        }
        let mut child = Table::new(Schema::new(vec!["fk", "payload"]));
        for (fk, p) in [(1i64, 10i64), (1, 11), (3, 30), (4, 40)] {
            child.insert(&[fk, p], 0).unwrap();
        }
        (parent, child)
    }

    #[test]
    fn join_matches_expected_pairs() {
        let (parent, child) = fixtures();
        let r = hash_join(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly);
        // key 1 → child rows 0,1; key 3 appears twice in parent → child
        // row 2 pairs with both parent rows 2 and 3; key 4 dangles.
        assert_eq!(r.stats.output_pairs, 4);
        let mut pairs = r.pairs.clone();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                (RowId(0), RowId(0)),
                (RowId(0), RowId(1)),
                (RowId(2), RowId(2)),
                (RowId(3), RowId(2)),
            ]
        );
        assert_eq!(r.stats.build_rows, 4);
        assert_eq!(r.stats.build_distinct_keys, 3);
        assert_eq!(r.stats.probe_rows, 4);
    }

    #[test]
    fn count_agrees_with_materialized_join() {
        let (parent, child) = fixtures();
        for vis in [
            ForgetVisibility::ActiveOnly,
            ForgetVisibility::ScanSeesForgotten,
        ] {
            let full = hash_join(&parent, 0, &child, 0, vis);
            let count = hash_join_count(&parent, 0, &child, 0, vis);
            assert_eq!(count, full.stats.output_pairs, "{vis:?}");
        }
    }

    #[test]
    fn forgetting_a_build_row_removes_its_pairs() {
        let (mut parent, child) = fixtures();
        parent.forget(RowId(0), 1).unwrap(); // key 1 forgotten
        let active = hash_join(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(active.stats.output_pairs, 2, "only key-3 pairs remain");
        // Ground truth still sees everything.
        let truth = hash_join(&parent, 0, &child, 0, ForgetVisibility::ScanSeesForgotten);
        assert_eq!(truth.stats.output_pairs, 4);
    }

    #[test]
    fn forgetting_a_probe_row_removes_its_pairs() {
        let (parent, mut child) = fixtures();
        child.forget(RowId(2), 1).unwrap(); // fk=3 child forgotten
        let active = hash_join(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(active.stats.output_pairs, 2, "key-1 pairs remain");
    }

    #[test]
    fn precision_tracks_forgotten_pairs() {
        let (mut parent, child) = fixtures();
        assert_eq!(join_precision(&parent, 0, &child, 0), Some(1.0));
        parent.forget(RowId(0), 1).unwrap(); // kills 2 of 4 pairs
        assert_eq!(join_precision(&parent, 0, &child, 0), Some(0.5));
    }

    #[test]
    fn empty_truth_yields_none() {
        let mut left = Table::new(Schema::single("a"));
        left.insert(&[1], 0).unwrap();
        let mut right = Table::new(Schema::single("a"));
        right.insert(&[2], 0).unwrap();
        assert_eq!(join_precision(&left, 0, &right, 0), None);
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        let left = Table::new(Schema::single("a"));
        let right = Table::new(Schema::single("a"));
        let r = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        assert!(r.pairs.is_empty());
        assert_eq!(r.stats.build_distinct_keys, 0);
    }

    #[test]
    fn self_join_counts_value_multiplicities() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[5, 5, 5, 9], 0).unwrap();
        let n = hash_join_count(&t, 0, &t, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(n, 9 + 1, "3×3 fives plus 1×1 nine");
    }

    /// Frozen fixtures: same logical tables as [`fixtures`], but every
    /// full 64-row block compressed (the tables are padded so freezing
    /// actually engages).
    fn frozen_fixtures() -> (Table, Table) {
        let mut parent = Table::with_block_rows(Schema::single("key"), 64);
        let mut keys = vec![1i64, 2, 3, 3];
        keys.extend(std::iter::repeat_n(1_000, 60)); // pad: never joins
        parent.insert_batch(&keys, 0).unwrap();
        let mut child = Table::new(Schema::new(vec!["fk", "payload"]));
        for (fk, p) in [(1i64, 10i64), (1, 11), (3, 30), (4, 40)] {
            child.insert(&[fk, p], 0).unwrap();
        }
        parent.freeze_upto(64);
        assert!(parent.has_frozen());
        (parent, child)
    }

    #[test]
    fn frozen_build_side_matches_dense_join() {
        let (parent, child) = frozen_fixtures();
        let r = hash_join(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly);
        let mut pairs = r.pairs.clone();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                (RowId(0), RowId(0)),
                (RowId(0), RowId(1)),
                (RowId(2), RowId(2)),
                (RowId(3), RowId(2)),
            ]
        );
        assert_eq!(r.stats.build_distinct_keys, 4, "1, 2, 3 and the pad key");
        assert_eq!(
            hash_join_count(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly),
            4
        );
    }

    #[test]
    fn frozen_probe_blocks_prune_against_build_key_range() {
        // Build keys live in [0, 100); the probe column's second frozen
        // block holds only values ≥ 10_000, so its meta prunes it.
        let mut build = Table::new(Schema::single("k"));
        build
            .insert_batch(&(0..100).collect::<Vec<i64>>(), 0)
            .unwrap();
        let mut probe = Table::with_block_rows(Schema::single("k"), 64);
        let vals: Vec<i64> = (0..64)
            .map(|i| i % 50)
            .chain((0..64).map(|i| 10_000 + i))
            .chain([7, 8])
            .collect();
        probe.insert_batch(&vals, 0).unwrap();
        probe.freeze_upto(128);
        let r = hash_join(&build, 0, &probe, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(r.stats.blocks_pruned, 1, "the 10k block");
        assert_eq!(r.stats.probe_rows_skipped, 64);
        assert_eq!(r.stats.output_pairs, 64 + 2, "block 0 plus the hot tail");
        // Forgotten-inclusive ground truth is oblivious to pruning.
        let truth = hash_join(&build, 0, &probe, 0, ForgetVisibility::ScanSeesForgotten);
        assert_eq!(truth.stats.blocks_pruned, 0);
        assert_eq!(truth.stats.output_pairs, 66);
    }

    #[test]
    fn empty_build_side_prunes_every_probe_block() {
        let left = Table::new(Schema::single("a"));
        let mut right = Table::with_block_rows(Schema::single("a"), 64);
        right
            .insert_batch(&(0..128).collect::<Vec<i64>>(), 0)
            .unwrap();
        right.freeze_upto(128);
        let r = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        assert!(r.pairs.is_empty());
        assert_eq!(r.stats.blocks_pruned, 2);
        assert_eq!(r.stats.probe_rows_skipped, 128);
    }
}
