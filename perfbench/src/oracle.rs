//! Answer oracle for the single-attribute store workloads.
//!
//! [`Mirror`] keeps every value ever inserted, its active bit, and a
//! value-sorted index, all updated incrementally from the same inputs the
//! store receives. It never reads the store. Each store answer is checked
//! against it outside the timed interval: row count and an
//! order-independent row-id checksum for scans, the value for `AVG`. The
//! same pass scores the paper's precision (PF): active matches over
//! full-history matches.

use amnesia_columnar::RowId;
use amnesia_engine::QueryOutput;
use amnesia_workload::query::{AggKind, RangePredicate};
use amnesia_workload::Query;

/// Order-independent checksum of a set of row ids.
pub fn row_checksum(rows: impl IntoIterator<Item = u64>) -> u64 {
    rows.into_iter()
        .fold(0u64, |acc, r| acc.wrapping_add(mix(r)))
}

/// SplitMix64 finaliser: spreads row ids so a wrong set rarely sums
/// to the right checksum.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a correct store must answer, plus the query's precision inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Active matching rows.
    pub count: usize,
    /// [`row_checksum`] of the active matching rows.
    pub checksum: u64,
    /// `AVG` over active matches (aggregate queries only).
    pub avg: Option<f64>,
    /// Matching rows over the full history, forgotten ones included.
    pub history: usize,
}

impl Expected {
    /// PF of this query, or `None` when nothing ever matched.
    pub fn precision(&self) -> Option<f64> {
        (self.history > 0).then(|| self.count as f64 / self.history as f64)
    }
}

/// Does `out` answer the query the way `exp` says it must?
pub fn answer_matches(q: &Query, out: &QueryOutput, exp: &Expected) -> bool {
    match (q, out) {
        (Query::Range(_) | Query::Point(_), QueryOutput::Rows(rows)) => {
            rows.len() == exp.count && row_checksum(rows.iter().map(|r| r.0)) == exp.checksum
        }
        (Query::Aggregate { .. }, QueryOutput::Agg(v)) => match (v, exp.avg) {
            (None, None) => true,
            (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            _ => false,
        },
        _ => false,
    }
}

/// Incrementally maintained copy of the store's inputs.
#[derive(Debug, Default, Clone)]
pub struct Mirror {
    values: Vec<i64>,
    active: Vec<bool>,
    /// `(value, row)` for every row ever inserted, sorted.
    sorted: Vec<(i64, u32)>,
}

impl Mirror {
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn active_rows(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Record an inserted batch (rows take the next ids, as in the store).
    pub fn insert(&mut self, values: &[i64]) {
        let first = self.values.len() as u32;
        self.values.extend_from_slice(values);
        self.active.resize(self.values.len(), true);
        let mut fresh: Vec<(i64, u32)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, first + i as u32))
            .collect();
        fresh.sort_unstable();
        let old = std::mem::take(&mut self.sorted);
        let mut merged = Vec::with_capacity(old.len() + fresh.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < fresh.len() {
            if old[i] <= fresh[j] {
                merged.push(old[i]);
                i += 1;
            } else {
                merged.push(fresh[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&fresh[j..]);
        self.sorted = merged;
    }

    /// Record forgotten rows.
    pub fn forget(&mut self, rows: &[RowId]) {
        for r in rows {
            self.active[r.0 as usize] = false;
        }
    }

    /// The rows whose value lies in `[lo, hi)`.
    fn matches(&self, pred: RangePredicate) -> impl Iterator<Item = (i64, u32)> + '_ {
        let start = self.sorted.partition_point(|&(v, _)| v < pred.lo);
        self.sorted[start..]
            .iter()
            .take_while(move |&&(v, _)| v < pred.hi)
            .copied()
    }

    /// The expected answer to `q`.
    pub fn expect(&self, q: &Query) -> Expected {
        let pred = match q {
            Query::Aggregate {
                predicate: None, ..
            } => RangePredicate::new(i64::MIN, i64::MAX),
            _ => q.predicate().unwrap_or(RangePredicate::new(0, 0)),
        };
        let mut exp = Expected {
            count: 0,
            checksum: 0,
            avg: None,
            history: 0,
        };
        let mut sum = 0i128;
        for (v, r) in self.matches(pred) {
            exp.history += 1;
            if self.active[r as usize] {
                exp.count += 1;
                exp.checksum = exp.checksum.wrapping_add(mix(u64::from(r)));
                sum += i128::from(v);
            }
        }
        if let Query::Aggregate { kind, .. } = q {
            assert_eq!(*kind, AggKind::Avg, "the workloads only issue AVG");
            exp.avg = (exp.count > 0).then(|| sum as f64 / exp.count as f64);
        }
        exp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_answers_ranges_points_and_avg() {
        let mut m = Mirror::default();
        m.insert(&[5, 1, 9, 5]);
        m.insert(&[3, 5]);
        m.forget(&[RowId(0)]);
        let e = m.expect(&Query::Point(5));
        assert_eq!((e.count, e.history), (2, 3));
        assert_eq!(e.checksum, row_checksum([3, 5]));
        let e = m.expect(&Query::Range(RangePredicate::new(1, 6)));
        assert_eq!((e.count, e.history), (4, 5));
        let avg = m.expect(&Query::Aggregate {
            kind: AggKind::Avg,
            predicate: None,
        });
        assert_eq!(avg.avg, Some((1 + 9 + 5 + 3 + 5) as f64 / 5.0));
        assert_eq!(m.active_rows(), 5);
    }

    #[test]
    fn a_perturbed_answer_is_rejected() {
        let mut m = Mirror::default();
        m.insert(&[1, 2, 3, 4]);
        let q = Query::Range(RangePredicate::new(2, 4));
        let exp = m.expect(&q);
        let right = QueryOutput::Rows(vec![RowId(1), RowId(2)]);
        assert!(answer_matches(&q, &right, &exp));
        let swapped = QueryOutput::Rows(vec![RowId(1), RowId(3)]);
        assert!(!answer_matches(&q, &swapped, &exp));
        let short = QueryOutput::Rows(vec![RowId(1)]);
        assert!(!answer_matches(&q, &short, &exp));
        let agg = Query::Aggregate {
            kind: AggKind::Avg,
            predicate: Some(RangePredicate::new(2, 4)),
        };
        let exp = m.expect(&agg);
        assert!(answer_matches(&agg, &QueryOutput::Agg(Some(2.5)), &exp));
        assert!(!answer_matches(&agg, &QueryOutput::Agg(Some(2.5001)), &exp));
        assert!(!answer_matches(&agg, &QueryOutput::Agg(None), &exp));
    }
}
