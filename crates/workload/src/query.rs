//! The query algebra: range scans, point lookups and aggregates.

use serde::{Deserialize, Serialize};

/// Attribute values (mirrors `amnesia_columnar::Value` without the
/// dependency).
pub type Value = i64;

/// Half-open value interval `[lo, hi)` — exactly the paper's
/// `attr >= lo AND attr < hi` predicate shape (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangePredicate {
    /// Inclusive lower bound.
    pub lo: Value,
    /// Exclusive upper bound.
    pub hi: Value,
}

impl RangePredicate {
    /// New predicate; normalizes an inverted range to empty.
    pub fn new(lo: Value, hi: Value) -> Self {
        if hi < lo {
            Self { lo, hi: lo }
        } else {
            Self { lo, hi }
        }
    }

    /// Does `v` satisfy the predicate?
    #[inline]
    pub fn matches(&self, v: Value) -> bool {
        v >= self.lo && v < self.hi
    }

    /// True when no value can match.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Width of the interval.
    pub fn width(&self) -> i64 {
        (self.hi - self.lo).max(0)
    }

    /// Inclusive upper bound (for index probes): `hi − 1`.
    pub fn hi_inclusive(&self) -> Value {
        self.hi.saturating_sub(1)
    }
}

/// Aggregate functions (paper §2.2, §4.3 focus on AVG; the rest complete
/// the usual analytics set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggKind {
    /// COUNT(*) over the selection.
    Count,
    /// SUM(attr).
    Sum,
    /// AVG(attr) — the paper's §4.3 experiment.
    Avg,
    /// MIN(attr).
    Min,
    /// MAX(attr).
    Max,
}

impl AggKind {
    /// All aggregate kinds, for sweeps.
    pub const ALL: [AggKind; 5] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
    ];

    /// Stable short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
        }
    }
}

/// One query against the single-attribute table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// Return all tuples in the range.
    Range(RangePredicate),
    /// Return all tuples equal to the value.
    Point(Value),
    /// Aggregate over the (optionally restricted) table.
    Aggregate {
        /// Aggregate function.
        kind: AggKind,
        /// Optional range restriction (`None` = whole table, the paper's
        /// `SELECT AVG(a) FROM t`).
        predicate: Option<RangePredicate>,
    },
}

impl Query {
    /// The range this query touches, if it has one. The half-open form
    /// cannot express `Point(i64::MAX)`: its range `[MAX, MAX)` comes
    /// back empty (the executor lowers a point to the inclusive
    /// `[v, v]` instead).
    pub fn predicate(&self) -> Option<RangePredicate> {
        match self {
            Query::Range(p) => Some(*p),
            Query::Point(v) => Some(RangePredicate::new(*v, v.saturating_add(1))),
            Query::Aggregate { predicate, .. } => *predicate,
        }
    }

    /// Short description for traces.
    pub fn describe(&self) -> String {
        match self {
            Query::Range(p) => format!("range[{}, {})", p.lo, p.hi),
            Query::Point(v) => format!("point[{v}]"),
            Query::Aggregate { kind, predicate } => match predicate {
                Some(p) => format!("{}[{}, {})", kind.name(), p.lo, p.hi),
                None => format!("{}[*]", kind.name()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_matching_is_half_open() {
        let p = RangePredicate::new(10, 20);
        assert!(p.matches(10));
        assert!(p.matches(19));
        assert!(!p.matches(20));
        assert!(!p.matches(9));
        assert_eq!(p.width(), 10);
        assert_eq!(p.hi_inclusive(), 19);
    }

    #[test]
    fn inverted_range_is_empty() {
        let p = RangePredicate::new(20, 10);
        assert!(p.is_empty());
        assert_eq!(p.width(), 0);
        assert!(!p.matches(15));
    }

    #[test]
    fn point_query_exposes_unit_predicate() {
        let q = Query::Point(7);
        let p = q.predicate().unwrap();
        assert!(p.matches(7));
        assert!(!p.matches(8));
        assert_eq!(p.width(), 1);
    }

    #[test]
    fn aggregate_without_predicate() {
        let q = Query::Aggregate {
            kind: AggKind::Avg,
            predicate: None,
        };
        assert_eq!(q.predicate(), None);
        assert_eq!(q.describe(), "avg[*]");
    }

    #[test]
    fn describe_formats() {
        assert_eq!(
            Query::Range(RangePredicate::new(1, 5)).describe(),
            "range[1, 5)"
        );
        assert_eq!(Query::Point(3).describe(), "point[3]");
        let q = Query::Aggregate {
            kind: AggKind::Sum,
            predicate: Some(RangePredicate::new(0, 9)),
        };
        assert_eq!(q.describe(), "sum[0, 9)");
    }

    #[test]
    fn agg_names_are_stable() {
        let names: Vec<&str> = AggKind::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["count", "sum", "avg", "min", "max"]);
    }
}
