//! Canned experiment runners: one function per figure/table of the paper
//! plus the `DESIGN.md` ablations. The repro harness and the integration
//! tests both call these; `Scale` lets tests run the same code at reduced
//! size.

use amnesia_columnar::compress::{EncodedBlock, Encoding};
use amnesia_columnar::{MemoryColdStore, RowId, Table};
use amnesia_distrib::{DistributionKind, Histogram};
use amnesia_util::{Result, SimRng};
use amnesia_workload::query::{AggKind, RangePredicate};
use amnesia_workload::{Query, QueryGenKind};
use serde::{Deserialize, Serialize};

use crate::budget::BudgetMode;
use crate::config::SimConfig;
use crate::policy::{PolicyContext, PolicyKind};
use crate::sim::Simulator;
use crate::store::{AmnesiacStore, ForgetMode};

/// Experiment size knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Storage budget (`DBSIZE`).
    pub dbsize: usize,
    /// Queries per batch.
    pub queries_per_batch: usize,
    /// Update batches.
    pub batches: u64,
    /// Value domain.
    pub domain: i64,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's parameters (Figures 1–3): dbsize 1000, 1000 queries per
    /// batch, 10 batches.
    pub fn paper() -> Self {
        Self {
            dbsize: 1000,
            queries_per_batch: 1000,
            batches: 10,
            domain: 100_000,
            seed: 0xC1D8_2017,
        }
    }

    /// Reduced size for fast CI tests (same code paths).
    pub fn test() -> Self {
        Self {
            dbsize: 200,
            queries_per_batch: 60,
            batches: 6,
            domain: 10_000,
            seed: 0xC1D8_2017,
        }
    }

    fn base_config(&self) -> SimConfig {
        SimConfig {
            dbsize: self.dbsize,
            domain: self.domain,
            queries_per_batch: self.queries_per_batch,
            batches: self.batches,
            seed: self.seed,
            ..SimConfig::default()
        }
    }
}

/// Named series over batches (Figure 3 and friends).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesReport {
    /// Experiment title.
    pub title: String,
    /// Meaning of the x axis.
    pub x_label: String,
    /// Meaning of the y axis.
    pub y_label: String,
    /// `(name, y-values)` per line.
    pub series: Vec<(String, Vec<f64>)>,
}

impl SeriesReport {
    /// Render as an ASCII chart.
    pub fn render_ascii(&self) -> String {
        let y_max = self
            .series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .fold(0.0f64, f64::max)
            .max(1.0);
        format!(
            "{} ({} vs {})\n{}",
            self.title,
            self.y_label,
            self.x_label,
            amnesia_util::ascii::line_chart(&self.series, 0.0, y_max, 12)
        )
    }

    /// Render as a CSV block (one row per series).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let width = self.series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        out.push_str("name");
        for i in 0..width {
            out.push_str(&format!(",{}", i + 1));
        }
        out.push('\n');
        for (name, values) in &self.series {
            out.push_str(name);
            for v in values {
                out.push_str(&format!(",{v:.6}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Named retention maps (Figures 1–2): one row per strategy/distribution,
/// active fraction per insertion epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapReport {
    /// Experiment title.
    pub title: String,
    /// `(name, active fraction per epoch 0..=batches)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl MapReport {
    /// ASCII heatmap, mirroring the paper's color maps.
    pub fn render_ascii(&self) -> String {
        format!(
            "{}\n{}",
            self.title,
            amnesia_util::ascii::heatmap(&self.rows, None)
        )
    }

    /// CSV block.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let width = self.rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        out.push_str("name");
        for i in 0..width {
            out.push_str(&format!(",epoch{i}"));
        }
        out.push('\n');
        for (name, values) in &self.rows {
            out.push_str(name);
            for v in values {
                out.push_str(&format!(",{v:.6}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Generic result table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableReport {
    /// Experiment title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl TableReport {
    /// Aligned text rendering.
    pub fn render_ascii(&self) -> String {
        let mut t = amnesia_util::ascii::TextTable::new(self.header.clone());
        for row in &self.rows {
            t.row(row.clone());
        }
        format!("{}\n{}", self.title, t.render())
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let mut t = amnesia_util::ascii::TextTable::new(self.header.clone());
        for row in &self.rows {
            t.row(row.clone());
        }
        t.to_csv()
    }
}

// ---------------------------------------------------------------------------
// FIG1 — database amnesia map (Figure 1)
// ---------------------------------------------------------------------------

/// Figure 1: retention map after `batches` update batches, `upd-perc =
/// 0.20`, for fifo / uniform / ante / area. The data distribution "plays
/// no role, only the relative position of each tuple" — serial data makes
/// that explicit.
pub fn fig1_amnesia_map(scale: &Scale) -> Result<MapReport> {
    let mut rows = Vec::new();
    for kind in PolicyKind::fig1_set() {
        let cfg = SimConfig {
            update_fraction: 0.20,
            distribution: DistributionKind::Serial,
            policy: kind.clone(),
            ..scale.base_config()
        };
        let report = Simulator::new(cfg)?.run()?;
        rows.push((kind.name().to_string(), report.map.fractions()));
    }
    Ok(MapReport {
        title: format!(
            "Figure 1: database amnesia map after {} batches (dbsize={}, upd-perc=0.20)",
            scale.batches, scale.dbsize
        ),
        rows,
    })
}

// ---------------------------------------------------------------------------
// FIG2 — database rot map (Figure 2)
// ---------------------------------------------------------------------------

/// Figure 2: retention map of the *rot* policy under the four data
/// distributions. Rot weights victims by inverse access frequency, so the
/// query workload (paper range queries) shapes the map per distribution.
pub fn fig2_rot_map(scale: &Scale) -> Result<MapReport> {
    let mut rows = Vec::new();
    for dist in DistributionKind::paper_set() {
        let cfg = SimConfig {
            update_fraction: 0.20,
            distribution: dist.clone(),
            policy: PolicyKind::Rot { high_water_age: 2 },
            ..scale.base_config()
        };
        let report = Simulator::new(cfg)?.run()?;
        let label = match dist {
            DistributionKind::Serial => "Serial",
            DistributionKind::Uniform => "Uniform",
            DistributionKind::Normal { .. } => "Normal",
            DistributionKind::Zipfian { .. } => "Zipfian",
            _ => "other",
        };
        rows.push((label.to_string(), report.map.fractions()));
    }
    Ok(MapReport {
        title: format!(
            "Figure 2: database rot map after {} batches (dbsize={}, upd-perc=0.20)",
            scale.batches, scale.dbsize
        ),
        rows,
    })
}

// ---------------------------------------------------------------------------
// FIG3 — range query precision (Figure 3, both panels)
// ---------------------------------------------------------------------------

/// Figure 3: per-batch range-query precision under high volatility
/// (`upd-perc = 0.80`) for all five paper policies, on the given data
/// distribution (the paper shows Uniform and Zipfian panels).
pub fn fig3_range_precision(scale: &Scale, dist: DistributionKind) -> Result<SeriesReport> {
    let mut series = Vec::new();
    for kind in PolicyKind::paper_set() {
        let cfg = SimConfig {
            update_fraction: 0.80,
            distribution: dist.clone(),
            policy: kind.clone(),
            query_gen: QueryGenKind::paper_range(),
            ..scale.base_config()
        };
        let report = Simulator::new(cfg)?.run()?;
        series.push((kind.name().to_string(), report.precision_series()));
    }
    Ok(SeriesReport {
        title: format!(
            "Figure 3: {} range experiment (dbsize={}, upd-perc=0.80)",
            dist.name(),
            scale.dbsize
        ),
        x_label: "batch".into(),
        y_label: "precision E".into(),
        series,
    })
}

// ---------------------------------------------------------------------------
// AGG — aggregate query precision (§4.3)
// ---------------------------------------------------------------------------

/// §4.3: relative error of `SELECT AVG(a) FROM t` (optionally with a range
/// predicate) over an extended run, for all five policies.
pub fn aggregate_precision(
    scale: &Scale,
    dist: DistributionKind,
    with_predicate: bool,
) -> Result<SeriesReport> {
    let query_gen = if with_predicate {
        QueryGenKind::paper_avg_over_range()
    } else {
        QueryGenKind::paper_avg()
    };
    let mut series = Vec::new();
    for kind in PolicyKind::paper_set() {
        let cfg = SimConfig {
            update_fraction: 0.20,
            distribution: dist.clone(),
            policy: kind.clone(),
            query_gen: query_gen.clone(),
            // "we increased the experimental run length" (§4.3)
            batches: scale.batches * 3,
            ..scale.base_config()
        };
        let report = Simulator::new(cfg)?.run()?;
        series.push((kind.name().to_string(), report.agg_error_series()));
    }
    Ok(SeriesReport {
        title: format!(
            "Section 4.3: AVG precision, {} data{} (dbsize={}, upd-perc=0.20)",
            dist.name(),
            if with_predicate {
                ", range predicate"
            } else {
                ""
            },
            scale.dbsize
        ),
        x_label: "batch".into(),
        y_label: "relative error of AVG".into(),
        series,
    })
}

// ---------------------------------------------------------------------------
// T-VOL — volatility comparison (§4.2)
// ---------------------------------------------------------------------------

/// §4.2: final precision under low (10 %) and high (80 %) update
/// volatility for every policy.
pub fn volatility_table(scale: &Scale, dist: DistributionKind) -> Result<TableReport> {
    let mut rows = Vec::new();
    for kind in PolicyKind::paper_set() {
        let mut cells = vec![kind.name().to_string()];
        for upd in [0.10, 0.80] {
            let cfg = SimConfig {
                update_fraction: upd,
                distribution: dist.clone(),
                policy: kind.clone(),
                ..scale.base_config()
            };
            let report = Simulator::new(cfg)?.run()?;
            let last = report.precision_series().last().copied().unwrap_or(1.0);
            cells.push(format!("{last:.4}"));
        }
        rows.push(cells);
    }
    Ok(TableReport {
        title: format!(
            "Volatility: precision at batch {} under low/high volatility ({} data)",
            scale.batches,
            dist.name()
        ),
        header: vec!["policy".into(), "E (upd 10%)".into(), "E (upd 80%)".into()],
        rows,
    })
}

// ---------------------------------------------------------------------------
// T-SEL — selectivity sweep (§4.2)
// ---------------------------------------------------------------------------

/// §4.2: "Increasing the selectivity factor does not improve the
/// precision, because it affects the complete database, active and
/// forgotten." Final precision per policy across selectivity factors.
pub fn selectivity_table(scale: &Scale, dist: DistributionKind) -> Result<TableReport> {
    let selectivities = [0.001, 0.01, 0.05, 0.20];
    let mut rows = Vec::new();
    for kind in PolicyKind::paper_set() {
        let mut cells = vec![kind.name().to_string()];
        for s in selectivities {
            let cfg = SimConfig {
                update_fraction: 0.80,
                distribution: dist.clone(),
                policy: kind.clone(),
                query_gen: QueryGenKind::UniformRange { selectivity: s },
                ..scale.base_config()
            };
            let report = Simulator::new(cfg)?.run()?;
            let last = report.precision_series().last().copied().unwrap_or(1.0);
            cells.push(format!("{last:.4}"));
        }
        rows.push(cells);
    }
    Ok(TableReport {
        title: format!(
            "Selectivity sweep: precision at batch {} ({} data, upd-perc=0.80)",
            scale.batches,
            dist.name()
        ),
        header: vec![
            "policy".into(),
            "S=0.001".into(),
            "S=0.01".into(),
            "S=0.05".into(),
            "S=0.20".into(),
        ],
        rows,
    })
}

// ---------------------------------------------------------------------------
// ABL-PAIR — average-preserving pair forgetting (§4.4)
// ---------------------------------------------------------------------------

/// Pair forgetting vs uniform/fifo on whole-table AVG error (normal data,
/// where antipodal pairs exist around the mean).
pub fn ablation_pair(scale: &Scale) -> Result<SeriesReport> {
    let mut series = Vec::new();
    for kind in [PolicyKind::Pair, PolicyKind::Uniform, PolicyKind::Fifo] {
        let cfg = SimConfig {
            update_fraction: 0.20,
            distribution: DistributionKind::normal_default(),
            policy: kind.clone(),
            query_gen: QueryGenKind::paper_avg(),
            batches: scale.batches * 2,
            ..scale.base_config()
        };
        let report = Simulator::new(cfg)?.run()?;
        series.push((kind.name().to_string(), report.agg_error_series()));
    }
    Ok(SeriesReport {
        title: "Ablation: pair forgetting preserves AVG (normal data)".into(),
        x_label: "batch".into(),
        y_label: "relative error of AVG".into(),
        series,
    })
}

// ---------------------------------------------------------------------------
// ABL-DIST — distribution-aligned amnesia (§4.4)
// ---------------------------------------------------------------------------

/// Total-variation distance between the active set and full history, per
/// batch, for aligned vs uniform vs fifo (zipfian data).
pub fn ablation_aligned(scale: &Scale) -> Result<SeriesReport> {
    let bins = 32;
    let mut series = Vec::new();
    for kind in [
        PolicyKind::Aligned { bins },
        PolicyKind::Uniform,
        PolicyKind::Fifo,
    ] {
        let cfg = SimConfig {
            update_fraction: 0.40,
            distribution: DistributionKind::zipfian_default(),
            policy: kind.clone(),
            ..scale.base_config()
        };
        let mut sim = Simulator::new(cfg)?;
        let mut tv_series = Vec::with_capacity(scale.batches as usize);
        for _ in 0..scale.batches {
            sim.step()?;
            tv_series.push(active_history_tv(sim.table(), bins));
        }
        series.push((kind.name().to_string(), tv_series));
    }
    Ok(SeriesReport {
        title: "Ablation: distribution alignment (TV distance to history, zipfian data)".into(),
        x_label: "batch".into(),
        y_label: "total variation distance".into(),
        series,
    })
}

/// Total-variation distance between active and all-history value
/// histograms.
pub fn active_history_tv(table: &Table, bins: usize) -> f64 {
    let lo = table.min_seen(0).unwrap_or(0);
    let hi = table.max_seen(0).unwrap_or(0).max(lo);
    let mut all = Histogram::new(lo, hi, bins);
    let mut active = Histogram::new(lo, hi, bins);
    for r in 0..table.num_rows() {
        let v = table.value(0, RowId::from(r));
        all.add(v);
        if table.activity().is_active(RowId::from(r)) {
            active.add(v);
        }
    }
    active.total_variation(&all)
}

// ---------------------------------------------------------------------------
// ABL-BUDGET — fixed vs watermark budgets (§2.1)
// ---------------------------------------------------------------------------

/// Precision and footprint under fixed-size vs watermark budgets.
pub fn ablation_budget(scale: &Scale) -> Result<(SeriesReport, SeriesReport)> {
    let budgets: Vec<(&str, BudgetMode)> = vec![
        ("fixed", BudgetMode::FixedSize),
        (
            "watermark(1.8/1.0)",
            BudgetMode::Watermark {
                high: 1.8,
                low: 1.0,
            },
        ),
        ("unbounded", BudgetMode::Unbounded),
    ];
    let mut precision = Vec::new();
    let mut footprint = Vec::new();
    for (name, budget) in budgets {
        let cfg = SimConfig {
            update_fraction: 0.40,
            distribution: DistributionKind::Uniform,
            policy: PolicyKind::Uniform,
            budget,
            ..scale.base_config()
        };
        let report = Simulator::new(cfg)?.run()?;
        precision.push((name.to_string(), report.precision_series()));
        footprint.push((
            name.to_string(),
            report
                .batches
                .iter()
                .map(|b| b.active_rows as f64)
                .collect(),
        ));
    }
    Ok((
        SeriesReport {
            title: "Ablation: storage budget modes — precision".into(),
            x_label: "batch".into(),
            y_label: "precision E".into(),
            series: precision,
        },
        SeriesReport {
            title: "Ablation: storage budget modes — active rows".into(),
            x_label: "batch".into(),
            y_label: "active tuples".into(),
            series: footprint,
        },
    ))
}

// ---------------------------------------------------------------------------
// ABL-FORGET — what happens to forgotten data (§1)
// ---------------------------------------------------------------------------

/// Compare the five forget modes under an identical uniform-amnesia
/// workload: bytes resident, range completeness, whole-table AVG error,
/// mean query cost.
pub fn ablation_forget_modes(scale: &Scale) -> Result<TableReport> {
    let modes = [
        ForgetMode::MarkOnly,
        ForgetMode::Delete { vacuum_every: 2 },
        ForgetMode::Deindex,
        ForgetMode::Tier,
        ForgetMode::Summarize,
        ForgetMode::Model { bins: 64 },
    ];
    let mut rows = Vec::new();
    for mode in modes {
        let row = run_forget_mode(scale, mode)?;
        rows.push(row);
    }
    Ok(TableReport {
        title: format!(
            "Forget modes after {} batches (dbsize={}, upd-perc=0.40, uniform policy)",
            scale.batches, scale.dbsize
        ),
        header: vec![
            "mode".into(),
            "hot rows".into(),
            "hot KiB".into(),
            "cold rows".into(),
            "summary B".into(),
            "range completeness".into(),
            "avg rel-err".into(),
            "mean query cost".into(),
        ],
        rows,
    })
}

fn run_forget_mode(scale: &Scale, mode: ForgetMode) -> Result<Vec<String>> {
    let mut rng = SimRng::new(scale.seed);
    let mut dist = DistributionKind::Uniform.build(scale.domain, scale.seed);
    let mut store = AmnesiacStore::new(mode).with_zonemap();
    if matches!(mode, ForgetMode::Tier) {
        store = store.with_cold_store(Box::new(MemoryColdStore::new()));
    }
    if matches!(mode, ForgetMode::Deindex | ForgetMode::Delete { .. }) {
        store = store.with_index();
    }
    // Ground truth ledger: every value ever inserted.
    let mut ledger: Vec<i64> = Vec::new();
    let mut policy = PolicyKind::Uniform.build();

    let initial: Vec<i64> = (0..scale.dbsize).map(|_| dist.sample(&mut rng)).collect();
    ledger.extend_from_slice(&initial);
    store.insert_batch(&initial, 0)?;

    let batch_rows = (scale.dbsize as f64 * 0.40).round() as usize;
    for b in 1..=scale.batches {
        let fresh: Vec<i64> = (0..batch_rows).map(|_| dist.sample(&mut rng)).collect();
        ledger.extend_from_slice(&fresh);
        store.insert_batch(&fresh, b)?;
        let need = store.table().active_rows().saturating_sub(scale.dbsize);
        let victims = {
            let ctx = PolicyContext {
                table: store.table(),
                epoch: b,
            };
            policy.select_victims(&ctx, need, &mut rng)
        };
        store.forget_batch(&victims, b)?;
        store.end_batch()?;
    }

    // Probe: range completeness + aggregate error + cost.
    let mut completeness_sum = 0.0;
    let mut cost_sum = 0.0;
    let probes = 100;
    let range = ledger.iter().copied().max().unwrap_or(1).max(1);
    let width = (range / 50).max(1);
    for _ in 0..probes {
        let lo = rng.range_i64(0, range);
        let pred = RangePredicate::new(lo, lo.saturating_add(width));
        let truth = ledger.iter().filter(|&&v| pred.matches(v)).count();
        let result = store.query(&Query::Range(pred));
        cost_sum += result.stats.cost;
        if truth > 0 {
            completeness_sum += result.output.cardinality().min(truth) as f64 / truth as f64;
        } else {
            completeness_sum += 1.0;
        }
    }
    let exact_avg = ledger.iter().map(|&v| v as f64).sum::<f64>() / ledger.len() as f64;
    let got_avg = store
        .query(&Query::Aggregate {
            kind: AggKind::Avg,
            predicate: None,
        })
        .output
        .agg()
        .flatten()
        .unwrap_or(0.0);
    let avg_err = amnesia_util::stats::relative_error(got_avg, exact_avg);

    let fp = store.footprint();
    Ok(vec![
        mode.name().to_string(),
        fp.hot_rows.to_string(),
        format!("{:.1}", fp.hot_bytes as f64 / 1024.0),
        fp.cold_rows.to_string(),
        fp.summary_bytes.to_string(),
        format!("{:.4}", completeness_sum / probes as f64),
        format!("{avg_err:.4}"),
        format!("{:.0}", cost_sum / probes as f64),
    ])
}

// ---------------------------------------------------------------------------
// ABL-DRIFT — amnesia under concept drift (§4.4)
// ---------------------------------------------------------------------------

/// §4.4: "the data distribution evolves as more and more tuples are
/// ingested (and forgotten)". Precision per batch when the insert
/// distribution drifts upward every epoch, for the paper policies plus
/// the aligned extension.
pub fn ablation_drift(scale: &Scale) -> Result<SeriesReport> {
    let drift = DistributionKind::Drift {
        base: Box::new(DistributionKind::Uniform),
        shift_per_epoch: scale.domain / 4,
    };
    let mut kinds = PolicyKind::paper_set();
    kinds.push(PolicyKind::Aligned { bins: 32 });
    let mut series = Vec::new();
    for kind in kinds {
        let cfg = SimConfig {
            update_fraction: 0.40,
            distribution: drift.clone(),
            policy: kind.clone(),
            ..scale.base_config()
        };
        let report = Simulator::new(cfg)?.run()?;
        series.push((kind.name().to_string(), report.precision_series()));
    }
    Ok(SeriesReport {
        title: format!(
            "Ablation: concept drift (+{} per epoch, upd-perc=0.40)",
            scale.domain / 4
        ),
        x_label: "batch".into(),
        y_label: "precision E".into(),
        series,
    })
}

// ---------------------------------------------------------------------------
// ABL-COMP — compression postpones forgetting (§4.4)
// ---------------------------------------------------------------------------

/// Bytes per tuple for each codec × distribution, and the implied budget
/// stretch (how many times more tuples fit before amnesia must kick in).
pub fn ablation_compression(scale: &Scale) -> Result<TableReport> {
    let n = (scale.dbsize * 8).max(4096);
    let mut rng = SimRng::new(scale.seed);
    let mut rows = Vec::new();
    for dist_kind in DistributionKind::paper_set() {
        let mut dist = dist_kind.build(scale.domain, scale.seed);
        let values: Vec<i64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        for enc in Encoding::ALL {
            let block = EncodedBlock::encode(&values, enc);
            let bpv = block.compressed_bytes() as f64 / n as f64;
            rows.push(vec![
                dist_kind.name().to_string(),
                enc.name().to_string(),
                format!("{bpv:.3}"),
                format!("{:.2}", block.compression_ratio()),
            ]);
        }
        let auto = EncodedBlock::encode_auto(&values);
        rows.push(vec![
            dist_kind.name().to_string(),
            format!("auto({})", auto.encoding().name()),
            format!("{:.3}", auto.compressed_bytes() as f64 / n as f64),
            format!("{:.2}", auto.compression_ratio()),
        ]);
    }
    Ok(TableReport {
        title: format!("Compression: bytes/tuple by codec and distribution (n={n})"),
        header: vec![
            "distribution".into(),
            "codec".into(),
            "bytes/tuple".into(),
            "budget stretch".into(),
        ],
        rows,
    })
}

// ---------------------------------------------------------------------------
// RECALL — learning policies vs the paper baselines (§4.4 / §5)
// ---------------------------------------------------------------------------

/// Recall precision of the learning policies (ebbinghaus, decay, cost)
/// against the paper's fifo/uniform/rot on a skewed, repeated-interest
/// workload: zipfian data queried around active values, so the hot head
/// of the distribution is rehearsed every batch. Frequency-aware
/// policies should hold precision above the oblivious baselines.
pub fn recall_comparison(scale: &Scale) -> Result<SeriesReport> {
    let mut series = Vec::new();
    for kind in PolicyKind::learning_set() {
        let cfg = SimConfig {
            update_fraction: 0.20,
            distribution: DistributionKind::Zipfian { theta: 0.99 },
            policy: kind.clone(),
            query_gen: QueryGenKind::paper_range(),
            batches: scale.batches * 2,
            ..scale.base_config()
        };
        let report = Simulator::new(cfg)?.run()?;
        series.push((kind.name().to_string(), report.precision_series()));
    }
    Ok(SeriesReport {
        title: format!(
            "Recall: learning policies vs paper baselines (zipfian, dbsize={}, upd-perc=0.20)",
            scale.dbsize
        ),
        x_label: "batch".into(),
        y_label: "precision E".into(),
        series,
    })
}

// ---------------------------------------------------------------------------
// JOIN-PREC — join precision under referential amnesia (§2.2 / §5)
// ---------------------------------------------------------------------------

/// Drive a parent/child database through the amnesia loop under a policy
/// and a referential action, recording join precision per batch.
///
/// Returns `(precision per batch, dangling references at the end,
/// final parent-budget overshoot)`.
fn run_join_loop(
    scale: &Scale,
    policy_kind: &PolicyKind,
    action: Option<amnesia_columnar::ReferentialAction>,
) -> Result<(Vec<f64>, usize, usize)> {
    use amnesia_columnar::{Database, ForeignKey, ReferentialAction, Schema};

    let mut rng = SimRng::new(scale.seed ^ 0x4A01_4A01);
    let mut db = Database::new();
    let parent = db.add_table("parent", Schema::single("key"));
    let child = db.add_table("child", Schema::new(vec!["fk", "payload"]));
    db.add_foreign_key(ForeignKey {
        child_table: child,
        child_col: 0,
        parent_table: parent,
        parent_col: 0,
    })?;

    let dbsize = scale.dbsize;
    let mut next_key: i64 = 0;
    let mut policy = policy_kind.build();

    // Initial load: dbsize parents, dbsize children referencing them.
    for _ in 0..dbsize {
        db.table_mut(parent).insert(&[next_key], 0)?;
        next_key += 1;
    }
    let insert_children = |db: &mut Database, n: usize, epoch: u64, rng: &mut SimRng| {
        // Children reference a random *active* parent key; a zipf-ish
        // skew makes some parents hot, so cascades differ by policy.
        let keys: Vec<i64> = db
            .table(parent)
            .iter_active()
            .map(|r| db.table(parent).value(0, r))
            .collect();
        for _ in 0..n {
            // Quadratic skew toward the front of the active key list.
            let pos = (rng.f64() * rng.f64() * keys.len() as f64) as usize;
            let fk = keys[pos.min(keys.len() - 1)];
            let payload = rng.range_i64(0, scale.domain.max(1));
            db.table_mut(child).insert(&[fk, payload], epoch).unwrap();
        }
    };
    insert_children(&mut db, dbsize, 0, &mut rng);

    let batch_rows = ((dbsize as f64) * 0.20).round() as usize;
    let mut precisions = Vec::with_capacity(scale.batches as usize);

    for b in 1..=scale.batches {
        // Update batch: fresh parents and children.
        for _ in 0..batch_rows {
            db.table_mut(parent).insert(&[next_key], b)?;
            next_key += 1;
        }
        insert_children(&mut db, batch_rows, b, &mut rng);

        // Amnesia on the parent table under the policy.
        let excess = db.table(parent).active_rows().saturating_sub(dbsize);
        let victims = {
            let ctx = PolicyContext {
                table: db.table(parent),
                epoch: b,
            };
            policy.select_victims(&ctx, excess, &mut rng)
        };
        match action {
            Some(ReferentialAction::Cascade) => {
                for v in victims {
                    db.forget(parent, v, b, ReferentialAction::Cascade)?;
                }
            }
            Some(ReferentialAction::Restrict) => {
                // Forget only unreferenced parents; keep drawing extra
                // candidates so the budget can still be met when enough
                // unreferenced keys exist.
                let mut remaining = excess;
                for v in victims {
                    if remaining == 0 {
                        break;
                    }
                    if db.forget(parent, v, b, ReferentialAction::Restrict).is_ok() {
                        remaining -= 1;
                    }
                }
                if remaining > 0 {
                    let actives = db.table(parent).active_row_ids();
                    for v in actives {
                        if remaining == 0 {
                            break;
                        }
                        if db
                            .forget(parent, v, b, ReferentialAction::Restrict)
                            .map(|f| !f.is_empty())
                            .unwrap_or(false)
                        {
                            remaining -= 1;
                        }
                    }
                }
            }
            None => {
                // Raw forgets: referential semantics bypassed entirely.
                for v in victims {
                    db.table_mut(parent).forget(v, b)?;
                }
            }
        }

        // Child budget: trim with the same policy (children have no
        // dependents, so raw forgetting is safe).
        let child_excess = db.table(child).active_rows().saturating_sub(dbsize);
        if child_excess > 0 {
            let victims = {
                let ctx = PolicyContext {
                    table: db.table(child),
                    epoch: b,
                };
                policy.select_victims(&ctx, child_excess, &mut rng)
            };
            for v in victims {
                db.table_mut(child).forget(v, b)?;
            }
        }

        precisions.push(
            amnesia_engine::join::join_precision(db.table(parent), 0, db.table(child), 0)
                .unwrap_or(1.0),
        );
    }

    let dangling = db.dangling_references().len();
    let overshoot = db.table(parent).active_rows().saturating_sub(dbsize);
    Ok((precisions, dangling, overshoot))
}

/// JOIN-PREC: per-batch precision of `parent ⋈ child` under cascade
/// forgetting for every paper policy. The ground truth is the join over
/// all tuples ever inserted (mark-only storage keeps them scannable).
pub fn join_precision_experiment(scale: &Scale) -> Result<SeriesReport> {
    use amnesia_columnar::ReferentialAction;
    let mut series = Vec::new();
    for kind in PolicyKind::paper_set() {
        let (precisions, _, _) = run_join_loop(scale, &kind, Some(ReferentialAction::Cascade))?;
        series.push((kind.name().to_string(), precisions));
    }
    Ok(SeriesReport {
        title: format!(
            "Join precision under cascade amnesia (dbsize={}, upd-perc=0.20)",
            scale.dbsize
        ),
        x_label: "batch".into(),
        y_label: "join precision".into(),
        series,
    })
}

/// Referential-action comparison (§5: "forbid … or cascade?"): final
/// join precision, dangling references and parent-budget overshoot for
/// cascade vs restrict vs raw forgetting under uniform amnesia.
pub fn referential_actions_table(scale: &Scale) -> Result<TableReport> {
    use amnesia_columnar::ReferentialAction;
    let cases: [(&str, Option<ReferentialAction>); 3] = [
        ("cascade", Some(ReferentialAction::Cascade)),
        ("restrict", Some(ReferentialAction::Restrict)),
        ("raw", None),
    ];
    let mut rows = Vec::new();
    for (name, action) in cases {
        let (precisions, dangling, overshoot) = run_join_loop(scale, &PolicyKind::Uniform, action)?;
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", precisions.last().copied().unwrap_or(1.0)),
            dangling.to_string(),
            overshoot.to_string(),
        ]);
    }
    Ok(TableReport {
        title: format!(
            "Referential actions: integrity vs budget (dbsize={}, uniform policy)",
            scale.dbsize
        ),
        header: vec![
            "action".into(),
            "final join precision".into(),
            "dangling refs".into(),
            "budget overshoot".into(),
        ],
        rows,
    })
}

// ---------------------------------------------------------------------------
// ABL-MODEL — micro-models of forgotten data (§5, ref [15])
// ---------------------------------------------------------------------------

/// Micro-model ablation: mean relative error of *range-restricted* COUNT
/// and AVG after the amnesia loop, for mark-only / summarize / model
/// stores. Summaries only help whole-table aggregates; micro-models
/// interpolate the forgotten mass inside the range, at a histogram-sized
/// footprint.
pub fn ablation_micromodels(scale: &Scale) -> Result<TableReport> {
    let modes = [
        ("mark-only", ForgetMode::MarkOnly),
        ("summarize", ForgetMode::Summarize),
        ("model-16", ForgetMode::Model { bins: 16 }),
        ("model-128", ForgetMode::Model { bins: 128 }),
    ];
    let mut rows = Vec::new();
    for (label, mode) in modes {
        let mut rng = SimRng::new(scale.seed ^ 0x0DE1);
        let mut dist = DistributionKind::Uniform.build(scale.domain, scale.seed);
        let mut store = AmnesiacStore::new(mode);
        let mut ledger: Vec<i64> = Vec::new();
        let mut policy = PolicyKind::Uniform.build();

        let initial: Vec<i64> = (0..scale.dbsize).map(|_| dist.sample(&mut rng)).collect();
        ledger.extend_from_slice(&initial);
        store.insert_batch(&initial, 0)?;
        let batch_rows = (scale.dbsize as f64 * 0.40).round() as usize;
        for b in 1..=scale.batches {
            let fresh: Vec<i64> = (0..batch_rows).map(|_| dist.sample(&mut rng)).collect();
            ledger.extend_from_slice(&fresh);
            store.insert_batch(&fresh, b)?;
            let need = store.table().active_rows().saturating_sub(scale.dbsize);
            let victims = {
                let ctx = PolicyContext {
                    table: store.table(),
                    epoch: b,
                };
                policy.select_victims(&ctx, need, &mut rng)
            };
            store.forget_batch(&victims, b)?;
            store.end_batch()?;
        }

        // Probe ranged COUNT and AVG against the ledger ground truth.
        let probes = 200;
        let range = ledger.iter().copied().max().unwrap_or(1).max(1);
        let width = (range / 10).max(1);
        let mut count_err = 0.0;
        let mut avg_err = 0.0;
        let mut avg_probes = 0usize;
        for _ in 0..probes {
            let lo = rng.range_i64(0, range - width + 1);
            let pred = RangePredicate::new(lo, lo + width);
            let truth: Vec<i64> = ledger
                .iter()
                .copied()
                .filter(|&v| pred.matches(v))
                .collect();
            let got_count = store
                .query(&Query::Aggregate {
                    kind: AggKind::Count,
                    predicate: Some(pred),
                })
                .output
                .agg()
                .flatten()
                .unwrap_or(0.0);
            count_err += amnesia_util::stats::relative_error(got_count, truth.len() as f64);
            if !truth.is_empty() {
                let true_avg = truth.iter().map(|&v| v as f64).sum::<f64>() / truth.len() as f64;
                let got_avg = store
                    .query(&Query::Aggregate {
                        kind: AggKind::Avg,
                        predicate: Some(pred),
                    })
                    .output
                    .agg()
                    .flatten()
                    .unwrap_or(0.0);
                avg_err += amnesia_util::stats::relative_error(got_avg, true_avg);
                avg_probes += 1;
            }
        }
        let fp = store.footprint();
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", count_err / probes as f64),
            format!("{:.4}", avg_err / avg_probes.max(1) as f64),
            fp.hot_rows.to_string(),
            (fp.summary_bytes + fp.model_bytes).to_string(),
        ]);
    }
    Ok(TableReport {
        title: format!(
            "Micro-models: ranged-aggregate error after {} batches (dbsize={}, upd-perc=0.40)",
            scale.batches, scale.dbsize
        ),
        header: vec![
            "store".into(),
            "ranged COUNT rel-err".into(),
            "ranged AVG rel-err".into(),
            "hot rows".into(),
            "aux bytes".into(),
        ],
        rows,
    })
}

// ---------------------------------------------------------------------------
// ABL-ADAPT — adaptive partitioning (§4.4)
// ---------------------------------------------------------------------------

/// Drive a two-sided workload over a partitioned store: the lower half
/// of the value space receives *recency* queries (FIFO territory), the
/// upper half *historical* queries (uniform/area territory). Returns the
/// per-batch mean precision.
///
/// `arms = None` runs the adaptive bandit; `Some(kind)` pins every
/// partition to one fixed policy (the global baselines).
fn run_partitioned_workload(
    scale: &Scale,
    arms: Option<PolicyKind>,
    chosen_arms: Option<&mut Vec<String>>,
) -> Result<Vec<f64>> {
    use crate::adaptive::{AdaptiveConfig, AdaptiveStore};

    let partitions = 2usize;
    let cfg = AdaptiveConfig {
        arms: match &arms {
            Some(kind) => vec![kind.clone()],
            None => AdaptiveConfig::default_arms(),
        },
        epsilon: 0.15,
        partitions,
        domain: scale.domain,
        budget_per_partition: scale.dbsize / partitions,
    };
    let mut store = AdaptiveStore::new(cfg);
    let mut rng = SimRng::new(scale.seed ^ 0xADA9);

    // Ledger per partition: (value, insert batch).
    let mut ledgers: Vec<Vec<(i64, u64)>> = vec![Vec::new(); partitions];
    let half = scale.domain / 2;
    // Partition 0's data is time-correlated: each batch writes a fresh
    // value stripe, so recency queries land on recent *tuples* (FIFO
    // territory). Partition 1 is stationary uniform over the upper half
    // and queried across all of history (uniform/rot territory).
    let stripes = scale.batches + 1;
    let stripe = (half / stripes as i64).max(1);
    let insert_batchful = |store: &mut AdaptiveStore,
                           ledgers: &mut Vec<Vec<(i64, u64)>>,
                           n: usize,
                           epoch: u64,
                           rng: &mut SimRng|
     -> Result<()> {
        for i in 0..n {
            let v = if i % 2 == 0 {
                // Drifting stripe within the lower half.
                (epoch.min(stripes - 1) as i64 * stripe + rng.range_i64(0, stripe)).min(half - 1)
            } else {
                rng.range_i64(half, scale.domain)
            };
            store.insert(v, epoch)?;
            ledgers[if v < half { 0 } else { 1 }].push((v, epoch));
        }
        Ok(())
    };

    insert_batchful(&mut store, &mut ledgers, scale.dbsize, 0, &mut rng)?;
    store.end_batch(0, &mut rng)?;

    let batch_rows = (scale.dbsize as f64 * 0.4).round() as usize;
    // Narrow predicates keep the truth sets small, so the *identity* of
    // the retained tuples (not just their count) decides precision.
    let width = (scale.domain / 2000).max(1).min(stripe / 2).max(1);
    let mut series = Vec::with_capacity(scale.batches as usize);
    for b in 1..=scale.batches {
        insert_batchful(&mut store, &mut ledgers, batch_rows, b, &mut rng)?;

        // Query round: precision measured against the partition ledger.
        let mut precision_sum = 0.0;
        let mut queries = 0usize;
        for q in 0..scale.queries_per_batch {
            let p = q % partitions;
            let ledger = &ledgers[p];
            // Partition 0: recency focus — anchor on a value from the two
            // newest batches (FIFO territory). Partition 1: a stable hot
            // set — anchor on the oldest tenth of everything ever
            // inserted, over and over (rot territory: only frequency
            // tracking keeps those tuples alive).
            let anchor = if p == 0 {
                let candidates: Vec<i64> = ledger
                    .iter()
                    .filter(|(_, e)| *e + 1 >= b)
                    .map(|(v, _)| *v)
                    .collect();
                match rng.choose(&candidates) {
                    Some(&v) => v,
                    None => continue,
                }
            } else {
                let hot = (ledger.len() / 10).max(1);
                ledger[rng.index(hot)].0
            };
            let pred =
                RangePredicate::new(anchor.saturating_sub(width), anchor.saturating_add(width));
            let truth = ledger.iter().filter(|(v, _)| pred.matches(*v)).count();
            if truth == 0 {
                continue;
            }
            let (rf, touched) = {
                let table = store.table(p);
                let touched: Vec<amnesia_columnar::RowId> = table
                    .iter_active()
                    .filter(|&r| pred.matches(table.value(0, r)))
                    .collect();
                (touched.len(), touched)
            };
            store.touch(p, &touched, b);
            let pf = rf as f64 / truth as f64;
            store.observe(p, pf);
            precision_sum += pf;
            queries += 1;
        }
        series.push(if queries == 0 {
            1.0
        } else {
            precision_sum / queries as f64
        });
        store.end_batch(b, &mut rng)?;
    }
    if let Some(out) = chosen_arms {
        for p in 0..partitions {
            out.push(format!("p{p}:{}", store.current_arm(p)));
        }
    }
    Ok(series)
}

/// ABL-ADAPT: adaptive per-partition policy choice vs the same policies
/// applied globally, on a workload whose best policy differs by value
/// region.
pub fn ablation_adaptive(scale: &Scale) -> Result<SeriesReport> {
    // Longer run: the bandit needs batches to explore all arms.
    let scale = Scale {
        batches: scale.batches * 4,
        ..*scale
    };
    let mut series = Vec::new();
    let mut arms = Vec::new();
    let adaptive = run_partitioned_workload(&scale, None, Some(&mut arms))?;
    series.push((format!("adaptive[{}]", arms.join(",")), adaptive));
    for kind in crate::adaptive::AdaptiveConfig::default_arms() {
        let fixed = run_partitioned_workload(&scale, Some(kind.clone()), None)?;
        series.push((format!("global-{}", kind.name()), fixed));
    }
    Ok(SeriesReport {
        title: format!(
            "Adaptive partitioning: split recency/history workload (dbsize={}, 2 partitions)",
            scale.dbsize
        ),
        x_label: "batch".into(),
        y_label: "mean query precision".into(),
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shapes() {
        let report = fig1_amnesia_map(&Scale::test()).unwrap();
        assert_eq!(report.rows.len(), 4);
        let names: Vec<&str> = report.rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["fifo", "uniform", "ante", "area"]);

        let get = |name: &str| {
            report
                .rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let fifo = get("fifo");
        // FIFO: a step function — old epochs zero, latest epochs full.
        assert!(fifo[0] < 1e-9, "fifo epoch0 {}", fifo[0]);
        assert!((fifo.last().unwrap() - 1.0).abs() < 1e-9);
        // Uniform: gradient increasing toward recent epochs.
        let uni = get("uniform");
        assert!(uni.last().unwrap() > &uni[1]);
        // Ante: epoch 0 retained the most.
        let ante = get("ante");
        assert!(ante[0] > 0.7, "ante epoch0 {}", ante[0]);
        let mid = ante[1..ante.len() - 1].iter().sum::<f64>() / (ante.len() - 2) as f64;
        assert!(ante[0] > mid, "ante initial > updates");
    }

    #[test]
    fn fig2_distribution_matters_for_rot() {
        let report = fig2_rot_map(&Scale::test()).unwrap();
        assert_eq!(report.rows.len(), 4);
        // Serial data under rot decays old epochs (fifo-like): the last
        // epoch retains more than the first.
        let serial = &report.rows[0].1;
        assert!(
            serial.last().unwrap() > &serial[0],
            "serial rot map should favour fresh data: {serial:?}"
        );
        // Maps must differ across distributions (Figure 2's point).
        let uniform = &report.rows[1].1;
        assert_ne!(serial, uniform);
    }

    #[test]
    fn fig3_precision_decays_and_first_batch_is_perfect() {
        let report = fig3_range_precision(&Scale::test(), DistributionKind::Uniform).unwrap();
        assert_eq!(report.series.len(), 5);
        for (name, series) in &report.series {
            assert!(
                series[0] > 0.999,
                "{name}: batch 1 ran before any forgetting, got {}",
                series[0]
            );
            assert!(
                series.last().unwrap() < &0.9,
                "{name}: precision must decay, got {:?}",
                series
            );
        }
    }

    #[test]
    fn aggregate_errors_are_marginal() {
        let report = aggregate_precision(&Scale::test(), DistributionKind::Uniform, false).unwrap();
        for (name, series) in &report.series {
            let max = series.iter().fold(0.0f64, |a, &b| a.max(b));
            assert!(max < 0.25, "{name}: AVG error should stay small, got {max}");
        }
    }

    #[test]
    fn pair_beats_uniform_on_avg() {
        let report = ablation_pair(&Scale::test()).unwrap();
        let mean = |name: &str| {
            let s = &report.series.iter().find(|(n, _)| n == name).unwrap().1;
            s.iter().sum::<f64>() / s.len() as f64
        };
        assert!(
            mean("pair") <= mean("uniform") + 1e-6,
            "pair {} vs uniform {}",
            mean("pair"),
            mean("uniform")
        );
    }

    #[test]
    fn aligned_tracks_history_better_than_fifo() {
        let report = ablation_aligned(&Scale::test()).unwrap();
        let last = |name: &str| {
            *report
                .series
                .iter()
                .find(|(n, _)| n == name)
                .unwrap()
                .1
                .last()
                .unwrap()
        };
        assert!(
            last("aligned") < last("fifo"),
            "aligned {} should beat fifo {}",
            last("aligned"),
            last("fifo")
        );
    }

    #[test]
    fn budget_modes_trade_memory_for_precision() {
        let (precision, footprint) = ablation_budget(&Scale::test()).unwrap();
        let last = |r: &SeriesReport, name: &str| {
            *r.series
                .iter()
                .find(|(n, _)| n == name)
                .unwrap()
                .1
                .last()
                .unwrap()
        };
        // Unbounded: perfect precision, biggest footprint.
        assert!((last(&precision, "unbounded") - 1.0).abs() < 1e-9);
        assert!(last(&footprint, "unbounded") > last(&footprint, "fixed"));
        // Fixed: smallest footprint.
        assert_eq!(last(&footprint, "fixed"), Scale::test().dbsize as f64);
    }

    #[test]
    fn forget_modes_table_has_all_modes() {
        let report = ablation_forget_modes(&Scale::test()).unwrap();
        assert_eq!(report.rows.len(), 6);
        let modes: Vec<&str> = report.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            modes,
            vec![
                "mark-only",
                "delete",
                "deindex",
                "tier",
                "summarize",
                "model"
            ]
        );
        // Deindex keeps complete scans: completeness column == 1.
        let deindex = &report.rows[2];
        assert_eq!(deindex[5], "1.0000");
        // Summarize answers whole-table AVG exactly; so does model.
        let summarize = &report.rows[4];
        assert_eq!(summarize[6], "0.0000");
        let model = &report.rows[5];
        assert_eq!(model[6], "0.0000");
        // Every cell, pinned. The last column is the mean cost the
        // access-path choice charges a range probe: a full scan of the
        // hot rows (mark-only, tier, and deindex's complete scan), the
        // sorted-index probe (delete), or a scan of the vacuumed table.
        let expect = [
            [
                "mark-only",
                "680",
                "31.9",
                "0",
                "24",
                "0.3215",
                "0.0542",
                "680",
            ],
            ["delete", "200", "16.9", "0", "24", "0.3215", "0.0542", "40"],
            [
                "deindex", "680", "38.2", "0", "24", "1.0000", "0.0542", "680",
            ],
            [
                "tier", "680", "31.9", "480", "24", "0.3215", "0.0542", "680",
            ],
            [
                "summarize",
                "200",
                "10.6",
                "0",
                "416",
                "0.3215",
                "0.0000",
                "200",
            ],
            ["model", "200", "10.6", "0", "24", "0.3215", "0.0000", "200"],
        ];
        for (row, want) in report.rows.iter().zip(expect) {
            assert_eq!(row, &want, "{}", want[0]);
        }
    }

    #[test]
    fn drift_ablation_runs_for_all_policies() {
        let report = ablation_drift(&Scale::test()).unwrap();
        assert_eq!(report.series.len(), 6);
        for (name, series) in &report.series {
            assert_eq!(series.len(), Scale::test().batches as usize);
            assert!(series[0] > 0.999, "{name} starts perfect");
            // Under drift the query focus moves with the data; precision
            // still decays but stays a valid ratio.
            for &e in series {
                assert!((0.0..=1.0).contains(&e), "{name}: E={e}");
            }
        }
    }

    #[test]
    fn compression_table_covers_grid() {
        let report = ablation_compression(&Scale::test()).unwrap();
        // 4 distributions × (5 codecs + auto) = 24 rows.
        assert_eq!(report.rows.len(), 24);
        // Serial data must compress extremely well under delta.
        let serial_delta = report
            .rows
            .iter()
            .find(|r| r[0] == "serial" && r[1] == "delta")
            .unwrap();
        let ratio: f64 = serial_delta[3].parse().unwrap();
        assert!(ratio > 4.0, "serial/delta ratio {ratio}");
    }

    #[test]
    fn reports_render() {
        let report = fig1_amnesia_map(&Scale::test()).unwrap();
        let ascii = report.render_ascii();
        assert!(ascii.contains("fifo"));
        let csv = report.to_csv();
        assert!(csv.starts_with("name,epoch0"));
    }

    #[test]
    fn join_precision_decays_for_all_policies() {
        let report = join_precision_experiment(&Scale::test()).unwrap();
        assert_eq!(report.series.len(), 5);
        for (name, series) in &report.series {
            assert_eq!(series.len(), Scale::test().batches as usize);
            for &p in series {
                assert!((0.0..=1.0).contains(&p), "{name}: precision {p}");
            }
            // Forgetting on both sides compounds: precision falls well
            // below the single-table level by the final batch.
            assert!(
                series.last().unwrap() < &0.9,
                "{name}: join precision must decay, got {series:?}"
            );
        }
    }

    #[test]
    fn referential_actions_tradeoff_holds() {
        let report = referential_actions_table(&Scale::test()).unwrap();
        assert_eq!(report.rows.len(), 3);
        let row = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("row {name}"))
                .clone()
        };
        // Cascade and restrict never leave dangling references.
        assert_eq!(row("cascade")[2], "0");
        assert_eq!(row("restrict")[2], "0");
        // Raw forgetting dangles (children of forgotten parents remain).
        let raw_dangling: usize = row("raw")[2].parse().unwrap();
        assert!(raw_dangling > 0, "raw forgetting must dangle");
        // Cascade meets the parent budget exactly.
        assert_eq!(row("cascade")[3], "0");
    }

    #[test]
    fn adaptive_partitioning_tracks_the_best_global_policy() {
        let report = ablation_adaptive(&Scale::test()).unwrap();
        assert_eq!(report.series.len(), 4);
        let tail_mean = |prefix: &str| -> f64 {
            let s = &report
                .series
                .iter()
                .find(|(n, _)| n.starts_with(prefix))
                .unwrap()
                .1;
            let tail = &s[s.len() * 2 / 3..];
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        let adaptive = tail_mean("adaptive");
        let best_global = ["global-fifo", "global-uniform", "global-rot"]
            .iter()
            .map(|n| tail_mean(n))
            .fold(0.0f64, f64::max);
        // The bandit mixes per-partition winners, so it must at least
        // approach the best single policy (small slack for exploration).
        assert!(
            adaptive >= best_global - 0.05,
            "adaptive {adaptive} vs best global {best_global}"
        );
    }

    #[test]
    fn micromodels_beat_summaries_on_ranged_aggregates() {
        let report = ablation_micromodels(&Scale::test()).unwrap();
        assert_eq!(report.rows.len(), 4);
        let count_err = |name: &str| -> f64 {
            report.rows.iter().find(|r| r[0] == name).unwrap()[1]
                .parse()
                .unwrap()
        };
        // Summaries cannot answer ranged queries: same error as mark-only.
        // Models interpolate and must cut the error substantially.
        assert!(
            count_err("model-128") < 0.5 * count_err("mark-only"),
            "model-128 {} vs mark-only {}",
            count_err("model-128"),
            count_err("mark-only")
        );
        assert!(
            count_err("model-128") <= count_err("model-16") + 0.05,
            "finer bins should not be much worse"
        );
        // Every cell, pinned: the summary and micro-model fold-ins must
        // not drift.
        let expect = [
            ["mark-only", "0.7052", "0.0117", "680", "24"],
            ["summarize", "0.7052", "0.0117", "200", "416"],
            ["model-16", "0.0524", "0.0147", "200", "2208"],
            ["model-128", "0.0140", "0.0021", "200", "11616"],
        ];
        for (row, want) in report.rows.iter().zip(expect) {
            assert_eq!(row, &want, "{}", want[0]);
        }
    }

    #[test]
    fn recall_learning_policies_beat_oblivious_baselines() {
        let report = recall_comparison(&Scale::test()).unwrap();
        assert_eq!(report.series.len(), 6);
        let tail_mean = |name: &str| {
            let s = &report.series.iter().find(|(n, _)| n == name).unwrap().1;
            let tail = &s[s.len() / 2..];
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        // Query hits rehearse the zipfian head every batch; the
        // count-based policies must retain it far better than fifo,
        // which blindly evicts by age.
        for learner in ["rot", "decay"] {
            assert!(
                tail_mean(learner) > tail_mean("fifo") + 0.05,
                "{learner} {} should beat fifo {}",
                tail_mean(learner),
                tail_mean("fifo")
            );
        }
        // Ebbinghaus documents a negative result: the broad query load
        // rehearses every active tuple each batch, so its recency clock
        // pins to zero and it tracks the oblivious baselines.
        assert!(
            tail_mean("ebbinghaus") > 0.8 * tail_mean("fifo"),
            "ebbinghaus {} collapsed below fifo {}",
            tail_mean("ebbinghaus"),
            tail_mean("fifo")
        );
        // And every series starts perfect before any forgetting.
        for (name, series) in &report.series {
            assert!(series[0] > 0.999, "{name} starts at {}", series[0]);
        }
    }
}
