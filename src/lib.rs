//! # amnesia — a database system that forgets
//!
//! A Rust reproduction of *"A Database System with Amnesia"* (Kersten &
//! Sidirourgos, CIDR 2017): a columnar store that deliberately forgets
//! tuples to stay inside a storage budget, the amnesia policies of the
//! paper (`fifo`, `uniform`, `ante`, `rot`, `area`, and the §4.4
//! extensions), and the simulator that measures how much query precision
//! survives.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`util`] | `amnesia-util` | deterministic RNG, bitmaps, stats, ASCII charts |
//! | [`distrib`] | `amnesia-distrib` | serial/uniform/normal/zipfian generators, histograms |
//! | [`columnar`] | `amnesia-columnar` | tables, activity marking, zone maps, indexes, compression, cold storage, summaries, vacuum |
//! | [`workload`] | `amnesia-workload` | range/point/aggregate query generators, update batches |
//! | [`engine`] | `amnesia-engine` | physical plans and their one executor entry point (`execute_plan`: cost-chosen access paths, morsel parallelism), joins, cost model, forget-visibility modes |
//! | [`sql`] | `amnesia-sql` | SQL lexer/parser/binder/executor over amnesiac tables |
//! | [`core`] | `amnesia-core` | policies, budgets, metrics, the simulator, experiments |
//!
//! ## Quickstart
//!
//! ```
//! use amnesia::prelude::*;
//!
//! let cfg = SimConfig::builder()
//!     .dbsize(500)
//!     .domain(50_000)
//!     .update_fraction(0.2)
//!     .batches(5)
//!     .queries_per_batch(100)
//!     .distribution(DistributionKind::zipfian_default())
//!     .policy(PolicyKind::Rot { high_water_age: 2 })
//!     .seed(1)
//!     .build()?;
//! let report = Simulator::new(cfg)?.run()?;
//! println!("precision per batch: {:?}", report.precision_series());
//! # Ok::<(), amnesia::prelude::Error>(())
//! ```

#![warn(rust_2018_idioms)]

pub use amnesia_columnar as columnar;
pub use amnesia_core as core;
pub use amnesia_distrib as distrib;
pub use amnesia_engine as engine;
pub use amnesia_sql as sql;
pub use amnesia_util as util;
pub use amnesia_workload as workload;

/// Most-used types in one import.
pub mod prelude {
    pub use amnesia_columnar::{
        Database, ForeignKey, PersistentTable, ReferentialAction, RowId, Schema, SyncPolicy, Table,
        Value,
    };
    pub use amnesia_core::budget::BudgetMode;
    pub use amnesia_core::config::SimConfig;
    pub use amnesia_core::metrics::{AmnesiaMap, SimReport};
    pub use amnesia_core::policy::{AmnesiaPolicy, PolicyContext, PolicyKind};
    pub use amnesia_core::sim::Simulator;
    pub use amnesia_core::store::{AmnesiacStore, ForgetMode};
    pub use amnesia_distrib::DistributionKind;
    pub use amnesia_util::{Bitmap, Error, Result, SimRng};
    pub use amnesia_workload::{AggKind, Query, QueryGenKind, RangePredicate};
}
