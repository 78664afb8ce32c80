//! # spdyier-causal
//!
//! The causal explanation layer over the flight recorder: a dependency
//! model of each page load (HTML parse → fetch issue → connection
//! grant → TCP send → link serialization → RRC promotion wait → RTO
//! recovery → response → dependent fetch), exact per-visit
//! **critical-path extraction** whose typed edge durations sum to the
//! PLT by construction, and a **diff engine** that aligns two runs of
//! the same workload and attributes their PLT delta edge by edge.
//!
//! The paper's headline — SPDY's single connection magnifies TCP RTO
//! stalls under 3G RRC transitions — is a critical-path statement: a
//! stall only hurts PLT when it sits on the load's dependency chain.
//! One engine answers both forms of the question. The **stall table**
//! ([`stall_breakdowns`]) decomposes each visit's whole window into
//! layer buckets; the critical path answers the sharper question of
//! *which* stalls gated the load, and, across two cells (HTTP vs SPDY,
//! mitigation on vs off), *which edges the PLT delta came from*. Both
//! read the intervals of one [`EventModel`] and carve them with one
//! boundary sweep, so they cannot drift apart.
//!
//! ```
//! use spdyier_causal::{critical_paths_from_records, diff_paths};
//! # let records: Vec<spdyier_trace::TraceRecord> = Vec::new();
//! let paths = critical_paths_from_records(&records);
//! for p in &paths {
//!     assert_eq!(p.sums_us().iter().sum::<u64>(), p.plt_us()); // exact
//! }
//! let d = diff_paths("http", &paths, "spdy", &paths);
//! assert_eq!(d.plt_delta_us(), 0);
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod diff;
pub mod model;
pub mod parse;
pub mod path;
pub mod stalls;

pub use diff::{diff_paths, DiffReport, VisitDiff, DIFF_SCHEMA_VERSION};
pub use model::{ConnBinding, EventModel, Interval, ObjectInstants, VisitWindow};
pub use parse::{parse_jsonl, parse_record};
pub use path::{
    critical_paths, critical_paths_from_records, explain_json, explain_text, rollup_us,
    CriticalPath, EdgeKind, PathEdge, EDGE_KINDS, EXPLAIN_SCHEMA_VERSION,
};
pub use stalls::{stall_breakdowns, StallBreakdown};
