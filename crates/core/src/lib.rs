//! # spdyier-core
//!
//! The assembled testbed for *"Towards a SPDY'ier Mobile Web?"*: a
//! deterministic discrete-event driver that loads real synthesized pages
//! through real HTTP/1.1 or SPDY/3 protocol stacks, over real sans-IO TCP
//! connections, across an RRC-gated cellular (or WiFi) access path and a
//! wired cloud path to modelled origins — reproducing the paper's
//! measurement topology (its Fig. 2) end to end.
//!
//! ```no_run
//! use spdyier_core::{run_experiment, ExperimentConfig, ProtocolMode};
//!
//! let cfg = ExperimentConfig::paper_3g(ProtocolMode::Http, /*seed*/ 1);
//! let result = run_experiment(cfg);
//! println!("median-ish PLT sample: {:?} ms", result.plts_ms().first());
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod config;
pub mod contract;
pub mod driver;
pub mod export;
pub mod results;
mod session;
mod visits;
pub mod waterfall;
mod world;

pub use config::{
    AccessPath, BeaconConfig, ExperimentConfig, NetworkKind, NetworkSpec, ProtocolMode,
    NETWORK_NAMES,
};
pub use contract::{
    junit_xml, paired_meta_file, stall_manifest_file, AssertionVerdict, ScenarioExit,
    VerdictStatus, PAIRED_DUMP_SCHEMA_VERSION, RESULT_SCHEMA_VERSION, STALL_TABLE_SCHEMA_VERSION,
};
pub use driver::{
    run_experiment, run_experiment_traced, try_run_experiment, try_run_experiment_traced, RunError,
    Testbed,
};
pub use export::{
    attribute_stalls, export_run, metrics_file, stall_file, write_to_dir, DataFile,
    METRICS_SCHEMA_VERSION,
};
pub use results::{ConnTraceResult, RunResult, VisitResult};
pub use spdyier_causal::StallBreakdown;
pub use spdyier_trace::{FlightLog, TraceLevel};
pub use waterfall::{
    waterfall, waterfall_json, waterfall_traced, waterfall_traced_json, Waterfall,
};
