//! # spdyier-browser
//!
//! The browser model of the SPDY'ier reproduction testbed: a sans-IO
//! page-load state machine ([`PageLoad`]) implementing the two behaviours
//! the paper's §5.2 identifies as decisive — dependency-gated object
//! discovery and sequential script evaluation — plus the per-object timing
//! breakdown of Figure 5 ([`ObjectTiming`], [`StepAverages`]).
//!
//! Protocol specifics (the 6-per-domain HTTP pool, the single prioritised
//! SPDY session) live in the testbed driver; this crate is protocol-
//! agnostic.
//!
//! ```
//! use spdyier_browser::PageLoad;
//! use spdyier_workload::test_page;
//! use spdyier_sim::SimTime;
//!
//! let load = PageLoad::new(test_page(50, 40_000, true), SimTime::ZERO);
//! assert_eq!(load.ready_count(), 1, "only the root until it is parsed");
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod load;
pub mod timing;

pub use load::{PageLoad, Phase, ReadyObject};
pub use timing::{ObjectTiming, StepAverages};
