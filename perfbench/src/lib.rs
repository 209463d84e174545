//! End-to-end and per-layer benchmark of the PEERING reproduction.
//!
//! Four open-loop workloads in simulated time, each derived entirely from
//! a seed: `serve-attack`, `serve-bare` and `serve-sharded` drive the
//! anycast serving deployment ([`serve`]); `dfz-churn` feeds a full
//! table through an IXP route server and replays AMS-IX churn ([`dfz`]).
//! An untraced run reports the end-to-end metrics; a traced run reports
//! per-layer metrics from spans around the benchmark's calls into each
//! layer plus standalone replays of the busiest layers ([`replay`]).

pub mod dfz;
pub mod replay;
pub mod report;
pub mod run;
pub mod serve;
pub mod trace;

pub use report::Report;
pub use run::{run, Options, Size, Workload};
