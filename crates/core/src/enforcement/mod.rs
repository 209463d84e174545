//! The enforcement engines (paper §3.3, §4.7).
//!
//! vBGP separates policy enforcement from the routing engine: the control
//! plane engine interposes on every route an experiment announces (the
//! paper implements this with ExaBGP running Python in the BGP pipeline),
//! and the data plane engine interposes on every packet (eBPF in the
//! paper). Decoupling is what makes the policies unit-testable and lets
//! them be stateful — both engines here keep persistent state (rate
//! ledgers, token buckets) and fail closed.

pub mod control;
pub mod data;
pub mod pprog;

pub use control::{
    ControlCounter, ControlEnforcer, ExperimentPolicy, PopCount, RateLedger, Rejection,
};
pub use data::{DataCounter, DataEnforcer, DataVerdict, DropReason, TokenBucket};
pub use pprog::{Field, Insn, PacketProgram, PacketView, ProgError, ProgOutcome, Rewrite};
