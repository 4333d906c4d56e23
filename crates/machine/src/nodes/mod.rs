//! The §III-B streaming primitives.

mod contract;
mod ew;
mod expand;
mod merge;

pub use contract::{FlattenNode, ReduceNode};
pub(crate) use ew::{fire_run, fresh_regs, FusedRun, Tail};
pub use ew::{EwNode, OutputSpec};
pub use ew::{MAX_LANES, MIN_LANES};
pub use expand::{BroadcastNode, CounterNode, ForkNode};
pub use merge::{FbMergeNode, FwdMergeNode};
