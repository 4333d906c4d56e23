//! The §III-B streaming primitives.

mod contract;
mod ew;
mod expand;
mod merge;

pub use contract::{FlattenNode, ReduceNode};
pub(crate) use ew::{fire_run, FusedRun, Tail};
pub use ew::{EwNode, OutputSpec};
pub use expand::{BroadcastNode, CounterNode, ForkNode};
pub use merge::{FbMergeNode, FwdMergeNode};
