//! The §III-B streaming primitives.

mod contract;
mod endpoints;
mod ew;
mod expand;
mod merge;

pub use contract::{FlattenNode, ReduceNode};
pub use endpoints::{SinkHandle, SinkNode, SourceNode};
pub(crate) use ew::{fire_run, FusedRun, Tail};
pub use ew::{EwNode, OutputSpec};
pub use expand::{BroadcastNode, CounterNode, ForkNode};
pub use merge::{FbMergeNode, FwdMergeNode};
