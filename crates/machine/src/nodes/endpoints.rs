//! Graph endpoints: sources inject prepared streams, sinks collect results.

use crate::node::{token_bytes, FusedSpec, MachineError, Node, NodeIo};
use crate::tuple::TTok;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A shared handle to the tokens a [`SinkNode`] has collected.
#[derive(Clone, Debug, Default)]
pub struct SinkHandle(Arc<Mutex<Vec<TTok>>>);

impl SinkHandle {
    /// Snapshot of the collected tokens.
    pub fn tokens(&self) -> Vec<TTok> {
        self.0.lock().unwrap().clone()
    }

    /// Snapshot of the tokens collected from position `start` onward —
    /// streaming polls read only the delta since their last cursor.
    /// `start` past the end yields an empty vector.
    pub fn tokens_from(&self, start: usize) -> Vec<TTok> {
        let buf = self.0.lock().unwrap();
        buf.get(start..).map(<[TTok]>::to_vec).unwrap_or_default()
    }

    /// Number of collected tokens.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.0.lock().unwrap().is_empty()
    }

    /// Approximate resident heap bytes of the collected tokens.
    pub fn resident_bytes(&self) -> usize {
        self.0.lock().unwrap().iter().map(token_bytes).sum()
    }

    /// Appends every token `iter` yields under a single lock — the plan
    /// executor's fused sink drain (one lock per firing, not per token).
    pub(crate) fn collect_from(&self, iter: impl Iterator<Item = TTok>) {
        self.0.lock().unwrap().extend(iter);
    }
}

/// Injects a prepared token stream into the graph.
#[derive(Debug)]
pub struct SourceNode {
    pending: VecDeque<TTok>,
}

impl SourceNode {
    /// Creates a source holding `tokens`.
    pub fn new(tokens: impl IntoIterator<Item = TTok>) -> Self {
        SourceNode {
            pending: tokens.into_iter().collect(),
        }
    }
}

impl Node for SourceNode {
    fn step(&mut self, io: &mut NodeIo<'_>) -> Result<bool, MachineError> {
        let mut progressed = false;
        while let Some(front) = self.pending.front() {
            if !io.can_push(0, front.is_barrier()) {
                break;
            }
            let tok = self.pending.pop_front().expect("front checked");
            io.push(0, tok);
            progressed = true;
        }
        Ok(progressed)
    }

    fn kind(&self) -> &'static str {
        "source"
    }

    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(SourceNode {
            pending: self.pending.clone(),
        })
    }

    fn resident_bytes(&self) -> usize {
        self.pending.iter().map(token_bytes).sum()
    }
}

/// Consumes and records every incoming token.
#[derive(Debug)]
pub struct SinkNode {
    out: SinkHandle,
}

impl SinkNode {
    /// Creates a sink and the handle used to read it after execution.
    pub fn new() -> (Self, SinkHandle) {
        let handle = SinkHandle::default();
        (
            SinkNode {
                out: handle.clone(),
            },
            handle,
        )
    }
}

impl Node for SinkNode {
    fn step(&mut self, io: &mut NodeIo<'_>) -> Result<bool, MachineError> {
        let mut progressed = false;
        while io.peek_in(0).is_some() {
            let tok = io.pop_in(0);
            self.out.0.lock().unwrap().push(tok);
            progressed = true;
        }
        Ok(progressed)
    }

    fn kind(&self) -> &'static str {
        "sink"
    }

    /// A cloned sink collects into a **fresh, empty** buffer: instances of
    /// one compiled graph must never interleave their results. The new
    /// node's handle is reachable via [`Node::sink_handle`].
    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(SinkNode {
            out: SinkHandle::default(),
        })
    }

    fn sink_handle(&self) -> Option<SinkHandle> {
        Some(self.out.clone())
    }

    /// Sinks lower to a plan-native drain: pop everything on input 0 into
    /// the handle (the plan captures the handle at run start).
    fn fused_spec(&self) -> Option<FusedSpec> {
        Some(FusedSpec::Sink)
    }

    fn resident_bytes(&self) -> usize {
        self.out.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::mem::MemoryState;
    use crate::node::{ChanId, PortBudget};
    use crate::tuple::{tbar, tdata};

    #[test]
    fn source_to_sink() {
        let mut chans = vec![Channel::new(1)];
        let mut mem = MemoryState::default();
        let mut src = SourceNode::new(vec![tdata([1u32]), tbar(1)]);
        let (mut sink, handle) = SinkNode::new();

        let ins: [ChanId; 0] = [];
        let outs = [ChanId(0)];
        let mut ib = vec![];
        let mut ob = vec![PortBudget::UNLIMITED];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        assert!(src.step(&mut io).unwrap());

        let ins = [ChanId(0)];
        let outs: [ChanId; 0] = [];
        let mut ib = vec![PortBudget::UNLIMITED];
        let mut ob = vec![];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        assert!(sink.step(&mut io).unwrap());
        assert_eq!(handle.tokens(), vec![tdata([1u32]), tbar(1)]);
        assert_eq!(handle.len(), 2);
        assert!(!handle.is_empty());
    }

    #[test]
    fn source_respects_budget() {
        let mut chans = vec![Channel::new(1)];
        let mut mem = MemoryState::default();
        let mut src = SourceNode::new(vec![tdata([1u32]), tdata([2u32])]);
        let ins: [ChanId; 0] = [];
        let outs = [ChanId(0)];
        let mut ib = vec![];
        let mut ob = vec![PortBudget {
            data: 1,
            barrier: 1,
        }];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        src.step(&mut io).unwrap();
        assert_eq!(chans[0].len(), 1, "budget limited to one data token");
    }
}
