//! Graph endpoints: sources inject prepared streams, sinks collect results.

use crate::node::{MachineError, Ports};
use crate::tuple::TTok;
use revet_sltf::{Tok, Word};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Approximate resident heap bytes of one owned token held by an endpoint.
fn token_bytes(tok: &TTok) -> usize {
    let payload = tok
        .data()
        .map_or(0, |vals| std::mem::size_of_val(&vals[..]));
    std::mem::size_of::<TTok>() + payload
}

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
}

/// Injects a prepared token stream into the graph.
#[derive(Clone, Debug)]
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

    /// Emits pending tokens while the output has room.
    ///
    /// # Errors
    ///
    /// None; the `Result` is the signature every firing rule shares.
    pub fn fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError> {
        let mut progressed = false;
        while let Some(front) = self.pending.front() {
            if !io.can_push(0, front.is_barrier()) {
                break;
            }
            match self.pending.pop_front().expect("front checked") {
                Tok::Data(vals) => io.push_data(0, &vals),
                Tok::Barrier(level) => io.push_barrier(0, level),
            }
            progressed = true;
        }
        Ok(progressed)
    }

    /// Approximate resident heap bytes of the tokens still to emit.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.pending.iter().map(token_bytes).sum()
    }
}

/// Consumes and records every incoming token.
#[derive(Debug)]
pub struct SinkNode {
    out: SinkHandle,
}

/// A cloned sink collects into a **fresh, empty** buffer: instances of one
/// compiled graph must never interleave their results. The new node's
/// handle is reachable via [`SinkNode::handle`].
impl Clone for SinkNode {
    fn clone(&self) -> Self {
        SinkNode::new().0
    }
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

    /// The handle to the tokens this sink collects.
    pub fn handle(&self) -> SinkHandle {
        self.out.clone()
    }

    /// Collects every available input token.
    ///
    /// # Errors
    ///
    /// None; the `Result` is the signature every firing rule shares.
    pub fn fire<P: Ports>(&mut self, io: &mut P) -> Result<bool, MachineError> {
        let mut progressed = false;
        while let Some(tok) = io.peek_in(0) {
            self.out.0.lock().unwrap().push(tok.map(<[Word]>::to_vec));
            io.pop_in(0);
            progressed = true;
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::mem::MemoryState;
    use crate::node::{ChanId, NodeIo, PortBudget};
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
        assert!(src.fire(&mut io).unwrap());

        let ins = [ChanId(0)];
        let outs: [ChanId; 0] = [];
        let mut ib = vec![PortBudget::UNLIMITED];
        let mut ob = vec![];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        assert!(sink.fire(&mut io).unwrap());
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
            bound: usize::MAX,
        }];
        let mut io = NodeIo::new(&mut chans, &ins, &outs, &mut mem, &mut ib, &mut ob);
        src.fire(&mut io).unwrap();
        assert_eq!(chans[0].len(), 1, "budget limited to one data token");
    }
}
