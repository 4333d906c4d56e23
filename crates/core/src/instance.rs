//! Compile-once / run-many instantiation.
//!
//! A [`CompiledProgram`] is expensive to produce (the whole pass pipeline)
//! but cheap to *instantiate*: all mutable run state — node behaviors,
//! channel queues, [`MemoryState`] — lives in the program's [`Graph`], and
//! [`Graph::fresh_instance`] copies the small parts of it, recycles the
//! DRAM image (restoring only the pages the previous instance dirtied, see
//! [`revet_machine::Dram`]) and the channel table (rings kept at their
//! grown size) from the program's pools, and shares the immutable schedule
//! ([`revet_machine::ExecPlan`]) behind an `Arc`. A
//! [`ProgramInstance`] is the resulting unit of batch work: it is `Send`
//! and owns everything it mutates, its output included (`main`'s return
//! values stay on its own copy of the exit channel), so any number of
//! instances of one compile can run concurrently (see the `revet-runtime`
//! crate's `BatchRunner`).

use crate::lower::CompiledProgram;
use revet_machine::{
    ChanId, ExecReport, Graph, MachineError, MemoryState, ResumeState, RunOptions, RunStatus, TTok,
};
use revet_obs::ObsSink;
use revet_sltf::Word;

/// Not a choice: there is one executor, the graph's own
/// [`revet_machine::ExecPlan`]. The one-variant enum exists only because
/// the frozen benchmark (`perf_ledger/src/layers.rs`) spells
/// `StreamInstance::new(inst, StreamExecutor::Planned)`; nothing reads it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StreamExecutor {
    /// The graph's execution plan.
    #[default]
    Planned,
}

/// One independently runnable instantiation of a [`CompiledProgram`]:
/// private graph state (nodes, channels, memory), its output on its own
/// exit channel. Obtained from [`CompiledProgram::instance`].
#[derive(Debug)]
pub struct ProgramInstance {
    /// The instance's private executable graph. DRAM inputs that differ
    /// per instance are written with `graph.mem.write_dram` before running.
    pub graph: Graph,
    pub(crate) entry: ChanId,
    pub(crate) exit: ChanId,
}

// The whole point of an instance is to migrate onto a worker thread; keep
// that guarantee from regressing silently.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ProgramInstance>();
};

impl ProgramInstance {
    /// Runs this instance to quiescence with the given `main` arguments,
    /// through the compiled execution plan (shared by all instances of one
    /// compile) — the unobserved convenience over [`ProgramInstance::run`].
    ///
    /// # Errors
    ///
    /// Propagates machine protocol errors and deadlock diagnoses.
    pub fn run_untimed(
        &mut self,
        args: &[Word],
        max_rounds: u64,
    ) -> Result<ExecReport, MachineError> {
        self.run(args, max_rounds, ObsSink::noop())
    }

    /// Injects `args` and runs one-shot through the plan, recording into
    /// `obs`. Node labels are not published: a caller that renders a stall
    /// table or a trace names the nodes with [`ObsSink::set_labels`]
    /// itself, once.
    ///
    /// # Errors
    ///
    /// Propagates machine protocol errors and deadlock diagnoses.
    pub fn run(
        &mut self,
        args: &[Word],
        max_rounds: u64,
        obs: &ObsSink,
    ) -> Result<ExecReport, MachineError> {
        self.inject_args(args);
        self.execute(None, max_rounds, obs)
            .map(|(report, _)| report)
    }

    /// Injects one `main` argument thread into this instance's entry
    /// channel (see [`CompiledProgram::inject_args`]).
    pub fn inject_args(&mut self, args: &[Word]) {
        crate::lower::inject_args(&mut self.graph, self.entry, args);
    }

    /// The one forward to [`Graph::run`]. `resume` is the streaming axis
    /// ([`crate::StreamInstance`] passes its session state).
    pub(crate) fn execute(
        &mut self,
        resume: Option<&mut ResumeState>,
        max_rounds: u64,
        obs: &ObsSink,
    ) -> Result<(ExecReport, RunStatus), MachineError> {
        self.graph.run(RunOptions {
            resume,
            obs,
            max_rounds,
        })
    }

    /// The tokens this instance's runs have left on the exit channel:
    /// `main`'s return values, one data tuple closed by `Ω1` per argument
    /// thread (the empty tuple for `void main`).
    pub fn sink_tokens(&self) -> Vec<TTok> {
        self.graph.chans()[self.exit.0 as usize].tokens()
    }

    /// The instance's memory state (DRAM image, SRAM regions, allocators).
    pub fn memory(&self) -> &MemoryState {
        &self.graph.mem
    }

    /// Consumes the instance, yielding its final memory state without
    /// copying the DRAM image.
    pub fn into_memory(self) -> MemoryState {
        self.graph.mem
    }
}

impl CompiledProgram {
    /// Instantiates this compiled program as a fresh runnable
    /// [`ProgramInstance`] ([`Graph::fresh_instance`]). Node, SRAM and
    /// allocator state is copied and the execution plan is shared. The
    /// DRAM image — including anything already loaded into
    /// `self.graph.mem` — and the channel table are equal to the
    /// template's but usually recycled from an earlier instance rather
    /// than copied: the image with only its dirty pages restored, the
    /// table with its rings already grown to the high-water marks earlier
    /// runs reached and the one-shot scheduler scratch riding along. The
    /// instance returns each when it drops it (the image when its memory is
    /// dropped, so also after [`ProgramInstance::into_memory`]); at most
    /// [`revet_machine::POOL_IMAGES`] idle ones of each are kept per
    /// program. The template program itself is left untouched, so one
    /// compile can be instantiated any number of times, concurrently and
    /// from a shared `&CompiledProgram`.
    pub fn instance(&self) -> ProgramInstance {
        let mut graph = self.graph.fresh_instance();
        // A template that already ran keeps its output on its exit
        // channel; an instance's output is its own.
        let exit = graph.chan_mut(self.exit);
        while exit.pop_front().is_some() {}
        ProgramInstance {
            graph,
            entry: self.entry,
            exit: self.exit,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{PassOptions, Session};
    use revet_sltf::Word;

    const SQUARES: &str = r#"
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                output[i] = i * i;
            };
        }
    "#;

    #[test]
    fn instances_run_independently_of_the_template() {
        let program = Session::new(SQUARES, PassOptions::default())
            .to_dataflow()
            .unwrap();
        let word_at =
            |dram: &[u8], i: usize| u32::from_le_bytes(dram[4 * i..4 * i + 4].try_into().unwrap());
        for n in [1u32, 3, 7] {
            let mut inst = program.instance();
            inst.run_untimed(&[Word(n)], 1_000_000).unwrap();
            for i in 0..n {
                assert_eq!(word_at(&inst.memory().dram, i as usize), i * i);
            }
        }
        // The template never ran: its DRAM is still all zeroes.
        assert!(program.graph.mem.dram.iter().all(|&b| b == 0));
    }
}
