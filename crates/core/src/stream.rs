//! Streaming sessions: a long-lived resident instance fed incrementally.
//!
//! A [`StreamInstance`] wraps a [`ProgramInstance`] and keeps it **paused
//! at quiescence** between input chunks instead of running it to
//! completion once: [`StreamInstance::feed`] appends whole `main`
//! argument sets to the entry channel (the same Data + Ω1 protocol a
//! one-shot run injects), [`StreamInstance::poll`] resumes the executor
//! and pops what `main` has left on the exit channel since the previous
//! poll, and [`StreamInstance::finish`] runs the final drain and yields
//! the output it produced, the memory image and the merged execution
//! report. The host is the exit channel's consumer: a token it reads
//! leaves the link, so a session holds only work not yet delivered.
//!
//! The load-bearing invariant — pinned by the property suite and the
//! fuzzer's chunked-feed lane — is that feeding an input in K chunks is
//! **bit-identical** (output stream and final DRAM) to a one-shot run of
//! the concatenation. Kahn semantics make this structural: chunking only
//! changes the *schedule*, and blocking-read dataflow output is
//! schedule-independent. Execution reports are *not* identical (resume
//! seeding re-steps quiescent nodes, which counts as unproductive work);
//! they accumulate across polls via [`revet_machine::ExecReport::merge`].

use crate::instance::{ProgramInstance, StreamExecutor};
use crate::lower::CompiledProgram;
use revet_machine::{ExecReport, MachineError, MemoryState, ResumeState, RunStatus, TTok};
use revet_sltf::Word;

/// Everything a finished stream leaves behind (see
/// [`StreamInstance::finish`]).
#[derive(Debug)]
pub struct StreamOutcome {
    /// Execution counters merged across every poll of the session.
    pub report: ExecReport,
    /// The final memory state (DRAM image, SRAM regions, allocators).
    pub memory: MemoryState,
    /// The output of the final drain, `main`'s return values no poll
    /// delivered: every poll's tokens followed by these are the whole
    /// output stream.
    pub tail: Vec<TTok>,
}

/// A resident, incrementally-fed instantiation of a [`CompiledProgram`].
///
/// ```
/// use revet_core::{PassOptions, Session};
/// use revet_sltf::Word;
///
/// let program = Session::new(
///     "dram<u32> output;
///      void main(u32 n) {
///          foreach (n) { u32 i => output[i] = i * i; };
///      }",
///     PassOptions::default(),
/// )
/// .to_dataflow()
/// .unwrap();
/// let mut stream = program.stream();
/// stream.feed(&[vec![Word(3)]]).unwrap();
/// stream.poll(1_000_000).unwrap();
/// stream.feed(&[vec![Word(4)]]).unwrap(); // resident state persists
/// let out = stream.finish(1_000_000).unwrap();
/// assert_eq!(u32::from_le_bytes(out.memory.dram[8..12].try_into().unwrap()), 4);
/// ```
#[derive(Debug)]
pub struct StreamInstance {
    inner: ProgramInstance,
    resume: ResumeState,
    /// Counters merged across every poll so far.
    report: ExecReport,
}

impl StreamInstance {
    /// Wraps a fresh instance for streaming ([`StreamExecutor`] has one
    /// value; see there for why the parameter exists).
    pub fn new(inner: ProgramInstance, _executor: StreamExecutor) -> Self {
        StreamInstance {
            inner,
            resume: ResumeState::new(),
            report: ExecReport::default(),
        }
    }

    /// Appends whole `main` argument sets to the entry channel — each one
    /// a data tuple closed by Ω1, exactly what a one-shot run injects.
    /// Returns how many argsets were accepted: all of them, since the
    /// entry channel is unbounded.
    ///
    /// # Errors
    ///
    /// Currently infallible for compiled programs (the entry channel
    /// always exists); the `Result` reserves room for protocol errors.
    pub fn feed(&mut self, argsets: &[Vec<Word>]) -> Result<usize, MachineError> {
        for args in argsets {
            self.inner.inject_args(args);
        }
        Ok(argsets.len())
    }

    /// Resumes execution until quiescence and pops the exit-channel
    /// tokens produced since the previous poll, returning them with
    /// whether the graph drained cleanly ([`RunStatus::Finished`]) or
    /// holds tokens that need more input ([`RunStatus::Paused`]). Both
    /// statuses leave the session usable: `Finished` just means nothing
    /// is currently in flight.
    ///
    /// # Errors
    ///
    /// Node protocol errors and the round cap. Leftover tokens are not an
    /// error here — that is the `Paused` status.
    pub fn poll(&mut self, max_rounds: u64) -> Result<(Vec<TTok>, RunStatus), MachineError> {
        let (report, status) = self.inner.execute(
            Some(&mut self.resume),
            max_rounds,
            revet_obs::ObsSink::noop(),
        )?;
        self.report.merge(&report);
        let exit = self.inner.exit;
        Ok((self.inner.graph.chan_mut(exit).drain_all(), status))
    }

    /// Runs a final poll and closes the session. A clean drain yields the
    /// [`StreamOutcome`]; leftover stuck tokens (an argset cut short, a
    /// starved merge) are *now* an error, diagnosed with the same stuck-
    /// channel report a one-shot deadlock produces.
    ///
    /// # Errors
    ///
    /// Poll errors, plus the deadlock diagnosis when input is incomplete.
    pub fn finish(mut self, max_rounds: u64) -> Result<StreamOutcome, MachineError> {
        let (tail, status) = self.poll(max_rounds)?;
        if status == RunStatus::Paused {
            // `Paused` is quiescence with stuck channels: the graph's
            // one-shot reading of that state is the diagnosis.
            return Err(self
                .inner
                .graph
                .deadlock()
                .expect("a paused graph has stuck channels"));
        }
        Ok(StreamOutcome {
            report: self.report,
            tail,
            memory: self.inner.into_memory(),
        })
    }

    /// Approximate resident heap bytes of the session's mutable streaming
    /// state: the tokens queued on its channels, which is only work not
    /// yet delivered (fed input not yet consumed, stuck tokens, and output
    /// no poll has popped). It reads 0 after a poll that finished — per-
    /// session memory accounting reads this.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.graph.resident_bytes()
    }

    /// Counters merged across every poll so far.
    pub fn report(&self) -> &ExecReport {
        &self.report
    }
}

impl CompiledProgram {
    /// Opens a streaming session: a fresh [`ProgramInstance`] wrapped for
    /// incremental feeding (see [`StreamInstance`]).
    pub fn stream(&self) -> StreamInstance {
        StreamInstance::new(self.instance(), StreamExecutor::Planned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PassOptions, Session};
    use revet_oracle::dense::run_dense;

    const SQUARES: &str = r#"
        dram<u32> output;
        void main(u32 n) {
            foreach (n) { u32 i =>
                output[i] = i * i;
            };
        }
    "#;

    fn compile(opt_level: u8) -> CompiledProgram {
        let opts = PassOptions {
            opt_level,
            ..PassOptions::default()
        };
        Session::new(SQUARES, opts).to_dataflow().unwrap()
    }

    /// The one-shot reference is the dense oracle (the name predates the
    /// interpreter's removal).
    #[test]
    fn chunked_feed_matches_one_shot_for_both_executors() {
        let program = compile(2);
        let argsets: Vec<Vec<Word>> = (1..=4).map(|n| vec![Word(n)]).collect();

        // One-shot reference: ONE instance, every argset injected up
        // front, one dense run.
        let mut reference = program.instance();
        for args in &argsets {
            reference.inject_args(args);
        }
        run_dense(&mut reference.graph, 1_000_000).unwrap();

        let mut stream = program.stream();
        let mut collected = Vec::new();
        for args in &argsets {
            assert_eq!(stream.feed(std::slice::from_ref(args)).unwrap(), 1);
            let (delta, status) = stream.poll(1_000_000).unwrap();
            collected.extend(delta);
            assert_eq!(status, RunStatus::Finished);
        }
        let out = stream.finish(1_000_000).unwrap();
        collected.extend(out.tail);
        assert_eq!(collected, reference.sink_tokens(), "polls + tail");
        assert_eq!(out.memory.dram, reference.memory().dram, "DRAM");
    }

    #[test]
    fn merged_report_equals_sum_of_poll_reports() {
        // Regression: a finished stream's report must accumulate
        // steps/rounds across polls, not report only the last poll.
        let program = compile(2);
        let mut stream = program.stream();
        let mut sum = ExecReport::default();
        for n in 1..=3u32 {
            stream.feed(&[vec![Word(n)]]).unwrap();
            let before = *stream.report();
            stream.poll(1_000_000).unwrap();
            let mut delta = *stream.report();
            delta.rounds -= before.rounds;
            delta.steps -= before.steps;
            delta.productive_steps -= before.productive_steps;
            sum.merge(&delta);
            assert!(delta.steps > 0, "each poll does real work");
        }
        let merged = *stream.report();
        let out = stream.finish(1_000_000).unwrap();
        assert_eq!(merged.steps, sum.steps);
        assert_eq!(merged.rounds, sum.rounds);
        assert!(
            out.report.steps >= merged.steps,
            "finish folds its own final poll in"
        );
    }

    /// Compiled programs consume whole argsets, so a stuck session needs
    /// an unbalanced graph: a zip whose second input never arrives, built
    /// by hand around the entry channel.
    fn starved_zip() -> ProgramInstance {
        use revet_machine::nodes::EwNode;
        use revet_machine::{Channel, Graph};
        let mut g = Graph::new();
        let c0 = g.add_chan(Channel::new(1));
        let c1 = g.add_chan(Channel::new(1));
        let c2 = g.add_chan(Channel::new(2));
        g.add_node("zip", EwNode::passthrough(2), vec![c0, c1], vec![c2]);
        ProgramInstance {
            graph: g,
            entry: c0,
            exit: c2,
        }
    }

    #[test]
    fn finish_diagnoses_stuck_input_as_deadlock() {
        let mut stream = StreamInstance::new(starved_zip(), StreamExecutor::Planned);
        stream.feed(&[vec![Word(7)]]).unwrap();
        let (_, status) = stream.poll(1_000_000).unwrap();
        assert_eq!(status, RunStatus::Paused, "starved zip pauses the stream");
        let err = stream.finish(1_000_000).unwrap_err();
        assert!(err.message.contains("deadlock"), "got: {err}");
    }

    #[test]
    fn starved_zip_diagnosis_is_identical_one_shot_and_streamed() {
        let mut inst = starved_zip();
        inst.inject_args(&[Word(7)]);
        let one_shot = inst
            .execute(None, 1_000_000, revet_obs::ObsSink::noop())
            .unwrap_err();
        let mut dense = starved_zip();
        dense.inject_args(&[Word(7)]);
        let oracle = run_dense(&mut dense.graph, 1_000_000).unwrap_err();
        let mut stream = StreamInstance::new(starved_zip(), StreamExecutor::Planned);
        stream.feed(&[vec![Word(7)]]).unwrap();
        let (_, status) = stream.poll(1_000_000).unwrap();
        assert_eq!(status, RunStatus::Paused);
        let streamed = stream.finish(1_000_000).unwrap_err();
        assert_eq!(one_shot, streamed);
        assert_eq!(oracle, streamed, "the dense oracle words it the same");
        assert_eq!(
            streamed.message,
            "deadlock at quiescence: channel #0 -> 'zip': 2 tokens pending"
        );
    }

    #[test]
    fn resident_bytes_rises_with_fed_input_and_survives_pause() {
        let program = compile(0);
        let mut stream = program.stream();
        assert_eq!(stream.resident_bytes(), 0);
        stream.feed(&[vec![Word(8)]]).unwrap();
        assert!(stream.resident_bytes() > 0, "fed argset is resident");
        stream.poll(1_000_000).unwrap();
        assert_eq!(stream.resident_bytes(), 0, "the poll delivered it all");
    }
}
