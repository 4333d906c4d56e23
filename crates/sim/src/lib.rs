//! # revet-sim — cycle-level vRDA simulation
//!
//! Times compiled Revet programs on the Table II machine: 200 CUs / 200 MUs
//! / 80 AGs at 1.6 GHz with HBM2-class DRAM (~900 GB/s, 32 B bursts).
//!
//! The simulator re-executes the *same* dataflow graph as the untimed
//! functional reference, under per-cycle constraints:
//!
//! - every link moves at most its class bandwidth per cycle (vector: 16 data
//!   elements + 1 barrier; scalar: 1 + 1);
//! - links have finite buffers (Table II input-buffer depths), so
//!   downstream congestion back-pressures producers. The depth is the
//!   machine's, not the program's: one function, `Simulator::link_bound`,
//!   maps a link to its depth, and the port budgets a node fires with
//!   carry it ([`PortBudget::bound`]), so a timed run leaves the program's
//!   wiring and schedule as it found them;
//! - DRAM traffic drains a token bucket refilled at the HBM2 byte rate, with
//!   an additional issue cap per AG context per cycle (the burst/activation
//!   bound that limits random-access workloads like hash-table);
//! - each context (= physical unit) fires at most once per cycle.
//!
//! The cycle loop is **event-driven**: it shares the untimed executor's
//! channel-endpoint [`revet_machine::TopologyIndex`] and steps only the
//! contexts woken by token arrivals, back-pressure releases, allocator
//! pushes, or their own leftover work — not every context every cycle.
//! [`SimStats::skipped_idle_steps`] counts the dense-sweep node-cycle slots
//! this avoids; DRAM-gated AG contexts simply stay queued until the token
//! bucket refills. A woken context whose inputs prove it cannot move
//! anything ([`revet_machine::Graph::starved`]) is stepped without running
//! its rule: it is accounted exactly as the unproductive step it would be
//! (fired flag, dispatch, stall class), so cycles and every counter are
//! unchanged, and only the rule's set-up is saved.
//!
//! A fire costs only what changes from one fire to the next. Every port's
//! budget is tabled once per run (`Budgets`: a byte per port indexing the
//! few distinct budgets, which sit on the stack), and a productive fire
//! copies its node's slice. A fire that pushed several tokens onto one link
//! wakes that link's consumers once. The ready set is two plain FIFO
//! vectors sized to the node count, read through a cursor, with one flag
//! byte per context for "queued" and "fired this cycle". None of this
//! changes the dispatch order, a wake decision or a counter.
//!
//! Identical DRAM results as the untimed run are asserted by the test suite;
//! only *when* things happen differs. Ideal-model toggles ([`IdealModels`])
//! reproduce Table V's D / SN / SND columns, and [`RdaConfig::fits`] is
//! Table IV's verdict on whether a program's units fit the machine.

#![warn(missing_docs)]

mod config;
mod stats;

pub use config::{IdealModels, RdaConfig};
pub use stats::SimStats;

use revet_core::CompiledProgram;
use revet_machine::{
    ChanId, Channel, IoEvents, LinkClass, MachineError, NodeId, NodeSlot, PortBudget, UnitClass,
};
use revet_obs::{BoundPort, ObsSink, StallClass, WakeCause};
use revet_sltf::Word;
use std::sync::Arc;

/// The cycle-level simulator.
#[derive(Debug)]
pub struct Simulator {
    /// Machine parameters.
    pub config: RdaConfig,
    /// Which subsystems are idealized (Table V ideal columns).
    pub ideal: IdealModels,
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator {
            config: RdaConfig::default(),
            ideal: IdealModels::default(),
        }
    }
}

impl Simulator {
    /// A simulator with the given configuration.
    pub fn new(config: RdaConfig, ideal: IdealModels) -> Self {
        Simulator { config, ideal }
    }

    /// Runs `program` with `main` arguments to completion; returns timing
    /// statistics. DRAM inputs must already be loaded. Only the program's
    /// channel contents and memory change: its wiring and its untimed
    /// schedule ([`revet_machine::Graph::plan`]) are left as they were.
    ///
    /// # Errors
    ///
    /// Propagates machine protocol errors; reports livelock if the cycle cap
    /// is hit.
    pub fn run(
        &self,
        program: &mut CompiledProgram,
        args: &[Word],
        max_cycles: u64,
    ) -> Result<SimStats, MachineError> {
        self.run_obs(program, args, max_cycles, ObsSink::noop())
    }

    /// [`Simulator::run`] with an observability sink: context fires, wake
    /// causes, per-cycle DRAM traffic, and stall attribution — including
    /// the DRAM-gated deferral of address generators, which only the timed
    /// simulator can observe — are recorded into `obs`, and so is every
    /// port that spent its whole per-cycle budget (the link that bound a
    /// productive fire; see [`ObsSink::top_bound_links`]).
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_obs(
        &self,
        program: &mut CompiledProgram,
        args: &[Word],
        max_cycles: u64,
        obs: &ObsSink,
    ) -> Result<SimStats, MachineError> {
        let cfg = &self.config;
        // The shared channel-endpoint index drives ready-set wake-ups, the
        // same as the untimed executor's.
        let topo = Arc::clone(program.graph.plan().topology());
        let host = host_links(program);
        program.inject_args(args);
        let n = program.graph.node_count();
        let budgets = Budgets::new(self, program);

        let mut stats = SimStats::new(n);
        let bytes_per_cycle = cfg.dram_bytes_per_cycle();
        let mut dram_bucket: f64 = bytes_per_cycle;
        let base_read = program.graph.mem.dram_read_bytes;
        let base_written = program.graph.mem.dram_written_bytes;

        let mut ready = Ready::new(n);
        let widest = |ports: fn(&NodeSlot) -> usize| {
            program.graph.nodes().iter().map(ports).max().unwrap_or(0)
        };
        let mut ib = vec![PortBudget::UNLIMITED; widest(|s| s.ins.len())];
        let mut ob = vec![PortBudget::UNLIMITED; widest(|s| s.outs.len())];
        let mut events = IoEvents::default();
        let mut cycles: u64 = 0;

        while !ready.idle() {
            if cycles >= max_cycles {
                return Err(MachineError::new(format!(
                    "cycle cap {max_cycles} reached (livelock or undersized cap)"
                )));
            }
            cycles += 1;
            if !self.ideal.dram {
                dram_bucket =
                    (dram_bucket + bytes_per_cycle).min(cfg.dram_burst_bytes as f64 * 64.0);
            }
            // DRAM gating: AG contexts stall this whole cycle when the
            // bucket is dry (they stay queued and retry once it refills).
            let dram_gated = !self.ideal.dram && dram_bucket <= 0.0;
            let read_before = program.graph.mem.dram_read_bytes;
            let written_before = program.graph.mem.dram_written_bytes;
            let mut stepped_this_cycle: u64 = 0;
            while let Some(i) = ready.pop() {
                let idx = i as usize;
                let id = NodeId(i);
                let slot = program.graph.node(id);
                let (unit, n_in, n_out) = (slot.unit, slot.ins.len(), slot.outs.len());
                if unit == UnitClass::AddressGen && dram_gated {
                    // Not fired: keep it scheduled for the refilled cycle.
                    // This deferral is the one stall class invisible to the
                    // untimed executor.
                    obs.stall(i, StallClass::DramGated);
                    ready.defer(i);
                    continue;
                }
                ready.fired(i);
                stepped_this_cycle += 1;
                let allocs_before = program.graph.mem.alloc_push_ops();
                let progressed = if program.graph.starved(id) {
                    // The rule would move nothing and record no events:
                    // account the unproductive step without running it.
                    events.clear();
                    false
                } else {
                    let (ib, ob) = (&mut ib[..n_in], &mut ob[..n_out]);
                    budgets.fill(idx, ib, ob);
                    let moved = program.graph.step_node(id, ib, ob, Some(&mut events))?;
                    if obs.is_enabled() {
                        // Bound attribution: a port that spent its whole
                        // budget capped this fire at its link.
                        let spent = |b: &PortBudget| b.data == 0 || b.barrier == 0;
                        let slot = program.graph.node(id);
                        for (b, c) in ib.iter().zip(slot.ins.iter()) {
                            if spent(b) {
                                obs.link_bound(c.0, BoundPort::Pop);
                            }
                        }
                        for (b, c) in ob.iter().zip(slot.outs.iter()) {
                            if spent(b) {
                                obs.link_bound(c.0, BoundPort::Push);
                            }
                        }
                    }
                    moved
                };
                obs.node_dispatch(i, progressed);
                if !progressed && obs.is_enabled() {
                    let chans = program.graph.chans();
                    let bound = |c: ChanId| self.link_bound(&chans[c.0 as usize], host(c));
                    obs.stall(i, program.graph.classify_stall(id, bound));
                }
                let mut wake = |w: NodeId, cause: WakeCause| {
                    if ready.wake(w.0) {
                        obs.wake(w.0, cause);
                    }
                };
                if progressed {
                    stats.busy_cycles[idx] += 1;
                    // Renewed budgets may allow more movement next cycle.
                    wake(id, WakeCause::TokenArrival);
                }
                // One entry per token pushed: a repeat of the link just
                // handled finds its consumers queued already.
                let mut last = None;
                for &c in &events.pushed {
                    obs.channel_push(c.0);
                    if last.replace(c) != Some(c) {
                        for &w in topo.consumers(c) {
                            wake(w, WakeCause::TokenArrival);
                        }
                    }
                }
                for &c in &events.freed {
                    for &w in topo.producers(c) {
                        wake(w, WakeCause::CapacityRelease);
                    }
                }
                if program.graph.mem.alloc_push_ops() != allocs_before {
                    for &w in topo.alloc_waiters() {
                        wake(w, WakeCause::AllocatorPush);
                    }
                }
            }
            stats.skipped_idle_steps += n as u64 - stepped_this_cycle;
            stats.peak_busy_nodes = stats.peak_busy_nodes.max(stepped_this_cycle);
            let read_delta = program.graph.mem.dram_read_bytes - read_before;
            let written_delta = program.graph.mem.dram_written_bytes - written_before;
            if read_delta != 0 || written_delta != 0 {
                obs.dram_access(read_delta, written_delta);
            }
            let delta = (read_delta + written_delta) as f64;
            if !self.ideal.dram {
                dram_bucket -= delta;
            }
            ready.advance();
        }
        // Ready set empty: nothing can ever fire again. Verify nothing is
        // stuck (a silent partial result would be worse than an error).
        let stuck = program.graph.stuck_channels();
        if !stuck.is_empty() {
            return Err(MachineError::new(format!(
                "timed deadlock after {cycles} cycles: {}",
                stuck.join("; ")
            )));
        }
        stats.cycles = cycles;
        stats.freq_ghz = cfg.clock_ghz;
        stats.dram_read_bytes = program.graph.mem.dram_read_bytes - base_read;
        stats.dram_written_bytes = program.graph.mem.dram_written_bytes - base_written;
        stats.peak_dram_bytes_per_cycle = bytes_per_cycle;
        Ok(stats)
    }

    /// The buffer depth of a link: how many tokens it may hold. Unbounded
    /// for the host links (the entry, onto which the host injects the
    /// argument thread before the first cycle, and the exit, which no
    /// context drains: the host reads it after the last) and under an
    /// ideal network; the deadlock-avoidance depth for a link that keeps
    /// its barriers explicit (a loop back edge, §V-D); otherwise its
    /// class's input-buffer depth (Table II).
    fn link_bound(&self, chan: &Channel, host: bool) -> usize {
        let cfg = &self.config;
        if host || self.ideal.network {
            usize::MAX
        } else if !chan.canonicalizes() {
            cfg.deadlock_buffer_tokens
        } else {
            match chan.class {
                LinkClass::Vector => cfg.vector_buffer_tokens,
                LinkClass::Scalar => cfg.scalar_buffer_tokens,
            }
        }
    }

    /// A port's per-cycle budget: its link's class bandwidth (§III-C)
    /// unless the network is ideal, unlimited on a memory unit under ideal
    /// SRAM, and on an AG's input at most `ag_issues_per_cycle` issues
    /// (the burst/activation bound) unless DRAM is ideal; bounded, on
    /// either end, by the link's depth ([`Simulator::link_bound`]).
    fn port_budget(&self, unit: UnitClass, chan: &Channel, host: bool, input: bool) -> PortBudget {
        let mut b = if self.ideal.network || (self.ideal.sram && unit == UnitClass::Memory) {
            PortBudget::UNLIMITED
        } else {
            PortBudget {
                data: chan.class.width(),
                barrier: 1,
                bound: usize::MAX,
            }
        };
        if input && unit == UnitClass::AddressGen && !self.ideal.dram {
            b.data = b.data.min(self.config.ag_issues_per_cycle);
        }
        b.bound = self.link_bound(chan, host);
        b
    }
}

/// Whether a link is one of the host's: the entry the host injects the
/// argument thread onto, or the exit it reads after the last cycle.
fn host_links(program: &CompiledProgram) -> impl Fn(ChanId) -> bool + Copy {
    let (entry, exit) = (program.entry, program.exit);
    move |c: ChanId| c == entry || c == exit
}

/// Every port's [`PortBudget`] for one run, tabled before the first cycle:
/// a budget depends on the machine, the port's unit and its link, none of
/// which a run changes, so a productive fire copies its node's slice
/// instead of deriving each budget again.
struct Budgets {
    /// The distinct budgets, in first-seen order. A budget is a function
    /// of the unit class (three), the link class (two), the link's depth
    /// (host, loop back edge or class depth: three) and the direction
    /// (two), so at most [`Budgets::PALETTE`] differ; held inline, the
    /// palette allocates nothing.
    palette: [PortBudget; Budgets::PALETTE],
    /// How many of `palette`'s entries are in use.
    len: usize,
    /// Where node `i`'s ports start in `port`: its inputs, then its
    /// outputs.
    start: Vec<u32>,
    /// Every port's budget, as an index into `palette`.
    port: Vec<u8>,
}

impl Budgets {
    /// The most distinct budgets one simulator gives (type docs).
    const PALETTE: usize = 3 * 2 * 3 * 2;

    fn new(sim: &Simulator, program: &CompiledProgram) -> Budgets {
        let (nodes, chans) = (program.graph.nodes(), program.graph.chans());
        let host = host_links(program);
        let ports = nodes.iter().map(|s| s.ins.len() + s.outs.len()).sum();
        let mut table = Budgets {
            palette: [PortBudget::UNLIMITED; Budgets::PALETTE],
            len: 0,
            start: Vec::with_capacity(nodes.len()),
            port: Vec::with_capacity(ports),
        };
        for slot in nodes {
            table.start.push(table.port.len() as u32);
            let ins = slot.ins.iter().map(|&c| (c, true));
            for (c, input) in ins.chain(slot.outs.iter().map(|&c| (c, false))) {
                let b = sim.port_budget(slot.unit, &chans[c.0 as usize], host(c), input);
                let k = table.index(b);
                table.port.push(k);
            }
        }
        table
    }

    /// `b`'s place in the palette, which it joins if it is new.
    fn index(&mut self, b: PortBudget) -> u8 {
        let seen = &self.palette[..self.len];
        let k = seen.iter().position(|&p| p == b).unwrap_or(self.len);
        if k == self.len {
            assert!(k < Budgets::PALETTE, "a port budget outside the palette");
            self.palette[k] = b;
            self.len += 1;
        }
        k as u8
    }

    /// Copies node `i`'s budgets into `ins` and `outs`, sized to its ports.
    #[inline(always)]
    fn fill(&self, i: usize, ins: &mut [PortBudget], outs: &mut [PortBudget]) {
        let ports = &self.port[self.start[i] as usize..][..ins.len() + outs.len()];
        let (pi, po) = ports.split_at(ins.len());
        for (b, &k) in ins.iter_mut().zip(pi).chain(outs.iter_mut().zip(po)) {
            *b = self.palette[k as usize];
        }
    }
}

/// The ready set: `current` holds the contexts that may fire this cycle,
/// read in FIFO order through the cursor `at`, and `next` those woken for
/// the following cycle. A context fires at most once per cycle, matching
/// the one-fire-per-context-per-cycle hardware rule; an event for a
/// context that already fired defers it to the next cycle. A context
/// waits in at most one queue and enters `current` at most once per
/// cycle, so neither queue outgrows the node count it is sized to.
struct Ready {
    current: Vec<u32>,
    at: usize,
    next: Vec<u32>,
    /// Per context: [`Ready::QUEUED`] while it waits in either queue,
    /// [`Ready::FIRED`] once it fired this cycle.
    state: Vec<u8>,
}

impl Ready {
    const QUEUED: u8 = 1;
    const FIRED: u8 = 2;

    /// Every one of `n` contexts queued for the first cycle.
    fn new(n: usize) -> Ready {
        Ready {
            current: (0..n as u32).collect(),
            at: 0,
            next: Vec::with_capacity(n),
            state: vec![Ready::QUEUED; n],
        }
    }

    /// Whether this cycle's queue is spent.
    #[inline(always)]
    fn idle(&self) -> bool {
        self.at == self.current.len()
    }

    /// The next context to fire this cycle, no longer queued.
    #[inline(always)]
    fn pop(&mut self) -> Option<u32> {
        let i = *self.current.get(self.at)?;
        self.at += 1;
        self.state[i as usize] &= !Ready::QUEUED;
        Some(i)
    }

    /// Keeps `i`, just popped and not fired, queued for the next cycle.
    #[inline(always)]
    fn defer(&mut self, i: u32) {
        self.state[i as usize] |= Ready::QUEUED;
        self.next.push(i);
    }

    /// Marks `i`, just popped, as fired this cycle.
    #[inline(always)]
    fn fired(&mut self, i: u32) {
        self.state[i as usize] |= Ready::FIRED;
    }

    /// Queues `w` unless it already waits: for this cycle, or for the next
    /// if it fired in this one. Returns whether it was newly queued.
    #[inline(always)]
    fn wake(&mut self, w: u32) -> bool {
        let state = &mut self.state[w as usize];
        if *state & Ready::QUEUED != 0 {
            return false;
        }
        *state |= Ready::QUEUED;
        if *state & Ready::FIRED != 0 {
            self.next.push(w);
        } else {
            self.current.push(w);
        }
        true
    }

    /// Ends the cycle: every context popped in it may fire again, and the
    /// contexts woken for the next one become current.
    fn advance(&mut self) {
        for &i in &self.current {
            self.state[i as usize] &= !Ready::FIRED;
        }
        self.current.clear();
        std::mem::swap(&mut self.current, &mut self.next);
        self.at = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revet_core::{PassOptions, Session};
    use revet_obs::EventKind;

    fn squares_program() -> CompiledProgram {
        let src = r#"
            dram<u32> output;
            void main(u32 n) {
                foreach (n) { u32 i =>
                    output[i] = i * i;
                };
            }
        "#;
        Session::new(
            src,
            PassOptions {
                dram_bytes: 1 << 16,
                ..PassOptions::default()
            },
        )
        .to_dataflow()
        .unwrap()
    }

    #[test]
    fn timed_matches_untimed_results() {
        let mut p = squares_program();
        let sim = Simulator::default();
        let stats = sim.run(&mut p, &[Word(32)], 1_000_000).unwrap();
        assert!(stats.cycles > 0);
        for i in 0..32usize {
            let got = u32::from_le_bytes(p.graph.mem.dram[4 * i..4 * i + 4].try_into().unwrap());
            assert_eq!(got, (i * i) as u32);
        }
    }

    #[test]
    fn scheduler_skips_idle_work_with_identical_dram() {
        // The ready set must do strictly less work than a dense sweep would
        // (cycles × nodes slots), while the DRAM image stays bit-identical
        // to the untimed reference run.
        let mut timed = squares_program();
        let stats = Simulator::default()
            .run(&mut timed, &[Word(32)], 1_000_000)
            .unwrap();
        assert!(
            stats.skipped_idle_steps > 0,
            "scheduler never skipped an idle context"
        );
        assert!(stats.scheduler_skip_ratio() > 0.0);
        let mut untimed = squares_program();
        untimed.run_untimed(&[Word(32)], 1_000_000).unwrap();
        assert_eq!(
            timed.graph.mem.dram, untimed.graph.mem.dram,
            "timed and untimed DRAM results diverged"
        );
    }

    #[test]
    fn a_timed_run_keeps_the_programs_schedule() {
        // Buffer depth is the simulator's: even with every buffer one token
        // deep, the program's untimed schedule survives a timed run, and
        // that run still matches the untimed one.
        let one_deep = RdaConfig {
            vector_buffer_tokens: 1,
            scalar_buffer_tokens: 1,
            ..RdaConfig::default()
        };
        let mut timed = squares_program();
        let schedule = Arc::clone(timed.graph.plan());
        let stats = Simulator::new(one_deep, IdealModels::default())
            .run(&mut timed, &[Word(32)], 1_000_000)
            .unwrap();
        assert!(stats.cycles > 0);
        assert!(
            Arc::ptr_eq(&schedule, timed.graph.plan()),
            "the timed run dropped the program's schedule"
        );
        let mut untimed = squares_program();
        untimed.run_untimed(&[Word(32)], 1_000_000).unwrap();
        assert_eq!(timed.graph.mem.dram, untimed.graph.mem.dram);
    }

    #[test]
    fn ideal_dram_is_not_slower() {
        let sim = Simulator::default();
        let mut p1 = squares_program();
        let real = sim.run(&mut p1, &[Word(64)], 1_000_000).unwrap();
        let ideal_sim = Simulator::new(RdaConfig::default(), IdealModels::dram_only());
        let mut p2 = squares_program();
        let ideal = ideal_sim.run(&mut p2, &[Word(64)], 1_000_000).unwrap();
        assert!(
            ideal.cycles <= real.cycles,
            "ideal DRAM {} > real {}",
            ideal.cycles,
            real.cycles
        );
    }

    #[test]
    fn stats_throughput() {
        let mut p = squares_program();
        let sim = Simulator::default();
        let stats = sim.run(&mut p, &[Word(16)], 1_000_000).unwrap();
        let gbps = stats.throughput_gbps(16 * 4);
        assert!(gbps > 0.0);
        assert!(stats.dram_utilization() >= 0.0 && stats.dram_utilization() <= 1.0);
    }

    #[test]
    fn obs_sink_sees_the_timed_run() {
        let obs = ObsSink::with_trace_capacity(1 << 16);
        let mut p = squares_program();
        let stats = Simulator::default()
            .run_obs(&mut p, &[Word(32)], 1_000_000, &obs)
            .unwrap();
        // Every context fire is a traced dispatch; the productive ones are
        // the per-node busy cycles.
        let busy: u64 = stats.busy_cycles.iter().sum();
        let (mut fires, mut productive) = (0, 0);
        for ev in obs.trace_events() {
            if let EventKind::NodeDispatch { productive: p, .. } = ev.kind {
                fires += 1;
                productive += p as u64;
            }
        }
        assert_eq!(obs.trace_dropped(), 0);
        assert_eq!(productive, busy);
        // Every unproductive fire is a classified stall.
        let [starved, full, alloc_gated, _] = obs.stall_totals();
        assert_eq!(fires, busy + starved + full + alloc_gated);
        // The watermark is a real per-cycle peak: positive, bounded by n.
        assert!(stats.peak_busy_nodes > 0);
        assert!(stats.peak_busy_nodes <= stats.busy_cycles.len() as u64);
        // The simulator's DRAM traffic lands in the trace too.
        let traced: u64 = obs
            .trace_events()
            .iter()
            .map(|ev| match ev.kind {
                EventKind::DramAccess {
                    read_bytes,
                    written_bytes,
                } => read_bytes + written_bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(traced, stats.dram_read_bytes + stats.dram_written_bytes);
        // Bound attribution counts cycles: at most one per port per cycle.
        let bound = obs.top_bound_links(usize::MAX);
        assert!(!bound.is_empty(), "no link ever bound a fire");
        for row in &bound {
            assert!(row.counts.iter().all(|&n| n <= stats.cycles));
        }
    }

    /// Every port of the eight apps gets the budget [`Simulator::port_budget`]
    /// gives it, from the table a run fills its fires from, under each of
    /// Table V's presets at Table II's depths and with every buffer one
    /// token deep. A wrong entry would otherwise show only as a cycle
    /// count that moved.
    #[test]
    fn tabled_budgets_are_the_port_budgets() {
        let opts = PassOptions {
            opt_level: 2,
            ..PassOptions::default()
        };
        let one_deep = RdaConfig {
            vector_buffer_tokens: 1,
            scalar_buffer_tokens: 1,
            ..RdaConfig::default()
        };
        let presets = [
            ("real", IdealModels::default()),
            ("D", IdealModels::dram_only()),
            ("SN", IdealModels::sram_network()),
            ("SND", IdealModels::all()),
        ];
        let unset = PortBudget {
            data: 0,
            barrier: 0,
            bound: 0,
        };
        for app in revet_apps::all_apps() {
            let program = app.compile(2, &opts).unwrap();
            let (nodes, chans) = (program.graph.nodes(), program.graph.chans());
            let host = host_links(&program);
            for (depths, config) in [
                ("Table II", RdaConfig::default()),
                ("1/1", one_deep.clone()),
            ] {
                for (preset, ideal) in presets {
                    let sim = Simulator::new(config.clone(), ideal);
                    let table = Budgets::new(&sim, &program);
                    for (i, slot) in nodes.iter().enumerate() {
                        let mut ib = vec![unset; slot.ins.len()];
                        let mut ob = vec![unset; slot.outs.len()];
                        table.fill(i, &mut ib, &mut ob);
                        let ports = slot.ins.iter().zip(&ib).map(|p| (p, true));
                        let ports = ports.chain(slot.outs.iter().zip(&ob).map(|p| (p, false)));
                        for ((&c, &tabled), input) in ports {
                            let chan = &chans[c.0 as usize];
                            assert_eq!(
                                tabled,
                                sim.port_budget(slot.unit, chan, host(c), input),
                                "{}: the {} port on link #{} of '{}' under {preset} at {depths} \
                                 depths",
                                app.name,
                                if input { "input" } else { "output" },
                                c.0,
                                slot.label()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn while_loops_complete_under_timing() {
        let src = r#"
            dram<u32> input;
            dram<u32> output;
            void main(u32 n) {
                foreach (n) { u32 i =>
                    u32 x = input[i];
                    u32 s = 0;
                    while (x != 0) {
                        s = s + x;
                        x = x - 1;
                    };
                    output[i] = s;
                };
            }
        "#;
        let mut p = Session::new(
            src,
            PassOptions {
                dram_bytes: 1 << 16,
                ..PassOptions::default()
            },
        )
        .to_dataflow()
        .unwrap();
        let input: Vec<u8> = (1..=8u32).flat_map(u32::to_le_bytes).collect();
        p.graph.mem.write_dram(0, &input).unwrap();
        let sim = Simulator::default();
        sim.run(&mut p, &[Word(8)], 10_000_000).unwrap();
        let half = (1 << 16) / 2;
        for i in 0..8u32 {
            let a = half + 4 * i as usize;
            let got = u32::from_le_bytes(p.graph.mem.dram[a..a + 4].try_into().unwrap());
            let n = i + 1;
            assert_eq!(got, n * (n + 1) / 2, "triangular({n})");
        }
    }
}
