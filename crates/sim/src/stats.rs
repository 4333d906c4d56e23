//! Simulation statistics and derived metrics.

/// Timing results of one simulated run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Total machine cycles.
    pub cycles: u64,
    /// Clock in GHz (copied from the config for derived metrics).
    pub freq_ghz: f64,
    /// DRAM bytes read during the run.
    pub dram_read_bytes: u64,
    /// DRAM bytes written during the run.
    pub dram_written_bytes: u64,
    /// Peak deliverable DRAM bytes/cycle.
    pub peak_dram_bytes_per_cycle: f64,
    /// Busy-cycle count per node (utilization analysis).
    pub busy_cycles: Vec<u64>,
    /// High watermark of contexts *stepped* in any single cycle —
    /// productive or not, a starved context accounted without running its
    /// rule included. The run seeds every context into the first cycle's
    /// ready set and steps each once there, so this always equals the
    /// graph's context count: it measures graph size, not the ready set's
    /// parallelism. A **max-merged** watermark, not an additive counter.
    pub peak_busy_nodes: u64,
    /// Node-cycle slots the ready set never reached (a dense sweep would
    /// have stepped `cycles × nodes` slots; this is how many of those the
    /// event-driven scheduler skipped as idle). A context the ready set
    /// reached counts as stepped, not skipped, even when it was starved
    /// and its rule did not run; a DRAM-gated deferral counts as skipped.
    pub skipped_idle_steps: u64,
}

impl SimStats {
    pub(crate) fn new(nodes: usize) -> Self {
        SimStats {
            busy_cycles: vec![0; nodes],
            ..Default::default()
        }
    }

    /// Wall-clock seconds at the configured frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Application throughput in GB/s for `app_bytes` of input+output data
    /// (the paper's normalized performance metric, §VI-A b).
    pub fn throughput_gbps(&self, app_bytes: u64) -> f64 {
        app_bytes as f64 / 1e9 / self.seconds()
    }

    /// Fraction of peak HBM2 bandwidth consumed (Table IV's HBM2 %).
    pub fn dram_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let per_cycle =
            (self.dram_read_bytes + self.dram_written_bytes) as f64 / self.cycles as f64;
        (per_cycle / self.peak_dram_bytes_per_cycle).min(1.0)
    }

    /// Read/write split of DRAM utilization.
    pub fn dram_rw_utilization(&self) -> (f64, f64) {
        if self.cycles == 0 {
            return (0.0, 0.0);
        }
        let denom = self.peak_dram_bytes_per_cycle * self.cycles as f64;
        (
            self.dram_read_bytes as f64 / denom,
            self.dram_written_bytes as f64 / denom,
        )
    }

    /// Fraction of dense-sweep node-cycle slots the scheduler skipped as
    /// idle (0.0 = every context was stepped every cycle).
    pub fn scheduler_skip_ratio(&self) -> f64 {
        let total = self.cycles.saturating_mul(self.busy_cycles.len() as u64);
        if total == 0 {
            return 0.0;
        }
        self.skipped_idle_steps as f64 / total as f64
    }

    /// Folds another run's counters into this one — aggregation across a
    /// batch of simulated program instances. Cycle and traffic counters
    /// add (total simulated work, as if the runs executed back-to-back on
    /// one machine); per-node busy counters add element-wise, zero-extending
    /// if `other` simulated a larger graph. Watermark-style fields merge by
    /// **max**: `peak_busy_nodes` is a peak some run actually saw (summing
    /// would invent a parallelism level no cycle ever had), and the
    /// frequency / peak-DRAM machine constants keep the larger machine so a
    /// heterogeneous merge never under-reports capacity regardless of merge
    /// order.
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles += other.cycles;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_written_bytes += other.dram_written_bytes;
        self.skipped_idle_steps += other.skipped_idle_steps;
        self.peak_busy_nodes = self.peak_busy_nodes.max(other.peak_busy_nodes);
        self.freq_ghz = self.freq_ghz.max(other.freq_ghz);
        self.peak_dram_bytes_per_cycle = self
            .peak_dram_bytes_per_cycle
            .max(other.peak_dram_bytes_per_cycle);
        if self.busy_cycles.len() < other.busy_cycles.len() {
            self.busy_cycles.resize(other.busy_cycles.len(), 0);
        }
        for (mine, theirs) in self.busy_cycles.iter_mut().zip(&other.busy_cycles) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 1_600_000,
            freq_ghz: 1.6,
            dram_read_bytes: 450_000_000,
            dram_written_bytes: 112_500_000,
            peak_dram_bytes_per_cycle: 562.5,
            busy_cycles: vec![800_000, 1_600_000],
            peak_busy_nodes: 2,
            skipped_idle_steps: 1_600_000,
        };
        assert!((s.seconds() - 1e-3).abs() < 1e-12);
        assert!((s.throughput_gbps(1_000_000_000) - 1000.0).abs() < 1e-6);
        let u = s.dram_utilization();
        assert!((u - 0.625).abs() < 1e-9);
        let (r, w) = s.dram_rw_utilization();
        assert!((r - 0.5).abs() < 1e-9);
        assert!((w - 0.125).abs() < 1e-9);
        assert!((s.scheduler_skip_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_aggregates_a_batch() {
        let mut total = SimStats::default();
        let a = SimStats {
            cycles: 100,
            freq_ghz: 1.6,
            dram_read_bytes: 640,
            dram_written_bytes: 64,
            peak_dram_bytes_per_cycle: 562.5,
            busy_cycles: vec![10, 20],
            peak_busy_nodes: 2,
            skipped_idle_steps: 5,
        };
        let b = SimStats {
            cycles: 50,
            busy_cycles: vec![1, 2, 3],
            peak_busy_nodes: 3,
            skipped_idle_steps: 7,
            ..a.clone()
        };
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.cycles, 150);
        assert_eq!(total.dram_read_bytes, 1280);
        assert_eq!(total.dram_written_bytes, 128);
        assert_eq!(total.skipped_idle_steps, 12);
        assert_eq!(total.busy_cycles, vec![11, 22, 3]);
        // Watermarks merge by max, not sum.
        assert_eq!(total.peak_busy_nodes, 3);
        // Machine constants are carried, not summed.
        assert!((total.freq_ghz - 1.6).abs() < 1e-12);
        assert!((total.peak_dram_bytes_per_cycle - 562.5).abs() < 1e-12);
        // Derived metrics still make sense on the aggregate.
        assert!(total.seconds() > 0.0);
        assert!(total.dram_utilization() > 0.0);
    }

    #[test]
    fn merge_watermarks_survive_in_either_direction() {
        // The bug this pins: a watermark merged *into* a report that
        // already has a value must not be dropped or summed.
        let big = SimStats {
            peak_busy_nodes: 9,
            freq_ghz: 1.6,
            peak_dram_bytes_per_cycle: 562.5,
            ..SimStats::default()
        };
        let small = SimStats {
            peak_busy_nodes: 4,
            freq_ghz: 1.0,
            peak_dram_bytes_per_cycle: 100.0,
            ..SimStats::default()
        };
        let mut ab = big.clone();
        ab.merge(&small);
        let mut ba = small.clone();
        ba.merge(&big);
        for m in [&ab, &ba] {
            assert_eq!(m.peak_busy_nodes, 9);
            assert!((m.freq_ghz - 1.6).abs() < 1e-12);
            assert!((m.peak_dram_bytes_per_cycle - 562.5).abs() < 1e-12);
        }
    }
}
