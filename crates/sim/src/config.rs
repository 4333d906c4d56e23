//! Machine configuration (Table II) and ideal-model toggles.

use revet_mir::{MACHINE_MUS, MU_WORDS};

/// Table II RDA parameters plus the area model used for the area-normalized
/// comparison (§VI-A a: ~189 mm² in a 15 nm educational process vs. the
/// V100's 815 mm²).
#[derive(Clone, Debug)]
pub struct RdaConfig {
    /// Compute units.
    pub compute_units: usize,
    /// Memory units; by default [`revet_mir::MACHINE_MUS`], the count the
    /// compiler bounds a program's SRAM by.
    pub memory_units: usize,
    /// DRAM address generators.
    pub address_generators: usize,
    /// SIMD lanes per CU.
    pub lanes: usize,
    /// Pipeline stages per CU.
    pub stages: usize,
    /// Vector/scalar registers per lane per stage.
    pub regs_per_lane_stage: usize,
    /// Vector input-buffer depth (tokens ≈ words per link).
    pub vector_buffer_tokens: usize,
    /// Scalar input-buffer depth.
    pub scalar_buffer_tokens: usize,
    /// Backedge (deadlock-avoidance) buffer depth.
    pub deadlock_buffer_tokens: usize,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
    /// Peak DRAM bandwidth in GB/s (HBM2, §VI-A: ~900 GB/s).
    pub dram_gbps: f64,
    /// DRAM burst granularity in bytes.
    pub dram_burst_bytes: usize,
    /// Max DRAM issues per AG context per cycle (activation-rate model).
    pub ag_issues_per_cycle: usize,
    /// Die area in mm² (Capstan + Aurochs logic, §VI-A a).
    pub area_mm2: f64,
    /// Baseline GPU die area in mm² (V100).
    pub gpu_area_mm2: f64,
}

impl Default for RdaConfig {
    fn default() -> Self {
        RdaConfig {
            compute_units: 200,
            memory_units: MACHINE_MUS as usize,
            address_generators: 80,
            lanes: 16,
            stages: 6,
            regs_per_lane_stage: 6,
            vector_buffer_tokens: 256,
            scalar_buffer_tokens: 64,
            deadlock_buffer_tokens: 4096,
            clock_ghz: 1.6,
            dram_gbps: 900.0,
            dram_burst_bytes: 32,
            ag_issues_per_cycle: 4,
            area_mm2: 189.0,
            gpu_area_mm2: 815.0,
        }
    }
}

impl RdaConfig {
    /// Whether a program using `total` CUs, MUs and AGs (Table IV's total
    /// column, `revet_core::report::ResourceReport::total`) fits the
    /// machine's units.
    pub fn fits(&self, total: (usize, usize, usize)) -> bool {
        let (cu, mu, ag) = total;
        cu <= self.compute_units && mu <= self.memory_units && ag <= self.address_generators
    }

    /// DRAM bytes deliverable per machine cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_gbps / self.clock_ghz
    }

    /// Area ratio vs. the GPU baseline (the paper's 4.3×).
    pub fn area_ratio_vs_gpu(&self) -> f64 {
        self.gpu_area_mm2 / self.area_mm2
    }

    /// Renders the configuration as the Table II rows.
    pub fn table2(&self) -> String {
        format!(
            "Compute units ({})   {} lanes, {} stages, {} vec/scal regs/lane/stage\n\
             Memory units ({})    16 banks, {} KiB total\n\
             Buffers (per unit)    4x{} word vec., 4x{} word scal.\n\
             Outputs (per unit)    4 vector, 4 scalar\n\
             Network               3x vector, 6x scalar, dynamic\n\
             DRAM                  HBM2, ~{} GB/s, {}B burst\n\
             Clock                 {} GHz; area {} mm^2 ({}x smaller than V100)",
            self.compute_units,
            self.lanes,
            self.stages,
            self.regs_per_lane_stage,
            self.memory_units,
            MU_WORDS as usize * std::mem::size_of::<revet_sltf::Word>() / 1024,
            self.vector_buffer_tokens,
            self.scalar_buffer_tokens,
            self.dram_gbps,
            self.dram_burst_bytes,
            self.clock_ghz,
            self.area_mm2,
            format_args!("{:.1}", self.area_ratio_vs_gpu()),
        )
    }
}

/// Which subsystems are idealized (Table V's D, SN, SND columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdealModels {
    /// Unbounded DRAM bandwidth (D).
    pub dram: bool,
    /// Perfect SRAM port rates (S).
    pub sram: bool,
    /// Unbounded link bandwidth and buffers (N).
    pub network: bool,
}

impl IdealModels {
    /// Table V column "D".
    pub fn dram_only() -> Self {
        IdealModels {
            dram: true,
            ..Default::default()
        }
    }

    /// Table V column "SN".
    pub fn sram_network() -> Self {
        IdealModels {
            sram: true,
            network: true,
            ..Default::default()
        }
    }

    /// Table V column "SND".
    pub fn all() -> Self {
        IdealModels {
            dram: true,
            sram: true,
            network: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = RdaConfig::default();
        assert_eq!(c.compute_units, 200);
        assert_eq!(c.memory_units, 200);
        assert_eq!(c.address_generators, 80);
        assert_eq!(c.lanes, 16);
        assert!((c.dram_bytes_per_cycle() - 562.5).abs() < 1e-9);
        assert!((c.area_ratio_vs_gpu() - 4.31).abs() < 0.02);
        assert!(c.table2().contains("HBM2"));
        // The compiler's bounds and the machine read one set of numbers.
        assert_eq!(c.memory_units, revet_mir::MACHINE_MUS as usize);
        assert!(c
            .table2()
            .contains("Memory units (200)    16 banks, 256 KiB total"));
    }

    #[test]
    fn fits_is_each_unit_budget() {
        let c = RdaConfig::default();
        assert!(c.fits((200, 200, 80)));
        assert!(c.fits((0, 0, 0)));
        assert!(!c.fits((201, 200, 80)), "one CU over");
        assert!(!c.fits((200, 201, 80)), "one MU over");
        assert!(!c.fits((200, 200, 81)), "one AG over");
    }

    #[test]
    fn ideal_presets() {
        assert!(IdealModels::dram_only().dram);
        assert!(!IdealModels::dram_only().network);
        assert!(IdealModels::all().sram);
        let sn = IdealModels::sram_network();
        assert!(sn.sram && sn.network && !sn.dram);
    }
}
