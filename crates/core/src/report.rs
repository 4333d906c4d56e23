//! Resource reports in the shape of the paper's Table IV.

use crate::lower::{Category, CompiledProgram};
use revet_machine::{LinkClass, UnitClass};

/// Per-category unit counts for one compiled program (Table IV row).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResourceReport {
    /// Application/config label.
    pub name: String,
    /// Product of replicate ways.
    pub outer: u32,
    /// Vector lanes = 16 × vector-pipeline contexts at the innermost level.
    pub lanes: u32,
    /// Inner-pipeline CU/MU/AG.
    pub inner: (usize, usize, usize),
    /// Outer-machinery CU/MU/AG.
    pub outer_units: (usize, usize, usize),
    /// Replicate distribution/merge CU/MU.
    pub replicate: (usize, usize),
    /// Deadlock-avoidance buffer MUs.
    pub deadlock_mu: usize,
    /// Replicate bufferization MUs.
    pub buffer_mu: usize,
    /// Retiming MUs.
    pub retime_mu: usize,
    /// Total CU/MU/AG.
    pub total: (usize, usize, usize),
    /// Scalar/vector link counts (physical links = Σ arity).
    pub links: (usize, usize),
}

impl ResourceReport {
    /// Builds the report for a compiled program.
    pub fn for_program(name: &str, program: &CompiledProgram) -> Self {
        let mut r = ResourceReport {
            name: name.to_string(),
            outer: program.outer_parallelism,
            ..Default::default()
        };
        for c in &program.contexts {
            let slot = match c.category {
                Category::Inner => &mut r.inner,
                Category::Outer => &mut r.outer_units,
                Category::Replicate => {
                    match c.unit {
                        UnitClass::Compute => r.replicate.0 += 1,
                        UnitClass::Memory => r.replicate.1 += 1,
                        _ => {}
                    }
                    count(&mut r.total, c.unit);
                    continue;
                }
                Category::Buffer => {
                    r.buffer_mu += 1;
                    count(&mut r.total, c.unit);
                    continue;
                }
                Category::Retime => {
                    r.retime_mu += 1;
                    count(&mut r.total, c.unit);
                    continue;
                }
                Category::Deadlock => {
                    r.deadlock_mu += 1;
                    count(&mut r.total, c.unit);
                    continue;
                }
            };
            count(slot, c.unit);
            count(&mut r.total, c.unit);
        }
        for l in &program.links {
            match l.class {
                LinkClass::Scalar => r.links.0 += l.arity.max(1),
                LinkClass::Vector => r.links.1 += l.arity.max(1),
            }
        }
        // Lanes: 16 per inner vector pipeline per replicate way.
        r.lanes = 16 * r.outer.max(1);
        r
    }

    /// A compact single-line summary. Whether [`ResourceReport::total`]
    /// fits a machine is the machine's to say (`revet_sim::RdaConfig::fits`).
    pub fn summary(&self) -> String {
        format!(
            "{:<12} outer={:<3} lanes={:<5} CU={:<4} MU={:<4} AG={:<3} (repl CU {} / buf {} / retime {} / deadlock {}) links s/v={}/{}",
            self.name,
            self.outer,
            self.lanes,
            self.total.0,
            self.total.1,
            self.total.2,
            self.replicate.0,
            self.buffer_mu,
            self.retime_mu,
            self.deadlock_mu,
            self.links.0,
            self.links.1,
        )
    }
}

fn count(slot: &mut (usize, usize, usize), unit: UnitClass) {
    match unit {
        UnitClass::Compute => slot.0 += 1,
        UnitClass::Memory => slot.1 += 1,
        UnitClass::AddressGen => slot.2 += 1,
    }
}
