//! Placement onto the vRDA unit grid (§V-D b, using the priorities of the
//! paper's placer: deeply nested nodes first).
//!
//! The Table II machine is a 20×20 checkerboard of CUs and MUs with 80 AGs
//! on the periphery. We place contexts greedily in decreasing nesting depth,
//! walking outward from the grid center, and report per-link Manhattan
//! distances — the retiming-relevant metric — plus a fits/doesn't-fit
//! verdict against the machine budget.

use crate::lower::{CompiledProgram, ContextInfo};
use revet_machine::UnitClass;
use std::collections::HashMap;

/// A grid coordinate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Coord {
    /// Column.
    pub x: i32,
    /// Row.
    pub y: i32,
}

/// A completed placement.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Context id → coordinate.
    pub at: HashMap<u32, Coord>,
    /// Sum of Manhattan link distances.
    pub total_wirelength: u64,
    /// Mean hops per link.
    pub mean_hops: f64,
    /// Whether the program fits the machine (CU/MU/AG budgets).
    pub fits: bool,
    /// CUs used / available.
    pub cu: (usize, usize),
    /// MUs used / available.
    pub mu: (usize, usize),
    /// AGs used / available.
    pub ag: (usize, usize),
}

/// Machine budget (Table II).
const CU_BUDGET: usize = 200;
const MU_BUDGET: usize = 200;
const AG_BUDGET: usize = 80;
const GRID: i32 = 20;

/// Places a compiled program's contexts onto the grid.
pub fn place(program: &CompiledProgram) -> Placement {
    // Sort contexts by descending depth (deeply nested first, per §V-D b).
    let mut order: Vec<&ContextInfo> = program.contexts.iter().collect();
    order.sort_by(|a, b| b.depth.cmp(&a.depth).then(a.id.cmp(&b.id)));

    // Spiral out from the center, assigning CU/MU cells per checkerboard
    // parity; AGs take border cells.
    let mut cu_cells = Vec::new();
    let mut mu_cells = Vec::new();
    let mut ag_cells = Vec::new();
    let c = GRID / 2;
    let mut cells: Vec<Coord> = (0..GRID)
        .flat_map(|y| (0..GRID).map(move |x| Coord { x, y }))
        .collect();
    cells.sort_by_key(|p| (p.x - c).abs() + (p.y - c).abs());
    for p in cells {
        if p.x == 0 || p.y == 0 || p.x == GRID - 1 || p.y == GRID - 1 {
            ag_cells.push(p);
        } else if (p.x + p.y) % 2 == 0 {
            cu_cells.push(p);
        } else {
            mu_cells.push(p);
        }
    }
    let (mut ci, mut mi, mut ai) = (0usize, 0usize, 0usize);
    let mut at = HashMap::new();
    let mut used = (0usize, 0usize, 0usize);
    for ctx in &order {
        let coord = match ctx.unit {
            UnitClass::Compute => {
                used.0 += 1;
                let p = cu_cells[ci % cu_cells.len()];
                ci += 1;
                p
            }
            UnitClass::Memory => {
                used.1 += 1;
                let p = mu_cells[mi % mu_cells.len()];
                mi += 1;
                p
            }
            UnitClass::AddressGen => {
                used.2 += 1;
                let p = ag_cells[ai % ag_cells.len()];
                ai += 1;
                p
            }
            UnitClass::Virtual => continue,
        };
        at.insert(ctx.id, coord);
    }
    // Wirelength: node graph edges between placed contexts.
    let mut total = 0u64;
    let mut links = 0u64;
    let chan_producer: HashMap<u32, u32> = program
        .graph
        .nodes()
        .iter()
        .enumerate()
        .flat_map(|(ni, n)| n.outs.iter().map(move |c| (c.0, ni as u32)))
        .collect();
    for (ni, node) in program.graph.nodes().iter().enumerate() {
        let _ = ni;
        for cin in node.ins.iter() {
            if let Some(&producer) = chan_producer.get(&cin.0) {
                if let (Some(a), Some(b)) = (
                    at.get(&producer),
                    program
                        .graph
                        .nodes()
                        .iter()
                        .position(|n2| std::ptr::eq(n2, node))
                        .and_then(|i| at.get(&(i as u32))),
                ) {
                    total += ((a.x - b.x).abs() + (a.y - b.y).abs()) as u64;
                    links += 1;
                }
            }
        }
    }
    let fits = used.0 <= CU_BUDGET && used.1 <= MU_BUDGET && used.2 <= AG_BUDGET;
    Placement {
        at,
        total_wirelength: total,
        mean_hops: if links > 0 {
            total as f64 / links as f64
        } else {
            0.0
        },
        fits,
        cu: (used.0, CU_BUDGET),
        mu: (used.1, MU_BUDGET),
        ag: (used.2, AG_BUDGET),
    }
}
