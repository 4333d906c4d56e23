//! kD-tree range counting (Table III: count points in a rectangle).
//!
//! Points live in a binary kD-tree (alternating split dimension) stored in
//! DRAM; each query thread traverses with an explicit SRAM stack and counts
//! leaf points inside its rectangle with a vectorized `foreach` reduction —
//! the Fig. 11 pattern of folding many comparisons into lanes. (The paper's
//! fork-per-child expansion is replaced by the stack; the fork construct is
//! exercised by the hierarchy-elimination path instead, §V-A and Fig. 9.)

use crate::{gen, App, Workload};
use rand::Rng;

/// Tree node records: `[flag, a, b, c]` — internal: flag∈{0,1} is the split
/// dimension, `a`=split value, `b`/`c`=child indices; leaf: flag=2,
/// `a`=point start, `b`=point count.
#[derive(Clone, Debug, Default)]
pub struct KdTree {
    /// Flattened node records.
    pub nodes: Vec<u32>,
    /// Point xs (reordered).
    pub xs: Vec<u32>,
    /// Point ys (reordered).
    pub ys: Vec<u32>,
}

const LEAF_SIZE: usize = 16;

/// Builds a kD-tree over the given points.
pub fn build(points: &mut Vec<(u32, u32)>) -> KdTree {
    let mut t = KdTree::default();
    let n = points.len();
    build_rec(points, 0, n, 0, &mut t);
    t
}

fn build_rec(pts: &mut Vec<(u32, u32)>, lo: usize, hi: usize, depth: usize, t: &mut KdTree) -> u32 {
    let id = (t.nodes.len() / 4) as u32;
    t.nodes.extend([0, 0, 0, 0]);
    if hi - lo <= LEAF_SIZE {
        let start = t.xs.len() as u32;
        for &(x, y) in &pts[lo..hi] {
            t.xs.push(x);
            t.ys.push(y);
        }
        let base = (id * 4) as usize;
        t.nodes[base] = 2;
        t.nodes[base + 1] = start;
        t.nodes[base + 2] = (hi - lo) as u32;
        return id;
    }
    let dim = depth % 2;
    pts[lo..hi].sort_by_key(|&(x, y)| if dim == 0 { x } else { y });
    let mid = (lo + hi) / 2;
    let split = if dim == 0 { pts[mid].0 } else { pts[mid].1 };
    let left = build_rec(pts, lo, mid, depth + 1, t);
    let right = build_rec(pts, mid, hi, depth + 1, t);
    let base = (id * 4) as usize;
    t.nodes[base] = dim as u32;
    t.nodes[base + 1] = split;
    t.nodes[base + 2] = left;
    t.nodes[base + 3] = right;
    id
}

/// Counts points of `t` inside `[xmin,xmax]×[ymin,ymax]` (oracle).
pub fn count_in_rect(t: &KdTree, rect: (u32, u32, u32, u32)) -> u32 {
    let (xmin, xmax, ymin, ymax) = rect;
    let mut stack = vec![0u32];
    let mut found = 0;
    while let Some(n) = stack.pop() {
        let b = (n * 4) as usize;
        let flag = t.nodes[b];
        if flag == 2 {
            let (start, count) = (t.nodes[b + 1] as usize, t.nodes[b + 2] as usize);
            for i in start..start + count {
                if t.xs[i] >= xmin && t.xs[i] <= xmax && t.ys[i] >= ymin && t.ys[i] <= ymax {
                    found += 1;
                }
            }
        } else {
            let split = t.nodes[b + 1];
            let (lo, hi) = if flag == 0 {
                (xmin, xmax)
            } else {
                (ymin, ymax)
            };
            if lo < split {
                stack.push(t.nodes[b + 2]);
            }
            if hi >= split {
                stack.push(t.nodes[b + 3]);
            }
        }
    }
    found
}

/// kD-tree — range counting with data-dependent traversal.
pub fn kdtree_app() -> App {
    App {
        name: "kD-tree",
        description: "Count points in rectangle via kD-tree traversal",
        key_features: "foreach-reduce inside while, SRAM stack",
        source: |outer| {
            format!(
                r#"
dram<u32> nodes;
dram<u32> px;
dram<u32> py;
dram<u32> queries;
dram<u32> output;
void main(u32 count) {{
    foreach (count) {{ u32 q =>
        replicate ({outer}) {{
            u32 xmin = queries[q * 4];
            u32 xmax = queries[q * 4 + 1];
            u32 ymin = queries[q * 4 + 2];
            u32 ymax = queries[q * 4 + 3];
            sram<u32, 48> stack;
            u32 sp = 1;
            stack[0] = 0;
            u32 found = 0;
            while (sp) {{
                sp = sp - 1;
                u32 n = stack[sp];
                u32 flag = nodes[n * 4];
                u32 a = nodes[n * 4 + 1];
                u32 b = nodes[n * 4 + 2];
                u32 c = nodes[n * 4 + 3];
                if (flag == 2) {{
                    u32 m = foreach (b) reduce(+) {{ u32 t =>
                        u32 xi = px[a + t];
                        u32 yi = py[a + t];
                        u32 inx = (xi >= xmin) & (xi <= xmax);
                        u32 iny = (yi >= ymin) & (yi <= ymax);
                        yield inx & iny;
                    }};
                    found = found + m;
                }} else {{
                    u32 lo = xmin;
                    u32 hi = xmax;
                    if (flag) {{
                        lo = ymin;
                        hi = ymax;
                    }};
                    if (lo < a) {{
                        stack[sp] = b;
                        sp = sp + 1;
                    }};
                    if (hi >= a) {{
                        stack[sp] = c;
                        sp = sp + 1;
                    }};
                }};
            }};
            output[q] = found;
        }};
    }};
}}
"#
            )
        },
        workload: |scale, seed| {
            let mut r = gen::rng(seed);
            // Point grid sized so queries return ~16 points (Table III).
            let n_points = 4096usize;
            let side = 1u32 << 12;
            let mut points: Vec<(u32, u32)> = (0..n_points)
                .map(|_| (r.gen_range(0..side), r.gen_range(0..side)))
                .collect();
            let tree = build(&mut points);
            // Query rects sized for ~16 expected points: area fraction
            // 16/n_points of the grid.
            let frac = (16.0f64 / n_points as f64).sqrt();
            let w = ((side as f64) * frac) as u32;
            let mut queries = Vec::new();
            let mut expected = Vec::new();
            let mut fetched_points = 0u64;
            for _ in 0..scale {
                let x0 = r.gen_range(0..side - w);
                let y0 = r.gen_range(0..side - w);
                let rect = (x0, x0 + w, y0, y0 + w);
                queries.extend([rect.0, rect.1, rect.2, rect.3]);
                let c = count_in_rect(&tree, rect);
                fetched_points += c as u64;
                expected.extend(c.to_le_bytes());
            }
            let to_bytes =
                |v: &[u32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
            Workload {
                args: vec![scale as u32],
                // Paper: size = fetched points that are counted.
                app_bytes: (fetched_points * 8).max(1),
                bytes_per_thread: 64,
                threads: scale as u64,
                inits: vec![
                    (0, to_bytes(&tree.nodes)),
                    (1, to_bytes(&tree.xs)),
                    (2, to_bytes(&tree.ys)),
                    (3, to_bytes(&queries)),
                ],
                expected,
                out_sym: 4,
            }
        },
        cpu_ops_per_byte: 12.0,
        gpu_coalesces: false, // multi-kernel frontier expansion on GPUs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_match_brute_force() {
        let mut r = gen::rng(9);
        let mut points: Vec<(u32, u32)> = (0..500)
            .map(|_| (r.gen_range(0..1000), r.gen_range(0..1000)))
            .collect();
        let brute = points.clone();
        let tree = build(&mut points);
        for _ in 0..20 {
            let x0 = r.gen_range(0..900);
            let y0 = r.gen_range(0..900);
            let rect = (x0, x0 + 100, y0, y0 + 100);
            let want = brute
                .iter()
                .filter(|&&(x, y)| x >= rect.0 && x <= rect.1 && y >= rect.2 && y <= rect.3)
                .count() as u32;
            assert_eq!(count_in_rect(&tree, rect), want);
        }
    }

    #[test]
    fn tree_shape() {
        let mut pts: Vec<(u32, u32)> = (0..100).map(|i| (i, 100 - i)).collect();
        let t = build(&mut pts);
        assert_eq!(t.xs.len(), 100);
        assert!(t.nodes.len() >= 4);
    }
}
