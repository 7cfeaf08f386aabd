//! Symmetric Gauss-Seidel smoother (Section 5.3), from HPCG's multigrid:
//! a forward then a backward triangular sweep over the 27-point stencil
//! matrix. Like SpMV the `x[col[k]]` accesses are indirect (coefficient
//! 8), but the sweep also *writes* `x` in place — exercising IMP's
//! read/write predictor — and the backward sweep scans rows (and the
//! index stream) with a negative stride.
//!
//! Parallelization follows the block decomposition of the paper's [33]:
//! each core smooths its contiguous block of rows using current values of
//! other blocks (block-Jacobi between cores, Gauss-Seidel within).

use crate::gen::CsrMatrix;
use crate::pattern::hop_load;
use crate::{partition, Built, Scale, Workload, WorkloadParams};
use imp_common::stats::AccessClass;
use imp_common::Pc;
use imp_mem::{AddressSpace, FunctionalMemory};
use imp_trace::{Op, Program};

const PC_XADJ_F: Pc = Pc::new(30);
const PC_XADJ_B: Pc = Pc::new(31);
const PC_COL_F: Pc = Pc::new(32);
const PC_COL_B: Pc = Pc::new(33);
const PC_VAL_F: Pc = Pc::new(34);
const PC_VAL_B: Pc = Pc::new(35);
const PC_X_F: Pc = Pc::new(36);
const PC_X_B: Pc = Pc::new(37);
const PC_XW: Pc = Pc::new(38);
const PC_B: Pc = Pc::new(39);
const PC_SW_IDX: Pc = Pc::new(28);
const PC_SW_PF: Pc = Pc::new(29);

/// The SymGS workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Symgs;

fn grid(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 8,
        Scale::Small => 22,
        Scale::Large => 36,
    }
}

/// Row schedule within a block: rows are visited in 8 interleaved
/// phases (stride 8), mirroring the reordered schedules parallel SymGS
/// implementations use to balance parallelism — and, as in the paper's
/// workload, destroying the dense stencil locality of the natural order.
pub(crate) fn row_order(range: &std::ops::Range<u64>, forward: bool) -> Vec<u64> {
    const PHASES: u64 = 8;
    let mut rows = Vec::with_capacity((range.end - range.start) as usize);
    for phase in 0..PHASES {
        let mut r = range.start + phase;
        while r < range.end {
            rows.push(r);
            r += PHASES;
        }
    }
    if !forward {
        rows.reverse();
    }
    rows
}

/// Host-side block SymGS: one forward then one backward sweep; each
/// core's block uses in-place updates internally and the pre-sweep values
/// of other blocks (so the emitted trace matches the math exactly
/// regardless of simulated timing).
pub(crate) fn host_symgs(m: &CsrMatrix, x: &mut [f64], b: &[f64], blocks: &[std::ops::Range<u64>]) {
    for forward in [true, false] {
        let snapshot = x.to_vec();
        for range in blocks {
            for r in row_order(range, forward) {
                let mut sum = b[r as usize];
                let mut diag = 1.0;
                for (c, v) in m.row(r) {
                    if u64::from(c) == r {
                        diag = v;
                    } else if range.contains(&u64::from(c)) {
                        sum -= v * x[c as usize];
                    } else {
                        sum -= v * snapshot[c as usize];
                    }
                }
                x[r as usize] = sum / diag;
            }
        }
    }
}

impl Workload for Symgs {
    fn name(&self) -> &'static str {
        "symgs"
    }

    fn build(&self, params: &WorkloadParams) -> Built {
        let m = CsrMatrix::stencil27(grid(params.scale)).symmetric_permutation(params.seed ^ 0x51D);
        let rows = m.rows();
        let b: Vec<f64> = (0..rows).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
        let mut x = vec![0.0f64; rows as usize];

        let mut space = AddressSpace::new();
        let mut mem = FunctionalMemory::new();
        let a_xadj = space.alloc_array::<u32>("xadj", rows + 1);
        let a_col = space.alloc_array::<u32>("col", m.nnz());
        let a_val = space.alloc_array::<f64>("val", m.nnz());
        let a_x = space.alloc_array::<f64>("x", rows);
        let a_b = space.alloc_array::<f64>("b", rows);
        for (i, &v) in m.xadj.iter().enumerate() {
            a_xadj.write(&mut mem, i as u64, v);
        }
        for (i, &v) in m.col.iter().enumerate() {
            a_col.write(&mut mem, i as u64, v);
        }

        let mut program = Program::new("symgs", params.cores);
        let parts = partition(rows, params.cores);

        for forward in [true, false] {
            let (pc_xadj, pc_col, pc_val, pc_x) = if forward {
                (PC_XADJ_F, PC_COL_F, PC_VAL_F, PC_X_F)
            } else {
                (PC_XADJ_B, PC_COL_B, PC_VAL_B, PC_X_B)
            };
            for (c, range) in parts.iter().enumerate() {
                let ops = program.core_mut(c);
                for r in row_order(range, forward) {
                    ops.push(Op::load(
                        a_xadj.addr_of(r + 1),
                        4,
                        pc_xadj,
                        AccessClass::Stream,
                    ));
                    ops.push(Op::load(a_b.addr_of(r), 8, PC_B, AccessClass::Stream));
                    let (lo, hi) = (m.xadj[r as usize] as u64, m.xadj[r as usize + 1] as u64);
                    // The column scan direction follows the sweep.
                    let ks: Vec<u64> = if forward {
                        (lo..hi).collect()
                    } else {
                        (lo..hi).rev().collect()
                    };
                    for (ki, k) in ks.iter().copied().enumerate() {
                        if let Some(d) = params.software_prefetch.map(|d| d as usize) {
                            if let Some(&fk) = ks.get(ki + d) {
                                let fc = m.col[fk as usize] as u64;
                                ops.push(Op::load(
                                    a_col.addr_of(fk),
                                    4,
                                    PC_SW_IDX,
                                    AccessClass::Stream,
                                ));
                                ops.push(Op::compute(1));
                                ops.push(Op::sw_prefetch(a_x.addr_of(fc), PC_SW_PF));
                            }
                        }
                        let cidx = m.col[k as usize] as u64;
                        ops.push(Op::load(a_col.addr_of(k), 4, pc_col, AccessClass::Stream));
                        ops.push(Op::load(a_val.addr_of(k), 8, pc_val, AccessClass::Stream));
                        ops.push(hop_load(&a_x, cidx, pc_x).with_dep(2));
                        ops.push(Op::compute(2));
                    }
                    ops.push(Op::compute(2));
                    // In-place update of x[r]: a store to the same array
                    // the indirect loads read.
                    ops.push(Op::store(a_x.addr_of(r), 8, PC_XW, AccessClass::Stream));
                }
            }
            program.barrier();
        }

        host_symgs(&m, &mut x, &b, &parts);
        let result = x.iter().sum::<f64>();
        Built {
            program,
            mem,
            result,
            regions: space.regions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_matches_independent_host_sweep() {
        let params = WorkloadParams::new(4, Scale::Tiny);
        let built = Symgs.build(&params);
        let m = CsrMatrix::stencil27(grid(Scale::Tiny)).symmetric_permutation(42 ^ 0x51D);
        let b: Vec<f64> = (0..m.rows()).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
        let mut x = vec![0.0; m.rows() as usize];
        host_symgs(&m, &mut x, &b, &partition(m.rows(), 4));
        let expected: f64 = x.iter().sum();
        assert!((built.result - expected).abs() < 1e-9);
        assert!(expected.is_finite() && expected != 0.0);
    }

    #[test]
    fn symgs_reduces_residual() {
        // One SymGS sweep must shrink ||b - Ax|| for an SPD matrix.
        let m = CsrMatrix::stencil27(6);
        let b: Vec<f64> = (0..m.rows()).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
        let mut x = vec![0.0; m.rows() as usize];
        let res0: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        host_symgs(&m, &mut x, &b, &partition(m.rows(), 4));
        let ax = m.spmv_reference(&x);
        let res1: f64 = b
            .iter()
            .zip(ax.iter())
            .map(|(bi, yi)| (bi - yi) * (bi - yi))
            .sum::<f64>()
            .sqrt();
        assert!(res1 < res0 * 0.5, "residual {res0} -> {res1}");
    }

    #[test]
    fn backward_sweep_reverses_forward_order() {
        let built = Symgs.build(&WorkloadParams::new(2, Scale::Tiny));
        let ops = built.program.ops(0);
        let fwd: Vec<u64> = ops
            .iter()
            .filter(|o| o.pc == PC_XADJ_F)
            .map(|o| o.addr)
            .collect();
        let mut bwd: Vec<u64> = ops
            .iter()
            .filter(|o| o.pc == PC_XADJ_B)
            .map(|o| o.addr)
            .collect();
        bwd.reverse();
        assert!(fwd.len() > 2);
        assert_eq!(fwd, bwd, "backward sweep visits rows in exact reverse");
        // Within a phase the backward stream descends (negative stride).
        let raw: Vec<u64> = ops
            .iter()
            .filter(|o| o.pc == PC_XADJ_B)
            .map(|o| o.addr)
            .collect();
        assert!(raw.windows(2).filter(|w| w[0] > w[1]).count() > raw.len() / 2);
    }

    #[test]
    fn writes_x_in_place() {
        let built = Symgs.build(&WorkloadParams::new(2, Scale::Tiny));
        let stores = built
            .program
            .ops(1)
            .iter()
            .filter(|o| o.pc == PC_XW)
            .count();
        assert!(stores > 0);
    }
}
