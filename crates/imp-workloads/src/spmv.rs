//! Sparse matrix-vector multiplication (Section 5.3), from the HPCG
//! benchmark: a 27-point stencil matrix in CSR, dense vector. The column
//! scan `col[k]` is the index stream; `x[col[k]]` is the indirect pattern
//! (coefficient 8).

use crate::gen::CsrMatrix;
use crate::pattern::hop_load;
use crate::{partition, Built, Scale, Workload, WorkloadParams};
use imp_common::stats::AccessClass;
use imp_common::Pc;
use imp_mem::{AddressSpace, FunctionalMemory};
use imp_trace::{Op, Program};

const PC_XADJ: Pc = Pc::new(20);
const PC_COL: Pc = Pc::new(21);
const PC_VAL: Pc = Pc::new(22);
const PC_X: Pc = Pc::new(23);
const PC_Y: Pc = Pc::new(24);
const PC_SW_IDX: Pc = Pc::new(25);
const PC_SW_PF: Pc = Pc::new(26);

/// The SpMV workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spmv;

fn grid(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 8,
        Scale::Small => 32,
        Scale::Large => 48,
    }
}

impl Workload for Spmv {
    fn name(&self) -> &'static str {
        "spmv"
    }

    fn build(&self, params: &WorkloadParams) -> Built {
        let m = CsrMatrix::stencil27(grid(params.scale)).symmetric_permutation(params.seed ^ 0x51D);
        let rows = m.rows();
        let x: Vec<f64> = (0..rows).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();

        let mut space = AddressSpace::new();
        let mut mem = FunctionalMemory::new();
        let a_xadj = space.alloc_array::<u32>("xadj", rows + 1);
        let a_col = space.alloc_array::<u32>("col", m.nnz());
        let a_val = space.alloc_array::<f64>("val", m.nnz());
        let a_x = space.alloc_array::<f64>("x", rows);
        let a_y = space.alloc_array::<f64>("y", rows);
        for (i, &v) in m.xadj.iter().enumerate() {
            a_xadj.write(&mut mem, i as u64, v);
        }
        for (i, &v) in m.col.iter().enumerate() {
            a_col.write(&mut mem, i as u64, v);
        }

        let mut program = Program::new("spmv", params.cores);
        let parts = partition(rows, params.cores);
        for (c, range) in parts.iter().enumerate() {
            let ops = program.core_mut(c);
            for r in range.clone() {
                ops.push(Op::load(
                    a_xadj.addr_of(r + 1),
                    4,
                    PC_XADJ,
                    AccessClass::Stream,
                ));
                let (lo, hi) = (m.xadj[r as usize] as u64, m.xadj[r as usize + 1] as u64);
                for k in lo..hi {
                    if let Some(d) = params.software_prefetch.filter(|&d| k + d < hi) {
                        let fc = m.col[(k + d) as usize] as u64;
                        ops.push(Op::load(
                            a_col.addr_of(k + d),
                            4,
                            PC_SW_IDX,
                            AccessClass::Stream,
                        ));
                        ops.push(Op::compute(1));
                        ops.push(Op::sw_prefetch(a_x.addr_of(fc), PC_SW_PF));
                    }
                    let cidx = m.col[k as usize] as u64;
                    ops.push(Op::load(a_col.addr_of(k), 4, PC_COL, AccessClass::Stream));
                    ops.push(Op::load(a_val.addr_of(k), 8, PC_VAL, AccessClass::Stream));
                    ops.push(hop_load(&a_x, cidx, PC_X).with_dep(2));
                    ops.push(Op::compute(2));
                }
                ops.push(Op::store(a_y.addr_of(r), 8, PC_Y, AccessClass::Stream));
            }
        }
        program.barrier();

        let y = m.spmv_reference(&x);
        let result = y.iter().sum::<f64>();
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
    fn result_is_the_reference_spmv() {
        let built = Spmv.build(&WorkloadParams::new(4, Scale::Tiny));
        let m = CsrMatrix::stencil27(grid(Scale::Tiny)).symmetric_permutation(42 ^ 0x51D);
        let x: Vec<f64> = (0..m.rows()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let expected: f64 = m.spmv_reference(&x).iter().sum();
        assert!((built.result - expected).abs() < 1e-9);
    }

    #[test]
    fn one_indirect_load_per_nonzero() {
        let built = Spmv.build(&WorkloadParams::new(1, Scale::Tiny));
        let m = CsrMatrix::stencil27(grid(Scale::Tiny)).symmetric_permutation(42 ^ 0x51D);
        let ind = built
            .program
            .ops(0)
            .iter()
            .filter(|o| o.class == AccessClass::Indirect)
            .count() as u64;
        assert_eq!(ind, m.nnz());
    }

    #[test]
    fn column_indices_in_memory_match_matrix() {
        let built = Spmv.build(&WorkloadParams::new(2, Scale::Tiny));
        let m = CsrMatrix::stencil27(grid(Scale::Tiny)).symmetric_permutation(42 ^ 0x51D);
        let col_op = built
            .program
            .ops(0)
            .iter()
            .find(|o| o.pc == PC_COL)
            .expect("col load");
        assert_eq!(built.mem.read_u32(col_op.mem_addr()), m.col[0]);
    }
}
