//! Stochastic Gradient Descent for collaborative filtering (Section
//! 5.3): factorizes a sparse ratings matrix into user and item factor
//! matrices. The rating triples `(ru[k], ri[k], rv[k])` are streamed; the
//! factor-row accesses `U[ru[k]]` / `V[ri[k]]` are indirect with 16-byte
//! rows (two f64 features — the paper's coefficient-16 "small
//! structures"), read *and written* each update.

use crate::pattern::{hop_load, hop_store};
use crate::{Built, Scale, Workload, WorkloadParams};
use imp_common::stats::AccessClass;
use imp_common::{Pc, SplitMix64};
use imp_mem::{AddressSpace, FunctionalMemory};
use imp_trace::{Op, Program};

const PC_RU: Pc = Pc::new(60);
const PC_RI: Pc = Pc::new(61);
const PC_RV: Pc = Pc::new(62);
const PC_U0: Pc = Pc::new(63);
const PC_U1: Pc = Pc::new(64);
const PC_V0: Pc = Pc::new(65);
const PC_V1: Pc = Pc::new(66);
const PC_UW: Pc = Pc::new(67);
const PC_VW: Pc = Pc::new(68);
const PC_SW_IDX: Pc = Pc::new(69);
const PC_SW_PF: Pc = Pc::new(59);

/// Latent feature dimension: 2 f64s = 16-byte rows (shift 4).
pub(crate) const FEATURES: usize = 2;
const LEARNING_RATE: f64 = 0.02;
const REGULARIZATION: f64 = 0.05;

/// The SGD collaborative-filtering workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sgd;

fn sizes(scale: Scale) -> (u64, u64, u64) {
    // (users, items, ratings)
    match scale {
        Scale::Tiny => (512, 512, 4_000),
        Scale::Small => (8192, 8192, 150_000),
        Scale::Large => (32768, 32768, 600_000),
    }
}

/// Synthetic ratings: uniformly random (user, item, rating in 1..=5).
pub(crate) fn ratings(scale: Scale, seed: u64) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    let (users, items, nnz) = sizes(scale);
    let mut rng = SplitMix64::new(seed);
    let mut ru = Vec::with_capacity(nnz as usize);
    let mut ri = Vec::with_capacity(nnz as usize);
    let mut rv = Vec::with_capacity(nnz as usize);
    for _ in 0..nnz {
        ru.push(rng.next_below(users) as u32);
        ri.push(rng.next_below(items) as u32);
        rv.push((1 + rng.next_below(5)) as f32);
    }
    (ru, ri, rv)
}

/// One host epoch over an explicit rating order.
pub(crate) fn host_epoch_order(
    ru: &[u32],
    ri: &[u32],
    rv: &[f32],
    u: &mut [f64],
    v: &mut [f64],
    order: &[u64],
) -> f64 {
    let mut sse = 0.0;
    for &k in order {
        sse += host_epoch(ru, ri, rv, u, v, k..k + 1);
    }
    sse
}

/// One host epoch of SGD; returns the sum of squared errors observed.
pub(crate) fn host_epoch(
    ru: &[u32],
    ri: &[u32],
    rv: &[f32],
    u: &mut [f64],
    v: &mut [f64],
    chunk: std::ops::Range<u64>,
) -> f64 {
    let mut sse = 0.0;
    for k in chunk {
        let (uu, ii, r) = (
            ru[k as usize] as usize,
            ri[k as usize] as usize,
            f64::from(rv[k as usize]),
        );
        let urow = uu * FEATURES;
        let vrow = ii * FEATURES;
        let pred: f64 = (0..FEATURES).map(|f| u[urow + f] * v[vrow + f]).sum();
        let err = r - pred;
        sse += err * err;
        for f in 0..FEATURES {
            let (uf, vf) = (u[urow + f], v[vrow + f]);
            u[urow + f] = uf + LEARNING_RATE * (err * vf - REGULARIZATION * uf);
            v[vrow + f] = vf + LEARNING_RATE * (err * uf - REGULARIZATION * vf);
        }
    }
    sse
}

impl Workload for Sgd {
    fn name(&self) -> &'static str {
        "sgd"
    }

    fn build(&self, params: &WorkloadParams) -> Built {
        let (users, items, nnz) = sizes(params.scale);
        let (ru, ri, rv) = ratings(params.scale, params.seed);

        let mut space = AddressSpace::new();
        let mut mem = FunctionalMemory::new();
        let a_u = space.alloc_array::<f64>("U", users * FEATURES as u64);
        let a_v = space.alloc_array::<f64>("V", items * FEATURES as u64);

        // Deterministic initialization of the factor matrices.
        let mut init = SplitMix64::new(params.seed ^ 0xF00D);
        let mut u: Vec<f64> = (0..users * FEATURES as u64)
            .map(|_| init.next_f64() * 0.5)
            .collect();
        let mut v: Vec<f64> = (0..items * FEATURES as u64)
            .map(|_| init.next_f64() * 0.5)
            .collect();

        let mut program = Program::new("sgd", params.cores);
        // Shard ratings by user (as distributed matrix-factorization
        // codes do): each core owns a contiguous user range, so U rows
        // are core-private while V rows stay shared. Within a shard the
        // processing order is shuffled — preserving the indirect access
        // pattern on both factor matrices.
        let mut shards: Vec<Vec<u64>> = vec![Vec::new(); params.cores];
        for k in 0..nnz {
            let c = (u64::from(ru[k as usize]) as usize * params.cores) / users as usize;
            shards[c].push(k);
        }
        let mut shuf = SplitMix64::new(params.seed ^ 0xBEEF);
        for shard in &mut shards {
            for i in (1..shard.len()).rev() {
                let j = shuf.next_below(i as u64 + 1) as usize;
                shard.swap(i, j);
            }
        }
        let mut sse = 0.0;
        for (c, shard) in shards.iter().enumerate() {
            // Each core's shard is stored contiguously (in its shuffled
            // processing order) and streamed sequentially — the layout a
            // sharded matrix-factorization code would build at setup.
            let len = shard.len().max(1) as u64;
            let a_ru = space.alloc_array::<u32>(&format!("ru{c}"), len);
            let a_ri = space.alloc_array::<u32>(&format!("ri{c}"), len);
            let a_rv = space.alloc_array::<f32>(&format!("rv{c}"), len);
            for (j, &k) in shard.iter().enumerate() {
                a_ru.write(&mut mem, j as u64, ru[k as usize]);
                a_ri.write(&mut mem, j as u64, ri[k as usize]);
                a_rv.write(&mut mem, j as u64, rv[k as usize]);
            }
            let ops = program.core_mut(c);
            for (j, &k) in shard.iter().enumerate() {
                if let Some(d) = params.software_prefetch.map(|d| d as usize) {
                    if let Some(&fk) = shard.get(j + d) {
                        let fu = u64::from(ru[fk as usize]) * FEATURES as u64;
                        let fi = u64::from(ri[fk as usize]) * FEATURES as u64;
                        ops.push(Op::load(
                            a_ru.addr_of((j + d) as u64),
                            4,
                            PC_SW_IDX,
                            AccessClass::Stream,
                        ));
                        ops.push(Op::load(
                            a_ri.addr_of((j + d) as u64),
                            4,
                            PC_SW_IDX,
                            AccessClass::Stream,
                        ));
                        ops.push(Op::compute(2));
                        ops.push(Op::sw_prefetch(a_u.addr_of(fu), PC_SW_PF));
                        ops.push(Op::sw_prefetch(a_v.addr_of(fi), PC_SW_PF));
                    }
                }
                let j = j as u64;
                let uu = u64::from(ru[k as usize]) * FEATURES as u64;
                let ii = u64::from(ri[k as usize]) * FEATURES as u64;
                ops.push(Op::load(a_ru.addr_of(j), 4, PC_RU, AccessClass::Stream));
                ops.push(Op::load(a_ri.addr_of(j), 4, PC_RI, AccessClass::Stream));
                ops.push(Op::load(a_rv.addr_of(j), 4, PC_RV, AccessClass::Stream));
                // Loads back: rv=1, ri=2, ru=3.
                ops.push(hop_load(&a_u, uu, PC_U0).with_dep(3));
                ops.push(hop_load(&a_u, uu + 1, PC_U1).with_dep(4));
                ops.push(hop_load(&a_v, ii, PC_V0).with_dep(4));
                ops.push(hop_load(&a_v, ii + 1, PC_V1).with_dep(5));
                ops.push(Op::compute(24)); // dot product, error, update math
                ops.push(hop_store(&a_u, uu, PC_UW));
                ops.push(hop_store(&a_u, uu + 1, PC_UW));
                ops.push(hop_store(&a_v, ii, PC_VW));
                ops.push(hop_store(&a_v, ii + 1, PC_VW));
            }
        }
        for shard in &shards {
            sse += host_epoch_order(&ru, &ri, &rv, &mut u, &mut v, shard);
        }
        program.barrier();

        Built {
            program,
            mem,
            result: sse,
            regions: space.regions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_reduces_error_across_epochs() {
        let (ru, ri, rv) = ratings(Scale::Tiny, 1);
        let (users, items, nnz) = sizes(Scale::Tiny);
        let mut init = SplitMix64::new(1 ^ 0xF00D);
        let mut u: Vec<f64> = (0..users * FEATURES as u64)
            .map(|_| init.next_f64() * 0.5)
            .collect();
        let mut v: Vec<f64> = (0..items * FEATURES as u64)
            .map(|_| init.next_f64() * 0.5)
            .collect();
        let e1 = host_epoch(&ru, &ri, &rv, &mut u, &mut v, 0..nnz);
        let e2 = host_epoch(&ru, &ri, &rv, &mut u, &mut v, 0..nnz);
        let e3 = host_epoch(&ru, &ri, &rv, &mut u, &mut v, 0..nnz);
        assert!(e2 < e1, "epoch error must fall: {e1} -> {e2}");
        assert!(e3 < e2, "epoch error must keep falling: {e2} -> {e3}");
    }

    #[test]
    fn factor_rows_are_sixteen_bytes_apart() {
        let built = Sgd.build(&WorkloadParams::new(2, Scale::Tiny));
        // Consecutive distinct U-row accesses must be multiples of 16 B
        // from each other (coefficient 16 = shift 4).
        let addrs: Vec<u64> = built
            .program
            .ops(0)
            .iter()
            .filter(|o| o.pc == PC_U0)
            .map(|o| o.addr)
            .collect();
        assert!(addrs.len() > 2);
        let base = addrs.iter().min().unwrap();
        for a in &addrs {
            assert_eq!((a - base) % 16, 0);
        }
    }

    #[test]
    fn updates_write_both_factor_rows() {
        let built = Sgd.build(&WorkloadParams::new(2, Scale::Tiny));
        let ops = built.program.ops(1);
        let uw = ops.iter().filter(|o| o.pc == PC_UW).count();
        let vw = ops.iter().filter(|o| o.pc == PC_VW).count();
        assert!(uw > 0);
        assert_eq!(uw, vw);
    }
}
