//! Calibrated microbenchmarks of each layer's hot call.
//!
//! A sample times a batch of calls, not one: the batch size doubles
//! until one sample takes at least [`MIN_SAMPLE`], then [`SAMPLES`]
//! samples are taken and summarised, so a nanosecond-scale call is not
//! dominated by the cost of reading the clock.

use crate::stats::Summary;
use imp_cache::{AccessOutcome, LineState, SectoredCache};
use imp_coherence::Directory;
use imp_common::stats::AccessClass;
use imp_common::{Addr, EventQueue, LineAddr, Pc, SectorMask, SystemConfig, TlbConfig};
use imp_dram::{DramModel, FixedLatencyDram};
use imp_noc::Mesh;
use imp_obs::CoreProbe;
use imp_prefetch::{Access, Imp, L1Prefetcher, MapValueSource, PrefetchCtx, StreamPrefetcher};
use imp_vm::Vm;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shortest sample the calibration accepts.
pub const MIN_SAMPLE: Duration = Duration::from_millis(10);

/// Samples taken once calibrated.
pub const SAMPLES: usize = 15;

/// Nanoseconds per call of `op`: the batch size grows until one batch
/// takes `min_sample`, then `samples` batches are summarised. `op` gets
/// the running call index.
pub fn measure(min_sample: Duration, samples: usize, mut op: impl FnMut(u64)) -> Summary {
    let mut next = 0u64;
    let mut batch = |iters: u64| {
        let t = Instant::now();
        for _ in 0..iters {
            op(next);
            next += 1;
        }
        t.elapsed()
    };
    let mut iters = 1u64;
    while batch(iters) < min_sample {
        iters *= 2;
    }
    let ns: Vec<f64> = (0..samples)
        .map(|_| batch(iters).as_nanos() as f64 / iters as f64)
        .collect();
    Summary::of(&ns)
}

fn ns(op: impl FnMut(u64)) -> Summary {
    measure(MIN_SAMPLE, SAMPLES, op)
}

/// A cheap deterministic scramble of a call index.
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

/// Every microbenchmark, by per-layer metric name, in ns per call.
pub fn all() -> Vec<(&'static str, Summary)> {
    let cfg = SystemConfig::paper_default(16);
    vec![
        ("event_queue.push_pop_ns", event_queue()),
        ("coherence.dir_op_ns", directory(&cfg)),
        ("noc.send_ns", mesh(&cfg)),
        ("cache.l1_access_ns", l1(&cfg)),
        ("prefetch.imp_on_access_ns", imp_on_access()),
        ("prefetch.stream_on_access_ns", stream_on_access()),
        ("dram.access_ns", dram(&cfg)),
        ("vm.translate_hit_ns", translate(false)),
        ("vm.translate_walk_ns", translate(true)),
    ]
}

/// One pop and one push on a queue holding a 16-core system's worth of
/// pending events, most of them near-future.
fn event_queue() -> Summary {
    let mut q = EventQueue::new();
    for i in 0..64u64 {
        q.push(i, i);
    }
    ns(|i| {
        let (t, e) = q.pop().expect("the queue never drains");
        let delay = if i % 64 == 0 { 5_000 } else { 1 + mix(i) % 64 };
        q.push(t + delay, black_box(e));
    })
}

/// The directory calls one coherence transaction makes, averaged per
/// call: two reads, a write's invalidation query and upgrade, and an
/// eviction.
fn directory(cfg: &SystemConfig) -> Summary {
    let mut dir = Directory::new(cfg.mem.ackwise_k as usize, cfg.cores);
    let per_op = ns(|i| {
        let line = LineAddr::from_line_number(mix(i) % 4096);
        let (a, b) = ((i % 16) as u32, ((i + 5) % 16) as u32);
        dir.add_sharer(line, a);
        dir.add_sharer(line, b);
        black_box(dir.invalidation_targets(line, Some(a)));
        dir.set_modified(line, a);
        dir.remove(line, a);
    });
    scale(per_op, 1.0 / 5.0)
}

/// One 64-byte message between pseudo-random tiles of a 4x4 mesh.
fn mesh(cfg: &SystemConfig) -> Summary {
    let mut mesh = Mesh::new(cfg.mesh_side(), cfg.mem.hop_latency, cfg.mem.flit_bytes);
    ns(|i| {
        let (src, dst) = ((mix(i) % 16) as u32, (mix(i + 1) % 16) as u32);
        black_box(mesh.send(src, dst, 64, i / 4));
    })
}

/// One L1 demand access (and its fill on a miss) over a working set
/// twice the cache, so about half the accesses miss.
fn l1(cfg: &SystemConfig) -> Summary {
    let l1d = &cfg.mem.l1d;
    let mut cache = SectoredCache::new(l1d.size_bytes, l1d.associativity, 1);
    let lines = 2 * l1d.size_bytes / imp_common::LINE_BYTES;
    ns(|i| {
        let line = LineAddr::from_line_number(mix(i) % lines);
        if let AccessOutcome::Miss = cache.demand_access(line, SectorMask::FULL_L1, false) {
            black_box(cache.fill(line, SectorMask::FULL_L1, LineState::Shared, false));
        }
    })
}

/// IMP observing an index read and the indirect access it predicts, in
/// steady state after the pattern is detected.
fn imp_on_access() -> Summary {
    let mut src = MapValueSource::new();
    for i in 0..4096u64 {
        src.insert(Addr::new(0x10000 + 4 * i), 4, (i * 2_654_435_761) % 100_000);
    }
    let probe = CoreProbe::disabled();
    let mut imp = Imp::new(imp_common::ImpConfig::paper_default(), false, 1);
    let mut reqs = Vec::new();
    ns(|i| {
        let k = i % 4096;
        let v = (k * 2_654_435_761) % 100_000;
        reqs.clear();
        let mut ctx = PrefetchCtx::new(Pc::new(1), AccessClass::Other, &mut src, &mut reqs, &probe);
        imp.on_access_ctx(
            Access::load_hit(Pc::new(1), Addr::new(0x10000 + 4 * k), 4),
            &mut ctx,
        );
        let mut ctx = PrefetchCtx::new(Pc::new(2), AccessClass::Other, &mut src, &mut reqs, &probe);
        imp.on_access_ctx(
            Access::load_miss(Pc::new(2), Addr::new(0x100_0000 + 8 * v), 8),
            &mut ctx,
        );
        black_box(reqs.len());
    })
}

/// The stream prefetcher observing a sequential walk.
fn stream_on_access() -> Summary {
    let mut src = MapValueSource::new();
    let probe = CoreProbe::disabled();
    let mut sp = StreamPrefetcher::paper_default();
    let mut reqs = Vec::new();
    ns(|i| {
        reqs.clear();
        let mut ctx = PrefetchCtx::new(Pc::new(1), AccessClass::Other, &mut src, &mut reqs, &probe);
        sp.on_access_ctx(
            Access::load_hit(Pc::new(1), Addr::new(0x40000 + 8 * i), 8),
            &mut ctx,
        );
        black_box(reqs.len());
    })
}

/// One line read from the memory controller model the workloads use.
fn dram(cfg: &SystemConfig) -> Summary {
    let mut dram = FixedLatencyDram::new(cfg.mem.dram_latency, cfg.mem.dram_bytes_per_cycle);
    ns(|i| {
        black_box(dram.access(i * 8, mix(i) << 6, 64, false));
    })
}

/// One demand translation that hits the dTLB (`walk == false`) or
/// misses it and walks the page table (`walk == true`, a page pool far
/// larger than the 64-entry dTLB).
fn translate(walk: bool) -> Summary {
    let mut vm = Vm::new(&TlbConfig::finite(), 1).expect("finite defaults are valid");
    vm.demand_translate(0, Addr::new(0x1000));
    ns(|i| {
        let addr = if walk {
            (i % 4096) * 4096
        } else {
            0x1000 + (i * 8) % 4096
        };
        black_box(vm.demand_translate(0, Addr::new(addr)));
    })
}

fn scale(s: Summary, k: f64) -> Summary {
    Summary {
        n: s.n,
        q1: s.q1 * k,
        median: s.median * k,
        q3: s.q3 * k,
        tail: s.tail * k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_grows_the_batch_until_a_sample_is_long_enough() {
        let per_call = Duration::from_micros(20);
        let mut calls = 0u64;
        let s = measure(MIN_SAMPLE, 3, |_| {
            calls += 1;
            let t = Instant::now();
            while t.elapsed() < per_call {}
        });
        assert_eq!(s.n, 3);
        // Batches of 1, 2, .., b calibrate, then three batches of b.
        assert_eq!((calls + 1) % 5, 0, "{calls} calls");
        let b = (calls + 1) / 5;
        assert!(b.is_power_of_two() && b > 1, "the batch grew: {b}");
        // 512 calls of at least 20 us already fill a 10 ms sample.
        assert!(b <= 512, "growth stops once a sample is long enough: {b}");
        assert!(s.median >= 20_000.0, "{s:?}");
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }
}
