//! A user-defined prefetcher plugged into the simulator from the
//! outside: no `imp-sim` (or any core crate) changes, just a registry
//! registration and a spec string.
//!
//! The toy model is a tagless next-N-lines prefetcher: every L1 miss
//! fetches the following `degree` cache lines. It is deliberately naive —
//! the point is the plumbing, not the policy.
//!
//! ```sh
//! cargo run --release --example custom_prefetcher [workload]
//! ```

use imp::common::{LineAddr, SectorMask};
use imp::prefetch::registry::{self, RegistryError};
use imp::prefetch::{Access, L1Prefetcher, PrefetchKind, PrefetchRequest, PrefetcherStats};
use imp::prelude::*;

/// Next-N-lines: on every miss, prefetch the `degree` following lines.
struct NextLines {
    degree: u64,
    stats: PrefetcherStats,
}

impl L1Prefetcher for NextLines {
    // The one required hook besides `stats`: `ctx` bundles the
    // index-value source, the output buffer (`ctx.emit`), and the
    // observability probe.
    fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>) {
        if !access.miss {
            return;
        }
        let line = LineAddr::containing(access.addr);
        for d in 1..=self.degree {
            self.stats.stream_prefetches += 1;
            ctx.emit(PrefetchRequest {
                pc: access.pc,
                addr: LineAddr::from_line_number(line.number() + d).base(),
                sectors: SectorMask::FULL_L1,
                exclusive: false,
                kind: PrefetchKind::Sequential,
            });
        }
    }

    // Optional: managed runs (`Sim::manager`) deliver per-epoch
    // feedback here; a plugin that ignores it works unchanged.
    fn on_feedback(&mut self, _feedback: &Feedback) -> Control {
        Control::none()
    }

    fn stats(&self) -> &PrefetcherStats {
        &self.stats
    }
}

fn main() {
    // One-line integration: name it, build it from the spec's params.
    registry::register_fn("next-lines", |spec, _ctx| {
        let degree = match spec.get("degree") {
            None => 2,
            Some(v) => v.as_u64().ok_or_else(|| RegistryError::InvalidParam {
                prefetcher: spec.name.clone(),
                param: "degree".to_string(),
                reason: format!("expected a non-negative integer, got {v}"),
            })?,
        };
        Ok(Box::new(NextLines {
            degree,
            stats: PrefetcherStats::default(),
        }))
    })
    .expect("name is free");

    let app = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "spmv".to_string());
    println!("{app}, 16 cores: stock prefetchers vs the plugged-in next-lines\n");
    let results = Sweep::from(
        Sim::workload(&app)
            .cores(16)
            .scale(imp_experiments::scale_from_env()),
    )
    .prefetchers([
        "none",
        "stream",
        "next-lines:degree=1",
        "next-lines:degree=4",
        "imp",
        "hybrid:components=stream+imp",
    ])
    .run()
    .expect("all cells run");

    let base = results[0].stats.runtime as f64;
    println!(
        "{:32} {:>12} {:>9} {:>9} {:>9}",
        "prefetcher", "runtime", "speedup", "cov", "acc"
    );
    for r in &results {
        println!(
            "{:32} {:>12} {:>9.2} {:>9.2} {:>9.2}",
            r.cell.prefetcher.to_string(),
            r.stats.runtime,
            base / r.stats.runtime as f64,
            r.stats.coverage(),
            r.stats.accuracy(),
        );
    }
    println!("\n(next-lines helps streams a little and pollutes on scattered indirects;");
    println!(" IMP's pattern-aware prefetches are why the paper beats spatial-only designs)");
}
