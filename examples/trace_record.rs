//! Record a workload to an `.imptrace` file, replay it, and share one
//! artifact across a prefetcher comparison. The host times of the live
//! `imp` run and of its replay over the shared artifact differ by the
//! workload build, the per-cell cost `Sweep` saves by sharing artifacts.
//!
//! ```sh
//! cargo run --release --example trace_record
//! ```

use imp::prelude::*;
use imp::workloads::BuiltArtifact;
use std::time::{Duration, Instant};

fn main() {
    let sim = Sim::workload("pagerank").scale(Scale::Tiny).cores(16);

    // Build the workload once: real PageRank over a synthetic graph,
    // emitting op streams and the index arrays IMP will read.
    let artifact = sim.build_artifact().expect("stock workloads build");
    println!(
        "built pagerank: {} cores, {} instructions, {} mapped pages, result {:.4}",
        artifact.program().cores(),
        artifact.program().total_instructions(),
        artifact.mem().mapped_pages(),
        artifact.result(),
    );

    // Record it. The file carries the op streams, the functional-memory
    // image, and the algorithm result — everything a replay needs.
    let path = std::env::temp_dir().join("pagerank-demo.imptrace");
    artifact.save(&path).expect("writable temp dir");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("recorded {} ({bytes} bytes)", path.display());

    // Replay through the registry: `trace:<path>` is a workload name.
    let replayed = Sim::workload(format!("trace:{}", path.display()))
        .cores(16)
        .prefetcher("imp")
        .run()
        .expect("replay runs");
    let start = Instant::now();
    let live = sim.clone().prefetcher("imp").run().expect("live run");
    let live_time = start.elapsed();
    println!(
        "replayed runtime {} vs live runtime {} — identical: {}",
        replayed.runtime,
        live.runtime,
        replayed == live,
    );

    // Share one artifact across a comparison grid: no rebuilds, same
    // input for every prefetcher (the comparison the paper's figures
    // make).
    println!("\nprefetcher comparison over the shared artifact:");
    let mut replay_time = Duration::ZERO;
    for spec in ["none", "stream", "imp"] {
        let start = Instant::now();
        let stats = sim
            .clone()
            .prefetcher(spec)
            .run_on(&artifact)
            .expect("shared-artifact run");
        if spec == "imp" {
            replay_time = start.elapsed();
        }
        println!(
            "  {spec:>6}: runtime {:>8} cycles, throughput {:.3} IPC",
            stats.runtime,
            stats.throughput(),
        );
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "\nhost time, imp: live build+run {:.1} ms, shared-artifact run {:.1} ms, \
         build cost per cell {:.1} ms",
        ms(live_time),
        ms(replay_time),
        ms(live_time) - ms(replay_time),
    );

    // Loading gets the same artifact back, bit for bit.
    let loaded = BuiltArtifact::load(&path).expect("file round-trips");
    assert_eq!(loaded.result(), artifact.result());
    std::fs::remove_file(&path).ok();
    println!("\nround-trip verified; removed {}", path.display());
}
