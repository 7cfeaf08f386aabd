//! The shared-trace-artifact acceptance criteria, end to end:
//!
//! * a `Sweep` over several prefetchers builds its workload exactly once
//!   (asserted by the registry build counter) and the shared-artifact
//!   results are bit-identical to rebuilding per cell;
//! * an `.imptrace` saved from a stock workload replays — through the
//!   `trace:<path>` pseudo-workload and through `Sim::run_on` — to the
//!   same `SystemStats` as the live build;
//! * a checksum-valid trace holding ops the simulator cannot run fails
//!   to decode and to replay with typed errors instead of panicking;
//! * every `System` built from an artifact references the artifact's
//!   frozen streams instead of copying them.
//!
//! Each test uses a different workload name so the per-name build
//! counters don't interfere across this binary's parallel test threads.

use imp::prelude::*;
use imp::sim::BuildError;
use imp::trace::TraceError;
use imp::workloads::{build_count, BuiltArtifact};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("imp-it-{tag}-{}.imptrace", std::process::id()))
}

/// The headline acceptance test: ≥3 prefetchers on one workload, one
/// generator run, results identical to the rebuild-per-cell path.
#[test]
fn sweep_builds_each_input_once_with_bit_identical_stats() {
    let base = Sim::workload("tri_count").scale(Scale::Tiny).cores(16);
    let sweep = Sweep::from(base.clone()).prefetchers(["none", "stream", "imp"]);

    let before = build_count("tri_count");
    let shared = sweep.run().unwrap();
    let after = build_count("tri_count");
    assert_eq!(
        after - before,
        1,
        "3 prefetcher cells must share one generator run"
    );
    assert_eq!(shared.len(), 3);

    // Rebuild-per-cell reference: one standalone Sim per cell, each
    // paying its own workload build.
    for r in &shared {
        let rebuilt = base
            .clone()
            .prefetcher(r.cell.prefetcher.clone())
            .partial(r.cell.partial)
            .seed(r.cell.seed)
            .run()
            .unwrap();
        assert_eq!(
            r.stats, rebuilt,
            "shared-artifact stats must be bit-identical for {}",
            r.cell.prefetcher
        );
    }
    assert_eq!(
        build_count("tri_count") - after,
        3,
        "the reference path really did rebuild per cell"
    );
}

/// Saved artifacts replay to the same statistics as the live build,
/// via both `Sim::run_on` and the `trace:<path>` registry name.
#[test]
fn saved_trace_replays_to_identical_stats() {
    let sim = Sim::workload("sgd")
        .scale(Scale::Tiny)
        .cores(16)
        .prefetcher("imp");
    let artifact = sim.build_artifact().unwrap();
    let live = sim.run_on(&artifact).unwrap();

    let path = temp_path("replay");
    artifact.save(&path).unwrap();
    let loaded = BuiltArtifact::load(&path).unwrap();
    assert_eq!(loaded.result(), artifact.result());

    let from_file = sim.run_on(&loaded).unwrap();
    assert_eq!(live, from_file, "run_on(loaded artifact)");

    let via_registry = Sim::workload(format!("trace:{}", path.display()))
        .cores(16)
        .prefetcher("imp")
        .run()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(live, via_registry, "trace:<path> pseudo-workload");
}

/// Replay failures surface as typed `SimError`s, not panics, and a
/// `run_partial` grid keeps its healthy cells alongside them.
#[test]
fn replay_failures_are_per_cell_errors() {
    let missing = format!("trace:{}", temp_path("never-written").display());
    match Sim::workload(&missing).cores(16).run() {
        Err(SimError::Build(msg)) => assert!(msg.contains("i/o error"), "{msg}"),
        other => panic!("expected Build error, got {other:?}"),
    }

    // A core-count mismatch keeps its typed form through the Sim layer.
    let artifact = Sim::workload("dense")
        .scale(Scale::Tiny)
        .cores(16)
        .build_artifact()
        .unwrap();
    let path = temp_path("wrong-cores");
    artifact.save(&path).unwrap();
    let mismatched = Sim::workload(format!("trace:{}", path.display()))
        .cores(64)
        .run();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        mismatched.unwrap_err(),
        SimError::System(BuildError::CoreCountMismatch {
            program: 16,
            config: 64
        })
    );

    let outcomes = Sweep::from(Sim::workload("lsh").scale(Scale::Tiny).cores(16))
        .workloads(["lsh", missing.as_str()])
        .prefetchers(["stream", "imp"])
        .run_partial()
        .unwrap();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok(), "lsh cells run");
    for bad in &outcomes[2..] {
        let err = bad.as_ref().unwrap_err();
        assert!(
            matches!(err.error, SimError::Build(_)),
            "missing trace fails its own cells only: {err}"
        );
    }
}

/// Translation knobs are pure configuration: a sweep over
/// `tlb_ways x translation_policies` (or any other TLB axis) never
/// changes the generated input, so every cell of a (workload, cores,
/// seed) group reuses one `BuiltArtifact`.
#[test]
fn translation_axis_cells_share_one_built_artifact() {
    let sweep = Sweep::from(Sim::workload("symgs").scale(Scale::Tiny).cores(16))
        .tlb_ways([2, 4, 8])
        .translation_policies([
            TranslationPolicy::DropOnMiss,
            TranslationPolicy::NonBlockingWalk,
        ]);
    let cells = sweep.cells();
    assert_eq!(cells.len(), 6);
    let seed = cells[0].seed;
    assert!(
        cells.iter().all(|c| c.seed == seed),
        "translation axes never change the generated input"
    );

    let before = build_count("symgs");
    let results = sweep.run().unwrap();
    assert_eq!(
        build_count("symgs") - before,
        1,
        "6 translation cells must share one generator run"
    );
    assert_eq!(results.len(), 6);
    assert!(results.iter().all(|r| r.stats.tlb_total().lookups() > 0));
}

/// A frozen stream is one allocation: each system built from an
/// artifact adds a reference to it, and dropping the system releases it.
#[test]
fn systems_built_from_an_artifact_share_its_streams() {
    let sim = Sim::workload("pagerank").scale(Scale::Tiny).cores(16);
    let artifact = sim.build_artifact().unwrap();
    let stream = artifact.program().clone().stream(0);
    let before = Arc::strong_count(&stream);
    let build = || {
        let (program, mem) = (artifact.program().clone(), artifact.mem().clone());
        System::try_new(sim.config().unwrap(), program, mem).unwrap()
    };
    let a = build();
    assert_eq!(Arc::strong_count(&stream), before + 1, "shared, not copied");
    let b = build();
    assert_eq!(Arc::strong_count(&stream), before + 2);
    drop((a, b));
    assert_eq!(Arc::strong_count(&stream), before);
}

/// Per-region page placement is translation-only configuration too: a
/// `page_policies` sweep shares one `BuiltArtifact` per input, and the
/// placement the generator declared survives an `.imptrace` round trip
/// so a replayed trace honors the same `page_policy` overrides.
#[test]
fn page_policy_axis_shares_one_built_artifact_and_replays() {
    let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny).cores(16)).page_policies([
        vec![],
        vec![("x".to_string(), PagePolicy::Huge2M)],
        vec![("*".to_string(), PagePolicy::Huge2M)],
    ]);
    let before = build_count("spmv");
    let results = sweep.run().unwrap();
    assert_eq!(
        build_count("spmv") - before,
        1,
        "3 placement cells must share one generator run"
    );
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].stats.tlb_huge_total(), TlbStats::default());
    assert!(results[1].stats.tlb_huge_total().lookups() > 0);

    // A replayed trace carries the regions, so the same override runs
    // bit-identically against the recording.
    let base = Sim::workload("spmv")
        .scale(Scale::Tiny)
        .cores(16)
        .seed(results[0].cell.seed)
        .page_policy("x", PagePolicy::Huge2M);
    let path = temp_path("regions");
    base.build_artifact().unwrap().save(&path).unwrap();
    let replayed = base
        .clone()
        .with_workload(format!("trace:{}", path.display()))
        .run()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        replayed, results[1].stats,
        "placement survives record/replay"
    );
}

/// Saves `program` as a trace, then checks that decoding it fails as
/// `expected` accepts and that replaying it under IMP is a typed error.
fn check_rejected(tag: &str, program: Program, expected: fn(&TraceError) -> bool) {
    let path = temp_path(tag);
    program.save(&path).unwrap();
    let decoded = TraceFile::load(&path);
    let replayed = Sim::workload(format!("trace:{}", path.display()))
        .cores(4)
        .prefetcher("imp")
        .run();
    std::fs::remove_file(&path).ok();
    assert!(decoded.as_ref().is_err_and(expected), "{tag}: {decoded:?}");
    assert!(
        matches!(replayed, Err(SimError::Build(_))),
        "{tag}: {replayed:?}"
    );
}

/// Two checksum-valid traces the simulator cannot run. One streams
/// 3-byte index loads, which IMP reads as index values of an
/// unsupported width. The other holds a compute op of `u64::MAX - 3`
/// cycles, more than the `u32` that `Op::compute` takes, which would
/// overflow the in-order core's clock. Each is a typed error when
/// decoded, and replaying it under IMP is a typed error, not a panic.
#[test]
fn unrunnable_ops_are_typed_errors_at_decode_and_replay() {
    let mut odd_size = Program::new("odd-size", 4);
    for i in 0..256u64 {
        odd_size.core_mut(0).push(Op::load(
            Addr::new(0x1_0000 + 3 * i),
            3,
            Pc::new(1),
            AccessClass::Stream,
        ));
    }
    let mut huge_compute = Program::new("huge-compute", 4);
    let mut op = Op::compute(0);
    op.addr = u64::MAX - 3;
    huge_compute.core_mut(0).push(op);

    check_rejected("odd-size", odd_size, |e| {
        matches!(e, TraceError::BadOpSize(3))
    });
    check_rejected(
        "huge-compute",
        huge_compute,
        |e| matches!(e, TraceError::ComputeTooLong(c) if *c == u64::MAX - 3),
    );
}
