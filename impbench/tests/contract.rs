//! The benchmark against its contract: `BENCHMARK.json` lists exactly
//! the metrics and workloads the binary knows, every workload passes
//! its checks at tiny scale, and the seed alone decides the inputs.

use imp_workloads::Scale;
use impbench::run::{run, Checks, Options, END_TO_END, PER_LAYER};
use impbench::workload::{plan, Workload};
use std::path::PathBuf;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"key": "value"` strings inside the JSON array under `section`
/// (the arrays hold flat objects, so the first `]` closes them).
fn strings_in(section: &str, key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    body.split(&format!("\"{key}\": \""))
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("the string closes")].to_string())
        .collect()
}

fn listed(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn declared(section: &str) -> Vec<(String, String)> {
    strings_in(section, "name")
        .into_iter()
        .zip(strings_in(section, "unit"))
        .collect()
}

fn options(workload: Workload, seed: u64, trace: bool) -> Options {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("impbench-{}-{seed}-{trace}", workload.name()));
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Some(Scale::Tiny),
        work_dir,
    }
}

/// Runs one tiny workload and returns its metrics by name, failing the
/// test on any failed check.
fn tiny_run(workload: Workload, seed: u64, trace: bool) -> Vec<(String, String, f64)> {
    let opts = options(workload, seed, trace);
    let mut checks = Checks::default();
    let out = run(&opts, &mut checks);
    std::fs::remove_dir_all(&opts.work_dir).ok();
    let out = out.unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        checks.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        checks.failures
    );
    assert!(checks.attempted > 0);
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.value))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
    assert_eq!(declared("end_to_end"), listed(&END_TO_END));
    assert_eq!(declared("per_layer"), listed(&PER_LAYER));
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(strings_in("workloads", "name"), names);
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let metrics = tiny_run(w, 7, false);
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(emitted, declared("end_to_end"), "{}", w.name());
        for (name, _, v) in &metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for w in [Workload::Translate, Workload::Sweep] {
        let metrics = tiny_run(w, 7, true);
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(emitted, declared("per_layer"), "{}", w.name());
        for (name, unit, v) in &metrics {
            if unit == "s" || unit == "ns" {
                assert!(
                    *v > 0.0,
                    "{}: every timing is measured, {name} = {v}",
                    w.name()
                );
            }
        }
        let value = |name: &str| {
            metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("emitted")
                .2
        };
        match w {
            Workload::Translate => assert!(value("vm.tlb_miss_rate") > 0.0, "finite TLB misses"),
            _ => assert!(
                value("sweep.scaling_2t") > 0.0,
                "the grid runs on one and two threads"
            ),
        }
    }
}

#[test]
fn the_seed_alone_decides_the_simulated_statistics() {
    let stats = |seed| -> Vec<_> {
        plan(Workload::Indirect, seed, Some(Scale::Tiny))
            .cells
            .iter()
            .map(|c| c.sim.run().expect("tiny cells run"))
            .collect()
    };
    let a = stats(1);
    assert_eq!(a, stats(1), "same seed, same statistics");
    assert_ne!(a, stats(2), "another seed generates other inputs");

    let modelled = |seed| -> Vec<f64> {
        tiny_run(Workload::Compute, seed, false)
            .into_iter()
            .filter(|(n, _, _)| n == "sim_ipc" || n == "prefetch_speedup")
            .map(|(_, _, v)| v)
            .collect()
    };
    assert_eq!(modelled(3), modelled(3));
}

#[test]
fn sweep_cells_share_one_input_per_kernel_and_core_count() {
    let p = plan(Workload::Sweep, 5, None);
    assert_eq!(p.cells.len(), 48);
    assert_eq!(p.inputs.len(), 16);
    let grid = p.grid.expect("the sweep workload runs a grid");
    assert_eq!(grid.cells().len(), p.cells.len());
}
