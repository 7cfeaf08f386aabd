//! One benchmark run of one workload: a warm-up repetition that fixes
//! the reference statistics, the measured repetitions, and — for a
//! traced run — one traced repetition plus the per-layer profile.
//!
//! Every cell runs through the library's public entry points:
//! `Sim::build_artifact`, `System::try_new_placed`, `System::try_run`,
//! `Sweep::run_with` and `ResultStore`.

use crate::micro;
use crate::spans::Tracer;
use crate::stats::{geomean, median, Summary};
use crate::workload::{plan, Plan, Workload};
use imp_common::{SystemStats, TlbStats};
use imp_experiments::{Sim, Sweep, SweepCellError, SweepResult};
use imp_obs::Histogram;
use imp_sim::System;
use imp_store::{CellKey, ResultStore, StoredResult};
use imp_workloads::{BuiltArtifact, Scale};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_mips", "Minstr/ref-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_ipc", "instr/cycle"),
    ("prefetch_speedup", "x"),
    ("warm_cells_per_s", "cells/ref-s"),
];

/// Printed beside the end-to-end metrics, not gated: the host's speed,
/// and the set-up time and throughputs in plain host seconds.
const NOTES: [(&str, &str); 4] = [
    ("host_speed", "ref-s/s"),
    ("setup_s_host", "s"),
    ("sim_mips_host", "Minstr/s"),
    ("warm_cells_per_s_host", "cells/s"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.build_s", "s"),
    ("sim.construct_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events_per_kop", "events/kop"),
    ("sim.ns_per_event", "ns"),
    ("event_queue.push_pop_ns", "ns"),
    ("coherence.dir_op_ns", "ns"),
    ("noc.send_ns", "ns"),
    ("noc.messages_per_kop", "msgs/kop"),
    ("noc.flit_hops_per_kop", "flit-hops/kop"),
    ("cache.l1_access_ns", "ns"),
    ("cache.l1_miss_rate", "fraction"),
    ("prefetch.imp_on_access_ns", "ns"),
    ("prefetch.stream_on_access_ns", "ns"),
    ("prefetch.issued_per_kop", "issued/kop"),
    ("prefetch.accuracy", "fraction"),
    ("prefetch.coverage", "fraction"),
    ("prefetch.late_frac", "fraction"),
    ("cpu.stall_frac", "cycles/cycle"),
    ("dram.access_ns", "ns"),
    ("dram.bytes_per_kop", "bytes/kop"),
    ("vm.translate_hit_ns", "ns"),
    ("vm.translate_walk_ns", "ns"),
    ("vm.tlb_miss_rate", "fraction"),
    ("vm.walk_stall_frac", "fraction"),
    ("adapt.overhead", "fraction"),
    ("obs.overhead", "fraction"),
    ("obs.demand_p50", "cycles"),
    ("obs.demand_p99", "cycles"),
    ("obs.walk_p99", "cycles"),
    ("obs.use_distance_p50", "cycles"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.bytes_per_record", "bytes"),
    ("sweep.first_cell_s", "s"),
    ("sweep.scaling_2t", "x"),
    ("trace_overhead", "x"),
];

/// Fewest measured repetitions, however short `--seconds` is. At least
/// three, so the exclusive-method upper quartile never extrapolates
/// past the fastest repetition.
pub const MIN_REPS: usize = 3;

/// Length of the warm-store sample in each repetition: about a tenth
/// of a repetition of the directly run workloads, and of a `sweep`
/// repetition.
const CELLS_WARM_SAMPLE: Duration = Duration::from_millis(200);
const SWEEP_WARM_SAMPLE: Duration = Duration::from_millis(50);

/// Cold passes timed on [`SCALING_THREADS`] threads for
/// `sweep.scaling_2t`.
const SCALING_PASSES: usize = 3;
const SCALING_THREADS: usize = 2;

/// Runs of a managed cell, and of its unmanaged twin, timed for
/// `adapt.overhead`.
const ADAPT_RUNS: usize = 3;

/// What one run does.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Minimum measured time, in seconds.
    pub seconds: f64,
    /// Report the per-layer profile instead of the end-to-end metrics.
    pub trace: bool,
    /// Replaces every cell's input scale (tests use `Scale::Tiny`).
    pub scale: Option<Scale>,
    /// A directory the run may create result stores in.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value: a throughput's upper quartile, another
    /// timing's median.
    pub value: f64,
    /// The samples' summary, for a metric with several samples.
    pub summary: Option<Summary>,
}

/// The operations a run attempted and the ones that failed. An
/// operation is a cell run or a correctness check.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; records `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts one operation the run cannot go on without.
    fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        r: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            let msg = format!("{what}: {e}");
            self.failures.push(msg.clone());
            msg
        })
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Output {
    /// Every end-to-end metric or, traced, every per-layer one, in
    /// [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Ungated context for the end-to-end metrics ([`NOTES`]).
    pub notes: Vec<Metric>,
    /// The traced run's spans.
    pub trace: Option<Tracer>,
}

/// One cell run: its statistics and what it cost.
struct CellRun {
    stats: SystemStats,
    events: u64,
    construct_s: f64,
    run_s: f64,
}

/// One measured repetition.
#[derive(Default)]
struct Rep {
    /// Set-up time and throughputs in host seconds.
    setup_s: f64,
    mips: f64,
    warm_cells_per_s: f64,
    /// The same in reference seconds ([`HostSpeed`]).
    setup_ref: f64,
    mips_ref: f64,
    warm_ref: f64,
    wall_s: f64,
    /// The host's mean speed over the repetition's calibrations.
    speed: f64,
    /// Cold `Sweep` pass time (`sweep` only).
    cold_s: f64,
    /// Time to the first cell's result: the cold pass's first delivered
    /// cell (`sweep`), or the first cell's construction and run.
    first_cell_s: f64,
}

/// A workload ready to measure: its plan and the warm-up's results.
struct Bench {
    plan: Plan,
    reference: Vec<SystemStats>,
    events: Vec<u64>,
    canonicals: Vec<String>,
    work_dir: PathBuf,
    /// The store the warm path reads; `sweep` fills one per repetition.
    warm_store: Option<ResultStore>,
}

/// Runs `opts.workload` and returns its metrics; `checks` counts every
/// operation. An `Err` is a failure the run cannot go on from, already
/// recorded in `checks`.
pub fn run(opts: &Options, checks: &mut Checks) -> Result<Output, String> {
    let bench = Bench::warm_up(plan(opts.workload, opts.seed, opts.scale), opts, checks)?;
    let (sim_ipc, prefetch_speedup) = bench.modelled(checks)?;

    let start = Instant::now();
    let mut reps = vec![bench.rep(&mut Tracer::off(), checks)?];
    // The peak of one full pass: warm-up, baselines and one measured
    // repetition. Later repetitions repeat that work, and what they add
    // is allocator fragmentation that grows with the run's length.
    let peak_rss = checks.attempt("peak RSS", peak_rss_mb())?;
    while reps.len() < MIN_REPS || secs(start) < opts.seconds {
        reps.push(bench.rep(&mut Tracer::off(), checks)?);
    }
    let samples = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    if opts.trace {
        return bench.layers(&samples(|r| r.wall_s), &samples(|r| r.cold_s), checks);
    }
    let timed = |name, f: fn(&Rep) -> f64| {
        let s = Summary::of(&samples(f));
        metric(name, s.median, Some(s))
    };
    // Contention on a shared host only ever slows a repetition down, so
    // a throughput reports the upper quartile of its repetitions: the
    // faster quarter estimates the simulator's own speed, without
    // resting on the single fastest repetition.
    let fast = |name, f: fn(&Rep) -> f64| {
        let s = Summary::of(&samples(f));
        metric(name, s.q3, Some(s))
    };
    let notes = vec![
        timed("host_speed", |r| r.speed),
        timed("setup_s_host", |r| r.setup_s),
        fast("sim_mips_host", |r| r.mips),
        fast("warm_cells_per_s_host", |r| r.warm_cells_per_s),
    ];
    let metrics = vec![
        fast("sim_mips", |r| r.mips_ref),
        timed("setup_s", |r| r.setup_ref),
        metric("peak_rss_mb", peak_rss, None),
        metric("sim_ipc", sim_ipc, None),
        metric("prefetch_speedup", prefetch_speedup, None),
        fast("warm_cells_per_s", |r| r.warm_ref),
    ];
    Ok(Output {
        metrics,
        notes,
        trace: None,
    })
}

/// A metric by its name in [`END_TO_END`], [`PER_LAYER`] or [`NOTES`].
fn metric(name: &'static str, value: f64, summary: Option<Summary>) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&NOTES)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .expect("every reported metric is listed");
    Metric {
        name,
        unit,
        value,
        summary,
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Calibration-loop iterations in one *reference second*: about a
/// second of a 2 GHz-class x86-64 core.
const REF_ITERS_PER_S: f64 = 6.0e8;

/// Calibration iterations timed on either side of each timed section:
/// about 15 ms.
const CALIB_ITERS: u64 = 10_000_000;

/// A fixed integer loop bound by the latency of one dependency chain,
/// so neither the code around it nor its alignment changes its speed.
#[inline(never)]
fn calibration_loop(iters: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..iters {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(i ^ (x >> 17));
    }
    x
}

/// The host's current speed, in reference seconds of calibration work
/// per host second.
fn host_speed() -> f64 {
    let t = Instant::now();
    std::hint::black_box(calibration_loop(std::hint::black_box(CALIB_ITERS)));
    CALIB_ITERS as f64 / REF_ITERS_PER_S / secs(t)
}

/// The host's speed around a repetition's timed sections. A shared
/// host's speed drifts by several percent within seconds, so it is
/// calibrated between sections, and a section's throughput is divided
/// by the mean of the speeds measured just before and just after it.
struct HostSpeed {
    last: f64,
    sum: f64,
    n: usize,
}

impl HostSpeed {
    /// Calibrates before the first section.
    fn start() -> HostSpeed {
        let last = host_speed();
        HostSpeed {
            last,
            sum: last,
            n: 1,
        }
    }

    /// The mean speed over the section that has just ended.
    fn around(&mut self) -> f64 {
        let now = host_speed();
        let speed = (self.last + now) / 2.0;
        self.last = now;
        self.sum += now;
        self.n += 1;
        speed
    }

    /// The mean of every calibration so far.
    fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Builds `sim`'s system over `artifact`. Benchmark cells set no
/// page-policy overrides, so the huge-page extents are the regions'
/// declared policies, as `Sim::run_on` resolves them.
fn construct(sim: &Sim, artifact: &BuiltArtifact) -> Result<System, String> {
    let cfg = sim.config().map_err(|e| e.to_string())?;
    let huge: Vec<(u64, u64)> = artifact
        .regions()
        .iter()
        .filter(|r| r.policy.is_huge_for(r.bytes))
        .map(|r| (r.base, r.bytes))
        .collect();
    System::try_new_placed(
        cfg,
        artifact.program().clone(),
        artifact.mem().clone(),
        &huge,
    )
    .map_err(|e| e.to_string())
}

/// Runs a constructed system inside a span named `name`.
fn simulate(
    mut system: System,
    tr: &mut Tracer,
    name: &'static str,
    cell: usize,
) -> Result<CellRun, String> {
    let t = Instant::now();
    let stats = tr.span(name, Some(cell), || system.try_run());
    let run_s = secs(t);
    Ok(CellRun {
        stats: stats.map_err(|e| e.to_string())?,
        events: system.events_processed(),
        construct_s: 0.0,
        run_s,
    })
}

/// Constructs and runs one cell, spanning both steps.
fn run_cell(
    sim: &Sim,
    artifact: &BuiltArtifact,
    tr: &mut Tracer,
    cell: usize,
) -> Result<CellRun, String> {
    let t = Instant::now();
    let system = tr.span("sim.construct", Some(cell), || construct(sim, artifact))?;
    let construct_s = secs(t);
    let run = simulate(system, tr, "sim.run", cell)?;
    Ok(CellRun { construct_s, ..run })
}

/// The ledger identities a cell's statistics must satisfy; returns the
/// violated ones.
fn identity_violations(stats: &SystemStats) -> Vec<String> {
    // `evictions == misses + prefetch_walks - cold_fills`, as `TlbStats`
    // documents, rearranged to stay unsigned.
    let tlb_ok = |t: &TlbStats| t.evictions + t.cold_fills == t.misses + t.prefetch_walks;
    let mut bad = Vec::new();
    for (i, t) in stats.tlb.iter().chain(&stats.tlb_huge).enumerate() {
        if !tlb_ok(t) {
            bad.push(format!("dTLB ledger {i}: {t:?}"));
        }
    }
    if !tlb_ok(&stats.tlb_l2) {
        bad.push(format!("L2 TLB ledger: {:?}", stats.tlb_l2));
    }
    for (c, s) in stats.cores.iter().enumerate() {
        if s.l1_accesses != s.l1_hits + s.total_misses() {
            bad.push(format!("core {c}: L1 accesses != hits + misses"));
        }
    }
    bad
}

/// The store record of a cell's result.
fn record(sim: &Sim, canonical: &str, stats: &SystemStats) -> Result<StoredResult, String> {
    let cfg = sim.config().map_err(|e| e.to_string())?;
    Ok(StoredResult {
        canonical: canonical.to_string(),
        cell: CellKey {
            workload: sim.workload_name().to_string(),
            cores: cfg.cores,
            prefetcher: cfg.prefetcher,
            manager: cfg.manager,
            partial: cfg.partial,
            tlb: cfg.tlb,
            page_policy: sim.page_policy_overrides().to_vec(),
            seed: sim.seed_value(),
        },
        stats: stats.clone(),
    })
}

impl Bench {
    /// The untimed warm-up repetition: builds every input, runs every
    /// cell once, checks each cell's identities, and keeps the results
    /// every later repetition must reproduce.
    fn warm_up(plan: Plan, opts: &Options, checks: &mut Checks) -> Result<Bench, String> {
        let mut bench = Bench {
            plan,
            reference: Vec::new(),
            events: Vec::new(),
            canonicals: Vec::new(),
            work_dir: opts.work_dir.clone(),
            warm_store: None,
        };
        let (artifacts, _) = bench.build_inputs(&mut Tracer::off(), checks)?;
        for (i, cell) in bench.plan.cells.iter().enumerate() {
            let run = run_cell(&cell.sim, &artifacts[cell.input], &mut Tracer::off(), i);
            let run = checks.attempt(&cell.label, run)?;
            let bad = identity_violations(&run.stats);
            checks.check(bad.is_empty(), || {
                format!("{}: {}", cell.label, bad.join("; "))
            });
            let canonical = checks.attempt(&cell.label, cell.sim.canonical_input())?;
            bench.canonicals.push(canonical);
            bench.reference.push(run.stats);
            bench.events.push(run.events);
        }
        drop(artifacts);
        if bench.plan.grid.is_some() {
            // The sweep's own path (threads, store writes) warms up too.
            bench.rep(&mut Tracer::off(), checks)?;
        } else {
            let store = bench.fresh_store("warm", checks)?;
            for (i, cell) in bench.plan.cells.iter().enumerate() {
                let rec = record(&cell.sim, &bench.canonicals[i], &bench.reference[i])?;
                checks.attempt(&cell.label, store.put(&rec))?;
            }
            bench.warm_store = Some(store);
        }
        Ok(bench)
    }

    /// The modelled design's metrics: the geometric means over cells of
    /// simulated IPC, and of cycles with no prefetcher over cycles with
    /// the cell's. Baselines that are not cells themselves run once,
    /// untimed.
    fn modelled(&self, checks: &mut Checks) -> Result<(f64, f64), String> {
        let mut runtime: HashMap<String, u64> = self
            .canonicals
            .iter()
            .cloned()
            .zip(self.reference.iter().map(|s| s.runtime))
            .collect();
        let mut artifacts = None;
        let mut speedups = Vec::new();
        for (i, cell) in self.plan.cells.iter().enumerate() {
            let canonical = checks.attempt(&cell.label, cell.baseline.canonical_input())?;
            if !runtime.contains_key(&canonical) {
                if artifacts.is_none() {
                    artifacts = Some(self.build_inputs(&mut Tracer::off(), checks)?.0);
                }
                let art = &artifacts.as_ref().expect("built above")[cell.input];
                let run = run_cell(&cell.baseline, art, &mut Tracer::off(), i);
                let base = checks.attempt(&cell.label, run)?.stats.runtime;
                runtime.insert(canonical.clone(), base);
            }
            speedups.push(runtime[&canonical] as f64 / self.reference[i].runtime as f64);
        }
        let ipc: Vec<f64> = self.reference.iter().map(SystemStats::throughput).collect();
        Ok((geomean(&ipc), geomean(&speedups)))
    }

    /// Builds every input of the plan; returns the artifacts and the
    /// time taken.
    fn build_inputs(
        &self,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<(Vec<BuiltArtifact>, f64), String> {
        let t = Instant::now();
        let mut artifacts = Vec::with_capacity(self.plan.inputs.len());
        for sim in &self.plan.inputs {
            let built = tr.span("workloads.build", None, || sim.build_artifact());
            artifacts.push(checks.attempt(sim.workload_name(), built)?);
        }
        Ok((artifacts, secs(t)))
    }

    /// An empty result store under the run's `work_dir`.
    fn fresh_store(&self, name: &str, checks: &mut Checks) -> Result<ResultStore, String> {
        let dir = self.work_dir.join(name);
        if dir.exists() {
            checks.attempt("clearing a store", std::fs::remove_dir_all(&dir))?;
        }
        checks.attempt("opening a store", ResultStore::open(dir))
    }

    /// One repetition: set-up (build every input, construct every
    /// system), the simulations, and a warm-store sample.
    fn rep(&self, tr: &mut Tracer, checks: &mut Checks) -> Result<Rep, String> {
        let mut speed = HostSpeed::start();
        let t = Instant::now();
        tr.open("rep", None);
        let (artifacts, build_s) = self.build_inputs(tr, checks)?;
        let build_ref = build_s * speed.around();
        let mut rep = match &self.plan.grid {
            None => self.cells_rep(&artifacts, &mut speed, tr, checks)?,
            Some(grid) => self.sweep_rep(grid, artifacts, &mut speed, tr, checks)?,
        };
        tr.close();
        rep.setup_s += build_s;
        rep.setup_ref += build_ref;
        rep.wall_s = secs(t);
        rep.speed = speed.mean();
        Ok(rep)
    }

    /// The body of a repetition that runs each cell directly.
    fn cells_rep(
        &self,
        artifacts: &[BuiltArtifact],
        speed: &mut HostSpeed,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let (mut run_s, mut ref_run_s, mut instructions) = (0.0, 0.0, 0u64);
        for (i, cell) in self.plan.cells.iter().enumerate() {
            tr.open("cell", Some(i));
            let run = run_cell(&cell.sim, &artifacts[cell.input], tr, i);
            tr.close();
            let run = checks.attempt(&cell.label, run)?;
            let around = speed.around();
            checks.check(run.stats == self.reference[i], || {
                format!(
                    "{}: a repetition's statistics differ from the warm-up's",
                    cell.label
                )
            });
            if i == 0 {
                rep.first_cell_s = run.construct_s + run.run_s;
            }
            rep.setup_s += run.construct_s;
            rep.setup_ref += run.construct_s * around;
            run_s += run.run_s;
            ref_run_s += run.run_s * around;
            instructions += run.stats.total_instructions();
        }
        let store = self.warm_store.as_ref().expect("warm-up opened the store");
        tr.open("store.warm", None);
        let warm = self.warm_sample(store, checks);
        tr.close();
        rep.warm_cells_per_s = warm?;
        rep.warm_ref = rep.warm_cells_per_s / speed.around();
        let mips = instructions as f64 / 1e6;
        rep.mips = mips / run_s;
        rep.mips_ref = mips / ref_run_s;
        Ok(rep)
    }

    /// Serves every cell from `store`, as `Sweep::run_with` serves a hit
    /// (resolve the canonical input, then `get`), until a sample's worth
    /// of time has passed; returns cells served per second.
    fn warm_sample(&self, store: &ResultStore, checks: &mut Checks) -> Result<f64, String> {
        let t = Instant::now();
        let (mut served, mut equal) = (0usize, true);
        let mut serve = || -> Result<(), String> {
            while served == 0 || t.elapsed() < CELLS_WARM_SAMPLE {
                for (cell, reference) in self.plan.cells.iter().zip(&self.reference) {
                    let canonical = cell.sim.canonical_input().map_err(|e| e.to_string())?;
                    let hit = store.get(&canonical).map_err(|e| e.to_string())?;
                    equal &= hit.is_some_and(|r| r.stats == *reference);
                }
                served += self.plan.cells.len();
            }
            Ok(())
        };
        checks.attempt("warm store", serve())?;
        let rate = served as f64 / secs(t);
        checks.check(equal, || "the warm store served other statistics".into());
        Ok(rate)
    }

    /// The body of a `sweep` repetition: construct every cell's system
    /// (set-up), one cold pass into an empty store, then warm passes
    /// served from it.
    fn sweep_rep(
        &self,
        grid: &Sweep,
        artifacts: Vec<BuiltArtifact>,
        speed: &mut HostSpeed,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Rep, String> {
        let store = self.fresh_store("cold", checks)?;
        let t = Instant::now();
        for (i, cell) in self.plan.cells.iter().enumerate() {
            let system = tr.span("sim.construct", Some(i), || {
                construct(&cell.sim, &artifacts[cell.input])
            });
            checks.attempt(&cell.label, system)?;
        }
        let construct_s = secs(t);
        let construct_ref = construct_s * speed.around();
        drop(artifacts);

        let n = self.reference.len();
        let (t, mut first) = (Instant::now(), None);
        let cold = tr.span("sweep.cold", None, || {
            grid.run_with(&store, |_| {
                first.get_or_insert_with(|| secs(t));
            })
        });
        let cold_s = secs(t);
        let cold_speed = speed.around();
        let cold = checks.attempt("cold sweep", cold)?;
        checks.check(cold.simulated == n && cold.failed == 0, || {
            format!(
                "cold sweep simulated {} of {n} cells, {} failed",
                cold.simulated, cold.failed
            )
        });
        checks.check(cold.store_error.is_none(), || {
            format!("cold sweep store write: {:?}", cold.store_error)
        });
        checks.check(self.matches_reference(&cold.results), || {
            "cold sweep results differ from the direct runs".into()
        });

        let (t, mut passes) = (Instant::now(), 0);
        while passes == 0 || t.elapsed() < SWEEP_WARM_SAMPLE {
            let warm = tr.span("sweep.warm", None, || grid.run_with(&store, |_| {}));
            let warm = checks.attempt("warm sweep", warm)?;
            checks.check(
                warm.simulated == 0 && warm.cached == n && self.matches_reference(&warm.results),
                || {
                    format!(
                        "warm sweep simulated {} cells or served other statistics",
                        warm.simulated
                    )
                },
            );
            passes += 1;
        }
        let warm_cells_per_s = (passes * n) as f64 / secs(t);
        let mips = self
            .reference
            .iter()
            .map(SystemStats::total_instructions)
            .sum::<u64>() as f64
            / 1e6;
        Ok(Rep {
            setup_s: construct_s,
            setup_ref: construct_ref,
            mips: mips / cold_s,
            mips_ref: mips / (cold_s * cold_speed),
            warm_cells_per_s,
            warm_ref: warm_cells_per_s / speed.around(),
            cold_s,
            first_cell_s: first.unwrap_or(cold_s),
            ..Rep::default()
        })
    }

    fn matches_reference(&self, results: &[Result<SweepResult, SweepCellError>]) -> bool {
        results.len() == self.reference.len()
            && results
                .iter()
                .zip(&self.reference)
                .all(|(r, s)| r.as_ref().is_ok_and(|r| r.stats == *s))
    }

    /// The traced repetition and the per-layer profile. `walls` and
    /// `colds` are the measured repetitions' wall and cold-pass times.
    fn layers(&self, walls: &[f64], colds: &[f64], checks: &mut Checks) -> Result<Output, String> {
        let mut tr = Tracer::new();
        let traced = self.rep(&mut tr, checks)?;
        let (artifacts, _) = self.build_inputs(&mut Tracer::off(), checks)?;
        let cells = &self.plan.cells;

        if self.plan.grid.is_some() {
            // The sweep runs its cells inside the library; run them
            // directly too, for the simulator's own layers.
            tr.open("direct", None);
            for (i, cell) in cells.iter().enumerate() {
                let system =
                    checks.attempt(&cell.label, construct(&cell.sim, &artifacts[cell.input]))?;
                let run = checks.attempt(&cell.label, simulate(system, &mut tr, "sim.run", i))?;
                checks.check(run.stats == self.reference[i], || {
                    format!("{}: direct run differs", cell.label)
                });
            }
            tr.close();
        }

        // Observation: each cell bare through `Sim::run_on`, then
        // observed; neither may change a statistic.
        let mut hists = [Histogram::new(), Histogram::new(), Histogram::new()];
        tr.open("obs", None);
        for (i, cell) in cells.iter().enumerate() {
            let art = &artifacts[cell.input];
            let bare = tr.span("obs.bare", Some(i), || cell.sim.run_on(art));
            let bare = checks.attempt(&cell.label, bare)?;
            let observed = tr.span("obs.run", Some(i), || cell.sim.run_observed_on(art));
            let (stats, report) = checks.attempt(&cell.label, observed)?;
            checks.check(
                bare == self.reference[i] && stats == self.reference[i],
                || {
                    format!(
                        "{}: Sim::run_on or an observed run differs from the direct run",
                        cell.label
                    )
                },
            );
            checks.check(report.reconciles_per_hop(), || {
                format!(
                    "{}: the prefetch ledger does not reconcile per hop",
                    cell.label
                )
            });
            hists[0].merge(&report.demand_latency);
            hists[1].merge(&report.walk_latency);
            hists[2].merge(&report.use_distance);
        }
        tr.close();

        // Adaptive management: each managed cell against its unmanaged
        // twin, alternating.
        let (mut managed, mut unmanaged) = (0.0, 0.0);
        tr.open("adapt", None);
        for (i, cell) in cells.iter().enumerate() {
            let Some(twin) = &cell.unmanaged else {
                continue;
            };
            let art = &artifacts[cell.input];
            let (mut m, mut u) = (Vec::new(), Vec::new());
            for _ in 0..ADAPT_RUNS {
                for (sim, name, times) in [
                    (&cell.sim, "adapt.managed", &mut m),
                    (twin, "adapt.unmanaged", &mut u),
                ] {
                    let system = checks.attempt(&cell.label, construct(sim, art))?;
                    times.push(
                        checks
                            .attempt(&cell.label, simulate(system, &mut tr, name, i))?
                            .run_s,
                    );
                }
            }
            managed += median(&m);
            unmanaged += median(&u);
        }
        tr.close();
        drop(artifacts);

        // The store: every cell's record into an empty store, then read
        // back.
        let store = self.fresh_store("layers", checks)?;
        let mut bytes = 0usize;
        tr.open("store", None);
        for (i, cell) in cells.iter().enumerate() {
            let rec = record(&cell.sim, &self.canonicals[i], &self.reference[i])?;
            bytes += rec.to_bytes().len();
            let put = tr.span("store.put", Some(i), || store.put(&rec));
            checks.attempt(&cell.label, put)?;
        }
        for (i, cell) in cells.iter().enumerate() {
            let got = tr.span("store.get", Some(i), || store.get(&self.canonicals[i]));
            let got = checks.attempt(&cell.label, got)?;
            checks.check(got.is_some_and(|r| r.stats == self.reference[i]), || {
                format!("{}: the store returned other statistics", cell.label)
            });
        }
        tr.close();

        // Thread scaling: the measured cold passes against passes on
        // more worker threads.
        let mut scaling = 0.0;
        if let Some(grid) = &self.plan.grid {
            let wide = grid.clone().threads(SCALING_THREADS);
            let mut times = Vec::new();
            tr.open("scaling", None);
            for _ in 0..SCALING_PASSES {
                let store = self.fresh_store("cold", checks)?;
                let t = Instant::now();
                let report = tr.span("sweep.cold_wide", None, || wide.run_with(&store, |_| {}));
                times.push(secs(t));
                let report = checks.attempt("multi-thread sweep", report)?;
                checks.check(self.matches_reference(&report.results), || {
                    "multi-thread sweep results differ".into()
                });
            }
            tr.close();
            scaling = median(colds) / median(&times);
        }

        let own = tr.self_seconds();
        let span_s = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let events: u64 = self.events.iter().sum();
        let micro_ns: HashMap<&str, Summary> = micro::all().into_iter().collect();
        let mut values: HashMap<&str, f64> = micro_ns.iter().map(|(&n, s)| (n, s.median)).collect();
        values.extend(counts(&self.reference, events));
        let quantile = |h: &Histogram, q| h.quantile(q).map_or(0.0, |c| c as f64);
        let overhead = |with: f64, without: f64| {
            if without > 0.0 {
                with / without - 1.0
            } else {
                0.0
            }
        };
        values.extend([
            ("workloads.build_s", span_s("workloads.build")),
            ("sim.construct_s", span_s("sim.construct")),
            ("sim.run_s", span_s("sim.run")),
            (
                "sim.ns_per_event",
                ratio(span_s("sim.run") * 1e9, events as f64),
            ),
            ("adapt.overhead", overhead(managed, unmanaged)),
            (
                "obs.overhead",
                overhead(span_s("obs.run"), span_s("obs.bare")),
            ),
            ("obs.demand_p50", quantile(&hists[0], 0.5)),
            ("obs.demand_p99", quantile(&hists[0], 0.99)),
            ("obs.walk_p99", quantile(&hists[1], 0.99)),
            ("obs.use_distance_p50", quantile(&hists[2], 0.5)),
            ("store.get_s", span_s("store.get")),
            ("store.put_s", span_s("store.put")),
            ("store.bytes_per_record", bytes as f64 / cells.len() as f64),
            ("sweep.first_cell_s", traced.first_cell_s),
            ("sweep.scaling_2t", scaling),
            ("trace_overhead", traced.wall_s / median(walls)),
        ]);
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, _)| metric(name, values[name], micro_ns.get(name).copied()))
            .collect();
        Ok(Output {
            metrics,
            notes: Vec::new(),
            trace: Some(tr),
        })
    }
}

/// The per-layer metrics counted from the cells' statistics, summed over
/// cells. `events` is the cells' total simulator events.
fn counts(stats: &[SystemStats], events: u64) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&SystemStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let cores = |f: fn(&imp_common::CoreStats) -> u64| sum(&|s| s.cores.iter().map(f).sum());
    let kop = sum(&|s| s.total_instructions()) / 1e3;
    let cycles = cores(|c| c.done_cycle);
    let pf = |f: fn(&imp_common::PrefetchStats) -> u64| sum(&|s| f(&s.prefetch_total()));
    let (useful, unused) = (pf(|p| p.useful), pf(|p| p.unused));
    let (covered, late) = (pf(|p| p.covered), pf(|p| p.late));
    let misses = cores(|c| c.total_misses());
    let tlb = |f: fn(&TlbStats) -> u64| sum(&|s| f(&s.tlb_total()));
    vec![
        ("sim.events_per_kop", ratio(events as f64, kop)),
        (
            "noc.messages_per_kop",
            ratio(sum(&|s| s.traffic.noc_messages), kop),
        ),
        (
            "noc.flit_hops_per_kop",
            ratio(sum(&|s| s.traffic.noc_flit_hops), kop),
        ),
        (
            "cache.l1_miss_rate",
            ratio(misses, cores(|c| c.l1_accesses)),
        ),
        ("prefetch.issued_per_kop", ratio(pf(|p| p.issued()), kop)),
        ("prefetch.accuracy", ratio(useful, useful + unused)),
        (
            "prefetch.coverage",
            ratio(covered + late, covered + late + misses),
        ),
        ("prefetch.late_frac", ratio(late, covered + late)),
        ("cpu.stall_frac", ratio(cores(|c| c.total_stall()), cycles)),
        (
            "dram.bytes_per_kop",
            ratio(sum(&|s| s.traffic.dram_bytes()), kop),
        ),
        (
            "vm.tlb_miss_rate",
            ratio(tlb(|t| t.misses), tlb(TlbStats::lookups)),
        ),
        (
            "vm.walk_stall_frac",
            ratio(cores(|c| c.walk_stall_cycles), cycles),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::CoreStats;

    #[test]
    fn identity_check_catches_broken_ledgers() {
        let tlb = TlbStats {
            misses: 10,
            prefetch_walks: 2,
            cold_fills: 4,
            evictions: 8,
            ..TlbStats::default()
        };
        let core = CoreStats {
            l1_accesses: 10,
            l1_hits: 7,
            l1_misses: [1, 1, 1],
            ..CoreStats::default()
        };
        let good = SystemStats {
            cores: vec![core.clone()],
            tlb: vec![tlb.clone()],
            tlb_l2: tlb.clone(),
            ..SystemStats::default()
        };
        assert!(identity_violations(&good).is_empty());

        let mut bad = good.clone();
        bad.tlb_huge = vec![TlbStats {
            evictions: 9,
            ..tlb.clone()
        }];
        bad.tlb_l2.evictions = 7;
        bad.cores[0].l1_hits = 6;
        assert_eq!(
            identity_violations(&bad).len(),
            3,
            "{:?}",
            identity_violations(&bad)
        );
    }
}
