//! Pins the canonical input strings the result store digests.
//!
//! A stored result is addressed by `cell_digest` of its cell's canonical
//! input, so any change to how a `Sim` or a `Sweep` cell renders that
//! string silently orphans every record already on disk. Each case
//! below digests its canonical strings, in cell order, into one value;
//! the table holds the values the rendering produced when it was
//! recorded. A failure names the case whose rendering moved.
//!
//! Sweep cells are read from their `SweepCellError::canonical`: every
//! grid runs with an event budget of one event, so each cell fails
//! right after its system is built, without simulating, while still
//! reporting the exact string the store would have digested.

use imp::common::config::DramModelKind;
use imp::experiments::{sim_for, Config};
use imp::prelude::*;
use imp::sim::Sweep;
use imp::store::cell_digest;

/// `(case, digest of its canonical strings joined by newlines)`.
const DIGESTS: &[(&str, u64)] = &[
    ("sim/template", 0xdadf2ebd71b41689),
    ("sim/with_workload", 0xd294bb5ac6ab60f6),
    ("sim/cores", 0xe6b7403c79fbd076),
    ("sim/scale", 0xf149adc8003d0e56),
    ("sim/seed", 0xb65b1759011aee5c),
    ("sim/prefetcher", 0x440d014b1d2730c1),
    ("sim/manager", 0x9e27d465f3b41cc7),
    ("sim/partial", 0xa36fe1c3338fa1c7),
    ("sim/mem_mode", 0x44dd7549cec5c2af),
    ("sim/core_model", 0x9a95a677b018fac7),
    ("sim/dram", 0x129e262c8b199e70),
    ("sim/tlb", 0x78291c0f87174599),
    ("sim/page_size", 0x6854b23dfbffb1e5),
    ("sim/tlb_ways", 0x46362a74bed5c525),
    ("sim/translation_policy", 0xfe4e89e08fe12425),
    ("sim/l2_tlb", 0x19646b264e8fda92),
    ("sim/tlb_prefetch", 0xe346fce6f5cca8f8),
    ("sim/walk_model", 0xb36fc25117ca6ba4),
    ("sim/huge_tlb", 0x78291c0f87174599),
    ("sim/page_policy", 0x8195ea3831932122),
    ("sim/page_policy_auto", 0x924750b51e45d2fd),
    ("sim/page_policies", 0x3f0637459599c791),
    ("sim/software_prefetch", 0x2a2c3300dc342151),
    ("sim/tune_imp", 0xffb0b9280227e258),
    ("sim/event_budget", 0xdadf2ebd71b41689),
    ("sim/observe", 0xdadf2ebd71b41689),
    ("sim/from_config", 0x417c422923809aa7),
    ("sim/from_config_64", 0xd57cc94583d57bf3),
    ("sim_for/Ideal/16", 0x4983ee9940000bfb),
    ("sim_for/PerfPref/16", 0x431aa5b564d73164),
    ("sim_for/Base/16", 0xf149adc8003d0e56),
    ("sim_for/Imp/16", 0x4d80595a81c6c91c),
    ("sim_for/ImpPartialNoc/16", 0xc97d75b990e0f3c7),
    ("sim_for/ImpPartialNocDram/16", 0x775f69d3cbfcf50c),
    ("sim_for/SwPref/16", 0x9b3c3e53f9b51f1e),
    ("sim_for/Ghb/16", 0x24b4cf32ae2551f9),
    ("sim_for/BaseOoo/16", 0x68174cf7e0de3842),
    ("sim_for/ImpOoo/16", 0x1574225dacd3c360),
    ("sim_for/ImpPartialOoo/16", 0x3a2989a6b4d025c0),
    ("sim_for/Ideal/64", 0x613bd8ff078896f4),
    ("sim_for/PerfPref/64", 0xf6150a31bef9eedf),
    ("sim_for/Base/64", 0xc9fdc996dd05fa45),
    ("sim_for/Imp/64", 0xc41edcee164b902d),
    ("sim_for/ImpPartialNoc/64", 0xcf8b76443147ce66),
    ("sim_for/ImpPartialNocDram/64", 0x09080395af75758f),
    ("sim_for/SwPref/64", 0xc6b56ca4900fd61d),
    ("sim_for/Ghb/64", 0x1e64a0b95450277c),
    ("sim_for/BaseOoo/64", 0x8275469a356e8cc7),
    ("sim_for/ImpOoo/64", 0x5f92e01b6491e29b),
    ("sim_for/ImpPartialOoo/64", 0xeb12378f9636f9f1),
    ("sweep/plain/template", 0xe41c9787046b1197),
    ("sweep/plain/inputs", 0x15fa3efe7f53c0a1),
    ("sweep/plain/prefetch", 0x6ce1e6c82f3f0a39),
    ("sweep/plain/tlb", 0x7a49096ce85866b1),
    ("sweep/plain/translation", 0x90d5cd0a8f3b7c21),
    ("sweep/plain/no_placement", 0x221deda5fd00308b),
    ("sweep/plain/placement", 0x1e0d5d5c5180892b),
    ("sweep/configured/template", 0x23731aa1f957c234),
    ("sweep/configured/inputs", 0x271dc871947d1c7b),
    ("sweep/configured/prefetch", 0xe4627b6cef7c8831),
    ("sweep/configured/tlb", 0x7db420132fdaa1d9),
    ("sweep/configured/translation", 0x38ca991b19161331),
    ("sweep/configured/no_placement", 0x04177cdca6713d6f),
    ("sweep/configured/placement", 0xa72157aece826441),
    ("sweep/finite_tlb/template", 0xac0e6e1481e5f041),
    ("sweep/finite_tlb/inputs", 0x36a129cca2435963),
    ("sweep/finite_tlb/prefetch", 0xad9ad88f458bf9ad),
    ("sweep/finite_tlb/tlb", 0xae964e78e083da69),
    ("sweep/finite_tlb/translation", 0xcb84c41b86ed6191),
    ("sweep/finite_tlb/no_placement", 0xac0e6e1481e5f041),
    ("sweep/finite_tlb/placement", 0x7b34cc93093eff09),
    ("sweep/from_config/template", 0x0eb0094a49c3cff0),
    ("sweep/from_config/inputs", 0x613aa445d4df2c53),
    ("sweep/from_config/prefetch", 0x529a89ae968654a5),
    ("sweep/from_config/tlb", 0x77060d28b32744b9),
    ("sweep/from_config/translation", 0xf7725c8c38913c61),
    ("sweep/from_config/no_placement", 0x33fb342a31a69160),
    ("sweep/from_config/placement", 0x2e8b998dd7afa241),
    ("sweep/rescaled/template", 0xbf60b7ee582811ba),
    ("sweep/rescaled/inputs", 0x613aa445d4df2c53),
    ("sweep/rescaled/prefetch", 0x93a8781cecdb5239),
    ("sweep/rescaled/tlb", 0x7906539bc5826dd1),
    ("sweep/rescaled/translation", 0x72712fb757220559),
    ("sweep/rescaled/no_placement", 0x4c2ce998a8fd96c2),
    ("sweep/rescaled/placement", 0x2e8b998dd7afa241),
    ("sweep/figure/template", 0x4d856bf4bcb5df8f),
    ("sweep/figure/inputs", 0x993e22a1aef55c29),
    ("sweep/figure/prefetch", 0x7216c742bdc398d1),
    ("sweep/figure/tlb", 0x719c200ef322e5f9),
    ("sweep/figure/translation", 0xd060d135131a30f9),
    ("sweep/figure/no_placement", 0x2eef40fbae94c6a3),
    ("sweep/figure/placement", 0x24150eb6e146bc51),
];

/// Checks every case against the table; one failure lists them all.
fn check(prefix: &str, cases: Vec<(String, Vec<String>)>) {
    let mut failures = Vec::new();
    for (name, canonicals) in &cases {
        let got = cell_digest(&canonicals.join("\n"));
        match DIGESTS.iter().find(|(case, _)| case == name) {
            Some(&(_, want)) if want == got => {}
            Some(&(_, want)) => failures.push(format!(
                "case {name}: digest {got:#018x}, recorded {want:#018x} (first canonical: {})",
                canonicals[0]
            )),
            None => failures.push(format!("case {name}: not in the table ({got:#018x})")),
        }
    }
    for (case, _) in DIGESTS.iter().filter(|(case, _)| case.starts_with(prefix)) {
        if !cases.iter().any(|(name, _)| name == case) {
            failures.push(format!("case {case}: in the table but never produced"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A case of one `Sim`'s canonical input.
fn one(name: impl Into<String>, sim: &Sim) -> (String, Vec<String>) {
    let canonical = sim.canonical_input().unwrap_or_else(|e| panic!("{e}"));
    (name.into(), vec![canonical])
}

/// A `from_config` base reaching fields the fluent setters cannot.
fn explicit_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(16).with_prefetcher("ghb");
    cfg.mem.hop_latency = 5;
    cfg.rob_entries = 64;
    cfg
}

#[test]
fn each_sim_setter_keeps_its_canonical_input() {
    let base = Sim::workload("spmv").scale(Scale::Tiny);
    let cases = vec![
        one("sim/template", &base),
        one("sim/with_workload", &base.clone().with_workload("pagerank")),
        one("sim/cores", &base.clone().cores(64)),
        one("sim/scale", &base.clone().scale(Scale::Small)),
        one("sim/seed", &base.clone().seed(7)),
        one("sim/prefetcher", &base.clone().prefetcher("imp")),
        one(
            "sim/manager",
            &base.clone().manager("throttle:accuracy_floor=0.4"),
        ),
        one(
            "sim/partial",
            &base.clone().partial(PartialMode::NocAndDram),
        ),
        one(
            "sim/mem_mode",
            &base.clone().mem_mode(MemMode::PerfectPrefetch),
        ),
        one(
            "sim/core_model",
            &base.clone().core_model(CoreModel::OutOfOrder),
        ),
        one("sim/dram", &base.clone().dram(DramModelKind::Ddr3)),
        one("sim/tlb", &base.clone().tlb(TlbConfig::finite())),
        one("sim/page_size", &base.clone().page_size(1 << 16)),
        one("sim/tlb_ways", &base.clone().tlb_ways(8)),
        one(
            "sim/translation_policy",
            &base
                .clone()
                .translation_policy(TranslationPolicy::NonBlockingWalk),
        ),
        one("sim/l2_tlb", &base.clone().l2_tlb(128, 8)),
        one("sim/tlb_prefetch", &base.clone().tlb_prefetch(true)),
        one(
            "sim/walk_model",
            &base.clone().walk_model(WalkModel::Cached),
        ),
        one("sim/huge_tlb", &base.clone().huge_tlb(8, 4)),
        one(
            "sim/page_policy",
            &base.clone().page_policy("x", PagePolicy::Huge2M),
        ),
        one(
            "sim/page_policy_auto",
            &base.clone().page_policy(
                "*",
                PagePolicy::Auto {
                    threshold_bytes: 1 << 20,
                },
            ),
        ),
        one(
            "sim/page_policies",
            &base
                .clone()
                .page_policies([("x", PagePolicy::Huge2M), ("row*", PagePolicy::Base4K)]),
        ),
        one("sim/software_prefetch", &base.clone().software_prefetch(16)),
        one(
            "sim/tune_imp",
            &base.clone().tune_imp(|i| {
                i.max_prefetch_distance = 8;
                i.shifts = vec![2, 3];
            }),
        ),
        // Guard rails and lenses stay out of the canonical input.
        one("sim/event_budget", &base.clone().event_budget(100)),
        one("sim/observe", &base.clone().observe(ObsConfig::metrics())),
        one(
            "sim/from_config",
            &Sim::from_config("spmv", explicit_config()),
        ),
        one(
            "sim/from_config_64",
            &Sim::from_config("spmv", explicit_config()).cores(64),
        ),
    ];
    check("sim/", cases);
}

#[test]
fn figure_driver_store_keys_are_unchanged() {
    let configs = [
        Config::Ideal,
        Config::PerfPref,
        Config::Base,
        Config::Imp,
        Config::ImpPartialNoc,
        Config::ImpPartialNocDram,
        Config::SwPref,
        Config::Ghb,
        Config::BaseOoo,
        Config::ImpOoo,
        Config::ImpPartialOoo,
    ];
    let mut cases = Vec::new();
    for cores in [16, 64] {
        for config in configs {
            // The scale is pinned so `IMP_SCALE` cannot move the key.
            let sim = sim_for("spmv", cores, config).scale(Scale::Small);
            cases.push(one(format!("sim_for/{config:?}/{cores}"), &sim));
        }
    }
    check("sim_for/", cases);
}

/// A grid shape: the axes it sweeps over a template.
type Shape = fn(Sweep) -> Sweep;

/// The canonical input of every cell of `sweep`, in cell order.
fn grid_canonicals(sweep: &Sweep) -> Vec<String> {
    let cells = sweep.cells();
    let outcomes = sweep.clone().threads(2).run_partial().unwrap();
    assert_eq!(outcomes.len(), cells.len());
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Err(e) if !e.canonical.starts_with("<unresolved") => e.canonical,
            Err(e) => panic!("cell did not resolve: {e}"),
            Ok(r) => panic!("cell ran past a one-event budget: {:?}", r.cell),
        })
        .collect()
}

#[test]
fn sweep_cells_keep_their_canonical_inputs() {
    let templates = [
        ("plain", Sim::workload("spmv").scale(Scale::Tiny)),
        (
            "configured",
            Sim::workload("spmv")
                .scale(Scale::Tiny)
                .seed(7)
                .prefetcher("imp")
                .manager("static")
                .partial(PartialMode::NocOnly)
                .mem_mode(MemMode::PerfectPrefetch)
                .core_model(CoreModel::OutOfOrder)
                .dram(DramModelKind::Ddr3)
                .page_size(8192)
                .software_prefetch(8)
                .tune_imp(|i| i.pt_entries = 32)
                .page_policy("x", PagePolicy::Huge2M),
        ),
        (
            "finite_tlb",
            Sim::workload("pagerank")
                .scale(Scale::Tiny)
                .prefetcher("imp")
                .tlb(TlbConfig::finite())
                .l2_tlb(64, 4)
                .walk_model(WalkModel::Cached),
        ),
        (
            "from_config",
            Sim::from_config("spmv", explicit_config()).scale(Scale::Tiny),
        ),
        (
            "rescaled",
            Sim::from_config("spmv", explicit_config())
                .cores(64)
                .scale(Scale::Tiny),
        ),
        (
            "figure",
            sim_for("spmv", 16, Config::ImpPartialOoo).scale(Scale::Tiny),
        ),
    ];
    let shapes: [(&str, Shape); 7] = [
        ("template", |s| s),
        ("inputs", |s| {
            s.workloads(["spmv", "pagerank"])
                .cores([16, 64])
                .prefetchers(["none", "imp"])
        }),
        ("prefetch", |s| {
            s.prefetchers(["imp", "hybrid"])
                .depths([1, 3])
                .managers(["none", "throttle:accuracy_floor=0.4"])
        }),
        ("tlb", |s| {
            s.partials([PartialMode::Off, PartialMode::NocAndDram])
                .page_sizes([4096, 1 << 16])
                .tlb_ways([2, 8])
        }),
        ("translation", |s| {
            s.translation_policies([
                TranslationPolicy::DropOnMiss,
                TranslationPolicy::NonBlockingWalk,
            ])
            .l2_tlbs([(0, 0), (64, 4)])
            .tlb_prefetches([false, true])
            .walk_models([WalkModel::Flat, WalkModel::Cached])
        }),
        ("no_placement", |s| {
            s.page_policies([Vec::<(String, PagePolicy)>::new()])
        }),
        ("placement", |s| {
            s.cores([64])
                .managers(["none", "static"])
                .page_policies([vec![], vec![("*".to_string(), PagePolicy::Huge2M)]])
        }),
    ];
    let mut cases = Vec::new();
    for (template, sim) in &templates {
        for (shape, grid) in shapes {
            let sweep = grid(Sweep::from(sim.clone().event_budget(1)));
            cases.push((format!("sweep/{template}/{shape}"), grid_canonicals(&sweep)));
        }
    }
    check("sweep/", cases);
}
