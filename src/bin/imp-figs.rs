//! `imp-figs` — prints the paper's evaluation artifacts.
//!
//! ```text
//! imp-figs [--cores N[,N...]] <figure>... | all
//! ```
//!
//! Each figure runs its `imp::experiments` driver and prints the table.
//! `fig09` and `fig11` default to the paper's 16, 64 and 256 cores (one
//! panel each), `storage` simulates nothing, and every other figure
//! runs at 64 cores. `--cores` replaces the default of every figure
//! that simulates. `IMP_SCALE` sets the input size and `IMP_STORE_DIR`
//! the result store, as for the drivers themselves. Figures share
//! cells, so with `IMP_STORE_DIR` unset the run uses a scratch store in
//! the temp directory and removes it before it exits, also when a figure
//! panics.
//!
//! Every argument is checked before any figure runs; a bad one prints
//! the reason and the usage to stderr and exits with status 2.

use imp::experiments::{self as ex, SweepParam, Table, CORE_COUNTS};
use imp::sim::Sim;
use std::path::PathBuf;

/// How a figure makes its tables.
enum Driver {
    /// One table per core count: the listed defaults, or `--cores`.
    Cores(&'static [u32], fn(u32) -> Table),
    /// One table that simulates nothing.
    Fixed(fn() -> Table),
}

/// The artifacts in paper order.
static FIGURES: [(&str, Driver); 14] = [
    ("fig01", Driver::Cores(&[64], ex::fig01_miss_breakdown)),
    ("fig02", Driver::Cores(&[64], ex::fig02_motivation)),
    ("fig09", Driver::Cores(&CORE_COUNTS, ex::fig09_performance)),
    ("table3", Driver::Cores(&[64], ex::table3_effectiveness)),
    ("fig10", Driver::Cores(&[64], ex::fig10_sw_overhead)),
    ("fig11", Driver::Cores(&CORE_COUNTS, ex::fig11_partial)),
    ("fig12", Driver::Cores(&[64], ex::fig12_traffic)),
    ("fig13", Driver::Cores(&[64], ex::fig13_ooo)),
    (
        "fig14",
        Driver::Cores(&[64], |c| ex::sensitivity(c, SweepParam::PtSize)),
    ),
    (
        "fig15",
        Driver::Cores(&[64], |c| ex::sensitivity(c, SweepParam::IpdSize)),
    ),
    (
        "fig16",
        Driver::Cores(&[64], |c| ex::sensitivity(c, SweepParam::Distance)),
    ),
    ("ghb", Driver::Cores(&[64], ex::ghb_comparison)),
    ("no_harm", Driver::Cores(&[64], ex::no_harm)),
    ("storage", Driver::Fixed(ex::storage_cost_table)),
];

/// Prints `why` and the usage to stderr and exits with status 2.
fn fail(why: &str) -> ! {
    eprintln!("imp-figs: {why}");
    eprintln!("usage: imp-figs [--cores N[,N...]] <figure>... | all");
    let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    eprintln!("figures: {}", names.join(" "));
    std::process::exit(2);
}

/// Parses a `--cores` list. Each count goes through `Sim::config`, which
/// rejects a count the mesh cannot take, so a bad count fails here
/// instead of inside a worker thread.
fn parse_cores(list: &str) -> Vec<u32> {
    list.split(',')
        .map(|token| {
            let n: u32 = token
                .trim()
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad core count {token:?} in --cores")));
            if let Err(e) = Sim::workload("spmv").cores(n).config() {
                fail(&e.to_string());
            }
            n
        })
        .collect()
}

/// A result store this process made; dropping it deletes the directory.
struct ScratchStore(PathBuf);

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let mut cores: Option<Vec<u32>> = None;
    let mut figures: Vec<&Driver> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--cores" => {
                let list = argv.next().unwrap_or_else(|| fail("--cores needs a value"));
                cores = Some(parse_cores(&list));
            }
            "all" => figures.extend(FIGURES.iter().map(|(_, driver)| driver)),
            flag if flag.starts_with('-') => fail(&format!("unknown option {flag:?}")),
            name => match FIGURES.iter().find(|&&(n, _)| n == name) {
                Some((_, driver)) => figures.push(driver),
                None => fail(&format!("unknown figure {name:?}")),
            },
        }
    }
    if figures.is_empty() {
        fail("no figure named");
    }
    // Set before the first figure opens the drivers' store.
    let _scratch = std::env::var_os("IMP_STORE_DIR").is_none().then(|| {
        let dir = std::env::temp_dir().join(format!("imp-figs-{}", std::process::id()));
        std::env::set_var("IMP_STORE_DIR", &dir);
        ScratchStore(dir)
    });
    for driver in figures {
        match *driver {
            Driver::Cores(defaults, table) => {
                for &n in cores.as_deref().unwrap_or(defaults) {
                    println!("{}", table(n));
                }
            }
            Driver::Fixed(table) => println!("{}", table()),
        }
    }
}
