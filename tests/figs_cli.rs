//! The `imp-figs` command line: a figure prints its table, and a bad
//! argument exits with status 2 before any figure runs.

use std::process::{Command, Output};

const NAMES: [&str; 14] = [
    "fig01", "fig02", "fig09", "table3", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "ghb", "no_harm", "storage",
];

fn imp_figs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_imp-figs"))
        .args(args)
        .env("IMP_SCALE", "tiny")
        .output()
        .expect("imp-figs starts")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

#[test]
fn storage_prints_its_table() {
    let out = imp_figs(&["storage"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(text(&out.stdout).starts_with("== Section 6.4: storage cost =="));
}

#[test]
fn cores_flag_replaces_the_default() {
    let out = imp_figs(&["--cores", "4", "no_harm"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let titles: Vec<&str> = text(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("== "))
        .collect();
    assert_eq!(titles.len(), 1, "{titles:?}");
    assert!(titles[0].ends_with("4 cores =="), "{titles:?}");
}

#[test]
fn figures_leave_nothing_in_the_temp_dir() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figs-cli-tmpdir");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create the temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_imp-figs"))
        .args(["--cores", "4", "no_harm"])
        .env("IMP_SCALE", "tiny")
        .env("TMPDIR", &tmp)
        .env_remove("IMP_STORE_DIR")
        .output()
        .expect("imp-figs starts");
    assert!(out.status.success(), "{}", text(&out.stderr));
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .expect("read the temp dir")
        .map(|entry| entry.expect("temp dir entry").path())
        .collect();
    std::fs::remove_dir_all(&tmp).ok();
    assert!(left.is_empty(), "imp-figs left {left:?}");
}

#[test]
fn bad_arguments_exit_2_before_any_figure_runs() {
    for args in [
        &["--cores", "48", "fig09"][..],
        &["--cores", "16,abc", "fig09"],
        &["--cores", "", "fig09"],
        &["fig99"],
    ] {
        let out = imp_figs(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            text(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "{args:?}: {}", text(&out.stdout));
        assert!(text(&out.stderr).starts_with("imp-figs: "), "{args:?}");
    }
}

#[test]
fn unknown_figure_lists_every_name() {
    let err = imp_figs(&["fig99"]).stderr;
    for name in NAMES {
        assert!(text(&err).contains(name), "{name} missing: {}", text(&err));
    }
}
