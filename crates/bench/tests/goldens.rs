//! The paper's currency, byte for byte: `figures` and a small `sim
//! validate` run print exactly the transcripts checked in under
//! `tests/golden/`, so a change that moves a page charge shows up as a
//! diff. CI compares the full `sim` run (about 3 s in release) with
//! `tests/golden/sim.out` the same way. After an intended change,
//! regenerate from the repository root, e.g.
//! `cargo run -q --release -p procdb-bench --bin figures > tests/golden/figures.out`,
//! and explain each changed line.

use std::process::Command;

fn assert_prints_golden(bin: &str, args: &[&str], golden: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert!(out.status.success(), "{bin} {args:?}: {:?}", out.status);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/");
    let want = std::fs::read_to_string(format!("{path}{golden}")).expect("golden file");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{golden}: line {} moved", i + 1);
    }
    assert_eq!(got, want, "{golden}: same lines, different length");
}

#[test]
fn figures_match_golden() {
    assert_prints_golden(env!("CARGO_BIN_EXE_figures"), &[], "figures.out");
}

#[test]
fn sim_validate_matches_golden() {
    let args = ["validate", "--scale", "20", "--ops", "400"];
    assert_prints_golden(env!("CARGO_BIN_EXE_sim"), &args, "sim_validate.out");
}
