//! End-to-end test of the `procdb-cli` binary: feed it a script on stdin
//! and check the transcript, exactly as a user would drive it.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_script(script: &str) -> String {
    // Cargo builds the binary for this test and hands over its path.
    let path = env!("CARGO_BIN_EXE_procdb-cli");
    let mut child = Command::new(path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {path:?}: {e}"));
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("cli runs");
    assert!(out.status.success(), "cli exited with {:?}", out.status);
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const SCRIPT: &str = r#"
create table EMP (eid int, dept int, job bytes 12) btree eid
create table DEPT (dname int, floor int) hash dname
insert DEPT (0, 1)
insert DEPT (1, 2)
insert EMP (1, 0, "Programmer")
insert EMP (2, 0, "Clerk")
insert EMP (3, 1, "Programmer")
define view PROGS1 (EMP.all, DEPT.all) where EMP.dept = DEPT.dname and EMP.job = "Programmer" and DEPT.floor = 1
strategy rvm
show
access PROGS1
insert EMP (5, 0, "Programmer")
access PROGS1
update 5 -> 6
access PROGS1
costs
quit
"#;

#[test]
fn scripted_session_transcript() {
    let out = run_script(SCRIPT);
    assert!(out.contains("table EMP created"), "{out}");
    assert!(out.contains("view PROGS1 defined"), "{out}");
    assert!(out.contains("strategy set to UpdateCache-RVM"), "{out}");
    assert!(out.contains("EMP (3 rows, btree on eid)"), "{out}");
    assert!(out.contains("DEPT (2 rows, hash on dname)"), "{out}");
    // First access: only employee 1 qualifies.
    assert!(out.contains("1 rows in"), "{out}");
    // After the live insert the view is maintained to 2 rows.
    assert!(out.contains("2 rows in"), "{out}");
    // The re-keyed tuple shows its new key.
    assert!(out.contains("(6, 0, \"Programmer\", 0, 1)"), "{out}");
    assert!(out.contains("total charged:"), "{out}");
}

#[test]
fn errors_do_not_kill_the_session() {
    let out = run_script(
        "frobnicate\naccess nothing\ncreate table T (x int) btree x\n\
         insert T (1, 2)\nstrategy nope\nhelp\nquit\n",
    );
    assert!(out.contains("error: unknown command"), "{out}");
    assert!(out.contains("error: unknown view nothing"), "{out}");
    assert!(out.contains("error: arity mismatch"), "{out}");
    assert!(out.contains("error: unknown strategy"), "{out}");
    assert!(out.contains("commands:"), "help still works: {out}");
    assert!(out.contains("table T created"), "{out}");
}

#[test]
fn strategy_comparison_same_answers() {
    let base = r#"
create table EMP (eid int, dept int) btree eid
insert EMP (1, 0)
insert EMP (2, 1)
insert EMP (3, 0)
define view V (EMP.all) where EMP.eid >= 2
"#;
    let mut transcripts = Vec::new();
    for strat in ["recompute", "cache", "avm", "rvm"] {
        let script = format!("{base}\nstrategy {strat}\naccess V\nquit\n");
        let out = run_script(&script);
        let rows: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.contains("rows in"))
            .skip(1)
            .take_while(|l| l.starts_with("  ("))
            .collect();
        transcripts.push((strat, rows.join("\n")));
    }
    let first = transcripts[0].1.clone();
    assert!(
        first.contains("(2, 1)") && first.contains("(3, 0)"),
        "{first}"
    );
    for (strat, rows) in &transcripts {
        assert_eq!(rows, &first, "strategy {strat} returned different rows");
    }
}

/// `examples/demo.pdb` piped through the binary reproduces the checked-in
/// transcript `tests/golden/demo.out` byte for byte. After an intended
/// output change, regenerate it from the repository root with
/// `cargo run -q --release -p procdb-cli < examples/demo.pdb > tests/golden/demo.out`
/// and explain every changed line.
#[test]
fn demo_script_matches_golden_transcript() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let read = |path: &str| {
        std::fs::read_to_string(format!("{root}/{path}"))
            .unwrap_or_else(|e| panic!("read {path}: {e}"))
    };
    let got = run_script(&read("examples/demo.pdb"));
    assert_eq!(got, read("tests/golden/demo.out"));
}

/// README's replicated-mode example: 4 shards × 2 replicas under RVM.
/// The first `access V3` after `crash 1` runs on the promoted follower,
/// which pays its Rete rebuild (210.0 model-ms instead of 30.0); the
/// later update and access charge as before the crash.
#[test]
fn readme_replicated_example_prices_the_promoted_rebuild() {
    let mut script = String::from("create table EMP (eid int, grp int, pad bytes 8) btree eid\n");
    for i in 0..240 {
        script.push_str(&format!("insert EMP ({i}, {}, \"pad\")\n", i % 4));
    }
    for v in 0..8 {
        let lo = 30 * v;
        script.push_str(&format!(
            "define view V{v} (EMP.all) where EMP.eid >= {lo} and EMP.eid <= {}\n",
            lo + 29
        ));
    }
    script.push_str(
        "strategy rvm\nshards 4\nreplicas 2\naccess V3\ncrash 1\naccess V3\n\
         update 90 -> 301\naccess V3\nquit\n",
    );
    let out = run_script(&script);
    let charged: Vec<&str> = out.lines().filter(|l| l.contains("model-ms")).collect();
    assert_eq!(
        charged,
        [
            "30 rows in 30.0 model-ms:",
            "30 rows in 210.0 model-ms:",
            "1 tuple(s) re-keyed 90 -> 301; maintenance 61.0 model-ms",
            "29 rows in 30.0 model-ms:",
        ],
        "{out}"
    );
    assert!(out.contains("replica 1 promoted"), "{out}");
}
