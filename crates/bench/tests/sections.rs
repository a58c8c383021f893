//! The `experiments` binary end to end: `experiments <id>` prints exactly
//! its section of `experiments all`, as pinned by `experiments_output.txt`,
//! and a flag the command does not read is refused before any work.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

#[test]
fn each_id_prints_its_section_of_the_pin() {
    let pin = include_str!("../../../experiments_output.txt");
    for id in ["table3", "fig12"] {
        let out = experiments(&[id]);
        assert!(out.status.success(), "{id}: {out:?}");
        let section = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(
            !section.is_empty() && pin.contains(&section),
            "{id}:\n{section}"
        );
    }
}

#[test]
fn an_unread_flag_exits_2_before_any_work() {
    let out = experiments(&["table3", "--trials", "7"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("table3: --trials is not read"),
        "{stderr}"
    );
}
