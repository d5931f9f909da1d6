//! A reader that closes the pipe early (`replay_check dump steady | head -3`,
//! `experiments --list | true`) took what it wanted: the binaries end with
//! exit 0, without a panic, when their stdout is closed.

use std::process::{Command, Stdio};

/// Runs `bin args` with stdout on a pipe whose reader is already closed, so
/// the first write fails whatever the timing, and requires a clean exit.
fn assert_clean_exit(bin: &str, args: &[&str]) {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let output = Command::new(bin)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
}

#[test]
fn replay_check_dump_into_a_closed_pipe_exits_zero() {
    assert_clean_exit(env!("CARGO_BIN_EXE_replay_check"), &["dump", "steady"]);
}

#[test]
fn experiments_list_into_a_closed_pipe_exits_zero() {
    assert_clean_exit(env!("CARGO_BIN_EXE_experiments"), &["--list"]);
}
