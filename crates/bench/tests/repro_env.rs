//! `repro` reads its frame counts from the environment at startup and
//! refuses a count it cannot use, rather than running at the default.

use std::process::{Command, Output};

/// Runs `repro --list` with `var` set to `value` and the other count unset.
fn list_with(var: &str, value: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .env_remove("BISCATTER_FRAMES")
        .env_remove("BISCATTER_ISAC_FRAMES")
        .env(var, value)
        .output()
        .expect("run repro")
}

/// Asserts that `repro` exits 2, names `var` and `value` on stderr and
/// lists nothing.
fn assert_refused(var: &str, value: &str) {
    let out = list_with(var, value);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
    assert!(
        stderr.contains(var) && stderr.contains(value),
        "stderr should name {var}={value}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing should be listed");
}

#[test]
fn unparseable_frame_count_exits_2() {
    assert_refused("BISCATTER_FRAMES", "1e4");
}

#[test]
fn zero_isac_frame_count_exits_2() {
    assert_refused("BISCATTER_ISAC_FRAMES", "0");
}

#[test]
fn positive_frame_count_lists_the_experiments() {
    let out = list_with("BISCATTER_FRAMES", "100");
    assert!(out.status.success(), "{:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stdout).contains("fig13_ber_distance"));
}
