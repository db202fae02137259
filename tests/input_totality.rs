//! Malformed inputs on the `bec` command line end in an error, never a
//! panic: register names that are empty or start with a multi-byte
//! character (assembly, IR and resume-report rows), and reports nested far
//! deeper than any real one.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("totality-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bec"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("bec binary runs")
}

/// Asserts a clean failure (exit 1, not a panic) whose message contains
/// `needle`.
fn fails_with(args: &[&str], needle: &str) {
    let out = bec(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "bec {args:?} panicked:\n{err}");
    assert_eq!(out.status.code(), Some(1), "bec {args:?}:\n{err}");
    assert!(err.contains(needle), "bec {args:?}: expected `{needle}` in:\n{err}");
}

#[test]
fn analyze_rejects_multibyte_register_names_in_assembly() {
    let path = scratch("asm").join("bad.s");
    std::fs::write(&path, ".globl main\nmain:\n    addi é1, a0, 1\n    ecall\n").unwrap();
    fails_with(&["analyze", path.to_str().unwrap()], "line 3");
}

#[test]
fn analyze_rejects_multibyte_register_names_in_ir() {
    let path = scratch("ir").join("bad.bec");
    std::fs::write(
        &path,
        "func @main(args=0, ret=none) {\nentry:\n    li é1, 0\n    print é1\n    exit\n}\n",
    )
    .unwrap();
    fails_with(&["analyze", path.to_str().unwrap()], "unknown register");
}

#[test]
fn campaign_resume_rejects_rows_with_empty_or_multibyte_registers() {
    let dir = scratch("rows");
    let report = dir.join("r.json");
    let report = report.to_str().unwrap();
    let common = ["campaign", "examples/gcd.s", "--sample", "30", "--shards", "2"];
    let out = bec(&[&common[..], &["--report", report]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(report).unwrap();
    // The first outcome row, `cycle:reg:…`, with its register replaced.
    let row_start = text.find("\"outcomes\": [").unwrap() + "\"outcomes\": [".len();
    let row_start = row_start + text[row_start..].find('"').unwrap() + 1;
    let reg_start = row_start + text[row_start..].find(':').unwrap() + 1;
    let reg_end = reg_start + text[reg_start..].find(':').unwrap();
    for reg in ["", "é1"] {
        let bad = dir.join("bad.json");
        std::fs::write(&bad, format!("{}{reg}{}", &text[..reg_start], &text[reg_end..])).unwrap();
        fails_with(
            &[&common[..], &["--resume", bad.to_str().unwrap()]].concat(),
            "malformed outcome row",
        );
    }
}

#[test]
fn resume_rejects_reports_nested_too_deep() {
    let path = scratch("deep").join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let path = path.to_str().unwrap();
    fails_with(&["campaign", "examples/gcd.s", "--resume", path], "nesting too deep at byte");
    fails_with(
        &["study", "--bench", "crc32", "--sample", "8", "--resume", path],
        "nesting too deep at byte",
    );
}
