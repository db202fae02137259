//! Report byte-invariance across the distribution levers: a campaign or
//! study report must be byte-identical with a cold or warm `--cache-dir`
//! and on the scalar or bitsliced engine. These are the same bytes the
//! determinism contract already pins across `--workers` and
//! `--checkpoint-interval`; this suite extends the pin to cache
//! temperature.
//!
//! Also covers the version-salt resume gate: a report recorded by a binary
//! with a different artifact version salt is rejected on `--resume`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("dist-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bec")).args(args).output().expect("bec binary runs")
}

fn run_ok(args: &[&str]) -> Output {
    let out = bec(args);
    assert!(out.status.success(), "bec {args:?} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    out
}

#[test]
fn campaign_reports_are_invariant_across_cache_and_engine() {
    for bench in ["bench_crc32.s", "countyears.s"] {
        let file = format!("examples/{bench}");
        let dir = scratch(&format!("campaign-{bench}"));
        let common = ["--sample", "48", "--shards", "8", "--workers", "2", "--seed", "7"];

        let base = dir.join("base.json");
        let mut args = vec!["campaign", &file];
        args.extend_from_slice(&common);
        args.extend_from_slice(&["--report", base.to_str().unwrap()]);
        run_ok(&args);
        let baseline = std::fs::read(&base).unwrap();

        for engine in ["scalar", "bitsliced"] {
            // One cache directory per engine: the first run is cold
            // (populates it), the second warm (loads it).
            let cache = dir.join(format!("cache-{engine}"));
            for temp in ["cold", "warm"] {
                let report = dir.join(format!("r-{engine}-{temp}.json"));
                let mut args = vec!["campaign", &file];
                args.extend_from_slice(&common);
                args.extend_from_slice(&[
                    "--engine",
                    engine,
                    "--cache-dir",
                    cache.to_str().unwrap(),
                    "--report",
                    report.to_str().unwrap(),
                ]);
                run_ok(&args);
                assert_eq!(
                    std::fs::read(&report).unwrap(),
                    baseline,
                    "{bench}: report bytes changed at engine={engine} {temp}"
                );
            }
        }
    }
}

#[test]
fn study_reports_are_invariant_across_cache_temperature() {
    let dir = scratch("study");
    let common = ["--bench", "crc32", "--sample", "60", "--shards", "6", "--workers", "2"];

    let base = dir.join("base.json");
    let mut args = vec!["study"];
    args.extend_from_slice(&common);
    args.extend_from_slice(&["--report", base.to_str().unwrap()]);
    run_ok(&args);
    let baseline = std::fs::read(&base).unwrap();

    let cache = dir.join("cache");
    for tag in ["cold", "warm"] {
        let report = dir.join(format!("{tag}.json"));
        let mut args = vec!["study"];
        args.extend_from_slice(&common);
        args.extend_from_slice(&[
            "--cache-dir",
            cache.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ]);
        run_ok(&args);
        assert_eq!(
            std::fs::read(&report).unwrap(),
            baseline,
            "study report bytes changed at {tag}"
        );
    }
}

#[test]
fn resume_rejects_reports_with_a_foreign_version_salt() {
    let dir = scratch("salt");
    let report = dir.join("r.json");
    run_ok(&[
        "campaign",
        "examples/gcd.s",
        "--sample",
        "30",
        "--shards",
        "4",
        "--report",
        report.to_str().unwrap(),
    ]);

    // A report written by a binary with a different artifact generation:
    // same shape, different salt. Resuming it must be refused, not merged.
    let text = std::fs::read_to_string(&report).unwrap();
    assert!(text.contains("bec-artifacts-v1"), "report must carry the version salt");
    std::fs::write(&report, text.replace("bec-artifacts-v1", "bec-artifacts-v0")).unwrap();

    let out = bec(&[
        "campaign",
        "examples/gcd.s",
        "--sample",
        "30",
        "--shards",
        "4",
        "--resume",
        report.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "foreign-salt resume must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("salt"), "error must name the salt mismatch: {stderr}");
}
