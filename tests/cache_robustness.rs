//! Cache robustness: a truncated or bit-flipped artifact in the
//! `--cache-dir` store must never crash a run or change its report — the
//! corrupt entry is evicted (`cache.evictions` ticks), the artifact is
//! recomputed, and the refreshed store serves clean hits again.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("robust-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cached_campaign(cache: &Path, report: &Path, metrics: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_bec"))
        .args([
            "campaign",
            "examples/gcd.s",
            "--sample",
            "40",
            "--shards",
            "8",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("bec binary runs");
    assert!(out.status.success(), "campaign failed:\n{}", String::from_utf8_lossy(&out.stderr));
}

/// Pulls one counter out of the metrics snapshot JSON without a JSON
/// parser: the snapshot renders each counter as
/// `"<name>":{"type":"counter","value":<N>}`.
fn counter(metrics: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(metrics).unwrap();
    let Some(at) = text.find(&format!("\"{name}\"")) else { return 0 };
    let rest = &text[at..];
    let at = rest.find("\"value\":").expect("counter has a value") + "\"value\":".len();
    rest[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value parses")
}

#[test]
fn corrupt_cache_entries_recompute_byte_identical_reports() {
    let dir = scratch("campaign");
    let cache = dir.join("cache");
    let cold = dir.join("cold.json");
    let cold_metrics = dir.join("cold-metrics.json");
    cached_campaign(&cache, &cold, &cold_metrics);
    assert!(counter(&cold_metrics, "cache.misses") >= 2);
    assert!(counter(&cold_metrics, "cache.bytes_written") > 0);

    // Vandalize the whole store: truncate every other entry mid-header,
    // bit-flip the rest inside the payload.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bec"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 2, "expected verdict + golden entries, got {entries:?}");
    for (i, path) in entries.iter().enumerate() {
        let mut data = std::fs::read(path).unwrap();
        if i % 2 == 0 {
            data.truncate(7);
        } else {
            *data.last_mut().unwrap() ^= 0x40;
        }
        std::fs::write(path, &data).unwrap();
    }

    let hurt = dir.join("hurt.json");
    let hurt_metrics = dir.join("hurt-metrics.json");
    cached_campaign(&cache, &hurt, &hurt_metrics);
    assert_eq!(
        std::fs::read(&hurt).unwrap(),
        std::fs::read(&cold).unwrap(),
        "report bytes must survive cache corruption"
    );
    assert!(
        counter(&hurt_metrics, "cache.evictions") >= entries.len() as u64,
        "every corrupt entry must be evicted"
    );
    assert_eq!(counter(&hurt_metrics, "cache.hits"), 0);

    // The recomputed artifacts were re-stored: the next run is warm again.
    let warm = dir.join("warm.json");
    let warm_metrics = dir.join("warm-metrics.json");
    cached_campaign(&cache, &warm, &warm_metrics);
    assert_eq!(std::fs::read(&warm).unwrap(), std::fs::read(&cold).unwrap());
    assert!(counter(&warm_metrics, "cache.hits") >= 2);
    assert_eq!(counter(&warm_metrics, "cache.evictions"), 0);
}
