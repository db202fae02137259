//! Scaling regression test of the report reader: reading a report twice
//! the size must cost about twice the time. The reader once re-validated
//! the rest of the document for every string character, which made a
//! 1.2 MB exhaustive report take 20 s to resume and doubled sizes cost 4×.

use bec_ir::{PointId, Reg};
use bec_sim::json::Json;
use bec_sim::{
    CampaignReport, CampaignSpec, FaultClass, FaultOutcome, FaultSpec, ShardResult, SitedFault,
};
use std::time::{Duration, Instant};

/// A complete synthetic report of `runs` outcomes over 16 shards.
fn synthetic_report(runs: usize) -> String {
    let shards = 16;
    let outcome = |i: usize| FaultOutcome {
        fault: SitedFault {
            spec: FaultSpec { cycle: 1000 + i as u64, reg: Reg::phys(i as u32 % 32), bit: 7 },
            func: 0,
            point: PointId(i as u32 / 3),
            occurrence: i as u32 % 5,
            masked: i.is_multiple_of(3),
        },
        class: FaultClass::ALL[i % FaultClass::ALL.len()],
    };
    let per = runs / shards;
    let report = CampaignReport {
        program: "synthetic".into(),
        spec: CampaignSpec::exhaustive(shards as u32),
        max_cycles: 1 << 20,
        fault_space: (per * shards) as u64,
        shards: (0..shards)
            .map(|s| {
                let outcomes = (s * per..(s + 1) * per).map(outcome).collect();
                Some(ShardResult { shard: s as u32, outcomes })
            })
            .collect(),
    };
    report.to_json().render()
}

/// Best of three timings of the read path `--resume` takes.
fn read_time(text: &str) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let report = CampaignReport::from_json(&Json::parse(text).unwrap()).unwrap();
            let elapsed = start.elapsed();
            assert!(report.is_complete());
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn report_read_time_is_linear_in_size() {
    let small = synthetic_report(12_000);
    let large = synthetic_report(24_000);
    assert!((450_000..650_000).contains(&small.len()), "{} bytes", small.len());
    assert!(large.len() >= 2 * small.len() - 1000, "{} vs {} bytes", large.len(), small.len());
    let (t_small, t_large) = (read_time(&small), read_time(&large));
    // Linear is 2×; the quadratic reader was 4×.
    assert!(
        t_large <= t_small * 3,
        "doubling the report from {} to {} bytes took {t_small:?} -> {t_large:?}",
        small.len(),
        large.len()
    );
}
