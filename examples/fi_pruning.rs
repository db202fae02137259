//! Use case 1 end-to-end: run an actual fault-injection campaign with and
//! without BEC pruning on a real kernel, and show that the pruned campaign
//! reaches the same conclusions with fewer runs.
//!
//! Both campaigns are filters over the statically classified fault space
//! ([`site_fault_space`]), run through the one campaign engine:
//!
//! * **inject-on-read** keeps every bit of every value-live site at every
//!   dynamic occurrence (the paper's "Live in values");
//! * **BEC-pruned** keeps one representative site per equivalence class —
//!   the member with the most occurrences, so every window is covered —
//!   at every dynamic occurrence (the paper's "Live in bits").
//!
//! ```text
//! cargo run --release --example fi_pruning
//! ```

use bec_core::{BecAnalysis, BecOptions};
use bec_sim::study::{prepare_campaign, run_prepared, CampaignRun, PreparedCampaign, StudySpec};
use bec_sim::{
    site_fault_space, CampaignSpec, FaultClass, ShardPlan, SimLimits, SiteVerdicts, SitedFault,
};
use bec_telemetry::Telemetry;
use std::collections::HashSet;

fn main() {
    // A scaled-down CRC32 so the campaigns finish in seconds.
    let bench = bec_suite::crc32::scaled(2);
    let program = bench.compile().expect("compiles");
    let bec = BecAnalysis::analyze(&program, &BecOptions::paper());
    let spec = StudySpec {
        workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        max_cycles: Some(SimLimits::default().max_cycles),
        ..StudySpec::default()
    };
    let tel = Telemetry::disabled();
    let verdicts = SiteVerdicts::of(&program, &bec);
    let prep = prepare_campaign("crc32", &program, &verdicts, &spec, None, None, &tel)
        .expect("golden run completes");
    let golden = &prep.golden;
    println!("crc32 (2 words): {} cycles, golden output {:?}\n", golden.cycles(), golden.outputs());

    let space = site_fault_space(&program, &bec, golden);
    let value: Vec<SitedFault> = space
        .iter()
        .filter(|f| bec.functions()[f.func as usize].liveness.is_live_after(f.point, f.spec.reg))
        .copied()
        .collect();
    let mut representatives = HashSet::new();
    for (fi, fa) in bec.functions().iter().enumerate() {
        let s0 = fa.coalescing.s0_class();
        for (rep, sites) in fa.coalescing.site_classes() {
            if rep == s0 {
                continue;
            }
            let best = sites.iter().max_by_key(|s| golden.occurrences(fi, s.point).len());
            if let Some(site) = best {
                representatives.insert((fi as u32, site.point, site.reg, site.bit));
            }
        }
    }
    let bits: Vec<SitedFault> = space
        .iter()
        .filter(|f| representatives.contains(&(f.func, f.point, f.spec.reg, f.spec.bit)))
        .copied()
        .collect();

    let run = |faults: Vec<SitedFault>| {
        let prep = PreparedCampaign {
            plan: ShardPlan::build(faults, CampaignSpec::exhaustive(64)),
            ..prep.clone()
        };
        run_prepared("crc32", &program, prep, &spec, None, &tel).expect("fresh campaign")
    };
    let v = run(value);
    let b = run(bits);

    let show = |name: &str, r: &CampaignRun| {
        let counts = r.report.outcome_counts();
        let g = |c: FaultClass| counts[c.index()];
        println!(
            "{name:<12} runs {:>6}  benign {:>6}  sdc {:>5}  crash {:>4}  deviation {:>4}  hang {:>3}  ({:.2}s)",
            r.report.runs(),
            g(FaultClass::Benign),
            g(FaultClass::Sdc),
            g(FaultClass::Crash),
            g(FaultClass::Deviation),
            g(FaultClass::Hang),
            r.stats.wall.as_secs_f64()
        );
    };
    show("inject-on-read", &v);
    show("BEC-pruned", &b);

    let (v_runs, b_runs) = (v.report.runs(), b.report.runs());
    let saved = 100.0 * (1.0 - b_runs as f64 / v_runs as f64);
    println!("\nruns saved by bit-level pruning: {saved:.1}%");
    // The pruned campaign must still surface every distinct failure mode.
    let effective =
        |r: &CampaignRun| r.report.runs() > r.report.outcome_counts()[FaultClass::Benign.index()];
    assert_eq!(effective(&v), effective(&b), "pruning must not hide failure modes");
    assert!(b_runs < v_runs);
}
