//! The cycle-exhaustive fault space through the campaign engine: every
//! `(cycle, register, bit)` of a program run by `run_prepared` must give
//! byte-identical reports on either engine at any worker count, and every
//! outcome must be the class a from-scratch `run_with_fault` observes at
//! the same cycle budget — the brute-force ground truth the engine's
//! checkpoints, lanes and early exits must not change.

use bec_core::{BecAnalysis, BecOptions};
use bec_ir::Program;
use bec_sim::study::{prepare_campaign, run_prepared, StudySpec};
use bec_sim::{
    exhaustive_fault_space, CampaignSpec, Engine, FaultClass, PreparedCampaign, ShardPlan,
    SimLimits, Simulator, SiteVerdicts,
};
use bec_telemetry::Telemetry;

fn example(name: &str) -> Program {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("example exists");
    bec_rv32::parse_asm(&text).expect("example assembles")
}

fn assert_exhaustive_matches_ground_truth(name: &str) {
    let program = example(name);
    let verdicts =
        SiteVerdicts::of(&program, &BecAnalysis::analyze(&program, &BecOptions::paper()));
    let tel = Telemetry::disabled();
    // An explicit budget, far above either golden run, keeps the
    // from-scratch hang runs of the ground-truth check cheap.
    let base = StudySpec { max_cycles: Some(2_000), ..StudySpec::default() };
    let prep = prepare_campaign(name, &program, &verdicts, &base, None, None, &tel).unwrap();
    let faults = exhaustive_fault_space(&program, &prep.golden);
    let regs = program.config.fault_regs().count() as u64;
    assert_eq!(faults.len() as u64, prep.golden.cycles() * regs * program.config.xlen as u64);
    let prep =
        PreparedCampaign { plan: ShardPlan::build(faults, CampaignSpec::exhaustive(16)), ..prep };

    let mut reports = Vec::new();
    for engine in [Engine::Scalar, Engine::Bitsliced] {
        for workers in [1, 2] {
            let spec = StudySpec { engine, workers, ..base };
            let run = run_prepared(name, &program, prep.clone(), &spec, None, &tel).unwrap();
            reports.push((engine.name(), workers, run.report));
        }
    }
    let baseline = reports[0].2.to_json().render();
    for (engine, workers, report) in &reports {
        assert_eq!(report.to_json().render(), baseline, "{name}: {engine} × {workers} workers");
    }

    let report = &reports[0].2;
    assert!(report.is_complete());
    assert!(report.violations().is_empty(), "{name}: no fault carries a static claim");
    let sim = Simulator::with_limits(&program, SimLimits { max_cycles: prep.budget });
    let golden = &prep.golden.result;
    for o in report.outcomes() {
        let class = sim.run_with_fault(o.fault.spec).classify(golden);
        assert_eq!(o.class, class, "{name}: {:?}", o.fault);
    }
    let counts = report.outcome_counts();
    assert!(counts[FaultClass::Benign.index()] > 0, "{name}: {counts:?}");
    assert!(counts[FaultClass::Sdc.index()] > 0, "{name}: {counts:?}");
}

#[test]
fn exhaustive_space_matches_from_scratch_runs_on_gcd() {
    assert_exhaustive_matches_ground_truth("gcd.s");
}

#[test]
fn exhaustive_space_matches_from_scratch_runs_on_countyears() {
    assert_exhaustive_matches_ground_truth("countyears.s");
}
