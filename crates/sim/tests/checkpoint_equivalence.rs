//! Engine-equivalence contract of the checkpointed campaign engine: for
//! any checkpoint interval (including disabled) and any worker count, the
//! serialized [`bec_sim::CampaignReport`] of an exhaustive differential
//! campaign is byte-identical to the from-scratch engine's, and every
//! per-fault verdict — including runs that early-exit by convergence —
//! equals the full-run verdict.

use bec_core::{BecAnalysis, BecOptions};
use bec_ir::Program;
use bec_sim::shard::{site_fault_space, CampaignSpec, ShardPlan};
use bec_sim::study::{run_prepared, CampaignRun, StudySpec};
use bec_sim::{CheckpointLog, ExecOutcome, FaultClass, PreparedCampaign, SimLimits, Simulator};
use bec_telemetry::Telemetry;

fn example(name: &str) -> Program {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("example exists");
    bec_rv32::parse_asm(&text).expect("example assembles")
}

fn run(label: &str, program: &Program, prep: PreparedCampaign, workers: usize) -> CampaignRun {
    let spec = StudySpec { workers, ..StudySpec::default() };
    run_prepared(label, program, prep, &spec, None, &Telemetry::disabled()).expect("pool runs")
}

/// Exhaustive campaign reports must not depend on the checkpoint interval.
fn assert_equivalent(label: &str, program: &Program) {
    let golden = Simulator::new(program).run_golden();
    assert_eq!(golden.result.outcome, ExecOutcome::Completed, "{label}: golden completes");
    let budget = golden.cycles() * 2 + 100;
    let sim = Simulator::with_limits(program, SimLimits { max_cycles: budget });

    let bec = BecAnalysis::analyze(program, &BecOptions::paper());
    let plan =
        ShardPlan::build(site_fault_space(program, &bec, &golden), CampaignSpec::exhaustive(16));

    // Baseline: the from-scratch engine.
    let scratch =
        PreparedCampaign { golden: golden.clone(), ckpts: CheckpointLog::disabled(), budget, plan };
    let base = run(label, program, scratch.clone(), 2);
    assert_eq!(base.stats.early_exits, 0, "{label}: disabled log never converges");
    let baseline_bytes = base.report.to_json().render();

    let mut any_early = false;
    for interval in [1u64, 16, 256] {
        let (golden_ck, ckpts) = sim.run_golden_checkpointed(interval);
        // Recording checkpoints must not perturb the golden run itself.
        assert_eq!(golden_ck.result.hash, golden.result.hash, "{label}: golden hash");
        assert_eq!(golden_ck.cycles(), golden.cycles(), "{label}: golden cycles");
        assert_eq!(golden_ck.outputs(), golden.outputs(), "{label}: golden outputs");
        assert_eq!(ckpts.interval(), interval);
        assert_eq!(ckpts.len() as u64, golden.cycles().div_ceil(interval), "{label}: coverage");

        let prep = PreparedCampaign { golden: golden_ck, ckpts, ..scratch.clone() };
        for workers in [1usize, 4] {
            let CampaignRun { report, stats, .. } = run(label, program, prep.clone(), workers);
            assert_eq!(
                report.to_json().render(),
                baseline_bytes,
                "{label}: interval {interval} × {workers} workers deviates from from-scratch"
            );
            any_early |= stats.early_exits > 0;
        }
    }
    // The early-exit must actually fire somewhere, or the engine is
    // vacuously "equivalent" because convergence never triggers.
    assert!(any_early, "{label}: no run ever converged early");
}

#[test]
fn countyears_reports_match_across_intervals() {
    assert_equivalent("countyears", &example("countyears.s"));
}

#[test]
fn gcd_reports_match_across_intervals() {
    assert_equivalent("gcd", &example("gcd.s"));
}

#[test]
fn bitcount_reports_match_across_intervals() {
    let b = bec_suite::bitcount::scaled(2);
    assert_equivalent("bitcount", &b.compile().expect("compiles"));
}

#[test]
fn crc32_reports_match_across_intervals() {
    let b = bec_suite::crc32::scaled(1);
    assert_equivalent("crc32", &b.compile().expect("compiles"));
}

/// Per-fault equivalence at the finest granularity: for every fault of the
/// exhaustive space, the checkpointed verdict equals the from-scratch
/// verdict, and convergence only ever claims Benign runs.
#[test]
fn per_fault_verdicts_match_full_runs() {
    let program = example("countyears.s");
    let golden = Simulator::new(&program).run_golden();
    let budget = golden.cycles() * 2 + 100;
    let sim = Simulator::with_limits(&program, SimLimits { max_cycles: budget });
    let (golden, ckpts) = sim.run_golden_checkpointed(16);
    let bec = BecAnalysis::analyze(&program, &BecOptions::paper());

    let mut converged = 0u64;
    for fault in site_fault_space(&program, &bec, &golden) {
        let full = sim.run_with_fault(fault.spec).classify(&golden.result);
        let fast = sim.run_with_fault_checkpointed(&golden, &ckpts, fault.spec);
        assert_eq!(fast.class, full, "{fault:?}: engines disagree");
        if let Some(at) = fast.converged_at {
            converged += 1;
            assert_eq!(fast.class, FaultClass::Benign, "{fault:?}: non-benign convergence");
            assert!(at > fault.spec.cycle, "{fault:?}: converged before injection");
            assert!(at.is_multiple_of(16), "{fault:?}: convergence off the checkpoint grid");
            assert!(fast.result.is_none(), "{fault:?}: converged run carries a result");
        } else {
            let result = fast.result.expect("completed run carries its result");
            assert!(
                result.cycles >= fast.simulated_cycles,
                "{fault:?}: suffix longer than the whole run"
            );
        }
    }
    assert!(converged > 0, "early exit never fired");
}

/// A fault injected past the end of the golden trace is a no-op: both
/// engines classify it Benign, and the checkpointed engine replays only
/// the tail.
#[test]
fn past_end_faults_are_benign_in_both_engines() {
    let program = example("gcd.s");
    let golden = Simulator::new(&program).run_golden();
    let budget = golden.cycles() * 2 + 100;
    let sim = Simulator::with_limits(&program, SimLimits { max_cycles: budget });
    let (golden, ckpts) = sim.run_golden_checkpointed(8);
    let fault = bec_sim::FaultSpec { cycle: golden.cycles(), reg: bec_ir::Reg::T0, bit: 1 };
    assert_eq!(sim.run_with_fault(fault).classify(&golden.result), FaultClass::Benign);
    let fast = sim.run_with_fault_checkpointed(&golden, &ckpts, fault);
    assert_eq!(fast.class, FaultClass::Benign);
    assert!(fast.simulated_cycles < golden.cycles(), "tail replay only");
}
