//! Differential soundness suite: exhaustive sharded campaigns over the
//! statically classified fault space, cross-checking every observed outcome
//! against the BEC verdict. A statically-masked fault whose run is not
//! benign refutes the analysis — the suite asserts there is none, on the
//! motivating example (`countyears`), a multi-function program (`gcd`) and
//! two compiled paper kernels (`bitcount`, `crc32`).

use bec_core::{BecAnalysis, BecOptions};
use bec_ir::Program;
use bec_sim::shard::{site_fault_space, CampaignSpec, ShardPlan};
use bec_sim::study::{run_prepared, StudySpec};
use bec_sim::{default_checkpoint_interval, ExecOutcome, PreparedCampaign, SimLimits, Simulator};
use bec_telemetry::Telemetry;

fn example(name: &str) -> Program {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("example exists");
    bec_rv32::parse_asm(&text).expect("example assembles")
}

/// Runs the exhaustive differential campaign and asserts zero violations.
fn assert_sound(label: &str, program: &Program) {
    let bec = BecAnalysis::analyze(program, &BecOptions::paper());
    let probe = Simulator::new(program);
    let golden = probe.run_golden();
    assert_eq!(golden.result.outcome, ExecOutcome::Completed, "{label}: golden run completes");
    // Masked runs are trace-identical to the golden run, so twice the golden
    // length is enough budget to confirm every masking claim; longer live
    // runs just classify as hangs, which the soundness check ignores.
    let budget = golden.cycles() * 2 + 100;
    let sim = Simulator::with_limits(program, SimLimits { max_cycles: budget });
    // The suite exercises the checkpointed engine at the default interval;
    // tests/checkpoint_equivalence.rs pins it byte-identical to from-scratch.
    let (golden, ckpts) = sim.run_golden_checkpointed(default_checkpoint_interval(golden.cycles()));

    let space = site_fault_space(program, &bec, &golden);
    assert!(!space.is_empty(), "{label}: nonempty fault space");
    let masked = space.iter().filter(|f| f.masked).count();
    let plan = ShardPlan::build(space, CampaignSpec::exhaustive(16));
    let runs = plan.runs() as u64;
    let prep = PreparedCampaign { golden, ckpts, budget, plan };
    let spec = StudySpec { workers: 4, ..StudySpec::default() };
    let report = run_prepared(label, program, prep, &spec, None, &Telemetry::disabled())
        .expect("pool runs")
        .report;

    assert!(report.is_complete(), "{label}: all shards executed");
    assert_eq!(report.runs(), runs, "{label}: every fault ran");
    assert_eq!(report.masked_runs() as usize, masked, "{label}: masked accounting");
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "{label}: {} statically-masked faults corrupted the execution, e.g. {:?}",
        violations.len(),
        violations.first(),
    );
    // The campaign must actually exercise both sides of the verdict.
    assert!(masked > 0, "{label}: some masked claims tested");
    assert!(report.masked_runs() < report.runs(), "{label}: some live faults tested");
}

#[test]
fn countyears_has_no_soundness_violations() {
    assert_sound("countyears", &example("countyears.s"));
}

#[test]
fn gcd_has_no_soundness_violations() {
    assert_sound("gcd", &example("gcd.s"));
}

#[test]
fn bitcount_has_no_soundness_violations() {
    let b = bec_suite::bitcount::scaled(2);
    assert_sound("bitcount", &b.compile().expect("compiles"));
}

#[test]
fn crc32_has_no_soundness_violations() {
    let b = bec_suite::crc32::scaled(1);
    assert_sound("crc32", &b.compile().expect("compiles"));
}
