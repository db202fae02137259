//! Engine-equivalence contract of the bitsliced campaign engine: for any
//! worker count, the serialized [`bec_sim::CampaignReport`] of an
//! exhaustive differential campaign on the bitsliced engine is
//! byte-identical to the scalar engine's, and the per-fault early-exit
//! accounting (`PoolStats::early_exits`) agrees across engines — a
//! bitsliced batch with N converged lanes counts N, exactly like N scalar
//! runs.

use bec_core::{BecAnalysis, BecOptions};
use bec_ir::Program;
use bec_sim::shard::{site_fault_space, CampaignSpec, ShardPlan};
use bec_sim::study::{run_prepared, StudySpec};
use bec_sim::{
    default_checkpoint_interval, Engine, ExecOutcome, FaultClass, PreparedCampaign, SimLimits,
    Simulator,
};
use bec_telemetry::Telemetry;

fn example(name: &str) -> Program {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("example exists");
    bec_rv32::parse_asm(&text).expect("example assembles")
}

/// Exhaustive campaign reports and early-exit counts must not depend on
/// the engine or the worker count.
fn assert_cross_engine(label: &str, program: &Program) {
    let golden = Simulator::new(program).run_golden();
    assert_eq!(golden.result.outcome, ExecOutcome::Completed, "{label}: golden completes");
    let budget = golden.cycles() * 2 + 100;
    let sim = Simulator::with_limits(program, SimLimits { max_cycles: budget });
    let (golden, ckpts) = sim.run_golden_checkpointed(default_checkpoint_interval(golden.cycles()));

    let bec = BecAnalysis::analyze(program, &BecOptions::paper());
    let plan =
        ShardPlan::build(site_fault_space(program, &bec, &golden), CampaignSpec::exhaustive(16));

    let prep = PreparedCampaign { golden, ckpts, budget, plan };
    let run = |engine: Engine, workers: usize| {
        let spec = StudySpec { workers, engine, ..StudySpec::default() };
        let run = run_prepared(label, program, prep.clone(), &spec, None, &Telemetry::disabled())
            .expect("pool runs");
        (run.report, run.stats)
    };

    let (baseline, base_stats) = run(Engine::Scalar, 2);
    let baseline_bytes = baseline.to_json().render();
    assert_eq!(base_stats.batches, 0, "{label}: scalar engine never batches");
    assert_eq!(base_stats.batched_lanes, 0, "{label}: scalar engine has no lanes");

    let mut any_forked = false;
    for engine in [Engine::Scalar, Engine::Bitsliced] {
        for workers in [1usize, 2, 8] {
            let (report, stats) = run(engine, workers);
            assert_eq!(
                report.to_json().render(),
                baseline_bytes,
                "{label}: {} × {workers} workers deviates from the scalar report",
                engine.name()
            );
            // Satellite bugfix pin: early exits count individual faults on
            // both engines, so the numbers agree exactly.
            assert_eq!(
                stats.early_exits,
                base_stats.early_exits,
                "{label}: {} × {workers} workers early-exit count deviates",
                engine.name()
            );
            if engine == Engine::Bitsliced {
                assert!(stats.batches > 0, "{label}: bitsliced run never batched");
                assert_eq!(
                    stats.batched_lanes,
                    report.runs(),
                    "{label}: every fault runs as a lane"
                );
                any_forked |= stats.forked_lanes > 0;
            }
        }
    }
    assert!(any_forked, "{label}: no lane ever forked — divergence handling untested");
    assert!(base_stats.early_exits > 0, "{label}: no run ever converged early");
}

#[test]
fn countyears_reports_match_across_engines() {
    assert_cross_engine("countyears", &example("countyears.s"));
}

#[test]
fn gcd_reports_match_across_engines() {
    assert_cross_engine("gcd", &example("gcd.s"));
}

#[test]
fn crc32_reports_match_across_engines() {
    let b = bec_suite::crc32::scaled(1);
    assert_cross_engine("crc32", &b.compile().expect("compiles"));
}

/// Regression test for the per-bit dynamic-liveness convergence fix: a
/// fault in a *dead bit* of a register that stays live (but is only ever
/// observed through `andi ..., 1`) must converge — the whole-register
/// comparison used to block the Benign early-exit forever, because the
/// faulted register is never overwritten.
#[test]
fn masked_bit_of_live_register_converges() {
    let p = bec_ir::parse_program(
        r#"
func @main(args=0, ret=none) {
entry:
    li t0, 4
    li t1, 32
    li t3, 0
    j loop
loop:
    andi t2, t0, 1
    add t3, t3, t2
    addi t1, t1, -1
    bnez t1, loop
exit:
    print t3
    exit
}
"#,
    )
    .unwrap();
    let sim = Simulator::new(&p);
    let (golden, ckpts) = sim.run_golden_checkpointed(16);
    assert_eq!(golden.result.outcome, ExecOutcome::Completed);

    // Flip bit 2 of t0 (value 4 -> 0) early in the loop: t0 is live for
    // the whole run, but only its bit 0 is ever observed, so the faulted
    // run re-converges at the first aligned boundary after the injection.
    let fault = bec_sim::FaultSpec { cycle: 5, reg: bec_ir::Reg::T0, bit: 2 };
    let run = sim.run_with_fault_checkpointed(&golden, &ckpts, fault);
    assert_eq!(run.class, FaultClass::Benign);
    assert!(
        run.converged_at.is_some(),
        "dead-bit fault in a live register must converge (per-bit liveness)"
    );
    assert!(run.simulated_cycles < golden.cycles(), "the tail was skipped");

    // A flip of the *live* bit corrupts the sum and must not converge.
    let live = bec_sim::FaultSpec { cycle: 5, reg: bec_ir::Reg::T0, bit: 0 };
    let run = sim.run_with_fault_checkpointed(&golden, &ckpts, live);
    assert_eq!(run.class, FaultClass::Sdc);
    assert!(run.converged_at.is_none());
}
