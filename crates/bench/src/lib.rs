//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper has a regenerating binary:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table I (exhaustive campaign cost: the cycle-exhaustive fault space on the campaign engine, time and report size) | `table1` |
//! | Table II (validation) | `table2` |
//! | Table III (fault-injection pruning) | `table3` |
//! | Table IV (scheduling reliability) | `table4` |
//! | Fig. 2 (motivating example) | `fig2` |
//! | Fig. 4 (coalescing walkthrough) | `fig4` |
//! | Rule-set ablations (DESIGN.md §6) | `ablation` |

use bec_core::{pruning, surface, BecAnalysis, BecOptions, PruningRow, SurfaceRow};
use bec_ir::Program;
use bec_sched::{schedule_program, Criterion};
use bec_sim::{GoldenRun, SimLimits, Simulator};
use bec_suite::Benchmark;

/// A compiled-and-profiled benchmark ready for accounting.
pub struct Prepared {
    /// The benchmark's name.
    pub name: &'static str,
    /// The compiled machine program.
    pub program: Program,
    /// BEC analysis results.
    pub bec: BecAnalysis,
    /// Golden run (profile + trace).
    pub golden: GoldenRun,
}

/// Compiles `b`, runs the golden run and the BEC analysis.
///
/// # Panics
///
/// Panics if the benchmark fails to compile or does not run to completion —
/// both are guarded by the suite's oracle tests.
pub fn prepare(b: &Benchmark, options: &BecOptions) -> Prepared {
    let program = b.compile().expect("benchmark compiles");
    let bec = BecAnalysis::analyze(&program, options);
    let sim = Simulator::with_limits(&program, SimLimits { max_cycles: 10_000_000 });
    let golden = sim.run_golden();
    assert_eq!(golden.result.outcome, bec_sim::ExecOutcome::Completed, "{} must complete", b.name);
    assert_eq!(golden.outputs(), b.expected.as_slice(), "{}: oracle mismatch", b.name);
    Prepared { name: b.name, program, bec, golden }
}

/// The Table III row of one prepared benchmark.
pub fn pruning_row(p: &Prepared) -> PruningRow {
    pruning::pruning_row(p.name, &p.program, &p.bec, &p.golden.profile)
}

/// The fault surface of one prepared benchmark (a Table IV cell).
pub fn surface_row(p: &Prepared) -> SurfaceRow {
    surface::surface_row(p.name, &p.program, &p.bec, &p.golden.profile)
}

/// Reschedules a benchmark under `criterion` and measures the resulting
/// fault surface (re-running analysis and golden run on the new schedule).
pub fn scheduled_surface(b: &Benchmark, criterion: Criterion, options: &BecOptions) -> SurfaceRow {
    let program = b.compile().expect("benchmark compiles");
    let scheduled = schedule_program(&program, criterion);
    measure_scheduled(b, &scheduled, options)
}

/// [`scheduled_surface`] for every criterion at once, scoring all
/// schedules against ONE shared analysis of the original program
/// (`bec_sched::Scheduler`). Returns rows in [`Criterion::ALL`] order.
pub fn scheduled_surfaces(b: &Benchmark, options: &BecOptions) -> Vec<(Criterion, SurfaceRow)> {
    let program = b.compile().expect("benchmark compiles");
    let scheduler = bec_sched::Scheduler::new(&program, options);
    let rows = scheduler
        .variants()
        .into_iter()
        .map(|v| (v.criterion, measure_scheduled(b, &v.program, options)))
        .collect();
    assert_eq!(scheduler.analyses_run(), 1, "{}: one scoring analysis", b.name);
    rows
}

/// Measures the fault surface of one (scheduled) program of benchmark `b`,
/// asserting it still completes with the oracle outputs.
fn measure_scheduled(b: &Benchmark, scheduled: &Program, options: &BecOptions) -> SurfaceRow {
    let bec = BecAnalysis::analyze(scheduled, options);
    let sim = Simulator::with_limits(scheduled, SimLimits { max_cycles: 10_000_000 });
    let golden = sim.run_golden();
    assert_eq!(
        golden.result.outcome,
        bec_sim::ExecOutcome::Completed,
        "{}: scheduled program must still complete",
        b.name
    );
    assert_eq!(
        golden.outputs(),
        b.expected.as_slice(),
        "{}: scheduling changed observable behaviour",
        b.name
    );
    surface::surface_row(b.name, scheduled, &bec, &golden.profile)
}

/// The paper's motivating example program (Fig. 2a).
pub fn motivating_example() -> Program {
    bec_ir::parse_program(
        r#"
machine xlen=4 regs=4 zero=none
func @main(args=0, ret=none) {
entry:
    li r0, 0
    li r1, 7
    j loop
loop:
    andi r2, r1, 1
    andi r3, r1, 3
    addi r1, r1, -1
    seqz r2, r2
    snez r3, r3
    and  r2, r2, r3
    add  r0, r0, r2
    bnez r1, loop
exit:
    ret r0
}
"#,
    )
    .expect("motivating example parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_runs_a_benchmark_end_to_end() {
        let b = bec_suite::benchmark("crc32").unwrap();
        let p = prepare(&b, &BecOptions::paper());
        let row = pruning_row(&p);
        assert!(row.live_values > 0);
        assert!(row.live_bits <= row.live_values);
        let s = surface_row(&p);
        assert!(s.live_sites > 0);
        assert!(s.live_sites <= s.total_fault_space);
    }
}
