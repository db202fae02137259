//! # BEC — Bit-Level Static Analysis for Reliability against Soft Errors
//!
//! Facade crate re-exporting the whole BEC workspace. This reproduces the
//! system of *"BEC: Bit-Level Static Analysis for Reliability against Soft
//! Errors"* (Ko & Burgstaller, CGO 2024):
//!
//! * [`ir`] — the machine IR substrate (RISC-V-style instruction set, CFGs,
//!   liveness, def–use chains, assembly parser/printer).
//! * [`dataflow`] — the analysis substrate (bit-value lattice, known-bits
//!   words, union-find, worklist solvers).
//! * [`analysis`] — the paper's contribution: the global abstract bit-value
//!   analysis (Algorithm 1) and the fault-index coalescing analysis
//!   (Algorithms 2–3), plus the fault-injection-pruning and fault-surface
//!   accounting for the two use cases.
//! * [`sim`] — the SPIKE-substitute ISA simulator with single-bit fault
//!   injection, campaign infrastructure and empirical validation.
//! * [`sched`] — vulnerability-aware list instruction scheduling
//!   (Algorithm 4).
//! * [`lang`] — a mini-C compiler targeting the IR.
//! * [`rv32`] — the RV32I machine-code layer: assembler frontend for
//!   standard `.s` syntax, instruction encoder and decoder/lifter.
//! * [`suite`] — the eight evaluation benchmarks.
//! * [`study`] — the scheduled-variant reliability study pipeline
//!   (`bec study`): shared-analysis scheduling, semantic-equivalence
//!   verification, and a differential campaign per variant, reproducing
//!   the paper's Table IV methodology empirically.
//! * [`artifacts`] — the `--cache-dir` artifact store: content-addressed
//!   persistence of analysis verdicts, golden runs and substrates so warm
//!   runs skip the whole pre-campaign phase.
//!
//! ## Quickstart
//!
//! ```
//! use bec::prelude::*;
//!
//! // The paper's motivating example (Fig. 1) on a 4-bit machine.
//! let program = bec::motivating_example();
//! let analysis = BecAnalysis::analyze(&program, &BecOptions::default());
//! assert!(analysis.class_count() > 0);
//! ```

pub use bec_core as analysis;
pub use bec_dataflow as dataflow;
pub use bec_ir as ir;
pub use bec_lang as lang;
pub use bec_rv32 as rv32;
pub use bec_sched as sched;
pub use bec_sim as sim;
pub use bec_suite as suite;

pub mod artifacts;
pub mod study;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use bec_core::{BecAnalysis, BecOptions, FaultSite, PruningReport, SurfaceReport};
    pub use bec_ir::{
        parse_program, print_program, verify_program, FunctionBuilder, Inst, MachineConfig,
        Program, ProgramBuilder, Reg, Signature,
    };
    pub use bec_rv32::{encode_program, lift_image, parse_asm, print_rv32};
    pub use bec_sched::{schedule_program, Criterion as SchedCriterion};
    pub use bec_sim::{ExecOutcome, FaultSpec, Simulator};
}

/// The paper's motivating example (Fig. 1 / Fig. 2a): `countYears` compiled
/// for the 4-bit, 4-register toy machine, with the exact instruction
/// sequence of Fig. 2a.
pub fn motivating_example() -> bec_ir::Program {
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

/// The rescheduled motivating example (Fig. 2c): same instructions, reordered
/// to minimize live fault sites.
pub fn motivating_example_rescheduled() -> bec_ir::Program {
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
    seqz r2, r2
    andi r3, r1, 3
    snez r3, r3
    and  r2, r2, r3
    add  r0, r0, r2
    addi r1, r1, -1
    bnez r1, loop
exit:
    ret r0
}
"#,
    )
    .expect("rescheduled motivating example parses")
}

#[cfg(test)]
mod tests {
    #[test]
    fn motivating_examples_verify() {
        bec_ir::verify_program(&super::motivating_example()).unwrap();
        bec_ir::verify_program(&super::motivating_example_rescheduled()).unwrap();
    }
}
