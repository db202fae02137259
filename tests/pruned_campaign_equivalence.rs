//! Use case 1 ground truth: a BEC-pruned fault-injection campaign must
//! reach the same verdict for every pruned run as the full inject-on-read
//! campaign — "without loss of coverage or accuracy" (§III-A).
//!
//! For every value-live fault run the campaign would skip, the outcome must
//! be reconstructible: masked runs behave like the golden run, and
//! inferrable runs behave exactly like their class representative.

use bec_core::{BecAnalysis, BecOptions};
use bec_sim::{FaultSpec, Simulator};
use std::collections::HashMap;

/// Checks every value-live run and returns the campaign sizes it saw:
/// `(value-level runs, bit-level runs)` — the inject-on-read runs executed
/// and the `(class, occurrence)` groups a BEC-pruned campaign keeps one
/// run of.
fn check_program(program: &bec_ir::Program) -> (usize, usize) {
    let bec = BecAnalysis::analyze(program, &BecOptions::paper());
    let sim = Simulator::new(program);
    let golden = sim.run_golden();
    let occs = golden.occurrence_index();
    let golden_digest = golden.result.hash.digest();
    let (mut value_runs, mut bit_runs) = (0, 0);

    for (fi, fa) in bec.functions().iter().enumerate() {
        let s0 = fa.coalescing.s0_class();
        // Representative trace per (class, occurrence index).
        let mut rep: HashMap<(usize, u64), u128> = HashMap::new();
        for (p, r) in fa.coalescing.nodes().site_pairs() {
            if !fa.liveness.is_live_after(p, r) {
                continue;
            }
            let Some(cycles) = occs.get(&(fi, p)) else { continue };
            for bit in 0..program.config.xlen {
                let class = fa.coalescing.class_of(p, r, bit).unwrap();
                for (k, &c) in cycles.iter().enumerate() {
                    let open = golden.window_open_cycle(c);
                    let run = sim.run_with_fault(FaultSpec { cycle: open, reg: r, bit });
                    value_runs += 1;
                    let digest = run.hash.digest();
                    if class == s0 {
                        // Masked: inferred to be golden.
                        assert_eq!(digest, golden_digest, "masked site misbehaved");
                    } else {
                        // Inferrable: inferred from the class representative.
                        let slot = rep.entry((class, k as u64)).or_insert(digest);
                        assert_eq!(*slot, digest, "class member diverged from representative");
                    }
                }
            }
        }
        bit_runs += rep.len();
    }
    (value_runs, bit_runs)
}

#[test]
fn pruned_campaign_loses_no_accuracy_on_the_motivating_example() {
    // The paper's dynamic counts for Fig. 2: 288 inject-on-read runs, 225
    // once BEC coalesces equivalent bits.
    assert_eq!(check_program(&bec::motivating_example()), (288, 225));
}

#[test]
fn pruned_campaign_loses_no_accuracy_on_crc32() {
    let b = bec_suite::crc32::scaled(1);
    check_program(&b.compile().unwrap());
}

#[test]
fn pruned_campaign_loses_no_accuracy_on_rsa() {
    let b = bec_suite::rsa::scaled(3233, 65, 7);
    check_program(&b.compile().unwrap());
}
