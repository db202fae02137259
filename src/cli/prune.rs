//! `bec prune` — the fault-injection pruning report (one Table III row):
//! runs the golden execution for the dynamic profile, then compares the
//! value-level campaign against the BEC bit-level campaign.

use super::{input, CliError, CommonArgs};
use bec_core::{pruning, report, surface, BecAnalysis};
use bec_sim::json::Json;
use bec_sim::{SimLimits, Simulator};

pub fn run(args: &CommonArgs) -> Result<(), CliError> {
    if let Some(flag) = args.rest.first() {
        return Err(CliError::usage(format!("unknown flag `{flag}`")));
    }
    let program = input::load_program(&args.file)?;
    let bec = BecAnalysis::analyze(&program, &args.options);
    let sim = Simulator::with_limits(&program, SimLimits { max_cycles: 100_000_000 });
    let golden = sim.run_golden();
    if golden.result.outcome != bec_sim::ExecOutcome::Completed {
        return Err(CliError::failed(format!(
            "program did not run to completion: {:?}",
            golden.result.outcome
        )));
    }
    let row = pruning::pruning_row(&args.file, &program, &bec, &golden.profile);
    let surf = surface::surface_row(&args.file, &program, &bec, &golden.profile);

    if args.json {
        let doc = Json::obj(vec![
            ("file", Json::str(&args.file)),
            ("cycles", Json::UInt(golden.cycles())),
            ("live_value_runs", Json::UInt(row.live_values)),
            ("live_bit_runs", Json::UInt(row.live_bits)),
            ("masked_runs", Json::UInt(row.masked)),
            ("inferrable_runs", Json::UInt(row.inferrable)),
            ("pruned_pct", Json::Float(row.pruned_pct())),
            ("total_fault_space", Json::UInt(surf.total_fault_space)),
            ("live_fault_sites", Json::UInt(surf.live_sites)),
        ]);
        println!("{}", doc.render());
        return Ok(());
    }

    println!("Fault-injection pruning for {}\n", args.file);
    let g = report::group_digits;
    print!(
        "{}",
        report::format_table(
            &["metric", "runs"],
            &[
                vec!["golden cycles".into(), g(golden.cycles())],
                vec!["exhaustive space (cycles × bits)".into(), g(surf.total_fault_space)],
                vec!["live in values (inject-on-read)".into(), g(row.live_values)],
                vec!["live in bits (BEC campaign)".into(), g(row.live_bits)],
                vec!["  pruned: masked".into(), g(row.masked)],
                vec!["  pruned: inferrable".into(), g(row.inferrable)],
            ],
        )
    );
    println!(
        "\nBEC prunes {:.2} % of the value-level campaign; live fault surface {} sites",
        row.pruned_pct(),
        g(surf.live_sites),
    );
    Ok(())
}
