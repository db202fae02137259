//! `bec schedule` — vulnerability-aware rescheduling: schedules the
//! program under the chosen criterion and quantifies the fault-surface
//! change (the paper's Table IV experiment on one program).
//!
//! The original program is analyzed exactly once (the shared-analysis
//! [`Scheduler`]): the same analysis scores the schedule and provides the
//! "before" fault surface. The JSON output carries the criterion's stable
//! name and the per-point schedule permutation, so a study result can be
//! reproduced from the CLI output alone.

use super::{flag_value, input, CliError, CommonArgs};
use bec_core::{report, surface, BecAnalysis};
use bec_ir::Program;
use bec_sched::{Criterion, ScheduledVariant, Scheduler};
use bec_sim::json::Json;
use bec_sim::{SimLimits, Simulator};

/// The golden execution profile of `program` (surface weighting needs the
/// per-point execution counts).
fn golden_profile(program: &Program) -> Result<bec_core::ExecProfile, CliError> {
    let sim = Simulator::with_limits(program, SimLimits { max_cycles: 100_000_000 });
    let golden = sim.run_golden();
    if golden.result.outcome != bec_sim::ExecOutcome::Completed {
        return Err(CliError::failed(format!(
            "program did not run to completion: {:?}",
            golden.result.outcome
        )));
    }
    Ok(golden.profile)
}

/// The schedule permutation as JSON: one entry per function, with the
/// original point index of every point of the scheduled layout.
fn permutation_json(program: &Program, variant: &ScheduledVariant) -> Json {
    Json::Arr(
        program
            .functions
            .iter()
            .zip(&variant.permutation)
            .map(|(f, perm)| {
                Json::obj(vec![
                    ("function", Json::str(&f.name)),
                    ("points", Json::Arr(perm.iter().map(|&p| Json::UInt(p as u64)).collect())),
                ])
            })
            .collect(),
    )
}

pub fn run(args: &CommonArgs) -> Result<(), CliError> {
    let mut criterion = Criterion::BestReliability;
    let mut emit_asm = false;
    let mut it = args.rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--criterion" => {
                let v = flag_value(flag, &mut it)?;
                criterion = Criterion::parse(v)
                    .ok_or_else(|| CliError::usage(format!("unknown criterion `{v}`")))?;
            }
            "--emit-asm" => emit_asm = true,
            other => return Err(CliError::usage(format!("unknown flag `{other}`"))),
        }
    }

    let program = input::load_program(&args.file)?;
    // One analysis of the original program scores the schedule AND yields
    // the "before" surface.
    let scheduler = Scheduler::new(&program, &args.options);
    let variant = scheduler.schedule(criterion);
    bec_ir::verify_program(&variant.program)
        .map_err(|e| CliError::failed(format!("scheduler broke the program: {e}")))?;

    let before_profile = golden_profile(&program)?;
    let before =
        surface::surface_row("s", &program, scheduler.analysis(), &before_profile).live_sites;
    let after_bec = BecAnalysis::analyze(&variant.program, &args.options);
    let after_profile = golden_profile(&variant.program)?;
    let after = surface::surface_row("s", &variant.program, &after_bec, &after_profile).live_sites;
    let delta_pct =
        if before == 0 { 0.0 } else { 100.0 * (after as f64 - before as f64) / before as f64 };

    if args.json {
        let doc = Json::obj(vec![
            ("file", Json::str(&args.file)),
            ("criterion", Json::str(criterion.name())),
            ("live_sites_before", Json::UInt(before)),
            ("live_sites_after", Json::UInt(after)),
            ("delta_pct", Json::Float(delta_pct)),
            ("permutation", permutation_json(&program, &variant)),
        ]);
        println!("{}", doc.render());
    } else {
        println!(
            "Vulnerability-aware scheduling of {} (criterion {})\n",
            args.file,
            criterion.name()
        );
        print!(
            "{}",
            report::format_table(
                &["fault surface", "live sites"],
                &[
                    vec!["original order".into(), report::group_digits(before)],
                    vec!["scheduled".into(), report::group_digits(after)],
                ],
            )
        );
        println!("\nchange: {delta_pct:+.2} %");
    }

    if emit_asm {
        let text = if variant.program.config == bec_ir::MachineConfig::rv32() {
            bec_rv32::print_rv32(&variant.program)
        } else {
            bec_ir::print_program(&variant.program)
        };
        println!("\n{text}");
    }
    Ok(())
}
