//! `bec sim` — executes the program on the fault-injection simulator,
//! optionally flipping one register bit at a chosen cycle, and reports the
//! observable outputs and outcome. With `--checkpoint-interval N` a
//! faulted run uses the checkpointed engine: it starts at the nearest
//! golden checkpoint before the injection cycle and early-exits once its
//! state provably re-converges with the golden run.

use super::{flag_value, input, CampaignFlag, CampaignFlags, CliError, CommonArgs};
use bec_sim::json::Json;
use bec_sim::study::StudySpec;
use bec_sim::{FaultSpec, SimLimits, Simulator};
use bec_telemetry::Telemetry;

fn parse_fault(spec: &str) -> Result<FaultSpec, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err(CliError::usage(format!("--fault wants <cycle>:<reg>:<bit>, got `{spec}`")));
    }
    let cycle: u64 =
        parts[0].parse().map_err(|_| CliError::usage(format!("bad fault cycle `{}`", parts[0])))?;
    let reg = bec_ir::Reg::parse(parts[1])
        .ok_or_else(|| CliError::usage(format!("bad fault register `{}`", parts[1])))?;
    let bit: u32 =
        parts[2].parse().map_err(|_| CliError::usage(format!("bad fault bit `{}`", parts[2])))?;
    Ok(FaultSpec { cycle, reg, bit })
}

pub fn run(args: &CommonArgs) -> Result<(), CliError> {
    let mut fault = None;
    let accepted = &[CampaignFlag::MaxCycles, CampaignFlag::CheckpointInterval];
    let mut limits = CampaignFlags::new(accepted, StudySpec::default());
    let mut it = args.rest.iter();
    while let Some(flag) = it.next() {
        if limits.parse(flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--fault" => fault = Some(parse_fault(flag_value(flag, &mut it)?)?),
            other => return Err(CliError::usage(format!("unknown flag `{other}`"))),
        }
    }
    let max_cycles = limits.spec.max_cycles.unwrap_or(100_000_000);
    let interval = limits.spec.checkpoint_interval.unwrap_or(0);
    if interval > 0 && fault.is_none() {
        return Err(CliError::usage("--checkpoint-interval only applies to --fault runs"));
    }

    let program = input::load_program(&args.file)?;
    if let Some(f) = fault {
        // The fault must name a real storage element of this machine.
        if f.reg.is_virtual() || f.reg.index() >= program.config.num_regs {
            return Err(CliError::failed(format!(
                "fault register {} outside the {}-register file",
                f.reg, program.config.num_regs
            )));
        }
        if f.bit >= program.config.xlen {
            return Err(CliError::failed(format!(
                "fault bit {} outside the {}-bit word",
                f.bit, program.config.xlen
            )));
        }
    }
    let tel = Telemetry::enabled();
    let sim = Simulator::with_limits(&program, SimLimits { max_cycles });
    let golden_span = tel.span("golden").arg("file", &args.file);
    let (golden, ckpts) = sim.run_golden_checkpointed(interval);
    drop(golden_span);
    tel.gauge("sim.golden_cycles", golden.cycles());
    tel.gauge("sim.checkpoint_interval", interval);
    let fault_span = fault
        .map(|f| tel.span("fault-run").arg("fault", format!("{}:{}:{}", f.cycle, f.reg, f.bit)));
    // (outcome, outputs, cycles, classification, (converged cycle, simulated)).
    let (outcome, outputs, cycles, classified, converged) = match fault {
        None => (
            format!("{:?}", golden.result.outcome),
            golden.outputs().to_vec(),
            golden.cycles(),
            None,
            None,
        ),
        Some(f) if interval > 0 => {
            let run = sim.run_with_fault_checkpointed(&golden, &ckpts, f);
            match run.result {
                Some(r) => (
                    format!("{:?}", r.outcome),
                    r.outputs().to_vec(),
                    r.cycles,
                    Some(run.class),
                    None,
                ),
                // Early-converged: the remaining trace provably equals the
                // golden suffix, so the observable behaviour is the golden
                // run's.
                None => (
                    format!("{:?}", golden.result.outcome),
                    golden.outputs().to_vec(),
                    golden.cycles(),
                    Some(run.class),
                    run.converged_at.map(|at| (at, run.simulated_cycles)),
                ),
            }
        }
        Some(f) => {
            let run = sim.run_with_fault(f);
            let class = run.classify(&golden.result);
            (format!("{:?}", run.outcome), run.outputs().to_vec(), run.cycles, Some(class), None)
        }
    };
    drop(fault_span);
    tel.add("sim.cycles", cycles);
    args.export_telemetry(&tel)?;

    if args.json {
        let mut fields = vec![
            ("file", Json::str(&args.file)),
            ("outcome", Json::str(&outcome)),
            ("cycles", Json::UInt(cycles)),
            ("outputs", Json::Arr(outputs.iter().map(|o| Json::UInt(*o)).collect())),
        ];
        if let Some(f) = fault {
            fields.push(("fault", Json::str(format!("{}:{}:{}", f.cycle, f.reg, f.bit))));
        }
        if let Some(c) = classified {
            fields.push(("classification", Json::str(format!("{c:?}"))));
        }
        if interval > 0 {
            fields.push(("checkpoint_interval", Json::UInt(interval)));
        }
        if let Some((at, simulated)) = converged {
            fields.push(("converged_at", Json::UInt(at)));
            fields.push(("simulated_cycles", Json::UInt(simulated)));
        }
        println!("{}", Json::obj(fields).render());
        return Ok(());
    }

    if let Some(f) = fault {
        println!("fault: flip bit {} of {} before cycle {}", f.bit, f.reg, f.cycle);
    }
    println!("outcome: {outcome} after {cycles} cycles");
    for (i, o) in outputs.iter().enumerate() {
        println!("output[{i}] = {o}");
    }
    if let Some(c) = classified {
        println!("classification vs golden run: {c:?}");
    }
    if let Some((at, simulated)) = converged {
        println!("early exit: converged with the golden run at cycle {at} after simulating {simulated} cycles");
    }
    Ok(())
}
