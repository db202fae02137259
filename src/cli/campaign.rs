//! `bec campaign` — the sharded fault-injection campaign with differential
//! validation: lifts the input, enumerates the statically classified fault
//! space, runs it (exhaustively or as a seeded sample) on the worker pool,
//! and cross-checks every observed outcome against the BEC verdict. Any
//! statically-masked fault observed corrupting the execution is a soundness
//! violation and a hard failure (exit code 1).
//!
//! The JSON report is deterministic for a fixed (input, seed, sample,
//! shards) tuple — worker count and timing never influence it — and is
//! resumable: `--report out.json --resume out.json` re-runs only the shards
//! missing from an interrupted campaign.

use super::{
    flag_value, input, load_resume, write_report, CampaignFlag, CampaignFlags, CliError, CommonArgs,
};
use bec::artifacts::ArtifactStore;
use bec_core::{report, BecAnalysis};
use bec_sim::json::Json;
use bec_sim::shard::CampaignReport;
use bec_sim::study::{prepare_campaign, run_prepared, StudySpec};
use bec_sim::{Engine, FaultClass, PoolStats, SimLimits, Simulator, SiteVerdicts};
use bec_telemetry::Telemetry;

struct Flags {
    /// The campaign knobs. The engine and the checkpoint interval never
    /// influence the report bytes — both are wall-clock levers. With no
    /// `--max-cycles` the per-run budget is `100 × golden + 10k`, enough
    /// for any trace-identical (masked) run while cutting
    /// corrupted-counter loops off quickly.
    spec: StudySpec,
    report_path: Option<String>,
    resume_path: Option<String>,
}

fn parse_flags(args: &CommonArgs) -> Result<Flags, CliError> {
    let mut campaign = CampaignFlags::new(&CampaignFlag::ALL, StudySpec::default());
    let (mut report_path, mut resume_path) = (None, None);
    let mut it = args.rest.iter();
    while let Some(flag) = it.next() {
        if campaign.parse(flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--report" => report_path = Some(flag_value(flag, &mut it)?.to_owned()),
            "--resume" => resume_path = Some(flag_value(flag, &mut it)?.to_owned()),
            other => return Err(CliError::usage(format!("unknown flag `{other}`"))),
        }
    }
    Ok(Flags { spec: campaign.spec, report_path, resume_path })
}

/// The prepare phase with `--cache-dir` wired in: analysis verdicts and
/// (under the adaptive checkpoint policy) the golden pair come from the
/// artifact store when warm, so a warm run skips the whole analysis +
/// golden phase. Cold or cacheless runs compute the verdicts and golden
/// pair afresh — the prepared campaign, and therefore the report, is
/// byte-identical either way.
fn prepare_cached(
    file: &str,
    program: &bec_ir::Program,
    options: &bec_core::BecOptions,
    rules: &str,
    store: Option<&ArtifactStore>,
    spec: &StudySpec,
    tel: &Telemetry,
) -> Result<bec_sim::PreparedCampaign, String> {
    let compute_verdicts = || SiteVerdicts::of(program, &BecAnalysis::analyze(program, options));
    let probe_limit = spec.max_cycles.unwrap_or(100_000_000);
    let (verdicts, golden_override) = match store {
        Some(s) => {
            // `load_program` already read the file; raw bytes are the key.
            let bytes = std::fs::read(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
            let verdicts = s.verdicts_or(rules, &bytes, tel, compute_verdicts);
            // The golden pair is only cacheable under the adaptive policy
            // it was recorded with; an explicit interval re-probes.
            let golden = match spec.checkpoint_interval {
                None => Some(s.golden_or(&bytes, probe_limit, tel, || {
                    Simulator::with_limits(program, SimLimits { max_cycles: probe_limit })
                        .run_golden_aligned()
                })),
                Some(_) => None,
            };
            (verdicts, golden)
        }
        None => (compute_verdicts(), None),
    };
    prepare_campaign(file, program, &verdicts, spec, golden_override, None, tel)
}

pub fn run(args: &CommonArgs) -> Result<(), CliError> {
    let Flags { spec, report_path, resume_path } = parse_flags(args)?;
    let program = input::load_program(&args.file)?;
    let resume = load_resume(resume_path.as_deref(), "campaign", CampaignReport::from_json)?;
    // The shared campaign driver (`bec_sim::study`): golden probe, derived
    // injection budget, checkpointed engine, sharded pool.
    let tel = Telemetry::enabled();
    let store = match &args.cache_dir {
        Some(dir) => Some(ArtifactStore::open(dir).map_err(CliError::failed)?),
        None => None,
    };
    let prep = prepare_cached(
        &args.file,
        &program,
        &args.options,
        &args.rules,
        store.as_ref(),
        &spec,
        &tel,
    )
    .map_err(CliError::failed)?;
    let run =
        run_prepared(&args.file, &program, prep, &spec, resume, &tel).map_err(CliError::failed)?;
    let (campaign, stats, interval) = (run.report, run.stats, run.interval);

    write_report(report_path.as_deref(), &campaign.to_json())?;

    // Timing is real but nondeterministic — it goes to stderr so stdout
    // stays byte-reproducible for a fixed spec.
    eprintln!("campaign: {}", summary_line(campaign.runs(), &stats));
    args.export_telemetry(&tel)?;

    let violations = campaign.violations();
    if args.json {
        println!(
            "{}",
            with_engine_metadata(campaign.to_json(), spec.engine, interval, stats.early_exits)
                .render()
        );
    } else {
        let fault_space = campaign.fault_space;
        let adaptive = spec.checkpoint_interval.is_none();
        print_text(
            args,
            &campaign,
            fault_space,
            spec.engine,
            interval,
            adaptive,
            stats.early_exits,
        );
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(CliError::failed(format!(
            "{} soundness violation(s): statically-masked faults corrupted the execution",
            violations.len()
        )))
    }
}

/// The unified stderr execution summary every campaign-shaped command
/// prints: runs, wall time, throughput, workers, shard and early-exit
/// tallies. Nondeterministic by design, stderr-only.
pub(super) fn summary_line(runs: u64, stats: &PoolStats) -> String {
    let secs = stats.wall.as_secs_f64();
    format!(
        "{} runs in {:.1} ms ({:.0} runs/s) on {} workers ({} shards executed, {} resumed, {} early-converged)",
        report::group_digits(runs),
        secs * 1e3,
        runs as f64 / secs.max(1e-9),
        stats.workers,
        stats.executed_shards,
        stats.resumed_shards,
        report::group_digits(stats.early_exits),
    )
}

/// Appends the engine metadata to the stdout JSON. The `--report` file
/// stays free of it: the report artifact must be byte-identical across
/// engines and intervals (and resumable between them), so the engine
/// name, the interval and the interval-dependent (but worker- and
/// engine-independent) early-exit count are presentation metadata only.
fn with_engine_metadata(doc: Json, engine: Engine, interval: u64, early_exits: u64) -> Json {
    match doc {
        Json::Obj(mut fields) => {
            fields.push(("engine".to_owned(), Json::str(engine.name())));
            fields.push(("checkpoint_interval".to_owned(), Json::UInt(interval)));
            fields.push(("early_exits".to_owned(), Json::UInt(early_exits)));
            Json::Obj(fields)
        }
        other => other,
    }
}

fn print_text(
    args: &CommonArgs,
    campaign: &CampaignReport,
    fault_space: u64,
    engine: Engine,
    interval: u64,
    adaptive: bool,
    early_exits: u64,
) {
    let g = report::group_digits;
    println!("Differential fault-injection campaign for {}\n", args.file);
    let mode = match campaign.spec.sample {
        Some(n) => format!("seeded sample of {} (seed {})", g(n), campaign.spec.seed),
        None => "exhaustive".to_owned(),
    };
    // Without checkpoints the bitsliced engine has nothing to batch from
    // and silently degrades to scalar from-scratch runs — say so.
    let engine = match interval {
        0 => "scalar, from-scratch (checkpointing disabled)".to_owned(),
        n if adaptive => {
            format!("{}, checkpointed at block boundaries (~{} cycle spacing)", engine.name(), g(n))
        }
        n => format!("{}, checkpointed every {} cycles", engine.name(), g(n)),
    };
    print!(
        "{}",
        report::format_table(
            &["campaign", ""],
            &[
                vec!["fault space (site occurrences)".into(), g(fault_space)],
                vec!["mode".into(), mode],
                vec!["engine".into(), engine],
                vec!["shards".into(), g(campaign.spec.shards as u64)],
                vec!["runs".into(), g(campaign.runs())],
                vec!["early-converged runs".into(), g(early_exits)],
                vec!["statically masked runs".into(), g(campaign.masked_runs())],
            ],
        )
    );
    println!();
    let counts = campaign.outcome_counts();
    print!(
        "{}",
        report::format_table(
            &["outcome", "runs"],
            &FaultClass::ALL
                .iter()
                .map(|c| vec![c.name().into(), g(counts[c.index()])])
                .collect::<Vec<_>>(),
        )
    );

    let violations = campaign.violations();
    if violations.is_empty() {
        println!("\ndifferential check: OK — every statically-masked fault was observed benign");
    } else {
        println!("\ndifferential check: {} VIOLATION(S)", violations.len());
        for v in violations.iter().take(16) {
            println!(
                "  func {} {} {} bit {} occurrence {} (cycle {}): statically masked, observed {}",
                v.fault.func,
                v.fault.point,
                v.fault.spec.reg,
                v.fault.spec.bit,
                v.fault.occurrence,
                v.fault.spec.cycle,
                v.class.name(),
            );
        }
        if violations.len() > 16 {
            println!("  … and {} more", violations.len() - 16);
        }
    }
}
