//! `bec analyze` — the static BEC report: per-function fault-space size,
//! equivalence classes and masked bits, plus a whole-program summary and
//! the dense solver's statistics.
//!
//! `--workers N` analyzes functions on N threads (0 = one per core); the
//! report and every statistic except wall time are identical at any worker
//! count, so the deterministic output stays byte-comparable and the wall
//! time goes to stderr.

use super::{flag_value, input, CampaignFlag, CliError, CommonArgs};
use bec::artifacts::ArtifactStore;
use bec_core::{report, BecAnalysis};
use bec_sim::json::Json;
use bec_telemetry::Telemetry;
use std::fmt::Write as _;

struct FuncStats {
    name: String,
    points: usize,
    sites: u64,
    classes: usize,
    masked: u64,
    coalesced: u64,
}

fn stats(program: &bec_ir::Program, bec: &BecAnalysis) -> Vec<FuncStats> {
    bec.functions()
        .iter()
        .enumerate()
        .map(|(fi, fa)| {
            let func = &program.functions[fi];
            let s0 = fa.coalescing.s0_class();
            let mut sites = 0u64;
            let mut masked = 0u64;
            let mut coalesced = 0u64;
            for (rep, members) in fa.coalescing.site_classes() {
                sites += members.len() as u64;
                if rep == s0 {
                    masked += members.len() as u64;
                } else {
                    // Every member beyond the representative shares a run.
                    coalesced += members.len() as u64 - 1;
                }
            }
            FuncStats {
                name: fa.name.clone(),
                points: func.point_count(),
                sites,
                classes: fa.coalescing.class_count(),
                masked,
                coalesced,
            }
        })
        .collect()
}

fn parse_workers(rest: &[String]) -> Result<usize, CliError> {
    let mut workers = 1usize;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match CampaignFlag::named(a) {
            Some(CampaignFlag::Workers) => {
                let v = flag_value(a, &mut it)?;
                workers = v
                    .parse::<usize>()
                    .map_err(|_| CliError::usage(format!("bad worker count `{v}`")))?;
            }
            _ => return Err(CliError::usage(format!("unknown analyze flag `{a}`"))),
        }
    }
    if workers == 0 {
        workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    Ok(workers)
}

pub fn run(args: &CommonArgs) -> Result<(), CliError> {
    let workers = parse_workers(&args.rest)?;
    let tel = Telemetry::enabled();
    // The analysis report is a pure function of (file content, rules,
    // format): with `--cache-dir` a warm run replays the rendered bytes
    // and skips the analysis entirely. The file path rides in the key so
    // the echoed header stays truthful when identical content moves.
    let rendered = match &args.cache_dir {
        Some(dir) => {
            let store = ArtifactStore::open(dir).map_err(CliError::failed)?;
            let bytes = std::fs::read(&args.file)
                .map_err(|e| CliError::failed(format!("cannot read `{}`: {e}", args.file)))?;
            let format = if args.json { "json" } else { "text" };
            let mut failed = None;
            let text = store.report_or(
                "analyze",
                &[&args.rules, format, &args.file],
                &bytes,
                &tel,
                || match render(args, workers, &tel) {
                    Ok(t) => t,
                    Err(e) => {
                        failed = Some(e);
                        String::new()
                    }
                },
            );
            if let Some(e) = failed {
                return Err(e);
            }
            text
        }
        None => render(args, workers, &tel)?,
    };
    print!("{rendered}");
    args.export_telemetry(&tel)
}

/// Computes the analysis and renders the full stdout document (JSON or
/// text). The nondeterministic wall-time line goes to stderr here, so the
/// returned bytes are cacheable verbatim.
fn render(args: &CommonArgs, workers: usize, tel: &Telemetry) -> Result<String, CliError> {
    let program = input::load_program(&args.file)?;
    let bec = BecAnalysis::analyze_instrumented(&program, &args.options, workers, tel);
    let solver = *bec.stats();
    // Wall time and worker count are run parameters, not analysis results:
    // they go to stderr so stdout is byte-identical at any worker count.
    eprintln!(
        "analysis wall time: {:.2} ms ({} worker{})",
        solver.wall.as_secs_f64() * 1e3,
        solver.workers,
        if solver.workers == 1 { "" } else { "s" }
    );
    let rows = stats(&program, &bec);
    let mut out = String::new();

    let total = |f: fn(&FuncStats) -> u64| -> u64 { rows.iter().map(f).sum() };
    if args.json {
        let fns: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("name", Json::str(&r.name)),
                    ("points", Json::UInt(r.points as u64)),
                    ("fault_sites", Json::UInt(r.sites)),
                    ("classes", Json::UInt(r.classes as u64)),
                    ("masked_sites", Json::UInt(r.masked)),
                    ("coalesced_sites", Json::UInt(r.coalesced)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("file", Json::str(&args.file)),
            ("xlen", Json::UInt(program.config.xlen as u64)),
            ("registers", Json::UInt(program.config.num_regs as u64)),
            ("functions", Json::Arr(fns)),
            ("total_fault_sites", Json::UInt(total(|r| r.sites))),
            ("total_masked", Json::UInt(total(|r| r.masked))),
            ("total_coalesced", Json::UInt(total(|r| r.coalesced))),
            // Deterministic solver counters only — wall time is on stderr,
            // so `--json` stdout stays byte-stable for golden comparison.
            (
                "solver",
                Json::obj(vec![
                    ("points", Json::UInt(solver.points)),
                    ("worklist_visits", Json::UInt(solver.solver_visits)),
                    ("coalesce_passes", Json::UInt(solver.coalesce_passes)),
                    ("union_find_nodes", Json::UInt(solver.uf_nodes)),
                ]),
            ),
        ]);
        let _ = writeln!(out, "{}", doc.render());
        return Ok(out);
    }

    let _ = writeln!(
        out,
        "BEC analysis of {} (xlen={}, {} registers)\n",
        args.file, program.config.xlen, program.config.num_regs
    );
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("@{}", r.name),
                r.points.to_string(),
                report::group_digits(r.sites),
                r.classes.to_string(),
                report::group_digits(r.masked),
                report::group_digits(r.coalesced),
            ]
        })
        .collect();
    out.push_str(&report::format_table(
        &["function", "points", "fault sites", "classes", "masked", "coalesced"],
        &table_rows,
    ));
    let sites = total(|r| r.sites);
    let masked = total(|r| r.masked);
    let coalesced = total(|r| r.coalesced);
    let _ = writeln!(
        out,
        "\n{} fault sites; {} provably masked, {} coalesced into equivalent runs \
         ({:.1} % of the site space prunable statically)",
        report::group_digits(sites),
        report::group_digits(masked),
        report::group_digits(coalesced),
        if sites == 0 { 0.0 } else { 100.0 * (masked + coalesced) as f64 / sites as f64 },
    );
    let _ = writeln!(
        out,
        "solver: {} points, {} worklist visits, {} coalesce passes, {} union-find nodes",
        report::group_digits(solver.points),
        report::group_digits(solver.solver_visits),
        solver.coalesce_passes,
        report::group_digits(solver.uf_nodes),
    );
    Ok(out)
}
