//! Regenerates Table I: the cost of exhaustive fault-injection campaigns
//! (wall time and report size of the cycle-exhaustive campaign).
//!
//! The paper's campaigns took hours and hundreds of gigabytes on full
//! workloads; this harness demonstrates the same cost *asymmetry* on scaled
//! workloads — the exhaustive campaign cost explodes with trace length,
//! while the BEC analysis runs once at compile time.
//!
//! The campaign runs every `(cycle, register, bit)` of the fault space
//! ([`exhaustive_fault_space`]) through the one campaign engine, under the
//! simulator's default 2,000,000-cycle budget. The engine classifies runs
//! as they finish and exits converged runs early, so it never archives
//! traces; the "Report size" column is the byte length of the rendered
//! [`bec_sim::CampaignReport`], one row per fault.
//!
//! ```text
//! cargo run -p bec-bench --release --bin table1
//! ```

use bec_core::report::{format_table, group_digits};
use bec_core::{BecAnalysis, BecOptions};
use bec_sim::study::{prepare_campaign, run_prepared, PreparedCampaign, StudySpec};
use bec_sim::{exhaustive_fault_space, CampaignSpec, ShardPlan, SimLimits, SiteVerdicts};
use bec_telemetry::Telemetry;
use std::time::Instant;

fn main() {
    let spec = StudySpec {
        workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        max_cycles: Some(SimLimits::default().max_cycles),
        ..StudySpec::default()
    };
    let tel = Telemetry::disabled();
    let mut rows = Vec::new();
    for b in bec_suite::tiny() {
        let program = b.compile().expect("benchmark compiles");

        // For comparison: one BEC analysis run of the same program.
        let t0 = Instant::now();
        let bec = BecAnalysis::analyze(&program, &BecOptions::paper());
        let analysis_time = t0.elapsed();

        let t0 = Instant::now();
        let verdicts = SiteVerdicts::of(&program, &bec);
        let prep = prepare_campaign(b.name, &program, &verdicts, &spec, None, None, &tel)
            .expect("golden run completes");
        let faults = exhaustive_fault_space(&program, &prep.golden);
        let prep = PreparedCampaign {
            plan: ShardPlan::build(faults, CampaignSpec::exhaustive(64)),
            ..prep
        };
        let run = run_prepared(b.name, &program, prep, &spec, None, &tel).expect("fresh campaign");
        let campaign_time = t0.elapsed();
        let report_bytes = run.report.to_json().render().len();

        rows.push(vec![
            b.name.to_owned(),
            group_digits(run.golden.cycles()),
            group_digits(run.report.runs()),
            format!("{:.2} s", campaign_time.as_secs_f64()),
            format!("{:.1} MB", report_bytes as f64 / 1e6),
            format!("{:.1} ms", analysis_time.as_secs_f64() * 1e3),
        ]);
    }

    println!(
        "TABLE I: TIME AND DISK SPACE REQUIREMENTS FOR THE EXHAUSTIVE FAULT INJECTION\nCAMPAIGN (scaled workloads; the BEC analysis column shows the compile-time\nalternative's cost on the same program)\n"
    );
    let headers =
        ["Benchmark", "Cycles", "FI runs", "Campaign time", "Report size", "BEC analysis"];
    print!("{}", format_table(&headers, &rows));
    println!(
        "\npaper (full workloads): bitcount 0.5h/1GB, AES 2h/7GB, CRC32 7h/116GB,\nSHA 10h/100GB, RSA 50h/700GB"
    );
}
