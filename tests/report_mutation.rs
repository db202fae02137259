//! Seeded mutation test of the report read path: real campaign and study
//! reports are truncated, byte-flipped and stripped of fields, and every
//! mutant goes through the same steps `--resume` takes (UTF-8 read,
//! `Json::parse`, `from_json`, plan validation). Each
//! must end in `Ok` or `Err` — never a panic — within a time budget
//! proportional to its length, so a quadratic step shows up as a failure
//! rather than as a hang.

use bec::study::{run_study, StudyConfig};
use bec_core::{BecAnalysis, BecOptions};
use bec_ir::Program;
use bec_sched::Scheduler;
use bec_sim::json::Json;
use bec_sim::study::{prepare_campaign, run_prepared};
use bec_sim::{CampaignReport, PreparedCampaign, SiteVerdicts, StudyReport, StudySpec};
use bec_telemetry::Telemetry;
use bec_testutil::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const MUTANTS: usize = 300;

fn gcd() -> Program {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/gcd.s");
    bec_rv32::parse_asm(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn prepare(label: &str, program: &Program, spec: &StudySpec) -> PreparedCampaign {
    let verdicts = SiteVerdicts::of(program, &BecAnalysis::analyze(program, &BecOptions::paper()));
    prepare_campaign(label, program, &verdicts, spec, None, None, &Telemetry::disabled()).unwrap()
}

/// Applies one seeded mutation: truncation, a byte flip (raw or to a
/// JSON-significant character), a deleted line, or a deleted object field.
fn mutate(rng: &mut Rng, text: &str) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    match rng.index(5) {
        0 => bytes.truncate(rng.index(bytes.len())),
        1 => {
            let i = rng.index(bytes.len());
            bytes[i] ^= rng.range_u64(1, 255) as u8;
        }
        2 => {
            const SIGNIFICANT: &[u8] = b"\"\\:{}[],0123456789-.eE tfl";
            let i = rng.index(bytes.len());
            bytes[i] = *rng.choose(SIGNIFICANT);
        }
        3 => {
            let lines: Vec<&str> = text.lines().collect();
            let drop = rng.index(lines.len());
            let kept: Vec<&str> =
                lines.iter().enumerate().filter(|&(i, _)| i != drop).map(|(_, l)| *l).collect();
            bytes = kept.join("\n").into_bytes();
        }
        _ => {
            let mut doc = Json::parse(text).unwrap();
            delete_field(rng, &mut doc);
            bytes = doc.render().into_bytes();
        }
    }
    bytes
}

/// Removes one field of a randomly chosen object inside `doc`.
fn delete_field(rng: &mut Rng, doc: &mut Json) {
    match doc {
        Json::Obj(fields) if !fields.is_empty() => {
            let i = rng.index(fields.len());
            let nested = matches!(fields[i].1, Json::Obj(_) | Json::Arr(_));
            if nested && rng.bool() {
                delete_field(rng, &mut fields[i].1);
            } else {
                fields.remove(i);
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            let i = rng.index(items.len());
            delete_field(rng, &mut items[i]);
        }
        _ => {}
    }
}

/// Feeds `MUTANTS` mutants of `text` through `read`, asserting each
/// returns without panicking inside its length-proportional budget.
/// Returns how many mutants were accepted.
fn fuzz_read_path(seed: u64, text: &str, read: impl Fn(&[u8]) -> Result<(), String>) -> usize {
    let mut rng = Rng::seeded(seed);
    let mut accepted = 0;
    for n in 0..MUTANTS {
        let input = mutate(&mut rng, text);
        // About four times the slowest mutant of an unoptimized build
        // (0.14 µs a byte). At these sizes the budget catches hangs and
        // gross slowdowns; `crates/sim/tests/report_scaling.rs` pins
        // linearity itself.
        let budget = Duration::from_millis(5) + Duration::from_nanos(500) * input.len() as u32;
        let timed = || {
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| read(&input))).unwrap_or_else(|_| {
                panic!(
                    "mutant {n} (seed {seed}) panicked the read path:\n{}",
                    String::from_utf8_lossy(&input)
                )
            });
            (start.elapsed(), result)
        };
        let (mut best, result) = timed();
        // A budget overrun is re-timed twice before it counts, so a
        // descheduled test thread does not fail the suite.
        for _ in 0..2 {
            if best <= budget {
                break;
            }
            best = best.min(timed().0);
        }
        assert!(best <= budget, "mutant {n} (seed {seed}) took {best:?}, budget {budget:?}");
        accepted += usize::from(result.is_ok());
    }
    accepted
}

#[test]
fn mutated_campaign_reports_fail_cleanly() {
    let program = gcd();
    let spec = StudySpec { shards: 8, ..StudySpec::default() };
    let label = "examples/gcd.s";
    let run = run_prepared(
        label,
        &program,
        prepare(label, &program, &spec),
        &spec,
        None,
        &Telemetry::disabled(),
    )
    .unwrap();
    let text = run.report.to_json().render();

    let prep = prepare(label, &program, &spec);
    let read = |bytes: &[u8]| {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let report = CampaignReport::from_json(&Json::parse(text)?)?;
        report.validate_resume(label, &prep.plan, prep.budget)?;
        Ok(report)
    };
    let accepted = fuzz_read_path(0xbec1, &text, |bytes| read(bytes).map(drop));
    // A report that validates resumes for real, outside the timed path.
    let mut rng = Rng::seeded(0xbec1);
    for _ in 0..MUTANTS {
        if let Ok(report) = read(&mutate(&mut rng, &text)) {
            let prep = prepare(label, &program, &spec);
            run_prepared(label, &program, prep, &spec, Some(report), &Telemetry::disabled())
                .unwrap();
        }
    }
    // Some mutations (whitespace, a deleted pending shard) keep the
    // report valid; most must be rejected.
    assert!(accepted < MUTANTS / 2, "{accepted} of {MUTANTS} mutants accepted");
}

#[test]
fn mutated_study_reports_fail_cleanly() {
    let spec = StudySpec { sample: Some(40), shards: 4, ..StudySpec::default() };
    let mut cfg = StudyConfig::suite(spec);
    cfg.benchmarks = vec!["crc32".into()];
    let report = run_study(&cfg, None, &Telemetry::disabled(), |_| {}).unwrap();
    let text = report.to_json().render();

    // The plan of every variant campaign, as `bec study --resume` builds
    // it, to validate the resumed campaigns against.
    let program = bec_suite::benchmark("crc32").unwrap().compile().unwrap();
    let plans: Vec<(String, String, PreparedCampaign)> = Scheduler::new(&program, &cfg.options)
        .variants()
        .into_iter()
        .map(|v| {
            let criterion = v.criterion.name().to_owned();
            let label = format!("study:crc32:{criterion}");
            let prep = prepare(&label, &v.program, &spec);
            (criterion, label, prep)
        })
        .collect();
    for (criterion, label, prep) in &plans {
        let prior = report.prior_campaign("crc32", criterion).unwrap();
        prior.validate_resume(label, &prep.plan, prep.budget).unwrap();
    }

    let accepted = fuzz_read_path(0xbec2, &text, |bytes| {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let report = StudyReport::from_json(&Json::parse(text)?)?;
        if !report.matches(&cfg.rules, &spec) {
            return Err("different study".into());
        }
        for (criterion, label, prep) in &plans {
            if let Some(prior) = report.prior_campaign("crc32", criterion) {
                prior.validate_resume(label, &prep.plan, prep.budget)?;
            }
        }
        Ok(())
    });
    assert!(accepted < MUTANTS / 2, "{accepted} of {MUTANTS} mutants accepted");
}
