//! Soundness pin of the shared golden substrate (PR 8): a study that
//! *derives* every variant's golden run from one recorded baseline
//! substrate must be byte-identical to a study that re-simulates every
//! golden independently — at any worker count and under either execution
//! engine. Golden reuse is a pure wall-clock lever, exactly like the
//! checkpoint interval and the bitsliced engine before it.
//!
//! Two layers are pinned:
//!
//! 1. **Report bytes** — `bec::study::run_study` with reuse {on, off} ×
//!    engine {scalar, bitsliced} × workers {1, 2, 8} renders one single
//!    byte sequence (crc32 through the orchestrator, countyears through
//!    the campaign layer directly, since it is not a suite benchmark).
//! 2. **Derived goldens** — for every suite benchmark and every scheduled
//!    variant, the substrate-derived golden run and checkpoint log equal
//!    an independently recorded one field by field: trace hash, outputs,
//!    cycle count, terminal registers, memory digest, the full
//!    occurrence index, the cycle→point map and the checkpoint grid.

use bec::study::{run_study, StudyConfig};
use bec_core::{BecAnalysis, BecOptions};
use bec_sim::study::{prepare_campaign, run_prepared, StudySpec};
use bec_sim::{Engine, GoldenSubstrate, SharedGolden, SimLimits, Simulator, SiteVerdicts};
use bec_telemetry::Telemetry;

/// The same per-run cycle budget `prepare_campaign`'s golden probe uses
/// for a default spec; the substrate must be recorded under identical
/// limits or derived runs could diverge on budget exhaustion.
const LIMITS: SimLimits = SimLimits { max_cycles: 100_000_000 };

#[test]
fn study_bytes_invariant_under_reuse_engine_and_workers() {
    let mut renders = Vec::new();
    for reuse in [true, false] {
        for engine in [Engine::Scalar, Engine::Bitsliced] {
            for workers in [1usize, 2, 8] {
                let spec = StudySpec {
                    sample: Some(60),
                    shards: 6,
                    workers,
                    engine,
                    golden_reuse: reuse,
                    ..StudySpec::default()
                };
                let cfg =
                    StudyConfig { benchmarks: vec!["crc32".into()], ..StudyConfig::suite(spec) };
                let report = run_study(&cfg, None, &Telemetry::disabled(), |_| {}).unwrap();
                renders.push((reuse, engine, workers, report.to_json().render()));
            }
        }
    }
    let (_, _, _, reference) = &renders[0];
    for (reuse, engine, workers, render) in &renders {
        assert_eq!(
            render, reference,
            "report bytes diverged at reuse={reuse} engine={engine:?} workers={workers}"
        );
    }
}

#[test]
fn countyears_campaign_bytes_invariant_under_reuse() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/countyears.s"))
            .unwrap();
    let program = bec_rv32::parse_asm(&text).unwrap();
    let options = BecOptions::paper();
    let substrate = GoldenSubstrate::record(&program, LIMITS).unwrap();
    let scheduler = bec_sched::Scheduler::new(&program, &options);
    for variant in scheduler.variants() {
        let verdicts =
            SiteVerdicts::of(&variant.program, &BecAnalysis::analyze(&variant.program, &options));
        let label = format!("countyears:{}", variant.criterion.name());
        let mut renders = Vec::new();
        for engine in [Engine::Scalar, Engine::Bitsliced] {
            for workers in [1usize, 2, 8] {
                let spec = StudySpec {
                    sample: Some(80),
                    shards: 4,
                    workers,
                    engine,
                    ..StudySpec::default()
                };
                for shared in [
                    Some(SharedGolden { substrate: &substrate, permutation: &variant.permutation }),
                    None,
                ] {
                    let tel = Telemetry::disabled();
                    let prep = prepare_campaign(
                        &label,
                        &variant.program,
                        &verdicts,
                        &spec,
                        None,
                        shared,
                        &tel,
                    )
                    .unwrap();
                    let run =
                        run_prepared(&label, &variant.program, prep, &spec, None, &tel).unwrap();
                    renders.push(run.report.to_json().render());
                }
            }
        }
        assert!(
            renders.windows(2).all(|w| w[0] == w[1]),
            "{label}: campaign bytes depend on reuse, engine or workers"
        );
    }
}

#[test]
fn derived_goldens_match_independent_recordings_on_every_suite_benchmark() {
    for bench in bec_suite::all() {
        let program = bench.compile().unwrap();
        let substrate = GoldenSubstrate::record(&program, LIMITS)
            .unwrap_or_else(|e| panic!("{}: substrate recording failed: {e}", bench.name));
        let scheduler = bec_sched::Scheduler::new(&program, &BecOptions::paper());
        for variant in scheduler.variants() {
            let derived =
                substrate.derive(&variant.program, &variant.permutation).unwrap_or_else(|| {
                    panic!(
                        "{}/{}: scheduler output failed the substrate precondition",
                        bench.name,
                        variant.criterion.name()
                    )
                });
            let (independent, ind_ckpts) =
                Simulator::with_limits(&variant.program, LIMITS).run_golden_aligned();
            let ctx = format!("{}/{}", bench.name, variant.criterion.name());
            assert_eq!(
                derived.golden.result.hash.digest(),
                independent.result.hash.digest(),
                "{ctx}: trace hash"
            );
            assert_eq!(derived.golden.outputs(), independent.outputs(), "{ctx}: outputs");
            assert_eq!(derived.golden.cycles(), independent.cycles(), "{ctx}: cycles");
            assert_eq!(
                derived.golden.terminal_regs(),
                independent.terminal_regs(),
                "{ctx}: terminal regs"
            );
            assert_eq!(derived.golden.mem_digest(), independent.mem_digest(), "{ctx}: digest");
            // Positional identity: the variant executes the same point
            // numbers at the same cycles as the baseline, so the whole
            // occurrence index and cycle→point map carry over verbatim.
            assert_eq!(
                derived.golden.occurrence_index(),
                independent.occurrence_index(),
                "{ctx}: occurrence index"
            );
            for cycle in (0..independent.cycles()).step_by(7) {
                assert_eq!(
                    derived.golden.point_at(cycle),
                    independent.point_at(cycle),
                    "{ctx}: point at cycle {cycle}"
                );
                assert_eq!(
                    derived.golden.depth_at(cycle),
                    independent.depth_at(cycle),
                    "{ctx}: depth at cycle {cycle}"
                );
                assert_eq!(
                    derived.golden.window_open_cycle(cycle),
                    independent.window_open_cycle(cycle),
                    "{ctx}: window at cycle {cycle}"
                );
            }
            assert_eq!(derived.ckpts, ind_ckpts, "{ctx}: checkpoint log");
        }
    }
}
