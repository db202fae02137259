//! Traced pipelines of the repository benchmark (`perfbench/run.py`).
//!
//! Each subcommand runs one benchmark workload through the library's public
//! functions — the calls `bec study`, `bec campaign --resume` and `bec fuzz`
//! make, in the same order and with the same arguments — and times every
//! call from here. Nothing inside the program is instrumented: a layer's
//! time is the wall time of the public calls that belong to it, and its
//! counters come from the values those calls return and from the telemetry
//! handle the calls already take.
//!
//! Every traced subcommand writes the artifact its CLI counterpart writes,
//! so the benchmark can compare the two, and prints one JSON object on
//! stdout:
//!
//! ```text
//! half   <asm> <shard,...> <half.json> <full.json> <workers>
//! study  <report.json> <workers> <seed> <sample|exhaustive> [bench,...]
//! resume <asm> <half.json> <report.json> <workers>
//! fuzz   <findings.json> <workers> <seed> <budget>
//! ```

use bec_core::{BecAnalysis, BecOptions};
use bec_fuzzgen::generate;
use bec_ir::{MachineConfig, PointId, Program, Reg};
use bec_sched::{Criterion, Scheduler};
use bec_sim::json::Json;
use bec_sim::shard::CampaignReport;
use bec_sim::study::{
    prepare_campaign, run_prepared, BenchmarkStudy, CampaignRun, EquivalenceRecord, ScoringRecord,
    StudyReport, StudySpec, VariantRecord,
};
use bec_sim::{
    FaultSpec, FuzzFinding, FuzzReport, FuzzSpec, GoldenRun, GoldenSubstrate, MismatchKind,
    SharedGolden, SimLimits, Simulator, SiteVerdicts,
};
use bec_telemetry::Telemetry;
use bec_testutil::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layer times; together with `trace.unattributed_s` they add up to
/// the traced wall time.
const LAYER_TIMES: [&str; 11] = [
    "suite.compile_s",
    "rv32.parse_s",
    "core.analyze_s",
    "sched.schedule_s",
    "sim.golden_s",
    "sim.campaign_s",
    "report.read_s",
    "report.validate_s",
    "report.write_s",
    "fuzzgen.generate_s",
    "fuzz.probe_s",
];

/// Per-layer metrics, keyed by their benchmark names (`sim.campaign_s`, …).
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Runs `f`, charging its wall time to `key`.
    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(key, started.elapsed().as_secs_f64());
        out
    }

    fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_default() += value;
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Publishes the campaign counters the pool recorded on `tel` and the
    /// ratios derived from them.
    fn campaign_counters(&mut self, tel: &Telemetry) {
        let snap = tel.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        self.add("sim.runs", counter("campaign.runs"));
        self.add("sim.batches", counter("campaign.batches"));
        self.add("sim.simulated_cycles", counter("campaign.simulated_cycles"));
        self.add("sim.substrate_hits", counter("study.golden_substrate_hits"));
        let (runs, batches) = (self.get("sim.runs"), self.get("sim.batches"));
        let lanes = counter("campaign.batched_lanes");
        self.add("sim.lane_occupancy", ratio(lanes, batches));
        self.add("sim.fork_rate", ratio(counter("campaign.forked_lanes"), lanes));
        self.add("sim.early_exit_rate", ratio(counter("campaign.early_exits"), runs));
        self.add("sim.cycles_per_run", ratio(self.get("sim.simulated_cycles"), runs));
        self.add("sim.runs_per_busy_s", ratio(runs, self.get("sim.campaign_s")));
    }

    /// Records what one campaign returned.
    fn campaign_run(&mut self, run: &CampaignRun) {
        self.add("sim.golden_cycles", run.golden.cycles() as f64);
        self.add("sim.shards_executed", run.stats.executed_shards as f64);
        self.add("sim.shards_resumed", run.stats.resumed_shards as f64);
    }

    fn analysis(&mut self, bec: &BecAnalysis) {
        self.add("core.analyses", 1.0);
        self.add("core.solver_visits", bec.stats().solver_visits as f64);
    }

    /// Renders `report` (plus the CLI's trailing newline when `newline`)
    /// and writes it to `path`, charged to the report layer.
    fn write_report(&mut self, path: &str, doc: impl FnOnce() -> Json, newline: bool) {
        let bytes = self.time("report.write_s", || {
            let mut text = doc().render();
            if newline {
                text.push('\n');
            }
            std::fs::write(path, &text).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            text.len()
        });
        self.add("report.write_bytes", bytes as f64);
    }

    /// Prints the layers with the traced wall time and the part of it no
    /// layer covers, plus workload-specific counts. Values keep every digit
    /// (`Json::Float` would round them to two decimals).
    fn print(mut self, wall: Duration, extra: &[(&str, u64)]) {
        let wall = wall.as_secs_f64();
        let covered: f64 = LAYER_TIMES.iter().map(|k| self.get(k)).sum();
        self.add("trace.unattributed_s", wall - covered);
        let layers: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let mut fields = vec![format!("\"wall_s\": {wall}")];
        fields.push(format!("\"layers\": {{{}}}", layers.join(", ")));
        fields.extend(extra.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        println!("{{{}}}", fields.join(", "));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-harness: {msg}");
    std::process::exit(1);
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> T {
    args.get(i).and_then(|a| a.parse().ok()).unwrap_or_else(|| fail(&format!("bad {what}")))
}

fn campaign_spec(workers: usize) -> StudySpec {
    StudySpec { workers, ..StudySpec::default() }
}

/// `bec campaign <asm>`'s input step: read and assemble the program.
fn parse_asm(l: &mut Layers, asm: &str) -> Program {
    let text = std::fs::read_to_string(asm).unwrap_or_else(|e| fail(&format!("read {asm}: {e}")));
    l.time("rv32.parse_s", || bec_rv32::parse_asm(&text))
        .unwrap_or_else(|e| fail(&format!("{asm}: {e}")))
}

/// `bec campaign`'s steps between input and pool: analysis and golden run.
fn prepare_asm(
    l: &mut Layers,
    asm: &str,
    program: &Program,
    spec: &StudySpec,
    tel: &Telemetry,
) -> bec_sim::PreparedCampaign {
    let bec = l.time("core.analyze_s", || BecAnalysis::analyze(program, &BecOptions::paper()));
    l.analysis(&bec);
    let verdicts = l.time("core.analyze_s", || SiteVerdicts::of(program, &bec));
    l.time("sim.golden_s", || prepare_campaign(asm, program, &verdicts, spec, None, None, tel))
        .unwrap_or_else(|e| fail(&e))
}

/// Writes the exhaustive campaign report of `asm` and the same report with
/// only the `keep` shards completed — a campaign interrupted after those
/// shards — for the resume workload to continue.
fn half(args: &[String]) {
    let (asm, keep, half_path, full_path) = (&args[0], &args[1], &args[2], &args[3]);
    let spec = campaign_spec(arg(args, 4, "worker count"));
    let keep: Vec<usize> =
        keep.split(',').map(|s| s.parse().unwrap_or_else(|_| fail("bad shard list"))).collect();
    let tel = Telemetry::disabled();
    let mut l = Layers::default();
    let program = parse_asm(&mut l, asm);
    let prep = prepare_asm(&mut l, asm, &program, &spec, &tel);
    let full = run_prepared(asm, &program, prep, &spec, None, &tel).unwrap_or_else(|e| fail(&e));
    let mut partial = full.report.clone();
    for (i, slot) in partial.shards.iter_mut().enumerate() {
        if !keep.contains(&i) {
            *slot = None;
        }
    }
    l.write_report(full_path, || full.report.to_json(), true);
    l.write_report(half_path, || partial.to_json(), true);
    println!("{{\"full_runs\": {}, \"half_runs\": {}}}", full.report.runs(), partial.runs());
}

/// `bec campaign <asm> --resume <half> --report <out>`.
fn resume(args: &[String]) {
    let (asm, half_path, report_path) = (&args[0], &args[1], &args[2]);
    let spec = campaign_spec(arg(args, 3, "worker count"));
    let started = Instant::now();
    let tel = Telemetry::enabled();
    let mut l = Layers::default();
    let program = parse_asm(&mut l, asm);
    let prior = l.time("report.read_s", || {
        let text = std::fs::read_to_string(half_path)
            .unwrap_or_else(|e| fail(&format!("read {half_path}: {e}")));
        let doc = Json::parse(&text).and_then(|d| CampaignReport::from_json(&d));
        (doc.unwrap_or_else(|e| fail(&format!("{half_path}: {e}"))), text.len())
    });
    let (prior, read_bytes) = prior;
    l.add("report.read_bytes", read_bytes as f64);
    let prep = prepare_asm(&mut l, asm, &program, &spec, &tel);
    // `run_prepared` validates the resumed report again before its pool
    // starts; this separate call is what times the check on its own.
    l.time("report.validate_s", || prior.validate_resume(asm, &prep.plan, prep.budget))
        .unwrap_or_else(|e| fail(&e));
    let run = l
        .time("sim.campaign_s", || run_prepared(asm, &program, prep, &spec, Some(prior), &tel))
        .unwrap_or_else(|e| fail(&e));
    l.campaign_run(&run);
    l.write_report(report_path, || run.report.to_json(), true);
    l.campaign_counters(&tel);
    let read_s = l.get("report.read_s");
    l.add("report.read_mb_per_s", ratio(read_bytes as f64 / 1e6, read_s));
    let violations = run.report.violations().len() as u64;
    l.print(started.elapsed(), &[("violations", violations)]);
}

/// `bec study [--bench …] [--sample N] --seed S --report <out>`: the
/// pipeline of `bec::study::run_study`, call for call.
fn study(args: &[String]) {
    let report_path = &args[0];
    let workers = arg(args, 1, "worker count");
    let seed = arg(args, 2, "seed");
    let sample = match args[3].as_str() {
        "exhaustive" => None,
        n => Some(n.parse().unwrap_or_else(|_| fail("bad sample size"))),
    };
    let names: Vec<String> = match args.get(4) {
        Some(list) => list.split(',').map(str::to_owned).collect(),
        None => bec_suite::all().iter().map(|b| b.name.to_owned()).collect(),
    };
    let spec = StudySpec { seed, sample, workers, ..StudySpec::default() };
    let options = BecOptions::paper();
    let started = Instant::now();
    let tel = Telemetry::enabled();
    let mut l = Layers::default();
    let mut report = StudyReport::empty("paper", &spec);
    for name in names {
        let bench =
            bec_suite::benchmark(&name).unwrap_or_else(|| fail(&format!("no benchmark {name}")));
        let program = l
            .time("suite.compile_s", || bench.compile())
            .unwrap_or_else(|e| fail(&format!("{name}: {e}")));
        report.benchmarks.push(study_benchmark(
            &mut l,
            &name,
            &bench.expected,
            &program,
            &spec,
            &options,
            &tel,
        ));
    }
    l.write_report(report_path, || report.to_json(), true);
    l.campaign_counters(&tel);
    let extra = [
        ("violations", report.violations().len() as u64),
        ("equivalence_failures", report.equivalence_failures().len() as u64),
        ("coverage_regressions", report.coverage_regressions().len() as u64),
    ];
    l.print(started.elapsed(), &extra);
}

fn study_benchmark(
    l: &mut Layers,
    name: &str,
    expected: &[u64],
    program: &Program,
    spec: &StudySpec,
    options: &BecOptions,
    tel: &Telemetry,
) -> BenchmarkStudy {
    let scheduler = l.time("sched.schedule_s", || Scheduler::new(program, options));
    // The scheduler runs the benchmark's one shared analysis and reports
    // that analysis's own wall time: charge it to the analysis layer.
    let stats = scheduler.analysis().stats();
    l.add("sched.schedule_s", -stats.wall.as_secs_f64());
    l.add("core.analyze_s", stats.wall.as_secs_f64());
    l.analysis(scheduler.analysis());
    let scoring = ScoringRecord {
        analyses: scheduler.analyses_run(),
        points: stats.points,
        solver_visits: stats.solver_visits,
        coalesce_passes: stats.coalesce_passes,
        uf_nodes: stats.uf_nodes,
    };
    let scheduled = l.time("sched.schedule_s", || scheduler.variants());
    l.add("sched.variants", scheduled.len() as f64);
    let limits = SimLimits { max_cycles: spec.max_cycles.unwrap_or(100_000_000) };
    let substrate = l.time("sim.golden_s", || GoldenSubstrate::record(program, limits).ok());

    let mut variants = Vec::new();
    let mut baseline: Option<GoldenRun> = None;
    for variant in scheduled {
        let criterion = variant.criterion;
        bec_ir::verify_program(&variant.program)
            .unwrap_or_else(|e| fail(&format!("{name}/{}: {e}", criterion.name())));
        let fresh;
        let vbec: &BecAnalysis = if criterion == Criterion::Original {
            scheduler.analysis()
        } else {
            fresh = l.time("core.analyze_s", || BecAnalysis::analyze(&variant.program, options));
            l.analysis(&fresh);
            &fresh
        };
        let label = format!("study:{name}:{}", criterion.name());
        let shared = substrate
            .as_ref()
            .map(|s| SharedGolden { substrate: s, permutation: &variant.permutation });
        let verdicts = l.time("core.analyze_s", || SiteVerdicts::of(&variant.program, vbec));
        let prep = l
            .time("sim.golden_s", || {
                prepare_campaign(&label, &variant.program, &verdicts, spec, None, shared, tel)
            })
            .unwrap_or_else(|e| fail(&e));
        let crun = l
            .time("sim.campaign_s", || {
                run_prepared(&label, &variant.program, prep, spec, None, tel)
            })
            .unwrap_or_else(|e| fail(&e));
        l.campaign_run(&crun);

        let equivalence =
            check_equivalence(expected, baseline.as_ref(), &variant.program, &crun.golden);
        let baseline_cycles =
            baseline.as_ref().map(GoldenRun::cycles).unwrap_or_else(|| crun.golden.cycles());
        if !equivalence.holds(baseline_cycles) {
            fail(&format!("{name}/{}: not equivalent ({equivalence:?})", criterion.name()));
        }
        let counts = vbec.site_counts(&variant.program);
        let surface =
            bec_core::surface::surface_row(name, &variant.program, vbec, &crun.golden.profile);
        if baseline.is_none() {
            baseline = Some(crun.golden);
        }
        variants.push(VariantRecord {
            criterion: criterion.name().to_owned(),
            coverage_gated: criterion.improves_reliability(),
            permutation: variant.permutation,
            total_site_bits: counts.total_site_bits,
            masked_site_bits: counts.masked_site_bits,
            live_surface: surface.live_sites,
            total_surface: surface.total_fault_space,
            equivalence,
            campaign: crun.report,
        });
    }
    BenchmarkStudy { name: name.to_owned(), scoring, variants }
}

/// The study's semantic-equivalence evidence for one variant: outputs
/// against the suite oracle and the baseline, terminal state against the
/// baseline, and the RV32 encode → lift → re-run round trip.
fn check_equivalence(
    expected: &[u64],
    baseline: Option<&GoldenRun>,
    program: &Program,
    golden: &GoldenRun,
) -> EquivalenceRecord {
    let outputs_match = golden.outputs() == expected
        && baseline.map(|b| golden.outputs() == b.outputs()).unwrap_or(true);
    EquivalenceRecord {
        cycles: golden.cycles(),
        outputs_match,
        terminal_regs_match: baseline
            .map(|b| golden.terminal_regs() == b.terminal_regs())
            .unwrap_or(true),
        mem_digest_match: baseline.map(|b| golden.mem_digest() == b.mem_digest()).unwrap_or(true),
        reencode_outputs_match: reencode_matches(program, expected),
    }
}

fn reencode_matches(program: &Program, expected: &[u64]) -> Option<bool> {
    if program.config != MachineConfig::rv32() {
        return None;
    }
    let Ok(image) = bec_rv32::encode_program(program) else { return Some(false) };
    let Ok(mut lifted) = bec_rv32::lift_image(&image) else { return Some(false) };
    lifted.globals = program.globals.clone();
    let sim = Simulator::with_limits(&lifted, SimLimits { max_cycles: 100_000_000 });
    Some(sim.run_golden().outputs() == expected)
}

/// `bec fuzz --seed S --budget N --json`: `run_fuzz`'s loop, call for
/// call — generate, analyze, campaign, class-equivalence probes — timed per
/// layer. The findings log it writes must match the report the CLI prints.
fn fuzz(args: &[String]) {
    let findings_path = &args[0];
    let spec = FuzzSpec {
        workers: arg(args, 1, "worker count"),
        seed: arg(args, 2, "seed"),
        budget: arg(args, 3, "budget"),
        ..FuzzSpec::default()
    };
    let options = BecOptions::paper();
    let started = Instant::now();
    let tel = Telemetry::enabled();
    let mut l = Layers::default();
    let mut report = FuzzReport {
        seed: spec.seed,
        budget: spec.budget,
        programs: 0,
        campaign_runs: 0,
        outcome_counts: [0; 5],
        class_probes: 0,
        findings: Vec::new(),
    };
    let mut seeds = Rng::seeded(spec.seed);
    for i in 0..spec.budget {
        let program_seed = seeds.next_u64();
        let label = format!("fuzz-{i:04}");
        let g = l.time("fuzzgen.generate_s", || generate(program_seed, &spec.profile));
        l.add("fuzzgen.programs", 1.0);
        report.programs += 1;

        let bec = l.time("core.analyze_s", || BecAnalysis::analyze(&g.program, &options));
        l.analysis(&bec);
        let study = StudySpec {
            seed: spec.seed,
            sample: spec.sample,
            shards: spec.shards,
            workers: spec.workers,
            max_cycles: None,
            checkpoint_interval: None,
            engine: spec.engine,
            golden_reuse: true,
        };
        let verdicts = l.time("core.analyze_s", || SiteVerdicts::of(&g.program, &bec));
        let prep = l
            .time("sim.golden_s", || {
                prepare_campaign(&label, &g.program, &verdicts, &study, None, None, &tel)
            })
            .unwrap_or_else(|e| fail(&e));
        let run = l
            .time("sim.campaign_s", || run_prepared(&label, &g.program, prep, &study, None, &tel))
            .unwrap_or_else(|e| fail(&e));
        l.campaign_run(&run);
        report.campaign_runs += run.report.runs();
        for (total, n) in report.outcome_counts.iter_mut().zip(run.report.outcome_counts()) {
            *total += n;
        }
        for v in run.report.violations() {
            report.findings.push(FuzzFinding {
                kind: MismatchKind::MaskedViolation,
                label: label.clone(),
                program_seed,
                fault: v.fault.spec,
                func: v.fault.func,
                point: v.fault.point,
                occurrence: v.fault.occurrence,
                observed: v.class,
                minimized: None,
            });
        }
        let probe = || class_probes(&g.program, &bec, &run.golden, program_seed, &spec, &label);
        let (probes, mut divergences) = l.time("fuzz.probe_s", probe);
        report.class_probes += probes;
        report.findings.append(&mut divergences);
    }
    l.write_report(findings_path, || report.to_json(), false);
    l.add("fuzz.findings", report.findings.len() as f64);
    l.campaign_counters(&tel);
    l.print(started.elapsed(), &[]);
}

/// The salt of `run_fuzz`'s class-probe random stream.
const CLASS_PROBE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One live member of a coalescing class: its site and bit.
type Member = (PointId, Reg, u32);

/// `run_fuzz`'s class-equivalence probes, which are private to it: inject
/// two live members of one coalescing class at corresponding occurrences
/// and compare the trace digests. Returns the probe count and the
/// divergences found.
fn class_probes(
    program: &Program,
    bec: &BecAnalysis,
    golden: &GoldenRun,
    program_seed: u64,
    spec: &FuzzSpec,
    label: &str,
) -> (u64, Vec<FuzzFinding>) {
    let mut groups: Vec<(usize, Vec<Member>)> = Vec::new();
    for (fi, fa) in bec.functions().iter().enumerate() {
        let s0 = fa.coalescing.s0_class();
        for (class, sites) in fa.coalescing.site_classes() {
            if class == s0 {
                continue;
            }
            let members: Vec<Member> = sites
                .into_iter()
                .filter(|s| {
                    fa.liveness.is_live_after(s.point, s.reg)
                        && !golden.occurrences(fi, s.point).is_empty()
                })
                .map(|s| (s.point, s.reg, s.bit))
                .collect();
            if members.len() >= 2 {
                groups.push((fi, members));
            }
        }
    }
    let mut findings = Vec::new();
    if groups.is_empty() {
        return (0, findings);
    }
    let limits = SimLimits { max_cycles: golden.cycles() * 100 + 10_000 };
    let sim = Simulator::with_limits(program, limits);
    let golden_digest = golden.result.hash.digest();
    let mut rng = Rng::seeded(program_seed ^ CLASS_PROBE_SALT);
    let mut probes = 0;
    for _ in 0..spec.class_checks {
        let (func, members) = &groups[rng.index(groups.len())];
        let ai = rng.index(members.len());
        let bi = (ai + 1 + rng.index(members.len() - 1)) % members.len();
        let (ap, ar, ab) = members[ai];
        let (bp, br, bb) = members[bi];
        let occs_a = golden.occurrences(*func, ap);
        let occs_b = golden.occurrences(*func, bp);
        let k = rng.index(occs_a.len().min(occs_b.len()));
        let fault_a = FaultSpec { cycle: golden.window_open_cycle(occs_a[k]), reg: ar, bit: ab };
        let fault_b = FaultSpec { cycle: golden.window_open_cycle(occs_b[k]), reg: br, bit: bb };
        let run_a = sim.run_with_fault(fault_a);
        let run_b = sim.run_with_fault(fault_b);
        probes += 1;
        if run_a.hash.digest() != run_b.hash.digest() {
            let (fault, point, run) = if run_b.hash.digest() != golden_digest {
                (fault_b, bp, &run_b)
            } else {
                (fault_a, ap, &run_a)
            };
            findings.push(FuzzFinding {
                kind: MismatchKind::ClassDivergence,
                label: label.to_owned(),
                program_seed,
                fault,
                func: *func as u32,
                point,
                occurrence: k as u32,
                observed: run.classify(&golden.result),
                minimized: None,
            });
        }
    }
    (probes, findings)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let needs = |n: usize| {
        if rest.len() < n {
            fail("missing arguments (see the module documentation)");
        }
    };
    match args.first().map(String::as_str) {
        Some("half") => {
            needs(5);
            half(rest)
        }
        Some("resume") => {
            needs(4);
            resume(rest)
        }
        Some("study") => {
            needs(4);
            study(rest)
        }
        Some("fuzz") => {
            needs(4);
            fuzz(rest)
        }
        _ => fail("usage: perfbench-harness half|resume|study|fuzz ..."),
    }
}
