//! The differential fuzzing engine behind `bec fuzz`.
//!
//! A continuous analyze → campaign → cross-check loop over generated
//! programs: each iteration draws a program seed from the master seed
//! stream, generates a program with [`bec_fuzzgen::generate`], analyzes it,
//! and checks the analysis's claims empirically from two directions:
//!
//! * **soundness** — a full differential campaign over the sampled fault
//!   space ([`crate::study::prepare_campaign`] +
//!   [`crate::study::run_prepared`], the path `bec campaign` takes); every
//!   statically-masked fault observed non-benign is a
//!   [`MismatchKind::MaskedViolation`] finding;
//! * **class equivalence** — seeded probes that inject two members of one
//!   coalescing class at corresponding dynamic occurrences and compare the
//!   trace digests; a divergence is a [`MismatchKind::ClassDivergence`]
//!   finding.
//!
//! Findings feed the [`crate::minimize`] delta-debugging minimizer, which
//! shrinks the program to a minimal reproducer replayable with
//! `bec sim <file> --fault <cycle>:<reg>:<bit>`.
//!
//! Everything is deterministic by construction: program seeds are a pure
//! function of [`FuzzSpec::seed`], campaign reports are canonical
//! regardless of worker count or engine, the class probes run on the
//! scalar simulator, and the minimizer's search order is a pure function
//! of the program text. The findings log ([`FuzzReport::to_json`]) and
//! every corpus file therefore render to identical bytes at any
//! `--workers` count and under both engines.

use crate::bitslice::Engine;
use crate::json::Json;
use crate::machine::FaultSpec;
use crate::minimize::{Minimized, Minimizer, Oracle};
use crate::persist::SiteVerdicts;
use crate::runner::{GoldenRun, SimLimits, Simulator};
use crate::study::{prepare_campaign, run_prepared, StudySpec};
use crate::trace::FaultClass;
use crate::validate::MismatchKind;
use bec_core::{BecAnalysis, BecOptions};
use bec_fuzzgen::{generate, GenConfig};
use bec_ir::{PointId, Program, Reg};
use bec_telemetry::Telemetry;
use bec_testutil::Rng;
use std::path::Path;

/// Stream salt separating the class-probe RNG from the program-seed RNG.
const CLASS_PROBE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The deterministic inputs of a fuzzing session.
#[derive(Clone, Debug)]
pub struct FuzzSpec {
    /// Master seed: program seeds and probe choices derive from it.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub budget: u64,
    /// Per-program campaign sample (`None`: exhaustive).
    pub sample: Option<u64>,
    /// Shards per campaign.
    pub shards: u32,
    /// Worker threads (never influences findings bytes).
    pub workers: usize,
    /// Per-fault execution engine (never influences findings bytes).
    pub engine: Engine,
    /// Class-equivalence probes per program.
    pub class_checks: u32,
    /// Whether findings are shrunk to minimal reproducers.
    pub minimize: bool,
    /// The masked-claim source ([`Oracle::AssumeAllMasked`] is the
    /// demonstration hook guaranteeing findings).
    pub oracle: Oracle,
    /// The generator profile.
    pub profile: GenConfig,
}

impl Default for FuzzSpec {
    fn default() -> FuzzSpec {
        FuzzSpec {
            seed: 0xbec,
            budget: 16,
            sample: Some(256),
            shards: 16,
            workers: 1,
            engine: Engine::default(),
            class_checks: 8,
            minimize: false,
            oracle: Oracle::Analysis,
            profile: GenConfig::full(),
        }
    }
}

/// One empirical contradiction of the analysis, pinned to the generated
/// program and the exact injection that exposed it.
#[derive(Clone, Debug)]
pub struct FuzzFinding {
    /// Which claim the run contradicted.
    pub kind: MismatchKind,
    /// Corpus label of the offending program (`fuzz-NNNN`).
    pub label: String,
    /// The generator seed reproducing the program.
    pub program_seed: u64,
    /// The injection (`bec sim <label>.bec --fault cycle:reg:bit`).
    pub fault: FaultSpec,
    /// Function index of the access point.
    pub func: u32,
    /// The access point whose window the fault lands in.
    pub point: PointId,
    /// Which dynamic occurrence of `point` opened the window.
    pub occurrence: u32,
    /// The observed outcome class of the contradicting run.
    pub observed: FaultClass,
    /// The minimized reproducer, when minimization ran for this finding.
    pub minimized: Option<Minimized>,
}

/// Aggregated results of one fuzzing session.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The master seed (echoed for reproduction).
    pub seed: u64,
    /// Programs requested.
    pub budget: u64,
    /// Programs actually generated and checked.
    pub programs: u64,
    /// Fault-injection runs performed by the campaigns.
    pub campaign_runs: u64,
    /// Campaign outcome counts indexed like [`FaultClass::ALL`].
    pub outcome_counts: [u64; 5],
    /// Class-equivalence probes performed (two injections each).
    pub class_probes: u64,
    /// Every contradiction found, in discovery order.
    pub findings: Vec<FuzzFinding>,
}

impl FuzzReport {
    /// Whether the session found no contradiction.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serializes the findings log. The encoding is canonical — equal
    /// sessions render to identical bytes at any worker count and under
    /// both engines.
    pub fn to_json(&self) -> Json {
        let outcomes = FaultClass::ALL
            .iter()
            .map(|c| (c.name().to_owned(), Json::UInt(self.outcome_counts[c.index()])))
            .collect();
        let findings = self
            .findings
            .iter()
            .map(|f| {
                let kind = match f.kind {
                    MismatchKind::MaskedViolation => "masked-violation",
                    MismatchKind::ClassDivergence => "class-divergence",
                };
                let mut fields = vec![
                    ("kind", Json::str(kind)),
                    ("label", Json::str(&f.label)),
                    ("program_seed", Json::UInt(f.program_seed)),
                    ("func", Json::UInt(f.func.into())),
                    ("point", Json::UInt(f.point.0.into())),
                    ("reg", Json::str(f.fault.reg.to_string())),
                    ("bit", Json::UInt(f.fault.bit.into())),
                    ("cycle", Json::UInt(f.fault.cycle)),
                    ("occurrence", Json::UInt(f.occurrence.into())),
                    ("observed", Json::str(f.observed.name())),
                ];
                if let Some(m) = &f.minimized {
                    let w = &m.witness;
                    fields.push((
                        "minimized",
                        Json::obj(vec![
                            ("instructions", Json::UInt(m.instructions)),
                            ("initial_instructions", Json::UInt(m.initial_instructions)),
                            ("shrinks", Json::UInt(m.shrinks)),
                            (
                                "replay",
                                Json::str(format!(
                                    "{}:{}:{}",
                                    w.fault.cycle, w.fault.reg, w.fault.bit
                                )),
                            ),
                            ("reproducer", Json::str(format!("{}.min.bec", f.label))),
                        ]),
                    ));
                }
                Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
            })
            .collect();
        Json::obj(vec![
            ("version", Json::UInt(1)),
            ("seed", Json::UInt(self.seed)),
            ("budget", Json::UInt(self.budget)),
            ("programs", Json::UInt(self.programs)),
            ("campaign_runs", Json::UInt(self.campaign_runs)),
            ("outcomes", Json::Obj(outcomes)),
            ("class_probes", Json::UInt(self.class_probes)),
            ("findings", Json::Arr(findings)),
        ])
    }
}

/// Runs one fuzzing session. When `corpus` is given, every generated
/// program is persisted as `<corpus>/<label>.bec`, every minimized finding
/// as `<corpus>/<label>.min.bec`, and the findings log as
/// `<corpus>/findings.json` — all with deterministic bytes.
///
/// # Errors
///
/// Fails when a campaign fails (a generated golden run not completing is a
/// generator bug) or the corpus directory cannot be written.
pub fn run_fuzz(
    spec: &FuzzSpec,
    options: &BecOptions,
    corpus: Option<&Path>,
) -> Result<FuzzReport, String> {
    if let Some(dir) = corpus {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
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
        let g = generate(program_seed, &spec.profile);
        if let Some(dir) = corpus {
            write_file(dir, &format!("{label}.bec"), &g.source)?;
        }
        report.programs += 1;

        let mut findings = Vec::new();
        match spec.oracle {
            Oracle::Analysis => {
                let bec = BecAnalysis::analyze(&g.program, options);
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
                let verdicts = SiteVerdicts::of(&g.program, &bec);
                let tel = Telemetry::disabled();
                let prep =
                    prepare_campaign(&label, &g.program, &verdicts, &study, None, None, &tel)?;
                let run = run_prepared(&label, &g.program, prep, &study, None, &tel)?;
                report.campaign_runs += run.report.runs();
                let counts = run.report.outcome_counts();
                for (total, n) in report.outcome_counts.iter_mut().zip(counts) {
                    *total += n;
                }
                for v in run.report.violations() {
                    findings.push(FuzzFinding {
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
                report.class_probes += class_cross_check(
                    &g.program,
                    &bec,
                    &run.golden,
                    program_seed,
                    spec.class_checks,
                    &label,
                    &mut findings,
                );
            }
            Oracle::AssumeAllMasked => {
                // The demonstration hook: no campaign — the minimizer's own
                // violation scan plays the unsound analysis directly.
                let minimizer = Minimizer::new(options, Oracle::AssumeAllMasked);
                if let Some(w) = minimizer.find_violation(&g.program) {
                    findings.push(FuzzFinding {
                        kind: MismatchKind::MaskedViolation,
                        label: label.clone(),
                        program_seed,
                        fault: w.fault,
                        func: w.func,
                        point: w.point,
                        occurrence: w.occurrence,
                        observed: w.observed,
                        minimized: None,
                    });
                }
            }
        }

        // Minimize the first finding per program (they share the program,
        // so one reproducer per label is the useful granularity).
        if spec.minimize {
            if let Some(f) = findings.first_mut() {
                let minimizer = Minimizer::new(options, spec.oracle);
                f.minimized = minimizer.minimize(&g.program);
                if let (Some(dir), Some(m)) = (corpus, &f.minimized) {
                    write_file(dir, &format!("{label}.min.bec"), &m.reproducer())?;
                }
            }
        }
        report.findings.append(&mut findings);
    }
    if let Some(dir) = corpus {
        write_file(dir, "findings.json", &report.to_json().render())?;
    }
    Ok(report)
}

fn write_file(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One class-equivalence probe candidate: a live multi-member class of one
/// function, restricted to members the golden run actually executed.
struct ProbeGroup {
    func: usize,
    members: Vec<(PointId, Reg, u32)>,
}

/// Runs `checks` seeded class-equivalence probes: two members of one
/// coalescing class injected at corresponding occurrences must produce
/// identical traces. Returns the number of probes performed; divergences
/// are appended to `findings`.
fn class_cross_check(
    program: &Program,
    bec: &BecAnalysis,
    golden: &GoldenRun,
    program_seed: u64,
    checks: u32,
    label: &str,
    findings: &mut Vec<FuzzFinding>,
) -> u64 {
    let mut groups: Vec<ProbeGroup> = Vec::new();
    for (fi, fa) in bec.functions().iter().enumerate() {
        let s0 = fa.coalescing.s0_class();
        for (class, sites) in fa.coalescing.site_classes() {
            if class == s0 {
                continue;
            }
            let members: Vec<(PointId, Reg, u32)> = sites
                .into_iter()
                .filter(|s| {
                    fa.liveness.is_live_after(s.point, s.reg)
                        && !golden.occurrences(fi, s.point).is_empty()
                })
                .map(|s| (s.point, s.reg, s.bit))
                .collect();
            if members.len() >= 2 {
                groups.push(ProbeGroup { func: fi, members });
            }
        }
    }
    if groups.is_empty() {
        return 0;
    }
    // The probes classify against the same budget the campaign derived.
    let limits = SimLimits { max_cycles: golden.cycles() * 100 + 10_000 };
    let sim = Simulator::with_limits(program, limits);
    let golden_digest = golden.result.hash.digest();
    let mut rng = Rng::seeded(program_seed ^ CLASS_PROBE_SALT);
    let mut probes = 0;
    for _ in 0..checks {
        let group = &groups[rng.index(groups.len())];
        let ai = rng.index(group.members.len());
        let bi = (ai + 1 + rng.index(group.members.len() - 1)) % group.members.len();
        let (ap, ar, ab) = group.members[ai];
        let (bp, br, bb) = group.members[bi];
        let occs_a = golden.occurrences(group.func, ap);
        let occs_b = golden.occurrences(group.func, bp);
        let k = rng.index(occs_a.len().min(occs_b.len()));
        let fault_a = FaultSpec { cycle: golden.window_open_cycle(occs_a[k]), reg: ar, bit: ab };
        let fault_b = FaultSpec { cycle: golden.window_open_cycle(occs_b[k]), reg: br, bit: bb };
        let run_a = sim.run_with_fault(fault_a);
        let run_b = sim.run_with_fault(fault_b);
        probes += 1;
        if run_a.hash.digest() != run_b.hash.digest() {
            // Report the member whose trace moved (either, if both did).
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
                func: group.func as u32,
                point,
                occurrence: k as u32,
                observed: run.classify(&golden.result),
                minimized: None,
            });
        }
    }
    probes
}
