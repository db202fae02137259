//! Subcommand dispatch and shared plumbing for the `bec` binary.

mod analyze;
mod campaign;
mod encode;
mod fuzz;
mod input;
mod prune;
mod schedule;
mod sim;
mod study;

use bec_core::BecOptions;
use bec_sim::json::Json;
use bec_sim::study::StudySpec;
use bec_sim::Engine;
use bec_telemetry::Telemetry;

/// CLI failure modes: usage errors print the help text, operational
/// failures print the message alone.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (unknown command/flag, missing file).
    Usage(String),
    /// The command itself failed (parse error, unencodable program, …).
    Failed(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    fn failed(msg: impl Into<String>) -> CliError {
        CliError::Failed(msg.into())
    }
}

/// Options shared by every subcommand, parsed from the raw argument list.
pub struct CommonArgs {
    /// Input path.
    pub file: String,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Coalescing rule set.
    pub options: BecOptions,
    /// Chrome-trace JSON destination (`--trace-out`).
    pub trace_out: Option<String>,
    /// Metrics snapshot destination (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Artifact cache directory (`--cache-dir`).
    pub cache_dir: Option<String>,
    /// Name of the selected rule set (salts cache keys).
    pub rules: String,
    /// Remaining command-specific flags, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// Writes the trace/metrics exports requested by `--trace-out` /
    /// `--metrics-out`. Exports carry timing and thread attribution; the
    /// determinism contract keeps them out of stdout and report files, so
    /// requesting them never changes any byte-compared artifact.
    pub fn export_telemetry(&self, tel: &Telemetry) -> Result<(), CliError> {
        write_exports(tel, self.trace_out.as_deref(), self.metrics_out.as_deref())
    }
}

/// Maps a `--rules` name to its option set (shared by every argument
/// parser).
pub(crate) fn rule_options(name: &str) -> Result<BecOptions, CliError> {
    match name {
        "paper" => Ok(BecOptions::paper()),
        "extended" => Ok(BecOptions::extended()),
        "branches-only" => Ok(BecOptions::branches_only()),
        other => Err(CliError::usage(format!("unknown rule set `{other}`"))),
    }
}

/// Shared export step for subcommands that parse their own argument lists.
pub(crate) fn write_exports(
    tel: &Telemetry,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) -> Result<(), CliError> {
    if let Some(path) = trace_out {
        tel.write_trace(path)
            .map_err(|e| CliError::failed(format!("cannot write trace `{path}`: {e}")))?;
    }
    if let Some(path) = metrics_out {
        tel.write_metrics(path)
            .map_err(|e| CliError::failed(format!("cannot write metrics `{path}`: {e}")))?;
    }
    Ok(())
}

/// The campaign flags. `campaign` and `study` take all seven, `fuzz` the
/// first five, `sim` the last two; `analyze` reads `--workers` its own way
/// (0 = one per core). This enum is the one place the flag names are
/// matched and their values parsed and validated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CampaignFlag {
    Sample,
    Seed,
    Shards,
    Workers,
    Engine,
    MaxCycles,
    CheckpointInterval,
}

impl CampaignFlag {
    /// Every campaign flag.
    pub(crate) const ALL: [CampaignFlag; 7] = [
        CampaignFlag::Sample,
        CampaignFlag::Seed,
        CampaignFlag::Shards,
        CampaignFlag::Workers,
        CampaignFlag::Engine,
        CampaignFlag::MaxCycles,
        CampaignFlag::CheckpointInterval,
    ];

    fn name(self) -> &'static str {
        match self {
            CampaignFlag::Sample => "--sample",
            CampaignFlag::Seed => "--seed",
            CampaignFlag::Shards => "--shards",
            CampaignFlag::Workers => "--workers",
            CampaignFlag::Engine => "--engine",
            CampaignFlag::MaxCycles => "--max-cycles",
            CampaignFlag::CheckpointInterval => "--checkpoint-interval",
        }
    }

    /// The campaign flag spelled `flag`, if it is one.
    pub(crate) fn named(flag: &str) -> Option<CampaignFlag> {
        CampaignFlag::ALL.into_iter().find(|f| f.name() == flag)
    }

    /// Parses and validates this flag's value `v` into `spec`.
    fn apply(self, v: &str, spec: &mut StudySpec) -> Result<(), CliError> {
        let bad = |what: &str| CliError::usage(format!("bad {what} `{v}`"));
        // A 0-run campaign would vacuously report "OK", and 0 shards or
        // workers would run nothing — reject them so a typo'd CI
        // invocation cannot disable the gate.
        let at_least_one = |n: u64| match n {
            0 => Err(CliError::usage(format!("{} must be at least 1", self.name()))),
            n => Ok(n),
        };
        match self {
            CampaignFlag::Sample => {
                let n = v.parse().map_err(|_| bad("sample size"))?;
                spec.sample = Some(at_least_one(n)?);
            }
            CampaignFlag::Seed => spec.seed = v.parse().map_err(|_| bad("seed"))?,
            CampaignFlag::Shards => {
                let n: u32 = v.parse().map_err(|_| bad("shard count"))?;
                at_least_one(n.into())?;
                spec.shards = n;
            }
            CampaignFlag::Workers => {
                let n: usize = v.parse().map_err(|_| bad("worker count"))?;
                at_least_one(n as u64)?;
                spec.workers = n;
            }
            // Wall-clock lever only: the engine never reaches stdout or a
            // report.
            CampaignFlag::Engine => {
                spec.engine = Engine::parse(v).ok_or_else(|| {
                    CliError::usage(format!("unknown engine `{v}` (expected scalar or bitsliced)"))
                })?;
            }
            CampaignFlag::MaxCycles => {
                spec.max_cycles = Some(v.parse().map_err(|_| bad("cycle budget"))?);
            }
            CampaignFlag::CheckpointInterval => {
                spec.checkpoint_interval = Some(v.parse().map_err(|_| bad("checkpoint interval"))?);
            }
        }
        Ok(())
    }
}

/// The campaign flags one command accepts, parsed into a [`StudySpec`].
pub(crate) struct CampaignFlags {
    accepted: &'static [CampaignFlag],
    /// The spec the accepted flags write into.
    pub spec: StudySpec,
}

impl CampaignFlags {
    /// Starts from `defaults`. A command that accepts `--workers` runs on
    /// all cores unless it is given: the worker count never reaches stdout
    /// or a report, so the parallelism is free determinism-wise. An
    /// explicit value (including 1) is honored.
    pub(crate) fn new(accepted: &'static [CampaignFlag], mut defaults: StudySpec) -> CampaignFlags {
        if accepted.contains(&CampaignFlag::Workers) {
            defaults.workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        }
        CampaignFlags { accepted, spec: defaults }
    }

    /// Consumes `flag` and its value from `it` when `flag` is an accepted
    /// campaign flag; `Ok(false)` leaves any other flag to the caller.
    pub(crate) fn parse<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, CliError> {
        match CampaignFlag::named(flag).filter(|f| self.accepted.contains(f)) {
            Some(f) => f.apply(flag_value(flag, it)?, &mut self.spec).map(|()| true),
            None => Ok(false),
        }
    }
}

/// The value following `flag` in `it`.
pub(crate) fn flag_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a str, CliError> {
    it.next().map(String::as_str).ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
}

/// Reads the `--resume` report at `path` (if any) with `decode`; `kind`
/// names the report in errors. A missing file means a fresh run, so the
/// same `--report out.json --resume out.json` invocation works the first
/// time too.
pub(crate) fn load_resume<T>(
    path: Option<&str>,
    kind: &str,
    decode: fn(&Json) -> Result<T, String>,
) -> Result<Option<T>, CliError> {
    let Some(path) = path else { return Ok(None) };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CliError::failed(format!("cannot read `{path}`: {e}"))),
    };
    let not_a_report = |e: String| CliError::failed(format!("{path}: not a {kind} report: {e}"));
    let doc = Json::parse(&text).map_err(not_a_report)?;
    decode(&doc).map(Some).map_err(not_a_report)
}

/// Writes a `--report` file (if requested): the rendered JSON plus a
/// trailing newline.
pub(crate) fn write_report(path: Option<&str>, doc: &Json) -> Result<(), CliError> {
    match path {
        Some(path) => std::fs::write(path, doc.render() + "\n")
            .map_err(|e| CliError::failed(format!("cannot write `{path}`: {e}"))),
        None => Ok(()),
    }
}

fn parse_common(args: &[String]) -> Result<CommonArgs, CliError> {
    let mut file = None;
    let mut json = false;
    let mut options = BecOptions::paper();
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut cache_dir = None;
    let mut rules = String::from("paper");
    let mut rest = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--trace-out" => {
                let v = it.next().ok_or_else(|| CliError::usage("--trace-out needs a path"))?;
                trace_out = Some(v.clone());
            }
            "--metrics-out" => {
                let v = it.next().ok_or_else(|| CliError::usage("--metrics-out needs a path"))?;
                metrics_out = Some(v.clone());
            }
            "--rules" => {
                let v = it.next().ok_or_else(|| CliError::usage("--rules needs a value"))?;
                options = rule_options(v)?;
                rules = v.clone();
            }
            "--cache-dir" => {
                let v = it.next().ok_or_else(|| CliError::usage("--cache-dir needs a path"))?;
                cache_dir = Some(v.clone());
            }
            flag if flag.starts_with("--") => {
                rest.push(a.clone());
                // Flags with values keep them adjacent for the subcommand.
                if CampaignFlag::named(flag).is_some()
                    || matches!(
                        flag,
                        "--criterion" | "--fault" | "--base" | "--report" | "--resume"
                    )
                {
                    if let Some(v) = it.next() {
                        rest.push(v.clone());
                    }
                }
            }
            _ if file.is_none() => file = Some(a.clone()),
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    Ok(CommonArgs {
        file: file.ok_or_else(|| CliError::usage("missing input file"))?,
        json,
        options,
        trace_out,
        metrics_out,
        cache_dir,
        rules,
        rest,
    })
}

/// The subcommands, in `USAGE` order.
const COMMANDS: [&str; 8] =
    ["analyze", "prune", "schedule", "sim", "campaign", "study", "fuzz", "encode"];

/// The entry of [`crate::USAGE`] whose (4-space indented) line starts with
/// `head`, together with its deeper-indented continuation lines.
fn usage_entry(head: &str) -> Option<String> {
    let mut lines = crate::USAGE
        .lines()
        .skip_while(|l| !l.strip_prefix("    ").is_some_and(|l| l.starts_with(head)));
    let first = lines.next()?;
    let rest = lines.take_while(|l| l.starts_with("     "));
    Some(std::iter::once(first).chain(rest).map(|l| format!("{l}\n")).collect())
}

/// `bec <cmd> --help`: the command's summary, synopsis, own options and
/// the common options, cut from [`crate::USAGE`] so the two never drift.
fn command_usage(cmd: &str) -> String {
    let file = if matches!(cmd, "study" | "fuzz") { "" } else { " <FILE>" };
    let mut out = usage_entry(&format!("{cmd} ")).unwrap_or_default();
    out += &format!("\nUSAGE:\n    bec {cmd} [OPTIONS]{file}\n");
    if let Some(own) = usage_entry(&format!("{cmd}:")) {
        out += &format!("\nCOMMAND OPTIONS:\n{own}");
    }
    let common = crate::USAGE.split("COMMON OPTIONS:\n").nth(1).unwrap_or("");
    out += &format!("\nCOMMON OPTIONS:\n{}\n", common.split("\n\n").next().unwrap_or(""));
    out
}

/// Runs the CLI on an argument list (exposed for the integration tests).
/// `--help`/`-h` print usage to stdout and succeed: after a command, that
/// command's usage; in place of one, the full usage.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::usage(String::new()));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        print!("{}", crate::USAGE);
        return Ok(());
    }
    if COMMANDS.contains(&cmd.as_str()) && args[1..].iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", command_usage(cmd));
        return Ok(());
    }
    match cmd.as_str() {
        "analyze" => analyze::run(&parse_common(&args[1..])?),
        "campaign" => campaign::run(&parse_common(&args[1..])?),
        "prune" => prune::run(&parse_common(&args[1..])?),
        "schedule" => schedule::run(&parse_common(&args[1..])?),
        "sim" => sim::run(&parse_common(&args[1..])?),
        // `study` takes no input file (its subjects are the built-in suite
        // benchmarks), so it parses its own argument list.
        "study" => study::run(&args[1..]),
        // `fuzz` generates its own subjects; it parses its own argument
        // list too.
        "fuzz" => fuzz::run(&args[1..]),
        "encode" => encode::run(&parse_common(&args[1..])?),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    }
}
