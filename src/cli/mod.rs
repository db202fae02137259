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
                if matches!(
                    flag,
                    "--criterion"
                        | "--fault"
                        | "--max-cycles"
                        | "--base"
                        | "--sample"
                        | "--seed"
                        | "--shards"
                        | "--workers"
                        | "--report"
                        | "--resume"
                        | "--checkpoint-interval"
                        | "--engine"
                ) {
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
