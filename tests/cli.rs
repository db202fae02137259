//! End-to-end tests of the `bec` binary: every subcommand must work on the
//! shipped `.s` examples (this is the acceptance path "bec analyze
//! examples/*.s works on a real RV32I assembly file").

use std::path::Path;
use std::process::{Command, Output};

fn bec(args: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    Command::new(env!("CARGO_BIN_EXE_bec"))
        .current_dir(root)
        .args(args)
        .output()
        .expect("bec binary runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = bec(args);
    assert!(out.status.success(), "bec {args:?} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn analyze_reports_fault_sites_on_assembly() {
    let out = stdout_of(&["analyze", "examples/countyears.s"]);
    assert!(out.contains("fault sites"), "{out}");
    assert!(out.contains("@main"), "{out}");
    assert!(out.contains("masked"), "{out}");
}

#[test]
fn analyze_json_is_machine_readable() {
    let out = stdout_of(&["analyze", "examples/countyears.s", "--json"]);
    assert!(out.contains("\"total_fault_sites\""), "{out}");
    assert!(out.trim_start().starts_with('{') && out.trim_end().ends_with('}'), "{out}");
}

#[test]
fn prune_reports_campaign_sizes() {
    let out = stdout_of(&["prune", "examples/countyears.s"]);
    assert!(out.contains("live in bits"), "{out}");
    assert!(out.contains("BEC prunes"), "{out}");
}

#[test]
fn sim_executes_and_prints_outputs() {
    let out = stdout_of(&["sim", "examples/gcd.s"]);
    assert!(out.contains("output[0] = 21"), "{out}");
    assert!(out.contains("Completed"), "{out}");
}

#[test]
fn sim_injects_faults() {
    let out = stdout_of(&["sim", "examples/countyears.s", "--fault", "2:s1:0"]);
    assert!(out.contains("classification"), "{out}");
}

#[test]
fn schedule_reports_surface_change() {
    let out = stdout_of(&["schedule", "examples/countyears.s", "--criterion", "best"]);
    assert!(out.contains("live sites"), "{out}");
    assert!(out.contains("change:"), "{out}");
}

#[test]
fn encode_emits_machine_words() {
    let raw = stdout_of(&["encode", "examples/gcd.s", "--raw"]);
    let words: Vec<&str> = raw.lines().collect();
    assert_eq!(words.len(), 11, "{raw}");
    assert!(words.iter().all(|w| u32::from_str_radix(w, 16).is_ok()), "{raw}");
    // ecall must appear in the image.
    assert!(words.contains(&"00000073"), "{raw}");

    let listing = stdout_of(&["encode", "examples/gcd.s"]);
    assert!(listing.contains("<gcd>:"), "{listing}");
}

#[test]
fn ir_dialect_files_are_accepted_too() {
    let dir = std::env::temp_dir().join("bec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy.bec");
    std::fs::write(
        &path,
        "machine xlen=4 regs=4 zero=none\nfunc @main(args=0, ret=none) {\nentry:\n    li r0, 3\n    print r0\n    exit\n}\n",
    )
    .unwrap();
    let out = stdout_of(&["sim", path.to_str().unwrap()]);
    assert!(out.contains("output[0] = 3"), "{out}");
}

#[test]
fn bad_input_fails_with_a_line_number() {
    let dir = std::env::temp_dir().join("bec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.s");
    std::fs::write(&path, ".globl main\nmain:\n    frobnicate t0\n    ecall\n").unwrap();
    let out = bec(&["analyze", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3"), "{err}");
}

#[test]
fn unknown_commands_print_usage() {
    // `campaign-worker` was the hidden worker half of the removed
    // multi-process mode; it is an unknown command like any other.
    for cmd in ["bogus", "campaign-worker"] {
        let out = bec(&[cmd]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"), "{cmd}");
    }
}

/// `bec <cmd> --help` / `-h` print that command's usage on stdout and
/// succeed, wherever the flag appears and whatever else is on the line;
/// `bec --help` prints the full usage the same way.
#[test]
fn help_flags_print_command_usage() {
    let cases: [(&str, Option<&str>); 8] = [
        ("analyze", None),
        ("prune", None),
        ("schedule", Some("--criterion")),
        ("sim", Some("--fault")),
        ("campaign", Some("--checkpoint-interval")),
        ("study", Some("--bench")),
        ("fuzz", Some("--budget")),
        ("encode", Some("--base")),
    ];
    for (cmd, own_flag) in cases {
        for args in [vec![cmd, "--help"], vec![cmd, "-h"], vec![cmd, "examples/gcd.s", "--help"]] {
            let out = bec(&args);
            assert_eq!(out.status.code(), Some(0), "{args:?}");
            assert!(out.stderr.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
            let text = String::from_utf8(out.stdout).expect("utf8 usage");
            assert!(text.starts_with(&format!("    {cmd} ")), "{args:?}:\n{text}");
            assert!(text.contains(&format!("bec {cmd} [OPTIONS]")), "{args:?}:\n{text}");
            assert!(text.contains("--json"), "{args:?}: common options missing\n{text}");
            if let Some(flag) = own_flag {
                assert!(text.contains(flag), "{args:?}: `{flag}` missing\n{text}");
            }
        }
    }
    for flag in ["--help", "-h", "help"] {
        let out = bec(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("USAGE") && text.contains("COMMANDS"), "{flag}: {text}");
    }
}

#[test]
fn sim_rejects_out_of_file_fault_registers() {
    let out = bec(&["sim", "examples/gcd.s", "--fault", "0:x40:0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("register file"), "{err}");

    let out = bec(&["sim", "examples/gcd.s", "--fault", "0:a0:32"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("32-bit word"));
}

#[test]
fn campaign_rejects_vacuous_and_malformed_flags() {
    // `campaign`, `study` and `fuzz` share one campaign flag parser: each
    // rejects the same vacuous or malformed values with the same message.
    let cases: [(&[&str], &str); 6] = [
        // A 0-fault sample would make the soundness gate vacuously pass.
        (&["--sample", "0"], "--sample must be at least 1"),
        (&["--shards", "0"], "--shards must be at least 1"),
        (&["--workers", "0"], "--workers must be at least 1"),
        (&["--engine", "bogus"], "unknown engine `bogus` (expected scalar or bitsliced)"),
        (&["--seed", "x"], "bad seed `x`"),
        (&["--shards"], "--shards needs a value"),
    ];
    for cmd in [&["campaign", "examples/gcd.s"][..], &["study"], &["fuzz"]] {
        for (flags, message) in cases {
            let args = [cmd, flags].concat();
            let out = bec(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.starts_with(&format!("error: {message}\n")), "{args:?}: {err}");
        }
    }
    // `fuzz` derives every campaign's budget and checkpoints itself.
    for flag in ["--max-cycles", "--checkpoint-interval"] {
        let out = bec(&["fuzz", flag, "5"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{flag}: {err}");
    }
    // Campaigns run in-process only; the old process fan-out flag is gone.
    let out = bec(&["campaign", "examples/gcd.s", "--spawn", "2"]);
    assert_eq!(out.status.code(), Some(2));
}

/// A flag, with a valid value when it takes one.
type Flag = (&'static str, Option<&'static str>);

/// Every flag each command accepts. The file-taking commands also accept
/// the common options.
const ACCEPTED_FLAGS: [(&str, &[Flag]); 8] = [
    ("analyze", &[("--workers", Some("2"))]),
    ("prune", &[]),
    ("schedule", &[("--criterion", Some("worst")), ("--emit-asm", None)]),
    (
        "sim",
        &[
            ("--fault", Some("2:a0:0")),
            ("--max-cycles", Some("500")),
            ("--checkpoint-interval", Some("4")),
        ],
    ),
    (
        "campaign",
        &[
            ("--sample", Some("5")),
            ("--seed", Some("1")),
            ("--shards", Some("2")),
            ("--workers", Some("1")),
            ("--report", Some("r.json")),
            ("--resume", Some("r.json")),
            ("--max-cycles", Some("500")),
            ("--checkpoint-interval", Some("4")),
            ("--engine", Some("scalar")),
        ],
    ),
    (
        "study",
        &[
            ("--bench", Some("crc32")),
            ("--sample", Some("5")),
            ("--seed", Some("1")),
            ("--shards", Some("2")),
            ("--workers", Some("1")),
            ("--report", Some("r.json")),
            ("--resume", Some("r.json")),
            ("--max-cycles", Some("500")),
            ("--checkpoint-interval", Some("4")),
            ("--engine", Some("scalar")),
            ("--no-golden-reuse", None),
            ("--json", None),
            ("--rules", Some("extended")),
            ("--cache-dir", Some("cache")),
            ("--trace-out", Some("t.json")),
            ("--metrics-out", Some("m.json")),
        ],
    ),
    (
        "fuzz",
        &[
            ("--seed", Some("1")),
            ("--budget", Some("2")),
            ("--profile", Some("tiny")),
            ("--sample", Some("5")),
            ("--exhaustive", None),
            ("--shards", Some("2")),
            ("--workers", Some("1")),
            ("--engine", Some("scalar")),
            ("--class-checks", Some("2")),
            ("--corpus-dir", Some("corpus")),
            ("--minimize", None),
            ("--demo-unsound", None),
            ("--json", None),
            ("--rules", Some("extended")),
        ],
    ),
    ("encode", &[("--base", Some("0x100")), ("--raw", None)]),
];

const COMMON_FLAGS: [Flag; 5] = [
    ("--json", None),
    ("--rules", Some("extended")),
    ("--cache-dir", Some("cache")),
    ("--trace-out", Some("t.json")),
    ("--metrics-out", Some("m.json")),
];

/// The `--flag` words of a usage text.
fn listed_flags(text: &str) -> Vec<&str> {
    let is_word = |c: char| c.is_ascii_lowercase() || c == '-';
    text.match_indices("--")
        .filter(|&(i, _)| i == 0 || !is_word(text[..i].chars().next_back().unwrap()))
        .map(|(i, _)| {
            let end = text[i + 2..].find(|c: char| !is_word(c)).map_or(text.len(), |e| i + 2 + e);
            &text[i..end]
        })
        .collect()
}

#[test]
fn every_accepted_flag_is_listed_in_command_help() {
    for (cmd, own) in ACCEPTED_FLAGS {
        let takes_file = !matches!(cmd, "study" | "fuzz");
        let mut flags = own.to_vec();
        if takes_file {
            flags.extend(COMMON_FLAGS);
        }
        let help = stdout_of(&[cmd, "--help"]);
        let listed = listed_flags(&help);
        for (flag, value) in flags {
            assert!(listed.contains(&flag), "`bec {cmd} --help` does not list {flag}:\n{help}");
            // The flag really is accepted: parsing gets past it (and its
            // value) to the unknown flag behind it. Flags are parsed before
            // any work starts, so nothing runs.
            let mut args = vec![cmd];
            if takes_file {
                args.push("examples/gcd.s");
            }
            args.push(flag);
            args.extend(value);
            args.push("--zzz");
            let out = bec(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("flag `--zzz`"), "{args:?}: {err}");
        }
    }
}

#[test]
fn campaign_runs_and_reports_ok_on_gcd() {
    let out = stdout_of(&["campaign", "examples/gcd.s", "--shards", "4", "--workers", "2"]);
    assert!(out.contains("differential check: OK"), "{out}");
    assert!(out.contains("fault space"), "{out}");
}

#[test]
fn encode_base_accepts_decimal_and_hex() {
    let dec = stdout_of(&["encode", "examples/gcd.s", "--base", "4096"]);
    assert!(dec.contains("0x00001000"), "{dec}");
    let hex = stdout_of(&["encode", "examples/gcd.s", "--base", "0x1000"]);
    assert!(hex.contains("0x00001000"), "{hex}");
}
