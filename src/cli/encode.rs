//! `bec encode` — lowers the program to RV32I machine code and prints the
//! word image (with symbols and a disassembly column, or raw hex for
//! piping). Every emission is verified by lifting the image back and
//! re-encoding it — the round-trip must reproduce identical words.

use super::{flag_value, input, CliError, CommonArgs};
use bec_rv32::{decode_word, encode_program_at, lift_image};
use bec_sim::json::Json;

pub fn run(args: &CommonArgs) -> Result<(), CliError> {
    let mut base = 0u32;
    let mut raw = false;
    let mut it = args.rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--base" => {
                let v = flag_value(flag, &mut it)?;
                base = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u32::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| CliError::usage(format!("bad base address `{v}`")))?;
            }
            "--raw" => raw = true,
            other => return Err(CliError::usage(format!("unknown flag `{other}`"))),
        }
    }

    let program = input::load_program(&args.file)?;
    let image = encode_program_at(&program, base)
        .map_err(|e| CliError::failed(format!("{}: {e}", args.file)))?;

    // Self-check: the image must lift and re-encode to itself.
    let lifted = lift_image(&image)
        .map_err(|e| CliError::failed(format!("internal: image does not lift: {e}")))?;
    let re = encode_program_at(&lifted, base)
        .map_err(|e| CliError::failed(format!("internal: lifted image does not re-encode: {e}")))?;
    if re.words != image.words {
        return Err(CliError::failed("internal: encode/lift round-trip mismatch"));
    }

    if args.json {
        let doc = Json::obj(vec![
            ("file", Json::str(&args.file)),
            ("base", Json::UInt(image.base as u64)),
            ("entry", Json::UInt(image.entry as u64)),
            (
                "symbols",
                Json::Arr(
                    image
                        .symbols
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(&s.name)),
                                ("addr", Json::UInt(s.addr as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "words",
                Json::Arr(image.words.iter().map(|w| Json::str(format!("{w:08x}"))).collect()),
            ),
        ]);
        println!("{}", doc.render());
        return Ok(());
    }

    if raw {
        for w in &image.words {
            println!("{w:08x}");
        }
        return Ok(());
    }

    println!(
        "{}: {} words at base {:#010x} (entry {:#010x})",
        args.file,
        image.words.len(),
        image.base,
        image.entry
    );
    for (i, w) in image.words.iter().enumerate() {
        let addr = image.base + 4 * i as u32;
        if let Some(sym) = image.symbol_at(addr) {
            println!("\n<{}>:", sym.name);
        }
        let dis = decode_word(*w).map(|m| format!("{m:?}")).unwrap_or_else(|_| "??".into());
        println!("  {addr:#010x}: {w:08x}  {dis}");
    }
    Ok(())
}
