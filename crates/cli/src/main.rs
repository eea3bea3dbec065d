//! `frac` — command-line FRaC anomaly detection. Its subcommands are
//! `train`, `resume`, `score`, `serve`, `entropy`, `inspect-telemetry`,
//! `pack`, `info`, `generate` and `help`; `frac help` lists their flags.
//! Data sets are read as TSV (the interchange format of `frac_dataset::io`)
//! or, for files ending in `.fcb`, as memory-mapped, verified FCB files.

mod args;
mod commands;
mod signals;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
