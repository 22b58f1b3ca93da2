//! `kclique-cli` entry point; all logic lives in the library for
//! testability.

use kclique_cli::{write_stderr, Command};

fn main() {
    let command = Command::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        write_stderr(format_args!("error: {msg}\n\n{}", kclique_cli::USAGE));
        std::process::exit(kclique_cli::EXIT_USAGE);
    });
    if let Err(failure) = command.run() {
        write_stderr(format_args!("error: {failure}\n"));
        std::process::exit(failure.code);
    }
}
