//! The `mupod` command-line tool. See [`mupod_cli::USAGE`].

use mupod_cli::CliError;
use mupod_runtime::StatusCode;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One token for the whole run (`run_interruptible`): SIGINT flips
    // it, every stage drains at its next checkpoint, observability still
    // exports, and the exit status tells scripts exactly what happened.
    // Bad invocation: explain and show usage (exit 2). Runtime failure:
    // one-line diagnostic only (exit 1) — the arguments were fine,
    // repeating the usage text would bury the error. Supervised
    // failures get their own codes so unattended sweeps can tell "raise
    // the deadline" (4) from "investigate" (3) from "the user hit
    // Ctrl-C" (130). All codes come from the one shared table,
    // `mupod_runtime::StatusCode`, which the serving stack also uses
    // for its wire statuses.
    let status = match mupod_cli::parse(&args).and_then(|cmd| mupod_cli::run_interruptible(&cmd)) {
        Ok(text) => {
            print!("{text}");
            StatusCode::Ok
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("usage error: {msg}");
            eprintln!();
            eprintln!("{}", mupod_cli::USAGE);
            StatusCode::UsageError
        }
        Err(e @ CliError::Run(_)) => {
            eprintln!("error: {e}");
            StatusCode::RunError
        }
        Err(e @ CliError::StageFailed(_)) => {
            eprintln!("error: {e}");
            StatusCode::StageFailed
        }
        Err(e @ CliError::StageTimeout(_)) => {
            eprintln!("error: {e}");
            StatusCode::StageTimeout
        }
        Err(e @ CliError::Interrupted) => {
            eprintln!("error: {e}");
            StatusCode::Interrupted
        }
    };
    std::process::exit(status.exit_code());
}
