use std::process::ExitCode;

fn main() -> ExitCode {
    fba_benchmark::cli::main(std::env::args().skip(1).collect())
}
