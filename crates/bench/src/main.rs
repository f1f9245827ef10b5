//! `pls-bench <subcommand> [flags]` — see [`pls_bench::COMMANDS`].

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    pls_bench::run(&args)
}
