//! Command line of the pipeline benchmark.
//!
//! ```text
//! pipeline-bench                         every workload, traced; table + out/results.json
//! pipeline-bench --check-noise           the suite twice; fail unless B is within bounds of A
//! pipeline-bench --workload NAME --seed N --seconds S --trace 0|1
//!                                        one workload; last line is the driver's result JSON
//! pipeline-bench --smoke ...             ~300-gate circuits, one iteration (harness tests)
//! pipeline-bench --out DIR ...           where traces and results go (default benchmark/out)
//! pipeline-bench --print-contract        the text of BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use pipeline_bench::parent::{
    noise_check, result_line, run_suite, run_workload, suite_json, suite_table, Environment,
    CHILD_LIMIT,
};
use pipeline_bench::workloads::{self, Workload, WORKLOADS};
use pipeline_bench::{child, contract, RunOptions};

/// Default seed: the generator's own, so the default s15850 is the
/// circuit the rest of the repository calls s15850.
const DEFAULT_SEED: u64 = 0x5EED_1509;

struct Args {
    workload: Option<&'static Workload>,
    options: RunOptions,
    child: bool,
    check_noise: bool,
    print_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        options: RunOptions {
            seed: DEFAULT_SEED,
            seconds: contract::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
            limit: CHILD_LIMIT,
        },
        child: false,
        check_noise: false,
        print_contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workload = Some(workloads::find(&name).ok_or_else(|| {
                    format!("unknown workload `{name}` (valid: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                args.options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                args.options.seconds = s;
            }
            "--trace" => {
                args.options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--out" => args.options.out_dir = PathBuf::from(value()?),
            "--smoke" => args.options.smoke = true,
            "--check-noise" => args.check_noise = true,
            "--print-contract" => args.print_contract = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipeline-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", contract::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let opts = &args.options;

    if args.child {
        let Some(workload) = args.workload else {
            eprintln!("pipeline-bench: --child needs --workload");
            return ExitCode::from(2);
        };
        return match child::run(workload, opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                println!("@abort {e}");
                eprintln!("pipeline-bench: {e}");
                ExitCode::from(2)
            }
        };
    }

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipeline-bench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let env = Environment::probe();
    println!(
        "# pipeline-bench seed={} seconds={} smoke={} nproc={} rustc=\"{}\" git={}",
        opts.seed, opts.seconds, opts.smoke, env.nproc, env.rustc, env.git
    );

    // One workload: the driver's form. The result JSON is the last line.
    if let Some(w) = args.workload {
        let report = run_workload(&exe, w, opts);
        if let Some(p) = &report.problem {
            eprintln!("pipeline-bench: {}: {p}", w.name);
        }
        println!("{}", result_line(&report, opts.trace));
        return if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    // The whole suite, once or (noise check) twice.
    let mut sets = vec![run_suite(&exe, opts)];
    println!("\n{}", suite_table(&sets[0]));
    let mut failures: Vec<String> = Vec::new();
    if args.check_noise {
        sets.push(run_suite(&exe, opts));
        println!("\n{}", suite_table(&sets[1]));
        let (table, violations) = noise_check(&sets[0], &sets[1]);
        println!("{table}");
        failures.extend(violations);
    }
    for (w, r) in sets.iter().flatten() {
        if !r.correct {
            let why = r.problem.as_deref().unwrap_or("failed iterations");
            failures.push(format!("{}: {} of {} failed: {why}", w.name, r.failed, r.attempted));
        }
    }
    let results = opts.out_dir.join("results.json");
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&results, suite_json(&env, opts, &sets)));
    match written {
        Ok(()) => println!("results written to {}", results.display()),
        Err(e) => failures.push(format!("cannot write {}: {e}", results.display())),
    }
    for f in &failures {
        eprintln!("pipeline-bench: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
