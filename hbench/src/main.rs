//! `hieras-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run manifest line, a checks line, and as the last line the
//! result object (`correct`, `attempted`, `failed`, `metrics`). Exits 2
//! on a bad argument and 1 when a declared metric or required check is
//! missing; a failed check is reported in the result, not by the exit
//! code.

use hieras_perfbench::{run, world, WORKLOADS};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|e| format!("--seed {val}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = val
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {val}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Output of a `git` query in the working directory, if it is itself a
/// git checkout (git is not allowed to search the directories above it).
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut cmd = Command::new("git");
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let o = cmd.args(args).output().ok()?;
    o.status
        .success()
        .then(|| String::from_utf8_lossy(&o.stdout).trim().to_owned())
}

fn manifest(a: &Args) -> String {
    let commit =
        git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown (not a git checkout)".into());
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "\"unknown\"".into(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"manifest\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{commit}\", \"dirty\": {dirty}, \"profile\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \"executor_width\": {}}}}}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace,
        env!("HBENCH_PROFILE"),
        env!("HBENCH_RUSTC"),
        world::WIDTH,
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hieras-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", manifest(&args));
    let (outcome, required) =
        run(&args.workload, args.seed, args.seconds, args.trace).expect("workload validated");
    println!("{}", outcome.checks_line());
    match outcome.result_line(args.trace, required) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hieras-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
