//! FISQL benchmark: one command for the four workloads, measured end to
//! end (`--trace 0`) or per layer (`--trace 1`). See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the process exits
//! non-zero when an output check failed.

#![forbid(unsafe_code)]

mod eval;
mod report;
mod serve;
mod trace;

use eval::EvalKind;
use report::{Outcome, Scale};
use serve::ServeKind;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Trace;

/// Directory (relative to the working directory) for the session stores
/// and the span dump a run leaves behind.
const RUN_DIR: &str = ".perfbench_run";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        scale: Scale::Full,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    other => return Err(format!("--scale takes full or small, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

enum Workload {
    Eval(EvalKind),
    Serve(ServeKind),
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = match args.workload.as_str() {
        "paper" => Workload::Eval(EvalKind::Paper),
        "search" => Workload::Eval(EvalKind::Search),
        "serve" => Workload::Serve(ServeKind::Plain),
        "serve-quorum" => Workload::Serve(ServeKind::Quorum),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (paper, search, serve, serve-quorum)");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {RUN_DIR}: {e}");
        return ExitCode::from(2);
    }

    let mut out = Outcome::default();
    let trace = Trace::new(args.traced);
    let started = std::time::Instant::now();
    let serve_dir = run_dir.join(format!("{}-{}", args.workload, std::process::id()));
    match workload {
        Workload::Eval(kind) if args.traced => {
            eval::run_traced(kind, args.seed, args.seconds, args.scale, &trace, &mut out);
        }
        Workload::Eval(kind) => eval::run(kind, args.seed, args.seconds, args.scale, &mut out),
        Workload::Serve(kind) => {
            let result = serve::run(
                kind,
                args.seed,
                args.seconds,
                args.scale,
                &serve_dir,
                &trace,
                &mut out,
            );
            let _ = std::fs::remove_dir_all(&serve_dir);
            if let Err(e) = result {
                out.fail(format!("serve harness I/O: {e}"));
            }
        }
    }
    out.note(format!(
        "workload {} seed {} ran {:.2} s {}; 2 runner workers, 2 client threads",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64(),
        if args.traced { "traced" } else { "untraced" },
    ));
    if args.traced {
        out.complete_layers();
        let path = run_dir.join(format!("trace-{}.tsv", args.workload));
        match trace.write_tsv(&path) {
            Ok(()) => out.note(format!(
                "wrote {} spans to {}",
                trace.spans().len(),
                path.display()
            )),
            Err(e) => out.note(format!("could not write {}: {e}", path.display())),
        }
    }
    print!("{}", out.render(args.traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
