//! `edm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints human-readable metric lines, and ends with one
//! JSON result line. Exits 0 only when every operation and oracle check
//! passed; exits 1 on a wrong answer and 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use edm_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use edm_perfbench::workloads::{self, RunArgs};
use edm_perfbench::{host, trace};

/// The seed reserved for verifying a claimed gain; never tune on it.
const HELD_OUT_SEED: u64 = 7;

fn usage() -> String {
    format!(
        "usage: edm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::NAMES.join("|")
    )
}

fn parse() -> Result<(String, RunArgs), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let (name, args) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let header = format!(
        "workload={name} seed={} seconds={} trace={} held_out_seed={HELD_OUT_SEED} {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::describe()
    );
    println!("perfbench {header}");
    let output = match workloads::run(&name, args) {
        None => {
            eprintln!("unknown workload {name}\n{}", usage());
            return ExitCode::from(2);
        }
        Some(Err(e)) => {
            eprintln!("workload {name} could not be measured: {e}");
            return ExitCode::from(1);
        }
        Some(Ok(output)) => output,
    };
    let defs: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for line in output.metrics.lines(defs) {
        println!("{line}");
    }
    for m in &output.outcome.messages {
        println!("failure: {m}");
    }
    if args.trace {
        let path = PathBuf::from(".bench_out").join(format!("trace-{name}-seed{}.tsv", args.seed));
        let threads: Vec<(&str, &[trace::Span])> =
            output.spans.iter().map(|(t, s)| (*t, s.as_slice())).collect();
        match trace::write_spans(&path, &header, &threads) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    match result_line(&output.outcome, &output.metrics, defs, !args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("result incomplete: {e}");
            return ExitCode::from(1);
        }
    }
    if output.outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} operations failed or answered wrongly",
            output.outcome.failed, output.outcome.attempted
        );
        ExitCode::from(1)
    }
}
