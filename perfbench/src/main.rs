//! The benchmark command:
//!
//! ```text
//! perfbench --workload <teig_shards|fig5_lossy|ledger_recovery|fig5_delay>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it runs it untraced for half of
//! `--seconds` and then traced for the same number of passes, checks that
//! the traced run reproduces every deterministic count, and prints the
//! per-layer metrics. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when any output failed its check.

use std::process::ExitCode;

use perfbench::metrics::{self, Def};
use perfbench::{ledger, lockstep, teig, Outcome, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
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
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    perfbench::keep_heap();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A traced run times its passes twice, untraced and traced, in half
    // the time each, so that it takes about as long as an untraced run.
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let seed = args.seed;
    let out: Outcome = match (args.workload.as_str(), args.trace) {
        ("teig_shards", false) => teig::run(seed, secs, &teig::Params::FULL).0,
        ("teig_shards", true) => teig::run_traced(seed, secs, &teig::Params::FULL),
        ("fig5_lossy", false) => lockstep::lossy(seed, secs, &lockstep::LossyParams::FULL).0,
        ("fig5_lossy", true) => lockstep::lossy_traced(seed, secs, &lockstep::LossyParams::FULL),
        ("fig5_delay", false) => lockstep::delay(seed, secs, &lockstep::DelayParams::FULL).0,
        ("fig5_delay", true) => lockstep::delay_traced(seed, secs, &lockstep::DelayParams::FULL),
        ("ledger_recovery", false) => ledger::run(seed, secs, &ledger::Params::FULL).0,
        ("ledger_recovery", true) => ledger::run_traced(seed, secs, &ledger::Params::FULL),
        _ => unreachable!("workload validated in parse"),
    };
    let defs: &[Def] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    println!(
        "machine: nproc={} available_parallelism={} pool_width={} workload={} seed={} trace={}",
        perfbench::online_cpus(),
        perfbench::available_parallelism(),
        perfbench::pool_width(),
        args.workload,
        seed,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    let failed_frac = perfbench::trace::ratio(out.failed as f64, out.attempted as f64);
    println!(
        "failed_frac = {} ratio (lower)",
        metrics::json_number(failed_frac)
    );
    for d in defs {
        let v = out.values.get(d.name).copied().unwrap_or(0.0);
        println!(
            "{:<28} {:>16} {} ({})",
            d.name,
            metrics::json_number(v),
            d.unit,
            d.better
        );
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let correct = out.failures.is_empty() && out.attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, out.attempted.max(1), out.failed, defs, &out.values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
