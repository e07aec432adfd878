//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <serve_evaluate|coopt_mc|wafer_fields> --seed <u64>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up several times, drives it through the
//! in-process serving stack for `--seconds`, checks every response, and
//! prints the end-to-end metrics. `--trace 1` prints the per-layer
//! metrics of a traced run instead (see `trace`). The last line of
//! standard output is always one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when any
//! check failed. `README.md` beside this crate documents the workloads
//! and every metric.

mod check;
mod host;
mod stats;
mod trace;
mod workload;

use cnfet_pipeline::Json;
use stats::{median, nearest_rank, tail};
use std::process::ExitCode;
use std::time::Duration;
use workload::{closed_loop, set_up, workers_check, Budget, Inputs, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <serve_evaluate|coopt_mc|wafer_fields> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// The parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an unsigned integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// A metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run found, for the final JSON line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Print the result line and pick the exit code.
fn finish(
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }: &Outcome,
) -> ExitCode {
    let (correct, attempted, failed) = (*correct, *attempted, *failed);
    let number = |v: f64| {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    };
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from_u64(attempted.max(1))),
        ("failed".into(), Json::from_u64(failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let entry = Json::Obj(vec![
                            ("value".into(), number(m.value)),
                            ("unit".into(), Json::Str(m.unit.into())),
                        ]);
                        (m.name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", doc.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The process high-water resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: end-to-end metrics.
fn untraced(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let workload = args.workload;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut router = None;
    for _ in 0..SETUPS {
        if let Some(previous) = router.take() {
            cnfet_pipeline::ShardRouter::shutdown(previous);
        }
        let (fresh, time) = set_up(workload, inputs)?;
        setups.push(time.as_secs_f64());
        router = Some(fresh);
    }
    let router = router.expect("at least one set-up");
    let budget = Budget::Wall(Duration::from_secs(args.seconds));
    let result = closed_loop(&router, workload, inputs, args.seed, budget, None);
    if result.wedged {
        // A wedged shard cannot be shut down; report and stop the process.
        println!("an op got no response within {:?}", workload::OP_TIMEOUT);
        finish(&Outcome {
            correct: false,
            attempted: result.tally.attempted(),
            failed: result.tally.failed,
            metrics: Vec::new(),
        });
        std::process::exit(1);
    }
    let peak = peak_rss_mb();
    router.shutdown();

    let tally = &result.tally;
    let sorted = tally.sorted();
    let (p50, _) = nearest_rank(&sorted, 500).ok_or("no op completed")?;
    let tail = tail(&sorted);
    let attempted = tally.attempted();
    println!(
        "setup_s samples: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    match tail {
        Some(t) => println!(
            "op_tail_ms is p{} of {attempted} ops ({} beyond it)",
            t.percentile, t.beyond
        ),
        None => println!("op_tail_ms: {attempted} ops are too few for a tail with 10 beyond"),
    }
    println!(
        "failed_frac {} ratio ({} of {attempted} ops)",
        tally.failed as f64 / attempted.max(1) as f64,
        tally.failed
    );
    if let Some(failure) = &tally.first_failure {
        println!("first failure: {failure}");
    }
    let mut correct = tally.failed == 0 && tail.is_some();
    if workload.is_batch() {
        match workers_check(workload, inputs, args.seed, None) {
            Ok(_) => println!("workers 1 and 2 rendered byte-identical artifacts"),
            Err(e) => {
                println!("determinism check failed: {e}");
                correct = false;
            }
        }
    }
    let metrics = vec![
        Metric {
            name: "ops_per_s",
            value: result.ops_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "op_p50_ms",
            value: p50,
            unit: "ms",
        },
        Metric {
            name: "op_tail_ms",
            value: tail.map_or(f64::NAN, |t| t.value),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak,
            unit: "MB",
        },
    ];
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct,
        attempted,
        failed: tally.failed,
        metrics,
    })
}

/// The traced run: per-layer metrics.
fn traced(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let run = trace::traced_run(
        args.workload,
        inputs,
        args.seed,
        Duration::from_secs(args.seconds),
    )?;
    println!("self time by span (count, total ms, self ms):");
    for (name, count, total, own) in &run.self_times {
        println!(
            "  {name:<22} {count:>6} {:>12.3} {:>12.3}",
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3
        );
    }
    println!("spans written to {}", run.spans_path.display());
    println!(
        "ops/s of {}: {} untraced ops, {} traced ops",
        args.workload.name(),
        run.ops_per_s[0],
        run.ops_per_s[1]
    );
    for m in &run.metrics {
        println!("[{}] {} {} {}", m.workload, m.name, m.value, m.unit);
    }
    let metrics: Vec<Metric> = run
        .metrics
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: m.value,
            unit: m.unit,
        })
        .collect();
    Ok(Outcome {
        correct: run.tally.failed == 0,
        attempted: run.tally.attempted(),
        failed: run.tally.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = Inputs::load().and_then(|inputs| {
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        // Host-noise diagnostics, not metrics (see `host`), probed before
        // and after the measurement.
        let before = (host::alu_ms(), host::mem_ms());
        let outcome = if args.trace {
            traced(&args, &inputs)
        } else {
            untraced(&args, &inputs)
        };
        let after = (host::alu_ms(), host::mem_ms());
        println!("host.alu_ms {} before, {} after", before.0, after.0);
        println!("host.mem_ms {} before, {} after", before.1, after.1);
        outcome
    });
    match outcome {
        Ok(outcome) => finish(&outcome),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
