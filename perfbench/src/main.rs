//! End-to-end TBIP/1 → HTTP benchmark of the TagBreathe ingest server.
//!
//! ```text
//! perfbench --workload <ward_paced|fleet_flood|dashboard_scrape>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the shipped server in-process with `server::start`, drives it
//! over real sockets with the shipped `ReaderClient` and over real HTTP,
//! and checks the served snapshot log bit for bit against an inline
//! replay computed before the timed phase. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the same load once untraced and
//! once with spans, then replays the input through each layer's public
//! functions and prints the per-layer metrics. Human-readable lines come
//! first; the last line of standard output is one JSON object. Any failed
//! correctness check exits non-zero, naming the check. See `README.md`.

mod drive;
mod reference;
mod replay;
mod report;
mod span;
mod stats;
mod workload;

use drive::CheckFailed;
use reference::Reference;
use report::Report;
use span::Spans;
use std::time::{Duration, Instant};
use workload::{Input, Params};

/// A run that has not finished by then fails loudly instead of hanging.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <ward_paced|fleet_flood|dashboard_scrape> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: FAILED: watchdog: the run exceeded {WATCHDOG:?}");
        std::process::exit(3);
    });
    match run(&args) {
        Ok(mut report) => {
            if let Ok(mb) = stats::vm_mb("VmHWM") {
                report.note(format!(
                    "benchmark process peak resident memory (VmHWM): {mb:.0} MB"
                ));
            }
            for line in report.text_lines() {
                println!("{line}");
            }
            println!("{}", report.json_line());
        }
        Err(Failure::Check(CheckFailed(what))) => {
            eprintln!("perfbench: FAILED check: {what}");
            std::process::exit(1);
        }
        Err(Failure::Run(what)) => {
            eprintln!("perfbench: FAILED: {what}");
            std::process::exit(1);
        }
    }
}

/// Why a run printed no result.
#[derive(Debug)]
enum Failure {
    /// Something operational broke (socket, timeout, bad argument).
    Run(String),
    /// A correctness check failed.
    Check(CheckFailed),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Run(e)
    }
}

impl From<Result<String, CheckFailed>> for Failure {
    fn from(e: Result<String, CheckFailed>) -> Self {
        match e {
            Ok(run) => Failure::Run(run),
            Err(check) => Failure::Check(check),
        }
    }
}

fn run(args: &Args) -> Result<Report, Failure> {
    let params = Params::new(&args.workload, args.seconds)?;

    let started = Instant::now();
    let input = Input::generate(&params, args.seed);
    let generate_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let reference = Reference::compute(&params, &input)?;
    let reference_s = started.elapsed().as_secs_f64();

    let mut report = Report::new(&params, args, &input, generate_s, reference_s);
    let mut setup_s = Vec::new();

    if !args.trace {
        let mut rounds = Vec::with_capacity(params.rounds);
        for r in 0..params.rounds {
            let extra = if r == 0 {
                drive::SETUP_STARTS.saturating_sub(params.rounds)
            } else {
                0
            };
            rounds.push(drive::run_round(
                &params,
                &input,
                &reference,
                extra,
                &mut setup_s,
                None,
            )?);
        }
        report.end_to_end(&params, &input, &reference, &rounds, &setup_s);
        return Ok(report);
    }

    // Traced: the same load untraced, then with spans, then the replay.
    let untraced = drive::run_round(&params, &input, &reference, 0, &mut setup_s, None)?;
    let spans = Spans::new();
    let traced = drive::run_round(&params, &input, &reference, 0, &mut setup_s, Some(&spans))?;
    let counts = replay::replay(&params, &input, &traced.log, &traced.registry, &spans)
        .map_err(|e| Failure::Check(CheckFailed(format!("traced replay: {e}"))))?;
    let spans_path = write_spans(&params, args, &spans)?;
    report.note(format!("{} spans written to {spans_path}", spans.len()));
    let layers = spans.layers();
    for (name, l) in &layers {
        report.note(format!(
            "layer {name}: calls {}, items {}, busy {:.3} ms, self {:.3} ms, failed {}",
            l.calls,
            l.items,
            l.busy_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.failed
        ));
    }
    report.per_layer(
        &params,
        &reference,
        (&untraced, &traced),
        &layers,
        &counts,
        &input,
    );
    Ok(report)
}

/// Writes the spans as JSON under `.perfbench_out/` in the working
/// directory (the checkout root) and returns the path.
fn write_spans(params: &Params, args: &Args, spans: &Spans) -> Result<String, String> {
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.json", params.name, args.seed));
    std::fs::write(&path, spans.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "fleet_flood",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid command line");
        assert_eq!(
            args,
            Args {
                workload: "fleet_flood".into(),
                seed: 4,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }
}
