//! Benchmark of the Swan reproduction: runs one named workload with a
//! seed, checks its outputs, and prints every metric by name with its
//! unit as the last line of standard output.
//!
//! ```text
//! perfbench --workload <matrix-cold|fig6-sweep|serve-store> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! benchmark's own clock around public calls. `--trace 1` makes the same
//! untraced measurement, then runs the workload once more traced: it
//! records spans around each layer's public functions, writes them to
//! `.bench_build/perfbench-out/`, and prints the per-layer metrics.
//! The run exits 1 when any output fails its check, 2 on bad
//! arguments. See `README.md` beside this file for why each workload
//! exists and what each metric should move.

mod fig6;
mod golden;
mod layers;
mod matrix;
mod metrics;
mod mix;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["matrix-cold", "fig6-sweep", "serve-store"];

const USAGE: &str = "usage: perfbench --workload <matrix-cold|fig6-sweep|serve-store> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Run {
    /// Workload seed: the same seed makes the same inputs.
    pub seed: u64,
    /// Measuring budget for the untraced run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a workload reports back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Untraced units measured (campaigns, sweeps or mix passes).
    pub units: usize,
    /// Operations attempted (groups, layer points or queries).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks made and the ones that failed.
    pub checks: Checks,
    /// Metric values by name.
    pub values: metrics::Values,
}

/// Output checks: each compares a produced value with its expected one.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub made: u64,
    /// Messages of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record one check whose failure is an error message.
    pub fn result(&mut self, r: Result<(), String>) {
        self.made += 1;
        if let Err(e) = r {
            self.failures.push(e);
        }
    }
}

/// Where runs leave their trace-store entries and span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench-out")
}

/// A set-up that takes microseconds is repeated for this long, so its
/// median spans the host's sub-second swings in speed rather than one
/// moment of them.
pub const SHORT_SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Run `f` at least `min_reps` times and until `budget` has passed
/// (at most 100 000 times); the median time of one call in seconds,
/// and the last call's result.
pub fn timed_setup<T>(min_reps: usize, budget: Duration, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = f();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 100_000 || (times.len() >= min_reps && start.elapsed() >= budget) {
            return (stats::median(&times), out);
        }
    }
}

/// Repeat one measured unit while the next one is predicted to end
/// within `seconds` of the first one's start (at least once).
pub fn repeat_units<T>(seconds: f64, mut unit: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(unit());
        longest = longest.max(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + longest > seconds {
            return out;
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(String, Run), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("a workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => match value.parse::<u32>() {
                Ok(s @ 1..=600) => seconds = Some(f64::from(s)),
                _ => return Err(bad("a whole number of seconds in 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Run {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    let outcome = match workload.as_str() {
        "matrix-cold" => matrix::run(&run),
        "fig6-sweep" => fig6::run(&run),
        _ => serve::run(&run),
    };
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    let failed = out.failed + out.checks.failures.len() as u64;
    let attempted = out.attempted.max(1);
    out.values
        .insert("fail_frac", failed as f64 / attempted as f64);
    for f in out.checks.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {f}");
    }
    eprintln!(
        "perfbench: {workload} seed={} trace={}: {} untraced units; {} checks, {} failed; \
         {attempted} operations, {} failed",
        run.seed,
        u8::from(run.trace),
        out.units,
        out.checks.made,
        out.checks.failures.len(),
        out.failed
    );
    let list: &[(&str, &str)] = if run.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let correct = failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, list, &out.values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<(String, Run), String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let (w, r) = args("--workload fig6-sweep --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (w.as_str(), r.seed, r.seconds, r.trace),
            ("fig6-sweep", 7, 20.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload matrix-cold --seed x --seconds 5 --trace 0",
            "--workload matrix-cold --seed 1 --seconds 0 --trace 0",
            "--workload matrix-cold --seed 1 --seconds 5 --trace 2",
            "--workload matrix-cold --seed 1 --seconds 5",
            "--workload matrix-cold --seed 1 --seconds 5 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn repeat_units_runs_at_least_once_and_stops_within_budget() {
        assert_eq!(repeat_units(0.0, || 1).len(), 1);
        let n = repeat_units(0.05, || std::thread::sleep(Duration::from_millis(10))).len();
        assert!((2..=5).contains(&n), "{n} units");
    }
}
