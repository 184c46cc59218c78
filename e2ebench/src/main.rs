//! End-to-end benchmark of the system-r facade.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload adhoc_join --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Builds the workload's database from the seed, drives it from one
//! client thread in a closed loop, checks every answer against a shadow
//! model, and prints one metric per line followed by a JSON summary as
//! the last line. `--trace 1` runs the same statements through each
//! layer's public calls and reports per-layer metrics instead. See
//! README.md for the workloads and metric definitions.

mod adhoc;
mod calib;
mod ops;
mod report;
mod rng;
mod runner;
mod stats;
mod writemix;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::{Report, Settings, Workload};

/// Data sizes: `Full` for measurement, `Tiny` for the self-tests.
#[derive(Clone, Copy)]
pub enum Scale {
    Full,
    Tiny,
}

pub const WORKLOADS: [&str; 3] = ["adhoc_join", "report_scan", "write_mix"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// SELECTs and writes per run at least: p99 then has ten samples beyond it.
const MIN_OPS: usize = 1000;

pub fn workload(name: &str, scale: Scale) -> Option<Box<dyn Workload>> {
    match name {
        "adhoc_join" => Some(Box::new(adhoc::AdhocJoin::new(scale))),
        "report_scan" => Some(Box::new(report::ReportScan::new(scale))),
        "write_mix" => Some(Box::new(writemix::WriteMix::new(scale))),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        parts.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn print_report(args: &Args, r: &Report) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "e2ebench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("hardware_threads: {threads}");
    for note in &r.notes {
        println!("{note}");
    }
    for (name, value, unit) in &r.metrics {
        println!("{name:<26} {value:>14.3} {unit}");
    }
    if !r.raw.is_empty() {
        println!("raw {}", json_metrics(&r.raw)?);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        json_metrics(&r.metrics)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let mut wl = workload(&args.workload, Scale::Full).ok_or(format!(
            "unknown workload {:?}; expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ))?;
        let settings = Settings {
            seed: args.seed,
            seconds: args.seconds,
            min_ops: MIN_OPS,
            setups: SETUPS,
            trace: args.trace,
            plant_wrong_answer: false,
            scratch: PathBuf::from(".e2ebench_scratch").join(format!(
                "{}-{}",
                args.workload,
                std::process::id()
            )),
        };
        let report = runner::run(wl.as_mut(), &settings);
        let _ = std::fs::remove_dir_all(&settings.scratch);
        let _ = settings.scratch.parent().map(std::fs::remove_dir);
        print_report(&args, &report?)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str, trace: bool, plant: bool, min_ops: usize) -> Result<Report, String> {
        let mut wl = workload(name, Scale::Tiny).expect("known workload");
        let settings = Settings {
            seed: 7,
            seconds: 0.01,
            min_ops,
            setups: 2,
            trace,
            plant_wrong_answer: plant,
            scratch: std::env::temp_dir().join(format!(
                "e2ebench-test-{name}-{trace}-{plant}-{min_ops}-{}",
                std::process::id()
            )),
        };
        let report = runner::run(wl.as_mut(), &settings);
        let _ = std::fs::remove_dir_all(&settings.scratch);
        report
    }

    fn metric(r: &Report, name: &str) -> f64 {
        r.metrics.iter().find(|m| m.0 == name).map(|m| m.1).expect("metric present")
    }

    /// No operation failed, except that `write_mix` may fail its durability
    /// probe: then in every round, since the probe's inputs are fixed.
    fn only_probe_failures(name: &str, r: &Report) -> bool {
        r.failed == 0
            || (name == "write_mix" && r.failed * writemix::ROUND_OPS as u64 == r.attempted)
    }

    #[test]
    fn tiny_pass_of_every_workload_is_correct() {
        for name in WORKLOADS {
            let r = tiny(name, false, false, MIN_OPS).expect("tiny run completes");
            assert!(r.correct && only_probe_failures(name, &r), "{name}: {:?}", r.notes);
            assert!(r.attempted >= 2 * MIN_OPS as u64, "{name}: {} attempted", r.attempted);
            assert_eq!(r.metrics.len(), 7, "{name}");
            for (m, value, _) in &r.metrics {
                assert!(*value > 0.0, "{name}: {m}");
            }
        }
    }

    #[test]
    fn tiny_traced_pass_reports_every_layer() {
        for name in WORKLOADS {
            let r = tiny(name, true, false, 100).expect("tiny traced run completes");
            assert!(r.correct && only_probe_failures(name, &r), "{name}: {:?}", r.notes);
            assert_eq!(r.metrics.len(), 20, "{name}");
            for m in ["sql.parse_us", "core.bind_us", "executor.execute_us", "rss.insert_us"] {
                assert!(metric(&r, m) > 0.0, "{name}: {m}");
            }
        }
    }

    #[test]
    fn planted_wrong_answer_counts_as_failed() {
        for trace in [false, true] {
            let r = tiny("report_scan", trace, true, MIN_OPS).expect("tiny run completes");
            assert!(!r.correct, "trace={trace}");
            assert_eq!(r.failed, 1, "trace={trace}: {:?}", r.notes);
        }
    }

    #[test]
    fn p99_is_refused_without_ten_samples_beyond_it() {
        let err = tiny("write_mix", false, false, 30).err().expect("too few samples for p99");
        assert!(err.contains("p99"), "{err}");
    }
}
