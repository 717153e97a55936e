//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <cold-plan|warm-tcp|churn-persist> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Prints the run's diagnostics and metrics, then as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 0 when the run completed (its checks may still have failed,
//! which the JSON reports), 2 on bad arguments and 3 when the watchdog
//! fires.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use msoc_perfbench::{run, Opts, Workload};

/// A run that has not finished by then is reported as hung.
const WATCHDOG: Duration = Duration::from_secs(170);

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <cold-plan|warm-tcp|churn-persist> --seed <n> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        })
    };
    let number = |flag: &str, default: u64| -> u64 {
        value(flag)
            .map_or(default, |v| v.parse().unwrap_or_else(|_| usage(&format!("bad {flag} {v}"))))
    };
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload =
        Workload::parse(workload).unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    let seed = number("--seed", 1);
    let scratch =
        PathBuf::from(".bench_tmp").join(format!("{}-{}", workload.name(), std::process::id()));
    Opts {
        workload,
        seed,
        seconds: number("--seconds", 10).max(1),
        trace: number("--trace", 0) != 0,
        scale: 1.0,
        scratch,
    }
}

fn main() {
    let opts = parse();
    // The watchdog turns a hang (for example a server waiting on a
    // connection nobody closes) into a failed run with a message.
    let (done, watch) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if watch.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("perfbench: watchdog: the run did not finish within {WATCHDOG:?}");
            std::process::exit(3);
        }
    });
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let _ = done.send(());
    watchdog.join().expect("watchdog thread does not panic");

    for (name, value) in &result.diag {
        println!("# {name}: {value}");
    }
    for (name, value) in &result.work {
        println!("# work {name}: {value}");
    }
    for failure in &result.failures {
        println!("# FAILED: {failure}");
    }
    for m in &result.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.json());
}
