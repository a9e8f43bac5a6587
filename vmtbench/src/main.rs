//! `vmt-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Exits 2 on a usage error and 1 when an output check
//! fails.

use std::path::PathBuf;
use vmt_perfbench::{measure, trace, Workload};

const USAGE: &str = "usage: vmt-perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: paper-1k placement-10k observed-10k";

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            usage(&format!("`{flag}` needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("bad `--seed`")),
                );
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("bad `--seconds`")),
                );
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("`--trace` takes 0 or 1"),
                });
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing `--workload`"));
    let seed = seed.unwrap_or_else(|| usage("missing `--seed`"));
    let seconds = seconds.unwrap_or_else(|| usage("missing `--seconds`"));
    let traced = traced.unwrap_or(false);

    let spec = workload.spec();
    let outcome = if traced {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        trace(&spec, seed, Some(&spans))
    } else {
        measure(&spec, seed, seconds)
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
