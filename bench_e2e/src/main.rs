//! `waffle-e2e`: runs one workload of the end-to-end benchmark in this
//! process and prints its result as the last line of standard output.
//!
//! ```text
//! waffle-e2e part <table4|fuzz|serve> --seed N --reps R --setups K --trace 0|1
//! waffle-e2e reference serve --seed N
//! ```
//!
//! `part` times `R` repetitions of the workload's operations (a table4
//! pass of both tools, a fuzz sweep of both blocks, a serve session) and
//! `K` set-ups, and checks the outputs.
//!
//! `reference serve` prints the digest of the batch reference report for
//! the serve stream of seed `N`; it runs in a process of its own because
//! it materializes the whole trace, which would inflate the serve
//! process's peak RSS.

use std::path::Path;
use std::process::ExitCode;

use waffle_e2e_bench::stats::{json_str, Fnv, Repeats};
use waffle_e2e_bench::{fuzz, serve, table4};

fn usage() -> ExitCode {
    eprintln!(
        "usage: waffle-e2e part <table4|fuzz|serve> --seed N --reps R --setups K --trace 0|1"
    );
    eprintln!("       waffle-e2e reference serve --seed N");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut seed, mut reps, mut setups, mut trace) = (None, 1, 1, false);
    let mut rest = args.iter().skip(2);
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            return usage();
        };
        match flag.as_str() {
            "--seed" => seed = value.parse::<u64>().ok(),
            "--reps" => match value.parse::<usize>() {
                Ok(r) if r >= 1 => reps = r,
                _ => return usage(),
            },
            "--setups" => match value.parse::<usize>() {
                Ok(k) => setups = k,
                _ => return usage(),
            },
            "--trace" => trace = value == "1",
            _ => return usage(),
        }
    }
    let Some(seed) = seed else { return usage() };
    let scratch = Path::new(".bench_run").join(format!("serve-{}", std::process::id()));
    let n = Repeats { reps, setups };
    let out = match (
        args.first().map(String::as_str),
        args.get(1).map(String::as_str),
    ) {
        (Some("part"), Some("table4")) => table4::run(seed, n, trace, usize::MAX),
        (Some("part"), Some("fuzz")) => fuzz::run(seed, n, trace, fuzz::SC_SEEDS, fuzz::TSO_SEEDS),
        (Some("part"), Some("serve")) => serve::run(seed, n, trace, serve::EVENTS, &scratch),
        (Some("reference"), Some("serve")) => {
            let report = serve::reference_report(&serve::Stream::new(seed, serve::EVENTS));
            println!(
                "{{\"report_digest\": {}}}",
                json_str(&Fnv::hex_of(report.as_bytes()))
            );
            return ExitCode::SUCCESS;
        }
        _ => return usage(),
    };
    for (label, summary) in out.timings.iter().filter(|(_, s)| s.n > 0) {
        println!("# {label}: {summary}");
    }
    for (key, value) in &out.extra {
        println!("# {} {key}: {value}", out.part);
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
