//! `fsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, then the result as one JSON object on the
//! last line of standard output.

use fsbench::heap::CountingAlloc;
use fsbench::{result_json, run, Args, Workload};

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: fsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: Workload::TrainCold, seed: 1, seconds: 10.0, trace: false };
    let mut workload = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| usage())),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage());
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let report = run(&args);
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        if m.moves.is_empty() {
            println!("{} {} {}", m.name, m.value, m.unit);
        } else {
            println!("{} {} {}  -> {}", m.name, m.value, m.unit, m.moves);
        }
    }
    println!("{}", result_json(&report));
}
