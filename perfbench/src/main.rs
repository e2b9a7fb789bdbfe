//! The repository's benchmark: end-to-end metrics with tracing off and
//! per-layer metrics from a traced run, over seeded workloads, with every
//! answer checked. See `NOTES.md` beside this crate for why each workload
//! exists and which layer metric should move which end-to-end metric.
//!
//! ```text
//! jaguar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//! jaguar-perfbench --list-metrics
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it are notes for people.

mod common;
mod host;
mod layers;
mod oltp_wire;
mod report;
mod scan_secure;
mod stats;
mod trace;
mod udf_paper;

use std::process::ExitCode;

use report::{json_str, Report, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Every workload the binary knows. `BENCHMARK.json` does not list two
/// of them yet (see NOTES.md): `scan_secure` runs, but fails every
/// statement at this revision, and `oltp_wire` now and then gets a wrong
/// answer from the engine's concurrent-DML race.
pub const WORKLOADS: [&str; 6] = [
    "udf_paper.cpp",
    "udf_paper.icpp",
    "udf_paper.jsm",
    "udf_paper.ijsm",
    "oltp_wire",
    "scan_secure",
];

/// Span summary (count, total and self time per span name) as notes.
/// Also writes every span to `<workdir>/spans-<workload>-<seed>.tsv`.
pub fn summarize_spans(r: &mut Report, tracer: &Tracer, opts: &common::Opts) {
    let path = opts
        .workdir
        .join(format!("spans-{}-{}.tsv", opts.workload, opts.seed));
    match trace::write_tsv(&path, tracer.spans()) {
        Ok(()) => r.note(format!("spans written to {}", path.display())),
        Err(e) => r.note(format!("spans not written to {}: {e}", path.display())),
    }
    r.note("spans: name count total_ms self_ms");
    for (name, (n, total, own)) in trace::summarize(tracer.spans()) {
        r.note(format!(
            "span {name} {n} {:.3} {:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: jaguar-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--workdir <dir>] | --list-metrics",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn list_metrics() {
    let list = |defs: &[report::MetricDef]| {
        defs.iter()
            .map(|d| format!("[{}, {}]", json_str(d.name), json_str(d.unit)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"end_to_end\": [{}], \"per_layer\": [{}]}}",
        list(END_TO_END),
        list(PER_LAYER)
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-metrics") {
        list_metrics();
        return ExitCode::SUCCESS;
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        value("--workload"),
        value("--seed").and_then(|s| s.parse::<u64>().ok()),
        value("--seconds").and_then(|s| s.parse::<f64>().ok()),
        value("--trace"),
    ) else {
        return usage();
    };
    if !WORKLOADS.contains(&workload.as_str()) || !(trace == "0" || trace == "1") || seconds <= 0.0
    {
        return usage();
    }
    let opts = common::Opts {
        workload: workload.clone(),
        seed,
        seconds,
        trace: trace == "1",
        workdir: value("--workdir")
            .unwrap_or_else(|| ".bench_out".into())
            .into(),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.workdir) {
        eprintln!("cannot create {}: {e}", opts.workdir.display());
        return ExitCode::FAILURE;
    }
    println!("host {}", host::stamp());
    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {}",
        opts.trace as u8
    );
    let result = match workload.split_once('.') {
        Some(("udf_paper", design)) => udf_paper::run(
            udf_paper::Design::parse(design).expect("listed design"),
            &opts,
        ),
        _ if workload == "oltp_wire" => oltp_wire::run(&opts),
        _ => scan_secure::run(&opts),
    };
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &r.notes {
        println!("{line}");
    }
    if r.errors.is_empty() {
        println!("errors: none");
    }
    for line in r.errors.lines() {
        println!("error {line}");
    }
    println!("{}", r.result_line(opts.trace));
    ExitCode::SUCCESS
}
