//! The repository's benchmark.  See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <ycsb_b_net|ycsb_e_net|int_embedded> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The
//! exit code is nonzero when any answer or structure check failed.

mod gen;
mod int;
mod ladder;
mod net;
mod procfs;
mod report;
mod span;
mod stat;

use report::{Layers, RunOut, E2E, LAYERS, UNGATED};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    YcsbB,
    YcsbE,
    Int,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "ycsb_b_net" => Some(Workload::YcsbB),
            "ycsb_e_net" => Some(Workload::YcsbE),
            "int_embedded" => Some(Workload::Int),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::YcsbB => "ycsb_b_net",
            Workload::YcsbE => "ycsb_e_net",
            Workload::Int => "int_embedded",
        }
    }

    /// What `read` and `write` stand for in this workload's metric names.
    fn ops(self) -> &'static str {
        match self {
            Workload::YcsbB => "read = GET (get_*), write = PUT updating a key (put_*)",
            Workload::YcsbE => "read = SCAN (scan_*), write = PUT inserting a key (put_*)",
            Workload::Int => "read = get call (get_*), write = put call inserting a key (put_*)",
        }
    }

    /// Every how many requests the traced run records spans, which keeps
    /// the span file to a few hundred thousand lines.
    fn trace_stride(self) -> u64 {
        match self {
            Workload::YcsbB => 8,
            Workload::YcsbE => 1,
            Workload::Int => 64,
        }
    }

    fn run(self, seed: u64, secs: f64, trace_stride: u64) -> RunOut {
        match self {
            Workload::YcsbB => net::run(net::Mix::B, seed, secs, trace_stride),
            Workload::YcsbE => net::run(net::Mix::E, seed, secs, trace_stride),
            Workload::Int => int::run(seed, secs, trace_stride),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
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
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the result line and turns correctness into the exit code.
fn finish(
    attempted: u64,
    failed: u64,
    errors: &[String],
    metrics: &[(&str, &str, f64)],
) -> ExitCode {
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = errors.is_empty() && finite;
    for e in errors {
        eprintln!("CHECK FAILED: {e}");
    }
    if !finite {
        eprintln!("CHECK FAILED: a metric is not a finite number");
    }
    let metrics: Vec<(&str, &str, f64)> = metrics
        .iter()
        .map(|&(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        attempted.max(1),
        failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn rows(
    out: &RunOut,
    names: &[(&'static str, &'static str)],
) -> Vec<(&'static str, &'static str, f64)> {
    names
        .iter()
        .map(|&(name, unit)| {
            let v = *out
                .e2e
                .get(name)
                .unwrap_or_else(|| panic!("the run did not measure {name}"));
            (name, unit, v)
        })
        .collect()
}

fn print_run(label: &str, out: &RunOut) {
    println!("-- {label}");
    for note in &out.notes {
        println!("   {note}");
    }
    for (name, unit, v) in rows(out, &E2E) {
        println!("   {name:<18} {v:>14.4} {unit}");
    }
    for (name, unit, v) in rows(out, &UNGATED) {
        println!("   {name:<18} {v:>14.4} {unit}  (not gated)");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ycsb_b_net|ycsb_e_net|int_embedded> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench {} seed {} seconds {} trace {} ({} CPUs; {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.ops()
    );

    let base = w.run(args.seed, args.seconds, 0);
    println!("scan kernel: {}", base.kernel);
    print_run("untraced run", &base);
    if !args.trace {
        return finish(
            base.attempted,
            base.failed,
            &base.errors,
            &rows(&base, &E2E),
        );
    }

    // Traced: the same workload and seed again with spans, then the ladder.
    let traced = w.run(args.seed, args.seconds, w.trace_stride());
    print_run(
        &format!("traced run (spans on 1 in {} requests)", w.trace_stride()),
        &traced,
    );
    let ladder = match w {
        Workload::YcsbB => net::ladder(
            net::Mix::B,
            args.seed,
            base.layers.get("server.read_group_avg"),
        ),
        Workload::YcsbE => net::ladder(net::Mix::E, args.seed, 0.0),
        Workload::Int => int::ladder(args.seed),
    };
    println!("-- layer ladder (identical data, reads before writes)");
    for row in &ladder.table {
        println!("   {row}");
    }

    let mut layers: Layers = base.layers.clone();
    for (name, v) in &ladder.layers.0 {
        layers.set(name, *v);
    }
    // A workload without a server takes its generator and server numbers
    // from the ladder's loopback rung.
    for (name, v) in &ladder.loopback.0 {
        if !layers.0.contains_key(name) {
            layers.set(name, *v);
        }
    }
    // The time of a request that neither the protocol nor the db accounts
    // for: the workload's own median request latency where it has one, the
    // loopback rung's otherwise.
    let request_us = if w == Workload::Int {
        ladder.read_loopback_us
    } else {
        base.e2e["read_p50_us"]
    };
    layers.set(
        "server.residual_us",
        request_us - (ladder.read_protocol_ns + ladder.read_db_ns) / 1e3,
    );
    let change = |name: &str| traced.e2e[name] / base.e2e[name] - 1.0;
    layers.set("trace.overhead_read_p50", change("read_p50_us"));
    layers.set("trace.overhead_throughput", -change("throughput_kops"));
    println!(
        "-- tracing overhead (traced / untraced - 1; the traced run's rss_mb includes the \
         untraced run's peak)"
    );
    for (name, _) in E2E.iter().chain(&UNGATED) {
        println!("   {name:<18} {:>+9.4}", change(name));
    }

    let mut errors: Vec<String> = base.errors.clone();
    errors.extend(traced.errors.iter().cloned());
    errors.extend(ladder.errors.iter().cloned());
    let (attempted, failed) = (
        base.attempted + traced.attempted,
        base.failed + traced.failed,
    );
    let mut spans = traced.spans;
    spans.extend(ladder.spans);
    println!("-- span self time, p50 ns");
    let own: BTreeMap<_, _> = span::self_time_p50_ns(&spans);
    for (name, ns) in &own {
        println!("   {name:<22} {ns:>12.0}");
    }
    let path = PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.tsv",
        w.name(),
        args.seed
    ));
    let meta = [
        ("workload", w.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("scan_kernel", base.kernel.to_string()),
        ("trace_stride", w.trace_stride().to_string()),
    ];
    match span::write_file(&path, &meta, &spans) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => errors.push(format!("writing {}: {e}", path.display())),
    }

    println!("-- per-layer metrics");
    let layer_rows: Vec<(&str, &str, f64)> = LAYERS
        .iter()
        .map(|&(name, unit)| {
            let v = *layers
                .0
                .get(name)
                .unwrap_or_else(|| panic!("no layer measured {name}"));
            (name, unit, v)
        })
        .collect();
    for (name, unit, v) in &layer_rows {
        println!("   {name:<34} {v:>14.4} {unit}");
    }
    finish(attempted, failed, &errors, &layer_rows)
}
