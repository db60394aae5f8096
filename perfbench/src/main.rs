//! `wavedens-perfbench`: closed-loop end-to-end workloads over the
//! wavedens ingest → refresh → ship → query path, plus a traced run that
//! times each layer's public calls. Run through `perfbench/run.py`; see
//! `perfbench/README.md`.

mod checks;
mod inputs;
mod stats;
mod trace;
mod workloads;

use stats::median;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Inputs, Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_block() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    let features = if cfg!(feature = "simd-intrinsics") {
        "simd-intrinsics"
    } else {
        "default"
    };
    format!(
        "host: cpu=\"{}\" available_parallelism={} kernel_backend={} features={} \
         WAVEDENS_INGEST_CHUNK={}",
        cpu_model(),
        parallelism,
        wavedens_core::wavelets::kernels::active_backend().name(),
        features,
        std::env::var("WAVEDENS_INGEST_CHUNK").unwrap_or_else(|_| "unset".to_string()),
    )
}

/// The end-to-end metrics of one run, by name and unit.
fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let s = &outcome.samples;
    vec![
        ("setup_s", median(&s.setup_s), "s"),
        ("ingest_rows_per_s", median(&s.ingest_rows_per_s), "1/s"),
        ("refresh_ms", median(&s.refresh_ms), "ms"),
        ("freshness_ms", median(&s.freshness_ms), "ms"),
        (
            "replica_freshness_ms",
            median(&s.replica_freshness_ms),
            "ms",
        ),
        ("query_ns", median(&s.query_ns), "ns"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// reported as null (and makes the run incorrect).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn print_summary(label: &str, outcome: &Outcome, metrics: &[(&str, f64, &str)]) {
    println!(
        "{label}: rounds={} frame_bytes={} attempted={} failed={} mismatches={} \
         worst_error_over_tolerance={:.3}",
        outcome.samples.rounds,
        outcome.samples.frame_bytes,
        outcome.check.attempted,
        outcome.check.failed,
        outcome.check.mismatches,
        outcome.check.worst_ratio,
    );
    for (name, value, unit) in metrics {
        println!("  {name:<22} {value:>16.4} {unit}");
    }
    for note in outcome.check.notes() {
        println!("  check failed: {note}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_block());
    let inputs = Inputs::generate(args.workload, args.seed);
    println!(
        "run: workload={} seed={} seconds={} trace={} input_bytes={} input_digest={:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.bytes(),
        inputs.digest()
    );
    if args.trace {
        return traced_run(&args, &inputs);
    }
    let outcome = workloads::run(args.workload, &inputs, args.seconds, None);
    let metrics = end_to_end(&outcome);
    print_summary(args.workload.name(), &outcome, &metrics);
    let measured = metrics.iter().all(|(_, value, _)| value.is_finite());
    let correct = outcome.check.mismatches == 0 && measured;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.check.attempted,
        outcome.check.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

/// The traced run: half the time untraced, half with every layer's
/// shadow calls timed, then the one-off layer probes. Prints the
/// per-layer table, the tracing overhead and the stage sums; the final
/// line carries the per-layer metrics.
fn traced_run(args: &Args, inputs: &Inputs) -> ExitCode {
    let half = args.seconds / 2.0;
    let untraced = workloads::run(args.workload, inputs, half, None);
    let mut tracer = Tracer::new(args.workload);
    let traced = workloads::run(args.workload, inputs, half, Some(&mut tracer));
    let column: Vec<f64> = if inputs.rows.is_empty() {
        inputs.pairs.iter().map(|&(x, _)| x).collect()
    } else {
        inputs.rows.clone()
    };
    tracer.probe(&column);
    tracer.record("synopsis.frame_bytes", untraced.samples.frame_bytes as f64);

    let plain = end_to_end(&untraced);
    let with_trace = end_to_end(&traced);
    print_summary("untraced", &untraced, &plain);
    print_summary("traced", &traced, &with_trace);
    println!("per-layer (median of samples; should move / works on / idle on):");
    let layers = tracer.medians();
    for (name, value, unit) in &layers {
        let (_, _, moves, where_) = trace::LAYER_METRICS
            .iter()
            .chain([&trace::INTRINSICS_METRIC])
            .find(|m| m.0 == *name)
            .expect("every reported metric is listed");
        println!("  {name:<36} {value:>16.4} {unit:<6} -> {moves} [{where_}]");
    }
    println!("tracing overhead (traced - untraced median):");
    for ((name, u, unit), (_, t, _)) in plain.iter().zip(&with_trace) {
        println!(
            "  {name:<22} {:>14.4} {unit} ({:+.1}%)",
            t - u,
            100.0 * (t - u) / u
        );
    }
    print_stage_sums(args.workload, &traced, &tracer, &with_trace);

    let measured = layers.iter().all(|(_, value, _)| value.is_finite());
    let mismatches = untraced.check.mismatches + traced.check.mismatches;
    let correct = mismatches == 0 && measured;
    let shown: Vec<_> = layers
        .iter()
        .filter(|(name, _, _)| trace::LAYER_METRICS.iter().any(|m| m.0 == *name))
        .cloned()
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        untraced.check.attempted + traced.check.attempted,
        untraced.check.failed + traced.check.failed,
        json_metrics(&shown)
    );
    ExitCode::SUCCESS
}

/// Stage medians beside the end-to-end medians they make up, both taken
/// from the traced loop (the same minutes of the same host).
fn print_stage_sums(
    workload: Workload,
    traced: &Outcome,
    tracer: &Tracer,
    metrics: &[(&str, f64, &str)],
) {
    let metric = |name: &str| {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    };
    let refresh: Vec<&str> = match workload {
        Workload::BulkLoad => vec![
            "sharded.merge_into_ms",
            "cv.cached_ms",
            "dense.cdf_build_cached_ms",
        ],
        Workload::FreshServe => vec![
            "sharded.merge_into_ms",
            "cv.cached_ms",
            "dense.cdf_build_cached_ms",
            "window.refresh_ms",
        ],
        Workload::JointPairs => vec![
            "tensor.merge_ms",
            "tensor.thresholded_ms",
            "tensor.cumulative_ms",
        ],
    };
    let query: Vec<&str> = match workload {
        Workload::JointPairs => vec![
            "catalog.pair_lookup_ns",
            "joint.snapshot_load_ns",
            "tensor.query_ns",
        ],
        _ => vec![
            "catalog.lookup_ns",
            "synopsis.snapshot_load_ns",
            "dense.cdf_lookup_ns",
        ],
    };
    println!("stage sums (stage medians vs the traced loop's end-to-end median):");
    for (name, stages) in [("refresh_ms", refresh), ("query_ns", query)] {
        let parts: Vec<String> = stages
            .iter()
            .map(|stage| format!("{stage}={:.4}", tracer.median_of(stage)))
            .collect();
        let sum: f64 = stages.iter().map(|stage| tracer.median_of(stage)).sum();
        let whole = metric(name);
        println!(
            "  {name}: {} | sum {sum:.4} vs {whole:.4} (ratio {:.3})",
            parts.join(" + "),
            sum / whole
        );
    }
    let stages = &traced.samples.replica_stages;
    let parts: Vec<String> = workloads::REPLICA_STAGES
        .iter()
        .zip(stages)
        .map(|(stage, values)| format!("{stage}={:.4}", median(values)))
        .collect();
    let sum: f64 = stages.iter().map(|values| median(values)).sum();
    let whole = metric("replica_freshness_ms");
    println!(
        "  replica_freshness_ms: {} | sum {sum:.4} vs {whole:.4} (ratio {:.3})",
        parts.join(" + "),
        sum / whole
    );
}
