//! The repository benchmark harness.
//!
//! ```text
//! perfbench --workload paper_50|stress_20000|dirqd_serve --seed N
//!           --seconds S --trace 0|1 --dirqd PATH --out-dir DIR [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run (per-epoch phase rows and per-query
//! spans go to CSV files under `--out-dir`). The last stdout line is the
//! result object; notes and failed checks go to stderr. Exits non-zero
//! when any output check fails. `run.py` builds this binary and `dirqd`
//! and is the entry point.

mod engine_bench;
mod report;
mod serve_bench;

use std::path::PathBuf;

use engine_bench::EngineScenario;
use report::Outcome;
use serve_bench::Shape;

/// End-to-end metrics, printed with `--trace 0` by every workload.
pub const END_TO_END: &[&str] =
    &["setup_s", "epochs_per_s", "peak_rss_mib", "serve_qps", "serve_p50_ms"];

/// Per-layer metrics, printed with `--trace 1` by every workload.
pub const PER_LAYER: &[&str] = &[
    "lmac.mac_s",
    "lmac.ns_per_delivery",
    "data.world_s",
    "core.dispatch_s",
    "core.sampling_s",
    "core.repair_s",
    "core.injection_s",
    "core.ehr_s",
    "core.churn_s",
    "core.finalize_s",
    "core.unattributed_s",
    "core.epoch_wall_s",
    "lmac.mac_speedup_2w",
    "data.world_speedup_2w",
    "core.dispatch_speedup_2w",
    "core.upkeep_speedup_2w",
    "core.traced_epochs_per_s",
    "core.untraced_epochs_per_s",
    "core.trace_overhead_pct",
    "net.deploy_s",
    "net.tree_s",
    "lmac.slot_assign_s",
    "data.world_init_s",
    "analytic.costs_s",
    "setup.unattributed_s",
    "setup.engine_new_s",
    "core.queries_injected",
    "core.queries_finalised",
    "lmac.delivered",
    "lmac.collisions",
    "core.cost_ratio_vs_flooding",
    "dirqd.submit_ms",
    "dirqd.batch_size",
    "dirqd.wire_decode_us",
    "dirqd.wire_encode_us",
    "dirqd.drain_ms",
    "dirqd.drain_results_per_call",
    "dirqd.answer_epochs",
    "dirqd.ms_per_epoch_loaded",
    "dirqd.checkpoint_ms",
    "dirqd.checkpoint_bytes",
    "dirqd.rss_per_result_kib",
    "gen.late_max_ms",
    "gen.late_p99_ms",
    "serve_p90_ms",
    "serve_p99_ms",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    dirqd: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        dirqd: PathBuf::new(),
        out_dir: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--smoke" => a.smoke = true,
            "--dirqd" => a.dirqd = PathBuf::from(value()?),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Fold `part` into `whole`.
fn merge(whole: &mut Outcome, part: Outcome) {
    whole.metrics.extend(part.metrics);
    whole.attempted += part.attempted;
    whole.failed += part.failed;
    whole.failures.extend(part.failures);
    whole.violations.extend(part.violations);
    whole.notes.extend(part.notes);
}

/// Keep exactly the metrics of `names`, in that order; a missing one is
/// a failed check.
fn select(out: &mut Outcome, names: &[&'static str]) {
    let mut all = std::mem::take(&mut out.metrics);
    for &name in names {
        match all.iter().position(|m| m.name == name) {
            Some(i) => out.metrics.push(all.swap_remove(i)),
            None => out.violations.push(format!("metric {name} was not measured")),
        }
    }
}

fn run(a: &Args) -> Result<Outcome, String> {
    let tmp_root = a.out_dir.join("tmp");
    let tmp = serve_bench::scratch_dir(&tmp_root, &a.workload)
        .map_err(|e| format!("scratch dir: {e}"))?;
    let trace_file =
        |kind: &str| a.out_dir.join(format!("{}-seed{}-{kind}.csv", a.workload, a.seed));
    let mut out = Outcome::default();
    match (a.workload.as_str(), a.trace) {
        ("paper_50", false) => merge(&mut out, engine_bench::paper_50(a.seed, a.seconds, a.smoke)),
        ("stress_20000", false) => merge(&mut out, engine_bench::stress_20000(a.seconds, a.smoke)),
        ("dirqd_serve", false) => {
            let shape = Shape::workload(a.seconds, a.smoke);
            merge(&mut out, serve_bench::run(&a.dirqd, &tmp, a.seed, shape, None));
        }
        (w @ ("paper_50" | "stress_20000"), true) => {
            let scenario =
                if w == "paper_50" { EngineScenario::Paper } else { EngineScenario::Stress };
            merge(&mut out, engine_bench::trace(scenario, a.seed, a.smoke, &trace_file("phases")));
            // Every traced run reports every layer: the serving layers
            // come from a short probe of the dirqd_serve deployment.
            let probe = serve_bench::run(&a.dirqd, &tmp, a.seed, Shape::probe(), None);
            merge(&mut out, probe);
        }
        ("dirqd_serve", true) => {
            let shape = Shape::workload(a.seconds, a.smoke);
            merge(
                &mut out,
                serve_bench::run(&a.dirqd, &tmp, a.seed, shape, Some(&trace_file("spans"))),
            );
            // Engine layers of the served scenario, in process.
            let engine = engine_bench::trace(
                EngineScenario::Preset(serve_bench::PRESET),
                a.seed,
                a.smoke,
                &trace_file("phases"),
            );
            merge(&mut out, engine);
        }
        (other, _) => return Err(format!("unknown workload {other:?}")),
    }
    let _ = std::fs::remove_dir_all(&tmp);
    select(&mut out, if a.trace { PER_LAYER } else { END_TO_END });
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for n in &out.notes {
        eprintln!("perfbench: {n}");
    }
    for (kind, count) in &out.failures {
        eprintln!("perfbench: failed {kind}={count}");
    }
    for v in &out.violations {
        eprintln!("perfbench: CHECK FAILED: {v}");
    }
    println!("{}", out.result_line());
    if !out.correct() {
        std::process::exit(1);
    }
}
