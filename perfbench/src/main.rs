//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-256|serve-mix|offline-quick> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --pin
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric
//! ([`END_TO_END`]) with `--trace 0`, every per-layer metric ([`LAYERS`])
//! of a separate traced run with `--trace 1`, on every workload. Lines
//! before it start with `#` and record the host, the
//! environment, the pinned artifact and, for traced runs, where the time
//! went. A failed correctness check prints no result and exits with 2;
//! a run that cannot start exits with 1. `--pin` builds the default
//! offline artifacts once into `perfbench/artifacts/` (see README.md).

mod offline;
mod paper;
mod serve_mix;
mod stats;
mod trace;

use smart_fluidnet_core::{build_offline, OfflineConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Trace;

/// Cache key of the default configuration the pinned file was built with.
const PINNED_KEY: &str = "2278b8fc48364723";
/// FNV-1a of the pinned file; runs on any other file are refused.
const PINNED_FNV: u64 = 0xe3bf_fb38_cb75_d3a0;

/// The end-to-end metrics, as `BENCHMARK.json` lists them. Every
/// workload reports every one; see README.md for what each means on
/// each workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("done_frac", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run, as `BENCHMARK.json` lists
/// them. Every workload prints every one; a layer the workload never
/// calls reads 0.
pub const LAYERS: [(&str, &str); 38] = [
    ("core.artifact_load_s", "s"),
    ("core.runtime_build_ms", "ms"),
    ("workload.problem_gen_ms", "ms"),
    ("sim.step_ms.pcg", "ms"),
    ("sim.step_ms.tompson", "ms"),
    ("sim.step_self_ms.pcg", "ms"),
    ("sim.step_self_ms.tompson", "ms"),
    ("solver.pcg_iters", "count"),
    ("solver.pcg_ms_per_iter", "ms"),
    ("solver.pcg_gflop_s", "GFLOP/s"),
    ("nn.solve_ms", "ms"),
    ("nn.flop_per_solve", "count"),
    ("nn.gflop_s", "GFLOP/s"),
    ("runtime.run_s", "s"),
    ("runtime.nn_s", "s"),
    ("runtime.restart_s", "s"),
    ("runtime.self_s", "s"),
    ("tompson_qloss", "loss"),
    ("runtime.restart_rate", "fraction"),
    ("runtime.switches", "count"),
    ("runtime.rollbacks", "count"),
    ("runtime.useful_step_frac", "fraction"),
    ("serve.connect_ms", "ms"),
    ("serve.pre_enqueue_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("serve.completed", "count"),
    ("serve.failed", "count"),
    ("serve_goodput_rps", "req/s"),
    ("offline.dataset_s", "s"),
    ("offline.family_s", "s"),
    ("offline.train_measure_s", "s"),
    ("offline.mlp_s", "s"),
    ("offline.knn_s", "s"),
    ("bench.gen_lag_ms", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.unattributed_s", "s"),
];

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// `#` lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

pub enum Failure {
    /// The run could not be carried out.
    Setup(String),
    /// The program produced a wrong result.
    Incorrect(Vec<String>),
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Fixes the environment the program reads: every `SFN_*` variable is
/// removed (faults, trace files, checkpoints, SIMD overrides, quick
/// modes, serve overrides …), then the thread count and log level are
/// set. Returns the `#` lines that record it.
fn pin_environment() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let removed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SFN_"))
        .collect();
    for k in &removed {
        std::env::remove_var(k);
    }
    std::env::set_var("SFN_THREADS", nproc.to_string());
    std::env::set_var("SFN_LOG", "error");
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        format!("host: nproc={nproc} cpu=\"{cpu}\""),
        format!(
            "env: SFN_THREADS={nproc} SFN_LOG=error; every other SFN_* unset (removed: {})",
            if removed.is_empty() {
                "none".into()
            } else {
                removed.join(",")
            }
        ),
    ]
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn pinned_artifact() -> PathBuf {
    bench_dir()
        .join("artifacts")
        .join(format!("default-{PINNED_KEY}.json"))
}

/// Where run outputs go: `.bench_out/` in the checkout root.
fn out_dir() -> PathBuf {
    bench_dir().join("..").join(".bench_out")
}

/// Builds the default-config artifacts once, outside any timed run.
fn pin() -> ExitCode {
    let cfg = OfflineConfig::default();
    let path = bench_dir()
        .join("artifacts")
        .join(format!("default-{}.json", cfg.cache_key()));
    let art = build_offline(&cfg);
    if let Err(e) = art.save(&path) {
        eprintln!("perfbench: saving {}: {e}", path.display());
        return ExitCode::from(1);
    }
    match std::fs::read(&path) {
        Ok(bytes) => {
            println!(
                "pinned {} ({} selected models) fnv1a64={:016x}",
                path.display(),
                art.selected.len(),
                stats::fnv1a64(&bytes)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: reading back {}: {e}", path.display());
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, trace: &mut Trace) -> Result<Report, Failure> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    match args.workload.as_str() {
        "paper-256" => paper::run(
            &paper::PaperParams {
                grid: 256,
                steps: 32,
                // A 256² problem under all three solvers takes about 25 s
                // on a 2-core Xeon (the base model runs five times) and
                // the artifact load another 50–65 s, so one problem is
                // what the benchmark's time budget allows at 12 s. The
                // count is fixed by --seconds, not by the clock, so both
                // sides of a comparison run the same problems.
                problems: ((args.seconds / 25.0).round() as usize).max(1),
                seed: args.seed,
                artifact: pinned_artifact(),
                expect_fnv: Some(PINNED_FNV),
            },
            trace,
        ),
        "serve-mix" => serve_mix::run(
            &serve_mix::ServeParams::new(args.seed, args.seconds, nproc),
            trace,
        ),
        "offline-quick" => offline::run(
            &offline::OfflineParams {
                config: OfflineConfig::quick(),
                out_dir: out_dir().join(format!("offline-{}", std::process::id())),
            },
            trace,
        ),
        other => Err(Failure::Setup(format!("unknown workload {other}"))),
    }
}

/// Puts a workload's metrics in the order of `listed`. A name the list
/// does not have is an error, and so is one the workload did not report,
/// unless `absent_is_zero`: a per-layer metric of a layer the workload
/// never calls.
fn in_listed_order(
    reported: &[Metric],
    listed: &[(&str, &'static str)],
    absent_is_zero: bool,
) -> Result<Vec<Metric>, String> {
    if let Some(m) = reported
        .iter()
        .find(|m| !listed.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {} is not listed in BENCHMARK.json", m.name));
    }
    listed
        .iter()
        .map(
            |&(name, unit)| match reported.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => Ok(Metric::new(name, m.value, unit)),
                Some(m) => Err(format!("metric {name} is in {}, not {unit}", m.unit)),
                None if absent_is_zero => Ok(Metric::new(name, 0.0, unit)),
                None => Err(format!("the workload did not report {name}")),
            },
        )
        .collect()
}

/// The result line: `{"correct":true,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_line(report: &Report, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    ))
}

fn write_trace(args: &Args, trace: &Trace) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, trace.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let env_notes = pin_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--pin"] {
        return pin();
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut trace = Trace::new(args.trace);
    let report = match run(&args, &mut trace) {
        Ok(r) => r,
        Err(Failure::Setup(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
        Err(Failure::Incorrect(errors)) => {
            eprintln!(
                "perfbench: {} correctness check(s) failed; no result is printed:",
                errors.len()
            );
            for e in &errors {
                eprintln!("  {e}");
            }
            return ExitCode::from(2);
        }
    };

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in env_notes.iter().chain(&report.notes) {
        println!("# {line}");
    }
    println!("# pinned artifact: key={PINNED_KEY} fnv1a64={PINNED_FNV:016x}");
    let metrics = if args.trace {
        let recon = trace.reconcile();
        println!(
            "# where the time went ({}): {:.4} s in total",
            args.workload, recon.total
        );
        for (name, secs) in &recon.rows {
            println!("#   {name:<24} {secs:>10.4} s");
        }
        println!(
            "#   {:<24} {:>10.4} s",
            format!("{}.unattributed", args.workload),
            recon.unattributed
        );
        match write_trace(&args, &trace) {
            Ok(path) => println!(
                "# trace: {} spans in .bench_out/{}",
                trace.spans().len(),
                path.file_name()
                    .map_or_else(String::new, |f| f.to_string_lossy().into_owned())
            ),
            Err(e) => {
                eprintln!("perfbench: writing the trace: {e}");
                return ExitCode::from(1);
            }
        }
        in_listed_order(&report.layers, &LAYERS, true)
    } else {
        in_listed_order(&report.e2e, &END_TO_END, false)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &metrics {
        println!("# {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    match result_line(&report, &metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_obs::json::Value;
    use std::sync::OnceLock;

    /// An offline configuration small enough for a seconds-scale smoke
    /// run; the pipeline is the same as at the quick configuration.
    fn tiny() -> OfflineConfig {
        OfflineConfig {
            train_problems: 2,
            train_steps: 4,
            train_epochs: 2,
            child_epochs: 1,
            eval_problems: 2,
            eval_steps: 8,
            knn_problems: 2,
            mlp_steps: 20,
            mlp_samples_per_model: 16,
            ..OfflineConfig::quick()
        }
    }

    fn scratch(name: &str) -> PathBuf {
        out_dir().join(format!("test-{name}-{}", std::process::id()))
    }

    /// Artifacts for the paper smoke runs, built once per test process.
    fn tiny_artifacts() -> &'static PathBuf {
        static PATH: OnceLock<PathBuf> = OnceLock::new();
        PATH.get_or_init(|| {
            let path = scratch("artifacts").join("tiny.json");
            build_offline(&tiny())
                .save(&path)
                .expect("save tiny artifacts");
            path
        })
    }

    fn ok(r: Result<Report, Failure>) -> Report {
        match r {
            Ok(report) => report,
            Err(Failure::Setup(e)) => panic!("set-up failed: {e}"),
            Err(Failure::Incorrect(e)) => panic!("correctness checks failed: {e:?}"),
        }
    }

    /// Every metric the workloads print, from seconds-scale runs of each.
    fn smoke_reports() -> Vec<Report> {
        let paper = |traced| {
            let p = paper::PaperParams {
                grid: 16,
                steps: 8,
                problems: 1,
                seed: 3,
                artifact: tiny_artifacts().clone(),
                expect_fnv: None,
            };
            ok(paper::run(&p, &mut Trace::new(traced)))
        };
        let serve = |traced| {
            let p = serve_mix::ServeParams::new(5, 1.5, 2);
            ok(serve_mix::run(&p, &mut Trace::new(traced)))
        };
        let offline = |traced| {
            let p = offline::OfflineParams {
                config: tiny(),
                out_dir: scratch(&format!("offline-{traced}")),
            };
            ok(offline::run(&p, &mut Trace::new(traced)))
        };
        vec![
            paper(false),
            paper(true),
            serve(false),
            serve(true),
            offline(false),
            offline(true),
        ]
    }

    #[test]
    fn the_metric_lists_are_those_of_benchmark_json() {
        let text =
            std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
        let doc = sfn_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |section: &str| -> Vec<(String, String)> {
            doc.get(section)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&LAYERS));
    }

    #[test]
    fn each_workload_runs_and_prints_every_listed_metric() {
        for report in smoke_reports() {
            assert!(report.attempted >= 1);
            assert_eq!(report.failed, 0);
            let printed = if report.layers.is_empty() {
                let e2e =
                    in_listed_order(&report.e2e, &END_TO_END, false).expect("every e2e metric");
                for m in &e2e {
                    assert!(m.value > 0.0, "{} = {}", m.name, m.value);
                }
                e2e
            } else {
                in_listed_order(&report.layers, &LAYERS, true).expect("listed layer metrics")
            };
            for m in &printed {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            result_line(&report, &printed).expect("a result line");
        }
        let _ = std::fs::remove_dir_all(tiny_artifacts().parent().expect("scratch dir"));
    }

    #[test]
    fn an_unlisted_or_missing_metric_is_an_error() {
        let e2e = |names: &[&str]| -> Vec<Metric> {
            names.iter().map(|n| Metric::new(n, 1.0, "s")).collect()
        };
        assert!(in_listed_order(&e2e(&["setup_s", "op_s"]), &END_TO_END, false).is_err());
        assert!(in_listed_order(&e2e(&["no_such_metric"]), &LAYERS, true).is_err());
        let layers = in_listed_order(&e2e(&["runtime.run_s"]), &LAYERS, true).expect("zero-filled");
        assert_eq!(layers.len(), LAYERS.len());
        assert!(layers
            .iter()
            .all(|m| (m.value == 1.0) == (m.name == "runtime.run_s")));
    }

    #[test]
    fn a_foreign_artifact_is_refused() {
        let dir = scratch("foreign");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let artifact = dir.join("foreign.json");
        std::fs::write(&artifact, b"{}").expect("write");
        let p = paper::PaperParams {
            grid: 16,
            steps: 8,
            problems: 1,
            seed: 3,
            artifact,
            expect_fnv: Some(PINNED_FNV),
        };
        assert!(matches!(
            paper::run(&p, &mut Trace::new(false)),
            Err(Failure::Incorrect(_))
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload serve-mix --seed 4 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 4, 20.0, true)
        );
        assert!(args("--workload serve-mix --seed 4 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve-mix --seed 4 --seconds 20 --trace 2").is_err());
        assert!(args("--workload serve-mix --seconds 20").is_err());
    }
}
