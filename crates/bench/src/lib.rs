//! Benchmark harness regenerating every table and figure of the SC '19
//! evaluation (§2.3 and §7).
//!
//! Each experiment has a binary (`cargo run -p sfn-bench --release
//! --bin <name>`) that prints the same rows/series the paper reports,
//! plus the paper's own numbers for comparison; the in-tree timing
//! benches (`cargo bench -p sfn-bench`) time the underlying primitives
//! with the dependency-free [`timing`] harness.
//!
//! Scale knobs (environment variables, all optional):
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `SFN_EVAL_PROBLEMS` | problems per experiment | 16 |
//! | `SFN_BENCH_PROBLEMS` | problems per *grid* in sweep experiments | 6 |
//! | `SFN_BENCH_STEPS` | simulation steps per problem | 48 |
//! | `SFN_BENCH_GRIDS` | comma-separated grid sizes | `24,32,48,64,96` |
//! | `SFN_TRAIN_EPOCHS` | offline training epochs per model | 30 |
//! | `SFN_LOG` | observability verbosity (`off`/`error`/`warn`/`info`/`debug`/`trace`) | `warn` |
//! | `SFN_TRACE_FILE` | JSONL structured-event sink (see `sfn-obs`) | unset |
//! | `SFN_SUMMARY_FILE` | `run_all`'s machine-readable summary path | `run_all_summary.json` |
//!
//! The paper's absolute numbers came from a Titan X GPU against a CPU
//! PCG at grids up to 1024²; ours come from one CPU at reduced scale.
//! Absolute magnitudes therefore differ by construction — the harness
//! reproduces the *shape*: who wins, roughly by how much, and where
//! the crossovers fall. See EXPERIMENTS.md for the side-by-side.

#![warn(missing_docs)]

pub mod env;
pub mod experiments;
pub mod runners;
pub mod timing;

pub use env::BenchEnv;

/// Whether `SFN_QUICK=1` asks for seconds-scale runs. Any other value,
/// `SFN_QUICK=0` included, means the standard scale.
pub fn quick() -> bool {
    std::env::var("SFN_QUICK").is_ok_and(|v| v == "1")
}

/// The environment every experiment binary uses: quick (seconds-scale)
/// when [`quick`], the standard scale otherwise.
pub fn bench_env() -> BenchEnv {
    if quick() {
        BenchEnv::quick()
    } else {
        BenchEnv::standard()
    }
}
