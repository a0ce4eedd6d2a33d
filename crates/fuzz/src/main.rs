//! The `sfn-fuzz` CLI: list targets, fuzz them, replay the committed
//! corpus, minimize a reproducer, refresh the corpus seeds.
//!
//! ```text
//! sfn-fuzz list
//! sfn-fuzz run    [TARGET|all] [--iters N] [--seed S] [--max-len N]
//! sfn-fuzz replay [TARGET|all] [--corpus DIR]
//! sfn-fuzz min    TARGET FILE [--out FILE] [--budget N]
//! sfn-fuzz gen-corpus [--corpus DIR] [--seed S] [--per-target N]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error. Respects
//! `SFN_LOG` / `SFN_TRACE_FILE` like every other binary; when
//! `SFN_LOG` is unset the stderr log level is raised to `error` so a
//! 10k-iteration run is not drowned in expected `parser.rejected`
//! warnings (the JSONL trace still records everything).

use sfn_fuzz::corpus::{self, ReplayReport};
use sfn_fuzz::runner::{self, FuzzOptions, FuzzReport};
use sfn_fuzz::targets;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sfn-fuzz <list|run|replay|min|gen-corpus> [options]
  list                                       registered targets
  run    [TARGET|all] [--iters N] [--seed S] [--max-len N]
                                             seeded fuzz loop (exit 1 on findings)
  replay [TARGET|all] [--corpus DIR]         replay the committed corpus (exit 1 on findings)
  min    TARGET FILE [--out FILE] [--budget N]
                                             greedy input minimization
  gen-corpus [--corpus DIR] [--seed S] [--per-target N]
                                             write generated seeds + regression entries";

fn fail(msg: &str) -> ExitCode {
    eprintln!("sfn-fuzz: {msg}");
    ExitCode::from(2)
}

struct Opts {
    positional: Vec<String>,
    iters: u64,
    seed: u64,
    max_len: usize,
    budget: u64,
    per_target: usize,
    corpus: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        positional: Vec::new(),
        iters: 1000,
        seed: 0,
        max_len: 1 << 16,
        budget: 4096,
        per_target: 8,
        corpus: None,
        out: None,
    };
    let mut it = args.iter();
    let num = |it: &mut std::slice::Iter<'_, String>, name: &str| -> Result<u64, String> {
        it.next()
            .ok_or_else(|| format!("{name} needs a value"))?
            .parse::<u64>()
            .map_err(|e| format!("bad {name} value: {e}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iters" => opts.iters = num(&mut it, "--iters")?,
            "--seed" => opts.seed = num(&mut it, "--seed")?,
            "--max-len" => opts.max_len = num(&mut it, "--max-len")? as usize,
            "--budget" => opts.budget = num(&mut it, "--budget")?,
            "--per-target" => opts.per_target = num(&mut it, "--per-target")? as usize,
            "--corpus" => {
                opts.corpus = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--corpus needs a path".to_string())?,
                ))
            }
            "--out" | "-o" => {
                opts.out = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--out needs a path".to_string())?,
                ))
            }
            _ if a.starts_with('-') => return Err(format!("unknown option {a:?}")),
            _ => opts.positional.push(a.clone()),
        }
    }
    Ok(opts)
}

/// Resolves `TARGET|all` (default `all`) to a target list.
fn select_targets(name: Option<&str>) -> Result<Vec<sfn_fuzz::Target>, String> {
    match name {
        None | Some("all") => Ok(targets::all()),
        Some(n) => targets::by_name(n).map(|t| vec![t]).ok_or_else(|| {
            let known: Vec<_> = targets::all().iter().map(|t| t.name).collect();
            format!("unknown target {n:?} (known: {})", known.join(", "))
        }),
    }
}

fn main() -> ExitCode {
    sfn_obs::init();
    if std::env::var("SFN_LOG").is_err() {
        // Expected rejections log at warn; keep interactive runs quiet.
        sfn_obs::set_log_level(sfn_obs::Level::Error);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };

    match cmd.as_str() {
        "list" => {
            for t in targets::all() {
                println!("{:<11} {}", t.name, t.about);
            }
            ExitCode::SUCCESS
        }
        "run" => {
            if opts.positional.len() > 1 {
                return fail("run takes at most one target name");
            }
            let selected = match select_targets(opts.positional.first().map(String::as_str)) {
                Ok(t) => t,
                Err(e) => return fail(&e),
            };
            let root = opts.corpus.clone().unwrap_or_else(corpus::default_corpus_root);
            let fuzz_opts =
                FuzzOptions { iterations: opts.iters, seed: opts.seed, max_len: opts.max_len };
            let mut clean = true;
            for target in &selected {
                let entries = match corpus::load_entries(&root, target.name) {
                    Ok(e) => e.into_iter().map(|(_, bytes)| bytes).collect::<Vec<_>>(),
                    Err(e) => return fail(&format!("cannot read corpus for {}: {e}", target.name)),
                };
                let report: FuzzReport = runner::run_one(target, &entries, &fuzz_opts);
                print!("{}", report.render());
                clean &= report.clean();
            }
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        "replay" => {
            if opts.positional.len() > 1 {
                return fail("replay takes at most one target name");
            }
            let selected = match select_targets(opts.positional.first().map(String::as_str)) {
                Ok(t) => t,
                Err(e) => return fail(&e),
            };
            let root = opts.corpus.clone().unwrap_or_else(corpus::default_corpus_root);
            let mut clean = true;
            for target in &selected {
                let entries = match corpus::load_entries(&root, target.name) {
                    Ok(e) => e,
                    Err(e) => return fail(&format!("cannot read corpus for {}: {e}", target.name)),
                };
                let report: ReplayReport = corpus::replay(target, &entries);
                print!("{}", report.render());
                clean &= report.clean();
            }
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        "min" => {
            let [name, file] = opts.positional.as_slice() else {
                return fail("min takes a target name and an input file");
            };
            let Some(target) = targets::by_name(name) else {
                return fail(&format!("unknown target {name:?}"));
            };
            let input = match std::fs::read(file) {
                Ok(b) => b,
                Err(e) => return fail(&format!("cannot read {file:?}: {e}")),
            };
            let key = runner::classify(&target, &input);
            let min = runner::minimize(&target, &input, opts.budget);
            eprintln!(
                "{}: {} -> {} bytes (class {key:?})",
                target.name,
                input.len(),
                min.len()
            );
            match &opts.out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &min) {
                        return fail(&format!("cannot write {path:?}: {e}"));
                    }
                    ExitCode::SUCCESS
                }
                None => {
                    use std::io::Write as _;
                    if std::io::stdout().write_all(&min).is_err() {
                        return fail("cannot write minimized input to stdout");
                    }
                    ExitCode::SUCCESS
                }
            }
        }
        "gen-corpus" => {
            if !opts.positional.is_empty() {
                return fail("gen-corpus takes no positional arguments");
            }
            let root = opts.corpus.clone().unwrap_or_else(corpus::default_corpus_root);
            for target in targets::all() {
                use sfn_rng::SeedableRng;
                let mut rng = sfn_rng::StdRng::seed_from_u64(
                    opts.seed ^ sfn_rng::fnv1a(target.name.as_bytes()),
                );
                let mut seeds: Vec<Vec<u8>> = Vec::new();
                while seeds.len() < opts.per_target {
                    seeds.extend((target.seeds)(&mut rng));
                }
                seeds.truncate(opts.per_target);
                let wrote = match corpus::write_entries(&root, target.name, "seed", &seeds) {
                    Ok(n) => n,
                    Err(e) => return fail(&format!("cannot write corpus for {}: {e}", target.name)),
                };
                let mut wrote_reg = 0;
                for (name, bytes) in corpus::regressions(target.name) {
                    let dir = root.join(target.name);
                    if let Err(e) = std::fs::create_dir_all(&dir) {
                        return fail(&format!("cannot create {dir:?}: {e}"));
                    }
                    let path = dir.join(format!("{name}.bin"));
                    match std::fs::write(&path, &bytes) {
                        Ok(()) => wrote_reg += 1,
                        Err(e) => return fail(&format!("cannot write {path:?}: {e}")),
                    }
                }
                println!(
                    "{:<11} wrote {wrote} generated seeds, {wrote_reg} regression entries",
                    target.name
                );
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
