//! `offline-quick`: a cold `build_offline` at the quick configuration —
//! the only workload that trains networks, generates the model family,
//! fits the success-rate MLP and builds the KNN database.
//!
//! The result is saved into a temporary directory of the benchmark's
//! own, never into the artifact cache, so the pinned roster is neither
//! read nor overwritten here.

use crate::stats::{median, peak_rss_mb};
use crate::trace::Trace;
use crate::{Failure, Metric, Report};
use sfn_modelgen::evaluate::train_and_measure_family_inherited;
use sfn_modelgen::{generate_family, select_candidates, EvalContext};
use sfn_nn::network::SavedModel;
use sfn_nn::Network;
use sfn_quality::mlp::MlpTrainConfig;
use sfn_quality::{
    generate_samples, select_runtime_models, ExecutionRecord, MlpVariant, ModelRecords,
    SampleConfig, SelectionInput, SuccessPredictor,
};
use sfn_sim::{quality_loss, ExactProjector};
use sfn_solver::{MicPreconditioner, PcgSolver};
use sfn_surrogate::{tompson_default, NeuralProjector, ProjectionDataset, TrainConfig};
use sfn_workload::ProblemSet;
use smart_fluidnet_core::{build_offline, OfflineArtifacts, OfflineConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Input generations measured for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 101;

pub struct OfflineParams {
    pub config: OfflineConfig,
    /// Scratch directory for the built artifacts.
    pub out_dir: PathBuf,
}

fn check(art: &OfflineArtifacts, path: &Path) -> Result<(), Failure> {
    let mut errors = Vec::new();
    if let Err(e) = art.validate() {
        errors.push(format!("offline artifacts do not validate: {e}"));
    }
    if art.selected.is_empty() {
        errors.push("offline build selected no runtime model".into());
    }
    if !errors.is_empty() {
        return Err(Failure::Incorrect(errors));
    }
    art.save(path)
        .map_err(|e| Failure::Setup(format!("saving artifacts: {e}")))
}

/// Generates the build's inputs: its training, evaluation and KNN
/// problem sets. `build_offline` generates them again inside, before any
/// training can start.
fn generate_inputs(cfg: &OfflineConfig) -> usize {
    [
        ProblemSet::training(cfg.train_grid, cfg.train_problems),
        ProblemSet::evaluation(cfg.eval_grid, cfg.eval_problems),
        ProblemSet::evaluation(cfg.knn_grid, cfg.knn_problems),
    ]
    .iter()
    .flat_map(ProblemSet::iter)
    .map(std::hint::black_box)
    .count()
}

pub fn run(p: &OfflineParams, trace: &mut Trace) -> Result<Report, Failure> {
    let mut report = Report::default();
    let cfg = p.config;
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            generate_inputs(&cfg);
            t.elapsed().as_secs_f64()
        })
        .collect();
    std::fs::create_dir_all(&p.out_dir)
        .map_err(|e| Failure::Setup(format!("{}: {e}", p.out_dir.display())))?;
    let path = p.out_dir.join(format!("{}.json", cfg.cache_key()));

    let t = Instant::now();
    let art = build_offline(&cfg);
    let offline_s = t.elapsed().as_secs_f64();
    let result = check(&art, &path);
    let _ = std::fs::remove_dir_all(&p.out_dir);
    result?;
    report.attempted = 1;
    report.note(format!(
        "offline: {} family members, {} selected runtime models",
        art.family.len(),
        art.selected.len()
    ));

    if trace.enabled() {
        // build_offline runs its stages internally, so the traced run
        // replays the stage functions it composes, in its order and with
        // its inputs, each under a span; the replay is the traced total
        // and the untraced build above is the reference for the overhead.
        let replayed = replay(&cfg, trace);
        report.attempted += 1;
        report.layers = vec![
            Metric::new("offline.dataset_s", trace.total("offline.dataset"), "s"),
            Metric::new("offline.family_s", trace.total("offline.family"), "s"),
            Metric::new(
                "offline.train_measure_s",
                trace.total("offline.train_measure"),
                "s",
            ),
            Metric::new("offline.mlp_s", trace.total("offline.mlp"), "s"),
            Metric::new("offline.knn_s", trace.total("offline.knn"), "s"),
            Metric::new(
                "bench.trace_overhead_frac",
                (replayed - offline_s) / offline_s,
                "fraction",
            ),
            Metric::new("bench.unattributed_s", trace.reconcile().unattributed, "s"),
        ];
    } else {
        // The operation is one cold build. It is done when it validates
        // with a selected model; otherwise the run fails above.
        report.note(format!("offline_s={offline_s:.4}"));
        report.e2e = vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("op_s", offline_s, "s"),
            Metric::new("done_frac", 1.0, "fraction"),
            Metric::new("peak_rss_mb", peak_rss_mb().map_err(Failure::Setup)?, "MB"),
        ];
    }
    Ok(report)
}

/// `build_offline`'s stages, called in its order with its inputs, each
/// under a span below an `offline.build` root. Returns the wall seconds.
fn replay(cfg: &OfflineConfig, trace: &mut Trace) -> f64 {
    let t = Instant::now();
    let root = trace.open("offline.build", None);
    let s = trace.open("offline.dataset", Some(root));
    let train_set = ProblemSet::training(cfg.train_grid, cfg.train_problems);
    let dataset = ProjectionDataset::generate(&train_set, cfg.train_steps, cfg.capture_every);
    trace.close(s);

    let s = trace.open("offline.family", Some(root));
    let family = generate_family(&tompson_default(), &dataset, &cfg.search, &cfg.family);
    trace.close(s);

    let s = trace.open("offline.train_measure", Some(root));
    let eval_set = ProblemSet::evaluation(cfg.eval_grid, cfg.eval_problems);
    let ctx = EvalContext::new(&eval_set, cfg.eval_steps);
    let train_cfg = TrainConfig {
        epochs: cfg.train_epochs,
        batch_size: 8,
        learning_rate: cfg.learning_rate,
        seed: cfg.seed,
        supervised_weight: 0.0,
    };
    let measurements =
        train_and_measure_family_inherited(&family, &dataset, &ctx, &train_cfg, cfg.child_epochs);
    trace.close(s);

    let s = trace.open("offline.mlp", Some(root));
    let candidates = select_candidates(&measurements);
    let records: Vec<ModelRecords> = candidates
        .iter()
        .map(|&idx| {
            let m = &measurements[idx];
            ModelRecords {
                model_id: m.id,
                name: m.name.clone(),
                spec: m.saved.spec.clone(),
                records: m
                    .per_problem
                    .iter()
                    .enumerate()
                    .map(|(problem, &(quality_loss, time))| ExecutionRecord {
                        problem,
                        quality_loss,
                        time,
                    })
                    .collect(),
            }
        })
        .collect();
    let samples = generate_samples(
        &records,
        &SampleConfig {
            per_model: cfg.mlp_samples_per_model,
            seed: cfg.seed ^ 0x11,
        },
    );
    let mlp_cfg = MlpTrainConfig {
        steps: cfg.mlp_steps,
        seed: cfg.seed ^ 0x22,
        ..Default::default()
    };
    let (mut predictor, _) = SuccessPredictor::train(MlpVariant::Mlp3, &samples, &mlp_cfg);
    trace.close(s);

    // Eq. 8 selection against the base model's requirement, then the
    // KNN database: every selected model on the small-problem pool
    // against PCG references. When Eq. 8 rejects everything,
    // build_offline ranks all candidates instead; the replay then takes
    // the first five, which costs the same.
    let s = trace.open("offline.knn", Some(root));
    let base = &measurements[0];
    let requirement = (base.quality_loss, base.time_cost.max(1e-9) * 1.5);
    let inputs: Vec<SelectionInput> = records
        .iter()
        .map(|r| SelectionInput { records: r.clone() })
        .collect();
    let chosen: Vec<usize> = select_runtime_models(
        &inputs,
        &mut predictor,
        requirement.0,
        requirement.1,
        ctx.reference_time_mean(),
    )
    .iter()
    .map(|m| m.index)
    .collect();
    let models: Vec<&SavedModel> = if chosen.is_empty() {
        (0..inputs.len()).collect()
    } else {
        chosen
    }
    .into_iter()
    .take(5)
    .map(|i| &measurements[candidates[i]].saved)
    .collect();
    let knn_set = ProblemSet::evaluation(cfg.knn_grid, cfg.knn_problems);
    let problems: Vec<_> = knn_set.iter().collect();
    let references = sfn_par::map(&problems, |p| {
        let mut sim = p.simulation();
        let mut pcg = ExactProjector::labelled(
            PcgSolver::new(MicPreconditioner::default(), 1e-7, 100_000),
            "pcg",
        );
        sim.run(cfg.eval_steps, &mut pcg);
        sim.density().clone()
    });
    let pairs = sfn_par::map(&models, |saved| {
        problems
            .iter()
            .zip(&references)
            .filter_map(|(p, reference)| {
                let net = Network::load(saved, 0).ok()?;
                let mut proj = NeuralProjector::new(net, "knn");
                let mut sim = p.simulation();
                sim.run(cfg.eval_steps, &mut proj);
                Some(quality_loss(sim.density(), reference))
            })
            .count()
    });
    std::hint::black_box(pairs);
    trace.close(s);
    trace.close(root);
    t.elapsed().as_secs_f64()
}
