//! `paper-*`: the paper's protocol (Table 1, Figure 8). Each problem is
//! run under MICCG(0), then under the fixed base (Tompson) model, then
//! under the adaptive runtime; the PCG run is that problem's reference.

use crate::stats::{fnv1a64, mean, median, peak_rss_mb};
use crate::trace::{SpanId, Trace};
use crate::{Failure, Metric, Report};
use sfn_grid::{CellFlags, Field2};
use sfn_nn::Network;
use sfn_runtime::SchedulerEvent;
use sfn_sim::{quality_loss, ExactProjector, PressureProjector, ProjectionOutcome, Simulation};
use sfn_solver::{MicPreconditioner, PcgSolver};
use sfn_surrogate::NeuralProjector;
use sfn_workload::{InputProblem, ProblemSet};
use smart_fluidnet_core::{OfflineArtifacts, SmartFluidnet};
use std::path::PathBuf;
use std::time::Instant;

/// Runs of the base model per problem; `tompson_s` takes their median.
/// One run takes about 1.5 s at 256², short enough that a single slow
/// run moves a median of three.
const TOMPSON_REPEATS: usize = 5;

pub struct PaperParams {
    pub grid: usize,
    pub steps: usize,
    pub problems: usize,
    pub seed: u64,
    pub artifact: PathBuf,
    /// Content hash the artifact must have (`None` skips the check).
    pub expect_fnv: Option<u64>,
}

/// One solve as seen by [`Timed`].
struct Solve {
    start: Instant,
    end: Instant,
    iterations: u64,
    flops: u64,
}

/// Benchmark-owned projector wrapper: times each solve and keeps the
/// counts the program reports in its `ProjectionOutcome`.
struct Timed<P> {
    inner: P,
    last: Option<Solve>,
}

impl<P: PressureProjector> PressureProjector for Timed<P> {
    fn solve_pressure(
        &mut self,
        divergence: &Field2,
        flags: &CellFlags,
        dx: f64,
        dt: f64,
    ) -> ProjectionOutcome {
        let start = Instant::now();
        let out = self.inner.solve_pressure(divergence, flags, dx, dt);
        let end = Instant::now();
        self.last = Some(Solve {
            start,
            end,
            iterations: out.iterations as u64,
            flops: out.flops,
        });
        out
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The reference solver: the same MICCG(0) settings the runtime restarts
/// with, so a restarted adaptive run reproduces the reference.
fn pcg() -> ExactProjector<PcgSolver<MicPreconditioner>> {
    ExactProjector::labelled(
        PcgSolver::new(MicPreconditioner::default(), 1e-7, 200_000),
        "pcg",
    )
}

/// Steps `sim` through the wrapper, recording `sim.step.<kind>` spans
/// with the solve (`solver.pcg` or `nn.solve`) as a child, and collects
/// failed checks in `errors`.
fn step_loop<P: PressureProjector>(
    sim: &mut Simulation,
    proj: P,
    steps: usize,
    kind: &str,
    trace: &mut Trace,
    parent: SpanId,
    errors: &mut Vec<String>,
) {
    let mut timed = Timed {
        inner: proj,
        last: None,
    };
    let step_name = format!("sim.step.{kind}");
    let solve_name = if kind == "pcg" {
        "solver.pcg"
    } else {
        "nn.solve"
    };
    for _ in 0..steps {
        let t0 = Instant::now();
        let st = sim.step(&mut timed);
        let t1 = Instant::now();
        let step = trace.record(&step_name, Some(parent), t0, t1);
        let Some(s) = timed.last.take() else {
            errors.push(format!("{kind}: step {} ran no projection", st.step));
            continue;
        };
        let solve = trace.record(solve_name, Some(step), s.start, s.end);
        trace.add_work(solve, s.iterations, s.flops);
        if kind == "pcg" && !st.converged {
            errors.push(format!("pcg: step {} did not converge", st.step));
        }
    }
    if !sim.density().all_finite() {
        errors.push(format!("{kind}: non-finite density"));
    }
}

/// Per-problem results of one pass over the problem set.
#[derive(Default)]
struct Pass {
    pcg_s: Vec<f64>,
    tompson_s: Vec<f64>,
    smart_s: Vec<f64>,
    tompson_q: Vec<f64>,
    smart_ok: usize,
    restarts: usize,
    switches: usize,
    rollbacks: usize,
    requested_steps: usize,
    executed_steps: usize,
}

impl Pass {
    /// Wall seconds of the first problem under all three solvers.
    fn first_problem_s(&self) -> f64 {
        self.pcg_s[0] + self.tompson_s[0] + self.smart_s[0]
    }
}

fn run_pass(
    fw: &SmartFluidnet,
    problems: &[InputProblem],
    steps: usize,
    trace: &mut Trace,
    errors: &mut Vec<String>,
) -> Result<Pass, Failure> {
    let art = fw.artifacts();
    let base = &art.measurements[art.base_index];
    let target = fw.requirement().0;
    let mut pass = Pass::default();
    let root = trace.open("paper.problems", None);
    for (i, problem) in problems.iter().enumerate() {
        // MICCG(0): the baseline and this problem's reference.
        let t = Instant::now();
        let run = trace.open("sim.run.pcg", Some(root));
        let mut reference = problem.simulation();
        step_loop(&mut reference, pcg(), steps, "pcg", trace, run, errors);
        trace.close(run);
        pass.pcg_s.push(t.elapsed().as_secs_f64());

        // The fixed base model. One run is short and its time noisy, so
        // it is repeated and the median kept; every repeat must compute
        // the same density.
        let mut times = Vec::with_capacity(TOMPSON_REPEATS);
        for _ in 0..TOMPSON_REPEATS {
            let t = Instant::now();
            let run = trace.open("sim.run.tompson", Some(root));
            let net = Network::load(&base.saved, 0)
                .map_err(|e| Failure::Setup(format!("base model: {e:?}")))?;
            let mut sim = problem.simulation();
            step_loop(
                &mut sim,
                NeuralProjector::new(net, "tompson"),
                steps,
                "tompson",
                trace,
                run,
                errors,
            );
            trace.close(run);
            times.push(t.elapsed().as_secs_f64());
            let q = quality_loss(sim.density(), reference.density());
            if times.len() == 1 {
                pass.tompson_q.push(q);
            } else if pass.tompson_q.last() != Some(&q) {
                errors.push(format!(
                    "tompson: problem {i} gave another density on a repeat"
                ));
            }
        }
        pass.tompson_s.push(median(&times));

        // The adaptive runtime, restarts included.
        let t = Instant::now();
        let build = trace.open("core.runtime_build", Some(root));
        let mut rt = fw
            .try_runtime_with(sfn_runtime::RuntimeConfig {
                total_steps: steps,
                quality_target: target,
                ..Default::default()
            })
            .map_err(|e| Failure::Setup(format!("runtime: {e}")))?;
        trace.close(build);
        let run = trace.open("runtime.run", Some(root));
        let out = rt.run(problem.simulation());
        trace.close(run);
        pass.smart_s.push(t.elapsed().as_secs_f64());
        trace.derived("runtime.nn", run, out.time_per_model.iter().sum());
        trace.derived("runtime.restart", run, out.restart_time);

        if !out.density.all_finite() {
            errors.push(format!("smart: non-finite density on problem {i}"));
        }
        let q = quality_loss(&out.density, reference.density());
        if !q.is_finite() {
            errors.push(format!("smart: non-finite loss on problem {i}"));
        }
        pass.smart_ok += usize::from(q <= target);
        pass.restarts += usize::from(out.restarted);
        pass.switches += out
            .events
            .iter()
            .filter(|e| matches!(e, SchedulerEvent::Switch { .. }))
            .count();
        pass.rollbacks += out.rollbacks;
        let nn_steps: usize = out.steps_per_model.iter().sum();
        pass.requested_steps += steps;
        pass.executed_steps += if out.restarted {
            nn_steps + out.cum_div_norm.len()
        } else {
            nn_steps.max(out.cum_div_norm.len())
        };
    }
    trace.close(root);
    Ok(pass)
}

pub fn run(p: &PaperParams, trace: &mut Trace) -> Result<Report, Failure> {
    let mut report = Report::default();
    let bytes = std::fs::read(&p.artifact)
        .map_err(|e| Failure::Setup(format!("{}: {e}", p.artifact.display())))?;
    let fnv = fnv1a64(&bytes);
    drop(bytes);
    let file = p.artifact.file_name().map_or_else(
        || p.artifact.display().to_string(),
        |f| f.to_string_lossy().into_owned(),
    );
    report.note(format!("artifact: {file} fnv1a64={fnv:016x}"));
    if let Some(want) = p.expect_fnv {
        if fnv != want {
            return Err(Failure::Incorrect(vec![format!(
                "pinned artifact hash {fnv:016x} differs from {want:016x}: runs on different rosters are not comparable"
            )]));
        }
    }

    // Set-up: artifact load (the full parse), framework construction
    // and problem generation.
    let t_setup = Instant::now();
    let setup = trace.open("paper.setup", None);
    let load = trace.open("core.artifact_load", Some(setup));
    let artifacts = OfflineArtifacts::load(&p.artifact)
        .map_err(|e| Failure::Setup(format!("artifact load: {e}")))?;
    let fw = SmartFluidnet::from_artifacts(artifacts);
    trace.close(load);
    let set = ProblemSet {
        base_seed: p.seed,
        ..ProblemSet::evaluation(p.grid, p.problems)
    };
    let problems: Vec<InputProblem> = (0..p.problems)
        .map(|i| {
            let g = trace.open("workload.problem_gen", Some(setup));
            let problem = set.problem(i);
            trace.close(g);
            problem
        })
        .collect();
    trace.close(setup);
    let setup_s = t_setup.elapsed().as_secs_f64();
    report.note(format!(
        "roster: {} selected models, requirement q<={:.5}, base model {}",
        fw.artifacts().selected.len(),
        fw.requirement().0,
        fw.artifacts().measurements[fw.artifacts().base_index].name
    ));

    let mut errors = Vec::new();
    // The traced run first runs the first problem untraced, so the
    // tracing overhead is the difference of two runs of the same problem
    // (one problem keeps the traced run well inside its time limit).
    let untraced = if trace.enabled() {
        Some(run_pass(
            &fw,
            &problems[..1],
            p.steps,
            &mut Trace::new(false),
            &mut errors,
        )?)
    } else {
        None
    };
    let pass = run_pass(&fw, &problems, p.steps, trace, &mut errors)?;
    if !errors.is_empty() {
        return Err(Failure::Incorrect(errors));
    }

    let n = problems.len() as f64;
    let smart_success = pass.smart_ok as f64 / n;
    report.attempted = 3 * problems.len() as u64;
    report.note(format!(
        "per problem: pcg_s={:.4} tompson_s={:.4} smart_s={:.4} smart_success={smart_success} tompson_qloss={:.6}",
        mean(&pass.pcg_s),
        mean(&pass.tompson_s),
        mean(&pass.smart_s),
        mean(&pass.tompson_q)
    ));
    // The operation a user of the paper's method waits for is one problem
    // under the adaptive runtime; it is done when it meets the quality
    // requirement against the problem's own PCG run.
    report.e2e = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("op_s", mean(&pass.smart_s), "s"),
        Metric::new("done_frac", smart_success, "fraction"),
        Metric::new("peak_rss_mb", peak_rss_mb().map_err(Failure::Setup)?, "MB"),
    ];
    if let Some(untraced) = untraced {
        report.layers = layer_metrics(trace, &pass, n, &untraced);
    }
    Ok(report)
}

fn layer_metrics(t: &Trace, pass: &Pass, n: f64, untraced: &Pass) -> Vec<Metric> {
    let per = |span: &str| t.total(span) / t.count(span).max(1) as f64;
    let self_per = |span: &str| t.self_total(span) / t.count(span).max(1) as f64;
    let work = |span: &str| {
        t.named(span)
            .fold((0u64, 0u64), |(c, f), s| (c + s.count, f + s.flops))
    };
    let (pcg_iters, pcg_flops) = work("solver.pcg");
    let (_, nn_flops) = work("nn.solve");
    let recon = t.reconcile();
    vec![
        Metric::new("core.artifact_load_s", t.total("core.artifact_load"), "s"),
        Metric::new(
            "core.runtime_build_ms",
            per("core.runtime_build") * 1e3,
            "ms",
        ),
        Metric::new(
            "workload.problem_gen_ms",
            per("workload.problem_gen") * 1e3,
            "ms",
        ),
        Metric::new("sim.step_ms.pcg", per("sim.step.pcg") * 1e3, "ms"),
        Metric::new("sim.step_ms.tompson", per("sim.step.tompson") * 1e3, "ms"),
        Metric::new("sim.step_self_ms.pcg", self_per("sim.step.pcg") * 1e3, "ms"),
        Metric::new(
            "sim.step_self_ms.tompson",
            self_per("sim.step.tompson") * 1e3,
            "ms",
        ),
        Metric::new(
            "solver.pcg_iters",
            pcg_iters as f64 / t.count("solver.pcg").max(1) as f64,
            "count",
        ),
        Metric::new(
            "solver.pcg_ms_per_iter",
            t.total("solver.pcg") * 1e3 / pcg_iters.max(1) as f64,
            "ms",
        ),
        Metric::new(
            "solver.pcg_gflop_s",
            pcg_flops as f64 / t.total("solver.pcg") / 1e9,
            "GFLOP/s",
        ),
        Metric::new("nn.solve_ms", per("nn.solve") * 1e3, "ms"),
        Metric::new(
            "nn.flop_per_solve",
            nn_flops as f64 / t.count("nn.solve").max(1) as f64,
            "count",
        ),
        Metric::new(
            "nn.gflop_s",
            nn_flops as f64 / t.total("nn.solve") / 1e9,
            "GFLOP/s",
        ),
        Metric::new("runtime.run_s", t.total("runtime.run") / n, "s"),
        Metric::new("runtime.nn_s", t.total("runtime.nn") / n, "s"),
        Metric::new("runtime.restart_s", t.total("runtime.restart") / n, "s"),
        Metric::new("runtime.self_s", t.self_total("runtime.run") / n, "s"),
        Metric::new("tompson_qloss", mean(&pass.tompson_q), "loss"),
        Metric::new("runtime.restart_rate", pass.restarts as f64 / n, "fraction"),
        Metric::new("runtime.switches", pass.switches as f64 / n, "count"),
        Metric::new("runtime.rollbacks", pass.rollbacks as f64 / n, "count"),
        Metric::new(
            "runtime.useful_step_frac",
            pass.requested_steps as f64 / pass.executed_steps.max(1) as f64,
            "fraction",
        ),
        Metric::new(
            "bench.trace_overhead_frac",
            (pass.first_problem_s() - untraced.first_problem_s()) / untraced.first_problem_s(),
            "fraction",
        ),
        Metric::new("bench.unattributed_s", recon.unattributed, "s"),
    ]
}
