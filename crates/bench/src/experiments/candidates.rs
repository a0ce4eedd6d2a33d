//! Figures 10/11 (per-candidate speedup and quality) and Table 3
//! (runtime time distribution over the selected models).

use crate::env::BenchEnv;
use crate::runners::{problems_at, references_for, run_fixed, run_smart, RunRecord};
use sfn_obs::json::{obj, FromJson, JsonError, ToJson, Value};
use sfn_stats::{BoxplotSummary, TextTable};
use smart_fluidnet_core::OfflineArtifacts;

/// Results of running every Pareto candidate solo plus Smart-fluidnet.
#[derive(Debug, Clone)]
pub struct CandidateRuns {
    /// Candidate names (M-ids), fastest first.
    pub names: Vec<String>,
    /// Per-candidate per-problem records.
    pub per_candidate: Vec<Vec<RunRecord>>,
    /// Fixed Tompson (base) runs.
    pub tompson: Vec<RunRecord>,
    /// Smart-fluidnet adaptive runs.
    pub smart: Vec<RunRecord>,
    /// PCG projection seconds per problem.
    pub pcg_secs: Vec<f64>,
    /// Per-problem adaptive time distribution: `(model names, seconds,
    /// steps)` in scheduler order.
    pub smart_distribution: Vec<(Vec<String>, Vec<f64>, Vec<usize>)>,
    /// MLP probability per *selected* runtime model (name, prob).
    pub selected_probabilities: Vec<(String, f64)>,
}

impl ToJson for CandidateRuns {
    fn to_json_value(&self) -> Value {
        obj([
            ("names", self.names.to_json_value()),
            ("per_candidate", self.per_candidate.to_json_value()),
            ("tompson", self.tompson.to_json_value()),
            ("smart", self.smart.to_json_value()),
            ("pcg_secs", self.pcg_secs.to_json_value()),
            ("smart_distribution", self.smart_distribution.to_json_value()),
            ("selected_probabilities", self.selected_probabilities.to_json_value()),
        ])
    }
}

impl FromJson for CandidateRuns {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(CandidateRuns {
            names: v.field("names")?,
            per_candidate: v.field("per_candidate")?,
            tompson: v.field("tompson")?,
            smart: v.field("smart")?,
            pcg_secs: v.field("pcg_secs")?,
            smart_distribution: v.field("smart_distribution")?,
            selected_probabilities: v.field("selected_probabilities")?,
        })
    }
}

/// Runs (or loads) the candidate comparison at the evaluation grid.
pub fn candidate_runs(env: &BenchEnv) -> CandidateRuns {
    let key = format!(
        "candidates-{}-{}-{}",
        env.offline.cache_key(),
        env.problems_per_grid,
        env.steps
    );
    let path = OfflineArtifacts::cache_path(&format!("{:016x}", sfn_rng::fnv1a(key.as_bytes())));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(c) = sfn_obs::json::from_json_str::<CandidateRuns>(&text) {
            return c;
        }
    }
    let art = env.framework.artifacts();
    let grid = env.offline.eval_grid;
    let steps = env.steps;
    let problems = problems_at(grid, env.problems_per_grid.max(4));
    let references = references_for(&problems, steps);
    let pcg_secs: Vec<f64> = references.iter().map(|r| r.1).collect();

    let candidates = art.candidates();
    let names: Vec<String> = candidates.iter().map(|m| m.name.clone()).collect();
    let per_candidate: Vec<Vec<RunRecord>> = sfn_par::map(&candidates, |m| {
        problems
            .iter()
            .zip(&references)
            .map(|(p, (reference, _))| run_fixed(&m.saved, &m.name, p, steps, reference))
            .collect()
    });
    let indexed: Vec<usize> = (0..problems.len()).collect();
    let tompson: Vec<RunRecord> = sfn_par::map(&indexed, |&i| {
        run_fixed(
            &art.measurements[art.base_index].saved,
            "tompson",
            &problems[i],
            steps,
            &references[i].0,
        )
    });
    let smart_full: Vec<(RunRecord, sfn_runtime::RunOutcome)> = sfn_par::map(&indexed, |&i| {
        run_smart(&env.framework, &problems[i], steps, &references[i].0, None)
    });
    let smart: Vec<RunRecord> = smart_full.iter().map(|(r, _)| *r).collect();
    let smart_distribution = smart_full
        .iter()
        .map(|(_, out)| {
            (
                out.model_names.clone(),
                out.time_per_model.clone(),
                out.steps_per_model.clone(),
            )
        })
        .collect();
    let selected_probabilities = art
        .selected
        .iter()
        .map(|c| (c.name.clone(), c.probability))
        .collect();
    let runs = CandidateRuns {
        names,
        per_candidate,
        tompson,
        smart,
        pcg_secs,
        smart_distribution,
        selected_probabilities,
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&path, sfn_obs::json::to_json_string(&runs)).ok();
    runs
}

impl CandidateRuns {
    /// Figure 10: speedup over PCG for each candidate run solo, plus
    /// Smart-fluidnet.
    pub fn render_figure10(&self) -> String {
        let pcg: f64 = self.pcg_secs.iter().sum();
        let mut t = TextTable::new(["Model", "Speedup vs PCG"]);
        for (name, runs) in self.names.iter().zip(&self.per_candidate) {
            let secs: f64 = runs.iter().map(|r| r.secs).sum();
            t.row([name.clone(), format!("{:.1}x", pcg / secs.max(1e-12))]);
        }
        let smart_secs: f64 = self.smart.iter().map(|r| r.secs).sum();
        t.row([
            "Smart".to_string(),
            format!("{:.1}x", pcg / smart_secs.max(1e-12)),
        ]);
        format!(
            "{}\n(paper: candidates span 141x-541x; Smart lands near the median, 440x)",
            t.render()
        )
    }

    /// Figure 11: quality-loss box-plots per candidate, Tompson and
    /// Smart.
    pub fn render_figure11(&self) -> String {
        let mut out = String::new();
        let render = |label: &str, runs: &[RunRecord]| -> String {
            let q: Vec<f64> = runs.iter().map(|r| r.qloss).collect();
            match BoxplotSummary::from_data(&q) {
                Some(b) => format!("  {label:<8} {}\n", b.render()),
                None => format!("  {label:<8} (no data)\n"),
            }
        };
        out.push_str(&render("Tompson", &self.tompson));
        for (name, runs) in self.names.iter().zip(&self.per_candidate) {
            out.push_str(&render(name, runs));
        }
        out.push_str(&render("Smart", &self.smart));
        out.push_str(
            "(paper: Smart-fluidnet's variation is much smaller than any \
             single candidate's)",
        );
        out
    }

    /// Table 3: the time distribution over the runtime's selected
    /// models, aggregated across problems, with their MLP
    /// probabilities.
    pub fn render_table3(&self) -> String {
        // Aggregate seconds per model name across problems.
        let mut total: std::collections::BTreeMap<String, f64> = Default::default();
        let mut grand = 0.0;
        for (names, secs, _) in &self.smart_distribution {
            for (n, &s) in names.iter().zip(secs) {
                *total.entry(n.clone()).or_insert(0.0) += s;
                grand += s;
            }
        }
        let prob: std::collections::BTreeMap<&str, f64> = self
            .selected_probabilities
            .iter()
            .map(|(n, p)| (n.as_str(), *p))
            .collect();
        let mut rows: Vec<(String, f64, f64)> = total
            .into_iter()
            .map(|(n, s)| {
                let p = prob.get(n.as_str()).copied().unwrap_or(f64::NAN);
                (n, p, 100.0 * s / grand.max(1e-12))
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut t = TextTable::new(["Model", "Prob. (MLP)", "Time share"]);
        for (n, p, share) in rows {
            t.row([n, format!("{:.1}%", p * 100.0), format!("{share:.1}%")]);
        }
        format!(
            "{}\n(paper Table 3: the highest-probability model takes the \
             largest share, 50.56%)",
            t.render()
        )
    }
}
