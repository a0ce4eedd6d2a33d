//! The grid-size sweep shared by Figure 8 (speedup), Figure 9 (quality
//! box-plots), Table 2 (success rates) and Figure 12 (MLP effect).
//!
//! Expensive, so results are cached under `target/sfn-artifacts`.

use crate::env::BenchEnv;
use crate::runners::{problems_at, references_for, run_fixed, run_smart, RunRecord};
use sfn_obs::json::{obj, FromJson, JsonError, ToJson, Value};
use sfn_runtime::RuntimeConfig;
use sfn_stats::{BoxplotSummary, Summary, TextTable};
use smart_fluidnet_core::OfflineArtifacts;

/// Per-grid sweep results.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Grid size.
    pub grid: usize,
    /// PCG projection seconds per problem.
    pub pcg_secs: Vec<f64>,
    /// Fixed Tompson-model runs.
    pub tompson: Vec<RunRecord>,
    /// Adaptive Smart-fluidnet runs (with MLP).
    pub smart: Vec<RunRecord>,
    /// Adaptive runs without the MLP (Figure 12 baseline).
    pub smart_no_mlp: Vec<RunRecord>,
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// One entry per grid size.
    pub grids: Vec<SweepGrid>,
    /// Steps per simulation.
    pub steps: usize,
    /// The quality requirement used.
    pub quality_target: f64,
}

impl ToJson for SweepGrid {
    fn to_json_value(&self) -> Value {
        obj([
            ("grid", self.grid.to_json_value()),
            ("pcg_secs", self.pcg_secs.to_json_value()),
            ("tompson", self.tompson.to_json_value()),
            ("smart", self.smart.to_json_value()),
            ("smart_no_mlp", self.smart_no_mlp.to_json_value()),
        ])
    }
}

impl FromJson for SweepGrid {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(SweepGrid {
            grid: v.field("grid")?,
            pcg_secs: v.field("pcg_secs")?,
            tompson: v.field("tompson")?,
            smart: v.field("smart")?,
            smart_no_mlp: v.field("smart_no_mlp")?,
        })
    }
}

impl ToJson for Sweep {
    fn to_json_value(&self) -> Value {
        obj([
            ("grids", self.grids.to_json_value()),
            ("steps", self.steps.to_json_value()),
            ("quality_target", self.quality_target.to_json_value()),
        ])
    }
}

impl FromJson for Sweep {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Sweep {
            grids: v.field("grids")?,
            steps: v.field("steps")?,
            quality_target: v.field("quality_target")?,
        })
    }
}

/// Runs (or loads) the sweep.
pub fn sweep(env: &BenchEnv) -> Sweep {
    let key = format!(
        "sweep-{}-{:?}-{}-{}",
        env.offline.cache_key(),
        env.grids,
        env.problems_per_grid,
        env.steps
    );
    let path = OfflineArtifacts::cache_path(&format!("{:016x}", sfn_rng::fnv1a(key.as_bytes())));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(s) = sfn_obs::json::from_json_str::<Sweep>(&text) {
            return s;
        }
    }
    let quality_target = env.framework.requirement().0;
    let art = env.framework.artifacts();
    let tompson = art.measurements[art.base_index].saved.clone();
    let grids = env
        .grids
        .iter()
        .map(|&grid| {
            let problems = problems_at(grid, env.problems_per_grid);
            let references = references_for(&problems, env.steps);
            let pcg_secs: Vec<f64> = references.iter().map(|r| r.1).collect();
            let indexed: Vec<usize> = (0..problems.len()).collect();
            let tompson_runs: Vec<RunRecord> = sfn_par::map(&indexed, |&i| {
                run_fixed(&tompson, "tompson", &problems[i], env.steps, &references[i].0)
            });
            let smart: Vec<RunRecord> = sfn_par::map(&indexed, |&i| {
                run_smart(&env.framework, &problems[i], env.steps, &references[i].0, None).0
            });
            let smart_no_mlp: Vec<RunRecord> = sfn_par::map(&indexed, |&i| {
                run_smart(
                    &env.framework,
                    &problems[i],
                    env.steps,
                    &references[i].0,
                    Some(RuntimeConfig {
                        total_steps: env.steps,
                        quality_target,
                        use_mlp: false,
                        ..Default::default()
                    }),
                )
                .0
            });
            SweepGrid {
                grid,
                pcg_secs,
                tompson: tompson_runs,
                smart,
                smart_no_mlp,
            }
        })
        .collect();
    let s = Sweep {
        grids,
        steps: env.steps,
        quality_target,
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&path, sfn_obs::json::to_json_string(&s)).ok();
    s
}

impl Sweep {
    /// Figure 8: mean speedup over PCG per grid, Tompson vs Smart.
    pub fn render_figure8(&self) -> String {
        let mut t = TextTable::new([
            "Grid (ours)",
            "Grid (paper)",
            "Tompson speedup",
            "Smart-fluidnet speedup",
            "Smart vs Tompson",
        ]);
        let mut ratios = Vec::new();
        for (i, g) in self.grids.iter().enumerate() {
            let pcg: f64 = g.pcg_secs.iter().sum();
            let tom: f64 = g.tompson.iter().map(|r| r.secs).sum();
            let sm: f64 = g.smart.iter().map(|r| r.secs).sum();
            let s_t = pcg / tom.max(1e-12);
            let s_s = pcg / sm.max(1e-12);
            ratios.push(s_s / s_t.max(1e-12));
            t.row([
                format!("{0}x{0}", g.grid),
                crate::env::BenchEnv::paper_grid_label(i).to_string(),
                format!("{s_t:.1}x"),
                format!("{s_s:.1}x"),
                format!("{:.2}x", s_s / s_t.max(1e-12)),
            ]);
        }
        let geo = Summary::geo_mean(&ratios).unwrap_or(f64::NAN);
        format!(
            "{}\nmean Smart-vs-Tompson improvement: {:.2}x \
             (paper: 1.46x mean, up to 2.25x; paper speedups vs PCG are GPU-vs-CPU, up to ~710x)",
            t.render(),
            geo
        )
    }

    /// Figure 9: quality-loss box-plots per grid.
    pub fn render_figure9(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "target quality loss (Tompson average): {:.4}\n",
            self.quality_target
        ));
        for g in &self.grids {
            let tq: Vec<f64> = g.tompson.iter().map(|r| r.qloss).collect();
            let sq: Vec<f64> = g.smart.iter().map(|r| r.qloss).collect();
            let bt = BoxplotSummary::from_data(&tq).expect("tompson data");
            let bs = BoxplotSummary::from_data(&sq).expect("smart data");
            out.push_str(&format!(
                "grid {0}x{0}\n  Tompson       {1}\n  Smart-fluidnet {2}\n",
                g.grid,
                bt.render(),
                bs.render()
            ));
        }
        out.push_str(
            "(paper: Smart-fluidnet's boxes sit closer to the target with smaller variance)",
        );
        out
    }

    /// Table 2: percentage of problems meeting the quality requirement.
    pub fn render_table2(&self) -> String {
        let mut t = TextTable::new(["Grid", "Paper grid", "Tompson", "Smart-fluidnet"]);
        let q = self.quality_target;
        for (i, g) in self.grids.iter().enumerate() {
            let rate = |rs: &[RunRecord]| -> f64 {
                100.0 * rs.iter().filter(|r| r.qloss <= q).count() as f64 / rs.len() as f64
            };
            t.row([
                format!("{0}x{0}", g.grid),
                crate::env::BenchEnv::paper_grid_label(i).to_string(),
                format!("{:.1}%", rate(&g.tompson)),
                format!("{:.1}%", rate(&g.smart)),
            ]);
        }
        format!(
            "{}\n(paper Table 2: Tompson 46-85%, Smart-fluidnet 86-91%, \
             gap up to 44.67% at 1024x1024)",
            t.render()
        )
    }

    /// Figure 12: success rate with vs without the MLP, plus relative
    /// performance.
    pub fn render_figure12(&self) -> String {
        let mut t = TextTable::new([
            "Grid",
            "Success w/o MLP",
            "Success with MLP",
            "Time w/ MLP vs w/o",
        ]);
        let q = self.quality_target;
        for g in &self.grids {
            let rate = |rs: &[RunRecord]| -> f64 {
                100.0 * rs.iter().filter(|r| r.qloss <= q).count() as f64 / rs.len() as f64
            };
            let secs = |rs: &[RunRecord]| -> f64 { rs.iter().map(|r| r.secs).sum() };
            t.row([
                format!("{0}x{0}", g.grid),
                format!("{:.1}%", rate(&g.smart_no_mlp)),
                format!("{:.1}%", rate(&g.smart)),
                format!("{:.0}%", 100.0 * secs(&g.smart) / secs(&g.smart_no_mlp).max(1e-12)),
            ]);
        }
        format!(
            "{}\n(paper: with-MLP success averages 88.86%, always above no-MLP; \
             with-MLP runtime is 79-97% of no-MLP)",
            t.render()
        )
    }
}
