//! Replays the committed regression corpus and runs a seeded smoke
//! fuzz of every target — the `cargo test` wiring that keeps fixed
//! bugs fixed and new boundaries honest without a separate fuzz
//! service.

use sfn_fuzz::corpus::{self, regressions};
use sfn_fuzz::runner::{self, execute, FuzzOptions};
use sfn_fuzz::targets;
use sfn_fuzz::Outcome;

fn quiet() {
    sfn_obs::init();
    if std::env::var("SFN_LOG").is_err() {
        sfn_obs::set_log_level(sfn_obs::Level::Error);
    }
}

/// Every committed corpus entry must be accepted or rejected with a
/// typed error — never panic, never fail an oracle.
#[test]
fn committed_corpus_replays_clean() {
    quiet();
    let root = corpus::default_corpus_root();
    assert!(
        root.is_dir(),
        "committed corpus missing at {root:?} — run `sfn-fuzz gen-corpus`"
    );
    for target in targets::all() {
        let entries = corpus::load_entries(&root, target.name)
            .unwrap_or_else(|e| panic!("cannot read corpus for {}: {e}", target.name));
        assert!(
            !entries.is_empty(),
            "no committed corpus entries for target {}",
            target.name
        );
        let report = corpus::replay(&target, &entries);
        assert!(report.clean(), "corpus replay found bugs:\n{}", report.render());
    }
}

/// The corpus must contain the regression entries for the bugs this
/// harness caught (JSON depth bomb, forged SFNM headers, f32
/// overflow), and they must still be rejected.
#[test]
fn regression_entries_are_committed_and_still_rejected() {
    quiet();
    let root = corpus::default_corpus_root();
    let mut checked = 0;
    for target in targets::all() {
        for (name, bytes) in regressions(target.name) {
            let path = root.join(target.name).join(format!("{name}.bin"));
            let on_disk = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("regression entry {path:?} not committed: {e}"));
            assert_eq!(on_disk, bytes, "{path:?} drifted from its generator");
            match execute(&target, &bytes) {
                Ok(Outcome::Rejected(_)) => {}
                other => panic!("{}/{name}: expected rejection, got {other:?}", target.name),
            }
            checked += 1;
        }
    }
    assert!(checked >= 5, "expected at least 5 regression entries, found {checked}");
}

/// A short seeded fuzz of every target. 500 iterations per target
/// keeps the suite fast (SFN_QUICK-style budget); CI's fuzz-smoke job
/// runs the 10k-iteration version via the CLI.
#[test]
fn smoke_fuzz_every_target_is_clean() {
    quiet();
    let iterations = if std::env::var("SFN_QUICK").is_ok_and(|v| v == "1") { 150 } else { 500 };
    let root = corpus::default_corpus_root();
    for target in targets::all() {
        let entries: Vec<Vec<u8>> = corpus::load_entries(&root, target.name)
            .unwrap_or_default()
            .into_iter()
            .map(|(_, bytes)| bytes)
            .collect();
        let opts = FuzzOptions { iterations, seed: 0x5F_3E17, max_len: 1 << 14 };
        let report = runner::run_one(&target, &entries, &opts);
        assert!(report.clean(), "fuzzing found bugs:\n{}", report.render());
        assert_eq!(report.iterations, iterations);
    }
}

/// Findings reported by the runner surface as `fuzz.finding` events in
/// the JSONL trace, where `sfn-trace audit` tallies them.
#[test]
fn findings_flow_into_the_trace_and_audit() {
    quiet();
    // A deliberately broken target: panics whenever the input is
    // non-empty.
    let broken = sfn_fuzz::Target {
        name: "test_broken",
        about: "test-only",
        run: |input| {
            assert!(input.is_empty(), "boom");
            Outcome::Accepted
        },
        seeds: |_| vec![b"x".to_vec()],
        dict: &[],
    };
    let report = runner::run_one(
        &broken,
        &[],
        &FuzzOptions { iterations: 50, seed: 3, max_len: 64 },
    );
    assert!(!report.clean());

    // The audit report counts fuzz.finding events without treating
    // them as contradictions.
    let trace = sfn_trace::parse_trace(
        "{\"ts\":0.1,\"level\":\"error\",\"kind\":\"fuzz.finding\",\"target\":\"json\"}\n\
         {\"ts\":0.2,\"level\":\"warn\",\"kind\":\"parser.rejected\",\"boundary\":\"artifacts\"}\n",
    );
    let audit = sfn_trace::audit(&trace);
    assert_eq!(audit.fuzz_findings, 1);
    assert_eq!(audit.parser_rejected, 1);
    assert!(audit.clean());
}
