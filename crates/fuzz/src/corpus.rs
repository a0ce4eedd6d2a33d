//! The committed regression corpus and its replay runner.
//!
//! Layout: `fuzz/corpus/<target>/<name>.bin` at the workspace root
//! (override with `SFN_FUZZ_CORPUS`). Every entry is replayed by
//! `cargo test -p sfn-fuzz` and by the CI `fuzz-smoke` job; an entry
//! that panics or fails an oracle fails the build, so fixed bugs stay
//! fixed. `sfn-fuzz gen-corpus` refreshes the generated seeds and
//! always re-emits the hand-built regression entries for the bugs this
//! harness has caught ([`regressions`]).

use crate::runner::{execute, Finding, FindingKind};
use crate::{Outcome, Target};
use std::path::{Path, PathBuf};

/// The corpus root: `SFN_FUZZ_CORPUS` if set, else `fuzz/corpus/` at
/// the workspace root (two levels above this crate's manifest).
pub fn default_corpus_root() -> PathBuf {
    if let Ok(dir) = std::env::var("SFN_FUZZ_CORPUS") {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("fuzz").join("corpus")
}

/// Loads one target's corpus entries, sorted by filename so replay
/// order (and therefore replay reports) is stable across filesystems.
/// A missing directory is an empty corpus, not an error.
pub fn load_entries(root: &Path, target_name: &str) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let dir = root.join(target_name);
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        entries.push((name, std::fs::read(entry.path())?));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(entries)
}

/// The result of replaying one target's corpus.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Target name.
    pub target: &'static str,
    /// Entries replayed.
    pub total: u64,
    /// Entries the boundary accepted.
    pub accepted: u64,
    /// Entries refused with a typed error.
    pub rejected: u64,
    /// `(entry name, finding)` for every unsound entry.
    pub findings: Vec<(String, Finding)>,
}

impl ReplayReport {
    /// True when every entry was accepted or rejected cleanly.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One-line summary plus any findings.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<11} {:>5} entries  {:>5} accepted  {:>5} rejected  {} findings\n",
            self.target,
            self.total,
            self.accepted,
            self.rejected,
            self.findings.len()
        );
        for (name, f) in &self.findings {
            s.push_str(&format!("  [{}] {}: {}\n", f.kind.as_str(), name, f.detail));
        }
        s
    }
}

/// Replays named entries through a target, classifying each one.
pub fn replay(target: &Target, entries: &[(String, Vec<u8>)]) -> ReplayReport {
    let mut report = ReplayReport {
        target: target.name,
        total: entries.len() as u64,
        accepted: 0,
        rejected: 0,
        findings: Vec::new(),
    };
    for (name, input) in entries {
        match execute(target, input) {
            Ok(Outcome::Accepted) => report.accepted += 1,
            Ok(Outcome::Rejected(_)) => report.rejected += 1,
            Ok(Outcome::OracleFailure(detail)) => {
                report.findings.push((
                    name.clone(),
                    Finding { kind: FindingKind::Oracle, detail, input: input.clone() },
                ));
            }
            Err(msg) => {
                report.findings.push((
                    name.clone(),
                    Finding { kind: FindingKind::Panic, detail: msg, input: input.clone() },
                ));
            }
        }
    }
    report
}

/// Writes `entries` under `root/<target>/`, named
/// `<prefix>-<fnv1a:016x>.bin` (content-addressed: regenerating an
/// identical corpus is a no-op for git).
pub fn write_entries(
    root: &Path,
    target_name: &str,
    prefix: &str,
    entries: &[Vec<u8>],
) -> std::io::Result<usize> {
    let dir = root.join(target_name);
    std::fs::create_dir_all(&dir)?;
    let mut written = 0;
    for entry in entries {
        let path = dir.join(format!("{prefix}-{:016x}.bin", sfn_rng::fnv1a(entry)));
        if !path.exists() {
            std::fs::write(&path, entry)?;
            written += 1;
        }
    }
    Ok(written)
}

// -------------------------------------------------------- regressions

/// A forged `SFNM` blob with a *valid* checksum, an empty spec, and an
/// attacker-chosen `tensor_count` header but no tensor bytes. Before
/// this PR, `decode` pre-allocated `tensor_count * 24` bytes of `Vec`
/// headers (≈ 96 GiB at `u32::MAX`) from this 29-byte file.
pub fn forged_tensor_count_blob(tensor_count: u32) -> Vec<u8> {
    let spec = b"{\"layers\":[]}";
    let mut buf = Vec::new();
    buf.extend_from_slice(b"SFNM");
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&(spec.len() as u32).to_le_bytes());
    buf.extend_from_slice(spec);
    buf.extend_from_slice(&tensor_count.to_le_bytes());
    let checksum = sfn_rng::fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Like [`forged_tensor_count_blob`] but with one tensor whose length
/// word promises `len` floats the file does not contain.
pub fn forged_tensor_len_blob(len: u32) -> Vec<u8> {
    let spec = b"{\"layers\":[]}";
    let mut buf = Vec::new();
    buf.extend_from_slice(b"SFNM");
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&(spec.len() as u32).to_le_bytes());
    buf.extend_from_slice(spec);
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    let checksum = sfn_rng::fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// An `SFNC` header claiming `section_count` sections over a body far
/// too small to hold them, with a *valid file checksum* so the count
/// bound (not the checksum) is what rejects it. Without that bound the
/// decoder would `Vec::with_capacity` ~64 GiB of section headers from
/// this 60-byte file.
pub fn forged_ckpt_section_count_blob(section_count: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(sfn_ckpt::MAGIC);
    buf.extend_from_slice(&sfn_ckpt::VERSION.to_le_bytes());
    buf.extend_from_slice(&section_count.to_le_bytes());
    // Pad past the decoder's minimum-length floor; the count bound must
    // fire before any of this is interpreted.
    buf.resize(52, 0);
    let checksum = sfn_rng::fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// A structurally valid checkpoint whose META geometry was forged to a
/// different `nx`, with both the section and file checksums recomputed
/// so only the cross-field geometry validation can reject it (fnv1a is
/// not cryptographic — an attacker can always fix up checksums).
pub fn forged_ckpt_geometry_blob() -> Vec<u8> {
    use sfn_grid::{Field2, MacGrid};
    let (nx, ny) = (4usize, 4usize);
    let mut vel = MacGrid::new(nx, ny, 0.25);
    vel.u = Field2::from_vec(nx + 1, ny, vec![1.0; (nx + 1) * ny]);
    vel.v = Field2::from_vec(nx, ny + 1, vec![2.0; nx * (ny + 1)]);
    let density = Field2::from_vec(nx, ny, vec![0.5; nx * ny]);
    let doc = sfn_ckpt::CheckpointDoc {
        step: 7,
        snapshot: sfn_sim::SimSnapshot::from_parts(vel, density, 7, false),
        tracker: sfn_ckpt::TrackerState { series: vec![0.1, 0.2], warmup_steps: 2, skip_per_interval: 1 },
        scheduler: None,
    };
    let mut bytes = sfn_ckpt::encode(&doc).expect("valid checkpoint encodes");
    // META payload sits at 20..44 (magic 0..4, version 4..8, count
    // 8..12, tag 12..16, len 16..20): step u64, nx u32 at 28, ny u32,
    // dx f64. Forge nx, then re-seal both checksums.
    bytes[28..32].copy_from_slice(&9u32.to_le_bytes());
    let section_sum = sfn_rng::fnv1a(&bytes[12..44]);
    bytes[44..52].copy_from_slice(&section_sum.to_le_bytes());
    let body_len = bytes.len() - 8;
    let file_sum = sfn_rng::fnv1a(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&file_sum.to_le_bytes());
    bytes
}

/// A JSON document nested `depth` arrays deep — the stack-overflow
/// shape the parser's depth limit now rejects.
pub fn deep_nesting_doc(depth: usize) -> Vec<u8> {
    let mut doc = Vec::with_capacity(depth * 2);
    doc.resize(depth, b'[');
    doc.resize(depth * 2, b']');
    doc
}

/// The hand-built regression entries per target: one `(name, bytes)`
/// pair for every bug this harness has caught and this repo has fixed.
/// `gen-corpus` writes them and the replay test requires them present.
pub fn regressions(target_name: &str) -> Vec<(&'static str, Vec<u8>)> {
    match target_name {
        // 100k levels ≫ the 128-level limit: deep enough that pre-fix
        // parsers blow the stack, small enough to commit.
        "json" => vec![
            ("regression-depth-bomb", deep_nesting_doc(100_000)),
            ("regression-depth-bomb-objects", {
                let mut doc = b"{\"k\":".repeat(20_000);
                doc.extend_from_slice(b"null");
                doc.extend(std::iter::repeat_n(b'}', 20_000));
                doc
            }),
            // One long unterminated string of 1- to 4-byte characters.
            // A parser that re-validates the rest of the input per
            // character spends seconds here; a linear one, microseconds.
            ("regression-long-string", {
                let mut doc = b"\"".to_vec();
                doc.extend("aé€😀".repeat(16_384).as_bytes());
                doc
            }),
        ],
        "model_io" => vec![
            ("regression-forged-tensor-count", forged_tensor_count_blob(u32::MAX)),
            ("regression-forged-tensor-len", forged_tensor_len_blob(u32::MAX)),
        ],
        "ckpt" => vec![
            ("regression-forged-section-count", forged_ckpt_section_count_blob(u32::MAX)),
            ("regression-forged-geometry", forged_ckpt_geometry_blob()),
        ],
        // The hostile request shapes the metrics listener must keep
        // refusing: smuggled bare-LF line endings, a header flood past
        // MAX_HEADERS, and a head past MAX_REQUEST_BYTES (rejected on
        // length alone, before any parsing).
        "http" => vec![
            ("regression-bare-lf-terminator", b"GET /metrics HTTP/1.1\n\n".to_vec()),
            ("regression-bare-lf-header", b"GET /metrics HTTP/1.1\nHost: a\r\n\r\n".to_vec()),
            ("regression-header-flood", {
                let mut flood = b"GET /metrics HTTP/1.1\r\n".to_vec();
                for i in 0..sfn_metrics::http::MAX_HEADERS + 1 {
                    flood.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
                }
                flood.extend_from_slice(b"\r\n");
                flood
            }),
            ("regression-oversize-head", {
                let mut huge = b"GET /".to_vec();
                huge.resize(sfn_metrics::http::MAX_REQUEST_BYTES + 1, b'a');
                huge
            }),
        ],
        "model_json" => vec![
            // Overflows f32 on the way in; serializing the inf back out
            // would render `null` and break the round-trip.
            ("regression-f32-overflow", b"{\"spec\":{\"layers\":[]},\"weights\":[[1e300]]}".to_vec()),
        ],
        "serve_req" => vec![
            // Duplicate Content-Length headers must not let the second
            // value smuggle a different body length past validation.
            (
                "regression-conflicting-content-length",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 20\r\nContent-Length: 2\r\n\r\n{\"grid\":8,\"steps\":1}".to_vec(),
            ),
            // Declared body far past the cap: refuse from the header
            // alone, never allocate or wait for the bytes.
            (
                "regression-oversize-declared-body",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 999999999\r\n\r\n".to_vec(),
            ),
            // One byte past MAX_TENANT_BYTES.
            (
                "regression-overlong-tenant",
                format!(
                    "POST /simulate HTTP/1.1\r\nX-Tenant: {}\r\nContent-Length: 20\r\n\r\n{{\"grid\":8,\"steps\":1}}",
                    "a".repeat(sfn_serve::api::MAX_TENANT_BYTES + 1)
                )
                .into_bytes(),
            ),
            // Fractional grid size: numeric but not an integer cell count.
            (
                "regression-fractional-grid",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 22\r\n\r\n{\"grid\":8.5,\"steps\":1}".to_vec(),
            ),
            // 2^32 — first seed not exactly representable per the contract.
            (
                "regression-oversize-seed",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 38\r\n\r\n{\"grid\":8,\"steps\":1,\"seed\":4294967296}".to_vec(),
            ),
            // A body of exactly MAX_BODY_BYTES that is one JSON string:
            // parsed in full on a connection thread before the schema
            // refuses it, so the parse must be linear in its length.
            ("regression-body-long-string", {
                let prefix = b"{\"grid\":\"";
                let fill = sfn_httpcore::MAX_BODY_BYTES - prefix.len() - b"\"}".len();
                let mut req = format!(
                    "POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: {}\r\n\r\n",
                    sfn_httpcore::MAX_BODY_BYTES
                )
                .into_bytes();
                req.extend_from_slice(prefix);
                req.resize(req.len() + fill, b'a');
                req.extend_from_slice(b"\"}");
                req
            }),
            // Trailing bytes after the declared body length (request
            // smuggling shape) must be a BodyMismatch, not silently eaten.
            (
                "regression-body-smuggle",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 20\r\n\r\n{\"grid\":8,\"steps\":1}GET /x HTTP/1.1\r\n\r\n".to_vec(),
            ),
        ],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::by_name;

    #[test]
    fn regression_inputs_are_rejected_fast() {
        for target in crate::targets::all() {
            for (name, input) in regressions(target.name) {
                let start = std::time::Instant::now();
                match execute(&target, &input) {
                    Ok(Outcome::Rejected(_)) => {}
                    other => panic!("{}/{name}: expected rejection, got {other:?}", target.name),
                }
                let elapsed = start.elapsed();
                assert!(
                    elapsed.as_millis() < 10,
                    "{}/{name}: rejection took {elapsed:?}",
                    target.name
                );
            }
        }
    }

    #[test]
    fn write_then_load_round_trips_sorted() {
        let root = std::env::temp_dir().join(format!("sfn-fuzz-corpus-{}", std::process::id()));
        let entries = vec![b"bb".to_vec(), b"aa".to_vec()];
        write_entries(&root, "json", "t", &entries).unwrap();
        // Re-writing identical content is a no-op.
        assert_eq!(write_entries(&root, "json", "t", &entries).unwrap(), 0);
        let loaded = load_entries(&root, "json").unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.windows(2).all(|w| w[0].0 <= w[1].0));
        let report = replay(&by_name("json").unwrap(), &loaded);
        assert_eq!(report.total, 2);
        std::fs::remove_dir_all(&root).ok();
    }
}
