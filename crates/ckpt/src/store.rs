//! The crash-consistent checkpoint store.
//!
//! Durability protocol, per checkpoint:
//!
//! 1. encode to memory, write to a *temp* file in the checkpoint
//!    directory (`.ckpt-<step>.sfnc.tmp`);
//! 2. `fsync` the temp file — the bytes are on disk, invisibly;
//! 3. atomically `rename` it to its final name `ckpt-<step>.sfnc` —
//!    readers see either the old directory state or the complete file,
//!    never a prefix;
//! 4. `fsync` the directory so the rename itself survives power loss;
//! 5. append the lineage record to `manifest.jsonl` and garbage-collect
//!    down to the last `keep` checkpoints.
//!
//! A crash at any point leaves at worst a stale temp file, which
//! recovery ignores and sweeps. The manifest is *advisory* — a lineage
//! journal for humans and tooling; recovery trusts only the checksummed
//! files themselves. Named `sfn-faults` crash points
//! (`ckpt/mid_temp_write`, `ckpt/pre_rename`, `ckpt/post_rename`) sit
//! between the protocol stages so the kill-9 harness can SIGKILL the
//! process at each one and prove the invariants hold.

use crate::format::{encode, CheckpointDoc};
use sfn_obs::Level;
use sfn_rng::fnv1a;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Checkpoints retained after garbage collection, by default.
pub const DEFAULT_KEEP: usize = 3;

/// A directory of durable checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

/// Parses a final checkpoint file name (`ckpt-<step>.sfnc`) to its step.
fn parse_step(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".sfnc")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The final on-disk name for a checkpoint at `step`.
pub(crate) fn file_name(step: u64) -> String {
    format!("ckpt-{step:08}.sfnc")
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory with the
    /// default retention.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, keep: DEFAULT_KEEP })
    }

    /// Sets the retain-last-K count (clamped to at least 1).
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Final checkpoints present, as `(step, path)` sorted by ascending
    /// step. Temp files and foreign names are ignored.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(step) = name.to_str().and_then(parse_step) {
                out.push((step, entry.path()));
            }
        }
        out.sort_by_key(|&(step, _)| step);
        Ok(out)
    }

    /// Durably writes one checkpoint and garbage-collects old ones.
    /// Returns the final path.
    pub fn write(&self, doc: &CheckpointDoc) -> io::Result<PathBuf> {
        let t0 = std::time::Instant::now();
        let bytes = encode(doc).map_err(io::Error::other)?;
        let step = doc.step;
        let final_path = self.dir.join(file_name(step));
        let tmp_path = self.dir.join(format!(".ckpt-{step:08}.sfnc.tmp"));

        {
            let mut f = File::create(&tmp_path)?;
            // Split the write so the mid-write crash point really does
            // leave a torn temp file behind for recovery to sweep.
            let half = bytes.len() / 2;
            f.write_all(&bytes[..half])?;
            sfn_faults::crash_point("ckpt/mid_temp_write", step);
            f.write_all(&bytes[half..])?;
            f.sync_all()?;
        }
        sfn_faults::crash_point("ckpt/pre_rename", step);
        fs::rename(&tmp_path, &final_path)?;
        // The rename is only durable once the directory entry is: fsync
        // the directory too (a no-op error on filesystems that refuse
        // directory fsync is not worth failing the run over).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        sfn_faults::crash_point("ckpt/post_rename", step);

        self.append_manifest(step, bytes.len(), fnv1a(&bytes));
        let removed = self.gc()?;

        sfn_obs::counter_add("ckpt.writes", 1);
        sfn_obs::event(Level::Info, "ckpt.write")
            .field_u64("step", step)
            .field_u64("bytes", bytes.len() as u64)
            .field_u64("gc_removed", removed as u64)
            .field_f64("secs", t0.elapsed().as_secs_f64())
            .field_str("path", &final_path.display().to_string())
            .emit();
        Ok(final_path)
    }

    /// Appends the lineage record. Advisory only: failures are logged,
    /// never fatal — recovery reads the files, not the manifest.
    fn append_manifest(&self, step: u64, bytes: usize, checksum: u64) {
        use sfn_obs::json::{obj, to_json_string, ToJson};
        let line = to_json_string(&obj([
            ("schema", "sfn-ckpt/manifest@1".to_json_value()),
            ("step", step.to_json_value()),
            ("file", file_name(step).to_json_value()),
            ("bytes", bytes.to_json_value()),
            ("checksum", format!("{checksum:016x}").to_json_value()),
        ]));
        let res = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("manifest.jsonl"))
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = res {
            sfn_obs::event(Level::Warn, "ckpt.manifest_write_failed")
                .field_u64("step", step)
                .field_str("error", &e.to_string())
                .emit();
        }
    }

    /// Deletes all but the newest `keep` final checkpoints, plus any
    /// stale temp files from crashed earlier writes. Returns how many
    /// files were removed.
    fn gc(&self) -> io::Result<usize> {
        let mut removed = 0usize;
        let finals = self.list()?;
        if finals.len() > self.keep {
            for (_, path) in &finals[..finals.len() - self.keep] {
                if fs::remove_file(path).is_ok() {
                    removed += 1;
                }
            }
        }
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let is_stale_tmp = name
                .to_str()
                .is_some_and(|n| n.starts_with(".ckpt-") && n.ends_with(".tmp"));
            if is_stale_tmp && fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::decode;
    use crate::testutil::sample_doc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sfn-ckpt-store")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_read_back_is_bit_identical() {
        let dir = temp_dir("rt");
        let store = CheckpointStore::open(&dir).unwrap();
        let doc = sample_doc(8, 5);
        let path = store.write(&doc).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "ckpt-00000005.sfnc");
        let back = decode(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(back, doc);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_retains_last_k_and_sweeps_temp_files() {
        let dir = temp_dir("gc");
        let store = CheckpointStore::open(&dir).unwrap().with_keep(2);
        // A stale temp file from a "crashed" earlier run.
        fs::write(dir.join(".ckpt-00000001.sfnc.tmp"), b"torn").unwrap();
        for step in 1..=5u64 {
            let mut doc = sample_doc(8, 2);
            doc.step = step;
            store.write(&doc).unwrap();
        }
        let steps: Vec<u64> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(steps, vec![4, 5]);
        assert!(
            !dir.join(".ckpt-00000001.sfnc.tmp").exists(),
            "stale temp file must be swept"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_records_lineage() {
        let dir = temp_dir("manifest");
        let store = CheckpointStore::open(&dir).unwrap();
        for step in [3u64, 6] {
            let mut doc = sample_doc(8, 2);
            doc.step = step;
            store.write(&doc).unwrap();
        }
        let manifest = fs::read_to_string(dir.join("manifest.jsonl")).unwrap();
        let lines: Vec<&str> = manifest.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, step) in lines.iter().zip([3u64, 6]) {
            let v = sfn_obs::json::parse(line).unwrap();
            assert_eq!(
                v.get("schema").and_then(|s| s.as_str()),
                Some("sfn-ckpt/manifest@1")
            );
            assert_eq!(v.get("step").and_then(|s| s.as_f64()), Some(step as f64));
            assert_eq!(
                v.get("file").and_then(|s| s.as_str()),
                Some(file_name(step).as_str())
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_ignores_foreign_and_temp_files() {
        let dir = temp_dir("list");
        let store = CheckpointStore::open(&dir).unwrap();
        fs::write(dir.join("ckpt-0000000a.sfnc"), b"hex is not a step").unwrap();
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        fs::write(dir.join(".ckpt-00000009.sfnc.tmp"), b"torn").unwrap();
        fs::write(dir.join("ckpt-.sfnc"), b"empty step").unwrap();
        let mut doc = sample_doc(8, 1);
        doc.step = 9;
        store.write(&doc).unwrap();
        let steps: Vec<u64> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(steps, vec![9]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_step_is_strict() {
        assert_eq!(parse_step("ckpt-00000012.sfnc"), Some(12));
        assert_eq!(parse_step("ckpt-0.sfnc"), Some(0));
        for bad in ["ckpt-.sfnc", "ckpt-12.tmp", "ckpt-1x.sfnc", "kpt-12.sfnc", "ckpt-12.sfnc.tmp"] {
            assert_eq!(parse_step(bad), None, "{bad}");
        }
    }
}
