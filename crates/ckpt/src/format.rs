//! The `SFNC` checkpoint file format.
//!
//! A checkpoint captures everything the runtime needs to resume a run
//! bit-identically: the simulation snapshot, the `CumDivNorm` series
//! and the scheduler's model/quarantine state. The layout follows the
//! `SFNM` codec discipline (`crates/nn/src/model_io.rs`) — little
//! endian, length-prefixed, checksummed — but adds *per-section*
//! checksums so a torn write can be attributed to the section it
//! destroyed:
//!
//! ```text
//! magic "SFNC" | version u32 | section_count u32
//! | { tag [u8;4] | payload_len u32 | payload | fnv1a(tag|len|payload) u64 }*
//! | fnv1a(everything before) u64
//! ```
//!
//! Sections (`META`, `SNAP`, `CDNT` required, `SCHD` optional) must
//! appear exactly once, in that order. The file checksum is verified
//! *first* on decode, then every section checksum, then the payloads —
//! and every count or length read from the file is bounded by the bytes
//! actually present before it can drive an allocation, so a forged or
//! truncated checkpoint is a fast typed error, never a panic or an
//! OOM. All `f64` payloads travel as raw `to_le_bytes` bit patterns,
//! which is what makes resume bit-identical.

use sfn_grid::{Field2, MacGrid};
use sfn_rng::fnv1a;
use sfn_sim::SimSnapshot;

/// File magic.
pub const MAGIC: &[u8; 4] = b"SFNC";
/// Format version.
pub const VERSION: u32 = 1;

const TAG_META: &[u8; 4] = b"META";
const TAG_SNAP: &[u8; 4] = b"SNAP";
const TAG_CDNT: &[u8; 4] = b"CDNT";
const TAG_SCHD: &[u8; 4] = b"SCHD";

/// Checkpoint encode/decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptError(pub String);

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint error: {}", self.0)
    }
}

impl std::error::Error for CkptError {}

/// The `CumDivNorm` tracker state, as plain data (this crate does not
/// depend on `sfn-runtime`; the runtime converts to/from its own type).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerState {
    /// The cumulative `CumDivNorm` series, verbatim.
    pub series: Vec<f64>,
    /// Warm-up steps before predictions start.
    pub warmup_steps: u32,
    /// Points skipped at the head of each fit window.
    pub skip_per_interval: u32,
}

/// One model's quarantine record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Strikes accumulated.
    pub strikes: u32,
    /// First check interval the model is eligible again.
    pub until_interval: u64,
    /// Permanently ejected.
    pub ejected: bool,
}

/// The scheduler's resumable state: which model is running, the
/// candidate roster it indexes into (for validation on resume), the
/// quarantine table and the rollback tally.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerState {
    /// Index of the running model in accuracy order.
    pub current: u32,
    /// Candidate names in scheduler order; a resume against a runtime
    /// with a different roster must be refused, not misapplied.
    pub model_names: Vec<String>,
    /// Per-candidate quarantine state, same order as `model_names`.
    pub quarantine: Vec<QuarantineEntry>,
    /// Rollbacks performed before the checkpoint.
    pub rollbacks: u64,
}

/// One durable checkpoint: everything needed to resume bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointDoc {
    /// The step the checkpoint was taken at.
    pub step: u64,
    /// The simulation's mutable state.
    pub snapshot: SimSnapshot,
    /// The `CumDivNorm` tracker state.
    pub tracker: TrackerState,
    /// Scheduler state; `None` for bare-simulation checkpoints.
    pub scheduler: Option<SchedulerState>,
}

// ------------------------------------------------------------- encode

fn put_field(buf: &mut Vec<u8>, f: &Field2) {
    buf.extend_from_slice(&(f.w() as u32).to_le_bytes());
    buf.extend_from_slice(&(f.h() as u32).to_le_bytes());
    for &v in f.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_section(buf: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) -> Result<(), CkptError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| CkptError(format!("section {} too large", tag_name(tag))))?;
    let start = buf.len();
    buf.extend_from_slice(tag);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    let checksum = fnv1a(&buf[start..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    Ok(())
}

fn tag_name(tag: &[u8; 4]) -> String {
    String::from_utf8_lossy(tag).into_owned()
}

/// Encodes a checkpoint to the `SFNC` binary format.
pub fn encode(doc: &CheckpointDoc) -> Result<Vec<u8>, CkptError> {
    let snap = &doc.snapshot;
    let vel = snap.vel();
    let (nx, ny) = (vel.nx(), vel.ny());

    let mut meta = Vec::with_capacity(8 + 4 + 4 + 8);
    meta.extend_from_slice(&doc.step.to_le_bytes());
    meta.extend_from_slice(&(nx as u32).to_le_bytes());
    meta.extend_from_slice(&(ny as u32).to_le_bytes());
    meta.extend_from_slice(&vel.dx().to_le_bytes());

    let mut body = Vec::new();
    body.extend_from_slice(&(snap.steps_done() as u64).to_le_bytes());
    body.push(snap.blowup_reported() as u8);
    put_field(&mut body, &vel.u);
    put_field(&mut body, &vel.v);
    put_field(&mut body, snap.density());

    let mut cdnt = Vec::with_capacity(12 + 8 * doc.tracker.series.len());
    cdnt.extend_from_slice(&doc.tracker.warmup_steps.to_le_bytes());
    cdnt.extend_from_slice(&doc.tracker.skip_per_interval.to_le_bytes());
    let series_len = u32::try_from(doc.tracker.series.len())
        .map_err(|_| CkptError("tracker series too long".into()))?;
    cdnt.extend_from_slice(&series_len.to_le_bytes());
    for &v in &doc.tracker.series {
        cdnt.extend_from_slice(&v.to_le_bytes());
    }

    let section_count = 3 + doc.scheduler.is_some() as u32;
    let mut buf = Vec::with_capacity(12 + meta.len() + body.len() + cdnt.len() + 3 * 16 + 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&section_count.to_le_bytes());
    put_section(&mut buf, TAG_META, &meta)?;
    put_section(&mut buf, TAG_SNAP, &body)?;
    put_section(&mut buf, TAG_CDNT, &cdnt)?;

    if let Some(sched) = &doc.scheduler {
        if sched.model_names.len() != sched.quarantine.len() {
            return Err(CkptError(format!(
                "scheduler state inconsistent: {} names, {} quarantine entries",
                sched.model_names.len(),
                sched.quarantine.len()
            )));
        }
        let mut s = Vec::new();
        s.extend_from_slice(&sched.current.to_le_bytes());
        s.extend_from_slice(&sched.rollbacks.to_le_bytes());
        let n = u32::try_from(sched.model_names.len())
            .map_err(|_| CkptError("too many candidates".into()))?;
        s.extend_from_slice(&n.to_le_bytes());
        for name in &sched.model_names {
            let len = u32::try_from(name.len())
                .map_err(|_| CkptError("candidate name too long".into()))?;
            s.extend_from_slice(&len.to_le_bytes());
            s.extend_from_slice(name.as_bytes());
        }
        for q in &sched.quarantine {
            s.extend_from_slice(&q.strikes.to_le_bytes());
            s.extend_from_slice(&q.until_interval.to_le_bytes());
            s.push(q.ejected as u8);
        }
        put_section(&mut buf, TAG_SCHD, &s)?;
    }

    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    Ok(buf)
}

// ------------------------------------------------------------- decode

/// Little-endian cursor; every read checks bounds so truncated or
/// forged input surfaces as an error instead of a panic.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CkptError> {
        if self.data.len() < n {
            return Err(CkptError(format!("truncated {what}")));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CkptError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32_le(&mut self, what: &str) -> Result<u32, CkptError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64_le(&mut self, what: &str) -> Result<u64, CkptError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64_le(&mut self, what: &str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64_le(what)?))
    }

    /// Reads `count` little-endian f64s, bounding the allocation by the
    /// bytes actually present *before* reserving anything.
    fn f64_vec(&mut self, count: usize, what: &str) -> Result<Vec<f64>, CkptError> {
        let byte_len = count.checked_mul(8).filter(|&b| b <= self.data.len()).ok_or_else(|| {
            CkptError(format!(
                "{what} length {count} impossible for {} remaining bytes",
                self.data.len()
            ))
        })?;
        let raw = self.take(byte_len, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }
}

fn read_field(r: &mut Reader<'_>, what: &str, expect: (usize, usize)) -> Result<Field2, CkptError> {
    let w = r.u32_le(&format!("{what} width"))? as usize;
    let h = r.u32_le(&format!("{what} height"))? as usize;
    if (w, h) != expect {
        return Err(CkptError(format!(
            "{what} is {w}x{h}, META geometry requires {}x{}",
            expect.0, expect.1
        )));
    }
    let len = w.checked_mul(h).ok_or_else(|| CkptError(format!("{what} dims overflow")))?;
    let data = r.f64_vec(len, what)?;
    Ok(Field2::from_vec(w, h, data))
}

struct Section<'a> {
    tag: [u8; 4],
    payload: &'a [u8],
}

/// Splits the (already file-checksummed) body into sections, verifying
/// each section checksum and the expected tag order.
fn read_sections<'a>(body: &'a [u8]) -> Result<Vec<Section<'a>>, CkptError> {
    let mut r = Reader { data: body };
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(CkptError("bad magic".into()));
    }
    let version = r.u32_le("version")?;
    if version != VERSION {
        return Err(CkptError(format!("unsupported version {version}")));
    }
    let count = r.u32_le("section count")? as usize;
    // Every section costs at least tag(4) + len(4) + checksum(8) bytes,
    // so `count` is bounded by the bytes present — checked before the
    // Vec::with_capacity below can amplify a forged header.
    if count > r.data.len() / 16 {
        return Err(CkptError(format!(
            "section count {count} impossible for {} remaining bytes",
            r.data.len()
        )));
    }
    let mut sections = Vec::with_capacity(count);
    for s in 0..count {
        let start = r.data;
        let tag: [u8; 4] = r.take(4, &format!("section {s} tag"))?.try_into().expect("4 bytes");
        let len = r.u32_le(&format!("section {s} length"))? as usize;
        let payload = r.take(len, &format!("section {} payload", tag_name(&tag)))?;
        let stored = r.u64_le(&format!("section {} checksum", tag_name(&tag)))?;
        let covered = &start[..4 + 4 + len];
        if fnv1a(covered) != stored {
            return Err(CkptError(format!("section {} checksum mismatch", tag_name(&tag))));
        }
        sections.push(Section { tag, payload });
    }
    if !r.data.is_empty() {
        return Err(CkptError("trailing bytes".into()));
    }
    Ok(sections)
}

/// Decodes an `SFNC` checkpoint, verifying the file checksum, every
/// section checksum and all geometry invariants.
pub fn decode(data: &[u8]) -> Result<CheckpointDoc, CkptError> {
    // magic + version + count + (META tag+len+payload+sum) floor + file checksum
    if data.len() < 4 + 4 + 4 + (4 + 4 + 24 + 8) + 8 {
        return Err(CkptError("truncated header".into()));
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(CkptError("file checksum mismatch".into()));
    }
    let sections = read_sections(body)?;
    let expected: &[&[u8; 4]] = if sections.len() == 4 {
        &[TAG_META, TAG_SNAP, TAG_CDNT, TAG_SCHD]
    } else if sections.len() == 3 {
        &[TAG_META, TAG_SNAP, TAG_CDNT]
    } else {
        return Err(CkptError(format!("expected 3 or 4 sections, found {}", sections.len())));
    };
    for (s, want) in sections.iter().zip(expected) {
        if &s.tag != *want {
            return Err(CkptError(format!(
                "unexpected section {} where {} was required",
                tag_name(&s.tag),
                tag_name(want)
            )));
        }
    }

    // META: step, geometry.
    let mut r = Reader { data: sections[0].payload };
    let step = r.u64_le("step")?;
    let nx = r.u32_le("nx")? as usize;
    let ny = r.u32_le("ny")? as usize;
    let dx = r.f64_le("dx")?;
    if !r.data.is_empty() {
        return Err(CkptError("trailing META bytes".into()));
    }
    if nx == 0 || ny == 0 || !(dx.is_finite() && dx > 0.0) {
        return Err(CkptError(format!("degenerate geometry {nx}x{ny}, dx {dx}")));
    }

    // SNAP: steps_done, blow-up flag, u/v/density fields.
    let mut r = Reader { data: sections[1].payload };
    let steps_done = r.u64_le("steps_done")?;
    let blowup = match r.u8("blowup flag")? {
        0 => false,
        1 => true,
        other => return Err(CkptError(format!("blowup flag {other} not a bool"))),
    };
    let u = read_field(&mut r, "u field", (nx + 1, ny))?;
    let v = read_field(&mut r, "v field", (nx, ny + 1))?;
    let density = read_field(&mut r, "density field", (nx, ny))?;
    if !r.data.is_empty() {
        return Err(CkptError("trailing SNAP bytes".into()));
    }
    let mut vel = MacGrid::new(nx, ny, dx);
    vel.u = u;
    vel.v = v;
    let steps_done = usize::try_from(steps_done)
        .map_err(|_| CkptError("steps_done exceeds usize".into()))?;
    let snapshot = SimSnapshot::from_parts(vel, density, steps_done, blowup);

    // CDNT: tracker params + cumulative series.
    let mut r = Reader { data: sections[2].payload };
    let warmup_steps = r.u32_le("warmup")?;
    let skip_per_interval = r.u32_le("skip")?;
    let series_len = r.u32_le("series length")? as usize;
    let series = r.f64_vec(series_len, "series")?;
    if !r.data.is_empty() {
        return Err(CkptError("trailing CDNT bytes".into()));
    }
    let tracker = TrackerState { series, warmup_steps, skip_per_interval };

    // SCHD (optional): current model, roster, quarantine, rollbacks.
    let scheduler = if sections.len() == 4 {
        let mut r = Reader { data: sections[3].payload };
        let current = r.u32_le("current model")?;
        let rollbacks = r.u64_le("rollbacks")?;
        let n = r.u32_le("candidate count")? as usize;
        // Each candidate costs ≥ 4 (name length) + 13 (quarantine)
        // bytes; bound the count by what the name-length words alone
        // require before allocating.
        if n > r.data.len() / 4 {
            return Err(CkptError(format!(
                "candidate count {n} impossible for {} remaining bytes",
                r.data.len()
            )));
        }
        let mut model_names = Vec::with_capacity(n);
        for i in 0..n {
            let len = r.u32_le(&format!("name {i} length"))? as usize;
            if len > r.data.len() {
                return Err(CkptError(format!(
                    "name {i} length {len} impossible for {} remaining bytes",
                    r.data.len()
                )));
            }
            let raw = r.take(len, &format!("name {i}"))?;
            let name = std::str::from_utf8(raw)
                .map_err(|e| CkptError(format!("name {i} not utf-8: {e}")))?;
            model_names.push(name.to_string());
        }
        let mut quarantine = Vec::with_capacity(n);
        for i in 0..n {
            let strikes = r.u32_le(&format!("quarantine {i} strikes"))?;
            let until_interval = r.u64_le(&format!("quarantine {i} deadline"))?;
            let ejected = match r.u8(&format!("quarantine {i} ejected flag"))? {
                0 => false,
                1 => true,
                other => {
                    return Err(CkptError(format!("ejected flag {other} not a bool")))
                }
            };
            quarantine.push(QuarantineEntry { strikes, until_interval, ejected });
        }
        if !r.data.is_empty() {
            return Err(CkptError("trailing SCHD bytes".into()));
        }
        if (current as usize) >= n {
            return Err(CkptError(format!("current model {current} out of range {n}")));
        }
        Some(SchedulerState { current, model_names, quarantine, rollbacks })
    } else {
        None
    };

    Ok(CheckpointDoc { step, snapshot, tracker, scheduler })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sample_doc;

    #[test]
    fn round_trip_is_bit_identical() {
        let doc = sample_doc(12, 7);
        let bytes = encode(&doc).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, doc);
        // Re-encoding the decoded doc reproduces the exact bytes — the
        // fixed-point oracle the fuzz target leans on.
        assert_eq!(encode(&back).unwrap(), bytes);
    }

    #[test]
    fn round_trip_without_scheduler_section() {
        let mut doc = sample_doc(8, 3);
        doc.scheduler = None;
        let bytes = encode(&doc).unwrap();
        assert_eq!(decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn non_finite_payloads_survive_verbatim() {
        // A checkpoint may legitimately capture a mid-incident state
        // (NaN velocity before the sanitizer ran); bit patterns must
        // survive so post-mortems see the real state.
        let mut doc = sample_doc(8, 2);
        doc.tracker.series = vec![f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE];
        let back = decode(&encode(&doc).unwrap()).unwrap();
        let bits =
            |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&back.tracker.series), bits(&doc.tracker.series));
    }

    #[test]
    fn golden_header_layout_is_stable() {
        // Pins the prefix bytes so checkpoints written by earlier builds
        // stay loadable: magic, version, section count, first tag.
        let doc = sample_doc(8, 1);
        let bytes = encode(&doc).unwrap();
        assert_eq!(&bytes[0..4], b"SFNC");
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), VERSION);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 4);
        assert_eq!(&bytes[12..16], b"META");
        assert_eq!(u32::from_le_bytes(bytes[16..20].try_into().unwrap()), 24);
        // META payload starts with the step.
        assert_eq!(u64::from_le_bytes(bytes[20..28].try_into().unwrap()), 1);
        // And the trailer is the fnv1a of everything before it.
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        assert_eq!(u64::from_le_bytes(tail.try_into().unwrap()), fnv1a(body));
    }

    #[test]
    fn detects_single_bit_flips() {
        let bytes = encode(&sample_doc(8, 3)).unwrap();
        // Flip one bit at a spread of positions: header, section
        // payloads, checksums.
        for pos in [0, 9, 13, 40, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(decode(&bad).is_err(), "bit flip at {pos} accepted");
        }
    }

    #[test]
    fn truncation_sweep_never_panics() {
        let bytes = encode(&sample_doc(8, 3)).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    /// Rebuilds a file with forged interior fields and *recomputed*
    /// checksums — fnv1a is not cryptographic, so an attacker (or the
    /// fuzzer) can always make the checksums pass; the structural
    /// bounds must reject the forgery on their own.
    fn reforge(bytes: &[u8], patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut b = bytes[..bytes.len() - 8].to_vec();
        patch(&mut b);
        let checksum = fnv1a(&b);
        b.extend_from_slice(&checksum.to_le_bytes());
        b
    }

    #[test]
    fn forged_section_count_fails_fast() {
        let bytes = encode(&sample_doc(8, 2)).unwrap();
        let forged = reforge(&bytes, |b| b[8..12].copy_from_slice(&u32::MAX.to_le_bytes()));
        let start = std::time::Instant::now();
        let err = decode(&forged).unwrap_err();
        assert!(err.0.contains("section count"), "{err}");
        assert!(start.elapsed() < std::time::Duration::from_millis(10));
    }

    #[test]
    fn forged_series_length_fails_fast_without_preallocation() {
        let doc = sample_doc(8, 2);
        let bytes = encode(&doc).unwrap();
        // Find the CDNT series-length word: tag position + 8 (warmup,
        // skip) + 4 (len header offset inside payload).
        let tag_at = bytes.windows(4).position(|w| w == b"CDNT").unwrap();
        let len_at = tag_at + 4 + 4 + 8;
        let forged = reforge(&bytes, |b| {
            b[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let start = std::time::Instant::now();
        let err = decode(&forged).unwrap_err();
        // The forged length breaks either the series bound or, because
        // the payload length no longer matches, the section structure.
        assert!(!err.0.is_empty());
        assert!(start.elapsed() < std::time::Duration::from_millis(10));
    }

    #[test]
    fn mismatched_field_geometry_is_rejected() {
        let doc = sample_doc(8, 2);
        let bytes = encode(&doc).unwrap();
        // Forge META's nx from 8 to 7 — and recompute the section
        // checksum too, so only the geometry bound can catch it. META
        // spans tag(12..16) len(16..20) payload(20..44) checksum(44..52).
        let forged = reforge(&bytes, |b| {
            let nx_at = 12 + 8 + 8;
            b[nx_at..nx_at + 4].copy_from_slice(&7u32.to_le_bytes());
            let section_sum = fnv1a(&b[12..44]);
            b[44..52].copy_from_slice(&section_sum.to_le_bytes());
        });
        let err = decode(&forged).unwrap_err();
        assert!(err.0.contains("META geometry"), "{err}");
    }

    #[test]
    fn out_of_range_current_model_is_rejected() {
        let mut doc = sample_doc(8, 2);
        doc.scheduler.as_mut().unwrap().current = 3;
        // encode() doesn't validate `current`; decode must.
        let bytes = encode(&doc).unwrap();
        let err = decode(&bytes).unwrap_err();
        assert!(err.0.contains("out of range"), "{err}");
    }

    #[test]
    fn empty_and_tiny_inputs_are_typed_errors() {
        for input in [&[][..], b"SFNC", &[0u8; 24][..]] {
            assert!(decode(input).is_err());
        }
    }
}
