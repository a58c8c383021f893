//! The compact binary run-log: every raw campaign run, on disk, in a
//! self-describing append-only format — the artifact that makes
//! warehouse-scale campaigns auditable and re-aggregatable without
//! re-simulating anything.
//!
//! Layout (all little-endian, via [`tm_campaign::codec`], zero external
//! dependencies):
//!
//! ```text
//! magic "TMRLOG01"
//! header: scenario, description, base_seed, seeds, confidence,
//!         shard index/count, axes (name + values each)
//! records: repeated [u64 length][payload]
//! payload: k (global run index), seed, status tag (0 = ok, 1 = failed),
//!          then metrics (name + f64 bits each) or the failure cause
//! ```
//!
//! The header carries the **axes**, not just the scenario name, so a
//! replay ([`merge`] + [`tm_campaign::aggregate_stream`]) reconstructs
//! the grid with [`tm_campaign::grid_of`] — no scenario registry, and no
//! run functions, anywhere in the loop. Floats are stored as IEEE-754
//! bit patterns, so a replayed report renders **byte-identically** to
//! the live campaign that wrote the log.
//!
//! Records are length-prefixed and appended one `write` per run by the
//! [`Writer`] sink, so a killed campaign leaves a log whose complete
//! prefix-of-records is intact; [`read`] stops cleanly at a damaged tail
//! and flags it, and [`resume`] hands the runner the complete cells of
//! that prefix, so the log is the only state `--resume` needs. Shard logs
//! [`merge`] by global run index; duplicate or incomplete coverage is an
//! error naming the offending cell, never a silently wrong aggregate.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use tm_campaign::codec::{put_f64, put_str, put_u32, put_u64, Cursor};
use tm_campaign::{
    aggregate_stream, grid_of, Axis, CampaignMeta, CampaignSpec, GridPoint, Metrics, Resume,
    RunRecord, RunSink, RunStatus, Scenario, Shard,
};

/// File magic + format version. Bump on any layout change.
const MAGIC: &[u8; 8] = b"TMRLOG01";

/// The self-describing run-log header: enough to re-aggregate the
/// records without the scenario registry.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLogHeader {
    /// The campaign that wrote the log, and the shard that wrote it.
    pub meta: CampaignMeta,
    /// The scenario's parameter axes — the grid, reconstructible via
    /// [`tm_campaign::grid_of`].
    pub axes: Vec<Axis>,
}

impl RunLogHeader {
    /// The header for a spec over the given scenario.
    pub fn for_spec(scenario: &Scenario, spec: &CampaignSpec) -> RunLogHeader {
        RunLogHeader {
            meta: CampaignMeta::for_spec(scenario, spec),
            axes: scenario.axes.clone(),
        }
    }

    /// The canonical grid described by the stored axes.
    pub fn grid(&self) -> Vec<GridPoint> {
        grid_of(&self.axes)
    }

    /// Whether two headers describe the same campaign, shard aside —
    /// the mergeability test. Confidence is compared bit-exactly.
    pub fn same_campaign(&self, other: &RunLogHeader) -> bool {
        self.differences(other).is_empty()
    }

    /// The campaign fields, shard aside, on which two headers disagree.
    fn differences(&self, other: &RunLogHeader) -> Vec<&'static str> {
        let (a, b) = (&self.meta, &other.meta);
        [
            ("scenario", a.scenario != b.scenario),
            ("description", a.description != b.description),
            ("base seed", a.base_seed != b.base_seed),
            ("seed count", a.seeds != b.seeds),
            (
                "confidence",
                a.confidence.to_bits() != b.confidence.to_bits(),
            ),
            ("axes", self.axes != other.axes),
        ]
        .into_iter()
        .filter_map(|(field, differs)| differs.then_some(field))
        .collect()
    }

    fn encode(&self) -> Vec<u8> {
        let meta = &self.meta;
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_str(&mut buf, &meta.scenario);
        put_str(&mut buf, &meta.description);
        put_u64(&mut buf, meta.base_seed);
        put_u64(&mut buf, meta.seeds as u64);
        put_f64(&mut buf, meta.confidence);
        put_u32(&mut buf, meta.shard.index);
        put_u32(&mut buf, meta.shard.count);
        put_u32(&mut buf, self.axes.len() as u32);
        for axis in &self.axes {
            put_str(&mut buf, &axis.name);
            put_u32(&mut buf, axis.values.len() as u32);
            for value in &axis.values {
                put_str(&mut buf, value);
            }
        }
        buf
    }

    fn decode(cursor: &mut Cursor<'_>) -> Option<RunLogHeader> {
        if cursor.bytes(MAGIC.len())? != MAGIC {
            return None;
        }
        let meta = CampaignMeta {
            scenario: cursor.str()?,
            description: cursor.str()?,
            base_seed: cursor.u64()?,
            seeds: cursor.len()?,
            confidence: cursor.f64()?,
            shard: Shard {
                index: cursor.u32()?,
                count: cursor.u32()?,
            },
        };
        let n_axes = cursor.u32()?;
        let mut axes = Vec::with_capacity(n_axes as usize);
        for _ in 0..n_axes {
            let name = cursor.str()?;
            let n_values = cursor.u32()?;
            let mut values = Vec::with_capacity(n_values as usize);
            for _ in 0..n_values {
                values.push(cursor.str()?);
            }
            axes.push(Axis { name, values });
        }
        Some(RunLogHeader { meta, axes })
    }
}

/// Encodes one run as a length-prefixed record.
pub fn encode_record(seeds: usize, record: &RunRecord) -> Vec<u8> {
    let mut body = Vec::new();
    let k = record.cell * seeds + record.seed_index;
    put_u64(&mut body, k as u64);
    put_u64(&mut body, record.seed);
    match &record.status {
        RunStatus::Ok(metrics) => {
            body.push(0);
            put_u32(&mut body, metrics.entries().len() as u32);
            for (name, value) in metrics.entries() {
                put_str(&mut body, name);
                put_f64(&mut body, *value);
            }
        }
        RunStatus::Failed(cause) => {
            body.push(1);
            put_str(&mut body, cause);
        }
    }
    let mut buf = Vec::new();
    put_u64(&mut buf, body.len() as u64);
    buf.extend_from_slice(&body);
    buf
}

fn decode_record(cursor: &mut Cursor<'_>, seeds: usize) -> Option<RunRecord> {
    let len = cursor.len()?;
    let body = cursor.bytes(len)?;
    let mut body = Cursor::new(body);
    let k = body.len()?;
    let seed = body.u64()?;
    let tag = *body.bytes(1)?.first()?;
    let status = match tag {
        0 => {
            let n = body.u32()?;
            let mut metrics = Metrics::new();
            for _ in 0..n {
                let name = body.str()?;
                let value = body.f64()?;
                metrics.push(&name, value);
            }
            RunStatus::Ok(metrics)
        }
        1 => RunStatus::Failed(body.str()?),
        _ => return None,
    };
    if !body.is_empty() || seeds == 0 {
        return None;
    }
    Some(RunRecord {
        cell: k / seeds,
        seed_index: k % seeds,
        seed,
        status,
    })
}

/// A run-log read back from disk.
#[derive(Clone, Debug)]
pub struct RunLog {
    /// The header the file carried.
    pub header: RunLogHeader,
    /// The complete records, in file order.
    pub records: Vec<RunRecord>,
    /// Whether a damaged tail was dropped (partial final write).
    pub truncated: bool,
}

/// Reads a run-log, tolerating a damaged record tail (the records before
/// it are returned, `truncated` set). A missing file or unreadable
/// header is an error — a log you explicitly name must exist.
pub fn read(path: &Path) -> Result<RunLog, String> {
    let data = fs::read(path).map_err(|e| format!("run-log {}: {e}", path.display()))?;
    let mut cursor = Cursor::new(&data);
    let header = RunLogHeader::decode(&mut cursor)
        .ok_or_else(|| format!("run-log {}: not a TMRLOG01 file", path.display()))?;
    let mut records = Vec::new();
    let mut truncated = false;
    while !cursor.is_empty() {
        match decode_record(&mut cursor, header.meta.seeds) {
            Some(record) => records.push(record),
            None => {
                truncated = true;
                break;
            }
        }
    }
    Ok(RunLog {
        header,
        records,
        truncated,
    })
}

/// The cells for which `log` holds a complete, consistent run set:
/// exactly one record per seed index. Returned as cell → seed-ordered
/// records. Cells with missing or duplicate records are excluded — the
/// resume path re-runs them rather than trusting ambiguous state.
pub fn complete_cells(log: &RunLog) -> BTreeMap<usize, Vec<RunRecord>> {
    let mut by_cell: BTreeMap<usize, BTreeMap<usize, RunRecord>> = BTreeMap::new();
    let mut poisoned: Vec<usize> = Vec::new();
    for record in &log.records {
        let cell = by_cell.entry(record.cell).or_default();
        if cell.insert(record.seed_index, record.clone()).is_some() {
            poisoned.push(record.cell);
        }
    }
    by_cell
        .into_iter()
        .filter(|(cell, seeds)| {
            !poisoned.contains(cell)
                && seeds.len() == log.header.meta.seeds
                && seeds.keys().copied().eq(0..log.header.meta.seeds)
        })
        .map(|(cell, seeds)| (cell, seeds.into_values().collect()))
        .collect()
}

/// The finished cells of a shard's run-log — the `--resume` rule, and
/// the only campaign state kept on disk.
///
/// * A missing file, or one whose header cannot be read, is a clean
///   start: nothing resumed, nothing kept.
/// * A log written for a different campaign (another base seed, seed
///   count, confidence, scenario or axes) or by another shard is an
///   `Err` naming the mismatch; the caller must not touch the file.
/// * Otherwise the records of every [`complete_cells`] entry are
///   returned in canonical order, once [`aggregate_stream`] has checked
///   them (each record's derived seed among them), so a damaged log
///   fails before [`Writer::create`] replaces the file. The same records
///   are what the writer carries over and what the runner folds in place
///   of re-running those cells.
pub fn resume(path: &Path, header: &RunLogHeader) -> Result<Resume, String> {
    let Ok(log) = read(path) else {
        return Ok(Resume::none());
    };
    let (have, want) = (&log.header.meta, &header.meta);
    let mut differs = log.header.differences(header);
    if have.shard != want.shard {
        differs.push("shard");
    }
    if !differs.is_empty() {
        return Err(format!(
            "run-log {} was written with a different {} (it holds `{}`, base seed {:#x}, \
             {} seeds, shard {}) — delete it or fix the flags",
            path.display(),
            differs.join(", "),
            have.scenario,
            have.base_seed,
            have.seeds,
            have.shard.label(),
        ));
    }
    let records: Vec<RunRecord> = complete_cells(&log).into_values().flatten().collect();
    aggregate_stream(want, &header.grid(), records.iter().cloned())
        .map_err(|e| format!("run-log {}: {e}", path.display()))?;
    Ok(Resume { records })
}

/// Merges shard logs into one canonical stream.
///
/// All headers must describe the same campaign (shard aside). The merged
/// records are sorted by global run index; a duplicate run or a cell
/// with incomplete coverage is an error naming it. The returned header
/// carries `Shard::full()` when the merge covers the whole grid (the
/// merged stream *is* the unsharded campaign); a partial replay keeps
/// the first log's shard label. The logs are consumed: their records move
/// into the stream, so no record is held twice.
pub fn merge(logs: Vec<RunLog>) -> Result<(RunLogHeader, Vec<RunRecord>), String> {
    let first = logs
        .first()
        .ok_or_else(|| "no run-logs to merge".to_string())?;
    for log in logs.iter().skip(1) {
        if !first.header.same_campaign(&log.header) {
            let (a, b) = (&first.header.meta, &log.header.meta);
            return Err(format!(
                "run-logs disagree: `{}` (base seed {:#x}, {} seeds) vs `{}` (base seed {:#x}, {} seeds)",
                a.scenario, a.base_seed, a.seeds, b.scenario, b.base_seed, b.seeds,
            ));
        }
    }
    let mut header = first.header.clone();
    let seeds = header.meta.seeds;
    if seeds == 0 {
        return Err("run-log header has zero seeds per cell".to_string());
    }
    let mut by_k: BTreeMap<usize, RunRecord> = BTreeMap::new();
    // Runs per covered cell, counted as they are merged.
    let mut covered: BTreeMap<usize, usize> = BTreeMap::new();
    for log in logs {
        for record in log.records {
            let k = record.cell * seeds + record.seed_index;
            if let Some(dup) = by_k.insert(k, record) {
                return Err(format!(
                    "duplicate run for cell {} seed-index {} across the merged logs",
                    dup.cell, dup.seed_index
                ));
            }
            *covered.entry(k / seeds).or_default() += 1;
        }
    }
    // Every covered cell must be complete; a gap means a shard's log is
    // missing or was cut short. The lowest incomplete cell is named.
    if let Some((cell, have)) = covered.iter().find(|&(_, &have)| have != seeds) {
        return Err(format!(
            "cell {cell} has {have} of {seeds} runs across the merged logs \
             (missing shard or truncated log?)"
        ));
    }
    // A complete merge is the unsharded campaign; a partial replay (one
    // shard's log on its own) keeps that shard's label so the rendered
    // header cannot be mistaken for the merged result.
    if covered.len() == header.grid().len() {
        header.meta.shard = Shard::full();
    }
    Ok((header, by_k.into_values().collect()))
}

/// A [`RunSink`] that appends every run to the log as it is emitted.
///
/// [`Writer::create`] rewrites the whole file atomically (header + any
/// records carried over from a resumed invocation, via a sibling `.tmp`
/// and `rename`), then holds the file open in append mode; each
/// subsequent run is one appended record.
pub struct Writer {
    file: fs::File,
    seeds: usize,
    bytes: u64,
}

impl Writer {
    /// Creates (or atomically replaces) the log at `path` with `header`
    /// and the carried-over `keep` records, returning an append handle.
    pub fn create(
        path: &Path,
        header: &RunLogHeader,
        keep: &[RunRecord],
    ) -> Result<Writer, String> {
        let mut buf = header.encode();
        for record in keep {
            buf.extend_from_slice(&encode_record(header.meta.seeds, record));
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, &buf).map_err(|e| format!("run-log write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, path).map_err(|e| {
            format!(
                "run-log rename {} -> {}: {e}",
                tmp.display(),
                path.display()
            )
        })?;
        let file = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("run-log open {}: {e}", path.display()))?;
        Ok(Writer {
            file,
            seeds: header.meta.seeds,
            bytes: buf.len() as u64,
        })
    }

    /// Bytes written so far (header + records).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl RunSink for Writer {
    fn on_run(&mut self, record: &RunRecord) -> Result<(), String> {
        let buf = encode_record(self.seeds, record);
        self.file
            .write_all(&buf)
            .map_err(|e| format!("run-log append: {e}"))?;
        self.bytes += buf.len() as u64;
        Ok(())
    }
}
