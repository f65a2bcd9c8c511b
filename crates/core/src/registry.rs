//! Versioned, crash-safe on-disk model registry for the streaming
//! subsystem.
//!
//! A registry directory holds one file per published model generation,
//! named `gen-NNNNNN.prcm`, plus a `CURRENT` text file naming the
//! serving generation. The entry bytes are exactly
//! [`encode_model`] of the published model — the generation number
//! lives *only* in the filename and `CURRENT`, so a registry entry is
//! byte-identical to an offline serialization of the same model (the
//! streaming determinism tests rely on this).
//!
//! # `PRCM` format (version 1)
//!
//! All integers little-endian:
//!
//! ```text
//! magic    4  b"PRCM"
//! version  1  u8 = 1
//! distance 1  u8 (0 = Manhattan, 1 = Euclidean, 2 = Chebyshev)
//! k        4  u32   cluster count
//! d        4  u32   dimensionality
//! n        8  u64   point count
//! objective            8 f64
//! iterative_objective  8 f64
//! rounds               8 u64
//! improvements         8 u64
//! k × cluster:
//!   medoid_index 8 u64
//!   sphere       8 f64
//!   |dims|       4 u32, then |dims| × u32 (each < d, ascending)
//!   medoid       d × f64
//!   centroid     d × f64
//! assignment  n × i64 (cluster index, or -1 for outlier)
//! checksum    8 u64   FNV-1a over everything above
//! ```
//!
//! Members, outliers, and centroids' member lists are rebuilt from the
//! assignment on decode. [`crate::model::FitDiagnostics`] is
//! deliberately **not** serialized: it describes how a fit ran, not
//! what the model is, and excluding it keeps the byte-identity
//! guarantee independent of trace-level bookkeeping.
//!
//! # Crash safety
//!
//! Every write goes through `proclus-data`'s crash-safe writer
//! ([`proclus_data::atomic`]): temp file, `fsync`, atomic rename,
//! directory `fsync`, and the temp file removed on any failure. A
//! failed write therefore leaves nothing behind, and a crash can leave
//! only (a) a stray `*.tmp` file, (b) a fully-written entry not yet
//! named by `CURRENT`, or (c) a missing/corrupt `CURRENT`.
//! [`ModelRegistry::open`] runs a recovery scan that quarantines
//! partial/corrupt entries (renaming them to `*.quarantined` so nothing
//! ever parses them again) and repairs `CURRENT` to the highest valid
//! generation.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use proclus_data::{atomic, DataError};
use proclus_math::{fnv1a64, DistanceKind};

use crate::model::ProclusModel;

/// Magic bytes opening every serialized model.
pub const MODEL_MAGIC: [u8; 4] = *b"PRCM";
/// Current `PRCM` format version.
pub const MODEL_VERSION: u8 = 1;
/// Name of the pointer file naming the serving generation.
pub const CURRENT_FILE: &str = "CURRENT";

/// Why a byte buffer failed to parse as a `PRCM` model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelCodecError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ModelCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for ModelCodecError {}

/// Reasons a registry operation can fail.
#[derive(Debug)]
pub enum RegistryError {
    /// An I/O operation failed on `path`.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// An entry's bytes are not a valid `PRCM` model.
    Corrupt {
        /// The entry file.
        path: PathBuf,
        /// Byte offset at which decoding failed.
        offset: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, source } => {
                write!(f, "registry I/O error on {}: {source}", path.display())
            }
            RegistryError::Corrupt {
                path,
                offset,
                reason,
            } => write!(
                f,
                "corrupt registry entry {} at byte {offset}: {reason}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io { source, .. } => Some(source),
            RegistryError::Corrupt { .. } => None,
        }
    }
}

/// What [`ModelRegistry::open`]'s recovery scan found and did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Generations that parsed cleanly, ascending.
    pub valid: Vec<u64>,
    /// Files quarantined (renamed to `*.quarantined`) and why.
    pub quarantined: Vec<(PathBuf, String)>,
    /// `true` when `CURRENT` was missing, unparsable, or dangling and
    /// had to be rewritten (or removed, when no valid entry exists).
    pub current_repaired: bool,
}

impl RecoveryReport {
    /// `true` when the scan found a fully healthy registry.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && !self.current_repaired
    }
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

fn distance_tag(kind: DistanceKind) -> u8 {
    match kind {
        DistanceKind::Manhattan => 0,
        DistanceKind::Euclidean => 1,
        DistanceKind::Chebyshev => 2,
    }
}

fn distance_from_tag(tag: u8) -> Option<DistanceKind> {
    match tag {
        0 => Some(DistanceKind::Manhattan),
        1 => Some(DistanceKind::Euclidean),
        2 => Some(DistanceKind::Chebyshev),
        _ => None,
    }
}

/// Serialize a model to the `PRCM` format (see the module docs).
///
/// The output is a pure function of the model's *clustering* content
/// (diagnostics are excluded), so two byte-identical models always
/// serialize to byte-identical buffers.
pub fn encode_model(model: &ProclusModel) -> Vec<u8> {
    let k = model.clusters.len();
    let d = model.clusters.first().map(|c| c.medoid.len()).unwrap_or(0);
    let n = model.assignment.len();
    let mut out = Vec::with_capacity(46 + k * (28 + 16 * d) + 8 * n + 8);
    out.extend_from_slice(&MODEL_MAGIC);
    out.push(MODEL_VERSION);
    out.push(distance_tag(model.distance));
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.extend_from_slice(&(d as u32).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&model.objective.to_le_bytes());
    out.extend_from_slice(&model.iterative_objective.to_le_bytes());
    out.extend_from_slice(&(model.rounds as u64).to_le_bytes());
    out.extend_from_slice(&(model.improvements as u64).to_le_bytes());
    for c in &model.clusters {
        out.extend_from_slice(&(c.medoid_index as u64).to_le_bytes());
        out.extend_from_slice(&c.sphere_of_influence.to_le_bytes());
        out.extend_from_slice(&(c.dimensions.len() as u32).to_le_bytes());
        for &dim in &c.dimensions {
            out.extend_from_slice(&(dim as u32).to_le_bytes());
        }
        for &v in &c.medoid {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &v in &c.centroid {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    for a in &model.assignment {
        let v: i64 = match a {
            Some(i) => *i as i64,
            None => -1,
        };
        out.extend_from_slice(&v.to_le_bytes());
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], ModelCodecError> {
        let end = self
            .offset
            .checked_add(len)
            .filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.offset..end];
                self.offset = end;
                Ok(s)
            }
            None => Err(ModelCodecError {
                offset: self.offset,
                reason: format!("truncated while reading {what} ({len} bytes)"),
            }),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, ModelCodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ModelCodecError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn i64(&mut self, what: &str) -> Result<i64, ModelCodecError> {
        Ok(self.u64(what)? as i64)
    }

    fn f64(&mut self, what: &str) -> Result<f64, ModelCodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn f64_vec(&mut self, len: usize, what: &str) -> Result<Vec<f64>, ModelCodecError> {
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.f64(what)?);
        }
        Ok(v)
    }

    fn fail<T>(&self, reason: String) -> Result<T, ModelCodecError> {
        Err(ModelCodecError {
            offset: self.offset,
            reason,
        })
    }
}

/// Deserialize a `PRCM` buffer back into a model.
///
/// The trailing checksum is verified *before* any structural parsing,
/// so a bit flip anywhere in the file is reported as a checksum
/// mismatch rather than as whatever field it happened to land in.
/// Member lists and outliers are rebuilt from the assignment; the
/// decoded model carries default (empty) diagnostics.
///
/// # Errors
///
/// [`ModelCodecError`] locating the first offending byte.
pub fn decode_model(bytes: &[u8]) -> Result<ProclusModel, ModelCodecError> {
    if bytes.len() < MODEL_MAGIC.len() + 2 + 8 {
        return Err(ModelCodecError {
            offset: bytes.len(),
            reason: format!("{} bytes is too short to be a PRCM model", bytes.len()),
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let mut tail = [0u8; 8];
    tail.copy_from_slice(&bytes[bytes.len() - 8..]);
    let stored = u64::from_le_bytes(tail);
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(ModelCodecError {
            offset: bytes.len() - 8,
            reason: format!("checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"),
        });
    }
    let mut cur = Cursor {
        buf: body,
        offset: 0,
    };
    let magic = cur.take(4, "magic")?;
    if magic != MODEL_MAGIC {
        return Err(ModelCodecError {
            offset: 0,
            reason: format!("bad magic {magic:?} (expected {MODEL_MAGIC:?})"),
        });
    }
    let version = cur.take(1, "version")?[0];
    if version != MODEL_VERSION {
        return cur.fail(format!(
            "unsupported PRCM version {version} (supported: {MODEL_VERSION})"
        ));
    }
    let dist_tag = cur.take(1, "distance tag")?[0];
    let Some(distance) = distance_from_tag(dist_tag) else {
        return cur.fail(format!("unknown distance tag {dist_tag}"));
    };
    let k = cur.u32("cluster count")? as usize;
    let d = cur.u32("dimensionality")? as usize;
    let n = cur.u64("point count")? as usize;
    // Implausible-size guard: reject before allocating. The remaining
    // body must hold k clusters and n assignment entries.
    let min_body = k
        .checked_mul(28 + 16 * d)
        .and_then(|c| c.checked_add(n.checked_mul(8)?))
        .and_then(|c| c.checked_add(cur.offset + 32));
    if min_body.is_none_or(|m| m > body.len()) {
        return cur.fail(format!(
            "implausible header (k = {k}, d = {d}, n = {n}) for a {}-byte body",
            body.len()
        ));
    }
    let objective = cur.f64("objective")?;
    let iterative_objective = cur.f64("iterative objective")?;
    let rounds = cur.u64("rounds")? as usize;
    let improvements = cur.u64("improvements")? as usize;
    let mut clusters = Vec::with_capacity(k);
    for i in 0..k {
        let medoid_index = cur.u64("medoid index")? as usize;
        let sphere = cur.f64("sphere of influence")?;
        let dims_len = cur.u32("dimension count")? as usize;
        if dims_len > d {
            return cur.fail(format!(
                "cluster {i} claims {dims_len} dimensions in {d}-dimensional data"
            ));
        }
        let mut dims = Vec::with_capacity(dims_len);
        for _ in 0..dims_len {
            let dim = cur.u32("dimension")? as usize;
            if dim >= d {
                return cur.fail(format!(
                    "cluster {i} dimension {dim} out of range (d = {d})"
                ));
            }
            dims.push(dim);
        }
        let medoid = cur.f64_vec(d, "medoid")?;
        let centroid = cur.f64_vec(d, "centroid")?;
        clusters.push(crate::model::ProjectedCluster {
            medoid_index,
            medoid,
            dimensions: dims,
            members: Vec::new(),
            centroid,
            sphere_of_influence: sphere,
        });
    }
    let mut assignment = Vec::with_capacity(n);
    let mut outliers = Vec::new();
    for p in 0..n {
        let a = cur.i64("assignment")?;
        if a < 0 {
            outliers.push(p);
            assignment.push(None);
        } else {
            let i = a as usize;
            if i >= k {
                return cur.fail(format!("point {p} assigned to cluster {i} but k = {k}"));
            }
            clusters[i].members.push(p);
            assignment.push(Some(i));
        }
    }
    if cur.offset != body.len() {
        return cur.fail(format!(
            "{} trailing bytes after a complete model",
            body.len() - cur.offset
        ));
    }
    Ok(ProclusModel {
        clusters,
        outliers,
        assignment,
        objective,
        iterative_objective,
        rounds,
        improvements,
        distance,
        diagnostics: crate::model::FitDiagnostics::default(),
    })
}

// ---------------------------------------------------------------------
// Atomic writes: `proclus-data`'s shared crash-safe writer
// ---------------------------------------------------------------------

/// Write `bytes` to `path` through [`proclus_data::atomic`], the
/// workspace's one crash-safe writer (temp file, fsync, rename,
/// directory fsync; the temp file is removed on any failure).
fn write_durably(path: &Path, bytes: &[u8]) -> Result<(), RegistryError> {
    atomic::write_atomic(path, bytes).map_err(|e| match e {
        DataError::Io { path, source } => RegistryError::Io { path, source },
        // The writer fails only with `Io`; keep any other error typed.
        other => RegistryError::Io {
            path: path.to_path_buf(),
            source: io::Error::other(other.to_string()),
        },
    })
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

fn entry_name(generation: u64) -> String {
    format!("gen-{generation:06}.prcm")
}

fn parse_entry_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("gen-")?.strip_suffix(".prcm")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Read the `CURRENT` pointer of the registry at `dir` from disk.
///
/// This needs no [`ModelRegistry`] handle, so a reader can follow the
/// pointer without serializing against the handle's publishes: the
/// pointer is only ever replaced by an atomic rename, so a read sees
/// either the old generation or the new one, never a torn file.
///
/// # Errors
///
/// [`RegistryError::Io`] when the pointer file exists but cannot be
/// read; [`RegistryError::Corrupt`] when its contents do not parse as
/// a generation number. A missing pointer is `Ok(None)`.
pub fn current_generation_in(dir: &Path) -> Result<Option<u64>, RegistryError> {
    let path = dir.join(CURRENT_FILE);
    match fs::read_to_string(&path) {
        Ok(s) => match s.trim().parse::<u64>() {
            Ok(g) => Ok(Some(g)),
            Err(_) => Err(RegistryError::Corrupt {
                path,
                offset: 0,
                reason: format!("CURRENT does not name a generation: {:?}", s.trim()),
            }),
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(RegistryError::Io { path, source: e }),
    }
}

/// A versioned directory of published models with a `CURRENT` pointer.
///
/// See the module docs for the on-disk layout and crash-safety
/// contract. All mutation goes through [`ModelRegistry::publish`].
#[derive(Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
    valid: Vec<u64>,
    current: Option<u64>,
}

impl ModelRegistry {
    /// Open (creating if needed) the registry at `dir`, running the
    /// recovery scan: corrupt or partial entries and stray `*.tmp`
    /// files are renamed to `*.quarantined`, and `CURRENT` is repaired
    /// to the highest valid generation when missing, unparsable, or
    /// dangling.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the directory cannot be created,
    /// listed, or repaired. Corrupt *entries* are never an error here —
    /// they are quarantined and reported in the [`RecoveryReport`].
    pub fn open(dir: &Path) -> Result<(Self, RecoveryReport), RegistryError> {
        let io_err = |p: &Path, e: io::Error| RegistryError::Io {
            path: p.to_path_buf(),
            source: e,
        };
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut report = RecoveryReport::default();
        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        let mut quarantine = |path: PathBuf, reason: String| -> Result<(), RegistryError> {
            let mut os = path.as_os_str().to_os_string();
            os.push(".quarantined");
            let dest = PathBuf::from(os);
            fs::rename(&path, &dest).map_err(|e| io_err(&path, e))?;
            report.quarantined.push((path, reason));
            Ok(())
        };
        for name in &names {
            let path = dir.join(name);
            if name.ends_with(".tmp") {
                quarantine(path, "stray temp file from an interrupted write".into())?;
                continue;
            }
            let Some(generation) = parse_entry_name(name) else {
                continue;
            };
            let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            match decode_model(&bytes) {
                Ok(_) => report.valid.push(generation),
                Err(e) => quarantine(path, e.to_string())?,
            }
        }
        report.valid.sort_unstable();
        report.valid.dedup();

        let current_path = dir.join(CURRENT_FILE);
        let named: Option<u64> = match fs::read_to_string(&current_path) {
            Ok(s) => s.trim().parse().ok(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err(&current_path, e)),
        };
        let best = report.valid.last().copied();
        let current = match (named, best) {
            // CURRENT names a valid entry: healthy. This is also the
            // mid-rollover-crash case (entry written, pointer never
            // flipped): the pointer flip is the commit point, so the
            // *previous* model keeps serving and the orphaned entry is
            // simply superseded by the next publish.
            (Some(g), _) if report.valid.contains(&g) => Some(g),
            // CURRENT missing/corrupt/dangling but entries exist:
            // repair to the highest valid generation.
            (_, Some(best)) => {
                if named != Some(best) {
                    write_durably(&current_path, format!("{best}\n").as_bytes())?;
                    report.current_repaired = true;
                }
                Some(best)
            }
            // No valid entries at all: remove a lying CURRENT.
            (Some(_), None) => {
                fs::remove_file(&current_path).map_err(|e| io_err(&current_path, e))?;
                report.current_repaired = true;
                None
            }
            (None, None) => None,
        };
        Ok((
            ModelRegistry {
                dir: dir.to_path_buf(),
                valid: report.valid.clone(),
                current,
            },
            report,
        ))
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Valid generations, ascending.
    pub fn generations(&self) -> &[u64] {
        &self.valid
    }

    /// The serving generation named by `CURRENT`, if any.
    pub fn current(&self) -> Option<u64> {
        self.current
    }

    /// Path of the entry file for `generation`.
    pub fn entry_path(&self, generation: u64) -> PathBuf {
        self.dir.join(entry_name(generation))
    }

    /// Load the model stored as `generation`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the entry cannot be read,
    /// [`RegistryError::Corrupt`] when its bytes do not parse.
    pub fn load(&self, generation: u64) -> Result<ProclusModel, RegistryError> {
        let path = self.entry_path(generation);
        let bytes = fs::read(&path).map_err(|e| RegistryError::Io {
            path: path.clone(),
            source: e,
        })?;
        decode_model(&bytes).map_err(|e| RegistryError::Corrupt {
            path,
            offset: e.offset,
            reason: e.reason,
        })
    }

    /// Load the serving model (`CURRENT`), or `None` when the registry
    /// is empty.
    ///
    /// # Errors
    ///
    /// Same as [`ModelRegistry::load`].
    pub fn load_current(&self) -> Result<Option<(u64, ProclusModel)>, RegistryError> {
        match self.current {
            Some(g) => Ok(Some((g, self.load(g)?))),
            None => Ok(None),
        }
    }

    /// Read the `CURRENT` pointer **from disk** rather than from this
    /// handle's cached view, so a generation published by another
    /// process (e.g. `proclus stream` promoting during a rollover) is
    /// visible without reopening the registry. See
    /// [`current_generation_in`].
    ///
    /// # Errors
    ///
    /// As [`current_generation_in`].
    pub fn current_generation_on_disk(&self) -> Result<Option<u64>, RegistryError> {
        current_generation_in(&self.dir)
    }

    /// Load the serving model using a fresh on-disk read of `CURRENT`.
    ///
    /// This is the TOCTOU-hardened serving path: between reading the
    /// pointer and opening the entry, a concurrent writer may retire
    /// the named generation (publish then prune). When the entry turns
    /// out to be missing, the pointer is re-read — if it moved, the
    /// load retries against the new generation (bounded, so a
    /// pathological writer cannot livelock a reader); if it did not
    /// move, the registry really is dangling and the typed I/O error
    /// is returned as-is. Either way the race surfaces as a
    /// [`RegistryError`], never a panic.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] / [`RegistryError::Corrupt`] as
    /// [`ModelRegistry::load`] and
    /// [`ModelRegistry::current_generation_on_disk`].
    pub fn load_current_fresh(&self) -> Result<Option<(u64, ProclusModel)>, RegistryError> {
        const MAX_POINTER_CHASES: usize = 3;
        let mut generation = match self.current_generation_on_disk()? {
            Some(g) => g,
            None => return Ok(None),
        };
        for _ in 0..MAX_POINTER_CHASES {
            match self.load(generation) {
                Ok(model) => return Ok(Some((generation, model))),
                Err(RegistryError::Io { path, source })
                    if source.kind() == io::ErrorKind::NotFound =>
                {
                    // Entry vanished after we read the pointer. Re-read
                    // it: a moved pointer means a writer raced us and we
                    // should chase; an unchanged pointer is a genuinely
                    // dangling registry.
                    match self.current_generation_on_disk()? {
                        Some(g) if g != generation => generation = g,
                        _ => return Err(RegistryError::Io { path, source }),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Pointer kept moving for MAX_POINTER_CHASES loads; report the
        // last target as unavailable rather than spinning forever.
        Err(RegistryError::Io {
            path: self.entry_path(generation),
            source: io::Error::new(
                io::ErrorKind::NotFound,
                "CURRENT kept moving while chasing it; entry never observed",
            ),
        })
    }

    /// Publish `model` as the next generation and point `CURRENT` at
    /// it. Both writes are atomic and the `CURRENT` flip is the commit
    /// point: a crash *between* them leaves the previous generation
    /// serving (the orphaned entry is superseded by the next publish),
    /// and a crash *during* either write leaves only a `*.tmp` that the
    /// next recovery scan quarantines.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] naming the file that failed. A failed
    /// write removes its temp file, so no partial entry remains; only a
    /// crash can leave a stray `*.tmp`, which the next recovery scan
    /// quarantines.
    pub fn publish(&mut self, model: &ProclusModel) -> Result<u64, RegistryError> {
        let generation = self.valid.last().map_or(1, |g| g + 1);
        let path = self.entry_path(generation);
        write_durably(&path, &encode_model(model))?;
        write_durably(
            &self.dir.join(CURRENT_FILE),
            format!("{generation}\n").as_bytes(),
        )?;
        self.valid.push(generation);
        self.current = Some(generation);
        Ok(generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_math::Matrix;

    fn toy_model(shift: f64) -> ProclusModel {
        let m = Matrix::from_rows(
            &[
                [0.0 + shift, 0.0, 1.0],
                [10.0, 10.0 + shift, 2.0],
                [0.5, 0.0, 3.0],
                [10.0, 9.0, 4.0],
                [50.0, 50.0, 5.0],
            ],
            3,
        );
        ProclusModel::from_parts(
            &m,
            vec![0, 1],
            vec![vec![0, 1], vec![1, 2]],
            vec![Some(0), Some(1), Some(0), Some(1), None],
            vec![10.0, 12.5],
            (0.5, 0.6),
            7,
            3,
            DistanceKind::Manhattan,
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("proclus-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn codec_roundtrips_and_is_deterministic() {
        let m = toy_model(0.0);
        let bytes = encode_model(&m);
        assert_eq!(bytes, encode_model(&m), "encoding must be deterministic");
        let back = decode_model(&bytes).unwrap();
        assert_eq!(back.assignment(), m.assignment());
        assert_eq!(back.outliers(), m.outliers());
        assert_eq!(back.objective(), m.objective());
        assert_eq!(back.iterative_objective(), m.iterative_objective());
        assert_eq!(back.rounds(), m.rounds());
        assert_eq!(back.improvements(), m.improvements());
        assert_eq!(back.distance(), m.distance());
        for (a, b) in back.clusters().iter().zip(m.clusters()) {
            assert_eq!(a, b);
        }
        // Re-encoding the decoded model reproduces the bytes.
        assert_eq!(encode_model(&back), bytes);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_model(&toy_model(0.0));
        for cut in [0, 1, 4, 5, 13, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_model(&bytes[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = encode_model(&toy_model(0.0));
        for &pos in &[0usize, 4, 6, 14, 46, bytes.len() - 9, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode_model(&bad).is_err(),
                "bit flip at byte {pos} must not parse"
            );
        }
    }

    #[test]
    fn implausible_header_fails_before_allocating() {
        let mut bytes = encode_model(&toy_model(0.0));
        // Claim 2^30 points; re-checksum so the guard (not the
        // checksum) is what rejects it.
        bytes[14..22].copy_from_slice(&(1u64 << 30).to_le_bytes());
        let len = bytes.len();
        let sum = fnv1a64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode_model(&bytes).unwrap_err();
        assert!(err.reason.contains("implausible"), "{err}");
    }

    #[test]
    fn publish_load_and_current_pointer() {
        let dir = tmp_dir("publish");
        let (mut reg, report) = ModelRegistry::open(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(reg.current(), None);
        assert!(reg.load_current().unwrap().is_none());

        let m1 = toy_model(0.0);
        let g1 = reg.publish(&m1).unwrap();
        assert_eq!(g1, 1);
        let m2 = toy_model(1.0);
        let g2 = reg.publish(&m2).unwrap();
        assert_eq!(g2, 2);
        assert_eq!(reg.generations(), &[1, 2]);
        assert_eq!(reg.current(), Some(2));

        // Entry bytes are exactly encode_model (generation lives only
        // in the filename), so offline bytes compare equal.
        let on_disk = fs::read(reg.entry_path(2)).unwrap();
        assert_eq!(on_disk, encode_model(&m2));

        // Reopen: clean scan, same state.
        let (reg2, report2) = ModelRegistry::open(&dir).unwrap();
        assert!(report2.is_clean(), "{report2:?}");
        assert_eq!(report2.valid, vec![1, 2]);
        assert_eq!(reg2.current(), Some(2));
        let (g, loaded) = reg2.load_current().unwrap().unwrap();
        assert_eq!(g, 2);
        assert_eq!(loaded.assignment(), m2.assignment());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The entry path is an existing directory (made after `open`,
    /// which reads every `gen-*.prcm` it lists), so the rename fails
    /// after the temp file is complete: the error names the entry and
    /// the temp file is gone.
    #[test]
    fn failed_publish_leaves_no_tmp() {
        let dir = tmp_dir("failed-publish");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        let entry = reg.entry_path(1);
        fs::create_dir(&entry).unwrap();
        match reg.publish(&toy_model(0.0)) {
            Err(RegistryError::Io { path, .. }) => assert_eq!(path, entry),
            other => panic!("expected an I/O error on the entry, got {other:?}"),
        }
        let mut tmp = entry.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "temp file left behind");
        assert_eq!(reg.current(), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_quarantines_corrupt_and_partial_entries() {
        let dir = tmp_dir("recovery");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        reg.publish(&toy_model(0.0)).unwrap();
        reg.publish(&toy_model(1.0)).unwrap();

        // Corrupt generation 2 (the one CURRENT names), leave a partial
        // write of a would-be generation 3, and a stray tmp file.
        let e2 = reg.entry_path(2);
        let mut bytes = fs::read(&e2).unwrap();
        bytes[20] ^= 0xFF;
        fs::write(&e2, &bytes).unwrap();
        let full = encode_model(&toy_model(2.0));
        fs::write(dir.join("gen-000003.prcm"), &full[..full.len() / 2]).unwrap();
        fs::write(dir.join("gen-000004.prcm.tmp"), b"partial").unwrap();

        let (reg2, report) = ModelRegistry::open(&dir).unwrap();
        assert_eq!(report.valid, vec![1]);
        assert_eq!(report.quarantined.len(), 3, "{report:?}");
        assert!(report.current_repaired);
        assert_eq!(reg2.current(), Some(1));
        // Quarantined files are renamed, not deleted, and no longer
        // parse as entries on the next scan.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().any(|n| n == "gen-000002.prcm.quarantined"));
        assert!(names.iter().any(|n| n == "gen-000003.prcm.quarantined"));
        assert!(names.iter().any(|n| n == "gen-000004.prcm.tmp.quarantined"));
        let (reg3, report3) = ModelRegistry::open(&dir).unwrap();
        assert!(report3.is_clean(), "{report3:?}");
        assert_eq!(reg3.current(), Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_entry_and_current_keeps_previous_model_serving() {
        let dir = tmp_dir("midcrash");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        reg.publish(&toy_model(0.0)).unwrap();
        // Simulate: generation 2's entry landed durably but the process
        // died before the CURRENT pointer flipped. The flip is the
        // commit point, so generation 1 must keep serving.
        fs::write(dir.join("gen-000002.prcm"), encode_model(&toy_model(1.0))).unwrap();
        let (mut reg2, report) = ModelRegistry::open(&dir).unwrap();
        assert!(!report.current_repaired);
        assert_eq!(reg2.current(), Some(1));
        // The next publish supersedes the orphaned entry.
        let g = reg2.publish(&toy_model(2.0)).unwrap();
        assert_eq!(g, 3);
        assert_eq!(reg2.current(), Some(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_with_missing_current_repairs_to_highest_valid() {
        let dir = tmp_dir("nocurrent");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("gen-000001.prcm"), encode_model(&toy_model(0.0))).unwrap();
        fs::write(dir.join("gen-000002.prcm"), encode_model(&toy_model(1.0))).unwrap();
        let (reg, report) = ModelRegistry::open(&dir).unwrap();
        assert!(report.current_repaired);
        assert_eq!(reg.current(), Some(2));
        assert_eq!(
            fs::read_to_string(dir.join(CURRENT_FILE)).unwrap().trim(),
            "2"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dangling_current_with_no_entries_is_removed() {
        let dir = tmp_dir("dangling");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CURRENT_FILE), "7\n").unwrap();
        let (reg, report) = ModelRegistry::open(&dir).unwrap();
        assert!(report.current_repaired);
        assert_eq!(reg.current(), None);
        assert!(!dir.join(CURRENT_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_deleted_between_pointer_read_and_open_is_a_typed_error() {
        // The TOCTOU regression: CURRENT names generation 1, but the
        // entry vanishes before the reader opens it (a racing writer
        // pruned it without moving the pointer). The load must surface
        // a typed I/O error — not panic, not loop.
        let dir = tmp_dir("toctou-dangling");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        reg.publish(&toy_model(0.0)).unwrap();
        fs::remove_file(reg.entry_path(1)).unwrap();
        let err = reg.load_current_fresh().unwrap_err();
        match &err {
            RegistryError::Io { path, source } => {
                assert_eq!(source.kind(), io::ErrorKind::NotFound);
                assert!(path.ends_with("gen-000001.prcm"), "{err}");
            }
            other => panic!("expected Io, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pointer_moved_during_load_is_chased_to_the_new_generation() {
        // The recoverable half of the race: the entry named by the
        // first pointer read is gone, but CURRENT has moved on to a
        // live generation — the reader must chase and succeed.
        let dir = tmp_dir("toctou-chase");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        reg.publish(&toy_model(0.0)).unwrap();
        let (stale_reg, _) = ModelRegistry::open(&dir).unwrap();
        reg.publish(&toy_model(1.0)).unwrap();
        fs::remove_file(reg.entry_path(1)).unwrap();
        // stale_reg's cached view still says generation 1; the fresh
        // path reads the moved pointer from disk and serves gen 2.
        let (g, model) = stale_reg.load_current_fresh().unwrap().unwrap();
        assert_eq!(g, 2);
        assert_eq!(model.assignment(), toy_model(1.0).assignment());
        // The cached path against the deleted entry stays a typed
        // error rather than a panic.
        assert!(matches!(
            stale_reg.load_current(),
            Err(RegistryError::Io { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unparsable_current_on_disk_is_corrupt_not_panic() {
        let dir = tmp_dir("toctou-garbage");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        reg.publish(&toy_model(0.0)).unwrap();
        fs::write(dir.join(CURRENT_FILE), "not-a-number\n").unwrap();
        assert!(matches!(
            reg.current_generation_on_disk(),
            Err(RegistryError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_load_sees_cross_handle_promotions() {
        let dir = tmp_dir("toctou-fresh");
        let (mut writer, _) = ModelRegistry::open(&dir).unwrap();
        writer.publish(&toy_model(0.0)).unwrap();
        let (reader, _) = ModelRegistry::open(&dir).unwrap();
        assert_eq!(reader.current(), Some(1));
        writer.publish(&toy_model(1.0)).unwrap();
        // Cached view is stale; the fresh path sees the promotion.
        assert_eq!(reader.current(), Some(1));
        assert_eq!(reader.current_generation_on_disk().unwrap(), Some(2));
        let (g, _) = reader.load_current_fresh().unwrap().unwrap();
        assert_eq!(g, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_names_roundtrip() {
        assert_eq!(entry_name(7), "gen-000007.prcm");
        assert_eq!(parse_entry_name("gen-000007.prcm"), Some(7));
        assert_eq!(parse_entry_name("gen-1234567.prcm"), Some(1_234_567));
        assert_eq!(parse_entry_name("gen-.prcm"), None);
        assert_eq!(parse_entry_name("gen-12.prcm.quarantined"), None);
        assert_eq!(parse_entry_name("CURRENT"), None);
    }
}
