//! Compact binary dataset serialization.
//!
//! CSV (see [`crate::io`]) is interoperable but slow and ~3× larger
//! than the raw matrix; the paper-scale files (500k × 20 f64 for
//! Figure 7) are better stored in this little-endian binary format:
//!
//! ```text
//! magic  b"PRCL"            4 bytes
//! version u8 = 1
//! flags   u8 (bit 0: labels present)
//! rows    u64 LE
//! cols    u64 LE
//! data    rows*cols f64 LE, row-major
//! labels  rows i64 LE (only when flagged): -1 = outlier, else cluster
//! ```
//!
//! Reads validate the magic, version, flags, and exact length *before*
//! any allocation, so truncated, bit-flipped, or foreign files are
//! rejected with a located [`DataError::Binary`] rather than
//! misinterpreted — and a corrupted header can never trigger an
//! allocation larger than the file itself.

use crate::error::DataError;
use crate::label::Label;
use proclus_math::Matrix;
use std::fs;
use std::path::Path;

/// File magic opening every `PRCL` binary dataset (public so format
/// sniffers — e.g. the serving daemon's upload endpoint — can route a
/// buffer without attempting a full decode).
pub const MAGIC: &[u8; 4] = b"PRCL";
const VERSION: u8 = 1;
/// Byte length of the header: magic, version, flags, rows, cols.
const HEADER_LEN: usize = 4 + 1 + 1 + 8 + 8;

/// The `PRCL` header for a `rows × cols` dataset, labeled or not: the
/// one encoding of it, shared by [`encode`] and the scenario engine's
/// streaming writer.
#[must_use]
pub(crate) fn header(rows: usize, cols: usize, labeled: bool) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(MAGIC);
    h[4] = VERSION;
    h[5] = u8::from(labeled);
    h[6..14].copy_from_slice(&(rows as u64).to_le_bytes());
    h[14..].copy_from_slice(&(cols as u64).to_le_bytes());
    h
}

/// Serialize `points` (and optional aligned `labels`) into the binary
/// format.
///
/// # Errors
///
/// [`DataError::LengthMismatch`] if `labels` is present with a length
/// different from the point count.
pub fn encode(points: &Matrix, labels: Option<&[Label]>) -> Result<Vec<u8>, DataError> {
    if let Some(ls) = labels {
        if ls.len() != points.rows() {
            return Err(DataError::LengthMismatch {
                what: "labels for encode",
                expected: points.rows(),
                got: ls.len(),
            });
        }
    }
    let mut buf = Vec::with_capacity(
        HEADER_LEN + points.rows() * points.cols() * 8 + labels.map_or(0, |l| l.len() * 8),
    );
    buf.extend_from_slice(&header(points.rows(), points.cols(), labels.is_some()));
    for v in points.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for l in labels.into_iter().flatten() {
        buf.extend_from_slice(&l.id().to_le_bytes());
    }
    Ok(buf)
}

/// Little-endian cursor over a byte slice; every read checks the
/// remaining length and reports the byte offset and field on failure.
struct Reader<'a> {
    buf: &'a [u8],
    offset: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], DataError> {
        if self.buf.len() < N {
            return Err(self.error(
                field,
                format!("truncated: need {N} more bytes, {} left", self.buf.len()),
            ));
        }
        let (head, rest) = self.buf.split_at(N);
        self.buf = rest;
        self.offset += N;
        let mut out = [0u8; N];
        out.copy_from_slice(head);
        Ok(out)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, DataError> {
        Ok(self.take::<1>(field)?[0])
    }

    fn u64_le(&mut self, field: &'static str) -> Result<u64, DataError> {
        Ok(u64::from_le_bytes(self.take(field)?))
    }

    fn error(&self, field: &'static str, reason: String) -> DataError {
        DataError::Binary {
            path: None,
            offset: self.offset,
            field,
            reason,
        }
    }
}

/// One 8-byte word of a `chunks_exact(8)` split.
fn le_word(b: &[u8]) -> [u8; 8] {
    let mut w = [0u8; 8];
    w.copy_from_slice(b);
    w
}

/// Deserialize a buffer produced by [`encode`].
///
/// # Errors
///
/// [`DataError::Binary`] — naming the byte offset and field — on wrong
/// magic/version, unknown flags, negative cluster ids other than −1,
/// overflowing header sizes, or a payload length that does not match
/// the header.
pub fn decode(buf: &[u8]) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    let mut r = Reader { buf, offset: 0 };
    let magic = r.take::<4>("magic")?;
    if magic != *MAGIC {
        return Err(DataError::Binary {
            path: None,
            offset: 0,
            field: "magic",
            reason: "bad magic (not a PRCL dataset)".into(),
        });
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(DataError::Binary {
            path: None,
            offset: 4,
            field: "version",
            reason: format!("unsupported version {version}"),
        });
    }
    let flags = r.u8("flags")?;
    if flags & !1 != 0 {
        return Err(DataError::Binary {
            path: None,
            offset: 5,
            field: "flags",
            reason: format!("unknown flag bits 0b{flags:08b}"),
        });
    }
    let has_labels = flags & 1 != 0;
    let rows_raw = r.u64_le("rows")?;
    let cols_raw = r.u64_le("cols")?;
    let rows = usize::try_from(rows_raw)
        .map_err(|_| r.error("rows", format!("row count {rows_raw} too large")))?;
    let cols = usize::try_from(cols_raw)
        .map_err(|_| r.error("cols", format!("column count {cols_raw} too large")))?;
    // Validate the exact payload length with overflow-checked
    // arithmetic before any data-sized allocation: a corrupted header
    // can claim at most what the buffer actually holds.
    let want = rows
        .checked_mul(cols)
        .and_then(|c| c.checked_mul(8))
        .and_then(|b| b.checked_add(if has_labels { rows.checked_mul(8)? } else { 0 }))
        .ok_or_else(|| r.error("header", "header sizes overflow".into()))?;
    if r.buf.len() != want {
        return Err(r.error(
            "payload",
            format!(
                "payload length {} does not match header ({want} expected)",
                r.buf.len()
            ),
        ));
    }
    // The length check above fixed the payload exactly, so the body is
    // decoded in bulk: no per-value bounds checks or error paths.
    let (data_bytes, label_bytes) = r.buf.split_at(rows * cols * 8);
    let data: Vec<f64> = data_bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(le_word(b)))
        .collect();
    let labels = if has_labels {
        let start = r.offset + data_bytes.len();
        let mut ls = Vec::with_capacity(rows);
        for (i, b) in label_bytes.chunks_exact(8).enumerate() {
            let id = i64::from_le_bytes(le_word(b));
            ls.push(Label::from_id(id).ok_or_else(|| DataError::Binary {
                path: None,
                offset: start + i * 8,
                field: "labels",
                reason: format!("bad label id {id}"),
            })?);
        }
        Some(ls)
    } else {
        None
    };
    Ok((Matrix::from_vec(data, rows, cols), labels))
}

/// Write the binary format to a file through the crash-safe writer
/// ([`crate::atomic`]).
///
/// # Errors
///
/// [`DataError::LengthMismatch`] on misaligned labels, [`DataError::Io`]
/// on any I/O failure.
pub fn write_binary(
    path: &Path,
    points: &Matrix,
    labels: Option<&[Label]>,
) -> Result<(), DataError> {
    crate::atomic::write_atomic(path, &encode(points, labels)?)
}

/// Read a file produced by [`write_binary`].
///
/// # Errors
///
/// As [`decode`], with the file path attached; [`DataError::Io`] on
/// OS-level failures.
pub fn read_binary(path: &Path) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    let bytes = fs::read(path).map_err(|e| DataError::io(path, e))?;
    decode(&bytes).map_err(|e| e.with_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::{tmp_path, write_atomic};

    fn sample() -> (Matrix, Vec<Label>) {
        let m = Matrix::from_rows(&[[1.5, -2.0, f64::MIN_POSITIVE], [0.0, 1e300, -0.0]], 3);
        let l = vec![Label::Cluster(3), Label::Outlier];
        (m, l)
    }

    #[test]
    fn roundtrip_with_labels_is_bit_exact() {
        let (m, l) = sample();
        let bytes = encode(&m, Some(&l)).unwrap();
        let (m2, l2) = decode(&bytes).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, Some(l));
    }

    #[test]
    fn roundtrip_without_labels() {
        let (m, _) = sample();
        let bytes = encode(&m, None).unwrap();
        let (m2, l2) = decode(&bytes).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, None);
    }

    #[test]
    fn encode_rejects_mismatched_labels() {
        let (m, _) = sample();
        let too_few = vec![Label::Outlier];
        let err = encode(&m, Some(&too_few)).unwrap_err();
        assert!(matches!(
            err,
            DataError::LengthMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        bytes[0] = b'X';
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn wrong_version_rejected() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        bytes[4] = 99;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn unknown_flags_rejected() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        bytes[5] |= 0b0100;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("flag"), "{err}");
    }

    #[test]
    fn truncation_at_every_byte_rejected() {
        let (m, l) = sample();
        let bytes = encode(&m, Some(&l)).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_in_every_header_field_never_panic() {
        let (m, l) = sample();
        let bytes = encode(&m, Some(&l)).unwrap();
        // Header is magic(0..4) version(4) flags(5) rows(6..14)
        // cols(14..22): flipping any header bit must produce a typed
        // error — in particular a corrupted rows/cols field must fail
        // the length check, never over-allocate.
        for byte in 0..22 {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let err = decode(&corrupt).unwrap_err();
                let msg = err.to_string();
                assert!(!msg.is_empty(), "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn bit_flips_in_payload_never_panic() {
        let (m, l) = sample();
        let bytes = encode(&m, Some(&l)).unwrap();
        for byte in 22..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                // A flipped data bit may still decode (it is just a
                // different f64); it must never panic, and on success
                // the shape must be unchanged.
                if let Ok((m2, _)) = decode(&corrupt) {
                    assert_eq!(m2.rows(), m.rows());
                    assert_eq!(m2.cols(), m.cols());
                }
            }
        }
    }

    #[test]
    fn huge_header_rows_do_not_allocate() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        // Claim ~10^18 rows: decode must reject on the length check
        // (checked arithmetic) without attempting the allocation.
        bytes[6..14].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("overflow") || msg.contains("does not match"),
            "{msg}"
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let (m, l) = sample();
        let path = std::env::temp_dir().join(format!("proclus-binio-{}.prcl", std::process::id()));
        write_binary(&path, &m, Some(&l)).unwrap();
        let (m2, l2) = read_binary(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m, m2);
        assert_eq!(l2, Some(l));
    }

    #[test]
    fn failed_write_binary_leaves_no_tmp() {
        let (m, l) = sample();
        let path =
            std::env::temp_dir().join(format!("proclus-binio-dir-{}.prcl", std::process::id()));
        crate::atomic::assert_failed_write_leaves_nothing(&path, |p| write_binary(p, &m, Some(&l)));
    }

    #[test]
    fn read_binary_names_the_file() {
        let path =
            std::env::temp_dir().join(format!("proclus-binio-corrupt-{}.prcl", std::process::id()));
        std::fs::write(&path, b"NOPE").unwrap();
        let err = read_binary(&path).unwrap_err();
        assert!(err.to_string().contains("proclus-binio-corrupt"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn killed_mid_write_leaves_original_intact_and_partial_detectable() {
        // Simulate a crash mid-overwrite: the staged temp file holds a
        // FaultReader-truncated prefix of the new bytes and the process
        // dies before the rename. The original must read back intact,
        // and the partial temp must be rejected by decode — the two
        // properties the registry recovery scan relies on.
        let dir = std::env::temp_dir().join(format!("proclus-midwrite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dataset.prcl");
        let (m, l) = sample();
        write_binary(&path, &m, Some(&l)).unwrap();

        let replacement = Matrix::from_rows(&[[9.0, 9.0, 9.0]], 3);
        let new_bytes = encode(&replacement, None).unwrap();
        let faults = crate::fault::FaultReader::new(new_bytes.clone());
        for cut in [1, 7, new_bytes.len() / 2, new_bytes.len() - 1] {
            let partial = faults.truncated(cut);
            std::fs::write(tmp_path(&path), partial).unwrap();
            // Crash point: temp staged, rename never happened.
            let (m2, l2) = read_binary(&path).unwrap();
            assert_eq!(m2, m, "original torn after cut at {cut}");
            assert_eq!(l2, Some(l.clone()));
            let leftover = std::fs::read(tmp_path(&path)).unwrap();
            assert!(decode(&leftover).is_err(), "partial at {cut} not detected");
        }

        // A completed atomic write replaces the file and leaves no temp.
        write_atomic(&path, &new_bytes).unwrap();
        assert!(!tmp_path(&path).exists());
        let (m3, l3) = read_binary(&path).unwrap();
        assert_eq!(m3, replacement);
        assert_eq!(l3, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The bulk decoder against sizes around its edges, with values
    /// whose bits matter (signed zeros, subnormals, NaN payloads,
    /// infinities) and every label kind.
    #[test]
    fn roundtrip_at_many_sizes_is_bit_exact() {
        let specials = [
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        for rows in [0, 1, 256, 4097] {
            let cols = 3;
            let data: Vec<f64> = (0..rows * cols)
                .map(|i| match i % 11 {
                    s if s < specials.len() => specials[s],
                    _ => i as f64 * 0.37 - 100.0,
                })
                .collect();
            let m = Matrix::from_vec(data, rows, cols);
            let labels: Vec<Label> = (0..rows)
                .map(|i| {
                    if i % 5 == 4 {
                        Label::Outlier
                    } else {
                        Label::Cluster(i % 7)
                    }
                })
                .collect();
            for with_labels in [false, true] {
                let ls = with_labels.then_some(labels.as_slice());
                let (m2, l2) = decode(&encode(&m, ls).unwrap()).unwrap();
                assert_eq!((m2.rows(), m2.cols()), (rows, cols));
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&m2), bits(&m), "rows {rows}, labels {with_labels}");
                assert_eq!(l2.as_deref(), ls, "rows {rows}");
            }
        }
    }

    #[test]
    fn bad_label_is_located_at_its_own_offset() {
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], 2);
        let l = vec![Label::Cluster(0), Label::Outlier, Label::Cluster(1)];
        let mut bytes = encode(&m, Some(&l)).unwrap();
        // Header 22 bytes, 6 values, then the third label.
        let at = 22 + 6 * 8 + 2 * 8;
        bytes[at..at + 8].copy_from_slice(&(-7i64).to_le_bytes());
        match decode(&bytes).unwrap_err() {
            DataError::Binary {
                offset,
                field,
                reason,
                ..
            } => {
                assert_eq!(offset, at);
                assert_eq!(field, "labels");
                assert_eq!(reason, "bad label id -7");
            }
            other => panic!("expected a binary error, got {other:?}"),
        }
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let m = Matrix::zeros(0, 4);
        let bytes = encode(&m, None).unwrap();
        let (m2, _) = decode(&bytes).unwrap();
        assert_eq!(m2.rows(), 0);
        assert_eq!(m2.cols(), 4);
    }
}
