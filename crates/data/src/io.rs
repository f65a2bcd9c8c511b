//! Plain-text (CSV) dataset serialization.
//!
//! Format: one point per line, comma-separated coordinates; when labels
//! are written, the last column is the label (`C<i>` for cluster `i`,
//! `O` for an outlier; the reader also accepts `Out.`). A single
//! header line `x0,x1,…[,label]` is always written. [`csv_header`] and
//! [`push_csv_row`] are the one encoding of that text, shared by
//! [`write_csv`] and the scenario engine's streaming writer.

use crate::atomic::write_with;
use crate::error::DataError;
use crate::label::Label;
use proclus_math::Matrix;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Write `points` (and optionally aligned `labels`) as CSV.
///
/// Crash-safe and constant-memory: rows are streamed one at a time
/// through the crate's crash-safe writer ([`crate::atomic`]), so a
/// crash can never leave a half-written dataset under the final name
/// and the full text is never materialized in RAM.
///
/// # Errors
///
/// [`DataError::LengthMismatch`] if `labels` is present but not the
/// same length as the point count; [`DataError::Io`] on any I/O
/// failure.
pub fn write_csv(path: &Path, points: &Matrix, labels: Option<&[Label]>) -> Result<(), DataError> {
    if let Some(ls) = labels {
        if ls.len() != points.rows() {
            return Err(DataError::LengthMismatch {
                what: "labels for write_csv",
                expected: points.rows(),
                got: ls.len(),
            });
        }
    }
    write_with(path, |w| {
        w.write_all(csv_header(points.cols(), labels.is_some()).as_bytes())?;
        let mut line = String::new();
        for i in 0..points.rows() {
            line.clear();
            push_csv_row(&mut line, points.row(i), labels.map(|ls| ls[i]));
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    })
}

/// The CSV header line for `cols` coordinates: `x0,…,x{cols−1}`, then
/// `,label` when `labeled`, then a newline.
#[must_use]
pub fn csv_header(cols: usize, labeled: bool) -> String {
    let mut out = (0..cols)
        .map(|j| format!("x{j}"))
        .collect::<Vec<_>>()
        .join(",");
    if labeled {
        out.push_str(",label");
    }
    out.push('\n');
    out
}

/// Append one CSV data line to `out`: the coordinates in `f64`'s
/// shortest round-trip form, then the label token when there is one.
pub fn push_csv_row(out: &mut String, row: &[f64], label: Option<Label>) {
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    match label {
        Some(Label::Cluster(i)) => {
            let _ = write!(out, ",C{i}");
        }
        Some(Label::Outlier) => out.push_str(",O"),
        None => {}
    }
    out.push('\n');
}

/// Read a CSV produced by [`write_csv`] (header required).
///
/// Returns the points and, when a `label` column is present, the labels.
///
/// # Errors
///
/// [`DataError::Csv`] — naming the file, 1-based line, and offending
/// column/token — on ragged rows, unparsable or non-finite numbers,
/// malformed headers, unknown label tokens, or a line that is not
/// UTF-8; [`DataError::Io`] on OS-level failures.
pub fn read_csv(path: &Path) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    let r = BufReader::new(File::open(path).map_err(|e| DataError::io(path, e))?);
    read_csv_from(path, r)
}

/// Parse an in-memory CSV buffer (same grammar as [`read_csv`]).
///
/// `origin` names the buffer in error messages — e.g. `"<upload>"` for
/// a network request body, where no real file exists.
///
/// # Errors
///
/// Same as [`read_csv`], with `origin` as the path.
pub fn read_csv_bytes(
    origin: &Path,
    bytes: &[u8],
) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    read_csv_from(origin, bytes)
}

/// Shared CSV parser over any buffered source; `path` is only for
/// error context.
fn read_csv_from(
    path: &Path,
    mut r: impl BufRead,
) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    let at =
        |line: usize, column: Option<usize>, token: Option<&str>, reason: String| DataError::Csv {
            path: path.into(),
            line,
            column,
            token: token.map(str::to_string),
            reason,
        };
    let mut buf = Vec::new();
    let header = next_line(&mut r, &mut buf, path, 1)?
        .ok_or_else(|| at(1, None, None, "empty file".into()))?;
    let columns: Vec<&str> = header.split(',').collect();
    let has_labels = columns.last() == Some(&"label");
    let d = if has_labels {
        columns.len() - 1
    } else {
        columns.len()
    };
    if d == 0 {
        return Err(at(1, None, None, "no coordinate columns".into()));
    }
    // The header must declare the dimensions it claims: x0, x1, … in
    // order, so a file whose header disagrees with its own width is
    // caught here rather than misread.
    for (j, col) in columns[..d].iter().enumerate() {
        if *col != format!("x{j}") {
            return Err(at(
                1,
                Some(j + 1),
                Some(col),
                format!("header column mismatch: expected \"x{j}\""),
            ));
        }
    }

    let mut data: Vec<f64> = Vec::new();
    let mut labels: Vec<Label> = Vec::new();
    let mut rows = 0usize;
    // Data lines start at line 2 (the header is line 1).
    for ln in 2.. {
        let Some(line) = next_line(&mut r, &mut buf, path, ln)? else {
            break;
        };
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let expected = d + usize::from(has_labels);
        if fields.len() != expected {
            // Located at the first missing or the first extra field.
            return Err(at(
                ln,
                Some(fields.len().min(expected) + 1),
                None,
                format!(
                    "ragged row: expected {expected} fields, got {}",
                    fields.len()
                ),
            ));
        }
        for (j, f) in fields[..d].iter().enumerate() {
            let v: f64 = f
                .parse()
                .map_err(|_| at(ln, Some(j + 1), Some(f), "cannot parse as a number".into()))?;
            if !v.is_finite() {
                return Err(at(ln, Some(j + 1), Some(f), "non-finite coordinate".into()));
            }
            data.push(v);
        }
        if has_labels {
            let tok = fields[d];
            labels.push(
                parse_label(tok)
                    .ok_or_else(|| at(ln, Some(d + 1), Some(tok), "bad label token".into()))?,
            );
        }
        rows += 1;
    }
    Ok((
        Matrix::from_vec(data, rows, d),
        has_labels.then_some(labels),
    ))
}

/// Read the next line into `buf` and return it without its `\n` or
/// `\r\n`; `None` at the end of the input. A line that is not UTF-8 is
/// a [`DataError::Csv`] at the field holding its first bad byte.
fn next_line<'b>(
    r: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    path: &Path,
    line: usize,
) -> Result<Option<&'b str>, DataError> {
    buf.clear();
    if r.read_until(b'\n', buf)
        .map_err(|e| DataError::io(path, e))?
        == 0
    {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    match std::str::from_utf8(buf) {
        Ok(text) => Ok(Some(text)),
        Err(e) => Err(DataError::Csv {
            path: path.into(),
            line,
            column: Some(
                buf[..e.valid_up_to()]
                    .iter()
                    .filter(|&&b| b == b',')
                    .count()
                    + 1,
            ),
            token: None,
            reason: "line is not UTF-8".into(),
        }),
    }
}

fn parse_label(tok: &str) -> Option<Label> {
    match tok {
        "O" | "Out." => Some(Label::Outlier),
        _ => tok
            .strip_prefix('C')
            .and_then(|rest| rest.parse().ok())
            .map(Label::Cluster),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env;

    fn tmp(name: &str) -> std::path::PathBuf {
        env::temp_dir().join(format!("proclus-data-io-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_with_labels() {
        let path = tmp("labels.csv");
        let m = Matrix::from_rows(&[[1.0, 2.5], [3.0, -4.0], [0.0, 100.0]], 2);
        let labels = vec![Label::Cluster(0), Label::Outlier, Label::Cluster(12)];
        write_csv(&path, &m, Some(&labels)).unwrap();
        let (m2, l2) = read_csv(&path).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, Some(labels));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_without_labels() {
        let path = tmp("nolabels.csv");
        let m = Matrix::from_rows(&[[1.0], [2.0]], 1);
        write_csv(&path, &m, None).unwrap();
        let (m2, l2) = read_csv(&path).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_csv_rejects_mismatched_labels() {
        let path = tmp("mismatch.csv");
        let m = Matrix::from_rows(&[[1.0], [2.0]], 1);
        let labels = vec![Label::Cluster(0)];
        let err = write_csv(&path, &m, Some(&labels)).unwrap_err();
        assert!(matches!(
            err,
            DataError::LengthMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ragged_row_is_rejected_with_location() {
        let path = tmp("ragged.csv");
        std::fs::write(&path, "x0,x1\n1.0,2.0\n3.0\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        match &err {
            DataError::Csv { line, .. } => assert_eq!(*line, 3),
            other => panic!("expected Csv error, got {other:?}"),
        }
        assert!(err.to_string().contains(":3"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_number_names_line_column_and_token() {
        let path = tmp("badnum.csv");
        std::fs::write(&path, "x0,x1\n1.0,2.0\n3.0,not-a-number\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        match &err {
            DataError::Csv {
                line,
                column,
                token,
                ..
            } => {
                assert_eq!(*line, 3);
                assert_eq!(*column, Some(2));
                assert_eq!(token.as_deref(), Some("not-a-number"));
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_cell_is_rejected() {
        let path = tmp("nan.csv");
        std::fs::write(&path, "x0,x1\n1.0,NaN\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        let path2 = tmp("inf.csv");
        std::fs::write(&path2, "x0\ninf\n").unwrap();
        assert!(read_csv(&path2).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn mismatched_header_is_rejected() {
        let path = tmp("badheader.csv");
        std::fs::write(&path, "x0,x2\n1.0,2.0\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("header column mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_rejected() {
        let path = tmp("empty.csv");
        std::fs::write(&path, "").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("empty file"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error_with_path() {
        let path = tmp("definitely-not-here.csv");
        let err = read_csv(&path).unwrap_err();
        assert!(matches!(err, DataError::Io { .. }));
        assert!(err.to_string().contains("definitely-not-here"), "{err}");
    }

    #[test]
    fn bad_label_is_rejected() {
        let path = tmp("badlabel.csv");
        std::fs::write(&path, "x0,label\n1.0,wat\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("bad label token"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_write_leaves_no_tmp_and_matches_roundtrip() {
        let path = tmp("streamed.csv");
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.5, -0.25], [1e-9, 4e12]], 2);
        let labels = vec![Label::Cluster(1), Label::Outlier, Label::Cluster(0)];
        write_csv(&path, &m, Some(&labels)).unwrap();
        // The staging file must be gone after a successful publish.
        assert!(!crate::atomic::tmp_path(&path).exists());
        let (m2, l2) = read_csv(&path).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, Some(labels));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_csv_into_missing_directory_is_a_located_io_error() {
        let path = std::path::PathBuf::from("/nonexistent-proclus-dir/x.csv");
        let m = Matrix::from_rows(&[[1.0]], 1);
        let err = write_csv(&path, &m, None).unwrap_err();
        assert!(matches!(err, DataError::Io { .. }), "{err:?}");
        assert!(err.to_string().contains("nonexistent-proclus-dir"), "{err}");
    }

    #[test]
    fn failed_write_csv_leaves_no_tmp() {
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]], 2);
        crate::atomic::assert_failed_write_leaves_nothing(&tmp("is-a-dir.csv"), |p| {
            write_csv(p, &m, Some(&[Label::Cluster(0), Label::Outlier]))
        });
    }

    #[test]
    fn encoders_write_the_documented_text() {
        assert_eq!(csv_header(3, true), "x0,x1,x2,label\n");
        assert_eq!(csv_header(1, false), "x0\n");
        let mut s = String::new();
        push_csv_row(&mut s, &[1.0, -0.5], Some(Label::Cluster(12)));
        push_csv_row(&mut s, &[1e-9, 4e12], Some(Label::Outlier));
        push_csv_row(&mut s, &[2.0], None);
        assert_eq!(s, "1,-0.5,C12\n0.000000001,4000000000000,O\n2\n");
    }

    #[test]
    fn non_utf8_line_names_line_and_column() {
        let err = read_csv_bytes(Path::new("<t>"), b"x0,x1\n1,2\n3,\xff\n").unwrap_err();
        match err {
            DataError::Csv { line, column, .. } => assert_eq!((line, column), (3, Some(2))),
            other => panic!("expected a located CSV error, got {other:?}"),
        }
    }

    #[test]
    fn label_tokens_parse() {
        assert_eq!(parse_label("O"), Some(Label::Outlier));
        assert_eq!(parse_label("Out."), Some(Label::Outlier));
        assert_eq!(parse_label("C7"), Some(Label::Cluster(7)));
        assert_eq!(parse_label("7"), None);
        assert_eq!(parse_label("Cx"), None);
    }
}
