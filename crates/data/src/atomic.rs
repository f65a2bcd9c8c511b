//! The crash-safe file writer: every file the workspace writes — CSV
//! and `PRCL` datasets, `PRCK` chunk files, registry entries and the
//! registry's `CURRENT` pointer — goes through [`write_with`].
//!
//! The protocol: stage the bytes in `<path>.tmp` through a
//! [`BufWriter`], flush, fsync, rename over `path` (atomic on POSIX),
//! then fsync the parent directory so the rename itself is durable
//! (best effort: some filesystems refuse directory opens). A failure at
//! any step removes the temp file, so a failed write leaves nothing
//! behind; only a crash can leave a `<path>.tmp`, never a torn `path`.

use crate::error::DataError;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The temp-file sibling that [`write_with`] stages into: `<path>.tmp`.
///
/// Exposed so recovery scans (and tests) can recognize the leftovers of
/// a write that died before its rename.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The staged `<path>.tmp` that a [`write_with`] fill writes into.
pub struct StagedFile {
    tmp: PathBuf,
    w: BufWriter<File>,
}

impl StagedFile {
    /// Append `bytes` to the staged file.
    ///
    /// # Errors
    ///
    /// [`DataError::Io`] naming the temp file.
    pub fn write_all(&mut self, bytes: &[u8]) -> Result<(), DataError> {
        self.w
            .write_all(bytes)
            .map_err(|e| DataError::io(&self.tmp, e))
    }
}

/// Write `path` crash-safely: `fill` streams the content into the
/// staged temp file, which is then flushed, fsynced and renamed over
/// `path`. Returns what `fill` returns.
///
/// # Errors
///
/// The first error of `fill`, or [`DataError::Io`] naming the temp file
/// (create, write, flush, fsync) or `path` (rename). On any error the
/// temp file is removed.
pub fn write_with<T>(
    path: &Path,
    fill: impl FnOnce(&mut StagedFile) -> Result<T, DataError>,
) -> Result<T, DataError> {
    let tmp = tmp_path(path);
    let file = File::create(&tmp).map_err(|e| DataError::io(&tmp, e))?;
    let mut staged = StagedFile {
        tmp,
        w: BufWriter::new(file),
    };
    let committed = fill(&mut staged).and_then(|value| {
        let StagedFile { tmp, w } = staged;
        let file = w
            .into_inner()
            .map_err(|e| DataError::io(&tmp, e.into_error()))?;
        file.sync_all().map_err(|e| DataError::io(&tmp, e))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| DataError::io(path, e))?;
        Ok(value)
    });
    if committed.is_err() {
        let _ = fs::remove_file(tmp_path(path));
    }
    let value = committed?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(value)
}

/// Crash-safe whole-file write of `bytes` (see [`write_with`]).
///
/// # Errors
///
/// [`DataError::Io`] naming the temp or final path on any failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), DataError> {
    write_with(path, |w| w.write_all(bytes))
}

/// Test helper: make `path` an existing directory, so `write`'s rename
/// fails after its temp file is complete, then check that the error is
/// [`DataError::Io`] naming `path` and that no `<path>.tmp` is left.
#[cfg(test)]
pub(crate) fn assert_failed_write_leaves_nothing<T: std::fmt::Debug>(
    path: &Path,
    write: impl FnOnce(&Path) -> Result<T, DataError>,
) {
    fs::create_dir_all(path).unwrap();
    let err = write(path).unwrap_err();
    let leftover = tmp_path(path).exists();
    let _ = fs::remove_file(tmp_path(path));
    fs::remove_dir(path).unwrap();
    assert!(
        matches!(&err, DataError::Io { path: p, .. } if p == path),
        "{err:?}"
    );
    assert!(!leftover, "{} left behind", tmp_path(path).display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("proclus-atomic-{name}-{}", std::process::id()))
    }

    #[test]
    fn a_failing_fill_removes_the_temp_and_keeps_the_old_file() {
        let path = target("fill");
        write_atomic(&path, b"old").unwrap();
        let err = write_with(&path, |w| {
            w.write_all(b"new, half written")?;
            Err::<(), _>(DataError::InvalidSpec("stop".into()))
        })
        .unwrap_err();
        assert!(matches!(err, DataError::InvalidSpec(_)), "{err:?}");
        assert!(!tmp_path(&path).exists());
        assert_eq!(fs::read(&path).unwrap(), b"old");
        fs::remove_file(&path).unwrap();
    }
}
