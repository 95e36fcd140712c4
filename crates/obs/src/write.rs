//! Typed filesystem-write errors for observability outputs.
//!
//! `--metrics-out`, `--audit-dir`, and `--trace-out` all end in "write
//! a JSON document somewhere the operator pointed at". A raw
//! `io::Error` bubble loses the one thing the operator needs: *which*
//! path failed and at *which* step (creating the parent directory vs.
//! writing the file). [`WriteError`] keeps both, and
//! [`write_with_parents`] and [`stream_with_parents`] create missing
//! parent directories instead of failing on them.

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A failed observability-output write, with the path and step attached.
#[derive(Debug)]
pub enum WriteError {
    /// Creating a missing parent (or target) directory failed.
    CreateDir {
        /// The directory that could not be created.
        dir: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Writing the file itself failed.
    Write {
        /// The file that could not be written.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::CreateDir { dir, source } => {
                write!(f, "cannot create directory {}: {source}", dir.display())
            }
            WriteError::Write { path, source } => {
                write!(f, "cannot write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WriteError::CreateDir { source, .. } | WriteError::Write { source, .. } => Some(source),
        }
    }
}

/// Creates `dir` (and any missing ancestors), reporting the failing
/// directory on error.
pub fn ensure_dir(dir: &Path) -> Result<(), WriteError> {
    std::fs::create_dir_all(dir).map_err(|source| WriteError::CreateDir {
        dir: dir.to_path_buf(),
        source,
    })
}

/// Writes `contents` to `path`, creating missing parent directories
/// first. `--metrics-out out/run7/metrics.json` should create
/// `out/run7/`, not fail with `No such file or directory`.
pub fn write_with_parents(path: &Path, contents: &str) -> Result<(), WriteError> {
    stream_with_parents(path, |file| file.write_all(contents.as_bytes()))
}

/// Creates `path`, and its missing parent directories first, and hands
/// the file to `write`, which streams the contents into it. A failure to
/// create or write the file, part-way included, names `path`.
pub fn stream_with_parents(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), WriteError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            ensure_dir(parent)?;
        }
    }
    std::fs::File::create(path)
        .and_then(|mut file| write(&mut file))
        .map_err(|source| WriteError::Write {
            path: path.to_path_buf(),
            source,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcpa-obs-write-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn creates_missing_parents() {
        let root = temp_dir("parents");
        let path = root.join("deep/nested/metrics.json");
        write_with_parents(&path, "{}\n").expect("creates parents and writes");
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), "{}\n");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reports_failing_path() {
        let root = temp_dir("blocked");
        std::fs::create_dir_all(&root).expect("mk root");
        // A file where a directory must go makes create_dir_all fail.
        let blocker = root.join("blocker");
        std::fs::write(&blocker, "").expect("mk blocker");
        let err = write_with_parents(&blocker.join("x/y.json"), "{}")
            .expect_err("cannot create dir under a file");
        let msg = err.to_string();
        assert!(msg.contains("cannot create directory"), "{msg}");
        assert!(msg.contains("blocker"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_write_failing_part_way_names_the_path() {
        let root = temp_dir("partway");
        let path = root.join("trace.json");
        let err = stream_with_parents(&path, |file| {
            file.write_all(b"{\n")?;
            Err(io::Error::other("disk full"))
        })
        .expect_err("the writer failed");
        assert!(matches!(err, WriteError::Write { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("cannot write") && msg.contains("trace.json"),
            "{msg}"
        );
        assert!(msg.contains("disk full"), "{msg}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
