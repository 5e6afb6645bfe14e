//! The crash-durable JSONL journal of accepted external events.

use super::IngestError;
use crate::event::Event;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One journal line: the idempotency key plus the exact admitted event
/// (uid and send stamp included, so a replay reconstructs it bit-identical).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord<P> {
    pub source: u32,
    pub id: u64,
    pub event: Event<P>,
}

/// Append-only JSONL journal of accepted events. Appends are flushed per
/// record; a torn final line (crash mid-append) is tolerated on read;
/// compaction rewrites through a temp file + rename.
pub struct IngestJournal {
    path: PathBuf,
    file: std::fs::File,
}

impl IngestJournal {
    /// Open (creating if absent) for appending.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|source| IngestError::Io {
                path: path.to_path_buf(),
                source,
            })?;
        Ok(IngestJournal {
            path: path.to_path_buf(),
            file,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record and flush it to the OS.
    pub fn append<P: Serialize>(&mut self, rec: &JournalRecord<P>) -> Result<(), IngestError> {
        let io_err = |source| IngestError::Io {
            path: self.path.clone(),
            source,
        };
        let mut line = serde_json::to_string(rec).expect("journal serialization is infallible");
        line.push('\n');
        self.file.write_all(line.as_bytes()).map_err(io_err)?;
        self.file.flush().map_err(io_err)
    }

    /// Read every record from `path`. A missing file reads as empty (a run
    /// that never accepted anything has no journal); an unparsable *final*
    /// line is a torn append and is dropped; an unparsable interior line is
    /// `Corrupt`.
    pub fn read_all<P: Deserialize>(path: &Path) -> Result<Vec<JournalRecord<P>>, IngestError> {
        Self::read(path).map(|(records, _)| records)
    }

    /// [`Self::read_all`], and whether the file ends in a torn append (an
    /// unparsable or unterminated last line, which an append would extend).
    pub(super) fn read<P: Deserialize>(
        path: &Path,
    ) -> Result<(Vec<JournalRecord<P>>, bool), IngestError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
            Err(source) => {
                return Err(IngestError::Io {
                    path: path.to_path_buf(),
                    source,
                })
            }
        };
        let mut torn = !text.is_empty() && !text.ends_with('\n');
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut out = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match serde_json::from_str::<JournalRecord<P>>(line) {
                Ok(rec) => out.push(rec),
                Err(_) if i + 1 == lines.len() => torn = true,
                Err(e) => {
                    return Err(IngestError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!("line {}: {e}", i + 1),
                    })
                }
            }
        }
        Ok((out, torn))
    }

    /// Rewrite `path` to exactly `keep`, atomically (temp file + rename —
    /// the same discipline as `Checkpoint::write_atomic`).
    pub fn compact<P: Serialize>(
        path: &Path,
        keep: &[JournalRecord<P>],
    ) -> Result<(), IngestError> {
        let io_err = |source| IngestError::Io {
            path: path.to_path_buf(),
            source,
        };
        let mut text = String::new();
        for rec in keep {
            text.push_str(&serde_json::to_string(rec).expect("journal serialization"));
            text.push('\n');
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, text).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }
}
