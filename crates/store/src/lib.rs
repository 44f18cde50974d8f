//! Crash-safe single-file snapshot store: a versioned, checksummed
//! binary format holding a graph (its vertex count and edge list) and
//! solver artifacts, written atomically and loaded defensively.
//!
//! # Byte layout
//!
//! All integers are little-endian. The file is a fixed header, a run of
//! length-prefixed sections, and a whole-file footer:
//!
//! ```text
//! header   magic      8 bytes   b"RPATHSNP"
//!          version    u32       currently 2
//! section  tag        u32       section type (see below)
//!          len        u64       payload length in bytes
//!          payload    len bytes
//!          crc        u32       CRC32 (IEEE) of tag ‖ len ‖ payload
//! footer   magic      4 bytes   b"RPFT"
//!          crc        u32       CRC32 of every preceding file byte
//! ```
//!
//! Section tags: [`TAG_GRAPH`] (payload is
//! `graphkit::DiGraph::to_snapshot`), [`TAG_BLOB`], and [`TAG_CACHE`]
//! (artifact sections: a length-prefixed UTF-8 key, then a
//! kind-specific body — the session-cache codec lives in
//! `rpaths_core::artifacts`). Exactly one graph section is required;
//! artifact sections are optional and ordered. Unknown tags are skipped
//! on load. Version 1 files, whose graph payload also stored the CSR
//! indexes (and which could hold the retired tags 2 and 3, raw distance
//! arrays and BFS trees), are refused with
//! [`StoreError::VersionUnsupported`].
//!
//! # Durability contract
//!
//! [`Snapshot::write`] (and the reusable [`atomic_write`]) goes through
//! a temp file in the destination directory, `fsync`s it, atomically
//! renames it over the destination, and `fsync`s the directory: a crash
//! at any point leaves either the old snapshot or the new one on disk,
//! never a torn file.
//!
//! # Degraded loads
//!
//! [`Snapshot::decode`] never panics on untrusted bytes. Corruption
//! *before* the graph is recovered — bad magic, unsupported version, a
//! graph section that fails its checksum, truncation inside the header
//! or graph — is a fatal [`StoreError`]. Corruption *after* the graph
//! is recovered degrades: the damaged artifact sections are dropped
//! (with their [`StoreError`] attached) and the caller gets
//! [`Loaded::Partial`] so it can recompute only what was lost,
//! mirroring the `Recovery::Degraded` contract of the fault-recovery
//! layer. Unknown section tags are skipped and reported for forward
//! compatibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use graphkit::DiGraph;

/// File magic: the first 8 bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"RPATHSNP";
/// Current format version.
pub const VERSION: u32 = 2;
/// Footer magic: the 4 bytes introducing the whole-file checksum.
pub const FOOTER_MAGIC: [u8; 4] = *b"RPFT";

/// Section tag: the graph payload (`DiGraph::to_snapshot` bytes).
pub const TAG_GRAPH: u32 = 1;
/// Section tag: a keyed opaque-blob artifact (forward-compatible).
pub const TAG_BLOB: u32 = 4;
/// Section tag: one solver-session cache entry (see
/// `rpaths_core::artifacts::cache_artifact`). The body opens with the
/// graph fingerprint the entry was computed for; readers drop entries
/// whose fingerprint does not match the graph in hand, and any
/// corruption here degrades the load to [`Loaded::Partial`] (a cold
/// cache), never a failed graph load.
pub const TAG_CACHE: u32 = 5;

const HEADER_LEN: usize = 12;
const SECTION_HDR_LEN: usize = 12;
const FOOTER_LEN: usize = 8;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3), vendored: no external checksum dependency.
// ---------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE polynomial, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a snapshot could not be read or written.
///
/// Every decode path returns one of these — loads never panic on bad
/// input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (open/read/write/rename); the kind and
    /// rendered message of the underlying `io::Error`.
    Io {
        /// `io::ErrorKind` of the failure.
        kind: io::ErrorKind,
        /// Rendered message.
        message: String,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header's format version is not one this build reads.
    VersionUnsupported {
        /// The version found in the header.
        found: u32,
    },
    /// A section's stored CRC32 does not match its bytes.
    SectionChecksum {
        /// Zero-based index of the failing section.
        section: usize,
    },
    /// The footer's whole-file CRC32 does not match the file bytes.
    FooterChecksum,
    /// The file ends before the structure it promised.
    Truncated {
        /// Byte offset the decoder needed the file to reach.
        expected: usize,
        /// Actual file length.
        got: usize,
    },
    /// Well-formed footer followed by unexpected extra bytes.
    TrailingBytes {
        /// Offset of the first byte past the footer.
        after: usize,
    },
    /// No graph section was present.
    MissingGraph,
    /// A section's payload passed its checksum but failed structural
    /// validation (writer bug or handcrafted file).
    Malformed {
        /// Zero-based index of the failing section.
        section: usize,
        /// Human-readable cause.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { kind, message } => {
                write!(f, "snapshot I/O error ({kind:?}): {message}")
            }
            StoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            StoreError::VersionUnsupported { found } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (this build reads {VERSION})"
                )
            }
            StoreError::SectionChecksum { section } => {
                write!(f, "section {section} failed its checksum")
            }
            StoreError::FooterChecksum => write!(f, "whole-file footer checksum mismatch"),
            StoreError::Truncated { expected, got } => {
                write!(
                    f,
                    "snapshot truncated: needed {expected} bytes, file has {got}"
                )
            }
            StoreError::TrailingBytes { after } => {
                write!(f, "trailing bytes after the footer (offset {after})")
            }
            StoreError::MissingGraph => write!(f, "snapshot has no graph section"),
            StoreError::Malformed { section, detail } => {
                write!(f, "section {section} is malformed: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------

/// A keyed, typed artifact riding in the snapshot next to the graph.
///
/// The store frames and checksums artifacts but treats their bodies as
/// opaque; the typed encode/decode for session-cache entries lives in
/// `rpaths_core::artifacts`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    /// Section tag this artifact is written under ([`TAG_BLOB`] or
    /// [`TAG_CACHE`]).
    pub kind: u32,
    /// Caller-chosen identity, e.g. `"unweighted/replacement"`.
    pub key: String,
    /// Kind-specific body bytes.
    pub body: Vec<u8>,
}

impl Artifact {
    /// An opaque-blob artifact.
    pub fn blob(key: impl Into<String>, body: Vec<u8>) -> Artifact {
        Artifact {
            kind: TAG_BLOB,
            key: key.into(),
            body,
        }
    }
}

/// Everything a snapshot file holds: the graph and its artifacts.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The graph, rebuilt from its edge list.
    pub graph: DiGraph,
    /// Artifacts, in file order.
    pub artifacts: Vec<Artifact>,
}

/// A section the loader had to give up on during a degraded load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dropped {
    /// Zero-based index of the section in the file.
    pub section: usize,
    /// The section's tag (0 when the frame was too damaged to read it).
    pub tag: u32,
    /// What was wrong with it.
    pub error: StoreError,
}

/// The result of a successful-enough load.
#[derive(Clone, Debug)]
pub enum Loaded {
    /// Every section decoded; the snapshot is exactly what was written.
    Complete {
        /// The decoded snapshot.
        snapshot: Snapshot,
        /// Tags of unknown sections that were skipped (forward
        /// compatibility); empty for files this build wrote.
        skipped_unknown: Vec<u32>,
    },
    /// The graph decoded but some artifact sections did not: callers
    /// keep the graph and recompute only what `dropped` lost.
    Partial {
        /// The graph plus every artifact that survived.
        recovered: Snapshot,
        /// The sections that were lost, with their structured errors.
        dropped: Vec<Dropped>,
        /// Tags of unknown sections that were skipped.
        skipped_unknown: Vec<u32>,
    },
}

impl Loaded {
    /// The recovered snapshot, complete or partial.
    pub fn snapshot(&self) -> &Snapshot {
        match self {
            Loaded::Complete { snapshot, .. } => snapshot,
            Loaded::Partial { recovered, .. } => recovered,
        }
    }

    /// Consumes the load, keeping the recovered snapshot.
    pub fn into_snapshot(self) -> Snapshot {
        match self {
            Loaded::Complete { snapshot, .. } => snapshot,
            Loaded::Partial { recovered, .. } => recovered,
        }
    }

    /// `true` when sections were dropped.
    pub fn is_partial(&self) -> bool {
        matches!(self, Loaded::Partial { .. })
    }

    /// The dropped sections (empty for [`Loaded::Complete`]).
    pub fn dropped(&self) -> &[Dropped] {
        match self {
            Loaded::Complete { .. } => &[],
            Loaded::Partial { dropped, .. } => dropped,
        }
    }

    /// Unwraps a [`Loaded::Complete`] load.
    ///
    /// # Panics
    ///
    /// Panics with the dropped-section list if the load was partial.
    pub fn expect_complete(self, context: &str) -> Snapshot {
        match self {
            Loaded::Complete { snapshot, .. } => snapshot,
            Loaded::Partial { dropped, .. } => {
                panic!("{context}: load was partial, dropped {dropped:?}")
            }
        }
    }
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

fn push_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn artifact_payload(a: &Artifact) -> Vec<u8> {
    let mut p = Vec::with_capacity(4 + a.key.len() + a.body.len());
    p.extend_from_slice(&(a.key.len() as u32).to_le_bytes());
    p.extend_from_slice(a.key.as_bytes());
    p.extend_from_slice(&a.body);
    p
}

impl Snapshot {
    /// A snapshot of `graph` with no artifacts (yet).
    pub fn new(graph: DiGraph) -> Snapshot {
        Snapshot {
            graph,
            artifacts: Vec::new(),
        }
    }

    /// Encodes the snapshot into the documented byte format.
    ///
    /// Deterministic: the same snapshot always yields the same bytes,
    /// and `decode ∘ encode` round-trips bit-identically.
    pub fn encode(&self) -> Vec<u8> {
        let graph_payload = self.graph.to_snapshot();
        let mut out = Vec::with_capacity(HEADER_LEN + graph_payload.len() + 64);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        push_section(&mut out, TAG_GRAPH, &graph_payload);
        for a in &self.artifacts {
            push_section(&mut out, a.kind, &artifact_payload(a));
        }
        let crc = crc32(&out);
        out.extend_from_slice(&FOOTER_MAGIC);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes snapshot bytes, degrading on artifact corruption.
    ///
    /// # Errors
    ///
    /// Fatal [`StoreError`]s are reserved for damage that loses the
    /// graph: bad magic/version, truncation at or before the graph
    /// section, a graph checksum or validation failure, a missing graph
    /// section, or trailing bytes after a valid footer. Damage confined
    /// to artifact sections (or a missing/invalid footer once the graph
    /// is out) returns `Ok(Loaded::Partial { .. })` instead.
    pub fn decode(bytes: &[u8]) -> Result<Loaded, StoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                expected: HEADER_LEN,
                got: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::VersionUnsupported { found: version });
        }

        let mut pos = HEADER_LEN;
        let mut graph: Option<DiGraph> = None;
        let mut artifacts: Vec<Artifact> = Vec::new();
        let mut dropped: Vec<Dropped> = Vec::new();
        let mut skipped_unknown: Vec<u32> = Vec::new();
        let mut section = 0usize;
        let mut saw_footer = false;

        // One closure-shaped policy, written out because the borrowchecker
        // wants it that way: an error is fatal until the graph is
        // recovered, and a dropped section afterwards.
        macro_rules! fail_or_drop {
            ($tag:expr, $err:expr) => {{
                let err = $err;
                if graph.is_none() {
                    return Err(err);
                }
                dropped.push(Dropped {
                    section,
                    tag: $tag,
                    error: err,
                });
            }};
        }

        while pos < bytes.len() {
            if bytes.len() - pos >= 4 && bytes[pos..pos + 4] == FOOTER_MAGIC {
                // Footer. Verify the whole-file checksum and stop.
                if bytes.len() - pos < FOOTER_LEN {
                    fail_or_drop!(
                        0,
                        StoreError::Truncated {
                            expected: pos + FOOTER_LEN,
                            got: bytes.len(),
                        }
                    );
                    pos = bytes.len();
                    break;
                }
                let stored = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
                if stored != crc32(&bytes[..pos]) {
                    fail_or_drop!(0, StoreError::FooterChecksum);
                }
                pos += FOOTER_LEN;
                saw_footer = true;
                break;
            }
            if bytes.len() - pos < SECTION_HDR_LEN {
                fail_or_drop!(
                    0,
                    StoreError::Truncated {
                        expected: pos + SECTION_HDR_LEN,
                        got: bytes.len(),
                    }
                );
                pos = bytes.len();
                break;
            }
            let tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
            let frame_end = (pos + SECTION_HDR_LEN)
                .checked_add(usize::try_from(len).unwrap_or(usize::MAX))
                .and_then(|e| e.checked_add(4));
            let Some(frame_end) = frame_end.filter(|&e| e <= bytes.len()) else {
                // A corrupt length field destroys the framing of
                // everything downstream; stop walking.
                fail_or_drop!(
                    tag,
                    StoreError::Truncated {
                        expected: frame_end.unwrap_or(usize::MAX),
                        got: bytes.len(),
                    }
                );
                pos = bytes.len();
                break;
            };
            let body_end = frame_end - 4;
            let stored = u32::from_le_bytes(bytes[body_end..frame_end].try_into().unwrap());
            if stored != crc32(&bytes[pos..body_end]) {
                // The payload is untrustworthy, but the frame parsed:
                // skip this section and keep walking.
                fail_or_drop!(tag, StoreError::SectionChecksum { section });
                pos = frame_end;
                section += 1;
                continue;
            }
            let payload = &bytes[pos + SECTION_HDR_LEN..body_end];
            match tag {
                TAG_GRAPH => {
                    if graph.is_some() {
                        fail_or_drop!(
                            tag,
                            StoreError::Malformed {
                                section,
                                detail: "duplicate graph section".into(),
                            }
                        );
                    } else {
                        match DiGraph::from_snapshot(payload) {
                            Ok(g) => graph = Some(g),
                            Err(e) => {
                                return Err(StoreError::Malformed {
                                    section,
                                    detail: e.to_string(),
                                })
                            }
                        }
                    }
                }
                TAG_BLOB | TAG_CACHE => match decode_artifact(tag, payload) {
                    Ok(a) => artifacts.push(a),
                    Err(detail) => {
                        fail_or_drop!(tag, StoreError::Malformed { section, detail })
                    }
                },
                unknown => skipped_unknown.push(unknown),
            }
            pos = frame_end;
            section += 1;
        }

        let Some(graph) = graph else {
            return Err(StoreError::MissingGraph);
        };
        if saw_footer && pos != bytes.len() {
            return Err(StoreError::TrailingBytes { after: pos });
        }
        if !saw_footer && dropped.is_empty() {
            // Clean parse but the footer never appeared: torn tail.
            dropped.push(Dropped {
                section,
                tag: 0,
                error: StoreError::Truncated {
                    expected: bytes.len() + FOOTER_LEN,
                    got: bytes.len(),
                },
            });
        }
        let snapshot = Snapshot { graph, artifacts };
        if dropped.is_empty() {
            Ok(Loaded::Complete {
                snapshot,
                skipped_unknown,
            })
        } else {
            Ok(Loaded::Partial {
                recovered: snapshot,
                dropped,
                skipped_unknown,
            })
        }
    }

    /// Atomically writes the snapshot to `path` (see [`atomic_write`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        atomic_write(path.as_ref(), &self.encode())?;
        Ok(())
    }

    /// Reads and decodes the snapshot at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read, otherwise
    /// whatever [`Snapshot::decode`] reports.
    pub fn read(path: impl AsRef<Path>) -> Result<Loaded, StoreError> {
        let mut bytes = Vec::new();
        File::open(path.as_ref())?.read_to_end(&mut bytes)?;
        Snapshot::decode(&bytes)
    }
}

fn decode_artifact(kind: u32, payload: &[u8]) -> Result<Artifact, String> {
    if payload.len() < 4 {
        return Err(format!(
            "artifact payload too short ({} bytes)",
            payload.len()
        ));
    }
    let key_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    let Some(key_bytes) = payload.get(4..4 + key_len) else {
        return Err(format!(
            "artifact key length {key_len} exceeds payload ({} bytes)",
            payload.len()
        ));
    };
    let key = std::str::from_utf8(key_bytes)
        .map_err(|e| format!("artifact key is not UTF-8: {e}"))?
        .to_string();
    Ok(Artifact {
        kind,
        key,
        body: payload[4 + key_len..].to_vec(),
    })
}

// ---------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` crash-safely: temp file in the same
/// directory, `fsync`, atomic rename over the destination, directory
/// `fsync`. A crash at any point leaves either the old file or the new
/// one, never a torn mix.
///
/// # Errors
///
/// Any `io::Error` from create/write/sync/rename; the temp file is
/// removed on failure (best effort).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // Make the rename itself durable. Opening a directory read-only for
    // fsync works on unix; elsewhere this is best-effort.
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::metro_ring;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(metro_ring(6));
        s.artifacts.push(Artifact::blob("alpha", vec![1, 2, 3]));
        s.artifacts.push(Artifact {
            kind: TAG_CACHE,
            key: "beta".into(),
            body: vec![9; 24],
        });
        s
    }

    #[test]
    fn crc32_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let bytes = snap.encode();
        let loaded = Snapshot::decode(&bytes).unwrap();
        let back = loaded.expect_complete("round trip");
        assert_eq!(back.artifacts, snap.artifacts);
        assert_eq!(back.graph.to_snapshot(), snap.graph.to_snapshot());
        // Determinism: re-encoding reproduces the bytes exactly.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn empty_and_tiny_inputs_are_structured_errors() {
        assert_eq!(
            Snapshot::decode(&[]).err(),
            Some(StoreError::Truncated {
                expected: HEADER_LEN,
                got: 0
            })
        );
        assert_eq!(
            Snapshot::decode(&[0u8; 32]).err(),
            Some(StoreError::BadMagic)
        );
        let mut v = MAGIC.to_vec();
        v.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(
            Snapshot::decode(&v).err(),
            Some(StoreError::VersionUnsupported { found: 7 })
        );
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let snap = sample();
        let mut bytes = snap.encode();
        // Rebuild with an extra unknown section before the footer.
        bytes.truncate(bytes.len() - FOOTER_LEN);
        push_section(&mut bytes, 0xbeef, b"from the future");
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&FOOTER_MAGIC);
        bytes.extend_from_slice(&crc.to_le_bytes());
        match Snapshot::decode(&bytes).unwrap() {
            Loaded::Complete {
                snapshot,
                skipped_unknown,
            } => {
                assert_eq!(skipped_unknown, vec![0xbeef]);
                assert_eq!(snapshot.artifacts.len(), 2);
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_artifact_degrades_but_keeps_graph() {
        let snap = sample();
        let graph_bytes = snap.graph.to_snapshot();
        let mut bytes = snap.encode();
        // Flip a byte near the end: inside the last artifact's payload.
        let idx = bytes.len() - FOOTER_LEN - 10;
        bytes[idx] ^= 0xff;
        match Snapshot::decode(&bytes).unwrap() {
            Loaded::Partial {
                recovered, dropped, ..
            } => {
                assert_eq!(recovered.graph.to_snapshot(), graph_bytes);
                assert!(dropped
                    .iter()
                    .any(|d| matches!(d.error, StoreError::SectionChecksum { .. })
                        || matches!(d.error, StoreError::FooterChecksum)));
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_graph_is_fatal() {
        let mut bytes = sample().encode();
        // Flip a byte inside the graph payload (the first section).
        bytes[HEADER_LEN + SECTION_HDR_LEN + 8] ^= 0x40;
        match Snapshot::decode(&bytes) {
            Err(StoreError::SectionChecksum { section: 0 }) => {}
            other => panic!("expected graph checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn missing_graph_is_fatal() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&FOOTER_MAGIC);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Snapshot::decode(&bytes).err(),
            Some(StoreError::MissingGraph)
        );
    }

    #[test]
    fn trailing_bytes_are_fatal() {
        let mut bytes = sample().encode();
        bytes.extend_from_slice(b"junk");
        assert_eq!(
            Snapshot::decode(&bytes).err(),
            Some(StoreError::TrailingBytes {
                after: bytes.len() - 4
            })
        );
    }

    #[test]
    fn atomic_write_replaces_and_survives() {
        let dir = std::env::temp_dir().join(format!("rpaths-store-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        atomic_write(&path, b"old").unwrap();
        atomic_write(&path, b"new contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new contents");
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("rpaths-store-file-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let snap = sample();
        snap.write(&path).unwrap();
        let back = Snapshot::read(&path).unwrap().expect_complete("file");
        assert_eq!(back.encode(), snap.encode());
        let _ = fs::remove_dir_all(&dir);
    }
}
