//! Crash-safe single-file snapshot store: a versioned, checksummed
//! binary format holding a graph (its vertex count and edge list) and
//! keyed artifacts, written atomically and loaded defensively. This
//! crate owns the whole byte format, the graph payload included.
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
//! Two section tags are live:
//!
//! - [`TAG_GRAPH`], exactly one: the graph as `n: u64`, `m: u64`, then
//!   `m × { from: u32, to: u32, weight: u64 }`, `16 + 16·m` bytes. The
//!   CSR indexes are not stored: the decoder adds the edges through
//!   [`GraphBuilder::try_add_edge`] and builds, like every other graph,
//!   so neighbor order survives every round trip and no payload decodes
//!   to a graph its edges do not build.
//! - [`TAG_ARTIFACT`], any number, in order: a keyed artifact, a
//!   length-prefixed UTF-8 key and then an opaque body. The key names
//!   what the body holds; the session-cache codec lives in
//!   `rpaths_core::artifacts`.
//!
//! Tags 2, 3 and 5 are retired (raw distance arrays, BFS trees, and
//! session-cache entries before they became plain artifacts) and skip
//! on load like any tag this build does not know. Version 1 files,
//! whose graph payload also stored the CSR indexes, are refused with
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
//! graph section that fails its checksum or its validation (counts past
//! the format's limits, an edge count the bytes cannot hold, an edge
//! [`GraphBuilder::try_add_edge`] refuses, trailing bytes), truncation
//! inside the header or graph — is a fatal [`StoreError`]. Corruption
//! *after* the graph is recovered degrades: the damaged artifact
//! sections are dropped and listed, with their [`StoreError`], in the
//! [`Loaded`] result's `dropped` field, so the caller can recompute only
//! what was lost, mirroring the `Recovery::Degraded` contract of the
//! fault-recovery layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use graphkit::{DiGraph, GraphBuilder};

/// File magic: the first 8 bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"RPATHSNP";
/// Current format version.
pub const VERSION: u32 = 2;
/// Footer magic: the 4 bytes introducing the whole-file checksum.
pub const FOOTER_MAGIC: [u8; 4] = *b"RPFT";

/// Section tag: the graph payload.
pub const TAG_GRAPH: u32 = 1;
/// Section tag: one keyed artifact. Any corruption here drops the
/// artifact, never the graph.
pub const TAG_ARTIFACT: u32 = 4;

const HEADER_LEN: usize = 12;
const SECTION_HDR_LEN: usize = 12;
const FOOTER_LEN: usize = 8;

/// Largest vertex count a graph payload may declare: `2^24`. Building
/// an edgeless graph of that size takes a few hundred MiB; a larger
/// count is refused before anything is allocated.
const MAX_NODES: u64 = 1 << 24;

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

/// A keyed artifact riding in the snapshot next to the graph.
///
/// The store frames and checksums artifacts but treats their bodies as
/// opaque; the typed encode/decode for session-cache entries lives in
/// `rpaths_core::artifacts`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    /// Caller-chosen identity naming what the body holds, e.g.
    /// `"cache/…/diameter"` or `"fuzz/fixture"`.
    pub key: String,
    /// The body bytes.
    pub body: Vec<u8>,
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

/// A load that recovered the graph.
#[derive(Clone, Debug)]
pub struct Loaded {
    /// The graph plus every artifact that decoded, in file order.
    pub snapshot: Snapshot,
    /// The sections that were lost, with their structured errors; empty
    /// for a complete load. Callers keep the graph and recompute only
    /// what these held.
    pub dropped: Vec<Dropped>,
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

/// Appends one section: its tag, its length, the payload `write`
/// appends, and the CRC over all three.
fn push_section(out: &mut Vec<u8>, tag: u32, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    write(out);
    let len = (out.len() - start - SECTION_HDR_LEN) as u64;
    out[start + 4..start + SECTION_HDR_LEN].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends the graph payload: `n`, `m`, then every edge.
fn push_graph(out: &mut Vec<u8>, graph: &DiGraph) {
    out.extend_from_slice(&(graph.node_count() as u64).to_le_bytes());
    out.extend_from_slice(&(graph.edge_count() as u64).to_le_bytes());
    for (_, e) in graph.edges() {
        out.extend_from_slice(&(e.from as u32).to_le_bytes());
        out.extend_from_slice(&(e.to as u32).to_le_bytes());
        out.extend_from_slice(&e.weight.to_le_bytes());
    }
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
        let graph_len = 16 + 16 * self.graph.edge_count();
        let mut out = Vec::with_capacity(HEADER_LEN + SECTION_HDR_LEN + graph_len + 64);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        push_section(&mut out, TAG_GRAPH, |out| push_graph(out, &self.graph));
        for a in &self.artifacts {
            push_section(&mut out, TAG_ARTIFACT, |out| {
                out.extend_from_slice(&(a.key.len() as u32).to_le_bytes());
                out.extend_from_slice(a.key.as_bytes());
                out.extend_from_slice(&a.body);
            });
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
    /// is out) lists the lost sections in [`Loaded`]'s `dropped` field
    /// instead.
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
                        graph = Some(
                            decode_graph(payload)
                                .map_err(|detail| StoreError::Malformed { section, detail })?,
                        );
                    }
                }
                TAG_ARTIFACT => match decode_artifact(payload) {
                    Ok(a) => artifacts.push(a),
                    Err(detail) => {
                        fail_or_drop!(tag, StoreError::Malformed { section, detail })
                    }
                },
                // The retired tags 2, 3 and 5, or a tag from the future.
                _ => {}
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
        Ok(Loaded {
            snapshot: Snapshot { graph, artifacts },
            dropped,
        })
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

/// Decodes a graph payload, checking the counts against the format's
/// limits and the edge count against the bytes before anything is
/// allocated for it; the `Err` is the [`StoreError::Malformed`] detail.
fn decode_graph(payload: &[u8]) -> Result<DiGraph, String> {
    let truncated = |expected: u64| {
        format!(
            "graph payload truncated: needed {expected} bytes, got {}",
            payload.len()
        )
    };
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    if payload.len() < 16 {
        return Err(truncated(16));
    }
    let (n, m) = (word(0), word(8));
    // Endpoints are stored as u32, and the built indexes hold edge ids
    // as u32. Vertices cost the build memory but the payload no bytes,
    // so their count has a tighter limit of its own.
    if n > MAX_NODES || m > u32::MAX as u64 {
        return Err(format!(
            "malformed graph payload: graph too large for the format: n = {n}, m = {m}"
        ));
    }
    let end = 16 + 16 * m;
    if (payload.len() as u64) < end {
        return Err(truncated(end));
    }
    if payload.len() as u64 > end {
        return Err(format!(
            "graph payload has trailing bytes after offset {end}"
        ));
    }
    let mut builder = GraphBuilder::new(n as usize);
    for (i, e) in payload[16..].chunks_exact(16).enumerate() {
        let from = u32::from_le_bytes(e[..4].try_into().unwrap()) as usize;
        let to = u32::from_le_bytes(e[4..8].try_into().unwrap()) as usize;
        let weight = u64::from_le_bytes(e[8..].try_into().unwrap());
        builder.try_add_edge(from, to, weight).map_err(|rule| {
            format!("malformed graph payload: edge {i} ({from} -> {to}, n = {n}): {rule}")
        })?;
    }
    Ok(builder.build())
}

fn decode_artifact(payload: &[u8]) -> Result<Artifact, String> {
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
    use graphkit::gen::{metro_ring, power_law_digraph, random_weighted_digraph};

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(metro_ring(6));
        for (key, body) in [("alpha", vec![1, 2, 3]), ("beta", vec![9; 24])] {
            s.artifacts.push(Artifact {
                key: key.into(),
                body,
            });
        }
        s
    }

    fn graph_payload(g: &DiGraph) -> Vec<u8> {
        let mut out = Vec::new();
        push_graph(&mut out, g);
        out
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
        assert!(loaded.dropped.is_empty());
        assert_eq!(loaded.snapshot.artifacts, snap.artifacts);
        assert_eq!(loaded.snapshot.graph, snap.graph);
        // Determinism: re-encoding reproduces the bytes exactly.
        assert_eq!(loaded.snapshot.encode(), bytes);
    }

    #[test]
    fn graph_payloads_round_trip_bit_identically() {
        for g in [
            metro_ring(9),
            power_law_digraph(40, 3),
            random_weighted_digraph(25, 60, 9, 7),
            GraphBuilder::new(3).build(), // edgeless
            GraphBuilder::new(0).build(), // empty
        ] {
            let payload = graph_payload(&g);
            assert_eq!(payload.len(), 16 + 16 * g.edge_count());
            let back = decode_graph(&payload).expect("decodes");
            assert_eq!(graph_payload(&back), payload);
            assert_eq!(back, g);
            assert_eq!(back.fingerprint(), g.fingerprint());
        }
    }

    #[test]
    fn graph_payload_truncation_is_structured() {
        let payload = graph_payload(&metro_ring(5));
        for cut in 0..payload.len() {
            let err = decode_graph(&payload[..cut]).expect_err("a prefix decoded");
            assert!(err.contains("truncated"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn graph_payloads_break_no_builder_rule() {
        let payload = graph_payload(&metro_ring(4));
        // Edge 0 rewritten to break one rule at a time.
        for ((from, to, weight), rule) in [
            ((0u32, 9u32, 1u64), "endpoint out of range"),
            ((0, 0, 1), "self loops"),
            ((0, 1, 0), "positive"),
        ] {
            let mut bad = payload.clone();
            bad[16..20].copy_from_slice(&from.to_le_bytes());
            bad[20..24].copy_from_slice(&to.to_le_bytes());
            bad[24..32].copy_from_slice(&weight.to_le_bytes());
            let err = decode_graph(&bad).expect_err("a broken edge decoded");
            assert!(err.contains("edge 0") && err.contains(rule), "{err}");
        }
        // Sixteen bytes may not ask the builder for 2^24 + 1 vertices.
        let mut huge = (MAX_NODES + 1).to_le_bytes().to_vec();
        huge.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode_graph(&huge).unwrap_err().contains("too large"));
        let mut trailing = payload;
        trailing.push(0);
        assert!(decode_graph(&trailing).unwrap_err().contains("trailing"));
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
        push_section(&mut bytes, 0xbeef, |out| {
            out.extend_from_slice(b"from the future")
        });
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&FOOTER_MAGIC);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let loaded = Snapshot::decode(&bytes).unwrap();
        assert!(loaded.dropped.is_empty(), "{:?}", loaded.dropped);
        assert_eq!(loaded.snapshot.artifacts, snap.artifacts);
    }

    #[test]
    fn corrupt_artifact_degrades_but_keeps_graph() {
        let snap = sample();
        let mut bytes = snap.encode();
        // Flip a byte near the end: inside the last artifact's payload.
        let idx = bytes.len() - FOOTER_LEN - 10;
        bytes[idx] ^= 0xff;
        let loaded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(loaded.snapshot.graph, snap.graph);
        assert!(loaded
            .dropped
            .iter()
            .any(|d| matches!(d.error, StoreError::SectionChecksum { .. })
                || matches!(d.error, StoreError::FooterChecksum)));
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
        let loaded = Snapshot::read(&path).unwrap();
        assert!(loaded.dropped.is_empty());
        assert_eq!(loaded.snapshot.encode(), snap.encode());
        let _ = fs::remove_dir_all(&dir);
    }
}
