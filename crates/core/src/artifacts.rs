//! Persisted solver artifacts: the typed codec of session-cache entries
//! over the `rpaths-store` snapshot format.
//!
//! The store (`rpaths_store`) frames, checksums, and atomically writes
//! sections but treats artifact bodies as opaque bytes. This module owns
//! the one typed encoding the solvers persist: an entry of a
//! [`crate::session::SolverSession`]'s artifact cache — diameter,
//! shortest path, or whole replacement answers — as one `TAG_CACHE`
//! section ([`cache_artifact`] / [`cache_entry_from`]), prefixed with
//! the graph fingerprint so a warm boot never imports artifacts of a
//! different graph.
//!
//! The decoder validates structure (lengths, id ranges, shortest-path
//! claims) against the graph in hand and returns [`ArtifactError`],
//! never panics: a snapshot section that passed its checksum can still
//! have been written by a buggy or hostile producer.
//!
//! [`crate::SolverSession::save`] and [`crate::SolverSession::warm_boot`]
//! are the file-level entry points. A corrupt cache section surfaces as
//! `Loaded::Partial` from the store and costs only a colder cache: the
//! session recomputes what was dropped, mirroring the degraded-answer
//! contract of [`crate::resilient`].

use std::fmt;
use std::sync::Arc;

use graphkit::alg::shortest_st_path;
use graphkit::{DiGraph, Dist, EdgeId, NodeId, StPath};
use rpaths_store::{Artifact, TAG_CACHE};

use crate::cache::{ArtifactKind, CacheValue, SolverKind};
use crate::weighted::ScaledAnswers;

/// Why a typed artifact body could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The artifact's section tag is not the kind the decoder reads.
    WrongKind {
        /// The tag the decoder expected.
        expected: u32,
        /// The tag the artifact carries.
        found: u32,
    },
    /// The body ended before the structure it promised.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The body parsed but violates a structural invariant.
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::WrongKind { expected, found } => {
                write!(
                    f,
                    "artifact kind mismatch: expected tag {expected}, found {found}"
                )
            }
            ArtifactError::Truncated { expected, got } => {
                write!(
                    f,
                    "artifact body truncated: needed {expected} bytes, got {got}"
                )
            }
            ArtifactError::Malformed(detail) => write!(f, "malformed artifact body: {detail}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ArtifactError::Truncated {
                expected: self.pos.saturating_add(len),
                got: self.bytes.len(),
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), ArtifactError> {
        if self.pos != self.bytes.len() {
            Err(ArtifactError::Malformed(format!(
                "trailing bytes after offset {}",
                self.pos
            )))
        } else {
            Ok(())
        }
    }
}

/// A decoded [`TAG_CACHE`] section: one entry of a
/// [`crate::cache::ArtifactCache`], ready to re-insert.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Fingerprint of the graph the entry was computed on. The session
    /// rejects entries whose fingerprint differs from its own graph's.
    pub fingerprint: u64,
    /// The entry's typed identity.
    pub kind: ArtifactKind,
    /// The entry's value.
    pub value: CacheValue,
}

const CACHE_DIAMETER: u8 = 0;
const CACHE_PATH: u8 = 1;
// Code 2 held BFS trees in older snapshots; it now decodes as an
// unknown entry code, so such sections are skipped on import.
const CACHE_REPLACEMENT: u8 = 3;

/// Encodes one artifact-cache entry as a keyed [`TAG_CACHE`] artifact.
///
/// The body opens with the graph fingerprint, then a one-byte entry
/// code, then kind-specific parameters and payload. The key is
/// human-readable and purely informational — decoding trusts only the
/// body.
pub fn cache_artifact(fingerprint: u64, kind: &ArtifactKind, value: &CacheValue) -> Artifact {
    let mut body = Vec::new();
    body.extend_from_slice(&fingerprint.to_le_bytes());
    let key = match (kind, value) {
        (ArtifactKind::Diameter, CacheValue::Diameter(d)) => {
            body.push(CACHE_DIAMETER);
            body.extend_from_slice(&(*d as u64).to_le_bytes());
            format!("cache/{fingerprint:016x}/diameter")
        }
        (ArtifactKind::Path { source, target }, CacheValue::Path(path)) => {
            body.push(CACHE_PATH);
            body.extend_from_slice(&(*source as u32).to_le_bytes());
            body.extend_from_slice(&(*target as u32).to_le_bytes());
            match path {
                Some(p) => {
                    body.push(1);
                    body.extend_from_slice(&(p.edges().len() as u64).to_le_bytes());
                    for &e in p.edges() {
                        body.extend_from_slice(&(e as u32).to_le_bytes());
                    }
                }
                None => body.push(0),
            }
            format!("cache/{fingerprint:016x}/path/{source}-{target}")
        }
        (
            ArtifactKind::Replacement {
                source,
                target,
                solver,
                params_fp,
                path_fp,
            },
            CacheValue::Replacement(answers),
        ) => {
            body.push(CACHE_REPLACEMENT);
            body.extend_from_slice(&(*source as u32).to_le_bytes());
            body.extend_from_slice(&(*target as u32).to_le_bytes());
            body.push(solver.code());
            body.extend_from_slice(&params_fp.to_le_bytes());
            body.extend_from_slice(&path_fp.to_le_bytes());
            body.extend_from_slice(&answers.den.to_le_bytes());
            body.extend_from_slice(&(answers.scaled.len() as u64).to_le_bytes());
            for d in &answers.scaled {
                body.extend_from_slice(&d.raw().to_le_bytes());
            }
            format!(
                "cache/{fingerprint:016x}/repl/{source}-{target}/{}/{params_fp:016x}",
                solver.name()
            )
        }
        // The cache never pairs a key kind with a foreign value kind;
        // encoding such a pair would be a bug in the session.
        (kind, value) => unreachable!("mismatched cache entry: {kind:?} vs {value:?}"),
    };
    Artifact {
        kind: TAG_CACHE,
        key,
        body,
    }
}

/// Decodes a [`TAG_CACHE`] artifact back into a cache entry, validating
/// everything against `graph`: ids in range and paths re-proved
/// shortest (including the *absence* of a path for negative entries).
/// A checksum-valid but lying body is an [`ArtifactError`], never a
/// panic and never a wrong answer.
///
/// # Errors
///
/// [`ArtifactError::WrongKind`] for a non-cache artifact, otherwise any
/// truncation/shape/invariant violation.
pub fn cache_entry_from(a: &Artifact, graph: &DiGraph) -> Result<CacheEntry, ArtifactError> {
    if a.kind != TAG_CACHE {
        return Err(ArtifactError::WrongKind {
            expected: TAG_CACHE,
            found: a.kind,
        });
    }
    let mut c = Cursor {
        bytes: &a.body,
        pos: 0,
    };
    let fingerprint = c.u64()?;
    let code = c.take(1)?[0];
    let n = graph.node_count();
    let node = |raw: u32| -> Result<NodeId, ArtifactError> {
        if (raw as usize) < n {
            Ok(raw as NodeId)
        } else {
            Err(ArtifactError::Malformed(format!(
                "node {raw} out of range (n = {n})"
            )))
        }
    };
    let (kind, value) = match code {
        CACHE_DIAMETER => {
            let d = c.u64()? as usize;
            (ArtifactKind::Diameter, CacheValue::Diameter(d))
        }
        CACHE_PATH => {
            let source = node(c.u32()?)?;
            let target = node(c.u32()?)?;
            let present = c.take(1)?[0];
            let path = match present {
                0 => {
                    if shortest_st_path(graph, source, target).is_some() {
                        return Err(ArtifactError::Malformed(format!(
                            "entry claims {target} unreachable from {source}, but a path exists"
                        )));
                    }
                    None
                }
                1 => {
                    let count = c.u64()?;
                    if count > (a.body.len() as u64) / 4 {
                        return Err(ArtifactError::Malformed(format!(
                            "edge count {count} cannot fit in a {}-byte body",
                            a.body.len()
                        )));
                    }
                    let m = graph.edge_count();
                    let mut edges = Vec::with_capacity(count as usize);
                    for _ in 0..count {
                        let e = c.u32()? as usize;
                        if e >= m {
                            return Err(ArtifactError::Malformed(format!(
                                "edge {e} out of range (m = {m})"
                            )));
                        }
                        edges.push(e as EdgeId);
                    }
                    let path = StPath::new(graph, edges)
                        .map_err(|e| ArtifactError::Malformed(format!("invalid path: {e}")))?;
                    if path.source() != source || path.target() != target {
                        return Err(ArtifactError::Malformed(format!(
                            "path runs {} → {}, entry claims {source} → {target}",
                            path.source(),
                            path.target()
                        )));
                    }
                    path.validate_shortest(graph)
                        .map_err(|e| ArtifactError::Malformed(format!("not shortest: {e}")))?;
                    Some(path)
                }
                other => {
                    return Err(ArtifactError::Malformed(format!(
                        "bad path presence flag {other}"
                    )))
                }
            };
            (
                ArtifactKind::Path { source, target },
                CacheValue::Path(path),
            )
        }
        CACHE_REPLACEMENT => {
            let source = node(c.u32()?)?;
            let target = node(c.u32()?)?;
            let solver_code = c.take(1)?[0];
            let solver = SolverKind::from_code(solver_code).ok_or_else(|| {
                ArtifactError::Malformed(format!("unknown solver code {solver_code}"))
            })?;
            let params_fp = c.u64()?;
            let path_fp = c.u64()?;
            let den = c.u64()?;
            if den == 0 {
                return Err(ArtifactError::Malformed("zero denominator".into()));
            }
            let count = c.u64()?;
            if count > (a.body.len() as u64) / 8 {
                return Err(ArtifactError::Malformed(format!(
                    "count {count} cannot fit in a {}-byte body",
                    a.body.len()
                )));
            }
            let mut scaled = Vec::with_capacity(count as usize);
            for _ in 0..count {
                scaled.push(Dist::from_raw(c.u64()?));
            }
            (
                ArtifactKind::Replacement {
                    source,
                    target,
                    solver,
                    params_fp,
                    path_fp,
                },
                CacheValue::Replacement(Arc::new(ScaledAnswers { scaled, den })),
            )
        }
        other => {
            return Err(ArtifactError::Malformed(format!(
                "unknown cache entry code {other}"
            )))
        }
    };
    c.finish()?;
    Ok(CacheEntry {
        fingerprint,
        kind,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::metro_ring;
    use rpaths_store::TAG_BLOB;

    #[test]
    fn cache_entries_round_trip_every_kind() {
        let g = metro_ring(8);
        let fp = g.fingerprint();
        let path = graphkit::alg::shortest_st_path(&g, 0, 3).unwrap();
        let entries = vec![
            (ArtifactKind::Diameter, CacheValue::Diameter(4)),
            (
                ArtifactKind::Path {
                    source: 0,
                    target: 3,
                },
                CacheValue::Path(Some(path.clone())),
            ),
            (
                ArtifactKind::Replacement {
                    source: 0,
                    target: 3,
                    solver: SolverKind::Unweighted,
                    params_fp: 0xabc,
                    path_fp: 0xdef,
                },
                CacheValue::Replacement(Arc::new(ScaledAnswers {
                    scaled: vec![Dist::new(5), Dist::INF, Dist::new(4)],
                    den: 1,
                })),
            ),
        ];
        for (kind, value) in entries {
            let a = cache_artifact(fp, &kind, &value);
            assert_eq!(a.kind, TAG_CACHE);
            let back = cache_entry_from(&a, &g).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(back.fingerprint, fp);
            assert_eq!(back.kind, kind);
            match (&back.value, &value) {
                (CacheValue::Diameter(a), CacheValue::Diameter(b)) => assert_eq!(a, b),
                (CacheValue::Path(a), CacheValue::Path(b)) => {
                    assert_eq!(
                        a.as_ref().map(|p| p.edges().to_vec()),
                        b.as_ref().map(|p| p.edges().to_vec())
                    );
                }
                (CacheValue::Replacement(a), CacheValue::Replacement(b)) => {
                    assert_eq!(a.scaled, b.scaled);
                    assert_eq!(a.den, b.den);
                }
                other => panic!("kind changed shape: {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_cache_bodies_are_structured_errors() {
        let g = metro_ring(6);
        let fp = g.fingerprint();
        let path = graphkit::alg::shortest_st_path(&g, 0, 2).unwrap();
        let good = cache_artifact(
            fp,
            &ArtifactKind::Path {
                source: 0,
                target: 2,
            },
            &CacheValue::Path(Some(path)),
        );
        // Truncations never panic.
        for cut in 0..good.body.len() {
            let mut a = good.clone();
            a.body.truncate(cut);
            assert!(cache_entry_from(&a, &g).is_err(), "cut {cut}");
        }
        // A lying "unreachable" entry is rejected: the pair is reachable.
        let lie = cache_artifact(
            fp,
            &ArtifactKind::Path {
                source: 0,
                target: 2,
            },
            &CacheValue::Path(None),
        );
        assert!(matches!(
            cache_entry_from(&lie, &g),
            Err(ArtifactError::Malformed(_))
        ));
        // Unknown entry codes are structured errors, including code 2,
        // which older snapshots used for BFS trees.
        for code in [2, 200] {
            let mut a = good.clone();
            a.body[8] = code;
            assert!(matches!(
                cache_entry_from(&a, &g),
                Err(ArtifactError::Malformed(_))
            ));
        }
        // Unknown solver codes are structured errors, so warm boot skips
        // them: older snapshots used 2 and 3 for the naive and MR24
        // baselines.
        let repl = cache_artifact(
            fp,
            &ArtifactKind::Replacement {
                source: 0,
                target: 2,
                solver: SolverKind::Unweighted,
                params_fp: 0xabc,
                path_fp: 0xdef,
            },
            &CacheValue::Replacement(Arc::new(ScaledAnswers {
                scaled: vec![Dist::new(4), Dist::new(4)],
                den: 1,
            })),
        );
        assert!(cache_entry_from(&repl, &g).is_ok());
        for code in [2, 3, 200] {
            let mut a = repl.clone();
            // Fingerprint (8 bytes), entry code, source and target (4 each).
            a.body[17] = code;
            assert!(matches!(
                cache_entry_from(&a, &g),
                Err(ArtifactError::Malformed(_))
            ));
        }
        // Wrong section tag is WrongKind.
        let mut a = good.clone();
        a.kind = TAG_BLOB;
        assert!(matches!(
            cache_entry_from(&a, &g),
            Err(ArtifactError::WrongKind { .. })
        ));
    }
}
