//! Byte codec for [`DiGraph`]: the payload of the graph section in a
//! `rpaths-store` snapshot file.
//!
//! A graph is its vertex count and its edge list, and that is all the
//! payload holds, as flat little-endian integers:
//!
//! ```text
//! n       u64
//! m       u64
//! edges   m × { from u32, to u32, weight u64 }
//! ```
//!
//! The CSR indexes are not stored. [`DiGraph::from_snapshot`] hands the
//! decoded edges to [`GraphBuilder::build`], the constructor every other
//! graph goes through, which derives them deterministically from
//! `(n, edges)`: neighbor order survives every round trip, and no
//! payload can decode to a graph its edges do not build.
//!
//! The decoder never trusts its input: both counts are checked against
//! the format's limits, the edge count against the bytes left before
//! anything is allocated for it, every edge against the rules of
//! [`GraphBuilder::add_edge`], and any violation is a structured
//! [`SnapshotError`], never a panic.
//! Whole-payload integrity (bit flips) is the store's job — sections
//! carry checksums there — so validation here targets writer bugs and
//! logically inconsistent payloads.

use std::fmt;

use crate::graph::{DiGraph, Edge, GraphBuilder};

/// Largest vertex count a payload may declare: `2^24`. Building an
/// edgeless graph of that size takes a few hundred MiB; a larger count
/// is refused before anything is allocated.
const MAX_NODES: u64 = 1 << 24;

/// Why a graph payload could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload ended before the structure it promised.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload parsed but violates a graph invariant.
    Malformed(String),
    /// Well-formed payload followed by unexpected extra bytes.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        after: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { expected, got } => {
                write!(
                    f,
                    "graph payload truncated: needed {expected} bytes, got {got}"
                )
            }
            SnapshotError::Malformed(detail) => write!(f, "malformed graph payload: {detail}"),
            SnapshotError::TrailingBytes { after } => {
                write!(f, "graph payload has trailing bytes after offset {after}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(len).ok_or(SnapshotError::Truncated {
            expected: usize::MAX,
            got: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated {
                expected: end,
                got: self.bytes.len(),
            });
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl DiGraph {
    /// Encodes the graph — its vertex count and edge list — as the flat
    /// little-endian payload documented at the module level:
    /// `16 + 16·m` bytes.
    ///
    /// The inverse is [`DiGraph::from_snapshot`]; the round trip is
    /// bit-identical.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 16 * self.edge_count());
        push_u64(&mut out, self.node_count() as u64);
        push_u64(&mut out, self.edge_count() as u64);
        for (_, e) in self.edges() {
            push_u32(&mut out, e.from as u32);
            push_u32(&mut out, e.to as u32);
            push_u64(&mut out, e.weight);
        }
        out
    }

    /// Decodes a payload produced by [`DiGraph::to_snapshot`]: it
    /// validates the counts and every edge, then builds the graph with
    /// [`GraphBuilder::build`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload ends early or is too
    /// short for the edge count it declares,
    /// [`SnapshotError::Malformed`] when a count exceeds the format's
    /// limits or an edge is one [`GraphBuilder::add_edge`] refuses
    /// (endpoint out of range, self loop, zero weight), and
    /// [`SnapshotError::TrailingBytes`] when bytes remain after the
    /// edges. Never panics on untrusted input.
    pub fn from_snapshot(bytes: &[u8]) -> Result<DiGraph, SnapshotError> {
        let mut r = Reader { bytes, pos: 0 };
        let n64 = r.u64()?;
        let m64 = r.u64()?;
        // Endpoints are stored as u32, and the built indexes hold edge ids
        // as u32. Vertices cost the build memory but the payload no bytes,
        // so their count has a tighter limit of its own.
        if n64 > MAX_NODES || m64 > u32::MAX as u64 {
            return Err(SnapshotError::Malformed(format!(
                "graph too large for the format: n = {n64}, m = {m64}"
            )));
        }
        let n = n64 as usize;
        let m = m64 as usize;
        // 16 bytes per edge: bound the count by the bytes left before
        // allocating for it.
        if m > (bytes.len() - r.pos) / 16 {
            return Err(SnapshotError::Truncated {
                expected: r.pos.saturating_add(m.saturating_mul(16)),
                got: bytes.len(),
            });
        }
        let mut edges = Vec::with_capacity(m);
        for i in 0..m {
            let from = r.u32()? as usize;
            let to = r.u32()? as usize;
            let weight = r.u64()?;
            if from >= n || to >= n {
                return Err(SnapshotError::Malformed(format!(
                    "edge {i} endpoint out of range ({from} -> {to}, n = {n})"
                )));
            }
            if from == to {
                return Err(SnapshotError::Malformed(format!("edge {i} is a self loop")));
            }
            if weight == 0 {
                return Err(SnapshotError::Malformed(format!(
                    "edge {i} has zero weight"
                )));
            }
            edges.push(Edge { from, to, weight });
        }
        if r.pos != bytes.len() {
            return Err(SnapshotError::TrailingBytes { after: r.pos });
        }
        Ok(GraphBuilder { n, edges }.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{metro_ring, power_law_digraph, random_weighted_digraph};

    #[test]
    fn round_trip_is_bit_identical() {
        for g in [
            metro_ring(9),
            power_law_digraph(40, 3),
            random_weighted_digraph(25, 60, 9, 7),
            GraphBuilder::new(3).build(), // edgeless
            GraphBuilder::new(0).build(), // empty
        ] {
            let bytes = g.to_snapshot();
            assert_eq!(bytes.len(), 16 + 16 * g.edge_count());
            let back = DiGraph::from_snapshot(&bytes).expect("decodes");
            assert_eq!(back.to_snapshot(), bytes);
            assert_eq!(back.node_count(), g.node_count());
            assert_eq!(back.edge_count(), g.edge_count());
            assert_eq!(back.is_unweighted(), g.is_unweighted());
            for v in g.nodes() {
                assert_eq!(
                    back.undirected_neighbors(v).collect::<Vec<_>>(),
                    g.undirected_neighbors(v).collect::<Vec<_>>()
                );
                assert_eq!(
                    back.successors(v).collect::<Vec<_>>(),
                    g.successors(v).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn truncation_is_structured() {
        let bytes = metro_ring(5).to_snapshot();
        for cut in 0..bytes.len() {
            match DiGraph::from_snapshot(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("decoded a {cut}-byte prefix of {}", bytes.len()),
            }
        }
    }

    #[test]
    fn rejects_logical_corruption() {
        let g = metro_ring(4);
        let mut bytes = g.to_snapshot();
        // Point edge 0's `to` endpoint out of range.
        bytes[16 + 4..16 + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        match DiGraph::from_snapshot(&bytes) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn rejects_vertex_counts_past_the_limit() {
        // Sixteen bytes may not ask the builder for 2^24 + 1 vertices.
        let mut bytes = (MAX_NODES + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        match DiGraph::from_snapshot(&bytes) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("too large"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = metro_ring(4).to_snapshot();
        bytes.push(0);
        assert!(matches!(
            DiGraph::from_snapshot(&bytes),
            Err(SnapshotError::TrailingBytes { .. })
        ));
    }
}
