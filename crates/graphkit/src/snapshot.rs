//! Byte codec for [`DiGraph`]: the payload of the graph section in a
//! `rpaths-store` snapshot file.
//!
//! The encoding is a flat little-endian dump of the graph *including*
//! its precomputed CSR indexes, so a decoded graph is ready for
//! `Network::new`:
//!
//! ```text
//! n               u64
//! m               u64
//! edges           m × { from u32, to u32, weight u64 }
//! out_index       (n + 1) × u32 offsets, m × u32 edge ids
//! in_index        (n + 1) × u32 offsets, m × u32 edge ids
//! undirected_len  u64
//! undirected      (n + 1) × u32 offsets, undirected_len × u32 node ids
//! ```
//!
//! [`DiGraph::from_snapshot`] never trusts its input: every count is
//! checked against the bytes left before anything is allocated for it,
//! every array is bounds- and shape-checked (offsets monotone and
//! spanning, edge endpoints in range, each edge id indexed exactly once
//! per direction), the undirected index must equal the one the decoded
//! edges give, and any violation is a structured [`SnapshotError`],
//! never a panic.
//! Whole-payload integrity (bit flips) is the store's job — sections
//! carry checksums there — so validation here targets writer bugs and
//! logically inconsistent payloads.

use std::fmt;

use crate::graph::{build_undirected, Csr, DiGraph, Edge};

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

    fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>, SnapshotError> {
        let raw = self.take(
            count
                .checked_mul(4)
                .ok_or(SnapshotError::Malformed("array length overflows".into()))?,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_csr(out: &mut Vec<u8>, csr: &Csr) {
    for &o in &csr.offsets {
        push_u32(out, o);
    }
    for &i in &csr.items {
        push_u32(out, i);
    }
}

/// Decodes one CSR (offsets then items) and checks its shape: `n + 1`
/// offsets starting at 0, monotone, ending exactly at `items_len`, with
/// every item below `item_bound`.
fn read_csr(
    r: &mut Reader<'_>,
    what: &str,
    n: usize,
    items_len: usize,
    item_bound: usize,
) -> Result<Csr, SnapshotError> {
    let offsets = r.u32_vec(n + 1)?;
    if offsets[0] != 0 {
        return Err(SnapshotError::Malformed(format!(
            "{what} offsets do not start at 0"
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Malformed(format!(
            "{what} offsets are not monotone"
        )));
    }
    if offsets[n] as usize != items_len {
        return Err(SnapshotError::Malformed(format!(
            "{what} offsets end at {} but {items_len} items were promised",
            offsets[n]
        )));
    }
    let items = r.u32_vec(items_len)?;
    if let Some(&bad) = items.iter().find(|&&i| i as usize >= item_bound) {
        return Err(SnapshotError::Malformed(format!(
            "{what} item {bad} out of range (bound {item_bound})"
        )));
    }
    Ok(Csr { offsets, items })
}

/// Checks that `csr` indexes every edge id exactly once and that the
/// edge listed under vertex `v` really has `v` as its `key` endpoint.
fn check_edge_index(
    csr: &Csr,
    what: &str,
    n: usize,
    edges: &[Edge],
    key: impl Fn(&Edge) -> usize,
) -> Result<(), SnapshotError> {
    let mut seen = vec![false; edges.len()];
    for v in 0..n {
        for &e in csr.slice(v) {
            let e = e as usize;
            if seen[e] {
                return Err(SnapshotError::Malformed(format!(
                    "{what} indexes edge {e} twice"
                )));
            }
            seen[e] = true;
            if key(&edges[e]) != v {
                return Err(SnapshotError::Malformed(format!(
                    "{what} lists edge {e} under vertex {v}, but its endpoint is {}",
                    key(&edges[e])
                )));
            }
        }
    }
    Ok(())
}

impl DiGraph {
    /// Encodes the graph — edges plus all precomputed CSR indexes — as
    /// the flat little-endian payload documented at the module level.
    ///
    /// The inverse is [`DiGraph::from_snapshot`]; the round trip is
    /// bit-identical.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let n = self.n;
        let m = self.edges.len();
        let und = self.undirected.items.len();
        let mut out =
            Vec::with_capacity(16 + 16 * m + 2 * (4 * (n + 1) + 4 * m) + 8 + 4 * (n + 1) + 4 * und);
        push_u64(&mut out, n as u64);
        push_u64(&mut out, m as u64);
        for e in &self.edges {
            push_u32(&mut out, e.from as u32);
            push_u32(&mut out, e.to as u32);
            push_u64(&mut out, e.weight);
        }
        push_csr(&mut out, &self.out_index);
        push_csr(&mut out, &self.in_index);
        push_u64(&mut out, und as u64);
        push_csr(&mut out, &self.undirected);
        out
    }

    /// Decodes a payload produced by [`DiGraph::to_snapshot`],
    /// validating every structural invariant.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload ends early or is too
    /// short for the edge count it declares,
    /// [`SnapshotError::Malformed`] when an invariant fails (endpoint
    /// out of range, self loop, zero weight, inconsistent CSR, an
    /// undirected index the edges do not give), and
    /// [`SnapshotError::TrailingBytes`] when bytes remain after the
    /// promised structure. Never panics on untrusted input.
    pub fn from_snapshot(bytes: &[u8]) -> Result<DiGraph, SnapshotError> {
        let mut r = Reader { bytes, pos: 0 };
        let n64 = r.u64()?;
        let m64 = r.u64()?;
        // Node and edge ids are stored as u32 throughout the CSRs.
        if n64 > u32::MAX as u64 || m64 > u32::MAX as u64 {
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
        let out_index = read_csr(&mut r, "out_index", n, m, m.max(1))?;
        check_edge_index(&out_index, "out_index", n, &edges, |e| e.from)?;
        let in_index = read_csr(&mut r, "in_index", n, m, m.max(1))?;
        check_edge_index(&in_index, "in_index", n, &edges, |e| e.to)?;
        let und_len = r.u64()?;
        if und_len > 2 * m as u64 {
            return Err(SnapshotError::Malformed(format!(
                "undirected item count {und_len} exceeds 2m = {}",
                2 * m
            )));
        }
        let stored = read_csr(&mut r, "undirected", n, und_len as usize, n.max(1))?;
        if r.pos != bytes.len() {
            return Err(SnapshotError::TrailingBytes { after: r.pos });
        }
        // The undirected index is a function of the edges and the two edge
        // indexes. `Network::new` builds its ports from the edges, while
        // connectivity checks and diameters read this index, so a stored
        // index that disagrees would give one graph two topologies.
        let undirected = build_undirected(n, &edges, &out_index, &in_index);
        if let Some(v) = (0..n).find(|&v| stored.slice(v) != undirected.slice(v)) {
            return Err(SnapshotError::Malformed(format!(
                "undirected index of vertex {v} differs from the one its edges give"
            )));
        }
        let unweighted = edges.iter().all(|e| e.weight == 1);
        Ok(DiGraph {
            n,
            edges,
            out_index,
            in_index,
            undirected,
            unweighted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{metro_ring, power_law_digraph, random_weighted_digraph};
    use crate::GraphBuilder;

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
    fn rejects_trailing_bytes() {
        let mut bytes = metro_ring(4).to_snapshot();
        bytes.push(0);
        assert!(matches!(
            DiGraph::from_snapshot(&bytes),
            Err(SnapshotError::TrailingBytes { .. })
        ));
    }
}
