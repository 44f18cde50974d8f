//! Adversarial corruption suite for the snapshot store: no sequence of
//! bit flips or truncations may panic, hang, or hand back a silently
//! wrong graph.
//!
//! The contract under test (see `crates/store/src/lib.rs`):
//!
//! - Every single-byte flip is *detected* — CRC32 catches all of them —
//!   so a mutated file either fails with a structured [`StoreError`] or
//!   degrades to [`Loaded::Partial`] with the graph bit-identical to
//!   the original. `Ok(Complete)` on a flipped byte would mean silent
//!   corruption and fails the suite.
//! - Every truncation, at section boundaries and everywhere else, is a
//!   structured error or a partial load; never a panic.
//! - Unknown section tags are skipped (forward compatibility), and
//!   corruption in an *artifact* section never takes the graph with it.
//! - A graph payload that passes its checksum but lies about itself (an
//!   edge count it has no bytes for, an undirected index its edges do
//!   not give) is a structured error, never an abort or a second graph.
//! - A graph reloaded from a snapshot drives the solver to the same
//!   answers and the same round/message accounting as the original.

use graphkit::alg::shortest_st_path;
use graphkit::gen::{metro_ring, random_digraph};
use graphkit::{DiGraph, SnapshotError};
use rpaths_core::artifacts::cache_artifact;
use rpaths_core::{unweighted, ArtifactKind, CacheValue, Instance, Params};
use rpaths_store::{
    crc32, Artifact, Loaded, Snapshot, StoreError, FOOTER_MAGIC, MAGIC, TAG_GRAPH, VERSION,
};
use std::sync::Arc;

/// A representative snapshot: a real graph plus session-cache and blob
/// artifacts, so flips land in every section type the format has
/// (graph, [`TAG_CACHE`], blob).
fn sample() -> (Vec<u8>, Vec<u8>) {
    let g = random_digraph(24, 60, 9);
    let fp = g.fingerprint();
    let graph_bytes = g.to_snapshot();
    let path = shortest_st_path(&g, 0, 5);
    let mut snap = Snapshot::new(g);
    // Three persisted session-cache entries, as SolverSession::save
    // writes them: a shortest path, a cheap scalar, and a full
    // replacement-answers vector, with a blob among them.
    snap.artifacts.push(cache_artifact(
        fp,
        &ArtifactKind::Path {
            source: 0,
            target: 5,
        },
        &CacheValue::Path(path),
    ));
    snap.artifacts
        .push(Artifact::blob("notes", b"free-form payload".to_vec()));
    snap.artifacts.push(cache_artifact(
        fp,
        &ArtifactKind::Diameter,
        &CacheValue::Diameter(7),
    ));
    snap.artifacts.push(cache_artifact(
        fp,
        &ArtifactKind::Replacement {
            source: 0,
            target: 5,
            solver: rpaths_core::SolverKind::Unweighted,
            params_fp: 0xfeed,
            path_fp: 0xbeef,
        },
        &CacheValue::Replacement(Arc::new(rpaths_core::weighted::ScaledAnswers {
            scaled: vec![graphkit::Dist::new(6), graphkit::Dist::INF],
            den: 1,
        })),
    ));
    (snap.encode(), graph_bytes)
}

/// The only acceptable outcomes for a mutated file: a structured error,
/// or a load whose graph is bit-identical to the original.
fn assert_detected(bytes: &[u8], graph_bytes: &[u8], what: &str) {
    match Snapshot::decode(bytes) {
        Err(_) => {}
        Ok(loaded) => {
            assert_eq!(
                loaded.snapshot().graph.to_snapshot(),
                graph_bytes,
                "{what}: graph silently corrupted"
            );
            assert!(
                loaded.is_partial()
                    || !loaded.dropped().is_empty()
                    || bytes_reencode(&loaded, bytes),
                "{what}: mutation accepted as a complete, unchanged load"
            );
        }
    }
}

/// Whether a load re-encodes to the input bytes (i.e. the mutation was
/// in a bit the format legitimately does not cover — there are none,
/// but the check keeps the assertion honest).
fn bytes_reencode(loaded: &Loaded, bytes: &[u8]) -> bool {
    loaded.snapshot().encode() == bytes
}

#[test]
fn every_single_byte_flip_is_detected() {
    let (bytes, graph_bytes) = sample();
    for pattern in [0xffu8, 0x01] {
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= pattern;
            assert_detected(
                &mutated,
                &graph_bytes,
                &format!("flip {i} ^ {pattern:#04x}"),
            );
        }
    }
}

#[test]
fn every_truncation_is_structured() {
    let (bytes, graph_bytes) = sample();
    for cut in 0..bytes.len() {
        let mutated = &bytes[..cut];
        match Snapshot::decode(mutated) {
            Err(_) => {}
            Ok(loaded) => {
                // A truncated file can never be complete: the footer is
                // gone.
                assert!(loaded.is_partial(), "cut {cut}: truncation loaded Complete");
                assert_eq!(
                    loaded.snapshot().graph.to_snapshot(),
                    graph_bytes,
                    "cut {cut}: graph corrupted by truncation"
                );
            }
        }
    }
}

#[test]
fn corrupting_each_artifact_drops_only_artifacts() {
    let (bytes, graph_bytes) = sample();
    // Walk the real section boundaries and flip one payload byte inside
    // each non-graph section.
    let mut pos = 12; // header
    let mut section = 0;
    while pos + 12 <= bytes.len() - 8 {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let payload = pos + 12;
        if section > 0 && len > 0 {
            let mut mutated = bytes.clone();
            mutated[payload + len / 2] ^= 0xff;
            match Snapshot::decode(&mutated) {
                Ok(Loaded::Partial {
                    recovered, dropped, ..
                }) => {
                    assert_eq!(recovered.graph.to_snapshot(), graph_bytes);
                    assert!(
                        dropped.iter().any(|d| d.section == section),
                        "section {section} not reported dropped"
                    );
                }
                other => panic!("section {section}: expected Partial, got {other:?}"),
            }
        }
        pos = payload + len + 4;
        section += 1;
    }
    assert!(section >= 5, "expected graph + 4 artifact sections");
}

#[test]
fn corrupt_cache_sections_degrade_to_partial_cold_cache() {
    // The session-cache acceptance criterion at the store layer:
    // corrupting a persisted cache section must yield `Loaded::Partial`
    // with the graph bit-identical — a cold cache, never a failed load.
    let (bytes, graph_bytes) = sample();
    // Every cache artifact key starts with "cache/"; flipping a byte of
    // that marker breaks exactly that section's CRC.
    let positions: Vec<usize> = bytes
        .windows(6)
        .enumerate()
        .filter(|(_, w)| *w == b"cache/")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(positions.len(), 3, "sample persists three cache sections");
    for pos in positions {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0xff;
        match Snapshot::decode(&mutated) {
            Ok(Loaded::Partial {
                recovered, dropped, ..
            }) => {
                assert_eq!(
                    recovered.graph.to_snapshot(),
                    graph_bytes,
                    "graph must survive cache corruption"
                );
                assert!(!dropped.is_empty(), "the bad cache section is reported");
            }
            other => panic!("cache flip at {pos}: expected Partial, got {other:?}"),
        }
    }
}

#[test]
fn unknown_sections_round_past_known_ones() {
    let (bytes, graph_bytes) = sample();
    let mut pos = 12;
    let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
    pos += 12 + len + 4; // end of graph section
                         // Tags 2 and 3 held raw distance arrays and BFS trees in older
                         // files; they now skip like any tag from the future.
    for tag in [2u32, 3, 0x7001] {
        // Splice the unknown section between graph and the first
        // artifact, rebuilding the footer.
        let mut spliced = bytes[..pos].to_vec();
        let body = b"opaque payload of a retired or future kind";
        spliced.extend_from_slice(&tag.to_le_bytes());
        spliced.extend_from_slice(&(body.len() as u64).to_le_bytes());
        spliced.extend_from_slice(body);
        let mut framed = tag.to_le_bytes().to_vec();
        framed.extend_from_slice(&(body.len() as u64).to_le_bytes());
        framed.extend_from_slice(body);
        spliced.extend_from_slice(&crc32(&framed).to_le_bytes());
        spliced.extend_from_slice(&bytes[pos..bytes.len() - 8]);
        let crc = crc32(&spliced);
        spliced.extend_from_slice(b"RPFT");
        spliced.extend_from_slice(&crc.to_le_bytes());
        match Snapshot::decode(&spliced) {
            Ok(Loaded::Complete {
                snapshot,
                skipped_unknown,
            }) => {
                assert_eq!(skipped_unknown, vec![tag]);
                assert_eq!(snapshot.graph.to_snapshot(), graph_bytes);
                assert_eq!(snapshot.artifacts.len(), 4);
            }
            other => panic!("tag {tag}: expected Complete with a skip, got {other:?}"),
        }
    }
}

#[test]
fn empty_garbage_and_wrong_version_are_structured() {
    assert!(matches!(
        Snapshot::decode(&[]),
        Err(StoreError::Truncated { .. })
    ));
    assert!(matches!(
        Snapshot::decode(&[0xab; 64]),
        Err(StoreError::BadMagic)
    ));
    let mut v = b"RPATHSNP".to_vec();
    v.extend_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        Snapshot::decode(&v),
        Err(StoreError::VersionUnsupported { found: 99 })
    ));
}

/// A snapshot file whose one section is the graph payload `payload`,
/// framed and checksummed as `Snapshot::encode` frames it: every CRC is
/// valid, so the graph decoder has to catch the damage itself.
fn file_with_graph_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    let section = out.len();
    out.extend_from_slice(&TAG_GRAPH.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[section..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&FOOTER_MAGIC);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn edge_count_past_the_payload_is_truncated() {
    // n = 4, m = u32::MAX and nothing after: the decoder must not
    // allocate for 2^32 edges it has no bytes for.
    let mut payload = 4u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&u64::from(u32::MAX).to_le_bytes());
    assert_eq!(
        DiGraph::from_snapshot(&payload).unwrap_err(),
        SnapshotError::Truncated {
            expected: 16 + 16 * u32::MAX as usize,
            got: 16,
        }
    );
    match Snapshot::decode(&file_with_graph_payload(&payload)) {
        Err(StoreError::Malformed { section: 0, detail }) => {
            assert!(detail.contains("truncated"), "{detail}")
        }
        other => panic!("expected a Malformed graph section, got {other:?}"),
    }
}

#[test]
fn undirected_index_must_match_the_edges() {
    // Rewrite node 0's first undirected neighbour from 1 to 3: every
    // shape and range check still passes, but node 0 would read [3, 5]
    // and the diameter 4, while the ports built from the edges say
    // [1, 5] and 3.
    let g = metro_ring(6);
    let mut payload = g.to_snapshot();
    assert_eq!(
        file_with_graph_payload(&payload),
        Snapshot::new(g.clone()).encode()
    );
    let (n, m) = (g.node_count(), g.edge_count());
    let first = 16 + 16 * m + 2 * (4 * (n + 1) + 4 * m) + 8 + 4 * (n + 1);
    assert_eq!(payload[first..first + 4], 1u32.to_le_bytes());
    payload[first..first + 4].copy_from_slice(&3u32.to_le_bytes());
    match DiGraph::from_snapshot(&payload) {
        Err(SnapshotError::Malformed(detail)) => {
            assert!(detail.contains("undirected index of vertex 0"), "{detail}")
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert!(matches!(
        Snapshot::decode(&file_with_graph_payload(&payload)),
        Err(StoreError::Malformed { section: 0, .. })
    ));
}

#[test]
fn snapshot_graph_drives_identical_solves() {
    // The acceptance criterion: a solve on a graph loaded from a
    // snapshot is indistinguishable — answers *and* metrics — from a
    // solve on the original.
    for (g, s, t) in [
        (metro_ring(10), 0usize, 5usize),
        (random_digraph(30, 90, 4), 0, 17),
    ] {
        let bytes = Snapshot::new(g.clone()).encode();
        let reloaded = Snapshot::decode(&bytes)
            .expect("decode")
            .expect_complete("parity")
            .graph;
        let solve = |g: &DiGraph| {
            let inst = Instance::from_endpoints(g, s, t).expect("connected");
            let params = Params::for_instance(&inst);
            unweighted::solve(&inst, &params).expect("solve")
        };
        let fresh = solve(&g);
        let warm = solve(&reloaded);
        assert_eq!(fresh.replacement, warm.replacement);
        assert_eq!(fresh.metrics, warm.metrics);
    }
}
