//! Adversarial corruption suite for the snapshot store: no sequence of
//! bit flips or truncations may panic, hang, or hand back a silently
//! wrong graph.
//!
//! The contract under test (see `crates/store/src/lib.rs`):
//!
//! - Every single-byte flip is *detected* — CRC32 catches all of them —
//!   so a mutated file either fails with a structured [`StoreError`] or
//!   loads the original graph and lists a dropped section. A load with
//!   nothing dropped after a flipped byte would mean silent corruption
//!   and fails the suite.
//! - Every truncation, at section boundaries and everywhere else, is a
//!   structured error or a load with a dropped section; never a panic.
//! - Unknown and retired section tags are skipped (forward
//!   compatibility), and corruption in an *artifact* section never takes
//!   the graph with it.
//! - A graph payload that passes its checksum but lies about itself (an
//!   edge count it has no bytes for, the CSR indexes a version-1 payload
//!   stored after its edges) is a structured error, never an abort or a
//!   second graph: a payload decodes to the graph its edges build.
//! - A graph reloaded from a snapshot drives the solver to the same
//!   answers and the same round/message accounting as the original.

use graphkit::alg::shortest_st_path;
use graphkit::gen::{metro_ring, random_digraph};
use graphkit::{DiGraph, GraphBuilder};
use rpaths_core::artifacts::cache_artifact;
use rpaths_core::{unweighted, ArtifactKind, CacheValue, Instance, Params};
use rpaths_store::{
    crc32, Artifact, Snapshot, StoreError, FOOTER_MAGIC, MAGIC, TAG_GRAPH, VERSION,
};
use std::sync::Arc;

/// A representative snapshot and its graph: a real graph plus
/// session-cache artifacts and a free-form one among them, so flips land
/// in every kind of section the format has.
fn sample() -> (Vec<u8>, DiGraph) {
    let g = random_digraph(24, 60, 9);
    let fp = g.fingerprint();
    let path = shortest_st_path(&g, 0, 5);
    let mut snap = Snapshot::new(g.clone());
    // Three persisted session-cache entries, as SolverSession::save
    // writes them: a shortest path, a cheap scalar, and a full
    // replacement-answers vector, with a free-form artifact among them.
    snap.artifacts.push(cache_artifact(
        fp,
        &ArtifactKind::Path {
            source: 0,
            target: 5,
        },
        &CacheValue::Path(path),
    ));
    snap.artifacts.push(Artifact {
        key: "notes".into(),
        body: b"free-form payload".to_vec(),
    });
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
    (snap.encode(), g)
}

/// The only acceptable outcomes for a mutated file: a structured error,
/// or a load of the original graph that reports what it dropped.
fn assert_detected(bytes: &[u8], graph: &DiGraph, what: &str) {
    if let Ok(loaded) = Snapshot::decode(bytes) {
        assert_eq!(
            loaded.snapshot.graph, *graph,
            "{what}: graph silently corrupted"
        );
        // Re-encoding to the input would mean the mutation hit a bit the
        // format does not cover — there are none, but the check keeps the
        // assertion honest.
        assert!(
            !loaded.dropped.is_empty() || loaded.snapshot.encode() == bytes,
            "{what}: mutation accepted as a complete, unchanged load"
        );
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    let (bytes, graph) = sample();
    for pattern in [0xffu8, 0x01] {
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= pattern;
            assert_detected(&mutated, &graph, &format!("flip {i} ^ {pattern:#04x}"));
        }
    }
}

#[test]
fn every_truncation_is_structured() {
    let (bytes, graph) = sample();
    for cut in 0..bytes.len() {
        if let Ok(loaded) = Snapshot::decode(&bytes[..cut]) {
            // A truncated file can never be complete: the footer is gone.
            assert!(
                !loaded.dropped.is_empty(),
                "cut {cut}: truncation loaded complete"
            );
            assert_eq!(
                loaded.snapshot.graph, graph,
                "cut {cut}: graph corrupted by truncation"
            );
        }
    }
}

#[test]
fn corrupting_each_artifact_drops_only_artifacts() {
    let (bytes, graph) = sample();
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
            let loaded = Snapshot::decode(&mutated)
                .unwrap_or_else(|e| panic!("section {section}: the graph was lost: {e}"));
            assert_eq!(loaded.snapshot.graph, graph);
            assert!(
                loaded.dropped.iter().any(|d| d.section == section),
                "section {section} not reported dropped"
            );
        }
        pos = payload + len + 4;
        section += 1;
    }
    assert!(section >= 5, "expected graph + 4 artifact sections");
}

#[test]
fn corrupt_cache_sections_degrade_to_partial_cold_cache() {
    // The session-cache acceptance criterion at the store layer:
    // corrupting a persisted cache section must drop that section and
    // keep the graph bit-identical — a cold cache, never a failed load.
    let (bytes, graph) = sample();
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
        let loaded = Snapshot::decode(&mutated)
            .unwrap_or_else(|e| panic!("cache flip at {pos}: the graph was lost: {e}"));
        assert_eq!(
            loaded.snapshot.graph, graph,
            "graph must survive cache corruption"
        );
        assert!(
            !loaded.dropped.is_empty(),
            "the bad cache section is reported"
        );
    }
}

#[test]
fn unknown_sections_round_past_known_ones() {
    let (bytes, graph) = sample();
    let mut pos = 12;
    let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
    pos += 12 + len + 4; // end of graph section
                         // Tags 2, 3 and 5 held raw distance arrays, BFS trees and session-cache
                         // entries in older files; they skip like any tag from the future.
    for tag in [2u32, 3, 5, 0x7001] {
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
        let loaded = Snapshot::decode(&spliced).unwrap_or_else(|e| panic!("tag {tag}: {e}"));
        assert!(loaded.dropped.is_empty(), "tag {tag}: {:?}", loaded.dropped);
        assert_eq!(loaded.snapshot.graph, graph);
        assert_eq!(loaded.snapshot.artifacts.len(), 4);
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
    // Version 1 graph payloads also held the CSR indexes; no decoder for
    // them is kept.
    for found in [1u32, 99] {
        let mut v = b"RPATHSNP".to_vec();
        v.extend_from_slice(&found.to_le_bytes());
        assert_eq!(
            Snapshot::decode(&v).err(),
            Some(StoreError::VersionUnsupported { found })
        );
    }
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
        Snapshot::decode(&file_with_graph_payload(&payload)).unwrap_err(),
        StoreError::Malformed {
            section: 0,
            detail: format!(
                "graph payload truncated: needed {} bytes, got 16",
                16 + 16 * u64::from(u32::MAX)
            ),
        }
    );
}

#[test]
fn a_payload_decodes_to_the_graph_its_edges_build() {
    // e0 = 0→1, e1 = 0→1, e2 = 1→2. Version 1 payloads went on to store
    // the three CSR indexes, and the decoder accepted an out-index that
    // listed vertex 0's edges as [1, 0]: the same edges, but another
    // fingerprint and another shortest 0–2 path, [1, 2] for [0, 2].
    let mut b = GraphBuilder::new(3);
    b.add_arc(0, 1);
    b.add_arc(0, 1);
    b.add_arc(1, 2);
    let g = b.build();
    // The canonical payload: n, m, then (from: u32, to: u32, weight: u64)
    // per edge, 16 + 16·m bytes.
    let mut canonical = Vec::new();
    for w in [3u64, 3] {
        canonical.extend_from_slice(&w.to_le_bytes());
    }
    for (from, to) in [(0u32, 1u32), (0, 1), (1, 2)] {
        canonical.extend_from_slice(&from.to_le_bytes());
        canonical.extend_from_slice(&to.to_le_bytes());
        canonical.extend_from_slice(&1u64.to_le_bytes());
    }
    assert_eq!(
        file_with_graph_payload(&canonical),
        Snapshot::new(g.clone()).encode()
    );
    // Per index: n + 1 offsets, then the items.
    let csr = |bytes: &mut Vec<u8>, offsets: [u32; 4], items: &[u32]| {
        for w in offsets.iter().chain(items) {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    };
    let mut legacy = canonical.clone();
    csr(&mut legacy, [0, 2, 3, 3], &[1, 0, 2]); // out-index, vertex 0 swapped
    csr(&mut legacy, [0, 0, 2, 3], &[0, 1, 2]); // in-index
    legacy.extend_from_slice(&4u64.to_le_bytes());
    csr(&mut legacy, [0, 1, 3, 4], &[1, 2, 0, 1]); // undirected index
    assert_eq!(
        Snapshot::decode(&file_with_graph_payload(&legacy)).unwrap_err(),
        StoreError::Malformed {
            section: 0,
            detail: "graph payload has trailing bytes after offset 64".into(),
        }
    );
    let loaded = Snapshot::decode(&file_with_graph_payload(&canonical)).expect("canonical");
    let back = loaded.snapshot.graph;
    assert_eq!(back, g);
    assert_eq!(back.fingerprint(), g.fingerprint());
    assert_eq!(back.out_edges(0).collect::<Vec<_>>(), [0, 1]);
    assert_eq!(shortest_st_path(&back, 0, 2).unwrap().edges(), [0, 2]);
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
        let loaded = Snapshot::decode(&Snapshot::new(g.clone()).encode()).expect("decode");
        assert!(loaded.dropped.is_empty(), "{:?}", loaded.dropped);
        let reloaded = loaded.snapshot.graph;
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
