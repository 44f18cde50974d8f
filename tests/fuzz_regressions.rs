//! Replays the fuzz regression corpus and exercises the
//! catch → minimize → fixture pipeline end to end.
//!
//! Every `tests/regressions/*.rpfix` fixture is a self-contained
//! divergence repro (graph snapshot + demand + params + oracle
//! answers): the suite re-derives the oracle answers from the embedded
//! graph (so a stale fixture fails loudly, not silently) and then holds
//! the present-day solvers to them. The six seed fixtures carry a
//! `threads` field and an empty `queries` list the fixture document no
//! longer has; the decoder looks fields up by key and ignores both,
//! which `corpus_replays_green` exercises on every run.

use std::path::PathBuf;

use rpaths_core::fixture::{Fixture, FixtureError, FIXTURE_EXT};
use rpaths_core::testhooks;
use rpaths_fuzz::{run_sweep, FuzzConfig};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/regressions")
}

fn corpus_paths() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/regressions must exist")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(FIXTURE_EXT))
        .collect();
    paths.sort();
    paths
}

#[test]
fn corpus_covers_every_solver_surface() {
    let names: Vec<String> = corpus_paths()
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.len() >= 6,
        "seed corpus must have at least one fixture per solver, got {names:?}"
    );
    for solver in [
        "unweighted",
        "weighted",
        "sisp",
        "reachability",
        "naive",
        "mr24",
    ] {
        assert!(
            names.iter().any(|n| n.contains(solver)),
            "no corpus fixture covers the {solver} solver: {names:?}"
        );
    }
}

#[test]
fn corpus_replays_green() {
    let paths = corpus_paths();
    assert!(!paths.is_empty());
    for path in paths {
        let fix = Fixture::read(&path)
            .unwrap_or_else(|e| panic!("{}: unreadable fixture: {e:?}", path.display()));
        fix.verify_oracle()
            .unwrap_or_else(|e| panic!("{}: stale oracle: {e:?}", path.display()));
        if let Err(e) = fix.replay() {
            panic!("{}: corpus replay diverged: {e:?}", path.display());
        }
    }
}

/// The acceptance gate for the whole pipeline: a deliberately injected
/// solver defect (flipped short/long merge tie-break, behind the
/// test-only thread-local hook) must be caught by the sweep, minimized
/// to a fixture-sized repro, and the written fixture must replay red
/// while the bug is present and green once it is gone.
#[test]
fn injected_bug_is_caught_minimized_and_replays_red() {
    let out_dir = std::env::temp_dir().join(format!("rpaths-fuzz-inject-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);

    // Seed 55 case 0 is a planted-path reachability case the flipped
    // merge breaks; one case keeps the test debug-build fast.
    let cfg = FuzzConfig {
        seed: 55,
        cases: 1,
        max_n: 600,
        inject_tiebreak: true,
        minimize: true,
        out_dir: out_dir.clone(),
    };
    let report = run_sweep(&cfg, &mut |_| {});
    assert_eq!(report.divergences, 1, "the injected bug must be caught");
    assert_eq!(
        report.fixtures.len(),
        1,
        "the divergence must mint a fixture"
    );

    let fix = Fixture::read(&report.fixtures[0]).expect("minted fixture must read back");
    assert!(
        fix.graph.node_count() <= 32,
        "minimized repro too large: {} nodes",
        fix.graph.node_count()
    );

    // Red while the bug is present...
    testhooks::set_flip_unweighted_merge(true);
    let red = fix.replay();
    testhooks::set_flip_unweighted_merge(false);
    match red {
        Err(FixtureError::Diverged(_)) => {}
        other => panic!("fixture must replay red under the injected bug, got {other:?}"),
    }

    // ...green once it is fixed.
    fix.replay()
        .expect("fixture must replay green on the healthy solver");

    let _ = std::fs::remove_dir_all(&out_dir);
}
