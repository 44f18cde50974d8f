//! Self-contained regression fixtures for the differential harness.
//!
//! A fixture is one `rpaths-store` snapshot holding the full graph plus
//! one artifact, keyed [`FIXTURE_KEY`], whose body is a JSON document
//! describing *one* differential check: which solver to run, with which
//! [`Params`], on which `source → target` instance — and the replacement
//! lengths the centralized oracle answered when the fixture was minted.
//!
//! Replaying a fixture ([`Fixture::replay`]) first **recomputes** the
//! oracle from the stored graph and cross-checks it against the minted
//! values (catching fixture corruption and silent oracle drift), then
//! runs the solver through the same [`crate::oracle`] adapters the fuzz
//! sweep uses. The corpus under `tests/regressions/` is replayed by
//! `tests/fuzz_regressions.rs` on every tier-1 run, so every bug the
//! fuzzer ever minimized stays fixed.

use std::fmt;
use std::path::Path;

use graphkit::{DiGraph, Dist};
use rpaths_store::{Artifact, Loaded, Snapshot, StoreError};
use serde::{Deserialize, Serialize};

use crate::oracle::{self, Divergence, FuzzSolver};
use crate::{Instance, Params};

/// Artifact key of the fixture document inside the snapshot.
pub const FIXTURE_KEY: &str = "fuzz/fixture";

/// Fixture document version this build writes and accepts.
pub const FIXTURE_VERSION: u32 = 1;

/// File extension the corpus uses (`tests/regressions/*.rpfix`).
pub const FIXTURE_EXT: &str = "rpfix";

/// The fixture document. Decoding looks fields up by key and ignores
/// the rest, so older files that carry `threads` or an empty `queries`
/// list still load. `expected` holds each length's [`Dist::raw`]
/// encoding, `u64::MAX` for unreachable.
#[derive(Serialize, Deserialize)]
struct FixtureDoc {
    version: u32,
    name: String,
    origin: String,
    solver: String,
    source: u64,
    target: u64,
    zeta: u64,
    landmark_prob_bits: u64,
    seed: u64,
    eps_num: u64,
    eps_den: u64,
    budget_factor: u64,
    expected: Vec<u64>,
}

/// One checked-in differential repro: graph + solver + parameters +
/// the oracle's minted answers. Replaying it runs `solver` on the
/// instance `(graph, source → target)` and holds it to its oracle.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// Fixture name (also the suggested file stem).
    pub name: String,
    /// Free-text provenance: harness seed, case index, minimizer stats.
    pub origin: String,
    /// Which solver surface to drive.
    pub solver: FuzzSolver,
    /// Instance source.
    pub source: usize,
    /// Instance target.
    pub target: usize,
    /// Solver parameters, reconstructed exactly (bit-exact
    /// `landmark_prob`).
    pub params: Params,
    /// Minted oracle replacement lengths, one per path edge.
    pub expected: Vec<Dist>,
    /// The full graph.
    pub graph: DiGraph,
}

/// Why a fixture could not be loaded or replayed green.
#[derive(Debug)]
pub enum FixtureError {
    /// Snapshot-level failure (I/O, checksum, framing).
    Store(StoreError),
    /// The snapshot loaded but its fixture document is missing or
    /// malformed.
    Decode(String),
    /// The stored oracle values no longer match a fresh oracle run on
    /// the stored graph: the fixture bytes rotted or the oracle's
    /// semantics drifted. Either way the fixture cannot vouch for
    /// anything.
    StaleOracle(String),
    /// The solver diverged from the oracle — the regression the fixture
    /// guards has reappeared (or, for a deliberately injected defect,
    /// was successfully detected).
    Diverged(Divergence),
}

impl fmt::Display for FixtureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixtureError::Store(e) => write!(f, "snapshot error: {e}"),
            FixtureError::Decode(e) => write!(f, "bad fixture document: {e}"),
            FixtureError::StaleOracle(e) => write!(f, "stale fixture oracle: {e}"),
            FixtureError::Diverged(d) => write!(f, "divergence: {d}"),
        }
    }
}

impl std::error::Error for FixtureError {}

impl From<StoreError> for FixtureError {
    fn from(e: StoreError) -> FixtureError {
        FixtureError::Store(e)
    }
}

impl Fixture {
    /// Mints a fixture: records the oracle's replacement lengths for
    /// `(graph, source → target)` now, to be enforced on every future
    /// replay.
    ///
    /// # Panics
    ///
    /// Panics if `target` is unreachable from `source` (no instance).
    pub fn instance_mode(
        name: impl Into<String>,
        origin: impl Into<String>,
        graph: DiGraph,
        source: usize,
        target: usize,
        params: Params,
        solver: FuzzSolver,
    ) -> Fixture {
        let inst = Instance::from_endpoints(&graph, source, target)
            .expect("fixture instance must be constructible");
        let expected = oracle::oracle_replacements(&inst);
        drop(inst);
        Fixture {
            name: name.into(),
            origin: origin.into(),
            solver,
            source,
            target,
            params,
            expected,
            graph,
        }
    }

    fn doc(&self) -> FixtureDoc {
        FixtureDoc {
            version: FIXTURE_VERSION,
            name: self.name.clone(),
            origin: self.origin.clone(),
            solver: self.solver.name().to_string(),
            source: self.source as u64,
            target: self.target as u64,
            zeta: self.params.zeta as u64,
            landmark_prob_bits: self.params.landmark_prob.to_bits(),
            seed: self.params.seed,
            eps_num: self.params.eps_num,
            eps_den: self.params.eps_den,
            budget_factor: self.params.budget_factor,
            expected: self.expected.iter().map(|d| d.raw()).collect(),
        }
    }

    /// Atomically writes the fixture as one snapshot file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let json = serde_json::to_string_pretty(&self.doc()).expect("fixture doc serializes");
        Snapshot {
            graph: self.graph.clone(),
            artifacts: vec![Artifact {
                key: FIXTURE_KEY.into(),
                body: json.into_bytes(),
            }],
        }
        .write(path)
    }

    /// Reads a fixture back. Degraded snapshots are rejected: a corrupt
    /// corpus entry must fail loudly, not replay a weaker check. So are
    /// parameters outside the solvers' domain (`Params::check`), which
    /// no solver could replay.
    ///
    /// # Errors
    ///
    /// [`FixtureError::Store`] / [`FixtureError::Decode`].
    pub fn read(path: impl AsRef<Path>) -> Result<Fixture, FixtureError> {
        let Loaded { snapshot, dropped } = Snapshot::read(&path)?;
        if !dropped.is_empty() {
            return Err(FixtureError::Decode(format!(
                "snapshot is degraded ({} dropped sections)",
                dropped.len()
            )));
        }
        let blob = snapshot
            .artifacts
            .iter()
            .find(|a| a.key == FIXTURE_KEY)
            .ok_or_else(|| FixtureError::Decode(format!("no {FIXTURE_KEY:?} artifact")))?;
        let text = std::str::from_utf8(&blob.body)
            .map_err(|e| FixtureError::Decode(format!("fixture blob is not UTF-8: {e}")))?;
        let doc: FixtureDoc =
            serde_json::from_str(text).map_err(|e| FixtureError::Decode(e.to_string()))?;
        if doc.version != FIXTURE_VERSION {
            return Err(FixtureError::Decode(format!(
                "unsupported fixture version {}",
                doc.version
            )));
        }
        let solver = FuzzSolver::parse(&doc.solver)
            .ok_or_else(|| FixtureError::Decode(format!("unknown solver {:?}", doc.solver)))?;
        let params = Params {
            zeta: doc.zeta as usize,
            landmark_prob: f64::from_bits(doc.landmark_prob_bits),
            seed: doc.seed,
            eps_num: doc.eps_num,
            eps_den: doc.eps_den,
            budget_factor: doc.budget_factor,
        };
        params.check().map_err(FixtureError::Decode)?;
        Ok(Fixture {
            name: doc.name,
            origin: doc.origin,
            solver,
            source: doc.source as usize,
            target: doc.target as usize,
            params,
            expected: doc.expected.iter().map(|&v| Dist::from_raw(v)).collect(),
            graph: snapshot.graph,
        })
    }

    /// Recomputes the oracle from the stored graph and compares it to
    /// the minted values.
    ///
    /// # Errors
    ///
    /// [`FixtureError::StaleOracle`] on any disagreement.
    pub fn verify_oracle(&self) -> Result<(), FixtureError> {
        let fresh = oracle::oracle_replacements(&self.instance()?);
        if fresh != self.expected {
            return Err(FixtureError::StaleOracle(format!(
                "minted {:?}, recomputed {:?}",
                self.expected, fresh
            )));
        }
        Ok(())
    }

    /// Replays the fixture: oracle re-verification, then the solver
    /// differential.
    ///
    /// # Errors
    ///
    /// [`FixtureError::Diverged`] when the guarded regression has
    /// reappeared; [`FixtureError::StaleOracle`] when the fixture
    /// itself no longer self-validates.
    pub fn replay(&self) -> Result<(), FixtureError> {
        self.verify_oracle()?;
        oracle::check_instance(&self.instance()?, &self.params, self.solver)
            .map_err(FixtureError::Diverged)
    }

    /// The stored instance; a fixture whose demand no longer poses one
    /// cannot vouch for anything.
    fn instance(&self) -> Result<Instance<'_>, FixtureError> {
        Instance::from_endpoints(&self.graph, self.source, self.target)
            .map_err(|e| FixtureError::StaleOracle(format!("instance: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::parallel_lane;

    fn lane_fixture() -> Fixture {
        let (g, s, t) = parallel_lane(8, 2, 2);
        let mut params = Params::with_zeta(g.node_count(), 4);
        params.landmark_prob = 1.0;
        Fixture::instance_mode(
            "lane-8",
            "unit test",
            g,
            s,
            t,
            params,
            FuzzSolver::Unweighted,
        )
    }

    /// This test's own temporary directory, removed when it drops.
    struct TempDir(std::path::PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn round_trip_and_green_replay() {
        let fix = lane_fixture();
        let dir = TempDir(
            std::env::temp_dir().join(format!("rpfix-test-{}-round-trip", std::process::id())),
        );
        std::fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join("lane-8.rpfix");
        fix.write(&path).unwrap();
        let back = Fixture::read(&path).unwrap();
        assert_eq!(back.name, "lane-8");
        assert_eq!(back.solver, FuzzSolver::Unweighted);
        assert_eq!(back.expected, fix.expected);
        assert_eq!(back.graph.fingerprint(), fix.graph.fingerprint());
        back.replay().unwrap();
    }

    #[test]
    fn injected_bug_replays_red() {
        let fix = lane_fixture();
        crate::testhooks::set_flip_unweighted_merge(true);
        let replay = fix.replay();
        crate::testhooks::set_flip_unweighted_merge(false);
        assert!(
            matches!(replay, Err(FixtureError::Diverged(_))),
            "flipped merge must replay red, got {replay:?}"
        );
    }

    #[test]
    fn tampered_expected_is_stale() {
        let mut fix = lane_fixture();
        fix.expected[0] = Dist::new(1);
        let err = fix.verify_oracle().unwrap_err();
        assert!(matches!(err, FixtureError::StaleOracle(_)));
    }
}
