//! Test-only fault hooks for validating the correctness harness itself.
//!
//! A differential fuzzer is only trustworthy if it demonstrably *catches*
//! bugs. This module hosts deliberately injectable defects, each behind a
//! flag that defaults to off and costs one thread-local load when the
//! solver runs. The `rpaths-fuzz` binary flips them (via its
//! `--inject-tiebreak-bug` flag) to prove the sweep → divergence →
//! minimizer → fixture pipeline fires end to end; nothing in the
//! production crates ever sets them.
//!
//! The flags are **thread-local**: the solver merge always executes on
//! the thread that called `solve`, so a test (or the fuzz binary) that
//! flips a flag perturbs only its own solves — concurrently running
//! tests in the same binary are unaffected.

use std::cell::Cell;

thread_local! {
    /// When set, [`crate::unweighted::solve_on`] merges the short- and
    /// long-detour answers with a *flipped* tie-break: where the two
    /// sides disagree it keeps the larger value instead of the smaller.
    /// Answers stay deterministic (the fuzzer's bit-identity
    /// cross-checks still pass) but over-estimate whenever the winning
    /// detour regime is not the one the flip favours — exactly the kind
    /// of subtle merge bug the differential oracle exists to catch.
    /// Propagates to every consumer of the unweighted solver: sessions,
    /// batches, 2-SiSP, and reachability.
    static FLIP_UNWEIGHTED_MERGE: Cell<bool> = const { Cell::new(false) };
}

/// Enables or disables the flipped unweighted merge tie-break for
/// solves issued from the current thread.
pub fn set_flip_unweighted_merge(on: bool) {
    FLIP_UNWEIGHTED_MERGE.with(|f| f.set(on));
}

/// Whether the flipped merge is enabled on the current thread.
pub fn flip_unweighted_merge() -> bool {
    FLIP_UNWEIGHTED_MERGE.with(|f| f.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_off_and_toggles() {
        assert!(!flip_unweighted_merge());
        set_flip_unweighted_merge(true);
        assert!(flip_unweighted_merge());
        set_flip_unweighted_merge(false);
        assert!(!flip_unweighted_merge());
    }

    #[test]
    fn flag_is_thread_local() {
        set_flip_unweighted_merge(true);
        let other = std::thread::spawn(flip_unweighted_merge).join().unwrap();
        set_flip_unweighted_merge(false);
        assert!(!other, "other threads must not observe this thread's flag");
    }
}
