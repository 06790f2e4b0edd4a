//! Deterministic-simulation soak of the serving stack.
//!
//! These tests are the acceptance gate for the DST harness: a large
//! randomized soak under virtual time with every serving invariant
//! checked, and bit-identical replay of a seed — the property that makes
//! any failing seed from CI a one-command local reproduction
//! (`mtperf dst --seed <N>`).

use mtperf::serve::dst::{run_sim, SimConfig};

/// 1,000 randomized client sessions from one seed: concurrent predicts,
/// malformed requests, deadline races, poisoned reloads, saves under
/// injected I/O faults, overload storms, transport drops, interleaved
/// multi-connection sessions with registry promote/rollback races,
/// cache-consistency probes, drain/restart and crash/restart cycles.
/// Every invariant must hold and the run must finish promptly — the
/// clock is virtual, so no real waiting happens.
#[test]
fn thousand_session_soak_holds_all_invariants() {
    let report = run_sim(&SimConfig {
        seed: 0xC0FFEE,
        sessions: 1000,
    });
    assert!(
        report.passed(),
        "invariant violations (replay with `mtperf dst --seed {}`): {:#?}",
        report.seed,
        report.violations
    );
    // The soak must have actually exercised the stack, not vacuously passed.
    assert!(report.requests > 1000, "requests: {}", report.requests);
    assert!(report.responses > 1000, "responses: {}", report.responses);
    assert!(
        report.typed_errors > 100,
        "typed errors: {}",
        report.typed_errors
    );
    assert!(
        report.counts.restarts > 10,
        "restarts: {}",
        report.counts.restarts
    );
    assert!(
        report.counts.faults_injected > 10,
        "fs faults: {}",
        report.counts.faults_injected
    );
    // ... including the multi-tenant surfaces added with protocol v2.
    assert!(
        report.counts.multi_conn_sessions > 100,
        "multi-connection sessions: {}",
        report.counts.multi_conn_sessions
    );
    assert!(
        report.counts.registry_ops > 100,
        "registry ops: {}",
        report.counts.registry_ops
    );
    assert!(
        report.counts.cache_hits + report.counts.cache_misses > 100,
        "cache lookups: {} hits + {} misses",
        report.counts.cache_hits,
        report.counts.cache_misses
    );
}

/// The replay guarantee: the same seed produces a byte-identical event
/// trace (and therefore the same verdict, accounting, and fingerprint),
/// while a different seed diverges.
#[test]
fn failing_seed_replay_is_bit_identical() {
    let cfg = SimConfig {
        seed: 20_070_401,
        sessions: 120,
    };
    let first = run_sim(&cfg);
    let second = run_sim(&cfg);
    assert!(first.passed(), "{:#?}", first.violations);
    assert_eq!(first.trace, second.trace, "replay must be byte-identical");
    assert_eq!(first.trace_hash(), second.trace_hash());
    assert_eq!(first.requests, second.requests);
    assert_eq!(first.responses, second.responses);
    assert_eq!(first.typed_errors, second.typed_errors);
    assert_eq!(first.counts.restarts, second.counts.restarts);
    assert_eq!(first.counts.faults_injected, second.counts.faults_injected);

    let other = run_sim(&SimConfig {
        seed: 20_070_402,
        sessions: 120,
    });
    assert_ne!(
        first.trace_hash(),
        other.trace_hash(),
        "different seeds must explore different schedules"
    );
}
