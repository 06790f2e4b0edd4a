//! Fleet-router simulation soak: a multi-seed sweep must actually
//! exercise the failover machinery it exists to test, and every seed must
//! replay byte-identically.
//!
//! The coverage floors here are deliberately above the per-seed CLI
//! floors: a sweep that kills fewer than a handful of replicas, opens no
//! circuits, or never hedges a predict is a silently weakened harness
//! even when every individual seed "passes".

use mtperf::serve::dst::SimConfig;
use mtperf::serve::fleet::dst::run_fleet_sim;

const SOAK_SEEDS: u64 = 24;
const SOAK_BASE: u64 = 9_000;
const SOAK_SESSIONS: usize = 60;

#[test]
fn sweep_clears_the_failover_coverage_floors() {
    let mut kills = 0u64;
    let mut circuit_opens = 0u64;
    let mut hedged = 0u64;
    let mut failovers = 0u64;
    let mut unavailable = 0u64;
    for seed in SOAK_BASE..SOAK_BASE + SOAK_SEEDS {
        let report = run_fleet_sim(&SimConfig {
            seed,
            sessions: SOAK_SESSIONS,
        });
        assert!(
            report.passed(),
            "seed {seed} violations: {:#?}",
            report.violations
        );
        // Exactly-once: every dispatched request produced exactly one
        // audited response line (the sim counts them in lockstep).
        assert_eq!(
            report.requests, report.responses,
            "seed {seed}: request/response accounting diverged"
        );
        kills += report.counts.replica_kills;
        circuit_opens += report.counts.circuit_opens;
        hedged += report.counts.hedged_predicts;
        failovers += report.counts.failovers;
        unavailable += report.counts.unavailable;
    }
    assert!(kills > 10, "only {kills} replica kills across the sweep");
    assert!(
        circuit_opens > 10,
        "only {circuit_opens} circuit-open transitions across the sweep"
    );
    assert!(hedged > 5, "only {hedged} hedged predicts across the sweep");
    assert!(
        failovers > 10,
        "only {failovers} failovers across the sweep"
    );
    assert!(
        unavailable > 0,
        "brown-out (typed unavailable) never exercised"
    );
}

#[test]
fn failing_heavy_seed_replays_byte_identically() {
    let cfg = SimConfig {
        seed: SOAK_BASE + 3,
        sessions: 120,
    };
    let a = run_fleet_sim(&cfg);
    let b = run_fleet_sim(&cfg);
    assert!(a.passed(), "violations: {:#?}", a.violations);
    assert_eq!(a.trace, b.trace, "same seed must replay byte-identically");
    assert_eq!(a.trace_hash(), b.trace_hash());
    assert_eq!(a.counts.replica_kills, b.counts.replica_kills);
    assert_eq!(a.counts.hedged_predicts, b.counts.hedged_predicts);
    assert_eq!(a.counts.failovers, b.counts.failovers);
}
