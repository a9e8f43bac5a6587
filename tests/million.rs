//! The 1M-server tier, end to end.
//!
//! Both tests are `#[ignore]`d: each is a full 1M-server simulation and
//! takes minutes of wall clock. They extend the determinism contract the
//! 100k suites pin to the largest tier: thread counts land on identical
//! per-tick digests, and a 1M snapshot restores bit-identically.
//!
//! Run with: `cargo test --release --test million -- --ignored`

use vmt::core::{restore_simulation, PolicyKind};
use vmt::dcsim::{ClusterConfig, Simulation, SimulationResult, Snapshot};
use vmt::units::Hours;
use vmt::workload::{DiurnalTrace, TraceConfig};

const SERVERS: usize = 1_000_000;
/// Short horizon: the 100k suites cover long ones.
const HOURS: f64 = 1.0;

fn build(threads: usize) -> Simulation {
    let cluster = ClusterConfig::paper_default(SERVERS);
    let mut trace = TraceConfig::paper_default();
    trace.horizon = Hours::new(HOURS);
    Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace),
        PolicyKind::vmt_wa(22.0).build(&cluster),
    )
    .with_threads(threads)
}

/// Runs to the horizon, collecting every per-tick state digest
/// alongside the final result.
fn run_digests(threads: usize) -> (Vec<u64>, SimulationResult) {
    let mut sim = build(threads);
    let mut digests = Vec::new();
    while sim.step() {
        digests.push(sim.state_digest());
    }
    let (result, _) = sim.finish();
    (digests, result)
}

/// Threads {1, 8} land on the same per-tick digest sequence and final
/// result.
#[test]
#[ignore = "1M-server runs: minutes of wall clock, run explicitly"]
fn million_tier_is_identical_across_threads() {
    let (baseline_digests, baseline) = run_digests(1);
    assert!(!baseline_digests.is_empty());
    let (digests, result) = run_digests(8);
    assert_eq!(digests, baseline_digests, "x8: digest sequence");
    assert_eq!(result, baseline, "x8: final result");
}

/// Snapshot/restore at the 1M tier: checkpoint the run midway,
/// round-trip the container, and hold the restored run's remaining
/// ticks digest-identical to the continuous one at threads 1 and 8.
#[test]
#[ignore = "1M-server runs: minutes of wall clock, run explicitly"]
fn million_tier_snapshot_restores_bit_identically() {
    let (digests, result) = run_digests(1);
    let mid = (digests.len() / 2) as u64;
    let mut sim = build(1);
    sim.run_until(mid);
    let snapshot = sim.snapshot().expect("1M snapshot");
    let decoded = Snapshot::decode(&snapshot.encode()).expect("container round-trips");
    assert_eq!(decoded.digest(), snapshot.digest());
    for threads in [1usize, 8] {
        let mut restored = restore_simulation(&decoded)
            .unwrap_or_else(|e| panic!("restore at x{threads} failed: {e}"))
            .with_threads(threads);
        assert_eq!(restored.current_tick(), mid);
        assert_eq!(
            restored.state_digest(),
            digests[mid as usize - 1],
            "x{threads}: state at restore"
        );
        let mut t = mid as usize;
        while restored.step() {
            assert_eq!(
                restored.state_digest(),
                digests[t],
                "x{threads}: diverged at tick {}",
                t + 1
            );
            t += 1;
        }
        assert_eq!(t, digests.len(), "x{threads}: tick count");
        let (restored_result, _) = restored.finish();
        assert_eq!(restored_result, result, "x{threads}: final result");
    }
}
