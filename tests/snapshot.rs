//! Restore-equivalence suite for the snapshot/fork/restore machinery.
//!
//! The contract under test: a simulation checkpointed at tick T and
//! restored — through the full container format, not just in memory —
//! must be **bit-identical** to the uninterrupted run from tick T on.
//! Every per-tick state digest of the restored run, its final
//! `SimulationResult`, and the final farm digest must equal the
//! continuous run's, at any physics thread count. `fork()` carries the
//! same contract without serialization.

use vmt::core::{restore_simulation, PolicyKind};
use vmt::dcsim::{digest_final_state, ClusterConfig, Simulation, SimulationResult, Snapshot};
use vmt::units::Hours;
use vmt::workload::{DiurnalTrace, TraceConfig};

const SERVERS: usize = 16;
const HOURS: f64 = 48.0;

/// A paper-default simulation at a seed/policy/thread-count triple.
fn build(seed: u64, policy: PolicyKind, threads: usize) -> Simulation {
    build_sized(seed, policy, threads, SERVERS, HOURS)
}

fn build_sized(
    seed: u64,
    policy: PolicyKind,
    threads: usize,
    servers: usize,
    hours: f64,
) -> Simulation {
    let mut cluster = ClusterConfig::paper_default(servers);
    cluster.seed = seed;
    let mut trace = TraceConfig::paper_default();
    trace.horizon = Hours::new(hours);
    trace.seed = seed;
    Simulation::new(
        cluster.clone(),
        DiurnalTrace::new(trace),
        policy.build(&cluster),
    )
    .with_threads(threads)
}

/// The four policies the suite sweeps (round robin and the adaptive
/// controller are covered by the quicker single-seed test below).
fn policies() -> [PolicyKind; 4] {
    [
        PolicyKind::CoolestFirst,
        PolicyKind::VmtTa { gv: 22.0 },
        PolicyKind::vmt_wa(22.0),
        PolicyKind::Preserve {
            gv: 22.0,
            engage_hour: 16.0,
        },
    ]
}

/// Runs a simulation to its horizon, recording the state digest after
/// every tick, and returns the digests, the result, and the final farm
/// digest. `digests[k]` is the state after `k + 1` executed ticks.
fn run_with_digests(mut sim: Simulation) -> (Vec<u64>, SimulationResult, u64) {
    let mut digests = Vec::new();
    while sim.step() {
        digests.push(sim.state_digest());
    }
    let (result, servers) = sim.finish();
    let final_digest = digest_final_state(&result, &servers);
    (digests, result, final_digest)
}

/// Steps `sim` to its horizon asserting every tick digest against the
/// continuous run's, then asserts the finished result and farm digest.
fn assert_suffix_identical(
    mut sim: Simulation,
    from: usize,
    digests: &[u64],
    result: &SimulationResult,
    final_digest: u64,
    context: &str,
) {
    let mut t = from;
    while sim.step() {
        assert_eq!(
            sim.state_digest(),
            digests[t],
            "{context}: diverged at tick {}",
            t + 1
        );
        t += 1;
    }
    assert_eq!(t, digests.len(), "{context}: tick count");
    let (restored_result, end_servers) = sim.finish();
    assert_eq!(&restored_result, result, "{context}: final result");
    assert_eq!(
        digest_final_state(&restored_result, &end_servers),
        final_digest,
        "{context}: final farm digest"
    );
}

/// The tentpole property: snapshot at the midpoint, round-trip through
/// the on-disk container, restore at thread counts 1 and 8, and hold
/// every subsequent tick bit-identical to the uninterrupted run —
/// across seeds and all four swept policies.
#[test]
fn restored_runs_are_bit_identical_to_continuous() {
    for seed in [0u64, 1, 42] {
        for policy in policies() {
            let (digests, result, final_digest) = run_with_digests(build(seed, policy, 1));
            let ticks = digests.len();
            let mid = (ticks / 2) as u64;

            let mut sim = build(seed, policy, 1);
            sim.run_until(mid);
            let snapshot = sim.snapshot().expect("paper policies snapshot");
            let decoded = Snapshot::decode(&snapshot.encode()).expect("container round-trips");
            assert_eq!(decoded.digest(), snapshot.digest());
            assert_eq!(decoded.tick, mid);

            for threads in [1usize, 8] {
                let context = format!("seed {seed}, {policy:?}, threads {threads}");
                let restored = restore_simulation(&decoded)
                    .unwrap_or_else(|e| panic!("{context}: restore failed: {e}"))
                    .with_threads(threads);
                assert_eq!(restored.current_tick(), mid, "{context}: resume tick");
                assert_eq!(
                    restored.state_digest(),
                    digests[mid as usize - 1],
                    "{context}: state at restore"
                );
                assert_suffix_identical(
                    restored,
                    mid as usize,
                    &digests,
                    &result,
                    final_digest,
                    &context,
                );
            }
        }
    }
}

/// Every checkpointable policy kind — including round robin and the
/// stateful adaptive controller — restores bit-identically (single seed
/// and thread count; the sweep above covers the matrix).
#[test]
fn every_policy_kind_restores_bit_identically() {
    for policy in [
        PolicyKind::RoundRobin,
        PolicyKind::AdaptiveGv { start_gv: 22.0 },
    ] {
        let (digests, result, final_digest) = run_with_digests(build_sized(7, policy, 1, 8, 30.0));
        let mid = (digests.len() / 2) as u64;
        let mut sim = build_sized(7, policy, 1, 8, 30.0);
        sim.run_until(mid);
        let snapshot = sim.snapshot().expect("policy snapshots");
        let restored = restore_simulation(&Snapshot::decode(&snapshot.encode()).unwrap()).unwrap();
        assert_suffix_identical(
            restored,
            mid as usize,
            &digests,
            &result,
            final_digest,
            &format!("{policy:?}"),
        );
    }
}

/// `fork()` is restore without serialization: the fork and the original
/// continue independently, both bit-identical to the continuous run.
#[test]
fn forked_runs_match_their_original() {
    let policy = PolicyKind::vmt_wa(22.0);
    let (digests, result, final_digest) = run_with_digests(build(42, policy, 1));
    let mid = digests.len() / 2;

    let mut sim = build(42, policy, 1);
    sim.run_until(mid as u64);
    let fork = sim.fork().expect("paper policies fork");
    assert_eq!(fork.state_digest(), sim.state_digest());

    // The fork runs out first; the original must be undisturbed by it.
    assert_suffix_identical(fork, mid, &digests, &result, final_digest, "fork");
    assert_suffix_identical(sim, mid, &digests, &result, final_digest, "original");
}

/// Boundary checkpoints: tick zero (nothing run) reproduces the whole
/// run; the horizon edge (everything run) yields the finished result.
#[test]
fn edge_snapshots_restore() {
    let policy = PolicyKind::VmtTa { gv: 22.0 };
    let (digests, result, final_digest) = run_with_digests(build(0, policy, 1));

    let sim = build(0, policy, 1);
    let snapshot = sim.snapshot().expect("tick-0 snapshot");
    assert_eq!(snapshot.tick, 0);
    let restored = restore_simulation(&Snapshot::decode(&snapshot.encode()).unwrap()).unwrap();
    let (replayed, replayed_result, replayed_final) = run_with_digests(restored);
    assert_eq!(replayed, digests);
    assert_eq!(replayed_result, result);
    assert_eq!(replayed_final, final_digest);

    let mut sim = build(0, policy, 1);
    let total = sim.total_ticks();
    sim.run_until(total);
    let snapshot = sim.snapshot().expect("horizon snapshot");
    assert_eq!(snapshot.tick, total);
    let mut restored = restore_simulation(&Snapshot::decode(&snapshot.encode()).unwrap()).unwrap();
    assert!(!restored.step(), "nothing left past the horizon");
    let (end_result, end_servers) = restored.finish();
    assert_eq!(end_result, result);
    assert_eq!(digest_final_state(&end_result, &end_servers), final_digest);
}

/// Format-stability regression: a container committed to the repository
/// (written by `vmt-experiments snapshot tests/data/golden_v1.snap
/// --at 30 --servers 4 --hours 2 --policy vmt-wa --seed 7`) must keep
/// decoding, hashing, and resuming to the digests pinned here. A
/// payload-layout or physics change that breaks old snapshots fails
/// this test instead of surfacing in a user's archive.
#[test]
fn golden_snapshot_stays_readable() {
    const GOLDEN: &str = include_str!("data/golden_v1.snap");
    // `Snapshot::digest()` hashes the *re-serialized* payload, so this
    // pin moves when the payload schema gains fields even though the old
    // container keeps decoding. History: originally
    // 0xf045_b343_96c5_75fe; re-pinned when the backward-compatible
    // `config.topology` / `zone_temps` options were added (both decode
    // as `None` from this fixture). RESUMED_DIGEST pins the physics and
    // must never move.
    const GOLDEN_DIGEST: u64 = 0xe572_eef5_8785_5053;
    const RESUMED_DIGEST: u64 = 0x6a35_e733_f5ae_af38;

    let snapshot = Snapshot::decode(GOLDEN).expect("golden fixture decodes");
    assert_eq!(snapshot.tick, 30);
    assert_eq!(snapshot.scheduler.kind, "vmt-wa");
    assert_eq!(snapshot.digest(), GOLDEN_DIGEST);

    let mut sim = restore_simulation(&snapshot).expect("golden fixture restores");
    sim.run_until(60);
    assert_eq!(
        sim.state_digest(),
        RESUMED_DIGEST,
        "resuming the golden snapshot no longer reproduces the pinned state"
    );
}

/// Property tests over the container format: lossless round-trips at
/// arbitrary ticks, and graceful rejection (typed errors, never a
/// panic) of arbitrarily mutilated containers.
mod container_properties {
    use super::*;
    use proptest::prelude::*;

    /// A small deterministic snapshot to mutate.
    fn sample_container(seed: u64, at: u64) -> String {
        let mut sim = build_sized(seed, PolicyKind::vmt_wa(22.0), 1, 2, 1.0);
        sim.run_until(at.min(sim.total_ticks()));
        sim.snapshot().expect("sample snapshots").encode()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn snapshots_round_trip_at_any_tick(
            servers in 1usize..12,
            seed in 0u64..1000,
            percent in 0u64..=100,
        ) {
            let mut sim = build_sized(seed, PolicyKind::vmt_wa(22.0), 1, servers, 4.0);
            let at = sim.total_ticks() * percent / 100;
            sim.run_until(at);
            let snapshot = sim.snapshot().expect("snapshot");
            let decoded = Snapshot::decode(&snapshot.encode()).expect("decode");
            prop_assert_eq!(decoded.digest(), snapshot.digest());
            prop_assert_eq!(decoded.tick, at);
            // Re-encoding the decoded snapshot is byte-identical.
            prop_assert_eq!(decoded.encode(), snapshot.encode());
            // And it restores to the same live state.
            let restored = restore_simulation(&decoded).expect("restore");
            prop_assert_eq!(restored.state_digest(), sim.state_digest());
        }

        #[test]
        fn mutilated_containers_never_panic(
            flip_at in 0usize..4096,
            flip_to in 0u8..=255u8,
            truncate_to in 0usize..4096,
        ) {
            let encoded = sample_container(3, 10);

            // Truncation at any byte: an error, never a panic. The
            // container is ASCII (JSON with no non-ASCII strings), so
            // every byte offset is a char boundary.
            let cut = truncate_to.min(encoded.len());
            prop_assert!(encoded.is_char_boundary(cut));
            if cut < encoded.len() {
                prop_assert!(Snapshot::decode(&encoded[..cut]).is_err());
            }

            // A single corrupted byte: either rejected with a typed
            // error, or the flip was a no-op and the decode must agree
            // with the original.
            let mut bytes = encoded.clone().into_bytes();
            let i = flip_at % bytes.len();
            let unchanged = bytes[i] == flip_to;
            bytes[i] = flip_to;
            let mutated = String::from_utf8_lossy(&bytes).into_owned();
            // Typed rejection is the expected outcome; if the mutant
            // still decodes, the digest check makes silent corruption
            // of the payload impossible — an accepted container can
            // only differ from the original in the header's own
            // representation of unchanged facts.
            if let Ok(snapshot) = Snapshot::decode(&mutated) {
                let original = Snapshot::decode(&encoded).expect("original decodes");
                prop_assert!(unchanged || i < encoded.find('\n').unwrap_or(0));
                prop_assert_eq!(snapshot.digest(), original.digest());
            }
        }
    }
}

/// A zoned cluster (rack/row/zone topology with per-zone CRAC
/// integrators) restores bit-identically: the zone temperatures travel
/// in the container, the restored integrators pick up exactly where
/// the continuous run's were, and every subsequent tick digest matches
/// at any thread count. The spec's CRAC capacity is set low enough
/// that zones genuinely warm above the setpoint, so the round trip is
/// exercised on non-trivial integrator state.
#[test]
fn zoned_run_restores_bit_identically() {
    use vmt::dcsim::ZoneSpec;

    let spec = ZoneSpec {
        servers_per_rack: 4,
        racks_per_row: 2,
        rows_per_zone: 2,
        crac_capacity_w_per_server: 120.0,
        crac_setpoint_c: 22.0,
        crac_capacitance_j_per_k_per_server: 5_000.0,
    };
    let seed = 7u64;
    let servers = 100; // 7 zones: 6 full (16 servers) plus a 4-server tail
    let policy = PolicyKind::vmt_wa(22.0);

    let build_zoned = |threads: usize| {
        let mut cluster = ClusterConfig::paper_default(servers);
        cluster.seed = seed;
        cluster.topology = Some(spec);
        let mut trace = TraceConfig::paper_default();
        trace.horizon = Hours::new(24.0);
        trace.seed = seed;
        Simulation::new(
            cluster.clone(),
            DiurnalTrace::new(trace),
            policy.build(&cluster),
        )
        .with_threads(threads)
    };

    let (digests, result, final_digest) = run_with_digests(build_zoned(1));
    let mid = (digests.len() / 2) as u64;

    let mut sim = build_zoned(1);
    sim.run_until(mid);
    let continuous_zone_temps: Vec<f64> = sim
        .zones()
        .expect("topology configured")
        .temperatures()
        .to_vec();
    assert!(
        continuous_zone_temps
            .iter()
            .any(|&t| t > spec.crac_setpoint_c),
        "test misconfigured: no zone ever warmed above the setpoint, \
         so the round trip would only cover trivial integrator state"
    );
    let snapshot = sim.snapshot().expect("zoned runs snapshot");
    assert_eq!(
        snapshot.zone_temps.as_deref(),
        Some(continuous_zone_temps.as_slice()),
        "zone temperatures travel in the snapshot"
    );
    let decoded = Snapshot::decode(&snapshot.encode()).expect("container round-trips");

    for threads in [1usize, 4] {
        let context = format!("zoned restore at {threads} threads");
        let restored = restore_simulation(&decoded)
            .unwrap_or_else(|e| panic!("{context}: restore failed: {e}"))
            .with_threads(threads);
        assert_eq!(
            restored
                .zones()
                .expect("restored run keeps its topology")
                .temperatures(),
            continuous_zone_temps.as_slice(),
            "{context}: integrator state at restore"
        );
        assert_suffix_identical(
            restored,
            mid as usize,
            &digests,
            &result,
            final_digest,
            &context,
        );
    }
}

/// Hostile snapshot edits: each must be rejected at restore with a typed
/// `Corrupt` error instead of restoring and panicking mid-run.
mod hostile_edits {
    use super::*;
    use vmt::dcsim::SnapshotError;

    const SERVERS: usize = 20;

    /// A 20-server round-robin snapshot at tick 120.
    fn round_robin_snapshot() -> Snapshot {
        let mut sim = build_sized(0, PolicyKind::RoundRobin, 1, SERVERS, 4.0);
        sim.run_until(120);
        sim.snapshot().expect("round robin snapshots")
    }

    /// Sends an edited snapshot through the container (so its digest
    /// covers the edit) and restores it, expecting a `Corrupt` error
    /// whose reason mentions `needle`.
    fn assert_rejected(snapshot: &Snapshot, needle: &str) {
        let decoded = Snapshot::decode(&snapshot.encode()).expect("edited snapshot decodes");
        match restore_simulation(&decoded) {
            Err(SnapshotError::Corrupt(reason)) => {
                assert!(reason.contains(needle), "unexpected reason: {reason}")
            }
            Err(other) => panic!("expected a corrupt-snapshot error, got {other}"),
            Ok(_) => panic!("edited snapshot restored"),
        }
    }

    #[test]
    fn unknown_workload_byte_is_rejected() {
        let mut snapshot = round_robin_snapshot();
        let wire = snapshot.farm.job_kinds.len() / SERVERS;
        let busy = (0..SERVERS)
            .find(|&i| snapshot.farm.job_counts[i] > 0)
            .expect("a busy server");
        snapshot.farm.job_kinds[busy * wire] = 9;
        assert_rejected(&snapshot, "unknown workload 9");
    }

    #[test]
    fn departure_of_a_job_not_running_is_rejected() {
        let mut snapshot = round_robin_snapshot();
        let (_, bucket) = snapshot
            .departures
            .iter_mut()
            .find(|(_, bucket)| !bucket.is_empty())
            .expect("a pending departure");
        bucket[0] = (9_999_999, 12);
        assert_rejected(&snapshot, "job#9999999, which is not running on server 12");
    }

    #[test]
    fn job_departing_twice_is_rejected() {
        let mut snapshot = round_robin_snapshot();
        let (_, bucket) = snapshot
            .departures
            .iter_mut()
            .find(|(_, bucket)| !bucket.is_empty())
            .expect("a pending departure");
        let twice = bucket[0];
        bucket.push(twice);
        assert_rejected(&snapshot, "departs more than once");
    }

    #[test]
    fn occupancy_disagreeing_per_workload_is_rejected() {
        // Totals still agree; only the per-workload split is wrong.
        let mut snapshot = round_robin_snapshot();
        let from = snapshot
            .occupancy
            .iter()
            .position(|&count| count > 0)
            .expect("a running workload");
        snapshot.occupancy[from] -= 1;
        snapshot.occupancy[(from + 1) % 5] += 1;
        assert_rejected(&snapshot, "per workload");
    }
}
