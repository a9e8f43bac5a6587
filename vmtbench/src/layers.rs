//! Isolated replays of each layer's public calls on captured engine
//! state.
//!
//! A capture is a `Simulation::snapshot()` taken at the start of a
//! trough or peak tick. Each replay rebuilds the state with
//! `ServerFarm::from_config` + `apply_state`, `ClusterIndex::new` and
//! `scheduler_from_saved`, then re-enacts that tick's work layer by
//! layer on copies — departures, the scheduler refresh, arrival
//! planning, batch placement, the physics sweep — so the engine's own
//! run is never perturbed. Every timed call is a span.

use crate::host::SplitMix;
use crate::spans::{Capture, Spans, NO_PARENT};
use crate::workload::{policy_name, THREADS};
use std::hint::black_box;
use vmt_core::{scheduler_from_saved, PolicyKind, ThermalBalancer};
use vmt_dcsim::{
    ClusterIndex, Scheduler, ServerFarm, ServerId, Snapshot, ZoneCooling, ZoneSpec, SHARD,
};
use vmt_pcm::WaxKernel;
use vmt_units::{Hours, Seconds};
use vmt_workload::{ArrivalPlanner, Job, JobId, JobSpec, WorkloadKind};

/// Server-steps each per-server kernel replay aims to time, so small
/// and large farms get a comparable measurement length.
const SERVER_STEPS: usize = 2_000_000;

/// Repetitions of each whole-call replay (on fresh copies).
const REPS: usize = 5;

/// Repetitions of a per-server kernel sweep over `n` servers.
fn sweeps(n: usize) -> usize {
    (SERVER_STEPS / n.max(1)).clamp(3, 2_000)
}

/// The state rebuilt from a capture, after the tick's departures.
struct Rebuilt {
    farm: ServerFarm,
    index: ClusterIndex,
    now: Seconds,
}

/// Counters a placement replay leaves behind: (spills, placements).
pub type SpillCount = (u64, u64);

/// Replays the captured tick in `snap` for `own` (the policy that
/// produced it) and, on the same state, the batch placement of each of
/// `others`. With `common`, also replays the policy-independent layers
/// (farm job table, balancer, physics, zones, wax and thermal kernels).
/// Returns each placed policy's spill count over its replays.
pub fn replay_capture(
    snap: &Snapshot,
    capture: Capture,
    own: PolicyKind,
    others: &[PolicyKind],
    common: bool,
    spans: &mut Spans,
) -> Vec<(&'static str, SpillCount)> {
    let own_name = policy_name(own);
    let root = spans.open("bench.replay", own_name, capture, NO_PARENT);
    let state = rebuild(snap, capture, own_name, root, spans);
    let batch = plan_batch(snap, capture, root, spans);

    let mut spills = Vec::new();
    let restored = scheduler_from_saved(&snap.scheduler).expect("paper policies restore");
    let mut own_outcomes = Vec::new();
    for kind in std::iter::once(own).chain(others.iter().copied()) {
        let name = policy_name(kind);
        let mut base: Box<dyn Scheduler> = if kind == own {
            restored.clone_box().expect("paper policies clone")
        } else {
            kind.build(&snap.config)
        };
        // The refresh runs on fresh clones each rep: it rebuilds the
        // policy's per-tick structures from the farm in place.
        for rep in 0..REPS {
            let mut sched = base.clone_box().expect("paper policies clone");
            let id = spans.open("core.on_tick", name, capture, root);
            sched.on_tick_indexed(&state.farm, &state.index, state.now);
            spans.close(id, 1);
            if rep + 1 == REPS {
                base = sched;
            }
        }
        let before = base.counters().unwrap_or_default();
        let mut after = before;
        for rep in 0..REPS {
            let mut sched = base.clone_box().expect("paper policies clone");
            let mut farm = state.farm.clone();
            let mut index = state.index.clone();
            let mut out = Vec::with_capacity(batch.len());
            let id = spans.open("core.place_batch", name, capture, root);
            sched.place_batch(&batch, &mut farm, &mut index, &mut out);
            spans.close(id, batch.len() as u64);
            if rep == 0 {
                after = sched.counters().unwrap_or_default();
                if kind == own {
                    own_outcomes = out;
                }
            }
        }
        spills.push((
            name,
            (
                after.spills - before.spills,
                after.placements - before.placements,
            ),
        ));
    }

    if common {
        replay_farm(&state, &batch, &own_outcomes, capture, root, spans);
        replay_balancer(&state, &batch, &own_outcomes, capture, root, spans);
        replay_kernels(snap, &state, &batch, &own_outcomes, capture, root, spans);
    }
    spans.close(root, 1);
    spills
}

/// Rebuilds the captured state and replays the tick's departures.
fn rebuild(
    snap: &Snapshot,
    capture: Capture,
    label: &'static str,
    root: u32,
    spans: &mut Spans,
) -> Rebuilt {
    let mut farm = None;
    for _ in 0..REPS {
        let id = spans.open("dcsim.farm.from_config", "", capture, root);
        let built = ServerFarm::from_config(&snap.config);
        spans.close(id, 1);
        farm = Some(built);
    }
    let mut farm = farm.expect("at least one rep");
    farm.apply_state(&snap.farm)
        .expect("snapshot matches its config");
    for _ in 0..REPS {
        let id = spans.open("dcsim.index.build", "", capture, root);
        let index = ClusterIndex::new(&farm);
        spans.close(id, 1);
        black_box(index);
    }

    // The tick's departure bucket, ended on the captured farm in server
    // shard order, the order in which the engine drains a large bucket.
    // The index's end bookkeeping is crate-private, so the index is
    // rebuilt from the farm afterwards instead.
    let mut bucket: Vec<(u64, u32)> = snap
        .departures
        .iter()
        .find(|(t, _)| *t == snap.tick)
        .map_or_else(Vec::new, |(_, b)| b.clone());
    bucket.sort_by_key(|&(_, server)| server as usize / SHARD);
    let mut ended = None;
    for _ in 0..REPS {
        let mut copy = farm.clone();
        let id = spans.open("dcsim.farm.end_job", label, capture, root);
        for &(job, server) in &bucket {
            black_box(copy.end_job(server as usize, JobId(job)));
        }
        spans.close(id, bucket.len() as u64);
        ended = Some(copy);
    }
    let farm = ended.expect("at least one rep");
    let index = ClusterIndex::new(&farm);
    let now = snap.config.tick * snap.tick as f64;
    Rebuilt { farm, index, now }
}

/// Plans the captured tick's arrivals with the engine's planner state
/// and returns them as one shuffled, id-stamped batch.
fn plan_batch(snap: &Snapshot, capture: Capture, root: u32, spans: &mut Spans) -> Vec<Job> {
    let trace = snap.trace.build();
    let cfg = &snap.config;
    let now_hours = Hours::new(cfg.tick.get() * snap.tick as f64 / 3600.0);
    let total_cores = cfg.total_cores();
    // Occupancy after the tick's departures.
    let mut occupancy = snap.occupancy;
    if let Some((_, bucket)) = snap.departures.iter().find(|(t, _)| *t == snap.tick) {
        let stride = cfg.power.cores() as usize;
        for &(job, server) in bucket {
            let row = server as usize * stride;
            let count = snap.farm.job_counts[server as usize] as usize;
            if let Some(slot) = snap.farm.job_ids[row..row + count]
                .iter()
                .position(|&id| id == job)
            {
                occupancy[snap.farm.job_kinds[row + slot] as usize] -= 1;
            }
        }
    }
    let mut queues: [Vec<JobSpec>; 5] = std::array::from_fn(|_| Vec::new());
    for _ in 0..REPS {
        let mut planner = ArrivalPlanner::with_model(cfg.seed, cfg.duration_model);
        planner.set_rng_state(snap.planner_rng);
        for queue in &mut queues {
            queue.clear();
        }
        let id = spans.open("workload.plan_into", "", capture, root);
        for (kind, queue) in WorkloadKind::ALL.into_iter().zip(queues.iter_mut()) {
            let target = trace.target_cores(kind, now_hours, total_cores);
            planner.plan_into(kind, target, occupancy[kind.index()] as usize, queue);
        }
        spans.close(id, queues.iter().map(|q| q.len() as u64).sum());
    }
    let longest = queues.iter().map(Vec::len).max().unwrap_or(0);
    let mut batch = Vec::new();
    for position in 0..longest {
        for queue in &queues {
            if let Some(spec) = queue.get(position) {
                batch.push(Job::new(JobId(0), spec.kind, spec.duration));
            }
        }
    }
    let mut rng = SplitMix(snap.arrival_rng[0] ^ snap.tick);
    for i in (1..batch.len()).rev() {
        batch.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    for (offset, job) in batch.iter_mut().enumerate() {
        job.set_id(JobId(snap.next_job_id + offset as u64));
    }
    batch
}

/// `ServerFarm::start_job` over the own policy's placements.
fn replay_farm(
    state: &Rebuilt,
    batch: &[Job],
    outcomes: &[Option<ServerId>],
    capture: Capture,
    root: u32,
    spans: &mut Spans,
) {
    for _ in 0..REPS {
        let mut farm = state.farm.clone();
        let id = spans.open("dcsim.farm.start_job", "", capture, root);
        let mut started = 0;
        for (job, placed) in batch.iter().zip(outcomes) {
            if let Some(sid) = placed {
                farm.start_job(sid.0, job);
                started += 1;
            }
        }
        spans.close(id, started);
    }
}

/// The balancer's rebuild, argmin and update on the captured state.
fn replay_balancer(
    state: &Rebuilt,
    batch: &[Job],
    outcomes: &[Option<ServerId>],
    capture: Capture,
    root: u32,
    spans: &mut Spans,
) {
    let n = state.farm.len();
    for _ in 0..REPS {
        let mut balancer = ThermalBalancer::new();
        let id = spans.open("core.balance.rebuild", "", capture, root);
        balancer.rebuild(0..n, &state.farm);
        spans.close(id, n as u64);

        let id = spans.open("core.balance.argmin", "", capture, root);
        let mut calls = 0;
        for job in batch {
            calls += 1;
            if balancer
                .place_indexed(&state.index, job.core_power().get())
                .is_none()
            {
                break;
            }
        }
        spans.close(id, calls);

        balancer.rebuild(0..n, &state.farm);
        let id = spans.open("core.balance.update", "", capture, root);
        let mut calls = 0;
        for (job, placed) in batch.iter().zip(outcomes) {
            if let Some(sid) = placed {
                balancer.account_external_indexed(sid.0, job.core_power().get(), &state.index);
                calls += 1;
            }
        }
        spans.close(id, calls);
    }
}

/// The per-server kernels: the farm's physics sweep at one and two
/// threads, zone cooling, the wax exchange, the inlet model and the
/// thermal step, each over the captured lanes.
fn replay_kernels(
    snap: &Snapshot,
    state: &Rebuilt,
    batch: &[Job],
    outcomes: &[Option<ServerId>],
    capture: Capture,
    root: u32,
    spans: &mut Spans,
) {
    let cfg = &snap.config;
    let n = state.farm.len();
    let reps = sweeps(n);
    let dt = cfg.tick;

    // The sweep runs on the post-placement farm, as in the engine.
    let mut farm = state.farm.clone();
    for (job, placed) in batch.iter().zip(outcomes) {
        if let Some(sid) = placed {
            farm.start_job(sid.0, job);
        }
    }
    for (name, t) in [
        ("dcsim.farm.tick_physics_t1", 1),
        ("dcsim.farm.tick_physics_t2", 2),
    ] {
        farm.set_threads(t);
        black_box(farm.tick_physics(dt));
        for _ in 0..reps {
            let id = spans.open(name, "", capture, root);
            black_box(farm.tick_physics(dt));
            spans.close(id, n as u64);
        }
    }
    farm.set_threads(THREADS);

    let lanes = &snap.farm;
    let idle_w = cfg.power.idle().get();
    let spec = cfg.topology.unwrap_or_else(ZoneSpec::paper_default);
    let mut zones = ZoneCooling::new(n, &spec);
    for _ in 0..reps {
        let id = spans.open("dcsim.topology.zones_step", "", capture, root);
        zones.step(&lanes.active_power_w, idle_w, dt.get());
        spans.close(id, n as u64);
    }
    black_box(zones.temperatures());

    if let Some(wax) = &cfg.wax {
        let kernel = WaxKernel::new(
            &wax.material,
            wax.sizing.mass_of(&wax.material),
            wax.exchanger_ua,
            wax.interface_taper,
        );
        let (substeps, sub_dt) = kernel.substeps(dt.get());
        for _ in 0..reps {
            let id = spans.open("pcm.kernel.exchange", "", capture, root);
            let mut heat = 0.0;
            for (&h, &air) in lanes.enthalpy_j.iter().zip(&lanes.at_wax_c) {
                heat += kernel.exchange(black_box(h), air, substeps, sub_dt).1;
            }
            spans.close(id, n as u64);
            black_box(heat);
        }
    }

    let hours = dt.get() * snap.tick as f64 / 3600.0;
    for _ in 0..reps {
        let id = spans.open("thermal.inlet", "", capture, root);
        let mut sum = 0.0;
        for i in 0..n {
            sum += cfg.inlet.inlet_at(black_box(i), hours).get();
        }
        spans.close(id, n as u64);
        black_box(sum);
    }

    let capacity_rate = cfg.air.capacity_rate().get();
    let decay = vmt_thermal::kernel::decay_factor(dt.get(), cfg.thermal_time_constant.get());
    let mut air = lanes.at_wax_c.clone();
    for _ in 0..reps {
        let id = spans.open("thermal.kernel.step", "", capture, root);
        for ((a, &inlet), &active) in air
            .iter_mut()
            .zip(&lanes.inlet_c)
            .zip(&lanes.active_power_w)
        {
            *a = vmt_thermal::kernel::step(*a, inlet, idle_w + active, capacity_rate, decay);
        }
        spans.close(id, n as u64);
        black_box(&air);
    }
}
