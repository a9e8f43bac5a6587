//! The two kinds of benchmark run and the metrics each reports.
//!
//! An untraced run ([`measure`]) repeats whole episodes of the workload
//! until its time budget is spent and reports the end-to-end metrics.
//! A traced run ([`trace`]) steps one untraced and one traced episode in
//! lockstep, replays each layer in isolation on captured state, and
//! reports the per-layer metrics.

use crate::episode::{lockstep, run_policy, setup_only, PolicyRun, Running};
use crate::host::{calibrate, HostClock};
use crate::layers::{replay_capture, SpillCount};
use crate::spans::{median, Capture, Spans, NO_PARENT};
use crate::workload::{
    observed_stack, paper_policies, pinned, policy_name, Spec, Workload, DEFAULT_SEED,
    PAPER_REDUCTION_PCT,
};
use std::time::Instant;
use vmt_core::PolicyKind;

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("server_ticks_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("finish_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workload.plan_ns_per_job", "ns"),
    ("workload.trace_build_ms", "ms"),
    ("core.round-robin.place_batch_ns_per_job", "ns"),
    ("core.coolest-first.place_batch_ns_per_job", "ns"),
    ("core.vmt-ta.place_batch_ns_per_job", "ns"),
    ("core.vmt-wa.place_batch_ns_per_job", "ns"),
    ("core.vmt-wa.on_tick_us", "us"),
    ("core.balance.argmin_ns", "ns"),
    ("core.balance.update_ns", "ns"),
    ("core.balance.rebuild_ns_per_member", "ns"),
    ("core.round-robin.spill_frac", "ratio"),
    ("core.coolest-first.spill_frac", "ratio"),
    ("core.vmt-ta.spill_frac", "ratio"),
    ("core.vmt-wa.spill_frac", "ratio"),
    ("dcsim.farm.start_job_ns", "ns"),
    ("dcsim.farm.end_job_ns", "ns"),
    ("dcsim.farm.tick_physics_ns_per_server_t1", "ns"),
    ("dcsim.farm.tick_physics_ns_per_server_t2", "ns"),
    ("dcsim.pool.speedup_2t", "ratio"),
    ("dcsim.farm.job_table_bytes_per_server", "bytes"),
    ("dcsim.farm.from_config_ms", "ms"),
    ("dcsim.index.build_ms", "ms"),
    ("dcsim.topology.zones_step_ns_per_server", "ns"),
    ("pcm.kernel.exchange_ns_per_server", "ns"),
    ("thermal.inlet_ns_per_server", "ns"),
    ("thermal.kernel.step_ns_per_server", "ns"),
    ("dcsim.engine.self_ns_per_job", "ns"),
    ("telemetry.tick_overhead_frac", "ratio"),
    ("telemetry.render_trace_ns_per_record", "ns"),
    ("telemetry.trace_records", "count"),
    ("host.calib_alu_ns", "ns"),
    ("host.calib_chase_ns", "ns"),
    ("ledger.coverage", "ratio"),
    ("ledger.phase_coverage", "ratio"),
    ("ledger.placement_vs_phase", "ratio"),
    ("ledger.departures_vs_phase", "ratio"),
    ("ledger.physics_vs_phase", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Times the trace is generated for `workload.trace_build_ms`; a single
/// build takes well under a microsecond.
const TRACE_BUILDS: usize = 21;

/// Ticks of the short telemetry probe run on workloads that do not
/// carry telemetry themselves.
pub const PROBE_TICKS: u64 = 180;

/// A finished benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Jobs that arrived over the run.
    pub attempted: u64,
    /// Jobs dropped, or every arrival when a check failed.
    pub failed: u64,
    /// `(name, unit, value)` in report order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit `f64` holds.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// Output checks over one episode's policy runs.
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn new() -> Self {
        Self {
            failures: Vec::new(),
        }
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Pinned outputs (default seed, full size) and run-internal
    /// consistency.
    fn episode(&mut self, spec: &Spec, seed: u64, runs: &[PolicyRun]) {
        for run in runs {
            self.require(run.running_at_end <= run.placements, || {
                format!("{}: more jobs running than placed", run.policy)
            });
        }
        if spec.pinned && seed == DEFAULT_SEED {
            for (pin, run) in pinned(spec.workload).iter().zip(runs) {
                self.require(
                    pin.policy == run.policy
                        && pin.placements == run.placements
                        && pin.dropped == run.dropped
                        && pin.digest == run.digest
                        && pin
                            .peak_cooling_bits
                            .is_none_or(|bits| bits == run.peak_cooling_w.to_bits()),
                    || {
                        format!(
                            "{}: pinned {{placements {}, dropped {}, digest {:#x}, peak {:?}}}, \
                             got {{placements {}, dropped {}, digest {:#x}, peak bits {:#x}}}",
                            run.policy,
                            pin.placements,
                            pin.dropped,
                            pin.digest,
                            pin.peak_cooling_bits,
                            run.placements,
                            run.dropped,
                            run.digest,
                            run.peak_cooling_w.to_bits()
                        )
                    },
                );
            }
        }
        if spec.pinned && spec.workload == Workload::Paper1k {
            if let Some(gap) = paper_gap_pp(runs) {
                // The reduction depends on the seed's trace, but over the
                // paper's two days VMT must always cut the peak: a
                // non-positive reduction means the wax or placement
                // model is broken.
                self.require(gap < PAPER_REDUCTION_PCT, || {
                    format!("vmt-wa does not reduce peak cooling (gap {gap:.2} pp)")
                });
            }
        }
    }

    /// Two runs of the same episode must reach the same state.
    fn same(&mut self, what: &str, a: &[PolicyRun], b: &[PolicyRun]) {
        for (x, y) in a.iter().zip(b) {
            self.require(
                x.policy == y.policy
                    && x.placements == y.placements
                    && x.dropped == y.dropped
                    && x.digest == y.digest,
                || {
                    format!(
                        "{what}: {} digest {:#x}/{} placements vs {:#x}/{}",
                        x.policy, x.digest, x.placements, y.digest, y.placements
                    )
                },
            );
        }
    }
}

/// |VMT-WA's peak-cooling reduction against round robin − 12.8| in
/// percentage points, when both ran.
fn paper_gap_pp(runs: &[PolicyRun]) -> Option<f64> {
    let peak = |name: &str| {
        runs.iter()
            .find(|r| r.policy == name)
            .map(|r| r.peak_cooling_w)
    };
    let (rr, wa) = (peak("round-robin")?, peak("vmt-wa")?);
    Some(((rr - wa) / rr * 100.0 - PAPER_REDUCTION_PCT).abs())
}

/// One episode: every policy of the workload, back to back, untraced,
/// with `chases` samples of the host clock after each policy.
fn episode(spec: &Spec, seed: u64, clock: &mut HostClock, chases: usize) -> Vec<PolicyRun> {
    spec.policies()
        .into_iter()
        .map(|kind| {
            let run = run_policy(spec, kind, seed, spec.telemetry());
            for _ in 0..chases {
                clock.sample();
            }
            run
        })
        .collect()
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Before each episode, set-up alone is repeated until this many
/// seconds have gone into it (at least [`MIN_SETUPS`] times): a single
/// set-up takes well under a millisecond on the small workloads, too
/// short to time once.
const SETUP_SLICE_S: f64 = 0.4;

/// Fewest episodes a run repeats, so that every tick has a repeat to
/// keep the fastest of.
const MIN_EPISODES: usize = 2;

/// Fewest set-up-only repetitions per slice.
const MIN_SETUPS: usize = 3;

/// Host-clock samples a run spreads over its policy runs (at least two
/// after each).
const CHASES: usize = 24;

/// The untraced run: `seconds` worth of whole episodes (at least
/// [`MIN_EPISODES`]), reporting the end-to-end metrics. Times are scaled
/// by the run's [`HostClock`] (see `host.rs`).
pub fn measure(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut clock = HostClock::new();
    // Set-up samples are taken in a slice before every episode; each
    // slice keeps its fastest set-up and the run reports the median over
    // slices.
    let mut slice_setups = Vec::new();
    // The episode count depends on the budget, never on how fast this
    // run happens to go: the fastest of more repeats reads lower, so a
    // count that varied with host speed would move the metrics with it.
    let wanted = ((seconds / spec.nominal_episode_s()).round() as usize).max(MIN_EPISODES);
    let chases = CHASES.div_ceil(wanted * spec.policies().len()).max(2);
    let mut episodes: Vec<Vec<PolicyRun>> = Vec::new();
    for _ in 0..wanted {
        let slice = Instant::now();
        let mut fastest = f64::INFINITY;
        let mut reps = 0;
        while reps < MIN_SETUPS || slice.elapsed().as_secs_f64() < SETUP_SLICE_S {
            fastest = fastest.min(setup_only(spec, seed));
            reps += 1;
        }
        let runs = episode(spec, seed, &mut clock, chases);
        slice_setups.push(fastest.min(runs.iter().map(|r| r.setup_s).sum()));
        episodes.push(runs);
    }

    let mut checks = Checks::new();
    for runs in &episodes {
        checks.episode(spec, seed, runs);
        checks.same("repeated episode", &episodes[0], runs);
    }
    // Every episode repeats the same ticks (the digests above prove it),
    // so each tick keeps its fastest repeat.
    let mut tick_ns = Vec::new();
    let (mut server_ticks, mut attempted, mut dropped) = (0u64, 0u64, 0u64);
    for (p, run) in episodes[0].iter().enumerate() {
        for t in 0..run.tick_ns.len() {
            tick_ns.push(
                episodes
                    .iter()
                    .map(|e| e[p].tick_ns[t])
                    .min()
                    .expect("an episode"),
            );
        }
        server_ticks += run.servers * run.ticks;
    }
    for runs in &episodes {
        attempted += runs.iter().map(PolicyRun::arrivals).sum::<u64>();
        dropped += runs.iter().map(|r| r.dropped).sum::<u64>();
    }
    let loop_s = tick_ns.iter().sum::<u64>() as f64 * 1e-9;
    // Like the ticks, each policy's finish keeps its fastest repeat.
    let finish_s: f64 = (0..episodes[0].len())
        .map(|p| {
            episodes
                .iter()
                .map(|e| e[p].finish_s)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    tick_ns.sort_unstable();
    let pct = |p: f64| {
        let rank = ((p * tick_ns.len() as f64).ceil() as usize).clamp(1, tick_ns.len());
        tick_ns[rank - 1] as f64 * 1e-6
    };
    let raw = [
        median(&mut slice_setups).expect("at least one set-up"),
        server_ticks as f64 / loop_s,
        pct(0.50),
        pct(0.99),
        finish_s,
    ];
    let scale = clock.scale();
    let values = [
        raw[0] * scale,
        raw[1] / scale,
        raw[2] * scale,
        raw[3] * scale,
        raw[4] * scale,
        peak_rss_mib() - clock.bytes() as f64 / (1024.0 * 1024.0),
    ];

    let mut notes = vec![format!(
        "{} seed {seed}: {} episode(s); {} tick samples (fastest of {} repeats each); \
         {} set-up slices",
        spec.workload.name(),
        episodes.len(),
        tick_ns.len(),
        episodes.len(),
        slice_setups.len(),
    )];
    notes.push(format!(
        "  host clock: 20th-percentile hop {:.2} ns, median {:.2} ns over {} chases; \
         times scaled by {scale:.4}",
        clock.low_ns(),
        clock.median_ns(),
        clock.samples(),
    ));
    notes.push(format!(
        "  unscaled: setup_s {:.6e} server_ticks_per_s {:.6e} tick_p50_ms {:.6} tick_p99_ms {:.6} \
         finish_s {:.6e}",
        raw[0], raw[1], raw[2], raw[3], raw[4]
    ));
    notes.push(format!(
        "  episode tick-loop seconds: {:?}",
        episodes
            .iter()
            .map(|runs| (runs.iter().map(|r| r.loop_s).sum::<f64>() * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    for run in &episodes[0] {
        notes.push(format!(
            "  {}: placements {} dropped {} digest {:#018x} peak cooling {:.1} W (bits {:#x})",
            run.policy,
            run.placements,
            run.dropped,
            run.digest,
            run.peak_cooling_w,
            run.peak_cooling_w.to_bits()
        ));
    }
    notes.push(format!("  failed_frac {:.3e}", ratio(dropped, attempted)));
    if let Some(gap) = paper_gap_pp(&episodes[0]) {
        notes.push(format!("  paper_gap_pp {gap:.3}"));
    }
    finish_outcome(checks, attempted, dropped, &END_TO_END, &values, notes)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Assembles the result; a metric that could not be measured fails the
/// run like a failed output check.
fn finish_outcome(
    checks: Checks,
    attempted: u64,
    dropped: u64,
    names: &[(&'static str, &'static str)],
    values: &[f64],
    mut notes: Vec<String>,
) -> Outcome {
    let mut checks = checks;
    for (&(name, _), value) in names.iter().zip(values) {
        checks.require(value.is_finite(), || {
            format!("metric {name} was not measured")
        });
    }
    let correct = checks.failures.is_empty();
    for failure in &checks.failures {
        notes.push(format!("CHECK FAILED: {failure}"));
    }
    Outcome {
        correct,
        attempted: attempted.max(1),
        failed: if correct { dropped } else { attempted.max(1) },
        metrics: names
            .iter()
            .zip(values)
            .map(|(&(name, unit), &value)| (name, unit, value))
            .collect(),
        notes,
    }
}

/// The traced run: per-layer metrics, the ledger and its cross-checks.
pub fn trace(spec: &Spec, seed: u64, spans_out: Option<&std::path::Path>) -> Outcome {
    let (calib_alu, calib_chase) = calibrate();

    // Each policy runs untraced and traced in lockstep. Non-observed
    // workloads attach the engine's phase profiler (no sink, no series)
    // to the traced run so the ledger can be checked against it. On
    // `observed-10k` a third run with telemetry off joins the lockstep
    // for the telemetry overhead.
    let mut spans = Spans::new();
    let (mut untraced, mut traced, mut tel_off) = (Vec::new(), Vec::new(), None);
    for kind in spec.policies() {
        let mut group = vec![
            Running::start(spec, kind, seed, spec.telemetry(), None, None),
            Running::start(
                spec,
                kind,
                seed,
                Some(spec.telemetry().unwrap_or_default()),
                None,
                Some(&mut spans),
            ),
        ];
        if spec.observed() {
            group.push(Running::start(spec, kind, seed, None, None, None));
        }
        let mut done = lockstep(group, &mut spans).into_iter();
        untraced.push(done.next().expect("untraced run"));
        traced.push(done.next().expect("traced run"));
        tel_off = done.next();
    }
    let mut checks = Checks::new();
    checks.episode(spec, seed, &untraced);
    checks.same("traced vs untraced", &untraced, &traced);

    // Isolated replays. On `paper-1k` each policy replays its own
    // captures; elsewhere the three other policies place the VMT-WA
    // captures' batches. The policy-independent layers replay on the
    // VMT-WA captures everywhere.
    let mut spills: Vec<(&'static str, SpillCount)> = Vec::new();
    let others: Vec<PolicyKind> = if spec.workload == Workload::Paper1k {
        Vec::new()
    } else {
        paper_policies()[..3].to_vec()
    };
    for (kind, run) in spec.policies().into_iter().zip(&traced) {
        let common = policy_name(kind) == "vmt-wa";
        for (capture, snap) in &run.captures {
            let counts = replay_capture(
                snap,
                *capture,
                kind,
                if common { &others } else { &[] },
                common,
                &mut spans,
            );
            for (name, (s, p)) in counts {
                match spills.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, (ss, pp))) => {
                        *ss += s;
                        *pp += p;
                    }
                    None => spills.push((name, (s, p))),
                }
            }
        }
    }

    // Telemetry overhead: on `observed-10k` the full episode against
    // the same episode with telemetry off; elsewhere a short probe with
    // the observed stack against the same probe without it, in lockstep.
    let probe = tel_off.is_none().then(|| {
        let wa = PolicyKind::vmt_wa(crate::workload::GV);
        let runs = vec![
            Running::start(
                spec,
                wa,
                seed,
                Some(observed_stack()),
                Some(PROBE_TICKS),
                None,
            ),
            Running::start(spec, wa, seed, None, Some(PROBE_TICKS), None),
        ];
        lockstep(runs, &mut spans)
    });
    let (tel_on, tel_off) = match (&tel_off, &probe) {
        (Some(off), _) => (untraced.last().expect("observed runs vmt-wa"), off),
        (None, Some(probe)) => (&probe[0], &probe[1]),
        (None, None) => unreachable!("the probe runs whenever no off run did"),
    };
    checks.same(
        "telemetry on vs off",
        std::slice::from_ref(tel_on),
        std::slice::from_ref(tel_off),
    );
    let (trace_records, render_s) = tel_on.trace_export.unwrap_or((0, 0.0));

    let ledger = Ledger::new(spec, &untraced, &traced, &spans);
    for _ in 0..TRACE_BUILDS {
        let id = spans.open("workload.trace_build", "", Capture::Run, NO_PARENT);
        std::hint::black_box(spec.trace(seed));
        spans.close(id, 1);
    }
    let cost = |name: &str, label: &str| spans.replay_ns(name, label).unwrap_or(f64::NAN);
    let spill = |name: &str| {
        spec.policies()
            .iter()
            .position(|&k| policy_name(k) == name)
            .and_then(|i| traced[i].summary.as_ref()?.scheduler)
            .map(|c| ratio(c.spills, c.placements))
            .or_else(|| {
                spills
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, (s, p))| ratio(*s, *p))
            })
            .unwrap_or(f64::NAN)
    };
    let t1 = cost("dcsim.farm.tick_physics_t1", "");
    let t2 = cost("dcsim.farm.tick_physics_t2", "");
    let wa_label = "vmt-wa";
    let untraced_loop: f64 = untraced.iter().map(|r| r.loop_s).sum();
    let traced_loop: f64 = traced.iter().map(|r| r.loop_s).sum();
    let attempted: u64 = untraced.iter().map(PolicyRun::arrivals).sum();
    let dropped: u64 = untraced.iter().map(|r| r.dropped).sum();
    let values = [
        cost("workload.plan_into", ""),
        spans
            .per_unit_ns("workload.trace_build", "", Capture::Run)
            .unwrap_or(f64::NAN)
            * 1e-6,
        cost("core.place_batch", "round-robin"),
        cost("core.place_batch", "coolest-first"),
        cost("core.place_batch", "vmt-ta"),
        cost("core.place_batch", "vmt-wa"),
        cost("core.on_tick", wa_label) * 1e-3,
        cost("core.balance.argmin", ""),
        cost("core.balance.update", ""),
        cost("core.balance.rebuild", ""),
        spill("round-robin"),
        spill("coolest-first"),
        spill("vmt-ta"),
        spill("vmt-wa"),
        cost("dcsim.farm.start_job", ""),
        cost("dcsim.farm.end_job", wa_label),
        t1,
        t2,
        t1 / t2,
        traced
            .iter()
            .find(|r| r.policy == "vmt-wa")
            .and_then(|r| r.job_table_bytes_per_server)
            .unwrap_or(f64::NAN),
        cost("dcsim.farm.from_config", "") * 1e-6,
        cost("dcsim.index.build", "") * 1e-6,
        cost("dcsim.topology.zones_step", ""),
        cost("pcm.kernel.exchange", ""),
        cost("thermal.inlet", ""),
        cost("thermal.kernel.step", ""),
        (untraced_loop - ledger.total_s) / attempted.max(1) as f64 * 1e9,
        tel_on.loop_s / tel_off.loop_s - 1.0,
        if trace_records > 0 {
            render_s / trace_records as f64 * 1e9
        } else {
            f64::NAN
        },
        trace_records as f64,
        calib_alu,
        calib_chase,
        ledger.total_s / untraced_loop,
        ledger.total_s / ledger.phase_total_s,
        ledger.placement_s / ledger.phase_placement_s,
        ledger.departures_s / ledger.phase_departures_s,
        ledger.physics_s / ledger.phase_physics_s,
        traced_loop / untraced_loop - 1.0,
    ];

    let mut notes = vec![format!(
        "{} seed {seed} (traced): untraced loop {untraced_loop:.3} s, traced loop {traced_loop:.3} s, \
         {} spans",
        spec.workload.name(),
        spans.all().len()
    )];
    notes.push(format!(
        "  ledger {:.3} s = placement {:.3} + departures {:.3} + physics {:.3} + other {:.3}; \
         engine phases: placement {:.3} departures {:.3} physics {:.3} total {:.3}",
        ledger.total_s,
        ledger.placement_s,
        ledger.departures_s,
        ledger.physics_s,
        ledger.total_s - ledger.placement_s - ledger.departures_s - ledger.physics_s,
        ledger.phase_placement_s,
        ledger.phase_departures_s,
        ledger.phase_physics_s,
        ledger.phase_total_s
    ));
    for run in &untraced {
        notes.push(format!(
            "  {}: placements {} dropped {} digest {:#018x}",
            run.policy, run.placements, run.dropped, run.digest
        ));
    }
    if let Some(path) = spans_out {
        match spans.write_jsonl(path) {
            Ok(()) => notes.push(format!("  spans: {}", path.display())),
            Err(err) => checks
                .failures
                .push(format!("cannot write spans to {}: {err}", path.display())),
        }
    }
    finish_outcome(checks, attempted, dropped, &PER_LAYER, &values, notes)
}

/// Σ(isolated layer cost × program count) over a workload's policies,
/// and the engine's own phase totals from the traced run's summary.
struct Ledger {
    total_s: f64,
    placement_s: f64,
    departures_s: f64,
    physics_s: f64,
    phase_total_s: f64,
    phase_placement_s: f64,
    phase_departures_s: f64,
    phase_physics_s: f64,
}

impl Ledger {
    fn new(spec: &Spec, untraced: &[PolicyRun], traced: &[PolicyRun], spans: &Spans) -> Self {
        let cost = |name: &str, label: &str| spans.replay_ns(name, label).unwrap_or(0.0) * 1e-9;
        let sweep = cost("dcsim.farm.tick_physics_t1", "");
        let per_server = sweep
            + if spec.zoned() {
                cost("dcsim.topology.zones_step", "")
            } else {
                0.0
            };
        let mut ledger = Ledger {
            total_s: 0.0,
            placement_s: 0.0,
            departures_s: 0.0,
            physics_s: 0.0,
            phase_total_s: 0.0,
            phase_placement_s: 0.0,
            phase_departures_s: 0.0,
            phase_physics_s: 0.0,
        };
        for run in untraced {
            let arrivals = run.arrivals() as f64;
            let ticks = run.ticks as f64;
            let placement =
                (cost("workload.plan_into", "") + cost("core.place_batch", run.policy)) * arrivals;
            let departures = cost("dcsim.farm.end_job", run.policy) * run.departures() as f64;
            let physics = sweep * run.servers as f64 * ticks;
            ledger.placement_s += placement;
            ledger.departures_s += departures;
            ledger.physics_s += physics;
            ledger.total_s += placement
                + departures
                + cost("core.on_tick", run.policy) * ticks
                + per_server * run.servers as f64 * ticks;
        }
        for run in traced {
            if let Some(summary) = &run.summary {
                let p = &summary.phases;
                ledger.phase_total_s += p.total_s;
                ledger.phase_placement_s += p.placement_s;
                ledger.phase_departures_s += p.departures_s;
                ledger.phase_physics_s += p.physics_s;
            }
        }
        ledger
    }
}
