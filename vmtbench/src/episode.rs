//! One policy's run of a workload, timed from outside the simulator.

use crate::spans::{Capture, Spans, NO_PARENT};
use crate::workload::{policy_name, Spec, THREADS};
use std::time::Instant;
use vmt_core::PolicyKind;
use vmt_dcsim::{Simulation, Snapshot, SummaryHandle, TelemetryConfig, TracerHandle};
use vmt_telemetry::{render_trace, SummaryEvent};

/// Extra `finish()` samples taken on forks of an untraced run without
/// telemetry.
const FINISH_FORKS: usize = 8;

/// Times the trace export is repeated; the fastest counts.
const EXPORT_REPEATS: usize = 2;

/// What one policy's run produced and cost.
#[derive(Debug)]
pub struct PolicyRun {
    /// Scheduler name.
    pub policy: &'static str,
    /// Trace generation, scheduler construction and `Simulation::new`
    /// with its telemetry config, in seconds.
    pub setup_s: f64,
    /// Host nanoseconds of each `step()`.
    pub tick_ns: Vec<u64>,
    /// Ticks executed.
    pub ticks: u64,
    /// Servers simulated.
    pub servers: u64,
    /// Seconds in the tick loop.
    pub loop_s: f64,
    /// `finish()` (the fastest of the run's own and its forks') plus any
    /// trace export, in seconds.
    pub finish_s: f64,
    /// Jobs placed.
    pub placements: u64,
    /// Jobs dropped.
    pub dropped: u64,
    /// Jobs still running when the horizon ended.
    pub running_at_end: u64,
    /// `state_digest()` after the last tick.
    pub digest: u64,
    /// Peak cooling load in watts.
    pub peak_cooling_w: f64,
    /// The telemetry summary, when telemetry was attached.
    pub summary: Option<SummaryEvent>,
    /// Span records exported by `render_trace` and the seconds it took.
    pub trace_export: Option<(usize, f64)>,
    /// Engine state at the trough and peak ticks (traced runs only).
    pub captures: Vec<(Capture, Snapshot)>,
    /// Job-table heap bytes per server at the peak tick (traced runs
    /// only).
    pub job_table_bytes_per_server: Option<f64>,
}

impl PolicyRun {
    /// Jobs that arrived: placed plus dropped.
    pub fn arrivals(&self) -> u64 {
        self.placements + self.dropped
    }

    /// Jobs that departed during the run.
    pub fn departures(&self) -> u64 {
        self.placements - self.running_at_end
    }
}

/// A simulation being stepped by the benchmark. A traced one wraps each
/// call in a span and captures the engine state at the workload's
/// trough and peak ticks.
pub struct Running {
    sim: Simulation,
    policy: &'static str,
    traced: bool,
    root: u32,
    setup_s: f64,
    ticks: u64,
    servers: u64,
    capture_at: [(Capture, u64); 2],
    tick_ns: Vec<u64>,
    captures: Vec<(Capture, Snapshot)>,
    job_table_bytes_per_server: Option<f64>,
    summary: Option<SummaryHandle>,
    tracer: Option<TracerHandle>,
}

impl Running {
    /// Sets `kind` up on the workload with `telemetry` attached, to run
    /// `ticks` ticks (the whole horizon when `None`). Pass `spans` to
    /// trace it.
    pub fn start(
        spec: &Spec,
        kind: PolicyKind,
        seed: u64,
        telemetry: Option<TelemetryConfig>,
        ticks: Option<u64>,
        mut spans: Option<&mut Spans>,
    ) -> Self {
        let policy = policy_name(kind);
        let summary = telemetry.as_ref().map(|t| t.summary.clone());
        let tracer = telemetry.as_ref().map(|t| t.tracer.clone());
        let root = spans.as_deref_mut().map_or(NO_PARENT, |s| {
            s.open("bench.run", policy, Capture::Run, NO_PARENT)
        });
        let new_span = spans
            .as_deref_mut()
            .map(|s| s.open("sim.new", policy, Capture::Run, root));
        let started = Instant::now();
        let trace = spec.trace(seed);
        let cluster = spec.cluster(seed);
        let scheduler = kind.build(&cluster);
        let mut sim = Simulation::new(cluster, trace.clone(), scheduler).with_threads(THREADS);
        if let Some(telemetry) = telemetry {
            sim = sim.with_telemetry(telemetry);
        }
        let setup_s = started.elapsed().as_secs_f64();
        if let (Some(s), Some(id)) = (spans, new_span) {
            s.close(id, 1);
        }
        let (trough, peak) = spec.capture_ticks(&trace);
        let ticks = ticks.unwrap_or(spec.ticks()).min(spec.ticks());
        Self {
            sim,
            policy,
            traced: root != NO_PARENT,
            root,
            setup_s,
            ticks,
            servers: spec.servers as u64,
            capture_at: [(Capture::Trough, trough), (Capture::Peak, peak)],
            tick_ns: Vec::with_capacity(ticks as usize),
            captures: Vec::new(),
            job_table_bytes_per_server: None,
            summary,
            tracer,
        }
    }

    /// Ticks this run executes.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Executes the next tick, timing it. A traced run records its span
    /// in `spans`; an untraced one ignores them.
    pub fn step(&mut self, spans: &mut Spans) {
        let t = self.tick_ns.len() as u64;
        let ns = if self.traced {
            for (capture, at) in self.capture_at {
                if t == at {
                    let id = spans.open("bench.snapshot", self.policy, capture, self.root);
                    let snap = self.sim.snapshot().expect("paper policies snapshot");
                    self.captures.push((capture, snap));
                    spans.close(id, 1);
                    if capture == Capture::Peak {
                        self.job_table_bytes_per_server =
                            Some(self.sim.farm().job_table_bytes() as f64 / self.servers as f64);
                    }
                }
            }
            let id = spans.open("sim.step", self.policy, Capture::Run, self.root);
            self.sim.step();
            spans.close(id, self.servers);
            spans.all()[id as usize].dur_ns()
        } else {
            let started = Instant::now();
            self.sim.step();
            started.elapsed().as_nanos() as u64
        };
        self.tick_ns.push(ns);
    }

    /// Ends the run: `finish()` plus, with telemetry, the trace export.
    pub fn finish(self, spans: &mut Spans) -> PolicyRun {
        let Running {
            sim,
            policy,
            traced,
            root,
            setup_s,
            ticks,
            servers,
            tick_ns,
            captures,
            job_table_bytes_per_server,
            summary,
            tracer,
            ..
        } = self;
        let digest = sim.state_digest();
        // Without telemetry, `finish()` is also timed on forks of the
        // finished run: one finish per run is too few samples to time a
        // call this short. A fork carries no telemetry, so a run that has
        // some times its own finish only.
        let mut finish_s = f64::INFINITY;
        if !traced && summary.is_none() {
            for _ in 0..FINISH_FORKS {
                let fork = sim.fork().expect("paper policies fork");
                let started = Instant::now();
                let finished = fork.finish();
                finish_s = finish_s.min(started.elapsed().as_secs_f64());
                drop(finished);
            }
        }
        let finish_span = traced.then(|| spans.open("sim.finish", policy, Capture::Run, root));
        let started = Instant::now();
        let (result, final_servers) = sim.finish();
        finish_s = finish_s.min(started.elapsed().as_secs_f64());
        if let Some(id) = finish_span {
            spans.close(id, servers);
        }
        let trace_export = tracer.and_then(|handle| {
            let buffer = handle.take()?;
            let records = buffer.records.len();
            let mut render_s = f64::INFINITY;
            for _ in 0..EXPORT_REPEATS {
                let id = traced
                    .then(|| spans.open("telemetry.render_trace", policy, Capture::Run, root));
                let started = Instant::now();
                let json = render_trace(&buffer);
                render_s = render_s.min(started.elapsed().as_secs_f64());
                if let Some(id) = id {
                    spans.close(id, records as u64);
                }
                drop(std::hint::black_box(json));
            }
            Some((records, render_s))
        });
        if let Some((_, render_s)) = trace_export {
            finish_s += render_s;
        }
        if traced {
            spans.close(root, 1);
        }

        let running_at_end = final_servers
            .iter()
            .map(|s| u64::from(s.used_cores()))
            .sum();
        PolicyRun {
            policy,
            setup_s,
            loop_s: tick_ns.iter().sum::<u64>() as f64 * 1e-9,
            tick_ns,
            ticks,
            servers,
            finish_s,
            placements: result.placements,
            dropped: result.dropped_jobs,
            running_at_end,
            digest,
            peak_cooling_w: result.peak_cooling().get(),
            summary: summary.and_then(|handle| handle.get()),
            trace_export,
            captures,
            job_table_bytes_per_server,
        }
    }
}

/// Runs `kind` on the workload alone, start to finish, untraced.
pub fn run_policy(
    spec: &Spec,
    kind: PolicyKind,
    seed: u64,
    telemetry: Option<TelemetryConfig>,
) -> PolicyRun {
    let mut unused = Spans::new();
    let mut run = Running::start(spec, kind, seed, telemetry, None, None);
    for _ in 0..run.ticks() {
        run.step(&mut unused);
    }
    run.finish(&mut unused)
}

/// Steps `runs` tick by tick in lockstep, alternating which goes first,
/// so that the runs of a comparison see the same host conditions; then
/// finishes them in order.
pub fn lockstep(mut runs: Vec<Running>, spans: &mut Spans) -> Vec<PolicyRun> {
    let ticks = runs.iter().map(Running::ticks).min().unwrap_or(0);
    for t in 0..ticks {
        let n = runs.len();
        for i in 0..n {
            let at = if t % 2 == 0 { i } else { n - 1 - i };
            runs[at].step(spans);
        }
    }
    runs.into_iter().map(|run| run.finish(spans)).collect()
}

/// Times set-up alone: the same work as a run's set-up, then drops the
/// simulations without stepping them.
pub fn setup_only(spec: &Spec, seed: u64) -> f64 {
    let started = Instant::now();
    let mut sims = Vec::new();
    for kind in spec.policies() {
        let trace = spec.trace(seed);
        let cluster = spec.cluster(seed);
        let scheduler = kind.build(&cluster);
        let mut sim = Simulation::new(cluster, trace, scheduler).with_threads(THREADS);
        if let Some(telemetry) = spec.telemetry() {
            sim = sim.with_telemetry(telemetry);
        }
        sims.push(sim);
    }
    let setup_s = started.elapsed().as_secs_f64();
    drop(sims);
    setup_s
}
