//! Telemetry integration tests: instrumentation must be observational.
//!
//! The contract is two-sided. With telemetry disabled the engine takes
//! zero timestamps and allocates nothing extra — the differential tests
//! in `tests/differential.rs` pin that path. With telemetry *enabled*,
//! the simulation results must still be bit-identical to the
//! uninstrumented run at every thread count: the instrumentation reads
//! the simulation, never steers it. These tests pin the enabled side
//! and the JSONL stream contract.

use vmt_core::PolicyKind;
use vmt_dcsim::{ClusterConfig, Simulation, SimulationResult, TelemetryConfig, ZoneSpec};
use vmt_telemetry::{Event, MetricsPublisher, SharedBuffer, SummaryHandle};
use vmt_units::Hours;
use vmt_workload::{DiurnalTrace, TraceConfig};

const SERVERS: usize = 100;

fn config(seed: u64, hours: f64) -> (ClusterConfig, TraceConfig) {
    let mut cluster = ClusterConfig::paper_default(SERVERS);
    cluster.seed = seed;
    let mut trace = TraceConfig {
        horizon: Hours::new(hours),
        ..TraceConfig::paper_default()
    };
    trace.seed = trace.seed.wrapping_add(seed);
    (cluster, trace)
}

fn run_plain(policy: PolicyKind, seed: u64, threads: usize) -> SimulationResult {
    let (cluster, trace) = config(seed, 24.0);
    let scheduler = policy.build(&cluster);
    Simulation::new(cluster, DiurnalTrace::new(trace), scheduler)
        .with_threads(threads)
        .run()
}

fn run_instrumented(
    policy: PolicyKind,
    seed: u64,
    threads: usize,
    telemetry: TelemetryConfig,
) -> SimulationResult {
    let (cluster, trace) = config(seed, 24.0);
    let scheduler = policy.build(&cluster);
    Simulation::new(cluster, DiurnalTrace::new(trace), scheduler)
        .with_threads(threads)
        .with_telemetry(telemetry)
        .run()
}

/// Enabling telemetry — registry, phase timing, and a live event sink —
/// must not perturb the simulation by a single bit, at any thread count.
#[test]
fn telemetry_is_observationally_pure() {
    for policy in [
        PolicyKind::CoolestFirst,
        PolicyKind::VmtTa { gv: 22.0 },
        PolicyKind::vmt_wa(22.0),
    ] {
        for seed in [0u64, 42] {
            let baseline = run_plain(policy, seed, 1);
            for threads in [1usize, 4] {
                let buffer = SharedBuffer::new();
                let telemetry = TelemetryConfig::new()
                    .with_sink(vmt_telemetry::EventSink::to_shared_buffer(&buffer));
                let instrumented = run_instrumented(policy, seed, threads, telemetry);
                assert_eq!(
                    instrumented, baseline,
                    "telemetry perturbed {policy:?} seed {seed} threads {threads}"
                );
                assert!(
                    !buffer.contents().is_empty(),
                    "sink saw no events for {policy:?}"
                );
            }
        }
    }
}

/// The JSONL stream of an instrumented VMT-WA run is well-formed:
/// `RunConfig` first, `Summary` last, at least one snapshot per
/// simulated hour, and — at a grouping value that stresses the wax —
/// melt and hot-group events in between.
#[test]
fn instrumented_stream_is_well_formed() {
    let (cluster, trace) = config(0, 48.0);
    // GV=14 undersizes the hot group so the 48 h diurnal trace forces
    // both wax melt/freeze crossings and organic hot-group growth.
    let policy = PolicyKind::vmt_wa(14.0);
    let scheduler = policy.build(&cluster);
    let buffer = SharedBuffer::new();
    let telemetry =
        TelemetryConfig::new().with_sink(vmt_telemetry::EventSink::to_shared_buffer(&buffer));
    let ticks = cluster.ticks_for(Hours::new(48.0));
    let result = Simulation::new(cluster, DiurnalTrace::new(trace), scheduler)
        .with_telemetry(telemetry)
        .run();

    let text = buffer.contents();
    let stream = vmt_telemetry::validate_stream(&text).expect("stream validates");
    assert_eq!(stream.run_config.servers, SERVERS as u64);
    assert_eq!(stream.run_config.policy, "vmt-wa");
    assert_eq!(stream.run_config.ticks, ticks as u64);
    assert!(
        stream.snapshots >= 48,
        "expected one snapshot per simulated hour, got {}",
        stream.snapshots
    );
    assert!(stream.melts > 0, "no melt events over two diurnal peaks");
    assert!(
        stream.hot_group_events > 0,
        "no hot-group events despite an undersized group"
    );
    assert_eq!(stream.summary.ticks_run, ticks as u64);
    assert_eq!(stream.summary.placements, result.placements);
    assert_eq!(stream.summary.dropped_jobs, result.dropped_jobs);

    // Every line individually round-trips through the public Event type.
    for line in text.lines() {
        let event: Event = serde_json::from_str(line).expect("line parses");
        let rewritten = serde_json::to_string(&event).expect("event serializes");
        let reparsed: Event = serde_json::from_str(&rewritten).expect("round-trip parses");
        assert_eq!(event, reparsed);
    }
}

/// The full observability layer — time-series rings, per-zone thermal
/// gauges, the dashboard driver, and the scrape publisher — is as
/// observational as the event sink: a zoned run with everything enabled
/// matches the bare run digest-for-digest at every tick, and the final
/// result is bit-identical, at every thread count.
#[test]
fn zoned_observability_is_observationally_pure() {
    const ZONED_SERVERS: usize = 40;
    let hours = 6.0;
    let build = |threads: usize| {
        let mut cluster = ClusterConfig::paper_default(ZONED_SERVERS);
        cluster.seed = 7;
        // Two 20-server zones: one rack per row, one row per zone.
        let mut spec = ZoneSpec::paper_default();
        spec.racks_per_row = 1;
        spec.rows_per_zone = 1;
        cluster.topology = Some(spec);
        let mut trace = TraceConfig {
            horizon: Hours::new(hours),
            ..TraceConfig::paper_default()
        };
        trace.seed = trace.seed.wrapping_add(7);
        let policy = PolicyKind::vmt_wa(22.0);
        let scheduler = policy.build(&cluster);
        Simulation::new(cluster, DiurnalTrace::new(trace), scheduler).with_threads(threads)
    };

    for threads in [1usize, 8] {
        let mut bare = build(threads);
        let publisher = MetricsPublisher::new();
        let mut instrumented = build(threads).with_telemetry(
            TelemetryConfig::new()
                .with_series(128)
                .with_dashboard_every(60)
                .with_publisher(publisher.clone()),
        );

        // March both runs in lockstep and compare live state digests
        // after every tick — a divergence is caught at the tick that
        // caused it, not at the end of the horizon.
        let mut tick = 0u64;
        loop {
            let bare_stepped = bare.step();
            let instrumented_stepped = instrumented.step();
            assert_eq!(
                bare_stepped, instrumented_stepped,
                "horizon mismatch at tick {tick} threads {threads}"
            );
            if !bare_stepped {
                break;
            }
            tick += 1;
            assert_eq!(
                bare.state_digest(),
                instrumented.state_digest(),
                "observability perturbed tick {tick} threads {threads}"
            );
        }
        assert_eq!(tick, (hours * 60.0) as u64, "unexpected horizon length");

        let (bare_result, _) = bare.finish();
        let (instrumented_result, _) = instrumented.finish();
        assert_eq!(
            bare_result, instrumented_result,
            "observability perturbed the final result at threads {threads}"
        );

        // The publisher saw the closing exposition, and it carries the
        // per-zone thermal families the scrape endpoint serves.
        let publication = publisher.latest();
        assert_eq!(publication.tick, tick);
        let exposition =
            vmt_telemetry::parse_openmetrics(&publication.body).expect("publication parses");
        for family in ["zone_temp_c", "zone_crac_duty", "cluster_cooling_w"] {
            assert!(
                exposition.family(family).is_some(),
                "publication missing `{family}`"
            );
        }
    }
}

/// The end-of-run summary agrees with the `SimulationResult` and with
/// the scheduler's own counters, and the phase spans account for the
/// tick time they claim to measure.
#[test]
fn summary_agrees_with_result_and_counters() {
    let policy = PolicyKind::vmt_wa(22.0);
    let telemetry = TelemetryConfig::new();
    let summary: SummaryHandle = telemetry.summary.clone();
    let result = run_instrumented(policy, 0, 1, telemetry);
    let summary = summary.get().expect("summary deposited");

    assert_eq!(summary.policy, result.scheduler_name);
    assert_eq!(summary.placements, result.placements);
    assert_eq!(summary.dropped_jobs, result.dropped_jobs);
    assert_eq!(summary.peak_cooling_w, result.cooling.peak().get());
    let counters = summary.scheduler.expect("vmt-wa exposes counters");
    assert_eq!(counters.placements, result.placements);
    assert_eq!(
        counters.hot_placements + counters.cold_placements,
        counters.placements
    );
    assert!(
        summary.phases.coverage() > 0.9,
        "phase spans cover {:.1}% of tick time",
        summary.phases.coverage() * 100.0
    );
    let report = vmt_telemetry::render_report(&summary);
    assert!(report.contains("tick phases"));
    assert!(report.contains(&result.scheduler_name));
}

/// `run()` skips materializing the final `Vec<Server>`, so it must
/// return exactly what `run_returning_servers()` returns, with and
/// without telemetry attached, and still flush the telemetry summary.
#[test]
fn run_equals_run_returning_servers() {
    let policy = PolicyKind::vmt_wa(22.0);
    let build = || {
        let (cluster, trace) = config(0, 24.0);
        let scheduler = policy.build(&cluster);
        Simulation::new(cluster, DiurnalTrace::new(trace), scheduler)
    };
    let (returned, servers) = build().run_returning_servers();
    assert_eq!(servers.len(), SERVERS);
    assert_eq!(build().run(), returned, "without telemetry");

    let telemetry = TelemetryConfig::new();
    let summary: SummaryHandle = telemetry.summary.clone();
    let run = build().with_telemetry(telemetry).run();
    assert_eq!(run, returned, "with telemetry");
    assert_eq!(
        summary.get().expect("summary deposited").placements,
        run.placements
    );
    let (instrumented, _) = build()
        .with_telemetry(TelemetryConfig::new())
        .run_returning_servers();
    assert_eq!(
        instrumented, returned,
        "run_returning_servers with telemetry"
    );
}
