//! The benchmark's three workloads and the outputs pinned for them.
//!
//! Load is a closed loop: the simulator runs ticks back to back, each
//! tick's arrivals planned from the trace. The `--seed` argument seeds
//! the trace and the cluster's arrival RNGs; seed 0 is the paper's
//! default trace.

use vmt_core::PolicyKind;
use vmt_dcsim::{ClusterConfig, FlightConfig, TelemetryConfig, TraceSpec};
use vmt_telemetry::{MetricsPublisher, WatchdogSpec};
use vmt_units::Hours;
use vmt_workload::{DiurnalTrace, TraceConfig};

/// The seed whose outputs are pinned; it runs the paper's own trace.
pub const DEFAULT_SEED: u64 = 0;

/// A second seed, never used while pinning, on which the benchmark's
/// tests check that traced and untraced runs agree.
pub const HELD_OUT_SEED: u64 = 1;

/// Physics worker threads of every workload: one, so that a run
/// measures one core's work and never more threads than the host has.
pub const THREADS: usize = 1;

/// The paper's headline grouping value.
pub const GV: f64 = 22.0;

/// The paper's peak-cooling reduction of VMT-WA against round robin
/// at GV = 22, in percent.
pub const PAPER_REDUCTION_PCT: f64 = 12.8;

/// The four paper policies, in the order `paper-1k` runs them.
pub fn paper_policies() -> [PolicyKind; 4] {
    [
        PolicyKind::RoundRobin,
        PolicyKind::CoolestFirst,
        PolicyKind::VmtTa { gv: GV },
        PolicyKind::vmt_wa(GV),
    ]
}

/// The scheduler name of one of the four paper policies.
pub fn policy_name(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::RoundRobin => "round-robin",
        PolicyKind::CoolestFirst => "coolest-first",
        PolicyKind::VmtTa { .. } => "vmt-ta",
        PolicyKind::VmtWa { .. } => "vmt-wa",
        PolicyKind::AdaptiveGv { .. } => "adaptive-gv",
        PolicyKind::Preserve { .. } => "vmt-preserve",
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's experiment: 1,000 servers, 48 h, all four policies.
    Paper1k,
    /// 10,000 servers under VMT-WA; placement dominates the tick.
    Placement10k,
    /// 10,000 zoned servers under VMT-WA with the telemetry stack on.
    Observed10k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Paper1k,
        Workload::Placement10k,
        Workload::Observed10k,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper1k => "paper-1k",
            Workload::Placement10k => "placement-10k",
            Workload::Observed10k => "observed-10k",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size workload.
    pub fn spec(self) -> Spec {
        let (servers, hours) = match self {
            Workload::Paper1k => (1_000, 48.0),
            Workload::Placement10k => (10_000, 24.0),
            Workload::Observed10k => (10_000, 17.0),
        };
        Spec {
            workload: self,
            servers,
            hours,
            pinned: true,
        }
    }

    /// The same workload shrunk to `servers` and `hours` (for the
    /// benchmark's own tests); nothing is pinned at this size.
    pub fn tiny(self, servers: usize, hours: f64) -> Spec {
        Spec {
            workload: self,
            servers,
            hours,
            pinned: false,
        }
    }
}

/// A workload at a size.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Cluster size.
    pub servers: usize,
    /// Trace horizon in simulated hours.
    pub hours: f64,
    /// Whether [`pinned`] outputs apply at this size.
    pub pinned: bool,
}

impl Spec {
    /// The policies the workload runs, back to back.
    pub fn policies(&self) -> Vec<PolicyKind> {
        match self.workload {
            Workload::Paper1k => paper_policies().to_vec(),
            _ => vec![PolicyKind::vmt_wa(GV)],
        }
    }

    /// Whether the cluster carries the rack/row/zone topology.
    pub fn zoned(&self) -> bool {
        self.workload == Workload::Observed10k
    }

    /// Whether the run carries the telemetry stack.
    pub fn observed(&self) -> bool {
        self.workload == Workload::Observed10k
    }

    /// The cluster for `seed`.
    pub fn cluster(&self, seed: u64) -> ClusterConfig {
        let mut cluster = ClusterConfig::paper_default(self.servers);
        cluster.seed ^= seed;
        if self.zoned() {
            cluster = cluster.with_zones();
        }
        cluster
    }

    /// Wall seconds one untraced episode takes on the development host
    /// (2-vCPU Xeon VM), set-up slice and finish forks included. An
    /// untraced run repeats `--seconds` ÷ this many episodes.
    pub fn nominal_episode_s(&self) -> f64 {
        match self.workload {
            Workload::Paper1k => 4.5,
            Workload::Placement10k => 8.0,
            Workload::Observed10k => 6.5,
        }
    }

    /// The trace for `seed`.
    pub fn trace(&self, seed: u64) -> DiurnalTrace {
        let mut trace = TraceConfig::paper_default();
        trace.seed ^= seed;
        trace.horizon = Hours::new(self.hours);
        DiurnalTrace::new(trace)
    }

    /// Ticks in one episode of one policy.
    pub fn ticks(&self) -> u64 {
        ClusterConfig::paper_default(1).ticks_for(Hours::new(self.hours)) as u64
    }

    /// The telemetry a run of this workload carries, if any.
    pub fn telemetry(&self) -> Option<TelemetryConfig> {
        self.observed().then(observed_stack)
    }

    /// The trough and peak ticks of the horizon, skipping the first
    /// hour (or quarter of a short horizon) while the cluster fills.
    pub fn capture_ticks(&self, trace: &DiurnalTrace) -> (u64, u64) {
        let ticks = self.ticks();
        let warm = (ticks / 4).min(60);
        let tick_h = ClusterConfig::paper_default(1).tick.get() / 3600.0;
        let util = |t: u64| trace.total_utilization(Hours::new(t as f64 * tick_h)).get();
        let mut trough = warm;
        let mut peak = warm;
        for t in warm..ticks {
            if util(t) < util(trough) {
                trough = t;
            }
            if util(t) > util(peak) {
                peak = t;
            }
        }
        (trough, peak)
    }
}

/// Span-ring capacity of the observed stack: the last ~4 simulated
/// hours of a 10k-server run at one job in 100. The CLI's default ring
/// (2^20 records) holds the whole run but takes the process past 1.4 GiB
/// at export.
pub const TRACE_RING: usize = 1 << 17;

/// The `observed-10k` telemetry: phases, series, watchdogs, an armed
/// flight recorder without a dump file, a metrics publisher with no
/// listener, and span tracing of one job in 100.
pub fn observed_stack() -> TelemetryConfig {
    TelemetryConfig::new()
        .with_series(TelemetryConfig::DEFAULT_SERIES_CAPACITY)
        .with_watchdogs(WatchdogSpec::default_set())
        .with_flight(FlightConfig::default())
        .with_publisher(MetricsPublisher::new())
        .with_trace(TraceSpec {
            capacity: TRACE_RING,
            sample_every: 100,
            ..TraceSpec::default()
        })
}

/// Outputs of one policy's episode on the default seed at full size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// Scheduler name.
    pub policy: &'static str,
    /// Jobs placed.
    pub placements: u64,
    /// Jobs dropped.
    pub dropped: u64,
    /// `Simulation::state_digest()` after the last tick.
    pub digest: u64,
    /// Bits of the peak cooling load in watts (`paper-1k` only).
    pub peak_cooling_bits: Option<u64>,
}

/// The pinned outputs of `workload` on [`DEFAULT_SEED`].
pub fn pinned(workload: Workload) -> &'static [Pin] {
    match workload {
        Workload::Paper1k => &PAPER_1K,
        Workload::Placement10k => &PLACEMENT_10K,
        Workload::Observed10k => &OBSERVED_10K,
    }
}

const PAPER_1K: [Pin; 4] = [
    Pin {
        policy: "round-robin",
        placements: 6_771_581,
        dropped: 0,
        digest: 0x4d01_9e40_3ef0_aecb,
        peak_cooling_bits: Some(0x410c_6b00_badd_c5e0),
    },
    Pin {
        policy: "coolest-first",
        placements: 6_771_581,
        dropped: 0,
        digest: 0xcd2f_1443_20c9_fccf,
        peak_cooling_bits: Some(0x410c_749a_2f50_c606),
    },
    Pin {
        policy: "vmt-ta",
        placements: 6_771_581,
        dropped: 0,
        digest: 0xca42_1342_08b5_29df,
        peak_cooling_bits: Some(0x4108_d48e_6145_8501),
    },
    Pin {
        policy: "vmt-wa",
        placements: 6_771_581,
        dropped: 0,
        digest: 0xca42_1342_08b5_29df,
        peak_cooling_bits: Some(0x4108_d48e_6145_8501),
    },
];

const PLACEMENT_10K: [Pin; 1] = [Pin {
    policy: "vmt-wa",
    placements: 34_071_569,
    dropped: 0,
    digest: 0xbf43_2d67_29e0_e55e,
    peak_cooling_bits: None,
}];

const OBSERVED_10K: [Pin; 1] = [Pin {
    policy: "vmt-wa",
    placements: 18_029_466,
    dropped: 0,
    digest: 0xe9c8_2c08_8729_3bed,
    peak_cooling_bits: None,
}];
