//! Structure-of-arrays cluster state and the deterministic sharded
//! physics tick.
//!
//! [`ServerFarm`] holds every server's physical state as contiguous
//! arrays — inlet and air temperatures, active core power, wax enthalpy,
//! estimator state — instead of a `Vec<Server>` of pointer-rich structs.
//! The per-tick physics pass sweeps those arrays with the plain-value
//! kernels from `vmt_thermal::kernel` and `vmt_pcm::kernel` in tight,
//! cache-friendly loops, and parallelizes over a **fixed shard grid**:
//!
//! * Servers are split into contiguous shards of [`SHARD`] servers. The
//!   shard layout depends only on the server count — never on the thread
//!   count.
//! * Each shard accumulates its partial sums (electrical power, heat
//!   into wax, temperature sums, stored energy) element-serially in
//!   server order.
//! * The main thread folds the per-shard partials **in shard order**.
//!
//! Because IEEE-754 addition is not associative, this canonical
//! reduction — not "sum in whatever order threads finish" — is what
//! makes the results bit-identical at any thread count, including one:
//! every thread count computes exactly the same shard partials and folds
//! them in exactly the same order. Worker threads only change *who*
//! computes a shard, never *what* is computed.

use crate::config::{ClusterConfig, WaxSpec};
use crate::index::ClusterIndex;
use crate::pool::TickPool;
use crate::server::{Server, ServerId};
use std::cell::UnsafeCell;
use vmt_pcm::{PcmMaterial, WaxKernel, WaxPack, WaxStateEstimator};
use vmt_power::ServerPowerModel;
use vmt_thermal::{AirStream, ServerThermalModel};
use vmt_units::{Celsius, Fraction, Joules, Kilograms, Seconds, Watts, WattsPerKelvin};
use vmt_workload::{Job, JobId, VmtClass, WorkloadKind};

/// Servers per shard of the parallel physics sweep.
///
/// A fixed layout constant (never derived from the thread count), so the
/// reduction tree — and therefore every floating-point result — is a
/// function of the cluster size alone. 64 servers × a handful of `f64`
/// lanes keeps a shard's working set inside L1 while amortizing the
/// per-shard bookkeeping.
pub const SHARD: usize = 64;

/// Minimum servers backing each extra physics worker.
///
/// One pool handoff (wake, claim, park) costs on the order of tens of
/// microseconds; a server's physics step costs tens of nanoseconds. A
/// worker therefore has to cover a couple thousand servers per tick
/// before fanning out beats running its share inline — below that the
/// engine thread sweeps alone no matter how many workers were requested
/// (requesting threads stays harmless at any cluster size, which is
/// what keeps small-cluster multi-thread rows from inverting).
const SERVERS_PER_WORKER: usize = 2048;

/// Minimum departures backing each extra drain worker, for the same
/// handoff-vs-work reason as [`SERVERS_PER_WORKER`]: a worker must
/// retire thousands of jobs for its wake/park round-trip to pay, so
/// the drain fans out one worker per 4,096 bucketed departures and
/// never spreads a tick's bucket thinner than that.
const DEPART_JOBS_PER_WORKER: usize = 4096;

/// Lanes of one branch-free job-row compare (and the granularity a
/// row's stride is rounded up to). Eight 4-byte delta ids are one
/// 256-bit compare; x86-64's baseline SSE2 does it as two.
const LANES: usize = 8;

/// How many entries ahead the departure drain prefetches. A drain entry
/// costs a few tens of nanoseconds, so eight entries cover a DRAM miss.
const PREFETCH_AHEAD: usize = 8;

/// Hints the CPU to pull the cache line holding `p` toward L1.
/// Architecturally a no-op: it never faults, whatever the address, so
/// callers may pass pointers formed with `wrapping_add`.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch has no architectural effect and never faults.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetches the job row starting at slot `start` (`stride` slots):
/// every cache line of its ids and the first line of its kinds.
#[inline(always)]
fn prefetch_row(ids: &[u32], kinds: &[u8], start: usize, stride: usize) {
    let row = ids.as_ptr().wrapping_add(start);
    for lane in (0..stride).step_by(16) {
        prefetch(row.wrapping_add(lane));
    }
    prefetch(row.wrapping_add(stride.saturating_sub(1)));
    prefetch(kinds.as_ptr().wrapping_add(start));
}

/// Bit `s` set when `lanes[s] == delta`: the masked compare of one
/// [`LANES`]-slot chunk. On x86-64 it is two SSE2 compares and two
/// sign-bit gathers; elsewhere the scalar
/// `mask |= (v == delta) << s` form, which is also the reference the
/// SSE2 form is tested against. (The scalar form did not vectorize
/// reliably once inlined into the drain.)
#[inline]
fn chunk_mask(lanes: &[u32; LANES], delta: u32) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{
            _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128, _mm_movemask_ps, _mm_set1_epi32,
        };
        // SAFETY: SSE2 is part of the x86-64 baseline, and the two
        // unaligned 16-byte loads read lanes 0..4 and 4..8 of `lanes`.
        unsafe {
            let key = _mm_set1_epi32(delta as i32);
            let lo = _mm_loadu_si128(lanes.as_ptr().cast());
            let hi = _mm_loadu_si128(lanes.as_ptr().add(4).cast());
            let lo = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, key)));
            let hi = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(hi, key)));
            (lo | hi << 4) as u32
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    lanes
        .iter()
        .enumerate()
        .fold(0, |mask, (s, &v)| mask | u32::from(v == delta) << s)
}

/// Slot of `delta` among the first `len` slots of `row`, if any.
///
/// Branch-free within each 64-slot block: every chunk of the block is
/// compared (live or not, so the trip count is fixed by the row stride
/// and never mispredicts), the chunk masks are packed into one `u64`,
/// slots at or past `len` (stale bytes) are masked off, and
/// `trailing_zeros` picks the first hit. Rows longer than 64 slots
/// (servers with more than 64 cores) take one block at a time.
#[inline]
fn find_job(row: &[u32], len: usize, delta: u32) -> Option<usize> {
    for (b, block) in row.chunks(64).enumerate() {
        let live = len.saturating_sub(b * 64);
        if live == 0 {
            break;
        }
        let (chunks, _) = block.as_chunks::<LANES>();
        let mut mask = 0u64;
        for (c, lanes) in chunks.iter().enumerate() {
            mask |= u64::from(chunk_mask(lanes, delta)) << (c * LANES);
        }
        mask &= u64::MAX >> (64 - live.min(64));
        if mask != 0 {
            return Some(b * 64 + mask.trailing_zeros() as usize);
        }
    }
    None
}

/// The u32 delta of `id` against `id_base`, if it fits the window.
#[inline]
fn id_delta(id_base: u64, id: JobId) -> Option<u32> {
    id.0.checked_sub(id_base)
        .and_then(|d| u32::try_from(d).ok())
}

/// Slots per job row for `cores`-core servers: the core count rounded
/// up to whole [`LANES`] chunks.
fn row_stride(cores: u32) -> usize {
    (cores as usize).next_multiple_of(LANES)
}

/// Removes job `id` from one server's row — the exact swap-remove
/// `end_job` has always performed: the row's last live entry moves into
/// the hole. Shared by [`ServerFarm::end_job`] and the sharded
/// departure drain; `ids`/`kinds` are the server's whole row. Returns
/// the job's [`WorkloadKind::index`].
#[inline(always)]
fn remove_job(
    ids: &mut [u32],
    kinds: &mut [u8],
    count: &mut u32,
    id_base: u64,
    server: usize,
    id: JobId,
) -> usize {
    let len = *count as usize;
    let pos = id_delta(id_base, id)
        .and_then(|delta| find_job(ids, len, delta))
        .unwrap_or_else(|| panic!("{id} not running on {}", ServerId(server)));
    let kind = kinds[pos];
    ids[pos] = ids[len - 1];
    kinds[pos] = kinds[len - 1];
    *count = (len - 1) as u32;
    usize::from(kind)
}

/// Stably partitions a departure bucket by server shard for
/// [`ServerFarm::end_jobs_sharded`]: a counting sort into `sorted` (one
/// reused buffer) that leaves `shard_ends[s]` at the end of shard `s`'s
/// run. Stability keeps every server's departures in bucket order.
pub(crate) fn partition_by_shard(
    bucket: &[(JobId, u32)],
    num_shards: usize,
    sorted: &mut Vec<(JobId, u32)>,
    shard_ends: &mut Vec<u32>,
) {
    // Count each shard's entries, turn the counts into start offsets,
    // then scatter: each cursor ends at its shard's end.
    shard_ends.clear();
    shard_ends.resize(num_shards, 0);
    for &(_, server) in bucket {
        shard_ends[server as usize / SHARD] += 1;
    }
    let mut start = 0;
    for slot in shard_ends.iter_mut() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    sorted.clear();
    sorted.resize(bucket.len(), (JobId(0), 0));
    for &entry in bucket {
        let cursor = &mut shard_ends[entry.1 as usize / SHARD];
        sorted[*cursor as usize] = entry;
        *cursor += 1;
    }
}

/// Physical-parallelism ceiling on per-sweep fan-out, resolved once.
///
/// Requesting more workers than the machine has cores cannot make a
/// sweep faster — the surplus workers only time-slice one another and
/// add context-switch overhead (measured ~10–20% on a 1-core host at
/// `--threads 8`). The shard-ordered fold makes the worker count
/// semantically free, so clamping here changes wall-clock only; the
/// configured thread count is still honored up to the hardware.
fn machine_parallelism() -> usize {
    static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Resolves the default tick-level thread count: the `VMT_THREADS`
/// environment variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
pub fn default_tick_threads() -> usize {
    std::env::var("VMT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Wall-clock attribution of one physics sweep, filled only when the
/// engine runs with telemetry enabled — the untimed path takes no
/// timestamps at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTiming {
    /// Nanoseconds spent running the shard kernels (inline or pooled,
    /// including the pool handoff).
    pub shards_ns: u64,
    /// Nanoseconds spent folding the per-shard partials in shard order.
    pub fold_ns: u64,
    /// Summed busy nanoseconds across pool participants (workers plus
    /// the engine thread) while the shard section ran; zero on the
    /// inline single-thread path, where the pool is not engaged.
    pub pool_busy_ns: u64,
    /// Summed idle nanoseconds across pool participants within the
    /// shard section's wall-clock span (`span × participants − busy`);
    /// zero on the inline path.
    pub pool_idle_ns: u64,
}

impl SweepTiming {
    /// Folds a pool section's per-participant busy slots into the
    /// busy/idle attribution, given the section's wall-clock span.
    fn add_pool_busy(&mut self, span_ns: u64, busy: &[u64]) {
        let busy_sum: u64 = busy.iter().sum();
        self.pool_busy_ns += busy_sum;
        self.pool_idle_ns += (span_ns * busy.len() as u64).saturating_sub(busy_sum);
    }
}

/// Order-stable partial sums of one physics tick (raw accumulator
/// units: W, W, °C·servers, °C·servers, J).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FarmTickTotals {
    /// Total electrical power (sum of per-server draws, W).
    pub electrical_w: f64,
    /// Total heat-flow into wax (W; negative while refreezing).
    pub into_wax_w: f64,
    /// Sum of air-at-wax temperatures over all servers (°C).
    pub temp_sum_c: f64,
    /// Sum of air-at-wax temperatures over servers below the hot-group
    /// limit (°C).
    pub hot_sum_c: f64,
    /// Total stored latent energy (J).
    pub stored_energy_j: f64,
}

impl FarmTickTotals {
    /// Folds another partial into this one (field-wise addition).
    fn fold(&mut self, other: &FarmTickTotals) {
        self.electrical_w += other.electrical_w;
        self.into_wax_w += other.into_wax_w;
        self.temp_sum_c += other.temp_sum_c;
        self.hot_sum_c += other.hot_sum_c;
        self.stored_energy_j += other.stored_energy_j;
    }
}

/// Shared wax-pack design of a farm (every server carries the same pack).
#[derive(Debug, Clone)]
struct FarmWax {
    material: PcmMaterial,
    mass: Kilograms,
    ua: WattsPerKelvin,
    taper: f64,
    kernel: WaxKernel,
    /// Estimator template: holds the shared melt-rate lookup table; the
    /// per-server `(temperature, fraction)` state lives in the farm's
    /// arrays and flows through [`WaxStateEstimator::step_state`].
    estimator: WaxStateEstimator,
}

impl FarmWax {
    fn new(spec: &WaxSpec) -> Self {
        Self::from_parts(
            spec.material.clone(),
            spec.sizing.mass_of(&spec.material),
            spec.exchanger_ua,
            spec.interface_taper,
        )
    }

    fn from_parts(material: PcmMaterial, mass: Kilograms, ua: WattsPerKelvin, taper: f64) -> Self {
        Self {
            kernel: WaxKernel::new(&material, mass, ua, taper),
            estimator: WaxStateEstimator::new(material.clone(), mass, ua).with_taper(taper),
            material,
            mass,
            ua,
            taper,
        }
    }
}

/// Serializable image of a farm's per-server state arrays.
///
/// Captures exactly the fields that evolve during a run — thermal and
/// wax arrays plus the running-job slab. Config-derived parts (power
/// model, air stream, wax design) are *not* here; a restore rebuilds
/// them from [`ClusterConfig`] and then overwrites the arrays with
/// [`ServerFarm::apply_state`], which makes the image independent of
/// how those parts are represented internally.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FarmState {
    /// Per-server inlet temperature (°C).
    pub inlet_c: Vec<f64>,
    /// Per-server air temperature at the wax (°C).
    pub at_wax_c: Vec<f64>,
    /// Per-server sum of running jobs' core powers (W).
    pub active_power_w: Vec<f64>,
    /// Per-server wax enthalpy (J).
    pub enthalpy_j: Vec<f64>,
    /// Per-server estimator wax-temperature state (°C).
    pub est_temp_c: Vec<f64>,
    /// Per-server estimator melt-fraction state.
    pub est_fraction: Vec<f64>,
    /// Flat running-job slab (`num_servers × cores` slots). Rows
    /// written by [`ServerFarm::state`] are dense — the first
    /// `job_counts[i]` slots of row `i` hold that server's jobs in
    /// table order, the rest are zero — but a restore only ever reads
    /// the first `job_counts[i]` slots, so archives from writers that
    /// left stale bytes past the count keep restoring identically.
    pub job_ids: Vec<u64>,
    /// Workload index byte of each slab slot.
    pub job_kinds: Vec<u8>,
    /// Occupied slot count per server.
    pub job_counts: Vec<u32>,
}

/// All servers' physical state in structure-of-arrays form.
///
/// Mirrors the per-server [`Server`] API index-wise (`air_at_wax(i)`,
/// `free_cores(i)`, `start_job(i, …)`, …) so schedulers and tests read
/// and mutate one server at a time, while the physics tick sweeps whole
/// arrays at once. [`ServerFarm::to_servers`] and
/// [`ServerFarm::from_servers`] convert losslessly to and from the
/// array-of-structs form.
#[derive(Debug)]
pub struct ServerFarm {
    power_model: ServerPowerModel,
    air: AirStream,
    time_constant: Seconds,
    oracle_wax_state: bool,
    threads: usize,
    wax: Option<FarmWax>,
    /// Per-server inlet temperature (°C).
    inlet_c: Vec<f64>,
    /// Per-server air temperature at the wax (°C).
    at_wax_c: Vec<f64>,
    /// Per-server sum of running jobs' core powers (W).
    active_power_w: Vec<f64>,
    /// Per-server wax enthalpy (J); untouched when the farm is waxless.
    enthalpy_j: Vec<f64>,
    /// Per-server estimator wax-temperature state (°C).
    est_temp_c: Vec<f64>,
    /// Per-server estimator melt-fraction state.
    est_fraction: Vec<f64>,
    /// Flat running-job slab: server `i`'s row is slots
    /// `i * stride .. (i + 1) * stride`, of which the first
    /// `job_counts[i]` are live. Ids are stored as u32 deltas against
    /// `id_base`. Empty until the first job starts (or a restore brings
    /// jobs), so building a farm never pays for zeroing it.
    job_ids: Vec<u32>,
    /// Workload index byte of each slab slot, parallel to `job_ids`.
    job_kinds: Vec<u8>,
    /// Live slots of each server's row (= used cores).
    job_counts: Vec<u32>,
    /// Slots per row: the core count rounded up to [`LANES`], so every
    /// row search runs whole chunks.
    stride: usize,
    /// Base subtracted from absolute job ids before storing them as
    /// u32 deltas; re-anchored by `rebase_ids` when the engine's
    /// monotonically increasing ids outrun the 32-bit window.
    id_base: u64,
    /// Persistent worker pool, created lazily on the first multi-worker
    /// sweep and rebuilt when the thread count changes. Clones of the
    /// farm start poolless and spin up their own on demand.
    pool: Option<TickPool>,
    /// Reusable index-column sinks for the standalone
    /// [`ServerFarm::tick_physics`] entry point (tests and benches) —
    /// hoisted here so repeated standalone ticks allocate nothing.
    /// Semantically empty between ticks; never serialized or compared.
    scratch_air: Vec<f64>,
    scratch_melt: Vec<f64>,
    /// Reusable task slots and per-shard outcomes of the sharded
    /// departure drain, for the same reason. Empty between ticks.
    depart_tasks: Vec<Option<DepartView<'static>>>,
    depart_outs: Vec<DepartOut>,
}

impl Clone for ServerFarm {
    fn clone(&self) -> Self {
        Self {
            power_model: self.power_model,
            air: self.air,
            time_constant: self.time_constant,
            oracle_wax_state: self.oracle_wax_state,
            threads: self.threads,
            wax: self.wax.clone(),
            inlet_c: self.inlet_c.clone(),
            at_wax_c: self.at_wax_c.clone(),
            active_power_w: self.active_power_w.clone(),
            enthalpy_j: self.enthalpy_j.clone(),
            est_temp_c: self.est_temp_c.clone(),
            est_fraction: self.est_fraction.clone(),
            job_ids: self.job_ids.clone(),
            job_kinds: self.job_kinds.clone(),
            job_counts: self.job_counts.clone(),
            stride: self.stride,
            id_base: self.id_base,
            pool: None,
            scratch_air: Vec::new(),
            scratch_melt: Vec::new(),
            depart_tasks: Vec::new(),
            depart_outs: Vec::new(),
        }
    }
}

impl ServerFarm {
    /// Builds a farm of `config.num_servers` servers, each initialized
    /// exactly as [`Server::from_config`] initializes one: thermal state
    /// settled at idle power, wax equilibrated at the resulting
    /// air-at-wax temperature, estimator reset to that temperature and
    /// zero melt.
    pub fn from_config(config: &ClusterConfig) -> Self {
        let n = config.num_servers;
        let wax = config.wax.as_ref().map(FarmWax::new);
        let mut farm = Self {
            power_model: config.power,
            air: config.air,
            time_constant: config.thermal_time_constant,
            oracle_wax_state: config.oracle_wax_state,
            threads: default_tick_threads(),
            wax,
            inlet_c: Vec::with_capacity(n),
            at_wax_c: Vec::with_capacity(n),
            active_power_w: vec![0.0; n],
            enthalpy_j: Vec::with_capacity(n),
            est_temp_c: Vec::with_capacity(n),
            est_fraction: vec![0.0; n],
            job_ids: Vec::new(),
            job_kinds: Vec::new(),
            job_counts: vec![0; n],
            stride: row_stride(config.power.cores()),
            id_base: 0,
            pool: None,
            scratch_air: Vec::new(),
            scratch_melt: Vec::new(),
            depart_tasks: Vec::new(),
            depart_outs: Vec::new(),
        };
        for i in 0..n {
            let inlet = config.inlet.inlet_for(i);
            let mut thermal = ServerThermalModel::with_time_constant(
                inlet,
                config.air,
                config.thermal_time_constant,
            );
            thermal.settle(config.power.idle());
            let at_wax = thermal.air_at_wax();
            farm.inlet_c.push(inlet.get());
            farm.at_wax_c.push(at_wax.get());
            match &farm.wax {
                Some(w) => {
                    let pack = WaxPack::new(w.material.clone(), w.mass, at_wax);
                    farm.enthalpy_j.push(pack.enthalpy().get());
                    farm.est_temp_c.push(at_wax.get());
                }
                None => {
                    farm.enthalpy_j.push(0.0);
                    farm.est_temp_c.push(0.0);
                }
            }
        }
        farm
    }

    /// Builds a farm from existing servers, preserving every state field
    /// bit-for-bit. The servers must share one hardware configuration
    /// (power model, air stream, time constant, wax design), which is
    /// how the engine constructs clusters.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn from_servers(servers: &[Server]) -> Self {
        let first = servers.first().expect("farm needs at least one server");
        let wax = first.wax_parts().map(|(pack, exchanger, _)| {
            FarmWax::from_parts(
                pack.material().clone(),
                pack.mass(),
                exchanger.ua(),
                exchanger.taper(),
            )
        });
        let n = servers.len();
        // Delta-anchor the incoming ids at the smallest live id so
        // every stored delta fits u32.
        let id_base = servers
            .iter()
            .flat_map(|s| s.jobs_map().keys())
            .map(|id| id.0)
            .min()
            .unwrap_or(0);
        let stride = row_stride(first.power_model().cores());
        let mut job_ids = vec![0u32; n * stride];
        let mut job_kinds = vec![0u8; n * stride];
        let mut job_counts = vec![0u32; n];
        for (i, s) in servers.iter().enumerate() {
            for (&id, &kind) in s.jobs_map() {
                let slot = i * stride + job_counts[i] as usize;
                job_ids[slot] = id_delta(id_base, id).expect("live job-id span exceeds u32");
                job_kinds[slot] = kind.index() as u8;
                job_counts[i] += 1;
            }
        }
        let mut farm = Self {
            power_model: first.power_model(),
            air: first.air(),
            time_constant: first.thermal().time_constant(),
            oracle_wax_state: first.oracle_wax_state(),
            threads: default_tick_threads(),
            wax,
            inlet_c: servers.iter().map(|s| s.inlet().get()).collect(),
            at_wax_c: servers.iter().map(|s| s.air_at_wax().get()).collect(),
            active_power_w: servers
                .iter()
                .map(|s| s.active_core_power().get())
                .collect(),
            enthalpy_j: Vec::with_capacity(n),
            est_temp_c: Vec::with_capacity(n),
            est_fraction: Vec::with_capacity(n),
            job_ids,
            job_kinds,
            job_counts,
            stride,
            id_base,
            pool: None,
            scratch_air: Vec::new(),
            scratch_melt: Vec::new(),
            depart_tasks: Vec::new(),
            depart_outs: Vec::new(),
        };
        for s in servers {
            match s.wax_parts() {
                Some((pack, _, estimator)) => {
                    farm.enthalpy_j.push(pack.enthalpy().get());
                    farm.est_temp_c.push(estimator.temperature().get());
                    farm.est_fraction.push(estimator.melt_fraction().get());
                }
                None => {
                    farm.enthalpy_j.push(0.0);
                    farm.est_temp_c.push(0.0);
                    farm.est_fraction.push(0.0);
                }
            }
        }
        farm
    }

    /// Materializes the farm back into per-object [`Server`]s with
    /// identical state (rack post-mortems, round-trip tests).
    pub fn to_servers(&self) -> Vec<Server> {
        (0..self.len())
            .map(|i| {
                let mut thermal = ServerThermalModel::with_time_constant(
                    self.inlet(i),
                    self.air,
                    self.time_constant,
                );
                thermal.set_air_at_wax(self.air_at_wax(i));
                let wax = self.wax.as_ref().map(|w| {
                    let mut pack = WaxPack::new(w.material.clone(), w.mass, Celsius::new(0.0));
                    pack.set_enthalpy(Joules::new(self.enthalpy_j[i]));
                    let mut estimator = WaxStateEstimator::new(w.material.clone(), w.mass, w.ua)
                        .with_taper(w.taper);
                    estimator.reset(
                        Celsius::new(self.est_temp_c[i]),
                        Fraction::saturating(self.est_fraction[i]),
                    );
                    (
                        pack,
                        vmt_pcm::HeatExchanger::with_taper(w.ua, w.taper),
                        estimator,
                    )
                });
                Server::from_parts(
                    ServerId(i),
                    self.power_model,
                    thermal,
                    wax,
                    self.job_row(i).collect(),
                    Watts::new(self.active_power_w[i]),
                    self.oracle_wax_state,
                )
            })
            .collect()
    }

    /// Captures every evolving per-server array as a serializable
    /// [`FarmState`] image. Job rows are emitted dense on a
    /// `cores`-slot stride — the first `job_counts[i]` slots of each row
    /// hold that server's jobs in table order, the rest zero — whatever
    /// stale bytes the live slab keeps past each count.
    pub fn state(&self) -> FarmState {
        let n = self.len();
        let wire = self.cores() as usize;
        let mut job_ids = vec![0u64; n * wire];
        let mut job_kinds = vec![0u8; n * wire];
        for i in 0..n {
            let row = i * wire;
            for (j, (id, kind)) in self.job_row(i).enumerate() {
                job_ids[row + j] = id.0;
                job_kinds[row + j] = kind.index() as u8;
            }
        }
        FarmState {
            inlet_c: self.inlet_c.clone(),
            at_wax_c: self.at_wax_c.clone(),
            active_power_w: self.active_power_w.clone(),
            enthalpy_j: self.enthalpy_j.clone(),
            est_temp_c: self.est_temp_c.clone(),
            est_fraction: self.est_fraction.clone(),
            job_ids,
            job_kinds,
            job_counts: self.job_counts.clone(),
        }
    }

    /// Overwrites the evolving arrays from a [`FarmState`] image taken
    /// on a farm of the same shape (same server count and core count).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when any array length disagrees with
    /// this farm's shape, a count exceeds the core count, a live slot
    /// names an unknown workload, or the live ids span more than the
    /// u32 delta window; the farm is left untouched in that case.
    ///
    /// [`SnapshotError::Corrupt`]: crate::SnapshotError::Corrupt
    pub fn apply_state(&mut self, state: &FarmState) -> Result<(), crate::snapshot::SnapshotError> {
        let n = self.len();
        let wire = self.cores() as usize;
        let slab = n * wire;
        let per_server_ok = state.inlet_c.len() == n
            && state.at_wax_c.len() == n
            && state.active_power_w.len() == n
            && state.enthalpy_j.len() == n
            && state.est_temp_c.len() == n
            && state.est_fraction.len() == n
            && state.job_counts.len() == n;
        let slab_ok = state.job_ids.len() == slab && state.job_kinds.len() == slab;
        if !per_server_ok || !slab_ok {
            return Err(crate::snapshot::SnapshotError::Corrupt(format!(
                "farm state shaped for {} servers / {} slots, farm has {n} / {slab}",
                state.job_counts.len(),
                state.job_ids.len(),
            )));
        }
        if let Some(i) = (0..n).find(|&i| state.job_counts[i] as usize > wire) {
            return Err(crate::snapshot::SnapshotError::Corrupt(format!(
                "server {i} claims {} jobs on {wire} cores",
                state.job_counts[i]
            )));
        }
        // Delta-anchor the incoming ids; only the first `job_counts[i]`
        // slots of each row are live (older writers left stale bytes
        // past the count, which a restore must keep ignoring).
        let live = |i: usize| i * wire..i * wire + state.job_counts[i] as usize;
        let mut id_base = u64::MAX;
        let mut max_id = 0u64;
        let mut any = false;
        for i in 0..n {
            if let Some(&kind) = state.job_kinds[live(i)]
                .iter()
                .find(|&&k| k as usize >= WorkloadKind::ALL.len())
            {
                return Err(crate::snapshot::SnapshotError::Corrupt(format!(
                    "server {i} runs a job of unknown workload {kind}"
                )));
            }
            for &id in &state.job_ids[live(i)] {
                id_base = id_base.min(id);
                max_id = max_id.max(id);
                any = true;
            }
        }
        let id_base = if any { id_base } else { 0 };
        if max_id - id_base > u32::MAX as u64 {
            return Err(crate::snapshot::SnapshotError::Corrupt(format!(
                "live job-id span {} exceeds u32 range",
                max_id - id_base
            )));
        }
        self.inlet_c.clone_from(&state.inlet_c);
        self.at_wax_c.clone_from(&state.at_wax_c);
        self.active_power_w.clone_from(&state.active_power_w);
        self.enthalpy_j.clone_from(&state.enthalpy_j);
        self.est_temp_c.clone_from(&state.est_temp_c);
        self.est_fraction.clone_from(&state.est_fraction);
        self.job_counts.clone_from(&state.job_counts);
        self.id_base = id_base;
        if any {
            self.ensure_slab();
        }
        for i in 0..n {
            let row = i * self.stride;
            for (j, slot) in live(i).enumerate() {
                self.job_ids[row + j] = (state.job_ids[slot] - id_base) as u32;
                self.job_kinds[row + j] = state.job_kinds[slot];
            }
        }
        Ok(())
    }

    /// Allocates the zeroed job slab if no job has needed it yet.
    fn ensure_slab(&mut self) {
        if self.job_ids.is_empty() {
            let slots = self.len() * self.stride;
            self.job_ids = vec![0; slots];
            self.job_kinds = vec![0; slots];
        }
    }

    /// Server `i`'s whole row (`stride` slots) as mutable id and kind
    /// slices; empty while the slab is unallocated.
    #[inline]
    fn row_mut(&mut self, i: usize) -> (&mut [u32], &mut [u8]) {
        let slots = i * self.stride..(i + 1) * self.stride;
        (
            self.job_ids.get_mut(slots.clone()).unwrap_or_default(),
            self.job_kinds.get_mut(slots).unwrap_or_default(),
        )
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.at_wax_c.len()
    }

    /// True when the farm has no servers.
    pub fn is_empty(&self) -> bool {
        self.at_wax_c.is_empty()
    }

    /// Worker threads used by the physics tick.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the tick-level worker count (clamped to at least 1).
    /// Results are bit-identical at any setting. A resized pool is
    /// rebuilt lazily on the next multi-worker sweep.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.threads {
            self.pool = None;
        }
        self.threads = threads;
    }

    /// Total cores of server `i` (uniform across the farm).
    #[inline]
    pub fn cores(&self) -> u32 {
        self.power_model.cores()
    }

    /// Cores of server `i` currently running jobs.
    #[inline]
    pub fn used_cores(&self, i: usize) -> u32 {
        self.job_counts[i]
    }

    /// Server `i`'s running jobs, in table order — the order departure
    /// swap-removes and snapshot rows observe.
    fn job_row(&self, i: usize) -> impl Iterator<Item = (JobId, WorkloadKind)> + '_ {
        let live = i * self.stride..i * self.stride + self.job_counts[i] as usize;
        let ids = self.job_ids.get(live.clone()).unwrap_or_default();
        let kinds = self.job_kinds.get(live).unwrap_or_default();
        let id_base = self.id_base;
        ids.iter().zip(kinds).map(move |(&delta, &kind)| {
            (
                JobId(id_base + u64::from(delta)),
                WorkloadKind::ALL[kind as usize],
            )
        })
    }

    /// True when job `id` is running on server `i`.
    pub(crate) fn runs_job(&self, i: usize, id: JobId) -> bool {
        self.job_row(i).any(|(running, _)| running == id)
    }

    /// Cores of server `i` available for placement.
    #[inline]
    pub fn free_cores(&self, i: usize) -> u32 {
        self.cores() - self.used_cores(i)
    }

    /// Current electrical power draw of server `i`.
    #[inline]
    pub fn power(&self, i: usize) -> Watts {
        self.power_model.idle() + Watts::new(self.active_power_w[i])
    }

    /// Current air temperature at server `i`'s wax containers.
    #[inline]
    pub fn air_at_wax(&self, i: usize) -> Celsius {
        Celsius::new(self.at_wax_c[i])
    }

    /// Inlet temperature of server `i`.
    #[inline]
    pub fn inlet(&self, i: usize) -> Celsius {
        Celsius::new(self.inlet_c[i])
    }

    /// The cooling air stream (uniform across the farm).
    pub fn air(&self) -> AirStream {
        self.air
    }

    /// The per-server active-power lane (W), for order-stable external
    /// reductions (zone cooling sums it in server order).
    pub(crate) fn active_power_lane(&self) -> &[f64] {
        &self.active_power_w
    }

    /// Uniform per-server idle draw (W).
    pub(crate) fn idle_w(&self) -> f64 {
        self.power_model.idle().get()
    }

    /// Updates server `i`'s inlet temperature (time-varying ambient
    /// models).
    pub fn set_inlet(&mut self, i: usize, inlet: Celsius) {
        self.inlet_c[i] = inlet.get();
    }

    /// Physical (ground-truth) melt fraction of server `i`'s wax; zero
    /// for waxless farms.
    pub fn melt_fraction(&self, i: usize) -> Fraction {
        match &self.wax {
            Some(w) => Fraction::saturating(w.kernel.melt_fraction(self.enthalpy_j[i])),
            None => Fraction::ZERO,
        }
    }

    /// Melt fraction of server `i` as reported by the on-server
    /// estimator — what the cluster scheduler sees. With the cluster's
    /// `oracle_wax_state` ablation flag set, returns the physical state.
    #[inline]
    pub fn reported_melt_fraction(&self, i: usize) -> Fraction {
        if self.oracle_wax_state {
            return self.melt_fraction(i);
        }
        match &self.wax {
            Some(_) => Fraction::saturating(self.est_fraction[i]),
            None => Fraction::ZERO,
        }
    }

    /// Physical latent energy currently stored in server `i`'s wax.
    pub fn stored_latent_energy(&self, i: usize) -> Joules {
        match &self.wax {
            Some(w) => Joules::new(
                w.kernel.latent_capacity_j() * w.kernel.melt_fraction(self.enthalpy_j[i]),
            ),
            None => Joules::ZERO,
        }
    }

    /// The wax melting temperature, if wax is deployed.
    pub fn melt_temperature(&self) -> Option<Celsius> {
        self.wax.as_ref().map(|w| w.material.melt_temperature())
    }

    /// True when every server carries a PCM (wax) store.
    pub fn has_wax(&self) -> bool {
        self.wax.is_some()
    }

    /// Latent heat capacity of one server's wax pack; zero without wax.
    pub fn latent_capacity_per_server(&self) -> Joules {
        match &self.wax {
            Some(w) => Joules::new(w.kernel.latent_capacity_j()),
            None => Joules::ZERO,
        }
    }

    /// Number of running jobs of each workload on server `i`, indexed by
    /// [`WorkloadKind::index`].
    pub fn kind_counts(&self, i: usize) -> [u32; 5] {
        let mut counts = [0u32; 5];
        for (_, kind) in self.job_row(i) {
            counts[kind.index()] += 1;
        }
        counts
    }

    /// Number of running jobs of each VMT class `(hot, cold)` on server
    /// `i`.
    pub fn class_counts(&self, i: usize) -> (u32, u32) {
        let mut hot = 0;
        let mut cold = 0;
        for (_, kind) in self.job_row(i) {
            match kind.vmt_class() {
                VmtClass::Hot => hot += 1,
                VmtClass::Cold => cold += 1,
            }
        }
        (hot, cold)
    }

    /// Starts a job on a free core of server `i`.
    ///
    /// # Panics
    ///
    /// Panics if the server is full or the job id is already running
    /// here — both indicate an engine bug.
    #[inline]
    pub fn start_job(&mut self, i: usize, job: &Job) {
        assert!(
            self.free_cores(i) > 0,
            "placement on a full {}",
            ServerId(i)
        );
        debug_assert!(
            self.job_row(i).all(|(id, _)| id != job.id()),
            "duplicate {} on {}",
            job.id(),
            ServerId(i)
        );
        let delta = match id_delta(self.id_base, job.id()) {
            Some(delta) => delta,
            None => {
                self.rebase_ids(job.id().0);
                id_delta(self.id_base, job.id()).expect("rebase covers the incoming id")
            }
        };
        self.ensure_slab();
        let slot = i * self.stride + self.job_counts[i] as usize;
        self.job_ids[slot] = delta;
        self.job_kinds[slot] = job.kind().index() as u8;
        self.job_counts[i] += 1;
        self.active_power_w[i] += job.core_power().get();
    }

    /// Re-anchors the delta-encoded job ids so `incoming` and every
    /// live id fit the 32-bit window. O(live jobs) and rare: the engine
    /// issues monotonically increasing ids, so a rebase fires once per
    /// ~4.3 billion placements, re-anchoring at the oldest id still
    /// running.
    ///
    /// # Panics
    ///
    /// Panics if the live id span itself exceeds `u32::MAX` — no base
    /// can represent such a table.
    #[cold]
    fn rebase_ids(&mut self, incoming: u64) {
        let mut new_base = incoming;
        for i in 0..self.len() {
            for (id, _) in self.job_row(i) {
                new_base = new_base.min(id.0);
            }
        }
        let old_base = self.id_base;
        for i in 0..self.len() {
            let len = self.job_counts[i] as usize;
            let (ids, _) = self.row_mut(i);
            for delta in &mut ids[..len] {
                let rebased = old_base + u64::from(*delta) - new_base;
                *delta = u32::try_from(rebased).expect("live job-id span exceeds u32");
            }
        }
        self.id_base = new_base;
    }

    /// Heap bytes currently reserved by the job table — the slab and
    /// the per-server counts. The 1M-tier budget divides this by the
    /// server count for its recorded bytes-per-server figure.
    pub fn job_table_bytes(&self) -> usize {
        self.job_ids.capacity() * 4 + self.job_kinds.capacity() + self.job_counts.capacity() * 4
    }

    /// Hints the CPU to pull server `i`'s placement-hot lanes (occupancy
    /// count, power lane, and job row) toward L1. Architecturally a
    /// no-op — no result ever depends on whether the hint fired — so
    /// callers may prefetch a *predicted* placement target while the
    /// current job's bookkeeping still runs; at 100k+ servers these
    /// lanes are far out of cache and each placement otherwise eats the
    /// full miss latency serially.
    #[inline]
    pub fn prefetch_server(&self, i: usize) {
        prefetch(self.job_counts.as_ptr().wrapping_add(i));
        prefetch(self.active_power_w.as_ptr().wrapping_add(i));
        prefetch_row(&self.job_ids, &self.job_kinds, i * self.stride, self.stride);
    }

    /// Ensures the persistent pool exists with `threads - 1` parked
    /// threads (the engine thread participates, so total parallelism is
    /// `self.threads`).
    ///
    /// Sized from the configured thread count alone — never from a
    /// per-tick fan-out decision. The physics gate (servers per worker)
    /// and the departure gate (bucketed jobs per worker) routinely
    /// disagree within a tick; sizing the pool to whichever gate just
    /// fired used to tear it down and respawn OS threads every tick,
    /// which is exactly the 10k-server regression where 8 requested
    /// threads ran slower than 2. The gates now only choose between the
    /// inline path and engaging the (stably sized) pool.
    fn ensure_pool(&mut self) {
        let needed = self.threads.min(machine_parallelism()) - 1;
        if self.pool.as_ref().map(TickPool::workers) != Some(needed) {
            self.pool = Some(TickPool::new(needed));
        }
    }

    /// Applies one tick's departures, pre-partitioned by server shard,
    /// in parallel on the persistent pool: each shard task mutates only
    /// its own slab rows, power lanes, and free-core window, and the
    /// integer per-shard outcomes are folded in shard order.
    ///
    /// `entries` holds the bucket stably sorted by shard, and shard `s`'s
    /// entries end at `shard_ends[s]` (one offset per shard). The result
    /// is bit-identical to calling [`ServerFarm::end_job`] over the
    /// original bucket: the partition is stable, so every server sees
    /// its departures in exactly the bucket order, and per-server power
    /// subtraction order (the only floating-point state involved) is
    /// unchanged. Cross-shard effects are integer counts, which fold
    /// order-independently.
    ///
    /// Returns the number of jobs ended. `occupancy` is decremented per
    /// workload kind; the index's free-core column and used total are
    /// updated in place.
    pub(crate) fn end_jobs_sharded(
        &mut self,
        entries: &[(JobId, u32)],
        shard_ends: &[u32],
        index: &mut ClusterIndex,
        occupancy: &mut [usize; 5],
        timing: Option<&mut SweepTiming>,
    ) -> u64 {
        let n = self.len();
        let num_shards = n.div_ceil(SHARD);
        debug_assert_eq!(shard_ends.len(), num_shards);
        let workers = self
            .threads
            .min(machine_parallelism())
            .min(num_shards)
            .min((entries.len() / DEPART_JOBS_PER_WORKER).max(1))
            .max(1);
        if workers > 1 {
            self.ensure_pool();
        }
        self.ensure_slab();
        let mut outs = std::mem::take(&mut self.depart_outs);
        outs.clear();
        outs.resize(num_shards, DepartOut::default());
        let mut tasks: Vec<Option<DepartView<'_>>> =
            recycle(std::mem::take(&mut self.depart_tasks));
        let id_base = self.id_base;
        let stride = self.stride;
        {
            let mut entries = entries;
            let mut ids = self.job_ids.as_mut_slice();
            let mut kinds = self.job_kinds.as_mut_slice();
            let mut counts = self.job_counts.as_mut_slice();
            let mut power = self.active_power_w.as_mut_slice();
            let mut free = index.free_cores_mut();
            let mut outs_rest = outs.as_mut_slice();
            let mut base = 0;
            let mut start = 0;
            for &end in shard_ends {
                let len = SHARD.min(n - base);
                let (out, rest) = std::mem::take(&mut outs_rest).split_at_mut(1);
                outs_rest = rest;
                tasks.push(Some(DepartView {
                    base,
                    id_base,
                    stride,
                    entries: split_front(&mut entries, end as usize - start),
                    job_ids: split_front_mut(&mut ids, len * stride),
                    job_kinds: split_front_mut(&mut kinds, len * stride),
                    job_counts: split_front_mut(&mut counts, len),
                    active_power_w: split_front_mut(&mut power, len),
                    free_cores: split_front_mut(&mut free, len),
                    out: &mut out[0],
                }));
                start = end as usize;
                base += len;
            }
        }

        let started = timing.as_ref().map(|_| std::time::Instant::now());
        let mut pool_busy: Vec<u64> = Vec::new();
        if workers == 1 {
            for task in tasks.iter_mut().filter_map(Option::take) {
                run_depart_shard(task);
            }
        } else {
            let pool = self.pool.as_ref().expect("pool sized above");
            let slots = TaskSlots::new(&mut tasks);
            let run = move |i: usize| {
                // SAFETY: the pool's claim counter hands out each index
                // exactly once, so this take never aliases.
                let task = unsafe { slots.take(i) }.expect("shard claimed once");
                run_depart_shard(task);
            };
            if started.is_some() {
                pool_busy = vec![0u64; pool.workers() + 1];
                pool.run_timed(num_shards, &run, &mut pool_busy);
            } else {
                pool.run(num_shards, &run);
            }
        }
        self.depart_tasks = recycle(tasks);
        if let (Some(timing), Some(t0)) = (timing, started) {
            let span_ns = t0.elapsed().as_nanos() as u64;
            timing.shards_ns += span_ns;
            if !pool_busy.is_empty() {
                timing.add_pool_busy(span_ns, &pool_busy);
            }
        }

        // Shard-ordered integer fold of the per-shard outcomes.
        let mut ended = 0u64;
        for out in &outs {
            ended += u64::from(out.ended);
            for (slot, &count) in occupancy.iter_mut().zip(&out.kinds) {
                *slot -= count as usize;
            }
        }
        self.depart_outs = outs;
        index.record_bulk_ends(ended);
        ended
    }

    /// Ends a job on server `i`, freeing its core. Returns the job's
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if the job is not running on server `i`.
    #[inline]
    pub fn end_job(&mut self, i: usize, id: JobId) -> WorkloadKind {
        let id_base = self.id_base;
        let mut count = self.job_counts[i];
        let (ids, kinds) = self.row_mut(i);
        let kind = WorkloadKind::ALL[remove_job(ids, kinds, &mut count, id_base, i, id)];
        self.job_counts[i] = count;
        self.active_power_w[i] -= kind.core_power().get();
        // Guard against f64 drift accumulating into a negative draw.
        if count == 0 {
            self.active_power_w[i] = 0.0;
        }
        kind
    }

    /// Advances every server's physics by `dt` (thermal response, wax
    /// exchange, estimator update) and returns the order-stable tick
    /// totals. Standalone form for tests and benches; the engine uses
    /// the recording variant that also refreshes the [`ClusterIndex`]
    /// and heatmap rows.
    pub fn tick_physics(&mut self, dt: Seconds) -> FarmTickTotals {
        let n = self.len();
        // Reuse the hoisted sink buffers (taken around the sweep borrow,
        // restored after) so repeated standalone ticks allocate nothing.
        let mut air = std::mem::take(&mut self.scratch_air);
        let mut melt = std::mem::take(&mut self.scratch_melt);
        air.clear();
        air.resize(n, 0.0);
        melt.clear();
        melt.resize(n, 0.0);
        let totals = self.sweep(dt, 0, &mut air, &mut melt, None, None, None);
        self.scratch_air = air;
        self.scratch_melt = melt;
        totals
    }

    /// The engine's physics tick: advances all servers, refreshes the
    /// index's thermal columns in place, and fills the optional heatmap
    /// rows (physical air temperature and melt fraction per server).
    /// When `timing` is supplied the sweep attributes its wall time to
    /// the shard-run and fold sections; the `None` path takes no
    /// timestamps.
    pub(crate) fn tick_physics_recorded(
        &mut self,
        dt: Seconds,
        hot_limit: usize,
        index: &mut ClusterIndex,
        temp_row: Option<&mut [f64]>,
        melt_row: Option<&mut [f64]>,
        timing: Option<&mut SweepTiming>,
    ) -> FarmTickTotals {
        let (index_air, index_melt) = index.physics_slices_mut();
        self.sweep(
            dt, hot_limit, index_air, index_melt, temp_row, melt_row, timing,
        )
    }

    /// The sharded sweep behind both tick entry points.
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &mut self,
        dt: Seconds,
        hot_limit: usize,
        index_air: &mut [f64],
        index_melt: &mut [f64],
        temp_row: Option<&mut [f64]>,
        melt_row: Option<&mut [f64]>,
        timing: Option<&mut SweepTiming>,
    ) -> FarmTickTotals {
        let n = self.len();
        if n == 0 {
            return FarmTickTotals::default();
        }
        debug_assert!(dt.get() > 0.0, "dt must be positive");
        let num_shards = n.div_ceil(SHARD);
        let workers = self
            .threads
            .min(machine_parallelism())
            .min(num_shards)
            .min((n / SERVERS_PER_WORKER).max(1))
            .max(1);
        // Spin up the persistent pool before any state borrows are taken.
        if workers > 1 {
            self.ensure_pool();
        }
        let wax = self.wax.as_ref().map(|w| {
            let (substeps, sub_dt_s) = w.kernel.substeps(dt.get());
            WaxTick {
                kernel: w.kernel,
                estimator: &w.estimator,
                substeps,
                sub_dt_s,
                oracle: self.oracle_wax_state,
            }
        });
        let params = TickParams {
            idle_w: self.power_model.idle().get(),
            capacity_rate: self.air.capacity_rate().get(),
            decay: vmt_thermal::kernel::decay_factor(dt.get(), self.time_constant.get()),
            dt_s: dt.get(),
            hot_limit,
            wax,
        };

        // Slice the state and sink arrays into the fixed shard grid.
        let mut outs = vec![FarmTickTotals::default(); num_shards];
        let mut tasks: Vec<ShardView<'_>> = Vec::with_capacity(num_shards);
        {
            let mut inlet = self.inlet_c.as_slice();
            let mut active = self.active_power_w.as_slice();
            let mut at_wax = self.at_wax_c.as_mut_slice();
            let mut enthalpy = self.enthalpy_j.as_mut_slice();
            let mut est_temp = self.est_temp_c.as_mut_slice();
            let mut est_frac = self.est_fraction.as_mut_slice();
            let mut index_air = index_air;
            let mut index_melt = index_melt;
            let mut temp_row = temp_row;
            let mut melt_row = melt_row;
            let mut outs_rest = outs.as_mut_slice();
            let mut base = 0;
            while base < n {
                let len = SHARD.min(n - base);
                let (out, rest) = std::mem::take(&mut outs_rest).split_at_mut(1);
                outs_rest = rest;
                tasks.push(ShardView {
                    base,
                    inlet: split_front(&mut inlet, len),
                    active: split_front(&mut active, len),
                    at_wax: split_front_mut(&mut at_wax, len),
                    enthalpy: split_front_mut(&mut enthalpy, len),
                    est_temp: split_front_mut(&mut est_temp, len),
                    est_frac: split_front_mut(&mut est_frac, len),
                    index_air: split_front_mut(&mut index_air, len),
                    index_melt: split_front_mut(&mut index_melt, len),
                    temp_row: split_front_opt(&mut temp_row, len),
                    melt_row: split_front_opt(&mut melt_row, len),
                    out: &mut out[0],
                });
                base += len;
            }
        }

        // Run the shards: inline at one worker, else on the persistent
        // pool where workers and the engine thread claim shard indices
        // from an atomic counter. Which thread runs a shard does not
        // affect its output, and the fold below is always in shard
        // order.
        let shards_started = timing.as_ref().map(|_| std::time::Instant::now());
        let mut pool_busy: Vec<u64> = Vec::new();
        if workers == 1 {
            for task in tasks {
                run_shard(task, &params);
            }
        } else {
            let pool = self.pool.as_ref().expect("pool sized above");
            let slots: Vec<UnsafeCell<Option<ShardView<'_>>>> = tasks
                .into_iter()
                .map(|t| UnsafeCell::new(Some(t)))
                .collect();
            let slots = TaskSlots(&slots);
            let params = &params;
            let run = move |i: usize| {
                // SAFETY: the pool's claim counter hands out each index
                // exactly once, so this take never aliases.
                let task = unsafe { slots.take(i) }.expect("shard claimed once");
                run_shard(task, params);
            };
            if shards_started.is_some() {
                pool_busy = vec![0u64; pool.workers() + 1];
                pool.run_timed(num_shards, &run, &mut pool_busy);
            } else {
                pool.run(num_shards, &run);
            }
        }
        let fold_started = shards_started.map(|t0| {
            let now = std::time::Instant::now();
            (now, now.duration_since(t0))
        });

        // Order-stable fold of the shard partials.
        let mut totals = FarmTickTotals::default();
        for out in &outs {
            totals.fold(out);
        }
        if let (Some(timing), Some((fold_t0, shards_elapsed))) = (timing, fold_started) {
            let span_ns = shards_elapsed.as_nanos() as u64;
            timing.shards_ns += span_ns;
            timing.fold_ns += fold_t0.elapsed().as_nanos() as u64;
            if !pool_busy.is_empty() {
                timing.add_pool_busy(span_ns, &pool_busy);
            }
        }
        totals
    }
}

/// `Sync` wrapper handing pool participants claim-once access to the
/// shard tasks: each slot is taken by exactly one thread (the pool's
/// atomic claim counter guarantees a given index is handed out once),
/// so the interior mutability is never aliased.
struct TaskSlots<'slot, T>(&'slot [UnsafeCell<Option<T>>]);

impl<T> Clone for TaskSlots<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TaskSlots<'_, T> {}

// SAFETY: see above — disjoint claim-once access by construction; the
// tasks themselves move to the claiming thread, hence `T: Send`.
unsafe impl<T: Send> Sync for TaskSlots<'_, T> {}

impl<'slot, T> TaskSlots<'slot, T> {
    /// Views exclusively borrowed tasks as claim-once slots.
    fn new(tasks: &'slot mut [Option<T>]) -> Self {
        let cells = tasks as *mut [Option<T>] as *const [UnsafeCell<Option<T>>];
        // SAFETY: `UnsafeCell<X>` is `repr(transparent)` over `X`, and
        // the exclusive borrow rules out any other access for `'slot`.
        Self(unsafe { &*cells })
    }

    /// Takes slot `i`'s task.
    ///
    /// # Safety
    ///
    /// The caller must guarantee no two threads present the same index
    /// (the pool's atomic claim counter does).
    unsafe fn take(&self, i: usize) -> Option<T> {
        unsafe { (*self.0[i].get()).take() }
    }
}

/// Detaches the first `len` elements from a shrinking slice cursor.
fn split_front<'a, T>(s: &mut &'a [T], len: usize) -> &'a [T] {
    let (head, tail) = std::mem::take(s).split_at(len);
    *s = tail;
    head
}

/// Mutable variant of [`split_front`].
fn split_front_mut<'a, T>(s: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(s).split_at_mut(len);
    *s = tail;
    head
}

/// [`split_front_mut`] over an optional row (heatmap sampling ticks).
fn split_front_opt<'a>(s: &mut Option<&'a mut [f64]>, len: usize) -> Option<&'a mut [f64]> {
    s.take().map(|row| {
        let (head, tail) = row.split_at_mut(len);
        *s = Some(tail);
        head
    })
}

/// Per-tick constants shared by every shard.
struct TickParams<'a> {
    idle_w: f64,
    capacity_rate: f64,
    decay: f64,
    dt_s: f64,
    hot_limit: usize,
    wax: Option<WaxTick<'a>>,
}

/// Per-tick wax constants (sub-step schedule is shared since `dt` is).
struct WaxTick<'a> {
    kernel: WaxKernel,
    estimator: &'a WaxStateEstimator,
    substeps: usize,
    sub_dt_s: f64,
    oracle: bool,
}

/// One shard's mutable window over the farm's state and sink arrays.
struct ShardView<'a> {
    /// Global index of the first server in the shard.
    base: usize,
    inlet: &'a [f64],
    active: &'a [f64],
    at_wax: &'a mut [f64],
    enthalpy: &'a mut [f64],
    est_temp: &'a mut [f64],
    est_frac: &'a mut [f64],
    index_air: &'a mut [f64],
    index_melt: &'a mut [f64],
    temp_row: Option<&'a mut [f64]>,
    melt_row: Option<&'a mut [f64]>,
    out: &'a mut FarmTickTotals,
}

/// Per-shard integer outcome of a sharded departure drain, folded by
/// [`ServerFarm::end_jobs_sharded`] in shard order.
#[derive(Debug, Clone, Copy, Default)]
struct DepartOut {
    /// Jobs ended in this shard.
    ended: u32,
    /// Ended jobs per workload, indexed by [`WorkloadKind::index`].
    kinds: [u32; 5],
}

/// One shard's mutable window over the job slab, counts, power lane,
/// and free-core column, plus its slice of the tick's departure bucket.
#[derive(Debug)]
struct DepartView<'a> {
    /// Global index of the first server in the shard.
    base: usize,
    /// Farm-wide delta base for stored job ids.
    id_base: u64,
    /// Slots per job row.
    stride: usize,
    /// This shard's departures, in original bucket order.
    entries: &'a [(JobId, u32)],
    job_ids: &'a mut [u32],
    job_kinds: &'a mut [u8],
    job_counts: &'a mut [u32],
    active_power_w: &'a mut [f64],
    free_cores: &'a mut [u32],
    out: &'a mut DepartOut,
}

/// Empties `v` and re-types it for another lifetime of the same element
/// type, keeping its allocation (in-place collection reuses the buffer
/// when element layouts match, as they do here).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("vector was cleared"))
        .collect()
}

/// Applies one shard's departures — the same per-entry sequence
/// [`ServerFarm::end_job`] runs, on shard-local windows. The row, count
/// and power lane of the entry [`PREFETCH_AHEAD`] positions on are
/// prefetched first; their addresses follow from the server index
/// alone, so the hint overlaps the current entry's misses. Per-core
/// power comes from a table indexed by the kind byte (the same `f64`s
/// `end_job` subtracts), not a branch on the workload.
fn run_depart_shard(task: DepartView<'_>) {
    let DepartView {
        base,
        id_base,
        stride,
        entries,
        job_ids,
        job_kinds,
        job_counts,
        active_power_w,
        free_cores,
        out,
    } = task;
    let core_w = WorkloadKind::ALL.map(|kind| kind.core_power().get());
    for (k, &(id, server)) in entries.iter().enumerate() {
        if let Some(&(_, ahead)) = entries.get(k + PREFETCH_AHEAD) {
            let local = (ahead as usize).wrapping_sub(base);
            prefetch(job_counts.as_ptr().wrapping_add(local));
            prefetch(active_power_w.as_ptr().wrapping_add(local));
            prefetch_row(job_ids, job_kinds, local.wrapping_mul(stride), stride);
        }
        let local = server as usize - base;
        let row = local * stride..(local + 1) * stride;
        let kind = remove_job(
            &mut job_ids[row.clone()],
            &mut job_kinds[row],
            &mut job_counts[local],
            id_base,
            server as usize,
            id,
        );
        active_power_w[local] -= core_w[kind];
        // Same drift guard as `end_job`.
        if job_counts[local] == 0 {
            active_power_w[local] = 0.0;
        }
        free_cores[local] += 1;
        out.ended += 1;
        out.kinds[kind] += 1;
    }
}

/// Advances one shard: the element-serial physics sequence every thread
/// count runs identically, split into per-quantity passes over
/// shard-local stack lanes (loop fission).
///
/// Fission is bit-identical to the fused per-server loop because every
/// pass still walks servers in order and each accumulator field of
/// [`FarmTickTotals`] is independent — splitting the loop changes which
/// *other* fields are updated between two additions to a field, never
/// the sequence of additions the field itself sees. What fission buys is
/// that the branch-free passes (thermal lag, untapered single-substep
/// wax exchange, melt clamp, the running sums) become straight-line
/// loops over `f64` lanes that the compiler auto-vectorizes, while the
/// genuinely branchy estimator spec stays a scalar per-object loop.
fn run_shard(task: ShardView<'_>, p: &TickParams<'_>) {
    let ShardView {
        base,
        inlet,
        active,
        at_wax,
        enthalpy,
        est_temp,
        est_frac,
        index_air,
        index_melt,
        temp_row,
        melt_row,
        out,
    } = task;
    let len = at_wax.len();
    debug_assert!(len <= SHARD);
    // Shard-local lanes: ≤ SHARD elements each, stack-resident.
    let mut air_buf = [0.0f64; SHARD];
    let mut heat_buf = [0.0f64; SHARD];
    let mut melt_buf = [0.0f64; SHARD];
    let air = &mut air_buf[..len];
    let heat = &mut heat_buf[..len];
    let melt = &mut melt_buf[..len];

    // Thermal-lag pass (branch-free: exponential decay toward steady
    // state).
    for j in 0..len {
        air[j] = vmt_thermal::kernel::step(
            at_wax[j],
            inlet[j],
            p.idle_w + active[j],
            p.capacity_rate,
            p.decay,
        );
    }
    at_wax.copy_from_slice(air);

    if let Some(w) = &p.wax {
        // Wax-exchange pass. The paper's deployment ticks with one
        // sub-step and no interface taper, which admits the branch-light
        // selected-temperature kernel; anything else falls back to the
        // per-object sub-stepped spec. Both compute the identical
        // per-server operation sequence.
        if w.substeps == 1 && w.kernel.is_untapered() {
            for j in 0..len {
                let (h, q) = w
                    .kernel
                    .exchange_step_untapered(enthalpy[j], air[j], w.sub_dt_s);
                enthalpy[j] = h;
                heat[j] = q;
            }
        } else {
            for j in 0..len {
                let (h, q) = w
                    .kernel
                    .exchange(enthalpy[j], air[j], w.substeps, w.sub_dt_s);
                enthalpy[j] = h;
                heat[j] = q;
            }
        }
        // Estimator pass: stays per-object — the plateau/sensible
        // anchoring logic is genuinely branchy and is the executable
        // spec the differential tests pin.
        for j in 0..len {
            let (temp, fraction) = w
                .estimator
                .step_state(est_temp[j], est_frac[j], air[j], p.dt_s);
            est_temp[j] = temp;
            est_frac[j] = fraction;
        }
        // Melt derivation (a clamp — vectorizes).
        for j in 0..len {
            melt[j] = w.kernel.melt_fraction(enthalpy[j]);
        }
        // Accumulation passes: each field sees its additions in server
        // order, exactly as the fused loop delivered them.
        for &q in heat.iter() {
            out.into_wax_w += q / p.dt_s;
        }
        let latent = w.kernel.latent_capacity_j();
        for &m in melt.iter() {
            out.stored_energy_j += latent * m;
        }
        index_melt.copy_from_slice(if w.oracle { &*melt } else { &*est_frac });
    } else {
        // Waxless: the fused loop accumulated per-server zeros into
        // into_wax/stored, which leaves +0.0 — identical to not adding.
        index_melt.fill(0.0);
    }

    for &a in active.iter() {
        out.electrical_w += p.idle_w + a;
    }
    for &t in air.iter() {
        out.temp_sum_c += t;
    }
    // Leading-servers hot sum: same elements the fused loop's
    // `base + j < hot_limit` test admitted.
    let hot_count = p.hot_limit.saturating_sub(base).min(len);
    for &t in &air[..hot_count] {
        out.hot_sum_c += t;
    }

    index_air.copy_from_slice(air);
    if let Some(row) = temp_row {
        row.copy_from_slice(air);
    }
    if let Some(row) = melt_row {
        row.copy_from_slice(melt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmt_units::Hours;

    fn job(id: u64, kind: WorkloadKind) -> Job {
        Job::new(JobId(id), kind, Seconds::new(300.0))
    }

    fn loaded_farm(n: usize) -> ServerFarm {
        let config = ClusterConfig::paper_default(n);
        let mut farm = ServerFarm::from_config(&config);
        for i in 0..n {
            for core in 0..(i % 8) as u64 {
                farm.start_job(i, &job(i as u64 * 100 + core, WorkloadKind::VideoEncoding));
            }
        }
        farm
    }

    #[test]
    fn matches_per_server_tick_bit_for_bit() {
        let config = ClusterConfig::paper_default(7);
        let mut farm = ServerFarm::from_config(&config);
        let mut servers: Vec<Server> = (0..7)
            .map(|i| Server::from_config(ServerId(i), &config))
            .collect();
        for (i, server) in servers.iter_mut().enumerate() {
            for core in 0..i as u64 {
                let j = job(i as u64 * 10 + core, WorkloadKind::WebSearch);
                farm.start_job(i, &j);
                server.start_job(&j);
            }
        }
        for _ in 0..240 {
            farm.tick_physics(Seconds::new(60.0));
            for s in servers.iter_mut() {
                s.tick(Seconds::new(60.0));
            }
        }
        for (i, s) in servers.iter().enumerate() {
            assert_eq!(farm.air_at_wax(i), s.air_at_wax(), "air of {i}");
            assert_eq!(farm.melt_fraction(i), s.melt_fraction(), "melt of {i}");
            assert_eq!(
                farm.reported_melt_fraction(i),
                s.reported_melt_fraction(),
                "reported of {i}"
            );
            assert_eq!(
                farm.stored_latent_energy(i),
                s.stored_latent_energy(),
                "stored of {i}"
            );
            assert_eq!(farm.power(i), s.power(), "power of {i}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let horizon = Hours::new(4.0);
        let ticks = (horizon.get() * 60.0) as usize;
        let mut reference: Option<(Vec<f64>, FarmTickTotals)> = None;
        for threads in [1usize, 2, 3, 8] {
            let mut farm = loaded_farm(150);
            farm.set_threads(threads);
            let mut last = FarmTickTotals::default();
            for _ in 0..ticks {
                last = farm.tick_physics(Seconds::new(60.0));
            }
            let state: Vec<f64> = (0..farm.len()).map(|i| farm.air_at_wax(i).get()).collect();
            match &reference {
                None => reference = Some((state, last)),
                Some((ref_state, ref_totals)) => {
                    assert_eq!(&state, ref_state, "state at {threads} threads");
                    assert_eq!(&last, ref_totals, "totals at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn round_trips_through_servers() {
        let mut farm = loaded_farm(5);
        for _ in 0..60 {
            farm.tick_physics(Seconds::new(60.0));
        }
        let servers = farm.to_servers();
        let back = ServerFarm::from_servers(&servers);
        for i in 0..farm.len() {
            assert_eq!(farm.air_at_wax(i), back.air_at_wax(i));
            assert_eq!(farm.melt_fraction(i), back.melt_fraction(i));
            assert_eq!(
                farm.reported_melt_fraction(i),
                back.reported_melt_fraction(i)
            );
            assert_eq!(farm.power(i), back.power(i));
            assert_eq!(farm.used_cores(i), back.used_cores(i));
            assert_eq!(farm.kind_counts(i), back.kind_counts(i));
        }
        // And the next tick evolves identically from both copies.
        let mut round = back;
        let a = farm.tick_physics(Seconds::new(60.0));
        let b = round.tick_physics(Seconds::new(60.0));
        assert_eq!(a, b);
    }

    #[test]
    fn job_table_survives_a_rebase() {
        // The engine's ids are monotonic: by the time one outruns the
        // 32-bit delta window, the oldest live id is nearby. Model
        // that: live ids near u32::MAX (deltas from base 0 barely
        // fit), then one past the window, forcing a rebase to the
        // oldest live id; every pre-rebase id must keep resolving.
        let config = ClusterConfig::paper_default(2);
        let mut farm = ServerFarm::from_config(&config);
        let near = u32::MAX as u64 - 5;
        farm.start_job(0, &job(near, WorkloadKind::VideoEncoding));
        farm.start_job(1, &job(near + 1, WorkloadKind::WebSearch));
        let big = near + 1000;
        farm.start_job(0, &job(big, WorkloadKind::VirusScan));
        assert_eq!(farm.used_cores(0), 2);
        assert_eq!(farm.end_job(0, JobId(near)), WorkloadKind::VideoEncoding);
        assert_eq!(farm.end_job(1, JobId(near + 1)), WorkloadKind::WebSearch);
        assert_eq!(
            farm.job_row(0).collect::<Vec<_>>(),
            vec![(JobId(big), WorkloadKind::VirusScan)]
        );
        assert_eq!(farm.end_job(0, JobId(big)), WorkloadKind::VirusScan);
        // An id below the current base rebases downward again.
        farm.start_job(1, &job(7, WorkloadKind::WebSearch));
        assert_eq!(
            farm.job_row(1).next(),
            Some((JobId(7), WorkloadKind::WebSearch))
        );
        assert_eq!(farm.end_job(1, JobId(7)), WorkloadKind::WebSearch);
        assert!((0..2).all(|i| farm.used_cores(i) == 0));
    }

    #[test]
    fn job_table_is_stable_under_churn() {
        let config = ClusterConfig::paper_default(4);
        let mut farm = ServerFarm::from_config(&config);
        let fill = |farm: &mut ServerFarm, round: u64| {
            for i in 0..4 {
                for core in 0..32u64 {
                    let id = round * 1000 + i as u64 * 100 + core;
                    farm.start_job(i, &job(id, WorkloadKind::WebSearch));
                }
            }
        };
        let drain = |farm: &mut ServerFarm, round: u64| {
            for i in 0..4 {
                for core in 0..32u64 {
                    farm.end_job(i, JobId(round * 1000 + i as u64 * 100 + core));
                }
            }
        };
        fill(&mut farm, 0);
        drain(&mut farm, 0);
        let settled = farm.job_table_bytes();
        for round in 1..40 {
            fill(&mut farm, round);
            drain(&mut farm, round);
        }
        // Rows are fixed-size, so churn never grows the table.
        assert_eq!(farm.job_table_bytes(), settled);
        assert!((0..4).all(|i| farm.used_cores(i) == 0));
    }

    #[test]
    fn state_rows_are_dense_and_restore_identically() {
        let mut farm = loaded_farm(12);
        // Punch a hole mid-row so the swap-remove order is non-trivial.
        farm.end_job(5, JobId(502));
        let state = farm.state();
        let stride = farm.cores() as usize;
        for i in 0..farm.len() {
            let row = &state.job_ids[i * stride..(i + 1) * stride];
            let count = state.job_counts[i] as usize;
            let live: Vec<u64> = farm.job_row(i).map(|(id, _)| id.0).collect();
            assert_eq!(&row[..count], &live[..], "row {i}");
            assert!(row[count..].iter().all(|&id| id == 0), "row {i} tail");
        }
        let mut restored = ServerFarm::from_config(&ClusterConfig::paper_default(12));
        restored.apply_state(&state).unwrap();
        for i in 0..farm.len() {
            assert_eq!(restored.kind_counts(i), farm.kind_counts(i));
            assert_eq!(restored.used_cores(i), farm.used_cores(i));
            assert_eq!(
                restored.job_row(i).collect::<Vec<_>>(),
                farm.job_row(i).collect::<Vec<_>>()
            );
        }
        // The restored table keeps evolving identically, including the
        // swap-remove sequence a later departure triggers.
        assert_eq!(restored.end_job(5, JobId(501)), farm.end_job(5, JobId(501)));
        assert_eq!(
            restored.job_row(5).collect::<Vec<_>>(),
            farm.job_row(5).collect::<Vec<_>>()
        );
        assert_eq!(
            restored.tick_physics(Seconds::new(60.0)),
            farm.tick_physics(Seconds::new(60.0))
        );
    }

    #[test]
    fn table_bytes_are_lazy_then_one_row_per_server() {
        let mut farm = ServerFarm::from_config(&ClusterConfig::paper_default(10));
        assert_eq!(farm.job_table_bytes(), 10 * 4, "counts only before any job");
        farm.start_job(3, &job(1, WorkloadKind::WebSearch));
        // 32 cores: 32 u32 ids + 32 kind bytes + one u32 count.
        assert_eq!(farm.job_table_bytes(), 10 * 164);
    }

    #[test]
    fn row_search_masks_slots_past_the_count() {
        // Slots at or past the count hold stale bytes — a swap-remove
        // leaves the removed id behind — which the search must skip.
        let row: Vec<u32> = (1..=32).collect();
        assert_eq!(find_job(&row, 10, 10), Some(9));
        assert_eq!(find_job(&row, 9, 10), None);
        assert_eq!(find_job(&row, 32, 32), Some(31));
        assert_eq!(find_job(&row, 31, 32), None);
        assert_eq!(find_job(&row, 0, 1), None);
        // Rows of more than 64 slots are searched block by block.
        let long: Vec<u32> = (1..=72).collect();
        assert_eq!(find_job(&long, 72, 70), Some(69));
        assert_eq!(find_job(&long, 69, 70), None);
        // Through the farm: an ended job's stale copy is not running.
        let mut farm = ServerFarm::from_config(&ClusterConfig::paper_default(1));
        for id in 0..10 {
            farm.start_job(0, &job(id, WorkloadKind::WebSearch));
        }
        farm.end_job(0, JobId(9));
        assert!(!farm.runs_job(0, JobId(9)));
        assert!((0..9).all(|id| farm.runs_job(0, JobId(id))));
    }

    #[test]
    #[should_panic(expected = "job#9 not running on server#0")]
    fn ending_an_ended_job_panics() {
        let mut farm = ServerFarm::from_config(&ClusterConfig::paper_default(1));
        for id in 0..10 {
            farm.start_job(0, &job(id, WorkloadKind::WebSearch));
        }
        farm.end_job(0, JobId(9));
        farm.end_job(0, JobId(9));
    }

    #[test]
    fn recycled_task_vectors_keep_their_allocation() {
        let mut tasks: Vec<Option<&u8>> = Vec::with_capacity(16);
        let byte = 7u8;
        tasks.push(Some(&byte));
        let ptr = tasks.as_ptr() as usize;
        let again: Vec<Option<&'static u8>> = recycle(tasks);
        assert!(again.is_empty());
        assert_eq!(again.capacity(), 16);
        assert_eq!(again.as_ptr() as usize, ptr);
    }

    #[test]
    fn hot_limit_sums_leading_servers() {
        let mut farm = loaded_farm(10);
        let mut index = ClusterIndex::new(&farm);
        let totals =
            farm.tick_physics_recorded(Seconds::new(60.0), 3, &mut index, None, None, None);
        let manual: f64 = (0..3).map(|i| farm.air_at_wax(i).get()).sum();
        assert!((totals.hot_sum_c - manual).abs() < 1e-9);
        for i in 0..10 {
            assert_eq!(index.air_c()[i], farm.air_at_wax(i).get());
            assert_eq!(
                index.reported_melt()[i],
                farm.reported_melt_fraction(i).get()
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Splitmix64: expands one drawn seed into a per-server fill
        /// count (the vendored proptest has no `collection::vec`
        /// strategy, so composite inputs are derived from scalars).
        fn fill_for(seed: u64, i: usize) -> u64 {
            let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 33
        }

        /// Builds a farm with an arbitrary mixed load, aged by a few
        /// ticks so thermal, wax, and estimator state are all non-trivial.
        fn aged_farm(n: usize, fill_seed: u64, kind_offset: usize, age_ticks: usize) -> ServerFarm {
            let config = ClusterConfig::paper_default(n);
            let mut farm = ServerFarm::from_config(&config);
            for i in 0..n {
                for core in 0..fill_for(fill_seed, i) {
                    let kind = WorkloadKind::ALL[(i + core as usize + kind_offset) % 5];
                    farm.start_job(
                        i,
                        &Job::new(JobId(i as u64 * 100 + core), kind, Seconds::new(300.0)),
                    );
                }
            }
            for _ in 0..age_ticks {
                farm.tick_physics(Seconds::new(60.0));
            }
            farm
        }

        /// Splitmix64 stream for op sequences.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Asserts the farm's table for server `i` against the model
        /// row: `job_row` order, the `state()` row (dense, zero tail),
        /// used cores, and power.
        fn assert_row(
            farm: &ServerFarm,
            state: &FarmState,
            i: usize,
            row: &[(JobId, WorkloadKind)],
            power: f64,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(farm.job_row(i).collect::<Vec<_>>(), row.to_vec());
            prop_assert_eq!(farm.used_cores(i) as usize, row.len());
            prop_assert_eq!(state.job_counts[i] as usize, row.len());
            let wire = farm.cores() as usize;
            let ids = &state.job_ids[i * wire..(i + 1) * wire];
            let kinds = &state.job_kinds[i * wire..(i + 1) * wire];
            for (j, &(id, kind)) in row.iter().enumerate() {
                prop_assert_eq!(ids[j], id.0);
                prop_assert_eq!(kinds[j] as usize, kind.index());
            }
            prop_assert!(ids[row.len()..].iter().all(|&id| id == 0));
            prop_assert!(kinds[row.len()..].iter().all(|&k| k == 0));
            prop_assert_eq!(farm.power(i), farm.power_model.idle() + Watts::new(power));
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// The chunk compare (SSE2 on x86-64) equals the scalar
            /// `mask |= (v == delta) << s` form, including lanes whose
            /// sign bit is set and repeated matches.
            #[test]
            fn chunk_mask_matches_the_scalar_compare(seed in 0u64..u64::MAX) {
                const VALUES: [u32; 4] = [0, 1, 0x8000_0000, u32::MAX];
                let mut rng = seed;
                for _ in 0..256 {
                    let lanes: [u32; LANES] =
                        std::array::from_fn(|_| VALUES[(next(&mut rng) % 4) as usize]);
                    let delta = VALUES[(next(&mut rng) % 4) as usize];
                    let scalar = lanes
                        .iter()
                        .enumerate()
                        .fold(0, |mask, (s, &v)| mask | u32::from(v == delta) << s);
                    prop_assert_eq!(chunk_mask(&lanes, delta), scalar);
                }
            }

            /// The job table against a reference model — per server a
            /// `Vec<(JobId, WorkloadKind)>` with `swap_remove` — over
            /// random start/end sequences. Starts are biased so rows
            /// reach all 32 cores; ends pick the first, middle, last, or
            /// a random slot; ids start just below the u32 delta window
            /// on half the cases, so the run crosses a rebase.
            #[test]
            fn job_table_matches_swap_remove_model(
                servers in 1usize..5,
                seed in 0u64..u64::MAX,
                ops in 1usize..600,
                near_window_sel in 0u8..2,
            ) {
                let near_window = near_window_sel == 1;
                let mut farm = ServerFarm::from_config(&ClusterConfig::paper_default(servers));
                let cores = farm.cores() as usize;
                let mut model: Vec<Vec<(JobId, WorkloadKind)>> = vec![Vec::new(); servers];
                let mut power = vec![0.0f64; servers];
                let mut rng = seed;
                let mut next_id = if near_window { u32::MAX as u64 - 40 } else { 0 };
                for _ in 0..ops {
                    let r = next(&mut rng);
                    let i = (r % servers as u64) as usize;
                    let len = model[i].len();
                    let start = len == 0 || (len < cores && !(r >> 8).is_multiple_of(3));
                    if start {
                        let kind = WorkloadKind::ALL[((r >> 16) % 5) as usize];
                        let job = job(next_id, kind);
                        next_id += 1 + (r >> 24) % 3;
                        farm.start_job(i, &job);
                        model[i].push((job.id(), kind));
                        power[i] += job.core_power().get();
                    } else {
                        let pos = match (r >> 16) % 4 {
                            0 => 0,
                            1 => len / 2,
                            2 => len - 1,
                            _ => ((r >> 24) % len as u64) as usize,
                        };
                        let (id, kind) = model[i].swap_remove(pos);
                        prop_assert_eq!(farm.end_job(i, id), kind);
                        power[i] -= kind.core_power().get();
                        if model[i].is_empty() {
                            power[i] = 0.0;
                        }
                    }
                    let state = farm.state();
                    for (k, row) in model.iter().enumerate() {
                        assert_row(&farm, &state, k, row, power[k])?;
                    }
                }
                if near_window {
                    prop_assert!(next_id > u32::MAX as u64 || ops < 40);
                }
            }

            /// The shard partition is stable, and the sharded, prefetched
            /// departure drain over it ends the same jobs in the same
            /// per-server order as `end_job` over the unpartitioned
            /// bucket: identical rows, power lanes, free cores and
            /// per-workload counts, at one and two workers.
            #[test]
            fn sharded_drain_matches_per_entry_end_job(
                n in 1usize..(3 * SHARD),
                fill_seed in 0u64..u64::MAX,
                order_seed in 0u64..u64::MAX,
                workers in 1usize..3,
            ) {
                let mut direct = aged_farm(n, fill_seed, 0, 0);
                let mut bucket: Vec<(JobId, u32)> = Vec::new();
                for i in 0..n {
                    for (id, _) in direct.job_row(i) {
                        bucket.push((id, i as u32));
                    }
                }
                // A random subset in random order (Fisher–Yates).
                let mut rng = order_seed;
                for k in (1..bucket.len()).rev() {
                    bucket.swap(k, (next(&mut rng) % (k as u64 + 1)) as usize);
                }
                bucket.truncate(bucket.len() * 2 / 3);
                let mut sharded = direct.clone();
                sharded.set_threads(workers);
                let mut index = ClusterIndex::new(&sharded);
                let mut occupancy = [0usize; 5];
                for i in 0..n {
                    for (total, count) in occupancy.iter_mut().zip(sharded.kind_counts(i)) {
                        *total += count as usize;
                    }
                }
                let mut expected = occupancy;
                for &(id, server) in &bucket {
                    expected[direct.end_job(server as usize, id).index()] -= 1;
                }
                let (mut entries, mut shard_ends) = (Vec::new(), Vec::new());
                partition_by_shard(&bucket, n.div_ceil(SHARD), &mut entries, &mut shard_ends);
                // Each shard's run holds exactly its entries, in bucket order.
                let mut start = 0;
                for (s, &end) in shard_ends.iter().enumerate() {
                    let run = &entries[start..end as usize];
                    let expected: Vec<_> =
                        bucket.iter().filter(|&&(_, server)| server as usize / SHARD == s).copied().collect();
                    prop_assert_eq!(run.to_vec(), expected);
                    start = end as usize;
                }
                prop_assert_eq!(start, bucket.len());
                let ended = sharded.end_jobs_sharded(&entries, &shard_ends, &mut index, &mut occupancy, None);
                prop_assert_eq!(ended as usize, bucket.len());
                prop_assert_eq!(occupancy, expected);
                for i in 0..n {
                    prop_assert_eq!(
                        sharded.job_row(i).collect::<Vec<_>>(),
                        direct.job_row(i).collect::<Vec<_>>()
                    );
                    prop_assert_eq!(sharded.power(i), direct.power(i));
                    prop_assert_eq!(index.free_cores()[i], direct.free_cores(i));
                }
            }

            /// `ServerFarm` → `Vec<Server>` → `ServerFarm` preserves every
            /// observable a scheduler or probe can read, and the round
            /// trip continues to evolve bit-identically.
            #[test]
            fn round_trip_preserves_every_observable(
                n in 1usize..40,
                fill_seed in 0u64..u64::MAX,
                kind_offset in 0usize..5,
                age_ticks in 0usize..120,
            ) {
                let mut farm = aged_farm(n, fill_seed, kind_offset, age_ticks);
                let mut back = ServerFarm::from_servers(&farm.to_servers());
                prop_assert_eq!(back.len(), farm.len());
                prop_assert_eq!(back.cores(), farm.cores());
                prop_assert_eq!(back.air(), farm.air());
                prop_assert_eq!(back.melt_temperature(), farm.melt_temperature());
                for i in 0..n {
                    prop_assert_eq!(back.inlet(i), farm.inlet(i));
                    prop_assert_eq!(back.air_at_wax(i), farm.air_at_wax(i));
                    prop_assert_eq!(back.power(i), farm.power(i));
                    prop_assert_eq!(back.used_cores(i), farm.used_cores(i));
                    prop_assert_eq!(back.free_cores(i), farm.free_cores(i));
                    prop_assert_eq!(back.melt_fraction(i), farm.melt_fraction(i));
                    prop_assert_eq!(back.reported_melt_fraction(i), farm.reported_melt_fraction(i));
                    prop_assert_eq!(back.stored_latent_energy(i), farm.stored_latent_energy(i));
                    prop_assert_eq!(back.kind_counts(i), farm.kind_counts(i));
                    prop_assert_eq!(back.class_counts(i), farm.class_counts(i));
                }
                for _ in 0..4 {
                    prop_assert_eq!(
                        back.tick_physics(Seconds::new(60.0)),
                        farm.tick_physics(Seconds::new(60.0))
                    );
                }
            }

            /// The fused, fissioned, shard-blocked sweep is bit-identical
            /// to the per-object `Server::tick` executable spec exactly at
            /// the farm sizes that stress the shard grid's edges — 1,
            /// SHARD−1, SHARD, SHARD+1, and a non-multiple-of-SHARD tail —
            /// across worker counts 1, 2, and 8. The random-size fold
            /// property below only rarely samples these boundaries; this
            /// pins them.
            #[test]
            fn fused_sweep_matches_per_object_spec_at_shard_edges(
                size_sel in 0usize..5,
                threads_sel in 0usize..3,
                fill_seed in 0u64..u64::MAX,
                kind_offset in 0usize..5,
                ticks in 1usize..40,
            ) {
                let n = [1, SHARD - 1, SHARD, SHARD + 1, 2 * SHARD + 17][size_sel];
                let threads = [1usize, 2, 8][threads_sel];
                let mut farm = aged_farm(n, fill_seed, kind_offset, 0);
                farm.set_threads(threads);
                let mut servers: Vec<Server> = farm.to_servers();
                for _ in 0..ticks {
                    farm.tick_physics(Seconds::new(60.0));
                    for s in servers.iter_mut() {
                        s.tick(Seconds::new(60.0));
                    }
                }
                for (i, s) in servers.iter().enumerate() {
                    prop_assert_eq!(farm.air_at_wax(i), s.air_at_wax());
                    prop_assert_eq!(farm.melt_fraction(i), s.melt_fraction());
                    prop_assert_eq!(
                        farm.reported_melt_fraction(i),
                        s.reported_melt_fraction()
                    );
                    prop_assert_eq!(
                        farm.stored_latent_energy(i),
                        s.stored_latent_energy()
                    );
                    prop_assert_eq!(farm.power(i), s.power());
                }
            }

            /// The sharded sweep's partial-sum fold is invariant under the
            /// worker partition: any thread count (i.e. any contiguous
            /// grouping of the fixed shard grid onto workers) produces
            /// bit-identical totals AND bit-identical per-server state to
            /// the single-worker serial fold.
            #[test]
            fn fold_is_invariant_under_worker_partition(
                n in 1usize..300,
                threads in 2usize..=8,
                fill_seed in 0u64..u64::MAX,
                kind_offset in 0usize..5,
                ticks in 1usize..30,
            ) {
                let mut serial = aged_farm(n, fill_seed, kind_offset, 0);
                serial.set_threads(1);
                let mut sharded = serial.clone();
                sharded.set_threads(threads);
                for _ in 0..ticks {
                    let a = serial.tick_physics(Seconds::new(60.0));
                    let b = sharded.tick_physics(Seconds::new(60.0));
                    prop_assert_eq!(a, b);
                }
                for i in 0..n {
                    prop_assert_eq!(serial.air_at_wax(i), sharded.air_at_wax(i));
                    prop_assert_eq!(serial.melt_fraction(i), sharded.melt_fraction(i));
                    prop_assert_eq!(
                        serial.reported_melt_fraction(i),
                        sharded.reported_melt_fraction(i)
                    );
                }
            }
        }
    }
}
