//! The three workloads: inputs generated from a seed, and one repetition
//! (fresh fabric, fresh cluster, setup, run, outcome) driven only through
//! the crates' public functions.

use crate::alloc;
use crate::spans::Tracer;
use mccs_baseline::{random_host_ring, BaselineConfig, BaselineJob, Phase, RingChoice};
use mccs_collectives::op::all_reduce_sum;
use mccs_collectives::{CollectiveSchedule, EdgeTask, RingOrder};
use mccs_control::{ffa, optimal_rings, optimize_cluster, ChannelPolicy, JobFlows, PolicySpec};
use mccs_core::config::{CollectiveConfig, RouteMap};
use mccs_core::{Cluster, ClusterConfig};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_shim::{AppProgram, ScriptStep, ScriptedProgram};
use mccs_sim::{Bandwidth, Bytes, Nanos, Rng};
use mccs_topology::presets::{spine_leaf, SpineLeafConfig};
use mccs_topology::{GpuId, NicId, Topology};
use mccs_workloads::jobs::poisson_jobs;
use mccs_workloads::{Placement, PlacementMap};
use std::sync::Arc;
use std::time::Instant;

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 10,240-GPU fabric, library-mode Poisson job churn.
    HyperscaleChurn,
    /// 128 GPUs, 16 service tenants each confined to one host.
    ServiceLocal,
    /// 128 GPUs, 16 service tenants striped across every rack, placed by
    /// the controller and reconfigured in waves while they run.
    ServiceReconfig,
}

impl Workload {
    /// Every workload the benchmark can run. `BENCHMARK.json` lists the
    /// ones the regression gate runs (see README.md).
    pub const ALL: [Workload; 3] = [
        Workload::HyperscaleChurn,
        Workload::ServiceLocal,
        Workload::ServiceReconfig,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HyperscaleChurn => "hyperscale_churn",
            Workload::ServiceLocal => "service_local",
            Workload::ServiceReconfig => "service_reconfig",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn library_mode(self) -> bool {
        self == Workload::HyperscaleChurn
    }
}

// ---- sizes ---------------------------------------------------------------

/// Library jobs on the hyperscale fabric; sizes alternate 16 and 32 GPUs so
/// every seed carries the same work. Each job's gradient size is drawn
/// within ±50% of `HS_SIZE`: a wide spread puts the p99 on the largest
/// jobs, an order statistic steady across seeds, rather than on whichever
/// few jobs happen to overlap.
const HS_JOBS: usize = 128;
const HS_ITERS: usize = 32;
const HS_SIZE: Bytes = Bytes::mib(8);
const HS_COMPUTE: Nanos = Nanos::from_millis(2);
const HS_MEAN_GAP: Nanos = Nanos::from_millis(10);
const HS_CHANNELS: usize = 2;

/// Service tenants on the 128-GPU fabric.
const SVC_TENANTS: usize = 16;
const LOCAL_ITERS: usize = 200;
const LOCAL_SIZE: Bytes = Bytes::kib(64);
const RECONF_ITERS: usize = 64;
const RECONF_SIZE: Bytes = Bytes::kib(256);
/// Reconfiguration waves during the run, `RECONF_PERIOD` apart in
/// simulated time. Odd waves move every tenant to a seeded random ring,
/// even waves back to the controller's locality-optimal rings.
const RECONF_WAVES: usize = 6;
const RECONF_PERIOD: Nanos = Nanos::from_millis(2);

/// Service tenants have registered their communicators by this instant
/// (checked), when the controller places them.
const REGISTERED_BY: Nanos = Nanos::from_millis(1);
/// Service tenants issue their first collective at this instant.
const FIRST_COLLECTIVE: Nanos = Nanos::from_millis(2);
/// A run still active at this simulated instant has hung.
const DEADLINE: Nanos = Nanos::from_secs(600);

fn hyperscale_fabric() -> SpineLeafConfig {
    // 16 spines x 40 leaves x 32 hosts x 8 GPUs = 10,240 GPUs.
    SpineLeafConfig {
        spines: 16,
        leaves: 40,
        hosts_per_leaf: 32,
        gpus_per_host: 8,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(200.0),
    }
}

fn service_fabric() -> SpineLeafConfig {
    // 4 spines x 4 leaves x 4 hosts x 8 GPUs = 128 GPUs.
    SpineLeafConfig {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 4,
        gpus_per_host: 8,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(100.0),
    }
}

// ---- inputs --------------------------------------------------------------

/// One tenant (a library job or a service application).
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Rank → GPU.
    pub gpus: Vec<GpuId>,
    /// Library jobs: the job's channel rings. Service reconfiguration:
    /// the seeded ring odd waves move the tenant to. Otherwise empty.
    pub rings: Vec<RingOrder>,
    /// When the tenant starts (library jobs; service tenants start at
    /// [`FIRST_COLLECTIVE`]).
    pub start: Nanos,
    /// AllReduce buffer size.
    pub size: Bytes,
}

/// Everything a repetition needs, generated from the seed alone.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed the inputs came from (also the cluster seed).
    pub seed: u64,
    /// The fabric each repetition builds afresh.
    pub fabric: SpineLeafConfig,
    /// Tenants, in admission order.
    pub tenants: Vec<Tenant>,
    /// Collectives per tenant (closed loop: one outstanding).
    pub iterations: usize,
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed ^ 0x6d63_6373_6265_6e63);
        match workload {
            Workload::HyperscaleChurn => {
                let fabric = hyperscale_fabric();
                let topo = spine_leaf(&fabric);
                let arrivals = poisson_jobs(HS_JOBS, HS_MEAN_GAP, &[16], &mut rng);
                // Every job fits at once (at most 4,096 of 10,240 GPUs), so
                // placement never queues and arrivals are the start times.
                let mut map = PlacementMap::new(&topo);
                let tenants = arrivals
                    .iter()
                    .map(|job| {
                        let size = if job.id % 2 == 0 { 16 } else { 32 };
                        // A quarter of the jobs land on random hosts across
                        // racks; the rest are packed rack by rack. Only the
                        // scattered jobs' pairs need a fabric-wide route
                        // search, which keeps that search (whose speed
                        // swings with the host's cache contention) a
                        // minority of the run.
                        let placement = if job.id % 8 < 2 {
                            Placement::Random
                        } else {
                            Placement::Compact
                        };
                        let gpus = map
                            .place(&topo, size, placement, &mut rng)
                            .expect("the fabric holds every job at once");
                        let ring = random_host_ring(&topo, &gpus, &mut rng);
                        let size = HS_SIZE.mul_f64(rng.uniform(0.5, 1.5));
                        Tenant {
                            gpus,
                            rings: vec![ring; HS_CHANNELS],
                            start: job.arrival,
                            size: Bytes::kib(size.as_u64() / 1024),
                        }
                    })
                    .collect();
                Inputs {
                    workload,
                    seed,
                    fabric,
                    tenants,
                    iterations: HS_ITERS,
                }
            }
            Workload::ServiceLocal => {
                let fabric = service_fabric();
                let tenants = (0..SVC_TENANTS)
                    .map(|t| {
                        // Tenant t owns host t; the user's rank order is seeded.
                        let mut gpus: Vec<GpuId> =
                            (0..8).map(|k| GpuId((t * 8 + k) as u32)).collect();
                        rng.shuffle(&mut gpus);
                        Tenant {
                            gpus,
                            rings: Vec::new(),
                            start: FIRST_COLLECTIVE,
                            size: LOCAL_SIZE,
                        }
                    })
                    .collect();
                Inputs {
                    workload,
                    seed,
                    fabric,
                    tenants,
                    iterations: LOCAL_ITERS,
                }
            }
            Workload::ServiceReconfig => {
                let fabric = service_fabric();
                let topo = spine_leaf(&fabric);
                let tenants = (0..SVC_TENANTS)
                    .map(|t| {
                        // Tenant t owns GPU slot t % 8 on every other host,
                        // so each ring crosses all four racks.
                        let mut gpus: Vec<GpuId> =
                            (0..8).map(|k| GpuId((k * 16 + t) as u32)).collect();
                        rng.shuffle(&mut gpus);
                        let alt = random_host_ring(&topo, &gpus, &mut rng);
                        Tenant {
                            gpus,
                            rings: vec![alt],
                            start: FIRST_COLLECTIVE,
                            size: RECONF_SIZE,
                        }
                    })
                    .collect();
                Inputs {
                    workload,
                    seed,
                    fabric,
                    tenants,
                    iterations: RECONF_ITERS,
                }
            }
        }
    }

    /// Collectives one repetition attempts.
    pub fn attempted(&self) -> u64 {
        (self.tenants.len() * self.iterations) as u64
    }

    /// Each tenant's ring sets as the run uses them: the job's rings, the
    /// service's default rings, or (reconfiguration) the controller's
    /// optimal rings followed by the seeded wave rings.
    pub fn ring_sets(&self, topo: &Topology) -> Vec<Vec<Vec<RingOrder>>> {
        self.tenants
            .iter()
            .map(|t| match self.workload {
                Workload::HyperscaleChurn => vec![t.rings.clone()],
                Workload::ServiceLocal => {
                    vec![CollectiveConfig::default_for(topo, &t.gpus).channel_rings]
                }
                Workload::ServiceReconfig => vec![
                    optimal_rings(topo, &t.gpus, ChannelPolicy::MatchNics),
                    t.rings.clone(),
                ],
            })
            .collect()
    }
}

/// Inter-host `(src, dst, bytes)` transfers of one collective's schedule.
pub fn network_flows(schedule: &CollectiveSchedule) -> Vec<(NicId, NicId, Bytes)> {
    schedule
        .channels
        .iter()
        .flat_map(|c| c.network_tasks())
        .filter_map(|t| match *t {
            EdgeTask::InterHost {
                src_nic,
                dst_nic,
                bytes,
                ..
            } => Some((src_nic, dst_nic, bytes)),
            EdgeTask::IntraHost { .. } => None,
        })
        .collect()
}

// ---- one repetition --------------------------------------------------------

/// Exact counts read from the cluster after a repetition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `Cluster::step` calls (setup and run).
    pub steps: u64,
    /// Engine polls.
    pub polls: u64,
    /// Polls that found nothing to do.
    pub wasted_polls: u64,
    /// Engine wake-ups.
    pub wakes: u64,
    /// Netsim component remap cache (hits, misses).
    pub remap: (u64, u64),
    /// Largest live flow count after any step (traced repetitions only).
    pub peak_live_flows: u64,
    /// World schedule cache (hits, misses).
    pub schedule_cache: (u64, u64),
    /// Fig-4 gossip re-sends.
    pub gossip_resends: u64,
    /// Reconfigurations a proxy refused.
    pub reconfig_rejects: u64,
    /// Recovery drains.
    pub recoveries: u64,
    /// Transport flow retries.
    pub flow_retries: u64,
    /// Collectives the service failed back to a tenant.
    pub collectives_failed: u64,
    /// Simulation worker threads used.
    pub sim_workers: usize,
    /// Event-loop shards used.
    pub sim_shards: usize,
}

/// What one repetition measured and produced.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Wall-seconds from the fabric build to the first collective.
    pub setup_s: f64,
    /// Wall-seconds of the run phase.
    pub run_s: f64,
    /// Collectives attempted.
    pub attempted: u64,
    /// Collectives completed.
    pub completed: u64,
    /// Simulated issue→done latencies in nanoseconds, tenant by tenant.
    pub latencies_ns: Vec<u64>,
    /// `Cluster::observable_digest`.
    pub digest: u64,
    /// Peak live heap during the repetition, above what was live before.
    pub peak_heap_bytes: usize,
    /// Exact counts.
    pub counts: Counts,
    /// Problems found in the outcome (empty when correct).
    pub errors: Vec<String>,
}

fn comm_of(tenant: usize) -> CommunicatorId {
    CommunicatorId(1 + tenant as u64)
}

fn service_program(inp: &Inputs, t: usize, rank: usize) -> ScriptedProgram {
    let comm = comm_of(t);
    let size = inp.tenants[t].size;
    ScriptedProgram::new(
        format!("{}-t{t}/r{rank}", inp.workload.name()),
        vec![
            ScriptStep::Alloc { size, slot: 0 },
            ScriptStep::Alloc { size, slot: 1 },
            ScriptStep::CommInit {
                comm,
                world: inp.tenants[t].gpus.clone(),
                rank,
            },
            ScriptStep::SleepUntil(FIRST_COLLECTIVE),
            ScriptStep::Collective {
                comm,
                op: all_reduce_sum(),
                size,
                send_slot: 0,
                recv_slot: 1,
            },
            ScriptStep::Repeat {
                from_step: 4,
                times: inp.iterations - 1,
            },
        ],
    )
}

/// One traced-or-not `Cluster::step`, tracking the live flow peak when
/// tracing. Returns whether anything remains scheduled.
fn step(cluster: &mut Cluster, tr: &mut Tracer, counts: &mut Counts) -> bool {
    let s = tr.begin("sim.step");
    let next = cluster.step();
    tr.end(s);
    counts.steps += 1;
    if tr.enabled() {
        counts.peak_live_flows = counts
            .peak_live_flows
            .max(cluster.world.net.flow_count() as u64);
    }
    assert!(
        cluster.now() <= DEADLINE,
        "still active at simulated {DEADLINE}: hung"
    );
    next.is_some()
}

/// Step until the clock reaches `t` (it lands exactly on `t`, which a
/// tenant timer guarantees), without polling at `t`.
fn step_to(cluster: &mut Cluster, t: Nanos, tr: &mut Tracer, counts: &mut Counts) {
    while cluster.now() < t {
        assert!(step(cluster, tr, counts), "quiesced before {t}");
    }
}

/// Admit every tenant; returns their app ids.
fn admit(cluster: &mut Cluster, inp: &Inputs, tr: &mut Tracer) -> Vec<AppId> {
    inp.tenants
        .iter()
        .enumerate()
        .map(|(t, tenant)| {
            if inp.workload.library_mode() {
                let cfg = BaselineConfig {
                    channels: HS_CHANNELS,
                    ring: RingChoice::Explicit(tenant.rings.clone()),
                    routes: RouteMap::ecmp(),
                    hash_salt: inp.seed ^ t as u64,
                    ..Default::default()
                };
                let phases = vec![
                    Phase::Compute(HS_COMPUTE),
                    Phase::Collective {
                        op: all_reduce_sum(),
                        size: tenant.size,
                    },
                ];
                tr.span("baseline.spawn", || {
                    BaselineJob::spawn(
                        cluster,
                        &format!("hs-job{t}"),
                        cfg,
                        tenant.gpus.clone(),
                        phases,
                        inp.iterations,
                        tenant.start,
                    )
                })
            } else {
                let ranks: Vec<(GpuId, Box<dyn AppProgram>)> = tenant
                    .gpus
                    .iter()
                    .enumerate()
                    .map(|(rank, &gpu)| {
                        let prog = service_program(inp, t, rank);
                        (gpu, Box::new(prog) as Box<dyn AppProgram>)
                    })
                    .collect();
                let name = format!("{}-t{t}", inp.workload.name());
                tr.span("core.add_app", || cluster.add_app(&name, ranks))
            }
        })
        .collect()
}

/// Reconfiguration wave `k` (1-based): odd waves move each tenant to its
/// seeded ring, even waves back to the optimal rings; FFA pins the routes.
fn reconfigure_wave(cluster: &mut Cluster, inp: &Inputs, k: usize, tr: &mut Tracer) {
    let wave = tr.begin("control.wave");
    let topo = Arc::clone(&cluster.world.topo);
    let rings: Vec<Vec<RingOrder>> = inp
        .tenants
        .iter()
        .map(|t| {
            if k % 2 == 1 {
                t.rings.clone()
            } else {
                tr.span("control.optimal_rings", || {
                    optimal_rings(&topo, &t.gpus, ChannelPolicy::MatchNics)
                })
            }
        })
        .collect();
    let jobs: Vec<JobFlows> = rings
        .iter()
        .map(|r| JobFlows::from_rings(&topo, r, 0))
        .collect();
    let routes = tr.span("control.ffa", || ffa(&topo, &jobs));
    for (t, (r, m)) in rings.into_iter().zip(routes).enumerate() {
        tr.span("core.reconfigure", || {
            cluster.mgmt().reconfigure(comm_of(t), r, m)
        });
    }
    tr.end(wave);
}

/// Build a fresh fabric and cluster and bring the tenants to their first
/// collective. Returns the cluster, the tenants' app ids and the wall
/// time taken.
fn set_up(
    inp: &Inputs,
    tr: &mut Tracer,
    counts: &mut Counts,
    errors: &mut Vec<String>,
) -> (Cluster, Vec<AppId>, f64) {
    let t0 = Instant::now();
    let setup = tr.begin("setup");
    let topo = tr.span("topology.build", || Arc::new(spine_leaf(&inp.fabric)));
    let cfg = if inp.workload.library_mode() {
        ClusterConfig::library_mode(inp.seed)
    } else {
        ClusterConfig::with_seed(inp.seed)
    };
    let mut cluster = tr.span("core.cluster_new", || Cluster::new(topo, cfg));
    let apps = admit(&mut cluster, inp, tr);
    if !inp.workload.library_mode() {
        step_to(&mut cluster, REGISTERED_BY, tr, counts);
        if inp.workload == Workload::ServiceReconfig {
            let placed = tr.span("control.optimize_cluster", || {
                optimize_cluster(&mut cluster, &PolicySpec::mccs())
            });
            if placed.len() != inp.tenants.len() {
                errors.push(format!(
                    "controller placed {} of {} communicators: registration incomplete at {REGISTERED_BY}",
                    placed.len(),
                    inp.tenants.len()
                ));
            }
        }
        step_to(&mut cluster, FIRST_COLLECTIVE, tr, counts);
    }
    tr.end(setup);
    (cluster, apps, t0.elapsed().as_secs_f64())
}

/// Set up only, untraced, and drop the cluster: one more `setup_s`
/// sample. Returns the setup wall time.
pub fn setup_only(inp: &Inputs) -> f64 {
    let (cluster, _, setup_s) = set_up(
        inp,
        &mut Tracer::off(),
        &mut Counts::default(),
        &mut Vec::new(),
    );
    drop(cluster);
    setup_s
}

/// Run one repetition from a fresh fabric and cluster.
pub fn run_rep(inp: &Inputs, tr: &mut Tracer) -> Rep {
    let mut counts = Counts::default();
    let mut errors = Vec::new();
    let heap_base = alloc::reset_peak();
    let rep_span = tr.begin("rep");
    let (mut cluster, apps, setup_s) = set_up(inp, tr, &mut counts, &mut errors);

    // Run: closed-loop tenants until every one is done.
    let t1 = Instant::now();
    let run = tr.begin("run");
    let mut waves = 0;
    loop {
        if inp.workload == Workload::ServiceReconfig
            && waves < RECONF_WAVES
            && cluster.now() >= FIRST_COLLECTIVE + RECONF_PERIOD * (waves as u64 + 1)
        {
            waves += 1;
            reconfigure_wave(&mut cluster, inp, waves, tr);
        }
        if !step(&mut cluster, tr, &mut counts) {
            break;
        }
    }
    tr.end(run);
    let run_s = t1.elapsed().as_secs_f64();
    let peak_heap_bytes = alloc::peak_above(heap_base);
    tr.end(rep_span);

    // Outcome (untimed).
    if inp.workload == Workload::ServiceReconfig && waves != RECONF_WAVES {
        errors.push(format!(
            "run ended after {waves} of {RECONF_WAVES} reconfiguration waves"
        ));
    }
    let mut completed = 0u64;
    let mut latencies_ns = Vec::new();
    for (t, &app) in apps.iter().enumerate() {
        let done: Vec<u64> = if inp.workload.library_mode() {
            cluster
                .mgmt()
                .timeline(app)
                .iter()
                .filter_map(|r| r.latency())
                .map(|l| l.as_nanos())
                .collect()
        } else {
            cluster
                .mgmt()
                .tenant_outcomes(app)
                .iter()
                .filter(|r| !r.failed)
                .map(|r| (r.finished - r.issued).as_nanos())
                .collect()
        };
        if done.len() != inp.iterations {
            errors.push(format!(
                "tenant {t} completed {} of {} collectives",
                done.len(),
                inp.iterations
            ));
        }
        completed += done.len() as u64;
        latencies_ns.extend(done);
    }
    if inp.workload == Workload::ServiceReconfig {
        let want = 1 + RECONF_WAVES as u64;
        for info in cluster.mgmt().communicators() {
            if info.epoch != want {
                errors.push(format!(
                    "{} ended at epoch {}, not {want}",
                    info.comm, info.epoch
                ));
            }
        }
    }
    let sched = cluster.scheduler_stats();
    let health = cluster.mgmt().health_counters();
    counts.polls = sched.polls;
    counts.wasted_polls = sched.wasted_polls;
    counts.wakes = sched.wakes;
    counts.remap = cluster.world.net.remap_cache_stats();
    counts.schedule_cache = cluster.world.schedule_cache.stats();
    counts.gossip_resends = health.gossip_resends;
    counts.reconfig_rejects = health.reconfig_rejects;
    counts.recoveries = health.recoveries;
    counts.flow_retries = health.flow_retries;
    counts.collectives_failed = health.collectives_failed;
    counts.sim_workers = cluster.sim_workers();
    counts.sim_shards = cluster.sim_shards();
    if health.collectives_failed != 0 {
        errors.push(format!(
            "service failed {} collectives",
            health.collectives_failed
        ));
    }
    Rep {
        setup_s,
        run_s,
        attempted: inp.attempted(),
        completed,
        latencies_ns,
        digest: cluster.observable_digest(),
        peak_heap_bytes,
        counts,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(inp: &Inputs) -> Vec<(usize, usize)> {
        inp.tenants
            .iter()
            .map(|t| (t.gpus.len(), t.rings.len()))
            .collect()
    }

    #[test]
    fn inputs_come_from_the_seed_and_work_does_not() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 7);
            let c = Inputs::generate(w, 8);
            assert_eq!(format!("{:?}", a.tenants), format!("{:?}", b.tenants));
            assert_ne!(format!("{:?}", a.tenants), format!("{:?}", c.tenants));
            assert_eq!(
                shape(&a),
                shape(&c),
                "{}: work moved with the seed",
                w.name()
            );
            assert_eq!(a.attempted(), c.attempted());
            // p99 of one repetition needs at least ten samples beyond it.
            assert!(a.attempted() >= 1000, "{} is too small for p99", w.name());
        }
    }
}
