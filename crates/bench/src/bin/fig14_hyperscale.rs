//! Figure 14 (extension) — hyperscale soak: a ≥10k-GPU fat-tree under
//! arrival-process tenant churn.
//!
//! The at-scale study (Figure 11) runs the paper's 768-GPU cluster; this
//! figure is the order-of-magnitude stress the arena-indexed hot state
//! and the rack-partitioned max-min solver exist for. A 10,240-GPU
//! spine-leaf fabric (16 spines × 40 leaves × 32 hosts × 8 GPUs) hosts a
//! Poisson arrival process of 16/32-GPU tenants (from `mccs-workloads`,
//! §6.5 parameters scaled down in duration); every arrival and departure
//! is a churn event that re-solves only its rack component plus the
//! touched spine links.
//!
//! Four records are asserted, not just reported:
//!
//! * **digest equality** — the run repeats with every netsim fast path
//!   disabled ([`Cluster::set_netsim_oracle`]: map-backed flow storage,
//!   global from-scratch solve) and the observable digests must match
//!   byte for byte;
//! * **sharded vs. global equivalence** — a six-member sweep crosses
//!   {single-queue oracle, per-rack sharded} event queues with
//!   {1, 2, 8} simulation workers, in process, and every member's digest
//!   and poll count must equal the solo run's byte for byte;
//! * **work-throughput floor** — collectives completed per wall-clock
//!   second, on the fast run and across the whole sweep (conservative:
//!   two orders of magnitude under a 2-vCPU VM, but it catches an
//!   accidental O(world) step). Work, not engine polls, is the
//!   numerator: a poll-rate floor would reward an engine that spins;
//! * **peak-memory floor** — peak live heap of the fast run, measured by
//!   a counting global allocator. Dense arenas size with the *live* flow
//!   window and the link count, not with total flows ever started.
//!
//! The sweep members run *concurrently* as independent clusters on the
//! deterministic worker pool. Their wall-clock overlap (summed member
//! walls over sweep wall) is reported, not gated: it counts how many
//! members the host's cores interleave, not how fast the simulator is.
//!
//! Run: `cargo run --release -p mccs-bench --bin fig14_hyperscale`

use mccs_baseline::{BaselineConfig, BaselineJob, Phase, RingChoice};
use mccs_bench::report::{print_table, write_bench_json};
use mccs_bench::scale::{plan_jobs, ScaleConfig};
use mccs_collectives::op::all_reduce_sum;
use mccs_core::config::RouteMap;
use mccs_core::{Cluster, ClusterConfig};
use mccs_sim::{Bandwidth, Bytes, Nanos, Workers};
use mccs_topology::presets::{spine_leaf, SpineLeafConfig};
use mccs_workloads::Placement;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pass-through allocator tracking live and peak heap bytes. Layout sizes
/// are exact and platform-independent, so the peak is as deterministic as
/// the simulation itself and can be regression-gated by `bench_check`.
struct PeakAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_live(live: usize) {
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; only maintains relaxed counters.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_live(LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                note_live(LIVE_BYTES.fetch_add(grow, Ordering::Relaxed) + grow);
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Reset the peak to the current live level (so each run's peak is its
/// own, not the previous run's high-water mark).
fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

const SEED: u64 = 14;
const JOBS: usize = 96;
const ITERS: usize = 4;
const COLLECTIVE: Bytes = Bytes::mib(8);
const CHANNELS: usize = 2;

/// Acceptance floors. Throughput is wall-clock-derived and deliberately
/// two orders of magnitude under a 2-vCPU VM (about 9,000 collectives/s
/// there); it exists to catch an accidental O(world)-per-step
/// regression, not to benchmark hardware.
const MIN_COLLECTIVES_PER_SEC: f64 = 100.0;
/// Peak live heap ceiling for the fast run. The 10k-GPU world (topology,
/// queues, arenas) plus the live flow window fits comfortably; blowing
/// this means some table started scaling with total-flows-ever or with
/// GPUs², which is exactly what the dense arenas forbid.
const MAX_PEAK_HEAP_MIB: f64 = 256.0;

/// 16 spines × 40 leaves × 32 hosts × 8 GPUs = 10,240 GPUs.
fn topology() -> SpineLeafConfig {
    SpineLeafConfig {
        spines: 16,
        leaves: 40,
        hosts_per_leaf: 32,
        gpus_per_host: 8,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(200.0),
    }
}

/// §6.5-style churn, scaled in duration so the soak stays a quick gate:
/// 16/32-GPU jobs, Poisson arrivals, short iterations.
fn workload() -> ScaleConfig {
    ScaleConfig {
        jobs: JOBS,
        mean_gap: Nanos::from_millis(10),
        sizes: vec![16, 32],
        iterations: ITERS,
        collective: COLLECTIVE,
        compute: Nanos::from_millis(2),
        channels: CHANNELS,
        baseline_channels: CHANNELS,
        placement: Placement::Random,
        seed: SEED,
    }
}

struct RunStats {
    digest: u64,
    polls: u64,
    wall_s: f64,
    peak_heap_mib: f64,
    virtual_s: f64,
    sim_shards: usize,
}

/// One soak. `shards` is the event-queue layout: `1` pins the
/// single-queue global oracle, `0` resolves to the per-rack auto layout
/// (one shard per rack plus the shared shard 0 — 41 on this fabric,
/// spanning proxies, transports and every tenant's frontends).
fn run(oracle: bool, workers: usize, shards: usize) -> RunStats {
    let topo = Arc::new(spine_leaf(&topology()));
    let cfg = workload();
    let planned = plan_jobs(&topo, &cfg);
    assert_eq!(planned.len(), JOBS, "every job must place");
    let mut cluster = Cluster::new(Arc::clone(&topo), ClusterConfig::library_mode(SEED));
    cluster.set_netsim_oracle(oracle);
    cluster.set_sim_workers(workers);
    cluster.set_sim_shards(shards);
    let mut apps = Vec::new();
    for job in &planned {
        let phases = vec![
            Phase::Compute(cfg.compute),
            Phase::Collective {
                op: all_reduce_sum(),
                size: cfg.collective,
            },
        ];
        let app = BaselineJob::spawn(
            &mut cluster,
            &format!("hs-job{}", job.id),
            BaselineConfig {
                channels: CHANNELS,
                ring: RingChoice::RandomHosts,
                routes: RouteMap::ecmp(),
                hash_salt: SEED ^ job.id as u64,
                ..Default::default()
            },
            job.gpus.clone(),
            phases,
            ITERS,
            job.start,
        );
        apps.push((job.id, app));
    }
    reset_peak();
    let t0 = Instant::now();
    cluster.run_until_quiescent(Nanos::from_secs(3600));
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_heap_mib = PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0);
    for (id, app) in &apps {
        let tl = cluster.mgmt().timeline(*app);
        assert_eq!(tl.len(), ITERS, "job {id} lost collectives");
    }
    RunStats {
        digest: cluster.observable_digest(),
        polls: cluster.scheduler_stats().polls,
        wall_s,
        peak_heap_mib,
        virtual_s: cluster.now().as_secs_f64(),
        sim_shards: cluster.sim_shards(),
    }
}

fn main() {
    let world = topology();
    let gpus = world.leaves * world.hosts_per_leaf * world.gpus_per_host;
    assert!(gpus >= 10_000, "hyperscale means ≥10k GPUs, got {gpus}");
    println!("== Figure 14 (extension): hyperscale soak, {gpus} GPUs under tenant churn ==");
    println!(
        "cluster: {} spines x {} leaves x {} hosts x {} GPUs; {JOBS} Poisson jobs, \
         {ITERS}x {COLLECTIVE} AllReduce each\n",
        world.spines, world.leaves, world.hosts_per_leaf, world.gpus_per_host,
    );

    let fast = run(false, 1, 0);
    let oracle = run(true, 1, 0);
    assert_eq!(
        fast.digest, oracle.digest,
        "arena + hierarchical solve diverged from the map-backed global oracle"
    );

    // Sharded × worker sweep, itself dispatched on the deterministic
    // worker pool: six more fast runs crossing {global single-queue,
    // per-rack sharded} event queues with {1, 2, 8} simulation workers
    // execute *concurrently* as independent clusters. Each member's
    // digest and poll count must equal the solo run's byte for byte —
    // the in-process analogue of CI's MCCS_SIM_WORKERS ×
    // MCCS_SIM_SHARDED matrix, and the sharded-vs-global comparison the
    // shard layout is gated on. The sweep's own work rate (collectives of
    // all members over sweep wall) meets the same floor as the solo run;
    // the overlap ratio (summed member walls over sweep wall) is only
    // reported, since it tracks how many of the six members the host's
    // cores oversubscribe. Peak-heap counters are global, so sweep
    // members don't report memory.
    const SWEEP: [(usize, usize); 6] = [(1, 1), (1, 2), (1, 8), (0, 1), (0, 2), (0, 8)];
    let t0 = Instant::now();
    let sweep = Workers::new(SWEEP.len()).run(SWEEP.len(), |i| {
        let (shards, workers) = SWEEP[i];
        run(false, workers, shards)
    });
    let sweep_wall_s = t0.elapsed().as_secs_f64();
    let member_sum_s: f64 = sweep.iter().map(|s| s.wall_s).sum();
    for (s, (shards, w)) in sweep.iter().zip(SWEEP) {
        let layout = if shards == 1 { "global" } else { "sharded" };
        assert_eq!(
            s.digest, fast.digest,
            "digest moved at sim_workers={w} ({layout} queues): \
             the pool and the shard layout must be observably invisible"
        );
        assert_eq!(
            s.polls, fast.polls,
            "poll count moved at sim_workers={w} ({layout} queues)"
        );
    }
    let sweep_overlap = member_sum_s / sweep_wall_s;

    let collectives = (JOBS * ITERS) as f64;
    let collectives_per_sec = collectives / fast.wall_s;
    let sweep_collectives_per_sec = SWEEP.len() as f64 * collectives / sweep_wall_s;
    let headers = [
        "netsim",
        "polls",
        "virtual_s",
        "peak_heap_mib",
        "wall_clock_s",
    ];
    let rows: Vec<Vec<String>> = [("fast", &fast), ("oracle", &oracle)]
        .iter()
        .map(|(name, s)| {
            vec![
                name.to_string(),
                s.polls.to_string(),
                format!("{:.3}", s.virtual_s),
                format!("{:.1}", s.peak_heap_mib),
                format!("{:.3}", s.wall_s),
            ]
        })
        .collect();
    print_table(&headers, &rows);
    println!("\ndigests match: 0x{:016x}", fast.digest);
    println!(
        "work throughput (fast): {collectives_per_sec:.0} collectives/s \
         (floor {MIN_COLLECTIVES_PER_SEC})"
    );
    println!(
        "peak live heap (fast):  {:.1} MiB (ceiling {MAX_PEAK_HEAP_MIB})",
        fast.peak_heap_mib
    );
    println!(
        "wall-clock: fast {:.2}s vs oracle {:.2}s ({:.1}x, machine-dependent)",
        fast.wall_s,
        oracle.wall_s,
        oracle.wall_s / fast.wall_s
    );
    println!(
        "sharded x worker sweep {{global,sharded({})}}x{{1,2,8}}: digests equal; \
         {:.2}s concurrent vs {:.2}s summed ({sweep_overlap:.1}x overlap); \
         {sweep_collectives_per_sec:.0} collectives/s",
        fast.sim_shards, sweep_wall_s, member_sum_s,
    );

    // The floors are part of the record: regenerating this figure on a
    // regression fails CI before bench_check even diffs.
    for (what, rate) in [
        ("fast run", collectives_per_sec),
        ("sweep", sweep_collectives_per_sec),
    ] {
        assert!(
            rate >= MIN_COLLECTIVES_PER_SEC,
            "{what} throughput {rate:.0} collectives/s under the \
             {MIN_COLLECTIVES_PER_SEC} floor"
        );
    }
    assert!(
        fast.peak_heap_mib <= MAX_PEAK_HEAP_MIB,
        "peak heap {:.1} MiB over the {MAX_PEAK_HEAP_MIB} MiB ceiling",
        fast.peak_heap_mib
    );

    write_bench_json(
        "fig14_hyperscale",
        &format!(
            "\"gpus\":{gpus},\"jobs\":{JOBS},\"iters\":{ITERS},\"sim_shards\":{},\
             \"fast\":{{\"polls\":{},\"virtual_s\":{:.6},\"peak_heap_mib\":{:.2},\"wall_clock_s\":{:.4}}},\
             \"oracle\":{{\"polls\":{},\"virtual_s\":{:.6},\"peak_heap_mib\":{:.2},\"wall_clock_s\":{:.4}}},\
             \"shard_worker_sweep\":{{\"shard_members\":[1,{}],\"worker_members\":[1,2,8],\
             \"digest_equal\":true,\
             \"wall_clock_member_sum_s\":{member_sum_s:.4},\"wall_clock_sweep_s\":{sweep_wall_s:.4},\
             \"wall_clock_overlap\":{sweep_overlap:.4},\
             \"wall_clock_collectives_per_s\":{sweep_collectives_per_sec:.1}}},\
             \"wall_clock_collectives_per_s\":{collectives_per_sec:.1},\
             \"wall_clock_collectives_per_s_floor\":{MIN_COLLECTIVES_PER_SEC},\
             \"wall_clock_speedup_vs_oracle\":{:.4}",
            fast.sim_shards,
            fast.polls,
            fast.virtual_s,
            fast.peak_heap_mib,
            fast.wall_s,
            oracle.polls,
            oracle.virtual_s,
            oracle.peak_heap_mib,
            oracle.wall_s,
            fast.sim_shards,
            oracle.wall_s / fast.wall_s,
        ),
    );
}
