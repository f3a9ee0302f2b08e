//! Library-mode jobs under the wake-driven scheduler must be observably
//! identical to the naive poll-everyone oracle
//! ([`Cluster::set_naive_scheduler`]), and must actually park: a
//! `BaselineJob` waits on its own deadlines (start, compute, launch) and
//! on its communicator's progress signal, which the world raises when the
//! job's last flow or transfer of a collective retires.

use mccs_baseline::{BaselineConfig, BaselineJob, Phase, RingChoice};
use mccs_collectives::op::all_reduce_sum;
use mccs_core::{Cluster, ClusterConfig};
use mccs_ipc::AppId;
use mccs_sim::{Bandwidth, Bytes, Nanos};
use mccs_topology::presets::{spine_leaf, SpineLeafConfig};
use mccs_topology::GpuId;
use std::sync::Arc;

/// Polls the wake-driven scheduler issues for [`mixed_jobs`]. Pinned
/// exactly: one job falling back to polling every round (a missing wake
/// signal papered over by `Wake::Any`) multiplies it.
const WAKE_POLLS: u64 = 83;

fn allreduce(mib: u64) -> Phase {
    Phase::Collective {
        op: all_reduce_sum(),
        size: Bytes::mib(mib),
    }
}

/// A 2:1-oversubscribed 16-GPU fabric (2 leaves x 2 spines, 2 hosts of
/// 4 GPUs per leaf) carrying five jobs: staggered starts, compute phases,
/// two jobs whose interleaved rank orders share every leaf-spine link, a
/// rack-local job, and one intra-host job that only touches the device
/// fabric.
fn mixed_jobs(naive: bool) -> (Cluster, Vec<AppId>) {
    let topo = spine_leaf(&SpineLeafConfig {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 2,
        gpus_per_host: 4,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(100.0),
    });
    let mut cluster = Cluster::new(Arc::new(topo), ClusterConfig::library_mode(5));
    cluster.set_naive_scheduler(naive);
    let gpus = |ids: &[u32]| ids.iter().map(|&g| GpuId(g)).collect::<Vec<_>>();
    let jobs = [
        (
            "cross-a",
            RingChoice::RankOrder,
            gpus(&[0, 8, 4, 12]),
            vec![Phase::Compute(Nanos::from_millis(1)), allreduce(4)],
            3,
            Nanos::ZERO,
        ),
        (
            "cross-b",
            RingChoice::RandomHosts,
            gpus(&[1, 9, 5, 13]),
            vec![allreduce(8)],
            2,
            Nanos::from_micros(500),
        ),
        (
            "rack-local",
            RingChoice::RankOrder,
            gpus(&[2, 6]),
            vec![allreduce(1), Phase::Compute(Nanos::from_micros(200))],
            4,
            Nanos::from_millis(2),
        ),
        (
            "late",
            RingChoice::RankOrder,
            gpus(&[3, 11]),
            vec![
                Phase::Compute(Nanos::from_micros(300)),
                allreduce(2),
                Phase::Compute(Nanos::from_micros(200)),
            ],
            2,
            Nanos::from_millis(5),
        ),
        (
            "intra-host",
            RingChoice::RankOrder,
            gpus(&[14, 15]),
            vec![allreduce(16)],
            2,
            Nanos::from_micros(700),
        ),
    ];
    let apps = jobs
        .into_iter()
        .enumerate()
        .map(|(i, (name, ring, gpus, phases, iters, start))| {
            BaselineJob::spawn(
                &mut cluster,
                name,
                BaselineConfig {
                    ring,
                    hash_salt: i as u64,
                    ..Default::default()
                },
                gpus,
                phases,
                iters,
                start,
            )
        })
        .collect();
    cluster.run_until_quiescent(Nanos::from_secs(10));
    (cluster, apps)
}

#[test]
fn wake_driven_jobs_match_the_naive_scheduler() {
    let (mut wake, apps) = mixed_jobs(false);
    let (mut naive, naive_apps) = mixed_jobs(true);
    assert_eq!(apps, naive_apps);
    assert_eq!(wake.observable_digest(), naive.observable_digest());
    assert_eq!(wake.now(), naive.now());
    for &app in &apps {
        let tl = wake.mgmt().timeline(app);
        assert!(!tl.is_empty() && tl.iter().all(|r| r.completed_at.is_some()));
        assert_eq!(
            format!("{tl:?}"),
            format!("{:?}", naive.mgmt().timeline(app)),
            "timeline of {app} moved between schedulers"
        );
    }

    let polls = wake.scheduler_stats().polls;
    let naive_polls = naive.scheduler_stats().polls;
    assert_eq!(
        polls, WAKE_POLLS,
        "wake-driven poll count moved (naive oracle: {naive_polls})"
    );
    assert!(
        naive_polls > 2 * polls,
        "naive {naive_polls} vs wake {polls}: the oracle should poll far more"
    );
}
