//! Per-layer replays of a workload's own inputs, run in traced mode only:
//! schedule derivation, cold route enumeration on a fresh fabric, and the
//! workload's ring flows pushed through a bare `Network`.

use crate::spans::Tracer;
use crate::workload::{network_flows, Inputs};
use mccs_collectives::op::all_reduce_sum;
use mccs_collectives::CollectiveSchedule;
use mccs_netsim::{FlowSpec, Network, RouteChoice};
use mccs_sim::Nanos;
use mccs_topology::presets::spine_leaf;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Replay every layer once; spans land in `tr` under the current
/// repetition. Returns the number of distinct NIC pairs routed.
pub fn replay(inp: &Inputs, tr: &mut Tracer) -> usize {
    let all = tr.begin("replay");
    // A fresh fabric: its route cache is cold.
    let topo = Arc::new(spine_leaf(&inp.fabric));
    let ring_sets = inp.ring_sets(&topo);

    let mut schedules = Vec::new();
    for (tenant, sets) in inp.tenants.iter().zip(&ring_sets) {
        let per_tenant: Vec<CollectiveSchedule> = sets
            .iter()
            .map(|rings| {
                tr.span("collectives.schedule_ring", || {
                    CollectiveSchedule::ring(&topo, all_reduce_sum(), tenant.size, rings)
                })
            })
            .collect();
        schedules.push(per_tenant);
    }

    let pairs: BTreeSet<_> = schedules
        .iter()
        .flatten()
        .flat_map(network_flows)
        .map(|(s, d, _)| (s, d))
        .collect();
    for &(s, d) in &pairs {
        tr.span("topology.route_cold", || topo.ecmp_paths(s, d));
    }

    // Each tenant's first ring set, one collective's flows, started at the
    // tenant's start time; completions are drained one advance at a time.
    // Routes are warm now, so `start_flow` times the flow layer alone.
    let mut net = Network::new(Arc::clone(&topo));
    let mut order: Vec<usize> = (0..inp.tenants.len()).collect();
    order.sort_by_key(|&t| (inp.tenants[t].start, t));
    let mut tag = 0u64;
    for t in order {
        let start = inp.tenants[t].start;
        drain(&mut net, Some(start), tr);
        for (src, dst, bytes) in network_flows(&schedules[t][0]) {
            let spec = FlowSpec {
                src,
                dst,
                bytes: Some(bytes),
                routing: RouteChoice::Ecmp {
                    hash: inp.seed ^ tag,
                },
                rate_cap: None,
                tag,
                guaranteed: false,
                tenant: t as u32,
            };
            tag += 1;
            tr.span("netsim.start_flow", || net.start_flow(start, spec));
        }
    }
    drain(&mut net, None, tr);
    assert_eq!(net.flow_count(), 0, "replayed flows must all complete");
    tr.end(all);
    pairs.len()
}

/// Advance through every completion up to `until` (all of them for
/// `None`), one `advance_to` per completion instant.
fn drain(net: &mut Network, until: Option<Nanos>, tr: &mut Tracer) {
    while let Some(t) = net.next_completion_time() {
        if until.is_some_and(|u| t > u) {
            break;
        }
        tr.span("netsim.advance", || net.advance_to(t));
    }
}
