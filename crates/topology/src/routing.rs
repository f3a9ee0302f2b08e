//! Multi-path routing.
//!
//! Routing between NICs enumerates **all minimum-hop switch paths** — the
//! equal-cost set that datacenter ECMP hashes over. MCCS's explicit route
//! control (the paper encodes a route id in the RoCEv2 UDP source port and
//! installs policy-based routing at the switches) is modeled by [`RouteId`]:
//! an index into the deterministic equal-cost path set for a NIC pair.
//!
//! Enumeration is a BFS over switches followed by a shortest-path-DAG walk,
//! with results memoized per NIC pair (the 768-GPU cluster of §6.5 touches
//! many pairs repeatedly during fair flow assignment). The walk's
//! distance-to-goal comes from a reverse BFS over the topology's in-link
//! index (`Topology::switch_in_links`), so a cold pair costs
//! O(switch-to-switch links) once rather than a scan of every fabric link
//! per frontier switch.

use crate::graph::{Endpoint, Topology};
use crate::ids::{LinkId, NicId, SwitchId};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;

/// An index into the equal-cost path set of a NIC pair — the provider's
/// explicit route handle ("route ID" in the paper's §5 Management).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RouteId(pub u32);

impl RouteId {
    /// The dense index behind this id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A concrete NIC-to-NIC path: uplink, zero or more switch-to-switch links,
/// downlink.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Route {
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Which equal-cost choice this is.
    pub id: RouteId,
    /// The links traversed, in order.
    pub links: Arc<[LinkId]>,
}

impl Route {
    /// Number of links traversed.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }
}

/// The memoized equal-cost route set for one (src, dst) NIC pair.
type PathSet = Arc<Vec<Route>>;

/// Memoized equal-cost path sets. Owned by [`Topology`].
#[derive(Default, Debug)]
pub(crate) struct RouteCache {
    cache: RwLock<HashMap<(NicId, NicId), PathSet>>,
}

impl Topology {
    /// All equal-cost (minimum-hop) routes from `src` to `dst`, in a
    /// deterministic order (lexicographic by link id). Memoized.
    ///
    /// # Panics
    /// Panics if `src == dst` (loopback never reaches the fabric) or if the
    /// fabric is partitioned between the two NICs.
    pub fn ecmp_paths(&self, src: NicId, dst: NicId) -> Arc<Vec<Route>> {
        assert_ne!(src, dst, "no route from a NIC to itself");
        if let Some(hit) = self
            .route_cache
            .cache
            .read()
            .expect("route cache poisoned")
            .get(&(src, dst))
        {
            return Arc::clone(hit);
        }
        let routes = Arc::new(self.enumerate_shortest(src, dst));
        self.route_cache
            .cache
            .write()
            .expect("route cache poisoned")
            .insert((src, dst), Arc::clone(&routes));
        routes
    }

    /// Number of equal-cost choices between two NICs — the "network
    /// multi-path choices" count that sizes the ring/channel fan-out in the
    /// paper's §6.5.
    pub fn path_diversity(&self, src: NicId, dst: NicId) -> usize {
        self.ecmp_paths(src, dst).len()
    }

    /// The route an ECMP hash selects. The hash is mixed (splitmix64
    /// finalizer) before reduction so correlated inputs (consecutive
    /// connection ids) spread across paths like a real switch hash.
    pub fn ecmp_route(&self, src: NicId, dst: NicId, hash: u64) -> Route {
        let paths = self.ecmp_paths(src, dst);
        let mut z = hash.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        paths[(z % paths.len() as u64) as usize].clone()
    }

    /// The explicitly pinned route `id` — MCCS's source-routing knob.
    ///
    /// # Panics
    /// Panics if `id` is out of range for the pair's equal-cost set.
    pub fn pinned_route(&self, src: NicId, dst: NicId, id: RouteId) -> Route {
        let paths = self.ecmp_paths(src, dst);
        paths
            .get(id.index())
            .unwrap_or_else(|| {
                panic!(
                    "route {id:?} out of range: {} equal-cost paths {src}->{dst}",
                    paths.len()
                )
            })
            .clone()
    }

    /// BFS + shortest-path-DAG enumeration.
    fn enumerate_shortest(&self, src: NicId, dst: NicId) -> Vec<Route> {
        self.enumerate_with(src, dst, Self::distances_to)
    }

    /// Hop distance from every switch to `goal` over switch-to-switch
    /// links (`u32::MAX` where `goal` is unreachable): a BFS that walks
    /// the in-link index backwards from `goal`.
    fn distances_to(&self, goal: SwitchId) -> Vec<u32> {
        let mut dist_to_goal = vec![u32::MAX; self.switches().len()];
        dist_to_goal[goal.index()] = 0;
        let mut frontier = vec![goal];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for sw in frontier {
                for &lid in self.switch_in_links(sw) {
                    if let Endpoint::Switch(prev) = self.link(lid).from {
                        if dist_to_goal[prev.index()] == u32::MAX {
                            dist_to_goal[prev.index()] = dist_to_goal[sw.index()] + 1;
                            next.push(prev);
                        }
                    }
                }
            }
            frontier = next;
        }
        dist_to_goal
    }

    /// The enumeration with the reverse BFS supplied by `distances_to`
    /// (the in-link index in production, the link scan in the oracle).
    fn enumerate_with(
        &self,
        src: NicId,
        dst: NicId,
        distances_to: fn(&Self, SwitchId) -> Vec<u32>,
    ) -> Vec<Route> {
        let src_nic = self.nic(src);
        let dst_nic = self.nic(dst);
        let start = src_nic.switch;
        let goal = dst_nic.switch;

        if start == goal {
            // Same leaf: the only path is up and straight back down.
            return vec![Route {
                src,
                dst,
                id: RouteId(0),
                links: Arc::from(vec![src_nic.uplink, dst_nic.downlink]),
            }];
        }

        // BFS distances from `start` over switch-to-switch links.
        let n = self.switches().len();
        let mut dist = vec![u32::MAX; n];
        dist[start.index()] = 0;
        let mut frontier = vec![start];
        while !frontier.is_empty() && dist[goal.index()] == u32::MAX {
            let mut next = Vec::new();
            for sw in frontier {
                for &lid in self.switch_out_links(sw) {
                    if let Endpoint::Switch(peer) = self.link(lid).to {
                        if dist[peer.index()] == u32::MAX {
                            dist[peer.index()] = dist[sw.index()] + 1;
                            next.push(peer);
                        }
                    }
                }
            }
            frontier = next;
        }
        assert!(
            dist[goal.index()] != u32::MAX,
            "fabric partitioned: no switch path {start} -> {goal}"
        );

        // Walk every path that strictly descends the BFS distance-to-go.
        // Recomputing distance-from-goal gives us that descent test.
        let dist_to_goal = distances_to(self, goal);

        let total = dist[goal.index()];
        let mut routes = Vec::new();
        let mut stack: Vec<LinkId> = Vec::new();
        self.dfs_paths(
            start,
            goal,
            total,
            &dist_to_goal,
            &mut stack,
            &mut routes,
            src,
            dst,
        );
        for (i, r) in routes.iter_mut().enumerate() {
            r.id = RouteId(i as u32);
        }
        routes
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_paths(
        &self,
        at: SwitchId,
        goal: SwitchId,
        remaining: u32,
        dist_to_goal: &[u32],
        stack: &mut Vec<LinkId>,
        out: &mut Vec<Route>,
        src: NicId,
        dst: NicId,
    ) {
        if at == goal {
            let mut links = Vec::with_capacity(stack.len() + 2);
            links.push(self.nic(src).uplink);
            links.extend_from_slice(stack);
            links.push(self.nic(dst).downlink);
            out.push(Route {
                src,
                dst,
                id: RouteId(0), // renumbered by caller
                links: Arc::from(links),
            });
            return;
        }
        // Links are visited in id order => deterministic enumeration.
        for &lid in self.switch_out_links(at) {
            if let Endpoint::Switch(peer) = self.link(lid).to {
                if dist_to_goal[peer.index()] == remaining - 1 {
                    stack.push(lid);
                    self.dfs_paths(
                        peer,
                        goal,
                        remaining - 1,
                        dist_to_goal,
                        stack,
                        out,
                        src,
                        dst,
                    );
                    stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::graph::SwitchRole;
    use crate::ids::PodId;
    use mccs_sim::Bandwidth;

    /// 2 leaves x 2 spines, 1 host of 1 GPU per leaf.
    fn two_by_two() -> Topology {
        let mut b = TopologyBuilder::new();
        let pod = PodId(0);
        let r0 = b.add_rack(pod);
        let r1 = b.add_rack(pod);
        let l0 = b.add_switch(SwitchRole::Leaf, Some(r0));
        let l1 = b.add_switch(SwitchRole::Leaf, Some(r1));
        let s0 = b.add_switch(SwitchRole::Spine, None);
        let s1 = b.add_switch(SwitchRole::Spine, None);
        for l in [l0, l1] {
            for s in [s0, s1] {
                b.connect_switches(l, s, Bandwidth::gbps(50.0));
            }
        }
        b.add_host(r0, l0, 1, Bandwidth::gbps(100.0));
        b.add_host(r1, l1, 1, Bandwidth::gbps(100.0));
        b.build()
    }

    #[test]
    fn cross_rack_has_one_path_per_spine() {
        let t = two_by_two();
        let paths = t.ecmp_paths(NicId(0), NicId(1));
        assert_eq!(paths.len(), 2);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(p.hop_count(), 4); // up, leaf->spine, spine->leaf, down
            assert_eq!(p.id, RouteId(i as u32));
            assert_eq!(p.links[0], t.nic(NicId(0)).uplink);
            assert_eq!(*p.links.last().expect("nonempty"), t.nic(NicId(1)).downlink);
        }
        assert_ne!(paths[0].links, paths[1].links);
    }

    #[test]
    fn same_leaf_single_path() {
        let mut b = TopologyBuilder::new();
        let r = b.add_rack(PodId(0));
        let l = b.add_switch(SwitchRole::Leaf, Some(r));
        b.add_host(r, l, 1, Bandwidth::gbps(50.0));
        b.add_host(r, l, 1, Bandwidth::gbps(50.0));
        let t = b.build();
        let paths = t.ecmp_paths(NicId(0), NicId(1));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hop_count(), 2);
    }

    #[test]
    fn ecmp_route_is_deterministic_and_spreads() {
        let t = two_by_two();
        let a = t.ecmp_route(NicId(0), NicId(1), 1);
        let b = t.ecmp_route(NicId(0), NicId(1), 1);
        assert_eq!(a, b);
        let chosen: std::collections::HashSet<RouteId> = (0..32u64)
            .map(|h| t.ecmp_route(NicId(0), NicId(1), h).id)
            .collect();
        assert_eq!(chosen.len(), 2, "hash never spread across both paths");
    }

    #[test]
    fn pinned_route_selects_exactly() {
        let t = two_by_two();
        let p = t.pinned_route(NicId(0), NicId(1), RouteId(1));
        assert_eq!(p.id, RouteId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pinned_route_rejects_bad_id() {
        let t = two_by_two();
        t.pinned_route(NicId(0), NicId(1), RouteId(99));
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn no_self_route() {
        let t = two_by_two();
        t.ecmp_paths(NicId(0), NicId(0));
    }

    #[test]
    fn cache_returns_same_arc() {
        let t = two_by_two();
        let a = t.ecmp_paths(NicId(0), NicId(1));
        let b = t.ecmp_paths(NicId(0), NicId(1));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn ring_topology_min_hop_only() {
        // 4 switches in a ring; between adjacent switches the 1-hop
        // direction is the unique equal-cost path (the 3-hop way around is
        // longer, so ECMP never uses it).
        let mut b = TopologyBuilder::new();
        let r: Vec<_> = (0..4).map(|_| b.add_rack(PodId(0))).collect();
        let sw: Vec<_> = (0..4)
            .map(|i| b.add_switch(SwitchRole::Generic, Some(r[i])))
            .collect();
        for i in 0..4 {
            b.connect_switches(sw[i], sw[(i + 1) % 4], Bandwidth::gbps(100.0));
        }
        for i in 0..4 {
            b.add_host(r[i], sw[i], 1, Bandwidth::gbps(100.0));
        }
        let t = b.build();
        let paths = t.ecmp_paths(NicId(0), NicId(1));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hop_count(), 3); // up, sw0->sw1, down
                                             // Opposite corners: both directions are 2 switch hops -> 2 paths.
        let paths = t.ecmp_paths(NicId(0), NicId(2));
        assert_eq!(paths.len(), 2);
    }

    impl Topology {
        /// The reference reverse BFS: for each frontier switch, scan every
        /// fabric link for the ones entering it. Quadratic in the fabric,
        /// but free of any adjacency index.
        fn distances_to_scan(&self, goal: SwitchId) -> Vec<u32> {
            let mut dist_to_goal = vec![u32::MAX; self.switches().len()];
            dist_to_goal[goal.index()] = 0;
            let mut frontier = vec![goal];
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for sw in frontier {
                    for link in self.links() {
                        if link.to == Endpoint::Switch(sw) {
                            if let Endpoint::Switch(prev) = link.from {
                                if dist_to_goal[prev.index()] == u32::MAX {
                                    dist_to_goal[prev.index()] = dist_to_goal[sw.index()] + 1;
                                    next.push(prev);
                                }
                            }
                        }
                    }
                }
                frontier = next;
            }
            dist_to_goal
        }
    }

    /// Every ordered NIC pair's indexed route set (routes, order and
    /// `RouteId` numbering) equals the link-scan oracle's.
    fn assert_matches_scan_oracle(t: &Topology) {
        for a in t.nics() {
            for b in t.nics() {
                if a.id == b.id {
                    continue;
                }
                let oracle = t.enumerate_with(a.id, b.id, Topology::distances_to_scan);
                assert_eq!(*t.ecmp_paths(a.id, b.id), oracle, "{} -> {}", a.id, b.id);
            }
        }
    }

    /// A fabric from an explicit switch graph: switch `i` gets its own
    /// rack with `hosts[i]` single-GPU hosts (a switch with none is a
    /// spine), and each edge `(from, to, both_ways)` adds a one-way link
    /// or a bidirectional pair.
    fn fabric(hosts: &[usize], edges: &[(usize, usize, bool)]) -> Topology {
        let mut b = TopologyBuilder::new();
        let bw = Bandwidth::gbps(100.0);
        let sw: Vec<_> = hosts
            .iter()
            .map(|&h| {
                if h == 0 {
                    b.add_switch(SwitchRole::Spine, None)
                } else {
                    let rack = b.add_rack(PodId(0));
                    let leaf = b.add_switch(SwitchRole::Leaf, Some(rack));
                    for _ in 0..h {
                        b.add_host(rack, leaf, 1, bw);
                    }
                    leaf
                }
            })
            .collect();
        for &(from, to, both_ways) in edges {
            if from == to {
                continue;
            }
            if both_ways {
                b.connect_switches(sw[from], sw[to], bw);
            } else {
                b.connect_switches_oneway(sw[from], sw[to], bw);
            }
        }
        b.build()
    }

    #[test]
    fn in_link_index_matches_the_link_scan_on_presets() {
        assert_matches_scan_oracle(&crate::presets::testbed());
        assert_matches_scan_oracle(&crate::presets::switch_ring(
            5,
            2,
            Bandwidth::gbps(100.0),
            Bandwidth::gbps(100.0),
        ));
    }

    mod oracle {
        use super::*;
        use crate::presets::{spine_leaf, SpineLeafConfig};
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn random_spine_leaf_matches_oracle(
                (spines, leaves, hosts_per_leaf, gpus_per_host) in (1usize..5, 1usize..6, 1usize..3, 1usize..3),
            ) {
                assert_matches_scan_oracle(&spine_leaf(&SpineLeafConfig {
                    spines,
                    leaves,
                    hosts_per_leaf,
                    gpus_per_host,
                    nic_bandwidth: Bandwidth::gbps(100.0),
                    leaf_spine_bandwidth: Bandwidth::gbps(200.0),
                }));
            }

            /// A one-way (or two-way) ring through every switch keeps the
            /// fabric strongly connected; random one-way chords and
            /// parallel links make the shortest-path DAG lopsided.
            #[test]
            fn switch_ring_with_one_way_chords_matches_oracle(
                (n, ring_both_ways, chords) in (
                    2usize..9,
                    any::<bool>(),
                    vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..12),
                ),
            ) {
                let mut edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, ring_both_ways)).collect();
                edges.extend(
                    chords
                        .iter()
                        .map(|&(a, b, both)| (a as usize % n, b as usize % n, both)),
                );
                assert_matches_scan_oracle(&fabric(&vec![1; n], &edges));
            }

            /// Leaf 0 reaches every spine; every other leaf a random
            /// non-empty subset (unequal fan-out). On top: one-way
            /// spine-to-spine links and extra one-way leaf-spine links.
            #[test]
            fn unequal_spine_fan_out_matches_oracle(
                (spines, fan_out, extras) in (
                    1usize..5,
                    vec((1usize..3, any::<u32>()), 1..6),
                    vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..8),
                ),
            ) {
                let leaves = fan_out.len() + 1;
                let mut hosts = vec![0; spines];
                hosts.extend(std::iter::once(1).chain(fan_out.iter().map(|&(h, _)| h)));
                let mut edges: Vec<_> = (0..spines).map(|s| (spines, s, true)).collect();
                for (l, &(_, mask)) in fan_out.iter().enumerate() {
                    let mask = (mask as usize % ((1 << spines) - 1)) + 1;
                    edges.extend(
                        (0..spines)
                            .filter(|s| mask & (1 << s) != 0)
                            .map(|s| (spines + 1 + l, s, true)),
                    );
                }
                edges.extend(extras.iter().map(|&(a, b, spine_pair)| {
                    if spine_pair {
                        (a as usize % spines, b as usize % spines, false)
                    } else {
                        (spines + a as usize % leaves, b as usize % spines, false)
                    }
                }));
                assert_matches_scan_oracle(&fabric(&hosts, &edges));
            }
        }
    }
}
