//! The connectivity graph.
//!
//! A [`Topology`] is the immutable radio graph computed once at deployment:
//! node positions plus a symmetric adjacency structure. Runtime liveness
//! (deaths/births) is layered on top by the MAC and protocol engines — the
//! graph itself records every node that will ever exist.
//!
//! ## Layout
//!
//! Adjacency is stored in **CSR form** (`offsets`/`targets`): neighbour
//! lookup is a single slice over one contiguous array, so the per-slot MAC
//! loops walk memory linearly instead of chasing one heap allocation per
//! node. Link membership additionally keeps a dense bit matrix for graphs
//! up to [`DENSE_LINK_MAX_NODES`] nodes, making [`Topology::has_link`] a
//! single bit test on every deployment size the paper's experiments use
//! (and far beyond); larger graphs fall back to binary search over the CSR
//! row.

use dirq_sim::SimRng;

use crate::geometry::Position;
use crate::ids::NodeId;
use crate::placement::{Placement, SinkPlacement};
use crate::radio::RadioModel;

/// Largest node count for which a dense link bit-matrix is kept
/// (`n²` bits — 2 MiB at 4096 nodes).
pub const DENSE_LINK_MAX_NODES: usize = 4096;

/// An immutable radio connectivity graph in CSR layout.
#[derive(Clone, Debug)]
pub struct Topology {
    positions: Vec<Position>,
    /// CSR row starts; `offsets[i]..offsets[i + 1]` indexes `targets`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbour lists.
    targets: Vec<NodeId>,
    /// Row-major adjacency bit matrix (`words_per_row` words per node);
    /// empty when `len() > DENSE_LINK_MAX_NODES`.
    link_bits: Vec<u64>,
    words_per_row: usize,
    link_count: usize,
}

impl Topology {
    /// Build the graph implied by `positions` under `radio`.
    pub fn from_positions<R: RadioModel>(positions: Vec<Position>, radio: &R) -> Self {
        let edges = Topology::geometric_edges(&positions, radio);
        Topology::build(positions, &edges, false)
    }

    /// Build the graph implied by `positions` under `radio`, plus explicit
    /// `backbone` links that exist regardless of radio reach — the wired
    /// (or long-range) connections of a multi-sink deployment's sink
    /// backhaul. Backbone pairs already connected by radio are ignored.
    pub fn from_positions_with_backbone<R: RadioModel>(
        positions: Vec<Position>,
        radio: &R,
        backbone: &[(NodeId, NodeId)],
    ) -> Self {
        let n = positions.len();
        let mut edges = Topology::geometric_edges(&positions, radio);
        for &(a, b) in backbone {
            assert!(a.index() < n && b.index() < n, "backbone endpoint out of range");
            assert_ne!(a, b, "backbone self-loops are not allowed");
            let e = if a < b { (a, b) } else { (b, a) };
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
        Topology::build(positions, &edges, false)
    }

    /// The undirected edges `radio` induces over `positions` (`i < j`).
    fn geometric_edges<R: RadioModel>(positions: &[Position], radio: &R) -> Vec<(NodeId, NodeId)> {
        let n = positions.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if radio.connected(i, &positions[i], j, &positions[j]) {
                    edges.push((NodeId::from_index(i), NodeId::from_index(j)));
                }
            }
        }
        edges
    }

    /// Deploy `n` nodes with `placement`/`sink`, retrying fresh placements
    /// until the graph is connected (up to `max_attempts`).
    ///
    /// Returns `None` when no connected deployment was found — callers
    /// should increase density or range rather than loop further.
    pub fn deploy_connected<R: RadioModel>(
        n: usize,
        placement: &Placement,
        sink: SinkPlacement,
        radio: &R,
        rng: &mut SimRng,
        max_attempts: usize,
    ) -> Option<Self> {
        for _ in 0..max_attempts {
            let positions = placement.generate(n, sink, rng);
            let topo = Topology::from_positions(positions, radio);
            if topo.is_connected() {
                return Some(topo);
            }
        }
        None
    }

    /// Deploy a **multi-sink** network: like [`Topology::deploy_connected`],
    /// but nodes `1..=extra_sinks` are repositioned onto deterministic
    /// spread sites ([`crate::placement::extra_sink_sites`]) and wired to
    /// the primary sink by backbone links. Every node then reaches *some*
    /// sink over radio, and the augmented graph's BFS tree attaches each
    /// node under its nearest sink.
    pub fn deploy_connected_multi_sink<R: RadioModel>(
        n: usize,
        placement: &Placement,
        sink: SinkPlacement,
        radio: &R,
        rng: &mut SimRng,
        max_attempts: usize,
        extra_sinks: usize,
    ) -> Option<Self> {
        assert!(extra_sinks + 1 < n, "need at least one non-sink node");
        let sites = crate::placement::extra_sink_sites(placement.bounds(), extra_sinks);
        let backbone: Vec<(NodeId, NodeId)> =
            (1..=extra_sinks).map(|i| (NodeId::ROOT, NodeId::from_index(i))).collect();
        for _ in 0..max_attempts {
            let mut positions = placement.generate(n, sink, rng);
            positions[1..=extra_sinks].copy_from_slice(&sites);
            let topo = Topology::from_positions_with_backbone(positions, radio, &backbone);
            if topo.is_connected() {
                return Some(topo);
            }
        }
        None
    }

    /// Build directly from an explicit edge list (used for synthetic exact
    /// trees and tests). Positions are laid out on a line; they carry no
    /// meaning for such graphs.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        for &(a, b) in edges {
            assert!(a.index() < n && b.index() < n, "edge endpoint out of range");
            assert_ne!(a, b, "self-loops are not allowed");
        }
        let positions = (0..n).map(|i| Position::new(i as f64, 0.0)).collect();
        Topology::build(positions, edges, true)
    }

    /// CSR construction from an undirected edge list. `check_duplicates`
    /// rejects repeated edges (explicit edge lists must be clean; the
    /// geometric builder cannot produce duplicates).
    fn build(positions: Vec<Position>, edges: &[(NodeId, NodeId)], check_duplicates: bool) -> Self {
        let n = positions.len();

        // Degree count, then prefix-sum into row offsets.
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in edges {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        // Fill rows, then sort each row in place.
        let mut targets = vec![NodeId(0); edges.len() * 2];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(a, b) in edges {
            targets[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
            targets[cursor[b.index()] as usize] = a;
            cursor[b.index()] += 1;
        }
        for i in 0..n {
            let row = &mut targets[offsets[i] as usize..offsets[i + 1] as usize];
            row.sort_unstable();
            if check_duplicates {
                assert!(row.windows(2).all(|w| w[0] != w[1]), "duplicate edge in edge list");
            }
        }

        // Dense membership matrix for O(1) has_link on practical sizes.
        let (words_per_row, link_bits) = if n <= DENSE_LINK_MAX_NODES {
            let wpr = n.div_ceil(64).max(1);
            let mut bits = vec![0u64; wpr * n];
            for &(a, b) in edges {
                let (ai, bi) = (a.index(), b.index());
                bits[ai * wpr + bi / 64] |= 1 << (bi % 64);
                bits[bi * wpr + ai / 64] |= 1 << (ai % 64);
            }
            (wpr, bits)
        } else {
            (0, Vec::new())
        };

        Topology { positions, offsets, targets, link_bits, words_per_row, link_count: edges.len() }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Position of `node`.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// All positions, indexed by node.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Sorted neighbours of `node` — a contiguous CSR slice.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Start of `node`'s row in the global CSR target array: edge slot
    /// `row_start(u) + p` holds `neighbors(u)[p]`. Lets callers keep
    /// edge-aligned side tables (e.g. the MAC's neighbour arena).
    #[inline]
    pub fn row_start(&self, node: NodeId) -> usize {
        self.offsets[node.index()] as usize
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Maximum degree over all nodes (useful for pre-sizing MAC buffers).
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|i| (self.offsets[i + 1] - self.offsets[i]) as usize).max().unwrap_or(0)
    }

    /// Whether an undirected link `a`–`b` exists.
    #[inline]
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        if self.words_per_row > 0 {
            let bi = b.index();
            self.link_bits[a.index() * self.words_per_row + bi / 64] & (1 << (bi % 64)) != 0
        } else {
            self.neighbors(a).binary_search(&b).is_ok()
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId::from_index)
    }

    /// Nodes reachable from `start` (including `start`), via BFS, visiting
    /// only nodes for which `passable` returns true.
    pub fn reachable_from(&self, start: NodeId, passable: impl Fn(NodeId) -> bool) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        if !passable(start) {
            return seen;
        }
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] && passable(v) {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// Whether every node is reachable from the root.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.reachable_from(NodeId::ROOT, |_| true).iter().all(|&r| r)
    }

    /// BFS hop distance from `start` to every node (`u32::MAX` where
    /// unreachable), visiting only `passable` nodes.
    pub fn hop_distances(&self, start: NodeId, passable: impl Fn(NodeId) -> bool) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        if !passable(start) {
            return dist;
        }
        let mut queue = std::collections::VecDeque::new();
        dist[start.index()] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if dist[v.index()] == u32::MAX && passable(v) {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::UnitDisk;
    use dirq_sim::RngFactory;

    fn line(n: usize) -> Topology {
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).map(|i| (NodeId::from_index(i), NodeId::from_index(i + 1))).collect();
        Topology::from_edges(n, &edges)
    }

    #[test]
    fn from_positions_symmetric_adjacency() {
        let positions =
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(100.0, 0.0)];
        let t = Topology::from_positions(positions, &UnitDisk::new(10.0));
        assert_eq!(t.link_count(), 1);
        assert!(t.has_link(NodeId(0), NodeId(1)));
        assert!(t.has_link(NodeId(1), NodeId(0)));
        assert!(!t.has_link(NodeId(0), NodeId(2)));
        assert_eq!(t.degree(NodeId(2)), 0);
        assert!(!t.is_connected());
    }

    #[test]
    fn line_graph_metrics() {
        let t = line(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.link_count(), 4);
        assert!(t.is_connected());
        let d = t.hop_distances(NodeId(0), |_| true);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn csr_rows_are_sorted_and_symmetric() {
        let t = Topology::from_edges(
            5,
            &[
                (NodeId(4), NodeId(0)),
                (NodeId(2), NodeId(0)),
                (NodeId(0), NodeId(1)),
                (NodeId(3), NodeId(2)),
            ],
        );
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(t.neighbors(NodeId(2)), &[NodeId(0), NodeId(3)]);
        assert_eq!(t.max_degree(), 3);
        for a in t.nodes() {
            for &b in t.neighbors(a) {
                assert!(t.has_link(a, b) && t.has_link(b, a));
            }
        }
    }

    #[test]
    fn has_link_agrees_with_neighbor_lists() {
        let mut rng = RngFactory::new(77).stream("csr");
        let t = Topology::deploy_connected(
            40,
            &Placement::UniformRandom { side: 100.0 },
            SinkPlacement::Corner,
            &UnitDisk::new(30.0),
            &mut rng,
            100,
        )
        .unwrap();
        for a in t.nodes() {
            for b in t.nodes() {
                assert_eq!(
                    t.has_link(a, b),
                    t.neighbors(a).binary_search(&b).is_ok(),
                    "bit matrix and CSR disagree on {a}-{b}"
                );
            }
        }
    }

    #[test]
    fn reachability_respects_passability() {
        let t = line(5);
        // Node 2 impassable cuts the line.
        let seen = t.reachable_from(NodeId(0), |n| n != NodeId(2));
        assert_eq!(seen, vec![true, true, false, false, false]);
        let d = t.hop_distances(NodeId(0), |n| n != NodeId(2));
        assert_eq!(d[4], u32::MAX);
    }

    #[test]
    fn deploy_connected_finds_dense_network() {
        let mut rng = RngFactory::new(11).stream("deploy");
        let t = Topology::deploy_connected(
            50,
            &Placement::UniformRandom { side: 100.0 },
            SinkPlacement::Corner,
            &UnitDisk::new(25.0),
            &mut rng,
            100,
        )
        .expect("a 50-node/25m/100m network should connect within 100 tries");
        assert!(t.is_connected());
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn deploy_connected_gives_up_on_sparse_network() {
        let mut rng = RngFactory::new(11).stream("deploy-sparse");
        let t = Topology::deploy_connected(
            50,
            &Placement::UniformRandom { side: 1000.0 },
            SinkPlacement::Corner,
            &UnitDisk::new(5.0),
            &mut rng,
            5,
        );
        assert!(t.is_none());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let _ = Topology::from_edges(2, &[(NodeId(0), NodeId(0))]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let _ = Topology::from_edges(2, &[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]);
    }

    #[test]
    fn empty_graph_is_connected() {
        let t = Topology::from_edges(0, &[]);
        assert!(t.is_connected());
        assert!(t.is_empty());
    }

    /// Ring + long chords, defined purely by index arithmetic so the edge
    /// set among the first `k` nodes is identical for every graph size
    /// ≥ `k` (enabling dense-vs-sparse parity checks across the
    /// [`DENSE_LINK_MAX_NODES`] boundary without O(n²) geometry).
    fn chord_edges(n: usize) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for i in 0..n {
            if i + 1 < n {
                edges.push((NodeId::from_index(i), NodeId::from_index(i + 1)));
            }
            if i + 97 < n {
                edges.push((NodeId::from_index(i), NodeId::from_index(i + 97)));
            }
        }
        edges
    }

    #[test]
    fn sparse_fallback_above_dense_limit() {
        let big = DENSE_LINK_MAX_NODES + 104; // 4200: CSR binary-search path
        let small = DENSE_LINK_MAX_NODES; // 4096: dense bit-matrix path
        let t_sparse = Topology::from_edges(big, &chord_edges(big));
        let t_dense = Topology::from_edges(small, &chord_edges(small));

        // Every edge among the first `small` nodes exists in both graphs;
        // the two membership implementations must agree on all of them,
        // and on a deterministic sample of non-edges.
        for (a, b) in chord_edges(small) {
            assert!(t_sparse.has_link(a, b) && t_sparse.has_link(b, a));
            assert_eq!(t_sparse.has_link(a, b), t_dense.has_link(a, b), "{a}-{b}");
        }
        let mut x: u64 = 0x243F6A8885A308D3;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = NodeId::from_index((x >> 33) as usize % small);
            let b = NodeId::from_index((x >> 11) as usize % small);
            if a == b {
                continue;
            }
            assert_eq!(
                t_sparse.has_link(a, b),
                t_dense.has_link(a, b),
                "dense and sparse membership disagree on {a}-{b}"
            );
            assert_eq!(
                t_sparse.has_link(a, b),
                t_sparse.neighbors(a).binary_search(&b).is_ok(),
                "sparse has_link inconsistent with its own CSR row at {a}-{b}"
            );
        }
    }

    #[test]
    fn backbone_links_exist_regardless_of_radio_reach() {
        let positions =
            vec![Position::new(0.0, 0.0), Position::new(500.0, 0.0), Position::new(5.0, 0.0)];
        let t = Topology::from_positions_with_backbone(
            positions,
            &UnitDisk::new(10.0),
            &[(NodeId(0), NodeId(1))],
        );
        assert!(t.has_link(NodeId(0), NodeId(1)), "backbone link must exist");
        assert!(t.has_link(NodeId(0), NodeId(2)), "radio link preserved");
        assert!(!t.has_link(NodeId(1), NodeId(2)));
        // A backbone pair already in radio reach is not duplicated.
        let positions = vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)];
        let t = Topology::from_positions_with_backbone(
            positions,
            &UnitDisk::new(10.0),
            &[(NodeId(1), NodeId(0))],
        );
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn multi_sink_deployment_pins_sites_and_connects() {
        let mut rng = RngFactory::new(9).stream("multi-sink");
        let placement = Placement::UniformRandom { side: 200.0 };
        let t = Topology::deploy_connected_multi_sink(
            80,
            &placement,
            SinkPlacement::Corner,
            &UnitDisk::new(40.0),
            &mut rng,
            200,
            3,
        )
        .expect("multi-sink deployment should connect");
        assert!(t.is_connected());
        // Extra sinks sit on the deterministic sites, wired to the root.
        let sites = crate::placement::extra_sink_sites((200.0, 200.0), 3);
        for (i, &site) in sites.iter().enumerate() {
            let sink = NodeId::from_index(i + 1);
            assert_eq!(t.position(sink), site);
            assert!(t.has_link(NodeId::ROOT, sink), "backbone to {sink} missing");
        }
        // Nearest-sink attachment: hop distances in the augmented graph
        // are never worse than radio-only distances from the root.
        let multi = t.hop_distances(NodeId::ROOT, |_| true);
        assert!(multi.iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn large_graph_neighbor_slices_stay_sorted_and_symmetric() {
        let n = DENSE_LINK_MAX_NODES + 104;
        let t = Topology::from_edges(n, &chord_edges(n));
        assert_eq!(t.len(), n);
        assert!(t.is_connected());
        let mut degree_sum = 0;
        for a in t.nodes() {
            let row = t.neighbors(a);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {a} not strictly sorted");
            assert_eq!(row.len(), t.degree(a));
            degree_sum += row.len();
            for &b in row {
                assert!(t.neighbors(b).binary_search(&a).is_ok(), "asymmetric link {a}-{b}");
            }
        }
        assert_eq!(degree_sum, 2 * t.link_count());
        // Hop distances stay exact on the fallback path: node i sits
        // (roughly) i/97 chord hops from the root.
        let d = t.hop_distances(NodeId::ROOT, |_| true);
        assert_eq!(d[97], 1);
        assert_eq!(d[2 * 97], 2);
        assert_eq!(d[1], 1);
    }
}
