//! The network-owned, edge-aligned neighbour arena.
//!
//! Earlier revisions gave every MAC instance its own `NeighborTable` vec;
//! per-listener reception then hopped through one heap allocation per node
//! (~35 % of the remaining 5 000-node epoch cost was this control plane).
//! The arena flattens all of those rows into **one network-owned array
//! aligned to the topology's CSR edge slots, transmitter-major**: the entry
//! describing what listener `l` knows about neighbour `t` lives at the CSR
//! edge `t → l`, i.e. `Topology::row_start(t) + q` where
//! `neighbors(t)[q] == l`. The MAC's reception pass walks each
//! transmitter's row, so its stores stream through one contiguous run of
//! the array per transmission, each addressed by the edge index the pass
//! already holds ([`NeighborArena::heard_at`]) — no per-event position
//! lookup.
//!
//! ## Views and cursors
//!
//! Readers (the engine's cross-layer tree repair, the MAC's slot selection)
//! go through [`NeighborView`], a typed cursor over one node's row. A row
//! is listener-major: `rev[row_start(l) + p]` is the storage index of
//! `l`'s entry for `neighbors(l)[p]`, so views, removals, row resets and
//! snapshots gather through `rev` and still see neighbours in ascending id
//! order. Snapshots are written in that listener-major order, which keeps
//! `DIRQSNAP` images independent of the storage layout. The aggregate
//! views the MAC reads every slot — 1-hop slot occupancy and the minimum
//! advertised gateway distance — are cached per node and recomputed lazily
//! only when an update could have changed them; in steady state the caches
//! never invalidate.
//!
//! [`NeighborRows`] is the view's cache-free `Sync` counterpart: it borrows
//! only the row and entry arrays, so several threads can read rows through
//! it (the engine's sharded repair scan does).
//!
//! ## Write discipline
//!
//! Every mutation goes through `&mut NeighborArena` on one thread. Each
//! store updates its entry and the listener-indexed bookkeeping (presence
//! count, caches) in the same call, so the arena is consistent after every
//! call.

use std::cell::Cell;

use dirq_net::{NodeId, Topology};
use dirq_sim::snap::{SnapError, SnapReader, SnapWriter};

use crate::slots::SlotSet;

/// What a node knows about one neighbour.
#[derive(Clone, Copy, Debug)]
pub struct NeighborInfo {
    /// Slot the neighbour transmits in (`None` while it is still joining).
    pub slot: Option<u16>,
    /// The neighbour's advertised 1-hop occupied-slot bitmap.
    pub occupied: SlotSet,
    /// The neighbour's advertised hop distance to the gateway
    /// (`u16::MAX` = unknown).
    pub gateway_dist: u16,
    /// Frame number in which the neighbour was last heard.
    pub last_heard_frame: u64,
}

/// Whether `info` is unheard since `frame - max_missed` (exclusive): a
/// candidate for a dead-neighbour upcall at `frame`.
#[inline]
fn is_stale(info: &NeighborInfo, frame: u64, max_missed: u32) -> bool {
    frame.saturating_sub(info.last_heard_frame) > u64::from(max_missed)
}

/// The global neighbour store: one entry per directed CSR edge of the
/// topology, stored at the transmitter's out-edge (see the module docs).
#[derive(Clone, Debug)]
pub struct NeighborArena {
    /// CSR row starts (`row_offsets[u]..row_offsets[u + 1]` indexes the
    /// edge arrays), mirroring the topology's offsets.
    row_offsets: Vec<u32>,
    /// Edge targets (a copy of the CSR target array): `ids[row_start(u) +
    /// p] == neighbors(u)[p]`. Read along a listener's row it names the
    /// neighbours its view reports; read at a storage index it names the
    /// listener owning that entry.
    ids: Vec<NodeId>,
    /// Listener-row index → storage index: `rev[row_start(l) + p]` is the
    /// CSR edge `t → l` for `t = neighbors(l)[p]`.
    rev: Vec<u32>,
    /// Per-edge neighbour knowledge (`None` = not known), in storage
    /// (transmitter-major) order. `Option` packs into the spare values of
    /// `NeighborInfo::slot`, so an entry stays 32 bytes.
    entries: Vec<Option<NeighborInfo>>,
    /// Per-node count of present entries.
    present: Vec<u32>,
    /// Per-node cached 1-hop occupancy (`None` = dirty).
    occ_cache: Vec<Cell<Option<SlotSet>>>,
    /// Per-node cached minimum advertised gateway distance (`None` =
    /// dirty).
    gw_cache: Vec<Cell<Option<u16>>>,
}

impl NeighborArena {
    /// Empty arena (every row vacant) over `topo`'s edge set.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.len();
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut ids = Vec::with_capacity(2 * topo.link_count());
        let mut rev = Vec::with_capacity(2 * topo.link_count());
        row_offsets.push(0u32);
        for i in 0..n {
            let l = NodeId::from_index(i);
            let row = topo.neighbors(l);
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "CSR row must be ascending");
            ids.extend_from_slice(row);
            // Rows are ascending, so each reverse edge is one binary
            // search, once.
            for &t in row {
                let q = topo.neighbors(t).binary_search(&l).expect("undirected edge");
                rev.push((topo.row_start(t) + q) as u32);
            }
            row_offsets.push(ids.len() as u32);
        }
        NeighborArena {
            row_offsets,
            entries: vec![None; ids.len()],
            ids,
            rev,
            present: vec![0; n],
            occ_cache: (0..n).map(|_| Cell::new(None)).collect(),
            gw_cache: (0..n).map(|_| Cell::new(None)).collect(),
        }
    }

    /// Number of node rows.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// Whether the arena has no rows.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Cache-free read view over every row (see [`NeighborRows`]).
    #[inline]
    pub fn rows(&self) -> NeighborRows<'_> {
        NeighborRows {
            row_offsets: &self.row_offsets,
            ids: &self.ids,
            rev: &self.rev,
            entries: &self.entries,
        }
    }

    /// Mark `listener`'s row caches dirty.
    #[inline]
    fn invalidate(&self, listener: usize) {
        self.occ_cache[listener].set(None);
        self.gw_cache[listener].set(None);
    }

    /// Typed read view over `node`'s row.
    #[inline]
    pub fn view(&self, node: NodeId) -> NeighborView<'_> {
        NeighborView { arena: self, node }
    }

    /// Forget everything `node`'s row knows (death/rebirth reset).
    pub fn reset_row(&mut self, node: NodeId) {
        let (lo, hi) = self.rows().row_bounds(node);
        for &s in &self.rev[lo..hi] {
            self.entries[s as usize] = None;
        }
        self.present[node.index()] = 0;
        self.invalidate(node.index());
    }

    /// Record `listener` hearing `node` in `frame`; returns `true` when the
    /// neighbour is new to the row (triggering LMAC's new-neighbour
    /// upcall). Resolves the entry by binary search — the cold path; the
    /// reception pass uses [`NeighborArena::heard_at`].
    ///
    /// # Panics
    /// Panics when `node` is not in `listener`'s topology row.
    pub fn heard(
        &mut self,
        listener: NodeId,
        node: NodeId,
        slot: Option<u16>,
        occupied: SlotSet,
        gateway_dist: u16,
        frame: u64,
    ) -> bool {
        let edge = self
            .rows()
            .edge_of(listener, node)
            .unwrap_or_else(|| panic!("{node} is not in {listener}'s topology row"));
        self.heard_at(listener, edge, slot, occupied, gateway_dist, frame)
    }

    /// [`NeighborArena::heard`] addressed by storage index: `edge` is the
    /// CSR edge `t → listener` (`Topology::row_start(t) + q` with
    /// `neighbors(t)[q] == listener`), which a pass over the transmitter's
    /// row holds already.
    #[inline]
    pub(crate) fn heard_at(
        &mut self,
        listener: NodeId,
        edge: usize,
        slot: Option<u16>,
        occupied: SlotSet,
        gateway_dist: u16,
        frame: u64,
    ) -> bool {
        debug_assert_eq!(self.ids[edge], listener, "edge {edge} does not lead to {listener}");
        let li = listener.index();
        let e = &mut self.entries[edge];
        let is_new = match e {
            None => {
                self.present[li] += 1;
                self.occ_cache[li].set(None);
                self.gw_cache[li].set(None);
                true
            }
            Some(old) => {
                if old.slot != slot {
                    self.occ_cache[li].set(None);
                }
                if old.gateway_dist != gateway_dist {
                    self.gw_cache[li].set(None);
                }
                false
            }
        };
        *e = Some(NeighborInfo { slot, occupied, gateway_dist, last_heard_frame: frame });
        is_new
    }

    /// Remove `node` from `listener`'s row; returns whether it was present.
    pub fn remove(&mut self, listener: NodeId, node: NodeId) -> bool {
        let Some(edge) = self.rows().edge_of(listener, node) else {
            return false;
        };
        if self.entries[edge].take().is_none() {
            return false;
        }
        self.present[listener.index()] -= 1;
        self.invalidate(listener.index());
        true
    }

    /// Append `(observer, neighbour)` for every entry unheard since
    /// `frame - max_missed` (exclusive) — the dead-neighbour candidates
    /// of the whole network — in storage order, i.e. grouped by the
    /// silent neighbour. One sequential sweep of the arena.
    pub(crate) fn collect_stale_edges(
        &self,
        frame: u64,
        max_missed: u32,
        out: &mut Vec<(NodeId, NodeId)>,
    ) {
        for (t, w) in self.row_offsets.windows(2).enumerate() {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            for (e, &observer) in self.entries[lo..hi].iter().zip(&self.ids[lo..hi]) {
                if e.as_ref().is_some_and(|info| is_stale(info, frame, max_missed)) {
                    out.push((observer, NodeId::from_index(t)));
                }
            }
        }
    }

    /// Write every edge entry to `w`, in listener-major row order. Row
    /// structure is topology-derived and not serialized; only the dynamic
    /// knowledge is.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.tag(b"ARNA");
        w.len_of(self.entries.len());
        for &s in &self.rev {
            let e = &self.entries[s as usize];
            w.bool(e.is_some());
            if let Some(info) = e {
                w.opt_u16(info.slot);
                w.u128(info.occupied.bits());
                w.u16(info.gateway_dist);
                w.u64(info.last_heard_frame);
            }
        }
    }

    /// Overlay entries captured by [`NeighborArena::snap`] onto this
    /// arena (which must be built over the same topology). Per-row
    /// presence counts are recomputed and all caches marked dirty.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag(b"ARNA")?;
        let pos = r.position();
        let n = r.seq_len(1)?;
        if n != self.entries.len() {
            return Err(SnapError::Malformed { pos, what: "arena edge count mismatch" });
        }
        for &s in &self.rev {
            self.entries[s as usize] = if r.bool()? {
                Some(NeighborInfo {
                    slot: r.opt_u16()?,
                    occupied: SlotSet::from_bits(r.u128()?),
                    gateway_dist: r.u16()?,
                    last_heard_frame: r.u64()?,
                })
            } else {
                None
            };
        }
        for i in 0..self.present.len() {
            let (lo, hi) = (self.row_offsets[i] as usize, self.row_offsets[i + 1] as usize);
            self.present[i] =
                self.rev[lo..hi].iter().filter(|&&s| self.entries[s as usize].is_some()).count()
                    as u32;
            self.invalidate(i);
        }
        Ok(())
    }
}

/// Read-only view over every arena row that borrows only the row and
/// entry arrays, not the per-node `Cell` aggregate caches. It is therefore
/// `Sync`: the engine's sharded repair scan reads neighbour rows from
/// several threads through it. It offers the cache-free lookups only; the
/// cached aggregates stay on [`NeighborView`].
#[derive(Clone, Copy)]
pub struct NeighborRows<'a> {
    row_offsets: &'a [u32],
    ids: &'a [NodeId],
    rev: &'a [u32],
    entries: &'a [Option<NeighborInfo>],
}

impl<'a> NeighborRows<'a> {
    #[inline]
    fn row_bounds(&self, node: NodeId) -> (usize, usize) {
        let i = node.index();
        (self.row_offsets[i] as usize, self.row_offsets[i + 1] as usize)
    }

    /// Storage index of `listener`'s entry for `node` (`None` when the two
    /// are not adjacent).
    fn edge_of(&self, listener: NodeId, node: NodeId) -> Option<usize> {
        let (lo, hi) = self.row_bounds(listener);
        self.ids[lo..hi].binary_search(&node).ok().map(|p| self.rev[lo + p] as usize)
    }

    /// `node`'s known neighbours with their ids, ascending.
    fn present(self, node: NodeId) -> impl Iterator<Item = (&'a NeighborInfo, NodeId)> + 'a {
        let (lo, hi) = self.row_bounds(node);
        let entries = self.entries;
        self.rev[lo..hi]
            .iter()
            .zip(&self.ids[lo..hi])
            .filter_map(move |(&s, &id)| Some((entries[s as usize].as_ref()?, id)))
    }

    /// What `node` knows about `neighbor`.
    pub fn get(&self, node: NodeId, neighbor: NodeId) -> Option<NeighborInfo> {
        self.entries[self.edge_of(node, neighbor)?]
    }

    /// `node`'s known neighbour ids, ascending.
    pub fn nodes(self, node: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.present(node).map(|(_, id)| id)
    }
}

/// Read-only cursor over one node's arena row — the cross-layer view DirQ
/// uses to repair its tree, and the MAC's own slot-selection input.
#[derive(Clone, Copy)]
pub struct NeighborView<'a> {
    arena: &'a NeighborArena,
    node: NodeId,
}

impl<'a> NeighborView<'a> {
    /// The row's known neighbours with their ids, ascending.
    fn present(&self) -> impl Iterator<Item = (&'a NeighborInfo, NodeId)> + 'a {
        self.arena.rows().present(self.node)
    }

    /// Look up a neighbour.
    pub fn get(&self, node: NodeId) -> Option<NeighborInfo> {
        self.arena.rows().get(self.node, node)
    }

    /// All known neighbour ids, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.arena.rows().nodes(self.node)
    }

    /// Number of known neighbours.
    pub fn len(&self) -> usize {
        self.arena.present[self.node.index()] as usize
    }

    /// Whether the row is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbours unheard since `frame - max_missed` (exclusive), i.e.
    /// candidates for a dead-neighbour upcall at `frame`, ascending.
    pub fn stale(&self, frame: u64, max_missed: u32) -> Vec<NodeId> {
        self.present()
            .filter(|(info, _)| is_stale(info, frame, max_missed))
            .map(|(_, id)| id)
            .collect()
    }

    /// Union of all neighbours' slots and advertised occupancies — the
    /// 2-hop occupancy picture used for slot selection.
    pub fn two_hop_occupancy(&self) -> SlotSet {
        let mut s = SlotSet::EMPTY;
        for (info, _) in self.present() {
            if let Some(slot) = info.slot {
                s.insert(slot);
            }
            s.union_with(info.occupied);
        }
        s
    }

    /// Slots owned by direct neighbours only (1-hop occupancy) — what a
    /// node advertises in its own control section. Cached; O(1) in steady
    /// state.
    pub fn one_hop_occupancy(&self) -> SlotSet {
        let cache = &self.arena.occ_cache[self.node.index()];
        if let Some(cached) = cache.get() {
            return cached;
        }
        let mut s = SlotSet::EMPTY;
        for (info, _) in self.present() {
            if let Some(slot) = info.slot {
                s.insert(slot);
            }
        }
        cache.set(Some(s));
        s
    }

    /// Smallest advertised gateway distance among neighbours
    /// (`u16::MAX` when none known). Cached; O(1) in steady state.
    pub fn min_gateway_dist(&self) -> u16 {
        let cache = &self.arena.gw_cache[self.node.index()];
        if let Some(cached) = cache.get() {
            return cached;
        }
        let min = self.present().map(|(info, _)| info.gateway_dist).min().unwrap_or(u16::MAX);
        cache.set(Some(min));
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star topology: node 0 adjacent to 1..n.
    fn star(n: usize) -> Topology {
        let edges: Vec<(NodeId, NodeId)> =
            (1..n).map(|i| (NodeId(0), NodeId::from_index(i))).collect();
        Topology::from_edges(n, &edges)
    }

    #[test]
    fn an_entry_packs_into_32_bytes() {
        assert_eq!(std::mem::size_of::<Option<NeighborInfo>>(), 32);
    }

    #[test]
    fn heard_marks_presence_then_updates() {
        let topo = star(5);
        let mut a = NeighborArena::new(&topo);
        assert!(a.view(NodeId(0)).is_empty());
        assert!(a.view(NodeId(0)).get(NodeId(3)).is_none(), "vacant entries are invisible");
        assert!(a.heard(NodeId(0), NodeId(3), Some(5), SlotSet::EMPTY, 2, 10));
        assert!(!a.heard(NodeId(0), NodeId(3), Some(6), SlotSet::EMPTY, 1, 11));
        let info = a.view(NodeId(0)).get(NodeId(3)).unwrap();
        assert_eq!(info.slot, Some(6));
        assert_eq!(info.gateway_dist, 1);
        assert_eq!(info.last_heard_frame, 11);
        assert_eq!(a.view(NodeId(0)).len(), 1);
        // The leaf's row is untouched.
        assert!(a.view(NodeId(3)).is_empty());
    }

    #[test]
    fn heard_at_is_a_direct_indexed_store() {
        let topo = star(5);
        let mut a = NeighborArena::new(&topo);
        // Node 0 knowing NodeId(3) lives on the edge 3 → 0: leaf 3's row
        // is [0], so the storage index is row_start(3).
        let edge = topo.row_start(NodeId(3));
        assert!(a.heard_at(NodeId(0), edge, Some(4), SlotSet::EMPTY, 2, 0));
        assert!(!a.heard_at(NodeId(0), edge, Some(4), SlotSet::EMPTY, 2, 1));
        assert_eq!(a.view(NodeId(0)).get(NodeId(3)).unwrap().last_heard_frame, 1);
        assert_eq!(a.view(NodeId(0)).nodes().collect::<Vec<_>>(), vec![NodeId(3)]);
        assert!(a.view(NodeId(3)).is_empty(), "the transmitter's own row is untouched");
    }

    /// Chain 0-1-2-3 plus chord 0-2: rows have distinct shapes.
    fn chord_chain() -> Topology {
        Topology::from_edges(
            4,
            &[
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(0), NodeId(2)),
            ],
        )
    }

    #[test]
    fn transmitter_rows_address_every_listener_entry() {
        let topo = chord_chain();
        let mut a = NeighborArena::new(&topo);
        // Store transmitter-major, tagging each entry with its transmitter.
        for t in topo.nodes() {
            for (q, &l) in topo.neighbors(t).iter().enumerate() {
                let slot = Some(t.index() as u16);
                assert!(a.heard_at(l, topo.row_start(t) + q, slot, SlotSet::EMPTY, 7, 1));
            }
        }
        // Listener-major views see every neighbour, ascending, each
        // carrying that neighbour's own tag.
        for l in topo.nodes() {
            let v = a.view(l);
            assert_eq!(v.len(), topo.degree(l));
            assert_eq!(v.nodes().collect::<Vec<_>>(), topo.neighbors(l));
            for &t in topo.neighbors(l) {
                assert_eq!(v.get(t).unwrap().slot, Some(t.index() as u16));
            }
        }
        // The cache-free row view is `Sync`: another thread reads the same
        // rows through it.
        let rows = a.rows();
        std::thread::scope(|s| {
            s.spawn(|| {
                for l in topo.nodes() {
                    assert_eq!(rows.nodes(l).collect::<Vec<_>>(), topo.neighbors(l));
                    for &t in topo.neighbors(l) {
                        assert_eq!(rows.get(l, t).unwrap().slot, Some(t.index() as u16));
                    }
                }
            });
        });
    }

    #[test]
    fn snap_restore_round_trips_every_view() {
        let topo = chord_chain();
        let mut a = NeighborArena::new(&topo);
        for l in topo.nodes() {
            for &t in topo.neighbors(l) {
                let (li, ti) = (l.index() as u16, t.index() as u16);
                let slot = (ti != 3).then_some(ti);
                let occupied: SlotSet = [li + 8, ti + 16].into_iter().collect();
                a.heard(l, t, slot, occupied, 10 * li + ti, u64::from(li + ti));
            }
        }
        assert!(a.remove(NodeId(2), NodeId(1)));
        a.reset_row(NodeId(3));
        let mut w = SnapWriter::new();
        a.snap(&mut w);
        let image = w.finish();

        let mut b = NeighborArena::new(&topo);
        b.restore(&mut SnapReader::new(&image)).unwrap();
        for l in topo.nodes() {
            let (va, vb) = (a.view(l), b.view(l));
            assert_eq!(vb.nodes().collect::<Vec<_>>(), va.nodes().collect::<Vec<_>>());
            assert_eq!(vb.len(), va.len());
            for &t in topo.neighbors(l) {
                assert_eq!(format!("{:?}", vb.get(t)), format!("{:?}", va.get(t)), "{l} -> {t}");
            }
            assert_eq!(vb.one_hop_occupancy(), va.one_hop_occupancy());
            assert_eq!(vb.two_hop_occupancy(), va.two_hop_occupancy());
            assert_eq!(vb.min_gateway_dist(), va.min_gateway_dist());
        }
        let mut w = SnapWriter::new();
        b.snap(&mut w);
        assert_eq!(w.finish(), image, "a restored arena snaps to the same image");
    }

    #[test]
    fn remove_and_reset_row() {
        let topo = star(4);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(0), NodeId(1), Some(0), SlotSet::EMPTY, 4, 0);
        a.heard(NodeId(0), NodeId(2), Some(1), SlotSet::EMPTY, 2, 0);
        assert_eq!(a.view(NodeId(0)).min_gateway_dist(), 2);
        assert!(a.remove(NodeId(0), NodeId(2)));
        assert!(!a.remove(NodeId(0), NodeId(2)), "vacated entries are not present");
        assert_eq!(a.view(NodeId(0)).min_gateway_dist(), 4);
        a.reset_row(NodeId(0));
        assert!(a.view(NodeId(0)).is_empty());
        assert_eq!(a.view(NodeId(0)).min_gateway_dist(), u16::MAX);
    }

    #[test]
    fn staleness_detection() {
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(0), NodeId(1), Some(0), SlotSet::EMPTY, 1, 10);
        a.heard(NodeId(0), NodeId(2), Some(1), SlotSet::EMPTY, 1, 14);
        // max_missed = 3: stale iff frame - last_heard > 3.
        assert_eq!(a.view(NodeId(0)).stale(14, 3), vec![NodeId(1)]);
        assert!(a.view(NodeId(0)).stale(13, 3).is_empty());
        assert_eq!(a.view(NodeId(0)).stale(100, 3), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn occupancy_union_and_caches() {
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(0), NodeId(1), Some(2), [4u16].into_iter().collect(), 1, 0);
        a.heard(NodeId(0), NodeId(2), Some(3), [5u16].into_iter().collect(), 1, 0);
        let v = a.view(NodeId(0));
        assert_eq!(v.one_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(v.two_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        // A same-slot re-advertisement keeps the cache; a slot change
        // invalidates it.
        a.heard(NodeId(0), NodeId(1), Some(2), SlotSet::EMPTY, 1, 1);
        assert_eq!(a.view(NodeId(0)).one_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3]);
        a.heard(NodeId(0), NodeId(1), Some(7), SlotSet::EMPTY, 1, 2);
        assert_eq!(a.view(NodeId(0)).one_hop_occupancy().iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn joining_neighbour_without_slot() {
        let topo = star(2);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(0), NodeId(1), None, SlotSet::EMPTY, u16::MAX, 0);
        assert!(a.view(NodeId(0)).one_hop_occupancy().is_empty());
        assert_eq!(a.view(NodeId(0)).min_gateway_dist(), u16::MAX);
        assert_eq!(a.view(NodeId(0)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "topology row")]
    fn off_row_neighbour_rejected() {
        // 1 and 2 are not adjacent in a star: hearing across a non-edge is
        // a bug in the caller.
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(1), NodeId(2), None, SlotSet::EMPTY, 0, 0);
    }
}
