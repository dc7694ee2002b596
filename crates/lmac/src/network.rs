//! The slot-synchronous LMAC state machine.
//!
//! [`LmacNetwork`] simulates one MAC instance per node over a shared radio
//! graph. The upper layer (DirQ, flooding) drives it one slot at a time and
//! consumes the resulting [`MacIndication`] stream. See the crate docs for
//! the modelling notes.
//!
//! ## Hot-path layout
//!
//! One slot is the innermost loop of every experiment (20 000 epochs ×
//! `slots_per_frame` slots per run), so it is engineered for zero
//! steady-state allocations:
//!
//! * queued payloads are interned once into a [`PayloadHandle`] and shared
//!   by every per-receiver indication instead of cloned;
//! * per-slot working state (transmitter set, listener set, collision set,
//!   audible list, per-transmitter records) lives in a persistent
//!   [`FrameScratch`] of flat vectors and [`NodeBits`] bitsets, reused
//!   across slots;
//! * membership tests (is transmitting? has collided?) are O(1) bit tests
//!   rather than linear `Vec::contains` scans;
//! * audibility is resolved from the transmitters' side: one pass over each
//!   transmitter's CSR row tags every alive, non-transmitting neighbour in
//!   a node→transmission index (`audible_tx`) with the one transmitter it
//!   hears, or a collided sentinel when it hears two (join transients) —
//!   no listeners × transmitters link-matrix scan;
//! * neighbour knowledge is network-owned in a **transmitter-major
//!   [`NeighborArena`]**: "`l` knows `t`" lives at the CSR edge `t → l`
//!   (`Topology::row_start(t) + q`), so the reception pass walks each
//!   transmitter's row a second time and streams the arena stores, the
//!   control rx tallies and new-neighbour detection through contiguous
//!   memory, with no per-reception position lookup;
//! * upcalls keep ascending listener order without a listener-order loop:
//!   the reception pass marks only listeners that have one (a new
//!   neighbour, or a transmitter carrying data) in a bitset, and a sparse
//!   pass over it emits `NeighborNew`/`Delivered` in id order;
//! * the frame boundary sweeps the arena once in storage order for stale
//!   entries and sorts the (observer, dead) pairs it finds, so
//!   `NeighborDied` upcalls keep their ascending order;
//! * the slot-occupancy index (`slot_owners` + the per-slot alive check)
//!   short-circuits slots nobody owns: an empty slot advances the clock
//!   without touching the scratch buffers at all;
//! * callers that want full reuse drive [`LmacNetwork::advance_slot_into`]
//!   with a long-lived output buffer ([`LmacNetwork::advance_slot`] remains
//!   as a convenience wrapper).
//!
//! [`LmacNetwork::advance_slot_full_scan_into`] keeps the pre-index
//! reference semantics (process empty slots; visit listeners in id order,
//! each scanning every transmitter, storing by id) for the differential
//! property tests; both paths must produce identical indication streams,
//! statistics and ledgers.

use std::collections::VecDeque;

use dirq_net::{EnergyLedger, NodeBits, NodeId, Topology};
use dirq_sim::snap::{SnapError, SnapReader, SnapWriter};
use dirq_sim::SimRng;
use rand::Rng;

use crate::config::LmacConfig;
use crate::indication::{Destination, MacIndication, PayloadHandle};
use crate::neighbor::{NeighborArena, NeighborRows, NeighborView};
use crate::slots::SlotSet;

/// Aggregate MAC statistics for a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MacStats {
    /// Data messages delivered to an intended receiver.
    pub delivered: u64,
    /// Data messages that could not reach an intended receiver.
    pub undeliverable: u64,
    /// Slot collisions observed by listeners (join transients).
    pub collisions: u64,
    /// Slots given up after a collision.
    pub slots_surrendered: u64,
    /// Successful slot selections.
    pub slots_picked: u64,
    /// Frames in which a node found no free slot to pick.
    pub no_free_slot: u64,
    /// Dead-neighbour upcalls raised.
    pub deaths_detected: u64,
    /// New-neighbour upcalls raised.
    pub new_neighbors_detected: u64,
}

/// Per-node MAC state. Neighbour knowledge does **not** live here — it is
/// network-owned, in the edge-aligned [`NeighborArena`].
struct MacNode<P> {
    alive: bool,
    my_slot: Option<u16>,
    listen_remaining: u32,
    tx_queue: VecDeque<(Destination, PayloadHandle<P>)>,
}

impl<P> MacNode<P> {
    fn offline() -> Self {
        MacNode { alive: false, my_slot: None, listen_remaining: 0, tx_queue: VecDeque::new() }
    }
}

/// `FrameScratch::audible_tx` sentinel: no transmitter audible (or the
/// entry was consumed).
const AUDIBLE_NONE: u32 = u32::MAX;
/// `FrameScratch::audible_tx` sentinel: two or more transmitters audible.
const AUDIBLE_COLLIDED: u32 = u32::MAX - 1;
/// `FrameScratch::audible_tx` tag on a tx index: the transmitter is new to
/// the listener's row.
const NEW_NEIGHBOR: u32 = 1 << 31;

/// One transmission within the current slot; its data messages live in
/// `FrameScratch::tx_data[data_start..data_end]`.
struct TxRecord {
    from: NodeId,
    occupied: SlotSet,
    gateway_dist: u16,
    data_start: u32,
    data_end: u32,
}

/// Persistent per-slot working state (see the module docs).
struct FrameScratch<P> {
    /// This slot's alive transmitters.
    tx_mark: NodeBits,
    txs: Vec<TxRecord>,
    /// Flat storage for all data messages sent in this slot.
    tx_data: Vec<(Destination, PayloadHandle<P>)>,
    /// Fast path: listeners with an upcall this slot, plus collided
    /// listeners (the upcall pass counts and clears them). Reference
    /// path: every listener. Iterated in ascending id order.
    listener_mark: NodeBits,
    /// Transmitters that must surrender their slot after a collision.
    collided_mark: NodeBits,
    /// Reference path: indices into `txs` audible at the current listener.
    audible: Vec<u32>,
    /// node → audibility for this slot: `AUDIBLE_NONE`, a tx index
    /// (tagged `NEW_NEIGHBOR` by the reception pass), or
    /// `AUDIBLE_COLLIDED`. Every entry is back to `AUDIBLE_NONE` when the
    /// slot ends, so it is never wiped with an O(n) fill.
    audible_tx: Vec<u32>,
}

impl<P> FrameScratch<P> {
    fn new(topo: &Topology, cfg: &LmacConfig) -> Self {
        let n = topo.len();
        // Concurrent same-slot transmitters are bounded by a 2-hop
        // neighbourhood during join transients; the maximum degree is a
        // safe, topology-derived capacity for every per-slot list.
        let width = topo.max_degree().max(8);
        FrameScratch {
            tx_mark: NodeBits::new(n),
            txs: Vec::with_capacity(width),
            tx_data: Vec::with_capacity(width * cfg.data_messages_per_slot),
            listener_mark: NodeBits::new(n),
            collided_mark: NodeBits::new(n),
            audible: Vec::with_capacity(width),
            audible_tx: vec![AUDIBLE_NONE; n],
        }
    }

    /// Empty scratch (used only while the real one is temporarily moved
    /// out to satisfy the borrow checker).
    fn placeholder() -> Self {
        FrameScratch {
            tx_mark: NodeBits::new(0),
            txs: Vec::new(),
            tx_data: Vec::new(),
            listener_mark: NodeBits::new(0),
            collided_mark: NodeBits::new(0),
            audible: Vec::new(),
            audible_tx: Vec::new(),
        }
    }
}

/// The simulated LMAC network.
///
/// Generic over the upper-layer payload `P`; the MAC never inspects it.
pub struct LmacNetwork<P> {
    cfg: LmacConfig,
    topo: Topology,
    nodes: Vec<MacNode<P>>,
    /// Network-owned neighbour knowledge, stored at `topo`'s CSR edges
    /// transmitter-major (see [`NeighborArena`]).
    arena: NeighborArena,
    /// slot → owners (normally ≤1 per 2-hop area; >1 during joins).
    slot_owners: Vec<Vec<NodeId>>,
    frame: u64,
    slot: u16,
    data_ledger: EnergyLedger,
    control_ledger: EnergyLedger,
    stats: MacStats,
    /// Alive nodes currently without a slot. The frame-boundary join scan
    /// is O(n) over big `MacNode` records; in steady state (everyone
    /// placed) this count short-circuits it entirely.
    unslotted_alive: usize,
    scratch: FrameScratch<P>,
    /// Compact mirror of per-node liveness — the reception loops test
    /// liveness per neighbour per slot, and a bit probe beats pulling a
    /// whole `MacNode` cache line.
    alive_mask: NodeBits,
}

impl<P> LmacNetwork<P> {
    /// Create a network over `topo` with every node alive but no slots
    /// assigned yet; nodes acquire slots through the join protocol. All
    /// per-slot working buffers are pre-sized from the topology.
    pub fn new(cfg: LmacConfig, topo: Topology) -> Self {
        cfg.validate();
        let n = topo.len();
        let mut nodes: Vec<MacNode<P>> = (0..n).map(|_| MacNode::offline()).collect();
        for node in nodes.iter_mut() {
            node.alive = true;
            node.listen_remaining = cfg.listen_frames_before_pick;
        }
        let mut alive_mask = NodeBits::new(n);
        for i in 0..n {
            alive_mask.insert(NodeId::from_index(i));
        }
        LmacNetwork {
            slot_owners: vec![Vec::new(); cfg.slots_per_frame as usize],
            data_ledger: EnergyLedger::new(n),
            control_ledger: EnergyLedger::new(n),
            scratch: FrameScratch::new(&topo, &cfg),
            arena: NeighborArena::new(&topo),
            alive_mask,
            unslotted_alive: n,
            cfg,
            topo,
            nodes,
            frame: 0,
            slot: 0,
            stats: MacStats::default(),
        }
    }

    /// Deterministically pre-assign slots with a greedy 2-hop colouring and
    /// pre-populate neighbour tables, skipping the join transient. This is
    /// the steady state the paper's experiments start from.
    ///
    /// # Panics
    /// Panics if `slots_per_frame` is too small for some 2-hop
    /// neighbourhood.
    pub fn assign_slots_greedy(&mut self) {
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            if !self.nodes[i].alive {
                continue;
            }
            let mut forbidden = SlotSet::EMPTY;
            for &nb in self.topo.neighbors(node) {
                if let Some(s) = self.nodes[nb.index()].my_slot {
                    forbidden.insert(s);
                }
                for &nb2 in self.topo.neighbors(nb) {
                    if nb2 != node {
                        if let Some(s) = self.nodes[nb2.index()].my_slot {
                            forbidden.insert(s);
                        }
                    }
                }
            }
            let free = forbidden.free_slots(self.cfg.slots_per_frame);
            let slot = *free.first().unwrap_or_else(|| {
                panic!(
                    "no free slot for {node}: {} slots/frame too few for its 2-hop degree",
                    self.cfg.slots_per_frame
                )
            });
            self.nodes[i].my_slot = Some(slot);
            self.nodes[i].listen_remaining = 0;
            self.unslotted_alive -= 1;
            self.slot_owners[slot as usize].push(node);
        }
        // Pre-populate neighbour tables as if a full frame had elapsed.
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            if !self.nodes[i].alive {
                continue;
            }
            for &nb in self.topo.neighbors(node) {
                if self.nodes[nb.index()].alive {
                    let slot = self.nodes[nb.index()].my_slot;
                    self.arena.heard(node, nb, slot, SlotSet::EMPTY, u16::MAX, self.frame);
                }
            }
        }
        // Gateway distances settle within a few frames of real traffic; seed
        // them from graph hop counts, which is what LMAC converges to.
        let hops = self.topo.hop_distances(NodeId::ROOT, |n| self.nodes[n.index()].alive);
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            if !self.nodes[i].alive {
                continue;
            }
            for &nb in self.topo.neighbors(node) {
                if self.nodes[nb.index()].alive {
                    let d = hops[nb.index()];
                    let d16 =
                        if d == u32::MAX { u16::MAX } else { d.min(u16::MAX as u32 - 1) as u16 };
                    let slot = self.nodes[nb.index()].my_slot;
                    self.arena.heard(node, nb, slot, SlotSet::EMPTY, d16, self.frame);
                }
            }
        }
    }

    /// The radio graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Configuration in use.
    pub fn config(&self) -> &LmacConfig {
        &self.cfg
    }

    /// Current frame number.
    pub fn current_frame(&self) -> u64 {
        self.frame
    }

    /// Current slot within the frame.
    pub fn current_slot(&self) -> u16 {
        self.slot
    }

    /// Whether `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.index()].alive
    }

    /// Slot owned by `node`, if it has converged.
    pub fn slot_of(&self, node: NodeId) -> Option<u16> {
        self.nodes[node.index()].my_slot
    }

    /// The node's MAC neighbour view (cross-layer read access — this is
    /// the information DirQ uses to repair its tree).
    pub fn neighbor_table(&self, node: NodeId) -> NeighborView<'_> {
        self.arena.view(node)
    }

    /// Every node's neighbour row through the cache-free `Sync` view (see
    /// [`NeighborRows`]), for readers on several threads.
    pub fn neighbor_rows(&self) -> NeighborRows<'_> {
        self.arena.rows()
    }

    /// Hop distance to the gateway as the MAC currently believes it
    /// (root = 0; `u16::MAX` when unknown).
    pub fn gateway_distance(&self, node: NodeId) -> u16 {
        if node.is_root() {
            0
        } else {
            self.arena.view(node).min_gateway_dist().saturating_add(1)
        }
    }

    /// Paper-comparable data-message energy ledger.
    pub fn data_ledger(&self) -> &EnergyLedger {
        &self.data_ledger
    }

    /// Mutable access (for per-phase resets in experiments).
    pub fn data_ledger_mut(&mut self) -> &mut EnergyLedger {
        &mut self.data_ledger
    }

    /// LMAC's own control-traffic ledger (excluded from the paper's cost
    /// comparison; identical for DirQ and flooding).
    pub fn control_ledger(&self) -> &EnergyLedger {
        &self.control_ledger
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &MacStats {
        &self.stats
    }

    /// Number of messages waiting in `node`'s transmit queue.
    pub fn queue_len(&self, node: NodeId) -> usize {
        self.nodes[node.index()].tx_queue.len()
    }

    /// Queue a data message for transmission in `from`'s next owned slot.
    /// The payload is interned once; all receiver indications will share
    /// it. Returns `false` (dropping the message) when `from` is dead.
    pub fn enqueue(&mut self, from: NodeId, dest: Destination, payload: P) -> bool {
        self.enqueue_shared(from, dest, PayloadHandle::new(payload))
    }

    /// Queue an already-interned payload (zero-copy re-forwarding: a
    /// rebroadcast can pass the handle it received straight back down).
    pub fn enqueue_shared(
        &mut self,
        from: NodeId,
        dest: Destination,
        payload: PayloadHandle<P>,
    ) -> bool {
        let node = &mut self.nodes[from.index()];
        if !node.alive {
            return false;
        }
        node.tx_queue.push_back((dest, payload));
        true
    }

    /// Kill or revive a node. Death silences it immediately (neighbours
    /// detect the silence via the liveness timeout). Birth starts the LMAC
    /// join procedure: listen, then pick a free slot.
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        let idx = node.index();
        if self.nodes[idx].alive == alive {
            return;
        }
        if alive {
            self.nodes[idx] = MacNode::offline();
            self.nodes[idx].alive = true;
            self.nodes[idx].listen_remaining = self.cfg.listen_frames_before_pick;
            self.arena.reset_row(node);
            self.alive_mask.insert(node);
            self.unslotted_alive += 1;
        } else {
            match self.nodes[idx].my_slot.take() {
                Some(s) => self.slot_owners[s as usize].retain(|&n| n != node),
                None => self.unslotted_alive -= 1,
            }
            self.nodes[idx].alive = false;
            self.nodes[idx].tx_queue.clear();
            self.arena.reset_row(node);
            self.alive_mask.remove(node);
        }
    }

    /// Write the dynamic MAC state (clock, statistics, ledgers, per-node
    /// join/queue state, slot ownership, neighbour knowledge) to `w`.
    /// `encode` serializes one queued payload; the MAC never inspects
    /// payloads, so their codec belongs to the upper layer.
    pub fn snap(&self, w: &mut SnapWriter, mut encode: impl FnMut(&mut SnapWriter, &P)) {
        w.tag(b"LMAC");
        w.u64(self.frame);
        w.u16(self.slot);
        for v in [
            self.stats.delivered,
            self.stats.undeliverable,
            self.stats.collisions,
            self.stats.slots_surrendered,
            self.stats.slots_picked,
            self.stats.no_free_slot,
            self.stats.deaths_detected,
            self.stats.new_neighbors_detected,
        ] {
            w.u64(v);
        }
        self.data_ledger.snap(w);
        self.control_ledger.snap(w);
        w.len_of(self.nodes.len());
        for node in &self.nodes {
            w.bool(node.alive);
            w.opt_u16(node.my_slot);
            w.u32(node.listen_remaining);
            w.len_of(node.tx_queue.len());
            for (dest, payload) in &node.tx_queue {
                match dest {
                    Destination::Broadcast => w.u8(0),
                    Destination::Multicast(list) => {
                        w.u8(1);
                        w.len_of(list.len());
                        for id in list.as_slice() {
                            w.u32(id.index() as u32);
                        }
                    }
                }
                encode(w, payload);
            }
        }
        w.len_of(self.slot_owners.len());
        for owners in &self.slot_owners {
            w.len_of(owners.len());
            for id in owners {
                w.u32(id.index() as u32);
            }
        }
        self.arena.snap(w);
    }

    /// Overlay state captured by [`LmacNetwork::snap`] onto this network,
    /// which must be freshly built over the same configuration and
    /// topology. The liveness bitmap and unslotted-alive count are
    /// recomputed; slot advancement resumes exactly where the snapshot
    /// left off.
    pub fn restore(
        &mut self,
        r: &mut SnapReader<'_>,
        mut decode: impl FnMut(&mut SnapReader<'_>) -> Result<P, SnapError>,
    ) -> Result<(), SnapError> {
        r.tag(b"LMAC")?;
        self.frame = r.u64()?;
        self.slot = r.u16()?;
        self.stats.delivered = r.u64()?;
        self.stats.undeliverable = r.u64()?;
        self.stats.collisions = r.u64()?;
        self.stats.slots_surrendered = r.u64()?;
        self.stats.slots_picked = r.u64()?;
        self.stats.no_free_slot = r.u64()?;
        self.stats.deaths_detected = r.u64()?;
        self.stats.new_neighbors_detected = r.u64()?;
        self.data_ledger.restore(r)?;
        self.control_ledger.restore(r)?;
        let n = self.nodes.len();
        let pos = r.position();
        if r.seq_len(3)? != n {
            return Err(SnapError::Malformed { pos, what: "MAC node count mismatch" });
        }
        let read_node_id = |r: &mut SnapReader<'_>| -> Result<NodeId, SnapError> {
            let pos = r.position();
            let idx = r.u32()? as usize;
            if idx >= n {
                return Err(SnapError::Malformed { pos, what: "node id out of range" });
            }
            Ok(NodeId::from_index(idx))
        };
        for node in self.nodes.iter_mut() {
            node.alive = r.bool()?;
            node.my_slot = r.opt_u16()?;
            node.listen_remaining = r.u32()?;
            node.tx_queue.clear();
            let q = r.seq_len(2)?;
            for _ in 0..q {
                let dest = match r.u8()? {
                    0 => Destination::Broadcast,
                    1 => {
                        let m = r.seq_len(4)?;
                        let mut list = dirq_net::NodeList::new();
                        for _ in 0..m {
                            list.push(read_node_id(r)?);
                        }
                        Destination::Multicast(list)
                    }
                    _ => {
                        return Err(SnapError::Malformed {
                            pos: r.position(),
                            what: "unknown destination kind",
                        })
                    }
                };
                node.tx_queue.push_back((dest, PayloadHandle::new(decode(r)?)));
            }
        }
        let pos = r.position();
        if r.seq_len(8)? != self.slot_owners.len() {
            return Err(SnapError::Malformed { pos, what: "slot count mismatch" });
        }
        for owners in self.slot_owners.iter_mut() {
            owners.clear();
            let m = r.seq_len(4)?;
            for _ in 0..m {
                owners.push(read_node_id(r)?);
            }
        }
        self.arena.restore(r)?;
        self.alive_mask = NodeBits::new(n);
        self.unslotted_alive = 0;
        for i in 0..n {
            if self.nodes[i].alive {
                self.alive_mask.insert(NodeId::from_index(i));
                if self.nodes[i].my_slot.is_none() {
                    self.unslotted_alive += 1;
                }
            }
        }
        Ok(())
    }
}

/// The slot machinery.
impl<P> LmacNetwork<P> {
    /// Advance one slot, returning the upcalls generated in it.
    ///
    /// Convenience wrapper over [`LmacNetwork::advance_slot_into`]; hot
    /// callers should hold a reusable buffer and call that directly.
    pub fn advance_slot(&mut self, rng: &mut SimRng) -> Vec<MacIndication<P>> {
        let mut out = Vec::new();
        self.advance_slot_into(rng, &mut out);
        out
    }

    /// Advance one slot, appending the generated upcalls to `out`.
    /// Performs no heap allocation in steady state.
    pub fn advance_slot_into(&mut self, rng: &mut SimRng, out: &mut Vec<MacIndication<P>>) {
        self.advance_slot_impl(rng, out, false);
    }

    /// Reference implementation of one slot with the occupancy-index and
    /// transmitter-major reception shortcuts disabled: every slot is
    /// processed and every listener, in ascending id order, scans the full
    /// per-slot transmitter list through `Topology::has_link` and stores by
    /// id, exactly as the pre-index loop did. Kept for
    /// the differential property tests — indications, statistics and
    /// ledgers must match [`LmacNetwork::advance_slot_into`] bit for bit.
    pub fn advance_slot_full_scan_into(
        &mut self,
        rng: &mut SimRng,
        out: &mut Vec<MacIndication<P>>,
    ) {
        self.advance_slot_impl(rng, out, true);
    }

    fn advance_slot_impl(
        &mut self,
        rng: &mut SimRng,
        out: &mut Vec<MacIndication<P>>,
        full_scan: bool,
    ) {
        let s = self.slot;

        // Slot-occupancy index: a slot with no alive owner carries no
        // transmission, no reception and no RNG draw — skip straight to the
        // clock advance instead of clearing and scanning the scratch state.
        // (Owner lists are maintained by `set_alive`/joins; typically 0 or
        // 1 entries, so the alive probe is O(1) in practice.)
        let occupied = self.slot_owners[s as usize].iter().any(|&t| self.alive_mask.contains(t));
        if occupied || full_scan {
            self.run_slot_traffic(rng, out, full_scan);
        }

        // --- Slot advance / frame boundary ---------------------------------
        self.slot += 1;
        if self.slot == self.cfg.slots_per_frame {
            self.slot = 0;
            self.frame += 1;
            self.frame_boundary(rng, out, full_scan);
        }
    }

    /// Transmission + reception + collision resolution for the current
    /// slot. Split out of [`LmacNetwork::advance_slot_impl`] so empty slots
    /// can bypass it entirely.
    fn run_slot_traffic(
        &mut self,
        rng: &mut SimRng,
        out: &mut Vec<MacIndication<P>>,
        full_scan: bool,
    ) {
        let s = self.slot;

        // The scratch moves out of `self` for the duration of the slot so
        // its buffers can be borrowed independently of the node table.
        let mut scratch = std::mem::replace(&mut self.scratch, FrameScratch::placeholder());
        {
            let FrameScratch {
                tx_mark,
                txs,
                tx_data,
                listener_mark,
                collided_mark,
                audible,
                audible_tx,
            } = &mut scratch;

            tx_mark.clear();
            txs.clear();
            tx_data.clear();
            listener_mark.clear();
            collided_mark.clear();

            // --- Transmission phase --------------------------------------------
            // Each alive owner sends one control section plus up to
            // `data_messages_per_slot` queued data messages.
            for &t in &self.slot_owners[s as usize] {
                if !self.alive_mask.contains(t) {
                    continue;
                }
                tx_mark.insert(t);
                let gw = self.gateway_distance(t);
                let occupied = self.arena.view(t).one_hop_occupancy();
                let node = &mut self.nodes[t.index()];
                let data_start = tx_data.len() as u32;
                for _ in 0..self.cfg.data_messages_per_slot {
                    match node.tx_queue.pop_front() {
                        Some(m) => tx_data.push(m),
                        None => break,
                    }
                }
                let data_end = tx_data.len() as u32;
                self.control_ledger.record_tx(t);
                for _ in data_start..data_end {
                    self.data_ledger.record_tx(t);
                }
                txs.push(TxRecord { from: t, occupied, gateway_dist: gw, data_start, data_end });
            }

            // --- Reception phase -----------------------------------------------
            // Listeners are the alive neighbours of transmitters (half-duplex:
            // a transmitter cannot listen in its own slot).
            if full_scan {
                self.reference_listener_loop(
                    s,
                    out,
                    tx_mark,
                    listener_mark,
                    collided_mark,
                    audible,
                    txs,
                    tx_data,
                );
            } else {
                self.receive(
                    s,
                    out,
                    tx_mark,
                    listener_mark,
                    collided_mark,
                    audible_tx,
                    txs,
                    tx_data,
                );
            }

            // Multicast destinations that did not hear the message: dead, out
            // of range, or currently colliding. Surface them to the upper
            // layer — the payload handle is shared, not copied.
            for tx in txs.iter() {
                for (dest, payload) in &tx_data[tx.data_start as usize..tx.data_end as usize] {
                    if let Destination::Multicast(list) = dest {
                        for &d in list.as_slice() {
                            let heard = self.alive_mask.contains(d)
                                && self.topo.has_link(tx.from, d)
                                && !tx_mark.contains(d)
                                && !collided_mark.contains(tx.from);
                            if !heard {
                                self.stats.undeliverable += 1;
                                out.push(MacIndication::Undeliverable {
                                    from: tx.from,
                                    to: d,
                                    payload: payload.clone(),
                                });
                            }
                        }
                    }
                }
            }

            // Collision resolution: surrender and re-join after a random
            // backoff, in ascending id order (as the sorted list used to be).
            for t in collided_mark.iter() {
                if let Some(slot) = self.nodes[t.index()].my_slot.take() {
                    self.slot_owners[slot as usize].retain(|&n| n != t);
                    self.stats.slots_surrendered += 1;
                    self.unslotted_alive += 1;
                    self.nodes[t.index()].listen_remaining =
                        self.cfg.listen_frames_before_pick + rng.gen_range(0..2u32);
                }
            }

            // Sent payload handles drop here; a handle survives only inside
            // the indications that reference it.
            tx_data.clear();
        }
        self.scratch = scratch;
    }

    /// Transmitter-major reception: resolve audibility, then stream each
    /// transmission's arena stores along its CSR row, then emit the upcalls
    /// in ascending listener order (see the module docs). Reproduces
    /// [`LmacNetwork::reference_listener_loop`] bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn receive(
        &mut self,
        s: u16,
        out: &mut Vec<MacIndication<P>>,
        tx_mark: &NodeBits,
        listener_mark: &mut NodeBits,
        collided_mark: &mut NodeBits,
        audible_tx: &mut [u32],
        txs: &[TxRecord],
        tx_data: &[(Destination, PayloadHandle<P>)],
    ) {
        // Audibility. With a converged 2-hop schedule each listener hears
        // exactly one transmitter; the collided sentinel flags the (rare)
        // join transients, whose listeners go straight into the upcall set
        // so the upcall pass counts and clears them.
        for (ti, tx) in txs.iter().enumerate() {
            for &l in self.topo.neighbors(tx.from) {
                if self.alive_mask.contains(l) && !tx_mark.contains(l) {
                    let a = &mut audible_tx[l.index()];
                    if *a == AUDIBLE_NONE {
                        *a = ti as u32;
                    } else if *a != AUDIBLE_COLLIDED {
                        *a = AUDIBLE_COLLIDED;
                        listener_mark.insert(l);
                    }
                }
            }
        }

        // Reception, transmitter-major: the entry "`l` knows `t`" sits at
        // edge `row_start(t) + q`, so one transmission's stores walk one
        // contiguous run of the arena. Non-listeners read `AUDIBLE_NONE`.
        for (ti, tx) in txs.iter().enumerate() {
            let base = self.topo.row_start(tx.from);
            let has_data = tx.data_start < tx.data_end;
            for (q, &l) in self.topo.neighbors(tx.from).iter().enumerate() {
                let a = &mut audible_tx[l.index()];
                match *a {
                    AUDIBLE_NONE => continue,
                    AUDIBLE_COLLIDED => {
                        // `l` hears garbage; every audible transmitter
                        // must surrender its slot.
                        collided_mark.insert(tx.from);
                        continue;
                    }
                    _ => debug_assert_eq!(*a, ti as u32),
                }
                self.control_ledger.record_rx(l);
                let is_new = self.arena.heard_at(
                    l,
                    base + q,
                    Some(s),
                    tx.occupied,
                    tx.gateway_dist,
                    self.frame,
                );
                if is_new || has_data {
                    if is_new {
                        *a |= NEW_NEIGHBOR;
                    }
                    listener_mark.insert(l);
                } else {
                    *a = AUDIBLE_NONE;
                }
            }
        }

        // Upcalls, sparse and in ascending listener order.
        for l in listener_mark.iter() {
            let a = std::mem::replace(&mut audible_tx[l.index()], AUDIBLE_NONE);
            if a == AUDIBLE_COLLIDED {
                self.stats.collisions += 1;
                continue;
            }
            let tx = &txs[(a & !NEW_NEIGHBOR) as usize];
            if a & NEW_NEIGHBOR != 0 {
                self.stats.new_neighbors_detected += 1;
                out.push(MacIndication::NeighborNew { observer: l, new: tx.from });
            }
            self.deliver(l, tx, tx_data, out);
        }
    }

    /// The reference listener phase behind
    /// [`LmacNetwork::advance_slot_full_scan_into`]: mark the listeners,
    /// then visit them in ascending id order, each probing the link matrix
    /// against every transmitter and updating its arena row by id.
    #[allow(clippy::too_many_arguments)]
    fn reference_listener_loop(
        &mut self,
        s: u16,
        out: &mut Vec<MacIndication<P>>,
        tx_mark: &NodeBits,
        listener_mark: &mut NodeBits,
        collided_mark: &mut NodeBits,
        audible: &mut Vec<u32>,
        txs: &[TxRecord],
        tx_data: &[(Destination, PayloadHandle<P>)],
    ) {
        for tx in txs {
            for &nb in self.topo.neighbors(tx.from) {
                if self.alive_mask.contains(nb) && !tx_mark.contains(nb) {
                    listener_mark.insert(nb);
                }
            }
        }
        for l in listener_mark.iter() {
            audible.clear();
            for (i, tx) in txs.iter().enumerate() {
                if self.topo.has_link(tx.from, l) {
                    audible.push(i as u32);
                }
            }
            if audible.len() > 1 {
                // Collision: l hears garbage and will advertise it; every
                // audible transmitter must surrender its slot.
                self.stats.collisions += 1;
                for &i in audible.iter() {
                    collided_mark.insert(txs[i as usize].from);
                }
                continue;
            }
            let tx = &txs[audible[0] as usize];
            self.control_ledger.record_rx(l);
            if self.arena.heard(l, tx.from, Some(s), tx.occupied, tx.gateway_dist, self.frame) {
                self.stats.new_neighbors_detected += 1;
                out.push(MacIndication::NeighborNew { observer: l, new: tx.from });
            }
            self.deliver(l, tx, tx_data, out);
        }
    }

    /// Hand `l` every data message of `tx` addressed to it.
    fn deliver(
        &mut self,
        l: NodeId,
        tx: &TxRecord,
        tx_data: &[(Destination, PayloadHandle<P>)],
        out: &mut Vec<MacIndication<P>>,
    ) {
        for (dest, payload) in &tx_data[tx.data_start as usize..tx.data_end as usize] {
            if dest.includes(l) {
                self.data_ledger.record_rx(l);
                self.stats.delivered += 1;
                // A refcount bump, not a payload copy.
                out.push(MacIndication::Delivered {
                    to: l,
                    from: tx.from,
                    payload: payload.clone(),
                });
            }
        }
    }

    /// Advance a whole frame (`slots_per_frame` slots).
    pub fn advance_frame(&mut self, rng: &mut SimRng) -> Vec<MacIndication<P>> {
        let mut out = Vec::new();
        let start_frame = self.frame;
        while self.frame == start_frame {
            self.advance_slot_into(rng, &mut out);
        }
        out
    }

    fn frame_boundary(
        &mut self,
        rng: &mut SimRng,
        out: &mut Vec<MacIndication<P>>,
        full_scan: bool,
    ) {
        // Liveness: stale neighbours are declared dead (cross-layer upcall),
        // in ascending (observer, dead) order. The fast path sweeps the
        // arena once in storage order and sorts what it finds (empty in
        // steady state, so no allocation); the reference asks each alive
        // observer's view in turn.
        let (frame, max_missed) = (self.frame, self.cfg.max_missed_frames);
        let mut stale = Vec::new();
        if full_scan {
            for observer in self.alive_mask.iter() {
                let dead = self.arena.view(observer).stale(frame, max_missed);
                stale.extend(dead.into_iter().map(|d| (observer, d)));
            }
        } else {
            self.arena.collect_stale_edges(frame, max_missed, &mut stale);
            stale.retain(|&(observer, _)| self.alive_mask.contains(observer));
            stale.sort_unstable();
        }
        for (observer, dead) in stale {
            self.arena.remove(observer, dead);
            self.stats.deaths_detected += 1;
            out.push(MacIndication::NeighborDied { observer, dead });
        }

        // Slot selection for joining nodes (skipped outright when every
        // alive node is placed — the steady state).
        if self.unslotted_alive == 0 {
            return;
        }
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            let n = &mut self.nodes[i];
            if !n.alive || n.my_slot.is_some() {
                continue;
            }
            if n.listen_remaining > 0 {
                n.listen_remaining -= 1;
                continue;
            }
            let occupied = self.arena.view(node).two_hop_occupancy();
            let free = occupied.free_slots(self.cfg.slots_per_frame);
            if free.is_empty() {
                self.stats.no_free_slot += 1;
                continue;
            }
            let slot = free[rng.gen_range(0..free.len())];
            n.my_slot = Some(slot);
            self.unslotted_alive -= 1;
            self.slot_owners[slot as usize].push(node);
            self.stats.slots_picked += 1;
        }
    }

    /// Verify the global TDMA invariant: no two alive nodes within two hops
    /// own the same slot. Returns the violating pairs (empty = converged).
    pub fn schedule_conflicts(&self) -> Vec<(NodeId, NodeId)> {
        let mut conflicts = Vec::new();
        for a in self.topo.nodes() {
            let (Some(sa), true) = (self.nodes[a.index()].my_slot, self.nodes[a.index()].alive)
            else {
                continue;
            };
            for &b in self.topo.neighbors(a) {
                if !self.nodes[b.index()].alive {
                    continue;
                }
                if b > a && self.nodes[b.index()].my_slot == Some(sa) {
                    conflicts.push((a, b));
                }
                for &c in self.topo.neighbors(b) {
                    if c > a
                        && c != a
                        && !self.topo.has_link(a, c)
                        && self.nodes[c.index()].alive
                        && self.nodes[c.index()].my_slot == Some(sa)
                    {
                        conflicts.push((a, c));
                    }
                }
            }
        }
        conflicts.sort_unstable();
        conflicts.dedup();
        conflicts
    }

    /// Whether every alive node currently owns a slot.
    pub fn all_converged(&self) -> bool {
        self.nodes.iter().all(|n| !n.alive || n.my_slot.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq_net::placement::{Placement, SinkPlacement};
    use dirq_net::radio::UnitDisk;
    use dirq_sim::RngFactory;

    type Net = LmacNetwork<u32>;

    fn line_topo(n: usize) -> Topology {
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).map(|i| (NodeId::from_index(i), NodeId::from_index(i + 1))).collect();
        Topology::from_edges(n, &edges)
    }

    fn random_topo(n: usize, seed: u64) -> Topology {
        let mut rng = RngFactory::new(seed).stream("lmac-test");
        Topology::deploy_connected(
            n,
            &Placement::UniformRandom { side: 100.0 },
            SinkPlacement::Corner,
            &UnitDisk::new(30.0),
            &mut rng,
            200,
        )
        .expect("connected deployment")
    }

    #[test]
    fn greedy_assignment_is_conflict_free() {
        let mut net = Net::new(LmacConfig::default(), random_topo(50, 1));
        net.assign_slots_greedy();
        assert!(net.all_converged());
        assert!(net.schedule_conflicts().is_empty());
    }

    #[test]
    fn join_protocol_converges_conflict_free() {
        let mut rng = RngFactory::new(2).stream("join");
        let mut net = Net::new(LmacConfig::default(), random_topo(30, 2));
        for _ in 0..40 {
            net.advance_frame(&mut rng);
            if net.all_converged() && net.schedule_conflicts().is_empty() {
                break;
            }
        }
        assert!(net.all_converged(), "nodes failed to acquire slots");
        assert!(
            net.schedule_conflicts().is_empty(),
            "schedule still conflicted: {:?}",
            net.schedule_conflicts()
        );
    }

    #[test]
    fn unicast_delivery_and_energy() {
        let mut rng = RngFactory::new(3).stream("uni");
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::unicast(NodeId(1)), 42);
        let inds = net.advance_frame(&mut rng);
        let delivered: Vec<_> = inds
            .iter()
            .filter_map(|i| match i {
                MacIndication::Delivered { to, from, payload } => Some((*to, *from, **payload)),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![(NodeId(1), NodeId(0), 42)]);
        // Paper cost model: 1 tx + 1 intended rx.
        assert_eq!(net.data_ledger().total_tx(), 1);
        assert_eq!(net.data_ledger().total_rx(), 1);
        // Node 2 heard nothing relevant: no data rx recorded for it.
        assert_eq!(net.data_ledger().rx_count(NodeId(2)), 0);
    }

    #[test]
    fn broadcast_counts_all_hearers() {
        let mut rng = RngFactory::new(4).stream("bc");
        // Star: 0 in the middle of 1, 2, 3.
        let topo = Topology::from_edges(
            4,
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)), (NodeId(0), NodeId(3))],
        );
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::Broadcast, 7);
        let inds = net.advance_frame(&mut rng);
        let delivered =
            inds.iter().filter(|i| matches!(i, MacIndication::Delivered { .. })).count();
        assert_eq!(delivered, 3);
        assert_eq!(net.data_ledger().total_tx(), 1);
        assert_eq!(net.data_ledger().total_rx(), 3);
    }

    #[test]
    fn broadcast_shares_one_payload_allocation() {
        let mut rng = RngFactory::new(4).stream("bc-shared");
        let topo = Topology::from_edges(
            4,
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)), (NodeId(0), NodeId(3))],
        );
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::Broadcast, 7);
        let inds = net.advance_frame(&mut rng);
        let handles: Vec<&PayloadHandle<u32>> = inds
            .iter()
            .filter_map(|i| match i {
                MacIndication::Delivered { payload, .. } => Some(payload),
                _ => None,
            })
            .collect();
        assert_eq!(handles.len(), 3);
        assert!(
            handles.windows(2).all(|w| PayloadHandle::ptr_eq(w[0], w[1])),
            "every receiver's indication must share the interned payload"
        );
    }

    #[test]
    fn multicast_counts_only_intended() {
        let mut rng = RngFactory::new(5).stream("mc");
        let topo = Topology::from_edges(
            4,
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)), (NodeId(0), NodeId(3))],
        );
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::multicast([NodeId(1), NodeId(3)]), 9);
        let inds = net.advance_frame(&mut rng);
        let to: Vec<NodeId> = inds
            .iter()
            .filter_map(|i| match i {
                MacIndication::Delivered { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(to, vec![NodeId(1), NodeId(3)]);
        assert_eq!(net.data_ledger().total_tx(), 1);
        assert_eq!(net.data_ledger().total_rx(), 2);
        assert_eq!(net.data_ledger().rx_count(NodeId(2)), 0);
    }

    #[test]
    fn dead_neighbor_detected_within_timeout() {
        let mut rng = RngFactory::new(6).stream("death");
        let cfg = LmacConfig { max_missed_frames: 3, ..Default::default() };
        let mut net = Net::new(cfg, line_topo(3));
        net.assign_slots_greedy();
        // Run a few frames so tables are warm.
        for _ in 0..3 {
            net.advance_frame(&mut rng);
        }
        net.set_alive(NodeId(2), false);
        let mut died: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..6 {
            for ind in net.advance_frame(&mut rng) {
                if let MacIndication::NeighborDied { observer, dead } = ind {
                    died.push((observer, dead));
                }
            }
        }
        assert_eq!(died, vec![(NodeId(1), NodeId(2))]);
        assert_eq!(net.stats().deaths_detected, 1);
    }

    #[test]
    fn same_frame_deaths_come_out_in_observer_order() {
        let mut rng = RngFactory::new(12).stream("co-death");
        // Observers 0 and 1 both hear 2 and 3, and 4 hears 3: the arena
        // stores these entries grouped by the silent neighbour, the
        // upcalls must come out grouped by observer.
        let edges = [(0, 2), (0, 3), (1, 2), (1, 3), (3, 4)];
        let edges: Vec<_> = edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
        let cfg = LmacConfig { max_missed_frames: 2, ..Default::default() };
        let mut net = Net::new(cfg, Topology::from_edges(5, &edges));
        net.assign_slots_greedy();
        for _ in 0..3 {
            net.advance_frame(&mut rng);
        }
        net.set_alive(NodeId(2), false);
        net.set_alive(NodeId(3), false);
        for _ in 0..6 {
            // The boundary closing this frame runs at `current_frame + 1`;
            // only the dead are silent, so the views predict it exactly.
            let boundary = net.current_frame() + 1;
            let expected: Vec<(NodeId, NodeId)> = (0..5)
                .map(NodeId)
                .filter(|&o| net.is_alive(o))
                .flat_map(|o| {
                    net.neighbor_table(o).stale(boundary, 2).into_iter().map(move |d| (o, d))
                })
                .collect();
            let died: Vec<(NodeId, NodeId)> = net
                .advance_frame(&mut rng)
                .into_iter()
                .filter_map(|i| match i {
                    MacIndication::NeighborDied { observer, dead } => Some((observer, dead)),
                    _ => None,
                })
                .collect();
            assert_eq!(died, expected, "upcalls must match the stale views");
            if !died.is_empty() {
                let want = [(0, 2), (0, 3), (1, 2), (1, 3), (4, 3)];
                let want: Vec<_> = want.iter().map(|&(o, d)| (NodeId(o), NodeId(d))).collect();
                assert_eq!(died, want);
                assert_eq!(net.stats().deaths_detected, 5);
                return;
            }
        }
        panic!("the deaths were never detected");
    }

    #[test]
    fn empty_network_advances() {
        let mut rng = RngFactory::new(13).stream("empty");
        let mut net = Net::new(LmacConfig::default(), Topology::from_edges(0, &[]));
        assert!(net.advance_frame(&mut rng).is_empty());
        assert_eq!(net.current_frame(), 1);
        assert!(net.all_converged());
    }

    #[test]
    fn born_node_joins_and_is_announced() {
        let mut rng = RngFactory::new(7).stream("birth");
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
        net.set_alive(NodeId(2), false);
        net.assign_slots_greedy();
        for _ in 0..2 {
            net.advance_frame(&mut rng);
        }
        net.set_alive(NodeId(2), true);
        let mut seen_new = Vec::new();
        for _ in 0..8 {
            for ind in net.advance_frame(&mut rng) {
                if let MacIndication::NeighborNew { observer, new } = ind {
                    seen_new.push((observer, new));
                }
            }
        }
        // Node 1 must eventually hear node 2 (and node 2 hears node 1 on
        // joining — it had an empty table).
        assert!(seen_new.contains(&(NodeId(1), NodeId(2))), "saw: {seen_new:?}");
        assert!(net.slot_of(NodeId(2)).is_some(), "new node never acquired a slot");
        assert!(net.schedule_conflicts().is_empty());
    }

    #[test]
    fn undeliverable_to_dead_destination() {
        let mut rng = RngFactory::new(8).stream("undeliv");
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
        net.assign_slots_greedy();
        net.set_alive(NodeId(1), false);
        net.enqueue(NodeId(0), Destination::unicast(NodeId(1)), 5);
        let inds = net.advance_frame(&mut rng);
        assert!(inds.iter().any(|i| matches!(
            i,
            MacIndication::Undeliverable { from, to, payload }
                if *from == NodeId(0) && *to == NodeId(1) && **payload == 5
        )));
        assert_eq!(net.stats().undeliverable, 1);
    }

    #[test]
    fn enqueue_on_dead_node_is_rejected() {
        let mut net = Net::new(LmacConfig::default(), line_topo(2));
        net.set_alive(NodeId(1), false);
        assert!(!net.enqueue(NodeId(1), Destination::Broadcast, 1));
        assert!(net.enqueue(NodeId(0), Destination::Broadcast, 1));
    }

    #[test]
    fn queue_drains_at_configured_rate() {
        let mut rng = RngFactory::new(9).stream("queue");
        let cfg = LmacConfig { data_messages_per_slot: 2, ..Default::default() };
        let mut net = Net::new(cfg, line_topo(2));
        net.assign_slots_greedy();
        for i in 0..5 {
            net.enqueue(NodeId(0), Destination::unicast(NodeId(1)), i);
        }
        assert_eq!(net.queue_len(NodeId(0)), 5);
        net.advance_frame(&mut rng);
        assert_eq!(net.queue_len(NodeId(0)), 3, "2 messages per slot drain");
        net.advance_frame(&mut rng);
        net.advance_frame(&mut rng);
        assert_eq!(net.queue_len(NodeId(0)), 0);
        assert_eq!(net.stats().delivered, 5);
    }

    #[test]
    fn advance_slot_into_reuses_buffer() {
        let mut rng = RngFactory::new(9).stream("reuse");
        let mut net = Net::new(LmacConfig::default(), line_topo(2));
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::unicast(NodeId(1)), 1);
        let mut buf = Vec::with_capacity(16);
        let cap = buf.capacity();
        let mut delivered = 0;
        for _ in 0..net.config().slots_per_frame {
            buf.clear();
            net.advance_slot_into(&mut rng, &mut buf);
            delivered +=
                buf.iter().filter(|i| matches!(i, MacIndication::Delivered { .. })).count();
        }
        assert_eq!(delivered, 1);
        assert_eq!(buf.capacity(), cap, "steady-state frame must not grow the buffer");
    }

    #[test]
    fn gateway_distance_propagates() {
        let mut rng = RngFactory::new(10).stream("gw");
        let mut net = Net::new(LmacConfig::default(), line_topo(4));
        net.assign_slots_greedy();
        for _ in 0..6 {
            net.advance_frame(&mut rng);
        }
        assert_eq!(net.gateway_distance(NodeId(0)), 0);
        assert_eq!(net.gateway_distance(NodeId(1)), 1);
        assert_eq!(net.gateway_distance(NodeId(2)), 2);
        assert_eq!(net.gateway_distance(NodeId(3)), 3);
    }

    #[test]
    fn scarce_slots_converge_through_collisions() {
        // 12 slots for a dense 30-node graph: joins collide repeatedly but
        // either converge conflict-free or report no_free_slot — never a
        // silent inconsistency.
        let mut rng = RngFactory::new(20).stream("scarce");
        let topo = random_topo(30, 20);
        let cfg = LmacConfig { slots_per_frame: 24, ..Default::default() };
        let mut net = Net::new(cfg, topo);
        for _ in 0..120 {
            net.advance_frame(&mut rng);
        }
        assert!(
            net.schedule_conflicts().is_empty(),
            "persisting conflicts: {:?}",
            net.schedule_conflicts()
        );
        let unplaced = (0..30)
            .filter(|&i| net.is_alive(NodeId(i)) && net.slot_of(NodeId(i)).is_none())
            .count();
        if unplaced > 0 {
            assert!(net.stats().no_free_slot > 0, "unplaced nodes must be accounted for");
        }
    }

    #[test]
    fn mass_death_detected_for_every_neighbour() {
        let mut rng = RngFactory::new(21).stream("mass-death");
        let topo = random_topo(20, 21);
        let mut net = Net::new(LmacConfig::default(), topo.clone());
        net.assign_slots_greedy();
        for _ in 0..4 {
            net.advance_frame(&mut rng);
        }
        // Kill half the network at once.
        let victims: Vec<NodeId> = (10..20).map(NodeId).collect();
        for &v in &victims {
            net.set_alive(v, false);
        }
        let mut died: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..10 {
            for ind in net.advance_frame(&mut rng) {
                if let MacIndication::NeighborDied { observer, dead } = ind {
                    died.push((observer, dead));
                }
            }
        }
        // Every surviving node must have declared each dead neighbour.
        for survivor in (0..10).map(NodeId) {
            for &v in &victims {
                if topo.has_link(survivor, v) {
                    assert!(died.contains(&(survivor, v)), "{survivor} never declared {v} dead");
                }
            }
        }
        // And no declarations among the dead or for alive neighbours.
        for &(observer, dead) in &died {
            assert!(observer.index() < 10, "dead node {observer} raised an upcall");
            assert!(dead.index() >= 10, "alive node {dead} was declared dead");
        }
    }

    #[test]
    fn reborn_node_reacquires_distinct_slot() {
        let mut rng = RngFactory::new(22).stream("rebirth");
        let topo = random_topo(15, 22);
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        for _ in 0..3 {
            net.advance_frame(&mut rng);
        }
        net.set_alive(NodeId(7), false);
        for _ in 0..6 {
            net.advance_frame(&mut rng);
        }
        net.set_alive(NodeId(7), true);
        for _ in 0..12 {
            net.advance_frame(&mut rng);
        }
        assert!(net.slot_of(NodeId(7)).is_some(), "rebirth must re-join");
        assert!(net.schedule_conflicts().is_empty());
    }

    #[test]
    fn worker_count_never_changes_the_indication_stream() {
        // `LmacConfig::workers` no longer shapes the MAC: same indications
        // in the same order, same statistics, same ledgers at any setting
        // — across joins, traffic and churn.
        let topo = random_topo(40, 33);
        let mut nets: Vec<Net> = [1usize, 2, 4]
            .iter()
            .map(|&w| Net::new(LmacConfig { workers: w, ..LmacConfig::default() }, topo.clone()))
            .collect();
        let mut rngs: Vec<_> =
            (0..nets.len()).map(|_| RngFactory::new(33).stream("workers")).collect();
        for net in &mut nets {
            net.enqueue(NodeId(0), Destination::Broadcast, 7);
            net.enqueue(NodeId(3), Destination::unicast(NodeId(5)), 9);
        }
        let slots = nets[0].config().slots_per_frame;
        let mut streams: Vec<Vec<MacIndication<u32>>> = vec![Vec::new(); nets.len()];
        for frame in 0..8u32 {
            if frame == 2 {
                for net in &mut nets {
                    net.set_alive(NodeId(7), false);
                    net.set_alive(NodeId(11), false);
                }
            }
            if frame == 5 {
                for net in &mut nets {
                    net.set_alive(NodeId(7), true);
                }
            }
            for _ in 0..slots {
                for (i, net) in nets.iter_mut().enumerate() {
                    net.advance_slot_into(&mut rngs[i], &mut streams[i]);
                }
            }
        }
        assert_eq!(streams[0], streams[1], "2 workers diverged from serial");
        assert_eq!(streams[0], streams[2], "4 workers diverged from serial");
        let reference = format!("{:?}", nets[0].stats());
        for net in &nets[1..] {
            assert_eq!(format!("{:?}", net.stats()), reference);
            assert_eq!(format!("{:?}", net.data_ledger()), format!("{:?}", nets[0].data_ledger()));
        }
    }

    #[test]
    fn control_ledger_separate_from_data() {
        let mut rng = RngFactory::new(11).stream("ctrl");
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
        net.assign_slots_greedy();
        net.advance_frame(&mut rng);
        // 3 control transmissions (one per node); data untouched.
        assert_eq!(net.control_ledger().total_tx(), 3);
        assert_eq!(net.data_ledger().total_tx(), 0);
        assert!(net.control_ledger().total_rx() > 0);
    }
}
