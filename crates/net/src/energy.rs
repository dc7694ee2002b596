//! Energy accounting.
//!
//! The paper's analytical and simulated comparisons use a unit cost model:
//! one unit per transmission, one unit per reception (Section 5). The
//! ledger keeps per-node tallies so experiments can also report hotspots.

use crate::ids::NodeId;
use dirq_sim::snap::{SnapError, SnapReader, SnapWriter};

/// Per-node transmission/reception tallies under a unit cost model.
#[derive(Clone, Debug)]
pub struct EnergyLedger {
    tx: Vec<u64>,
    rx: Vec<u64>,
    tx_cost: f64,
    rx_cost: f64,
}

impl EnergyLedger {
    /// Ledger for `n` nodes with the paper's unit costs (1 tx / 1 rx).
    pub fn new(n: usize) -> Self {
        EnergyLedger::with_costs(n, 1.0, 1.0)
    }

    /// Ledger with custom per-operation costs (for radio-chip ablations).
    pub fn with_costs(n: usize, tx_cost: f64, rx_cost: f64) -> Self {
        assert!(tx_cost >= 0.0 && rx_cost >= 0.0, "costs must be non-negative");
        EnergyLedger { tx: vec![0; n], rx: vec![0; n], tx_cost, rx_cost }
    }

    /// Record one transmission by `node`.
    #[inline]
    pub fn record_tx(&mut self, node: NodeId) {
        self.tx[node.index()] += 1;
    }

    /// Record one reception by `node`.
    #[inline]
    pub fn record_rx(&mut self, node: NodeId) {
        self.rx[node.index()] += 1;
    }

    /// Transmissions by `node`.
    pub fn tx_count(&self, node: NodeId) -> u64 {
        self.tx[node.index()]
    }

    /// Receptions by `node`.
    pub fn rx_count(&self, node: NodeId) -> u64 {
        self.rx[node.index()]
    }

    /// Total transmissions across all nodes.
    pub fn total_tx(&self) -> u64 {
        self.tx.iter().sum()
    }

    /// Total receptions across all nodes.
    pub fn total_rx(&self) -> u64 {
        self.rx.iter().sum()
    }

    /// Total cost: `tx_cost·Σtx + rx_cost·Σrx`. With unit costs this is the
    /// paper's `C = CTx + CRx`.
    pub fn total_cost(&self) -> f64 {
        self.total_tx() as f64 * self.tx_cost + self.total_rx() as f64 * self.rx_cost
    }

    /// Cost attributable to a single node.
    pub fn node_cost(&self, node: NodeId) -> f64 {
        self.tx[node.index()] as f64 * self.tx_cost + self.rx[node.index()] as f64 * self.rx_cost
    }

    /// The node with the highest cost (ties broken by lowest id), with its
    /// cost; `None` for an empty ledger.
    pub fn hotspot(&self) -> Option<(NodeId, f64)> {
        (0..self.tx.len())
            .map(|i| (NodeId::from_index(i), self.node_cost(NodeId::from_index(i))))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
    }

    /// Zero every tally.
    pub fn reset(&mut self) {
        self.tx.fill(0);
        self.rx.fill(0);
    }

    /// Write the per-node tallies to `w` (costs are configuration, not
    /// state — the restored ledger keeps its own).
    pub fn snap(&self, w: &mut SnapWriter) {
        w.tag(b"ELDG");
        w.u64s(&self.tx);
        w.u64s(&self.rx);
    }

    /// Overlay tallies captured by [`EnergyLedger::snap`] onto this
    /// ledger. The node count must match.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag(b"ELDG")?;
        let pos = r.position();
        let tx = r.u64s()?;
        let rx = r.u64s()?;
        if tx.len() != self.tx.len() || rx.len() != self.rx.len() {
            return Err(SnapError::Malformed { pos, what: "ledger node count mismatch" });
        }
        self.tx = tx;
        self.rx = rx;
        Ok(())
    }

    /// Add another ledger's tallies into this one (sizes must match).
    pub fn merge(&mut self, other: &EnergyLedger) {
        assert_eq!(self.tx.len(), other.tx.len(), "ledger size mismatch");
        for i in 0..self.tx.len() {
            self.tx[i] += other.tx[i];
            self.rx[i] += other.rx[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cost_model_matches_paper() {
        let mut l = EnergyLedger::new(3);
        l.record_tx(NodeId(0));
        l.record_rx(NodeId(1));
        l.record_rx(NodeId(2));
        // One broadcast heard by two neighbours: cost 1 + 2 = 3.
        assert_eq!(l.total_cost(), 3.0);
        assert_eq!(l.total_tx(), 1);
        assert_eq!(l.total_rx(), 2);
    }

    #[test]
    fn per_node_tallies() {
        let mut l = EnergyLedger::new(2);
        l.record_tx(NodeId(1));
        l.record_tx(NodeId(1));
        l.record_rx(NodeId(0));
        assert_eq!(l.tx_count(NodeId(1)), 2);
        assert_eq!(l.rx_count(NodeId(0)), 1);
        assert_eq!(l.node_cost(NodeId(1)), 2.0);
    }

    #[test]
    fn custom_costs() {
        let mut l = EnergyLedger::with_costs(1, 2.5, 0.5);
        l.record_tx(NodeId(0));
        l.record_rx(NodeId(0));
        assert_eq!(l.total_cost(), 3.0);
    }

    #[test]
    fn hotspot_finds_busiest_node() {
        let mut l = EnergyLedger::new(3);
        l.record_tx(NodeId(2));
        l.record_tx(NodeId(2));
        l.record_tx(NodeId(0));
        let (node, cost) = l.hotspot().unwrap();
        assert_eq!(node, NodeId(2));
        assert_eq!(cost, 2.0);
    }

    #[test]
    fn hotspot_tie_breaks_to_lowest_id() {
        let mut l = EnergyLedger::new(3);
        l.record_tx(NodeId(1));
        l.record_tx(NodeId(2));
        assert_eq!(l.hotspot().unwrap().0, NodeId(1));
    }

    #[test]
    fn merge_and_reset() {
        let mut a = EnergyLedger::new(2);
        a.record_tx(NodeId(0));
        let mut b = EnergyLedger::new(2);
        b.record_rx(NodeId(1));
        a.merge(&b);
        assert_eq!(a.total_cost(), 2.0);
        a.reset();
        assert_eq!(a.total_cost(), 0.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn merge_size_mismatch_panics() {
        let mut a = EnergyLedger::new(2);
        let b = EnergyLedger::new(3);
        a.merge(&b);
    }
}
