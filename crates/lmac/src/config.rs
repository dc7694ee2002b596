//! LMAC frame geometry and liveness parameters.

use crate::slots::MAX_SLOTS;

/// Configuration of the simulated LMAC instance.
#[derive(Clone, Copy, Debug)]
pub struct LmacConfig {
    /// Slots per TDMA frame. Must exceed the densest 2-hop neighbourhood
    /// for the distributed scheduler to converge.
    pub slots_per_frame: u16,
    /// Frames a neighbour may stay unheard before it is declared dead and a
    /// cross-layer notification is raised. LMAC keeps this small: a silent
    /// node wastes its reserved slot.
    pub max_missed_frames: u32,
    /// Frames a joining node listens before choosing a slot. LMAC mandates
    /// at least one full frame of observation.
    pub listen_frames_before_pick: u32,
    /// Data messages one slot's data section can carry. The control section
    /// advertises the recipients of each; the paper's cost model counts
    /// messages, not slots.
    pub data_messages_per_slot: usize,
    /// Retained for configuration compatibility only: it no longer
    /// affects the MAC, whose reception is one serial streaming pass.
    /// Must be at least 1.
    pub workers: usize,
}

impl Default for LmacConfig {
    fn default() -> Self {
        LmacConfig {
            slots_per_frame: 32,
            max_missed_frames: 3,
            listen_frames_before_pick: 1,
            data_messages_per_slot: 4,
            workers: 1,
        }
    }
}

impl LmacConfig {
    /// Validate invariants; call once at network construction.
    pub fn validate(&self) {
        assert!(
            self.slots_per_frame > 0 && self.slots_per_frame <= MAX_SLOTS,
            "slots_per_frame must be in 1..={MAX_SLOTS}"
        );
        assert!(self.max_missed_frames >= 1, "max_missed_frames must be at least 1");
        assert!(self.data_messages_per_slot >= 1, "a slot must carry at least one message");
        assert!(self.workers >= 1, "workers must be at least 1 (1 = serial)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        LmacConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "slots_per_frame")]
    fn zero_slots_rejected() {
        LmacConfig { slots_per_frame: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "slots_per_frame")]
    fn oversized_frame_rejected() {
        LmacConfig { slots_per_frame: 129, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "max_missed_frames")]
    fn zero_missed_frames_rejected() {
        LmacConfig { max_missed_frames: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn zero_workers_rejected() {
        LmacConfig { workers: 0, ..Default::default() }.validate();
    }
}
