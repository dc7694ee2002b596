//! Discrete simulation time.
//!
//! The paper measures everything in *epochs* (one sensor acquisition per
//! node per epoch, queries every 20 epochs, runs of 20 000 epochs). Time
//! series key their buckets by an abstract tick count so higher layers
//! choose what a tick means (the engine records one tick per epoch).

/// An absolute instant on the simulation clock, in ticks since start.
///
/// `SimTime` is a transparent `u64` newtype: cheap to copy and totally
/// ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }
}
