//! # dirq-sim — shared simulation substrate
//!
//! The DirQ paper evaluates its protocol inside OMNeT++, a discrete-event
//! simulator. This reproduction steps epochs and TDMA slots directly, so
//! it needs no event kernel; this crate holds the pieces every layer
//! shares instead:
//!
//! * [`time`] — the simulation clock instant ([`SimTime`]) that bucketed
//!   time series are keyed by.
//! * [`rng`] — reproducible hierarchical random-number streams so that every
//!   component (radio, data generator, workload, …) draws from an
//!   independent, seed-derived stream.
//! * [`stats`] — counters, EWMAs, Welford accumulators, histograms and
//!   bucketed time series used by the measurement harness.
//! * [`runner`] — a parallel parameter-sweep/matrix executor (one
//!   simulation per thread, deterministic output ordering, seed
//!   replication) built on [`runner::fan_out`], the scoped per-call
//!   fan-out behind the engine's sharded world and upkeep passes.
//! * [`report`] — tiny CSV/ASCII-table emitters for experiment output.
//! * [`json`] — a deterministic JSON writer/parser for bench artifacts,
//!   scenario reports and the daemon wire protocol.
//! * [`snap`] — the versioned binary snapshot codec behind engine
//!   checkpoint/restore (and the on-disk image framing).
//! * [`fingerprint`] — the FNV-1a hasher behind every determinism golden.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod json;
pub mod report;
pub mod rng;
pub mod runner;
pub mod snap;
pub mod stats;
pub mod time;

pub use fingerprint::Fnv;
pub use json::Json;
pub use rng::{split_key, RngFactory, SimRng, StreamRng};
pub use snap::{SnapError, SnapReader, SnapWriter};
pub use time::SimTime;
