//! # dirq-data — synthetic environment and query workloads
//!
//! The DirQ paper evaluates on "a synthetic dataset with 4 sensor types …
//! where sensor values of nodes located close to one another are spatially
//! related. The generated sensor data is also related in the temporal
//! dimension. Each sensor acquires a reading every … epoch" and on "random
//! queries which covered 20 %, 40 % and 60 % of the nodes … generated every
//! 20 epochs". The dataset itself was never published, so this crate
//! regenerates one with the stated properties:
//!
//! * [`sensor`] — sensor types, catalog (with post-deployment registration,
//!   matching the paper's scalability claim), and heterogeneous
//!   node-to-sensor assignment.
//! * [`field`] — smooth spatially correlated base fields (radial-basis
//!   bumps over the deployment plane).
//! * [`temporal`] — temporal dynamics: a diurnal cycle plus AR(1) processes
//!   at regional and node-local scales.
//! * [`world`] — [`world::SensorWorld`]: per-epoch readings for every
//!   (node, sensor type) pair.
//! * [`workload`] — one-shot range queries calibrated so that a target
//!   fraction of the network (sources **plus** forwarding nodes, the
//!   paper's definition of "percentage of nodes involved") is relevant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod sensor;
pub mod temporal;
pub mod workload;
pub mod world;

pub use sensor::{SensorCatalog, SensorType};
pub use workload::{QueryGenerator, QueryId, RangeQuery};
pub use world::{SensorWorld, WorldConfig};
