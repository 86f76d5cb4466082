//! # omx-fabric — simulated Ethernet wire
//!
//! Models the physical substrate of the reproduction: full-duplex links with
//! finite bandwidth and propagation delay, a store-and-forward switch, and
//! disturbance injectors (extra delay, reordering, loss) used by the packet
//! mis-ordering experiment (Table III of the paper).
//!
//! The fabric is a *passive timing oracle*: the cluster orchestrator asks it
//! "this frame leaves node A for node B at time t — when does it arrive, if
//! at all?" and schedules the arrival event itself. Keeping the fabric free
//! of its own event queue makes it trivially unit-testable and keeps all
//! event flow in one place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inject;
pub mod link;
pub mod topology;

pub use inject::{Disturbance, DisturbanceConfig};
pub use link::{LinkConfig, PortClock};
pub use topology::{EthernetFabric, FabricConfig, PortId, TransmitOutcome};
