//! Pure protocol state machines.
//!
//! Everything in this module is deterministic, allocation-light, and takes
//! time as an explicit argument where it matters. The threaded runtime
//! (`crate::runtime`) and the virtual-time simulator (`ts-sim`) both drive
//! these exact types.

pub mod acks;
pub mod buffer;
pub mod flex;
pub mod heartbeat;
pub mod messages;
pub mod order;
pub mod rubberband;
pub(crate) mod wire;
