//! # simnet — deterministic discrete-event network simulation substrate
//!
//! This crate provides the network substrate used to synthesize the traffic
//! that the TAPO analyzer (crate `tapo`) studies, replacing the production
//! network of the paper *"Demystifying and Mitigating TCP Stalls at the
//! Server Side"* (CoNEXT 2015).
//!
//! Everything here is **deterministic given a seed**: the event queue breaks
//! timestamp ties by insertion sequence number, and all randomness flows
//! from explicitly-seeded [`rng::SimRng`] instances. Re-running a simulation
//! with the same seed reproduces the exact same packet trace, which is what
//! makes the paired mechanism comparisons of Tables 8 and 9 meaningful.
//!
//! Components:
//!
//! * [`time`] — µs-resolution [`time::SimTime`] / [`time::SimDuration`].
//! * [`rng`] — seeded small-state RNG plus distribution helpers
//!   (lognormal, bounded Pareto, empirical CDFs).
//! * [`loss`] — packet loss processes: Bernoulli, bursty Gilbert–Elliott,
//!   and scripted drop lists for packetdrill-style unit tests.
//! * [`link`] — a unidirectional link: propagation delay, serialization at
//!   a configured bandwidth, a drop-tail queue, optional jitter and
//!   reordering.
//! * [`event`] — the deterministic event queue.
//! * [`cli`] — the one command-line argument reader every binary uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod event;
pub mod link;
pub mod loss;
pub mod par;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use link::{Link, LinkConfig};
pub use loss::{LossModel, LossSpec};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
