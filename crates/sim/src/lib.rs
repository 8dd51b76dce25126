//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the foundation on which the AFRAID reproduction is
//! built: simulated time, a deterministic event queue with cancellation,
//! a seedable pseudo-random number generator, the distribution samplers
//! used by the synthetic workload generators, and the statistics
//! machinery (online moments, time-weighted step-function integrals,
//! latency histograms) used to measure simulation runs.
//!
//! Everything here is deliberately free of interior mutability, threads,
//! and system clocks: given the same inputs, a simulation built on this
//! kernel reproduces the same outputs bit-for-bit. The original paper
//! relies on the fact that "almost all of the code was the same between
//! the various array models" so that direct performance comparisons are
//! possible; determinism is how this reproduction achieves the same
//! property.
//!
//! # Examples
//!
//! ```
//! use afraid_sim::queue::EventQueue;
//! use afraid_sim::time::SimTime;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::from_millis(2), "second");
//! q.schedule(SimTime::from_millis(1), "first");
//! assert_eq!(q.pop().unwrap().1, "first");
//! assert_eq!(q.pop().unwrap().1, "second");
//! ```

pub mod dist;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{
    Bernoulli, Empirical, Exponential, Hyperexponential, LogNormal, Pareto, Uniform, Zipf,
};
pub use hash::{FxBuildHasher, FxHashMap, U64Set};
pub use queue::{EventId, EventQueue};
pub use rng::SplitMix64;
pub use stats::{geometric_mean, Histogram, OnlineStats, TimeWeighted};
pub use time::{SimDuration, SimTime};
