//! Memory-structure substrate for the CMP leakage simulator.
//!
//! This crate provides the building blocks that the L1/L2 cache models in
//! `cmpleak-system` are assembled from:
//!
//! * [`Geometry`] / [`addr`] — cache geometry and address slicing,
//! * [`SetAssocArray`] — a generic set-associative tag array with true-LRU
//!   replacement and stable flat slot identifiers,
//! * [`Mshr`] — miss-status holding registers with secondary-miss merging,
//! * [`WriteBuffer`] — a coalescing store buffer (the write-through L1 in
//!   the paper propagates stores through one of these),
//! * [`DecayBank`] — the hierarchical cache-decay counter architecture of
//!   Kaxiras et al. (global tick + small saturating per-line counters),
//!   extended with a per-line *armed* bit so Selective Decay can restrict
//!   which lines are allowed to decay,
//! * [`ShadowTags`] — an always-on shadow tag directory used to classify
//!   decay-induced misses (a miss that would have hit had no line ever
//!   been turned off),
//! * [`LineStateBank`] / [`BankArena`] — the columnar per-line state
//!   layer: word-packed `u64` bitsets for the powered/armed/live bits
//!   (popcount counting, `u64×4` chunked scans) plus dense
//!   timestamp/counter columns, all checked out of an arena that reuses
//!   the multi-MB allocations across simulations.
//!
//! Everything here is deterministic and allocation-free on the hot path;
//! structures are sized once at construction (see the workspace DESIGN.md
//! and the hpc-parallel guide notes on avoiding allocation in hot loops).

#![forbid(unsafe_code)]

pub mod addr;
pub mod array;
pub mod bank;
pub mod decay;
pub mod mshr;
pub mod shadow;
pub mod write_buffer;

pub use addr::{Geometry, LineAddr};
pub use array::{LineView, LookupOutcome, SetAssocArray};
pub use bank::{ArenaStats, BankArena, BitSet, LineStateBank};
pub use decay::{DecayBank, DecayConfig, DecayStats};
pub use mshr::{Mshr, MshrAlloc, MshrCompleted, MshrEntry};
pub use shadow::ShadowTags;
pub use write_buffer::{WriteBuffer, WriteBufferStats};
