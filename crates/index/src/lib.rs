//! # pass-index — provenance indexing structures
//!
//! §II-B demands "efficient lookups in many dimensions, as well as
//! efficient recursive or transitive queries". This crate supplies both
//! halves for a local PASS:
//!
//! * **Dimensional** — [`AttrIndex`] (equality + range over any
//!   attribute), [`TimeIndex`] (interval overlap), [`KeywordIndex`]
//!   (annotation text), combined through [`PostingList`] set algebra.
//! * **Recursive** — [`AncestryGraph`] plus four interchangeable
//!   [`ReachStrategy`] implementations ([`NaiveJoinClosure`],
//!   [`BfsClosure`], [`MemoClosure`], [`IntervalClosure`]) that form the
//!   E3 ablation ladder.
//!
//! Indexes speak dense [`NodeIdx`]es internally; [`IdArena`] maintains the
//! bijection with 128-bit tuple-set identities.
//!
//! Every structure above is built on two persistent containers,
//! [`ChunkVec`] (dense columns and posting storage) and [`PMap`] (keyed
//! lookups), plus `Arc`'d sorted runs in [`TimeIndex`]. Cloning an index
//! is therefore O(1) and an update copies only what it touches, which is
//! what lets a store publish a new version per commit while snapshots
//! keep reading the old one.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod attr;
pub mod bitset;
pub mod chunkvec;
pub mod closure;
pub mod error;
pub mod graph;
pub mod interval;
pub mod keyword;
pub mod pmap;
pub mod posting;
pub mod time;

pub use arena::{IdArena, NodeIdx};
pub use attr::AttrIndex;
pub use bitset::BitSet;
pub use chunkvec::ChunkVec;
pub use closure::{BfsClosure, MemoClosure, NaiveJoinClosure, ReachStrategy, TraverseOpts};
pub use error::{IndexError, Result};
pub use graph::{AncestryGraph, Direction, Edge};
pub use interval::IntervalClosure;
pub use keyword::KeywordIndex;
pub use pmap::PMap;
pub use posting::PostingList;
pub use time::TimeIndex;
