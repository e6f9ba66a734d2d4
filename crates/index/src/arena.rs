//! Dense node-id arena.
//!
//! Posting lists and reachability bitsets want small dense integers, not
//! 128-bit identity hashes. The arena maintains the bijection.

use crate::chunkvec::ChunkVec;
use crate::pmap::PMap;
use pass_model::TupleSetId;

/// A dense index assigned to a [`TupleSetId`]; valid only within the arena
/// that issued it.
pub type NodeIdx = u32;

/// Bijective map between tuple-set identities and dense indexes. Both
/// directions are persistent containers, so a clone shares them.
#[derive(Debug, Default, Clone)]
pub struct IdArena {
    to_idx: PMap<TupleSetId, NodeIdx>,
    to_id: ChunkVec<TupleSetId>,
}

impl IdArena {
    /// An empty arena.
    pub fn new() -> Self {
        IdArena::default()
    }

    /// Returns the dense index for `id`, assigning the next free one on
    /// first sight.
    pub fn intern(&mut self, id: TupleSetId) -> NodeIdx {
        if let Some(&idx) = self.to_idx.get(&id) {
            return idx;
        }
        let idx = u32::try_from(self.to_id.len()).expect("arena holds < 2^32 nodes");
        self.to_idx.insert(id, idx);
        self.to_id.push(id);
        idx
    }

    /// Dense index for an id already interned, if any.
    pub fn lookup(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.to_idx.get(&id).copied()
    }

    /// The identity behind a dense index.
    pub fn resolve(&self, idx: NodeIdx) -> Option<TupleSetId> {
        self.to_id.get(idx as usize).copied()
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.to_id.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.to_id.is_empty()
    }

    /// Maps a batch of dense indexes back to identities, skipping any that
    /// are unknown (defensive; should not happen for arena-issued indexes).
    pub fn resolve_all(&self, idxs: &[NodeIdx]) -> Vec<TupleSetId> {
        idxs.iter().filter_map(|&i| self.resolve(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut arena = IdArena::new();
        let a = arena.intern(TupleSetId(100));
        let b = arena.intern(TupleSetId(200));
        let a2 = arena.intern(TupleSetId(100));
        assert_eq!(a, a2);
        assert_eq!((a, b), (0, 1));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn lookup_and_resolve_round_trip() {
        let mut arena = IdArena::new();
        let idx = arena.intern(TupleSetId(42));
        assert_eq!(arena.lookup(TupleSetId(42)), Some(idx));
        assert_eq!(arena.resolve(idx), Some(TupleSetId(42)));
        assert_eq!(arena.lookup(TupleSetId(43)), None);
        assert_eq!(arena.resolve(999), None);
    }

    #[test]
    fn resolve_all_skips_unknown() {
        let mut arena = IdArena::new();
        arena.intern(TupleSetId(1));
        assert_eq!(arena.resolve_all(&[0, 7]), vec![TupleSetId(1)]);
    }
}
