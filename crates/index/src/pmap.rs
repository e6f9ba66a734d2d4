//! A persistent ordered map: an insert-only B-tree of `Arc`'d nodes.
//!
//! The keyed half of the shared index state (tuple-set id → node, and
//! attribute → value → postings). Like [`crate::ChunkVec`], a clone is
//! one `Arc` bump and a write copies only the root-to-leaf path it walks,
//! and only where another clone still shares it. Nothing in the indexes
//! is ever removed (records never un-exist, PASS property 4), so the map
//! has no delete.

use std::borrow::Borrow;
use std::ops::Bound;
use std::sync::Arc;

/// Keys per node before it splits.
const MAX_KEYS: usize = 15;

#[derive(Clone)]
struct BNode<K, V> {
    entries: Vec<(K, V)>,
    /// Empty in leaves; `entries.len() + 1` children otherwise.
    kids: Vec<Arc<BNode<K, V>>>,
}

/// An ordered map whose clones share structure (see the module docs).
pub struct PMap<K, V> {
    root: Option<Arc<BNode<K, V>>>,
    len: usize,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<K, V> Clone for PMap<K, V> {
    /// O(1): the clone shares every node with `self`.
    fn clone(&self) -> Self {
        PMap { root: self.root.clone(), len: self.len }
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Where `key` sits among `entries`: `Ok` on a hit, `Err(child)`
/// otherwise.
fn search<K: Borrow<Q>, V, Q: Ord + ?Sized>(entries: &[(K, V)], key: &Q) -> Result<usize, usize> {
    entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
}

impl<K, V> PMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        PMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value under `key`.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match search(&node.entries, key) {
                Ok(i) => return node.entries.get(i).map(|(_, v)| v),
                Err(i) => node = node.kids.get(i)?,
            }
        }
    }

    /// True when `key` is present.
    pub fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.get(key).is_some()
    }

    /// Entries in key order.
    pub fn iter(&self) -> Range<'_, K, V> {
        let mut stack = Vec::new();
        let mut next = self.root.as_deref();
        while let Some(node) = next {
            stack.push((node, 0));
            next = node.kids.first().map(|kid| &**kid);
        }
        Range { stack }
    }

    /// Keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Entries with keys inside `(low, high)`, in key order. Inverted
    /// bounds yield nothing.
    pub fn range<'a, Q: Ord + ?Sized>(
        &'a self,
        low: Bound<&Q>,
        high: Bound<&'a Q>,
    ) -> impl Iterator<Item = (&'a K, &'a V)> + 'a
    where
        K: Borrow<Q>,
    {
        self.seek(low).take_while(move |(k, _)| match high {
            Bound::Included(h) => (*k).borrow() <= h,
            Bound::Excluded(h) => (*k).borrow() < h,
            Bound::Unbounded => true,
        })
    }

    /// An in-order iterator positioned at the first key inside `low`.
    fn seek<Q: Ord + ?Sized>(&self, low: Bound<&Q>) -> Range<'_, K, V>
    where
        K: Borrow<Q>,
    {
        let mut stack = Vec::new();
        let mut next = self.root.as_deref();
        while let Some(node) = next {
            let pos = match low {
                Bound::Unbounded => 0,
                Bound::Included(l) => node.entries.partition_point(|(k, _)| k.borrow() < l),
                Bound::Excluded(l) => node.entries.partition_point(|(k, _)| k.borrow() <= l),
            };
            stack.push((node, pos));
            next = node.kids.get(pos).map(|kid| &**kid);
        }
        Range { stack }
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// The value under `key` for writing. Copies the path to it where
    /// another clone still shares it; a miss copies nothing.
    pub fn get_mut<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        if !self.contains_key(key) {
            return None;
        }
        let mut node = Arc::make_mut(self.root.as_mut()?);
        loop {
            match search(&node.entries, key) {
                Ok(i) => return node.entries.get_mut(i).map(|(_, v)| v),
                Err(i) => node = Arc::make_mut(node.kids.get_mut(i)?),
            }
        }
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(root) = self.root.as_mut() else {
            self.root = Some(Arc::new(BNode { entries: vec![(key, value)], kids: Vec::new() }));
            self.len = 1;
            return None;
        };
        let (old, split) = insert_into(root, key, value);
        if let Some((median, right)) = split {
            let left = std::mem::replace(root, Arc::new(BNode::empty()));
            *root = Arc::new(BNode { entries: vec![median], kids: vec![left, right] });
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }
}

impl<K, V> BNode<K, V> {
    fn empty() -> Self {
        BNode { entries: Vec::new(), kids: Vec::new() }
    }
}

type Split<K, V> = Option<((K, V), Arc<BNode<K, V>>)>;

/// Inserts below `node`; returns the replaced value and, when `node`
/// overflowed, the median entry and the new right sibling.
fn insert_into<K: Ord + Clone, V: Clone>(
    node: &mut Arc<BNode<K, V>>,
    key: K,
    value: V,
) -> (Option<V>, Split<K, V>) {
    let node = Arc::make_mut(node);
    let i = match search(&node.entries, &key) {
        Ok(i) => return (Some(std::mem::replace(&mut node.entries[i].1, value)), None),
        Err(i) => i,
    };
    let appended = i == node.entries.len();
    if node.kids.is_empty() {
        node.entries.insert(i, (key, value));
    } else {
        match insert_into(&mut node.kids[i], key, value) {
            (None, Some((median, right))) => {
                node.entries.insert(i, median);
                node.kids.insert(i + 1, right);
            }
            (old, _) => return (old, None),
        }
    }
    if node.entries.len() <= MAX_KEYS {
        return (None, None);
    }
    // Keys arriving in ascending order (timestamps, sequence numbers)
    // would leave every left node half empty after a middle split, so an
    // append leaves the left node full instead.
    let mid = if appended { node.entries.len() - 2 } else { node.entries.len() / 2 };
    let entries = node.entries.split_off(mid + 1);
    let kids = if node.kids.is_empty() { Vec::new() } else { node.kids.split_off(mid + 1) };
    let Some(median) = node.entries.pop() else {
        unreachable!("an overflowing node holds more than one entry")
    };
    (None, Some((median, Arc::new(BNode { entries, kids }))))
}

/// In-order iterator over a [`PMap`], from [`PMap::iter`].
pub struct Range<'a, K, V> {
    /// The path to the next entry: each node with the index of the key
    /// it yields once the subtree to that key's left is exhausted.
    stack: Vec<(&'a BNode<K, V>, usize)>,
}

impl<'a, K, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            let (node, pos) = self.stack.last_mut()?;
            let node: &'a BNode<K, V> = node;
            if *pos >= node.entries.len() {
                self.stack.pop();
                continue;
            }
            let i = *pos;
            *pos += 1;
            // Descend to the leftmost entry of the subtree right of key i.
            let mut next = node.kids.get(i + 1).map(|kid| &**kid);
            while let Some(kid) = next {
                self.stack.push((kid, 0));
                next = kid.kids.first().map(|grandkid| &**grandkid);
            }
            let (k, v) = &node.entries[i];
            return Some((k, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_ordered_iteration() {
        let mut m = PMap::new();
        for k in (0..1_000u32).rev().step_by(3) {
            assert_eq!(m.insert(k, k * 2), None);
        }
        assert_eq!(m.insert(999, 0), Some(1_998));
        assert_eq!(m.len(), 334);
        assert_eq!(m.get(&3), Some(&6));
        assert_eq!(m.get(&4), None);
        let keys: Vec<u32> = m.keys().copied().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), 334);
    }

    #[test]
    fn ranges_honour_bounds() {
        let m: PMap<u32, ()> = {
            let mut m = PMap::new();
            (0..200).for_each(|k| {
                m.insert(k * 2, ());
            });
            m
        };
        let got: Vec<u32> =
            m.range(Bound::Included(&10), Bound::Excluded(&20)).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18]);
        let got: Vec<u32> =
            m.range(Bound::Excluded(&395), Bound::Unbounded).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![396, 398]);
        assert_eq!(m.range(Bound::Included(&30), Bound::Included(&10)).count(), 0);
    }

    #[test]
    fn clones_do_not_see_later_writes() {
        let mut m = PMap::new();
        for k in 0..100u32 {
            m.insert(k, k);
        }
        let before = m.clone();
        *m.get_mut(&7).unwrap() = 70;
        m.insert(1_000, 1);
        assert_eq!(before.get(&7), Some(&7));
        assert_eq!(before.get(&1_000), None);
        assert_eq!(m.get(&7), Some(&70));
        assert_eq!(m.get_mut(&2_000), None);
    }
}
