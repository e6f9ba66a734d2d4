//! A persistent vector: chunks of 64 elements under a 64-way trie of
//! `Arc`s, plus an `Arc`'d tail chunk that appends go to.
//!
//! The store publishes its index state as one immutable value that
//! snapshots share. A commit that copied whole columns whenever a
//! snapshot was alive would cost O(store). Cloning a [`ChunkVec`] is one
//! `Arc` bump, and a write copies only the chunk and the trie path it
//! touches, and only where they are still shared
//! (`Arc::make_mut`). Unshared paths are mutated in place, so a store
//! with no live reader pays nothing for the sharing.

use std::sync::Arc;

const BITS: u32 = 6;
const WIDTH: usize = 1 << BITS;
const MASK: usize = WIDTH - 1;

/// A trie slot: a branch one level down, or a full chunk.
enum Link<T> {
    Branch(Arc<Branch<T>>),
    Leaf(Arc<[T; WIDTH]>),
}

impl<T> Clone for Link<T> {
    fn clone(&self) -> Self {
        match self {
            Link::Branch(branch) => Link::Branch(Arc::clone(branch)),
            Link::Leaf(items) => Link::Leaf(Arc::clone(items)),
        }
    }
}

/// Children inline, filled left to right, so a read costs one pointer
/// hop per level.
struct Branch<T> {
    kids: [Option<Link<T>>; WIDTH],
}

impl<T> Clone for Branch<T> {
    fn clone(&self) -> Self {
        Branch { kids: self.kids.clone() }
    }
}

impl<T> Branch<T> {
    fn new() -> Self {
        Branch { kids: std::array::from_fn(|_| None) }
    }
}

/// An append-mostly vector whose clones share structure (see the module
/// docs). Indexed reads walk `log64(len)` levels.
pub struct ChunkVec<T> {
    /// The full chunks.
    root: Option<Link<T>>,
    /// The `len % 64` elements after the last full chunk.
    tail: Option<Arc<Vec<T>>>,
    len: usize,
    /// Branch levels above the chunks (0: the root is a chunk).
    height: u32,
}

impl<T> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec { root: None, tail: None, len: 0, height: 0 }
    }
}

impl<T> Clone for ChunkVec<T> {
    /// O(1): the clone shares every chunk with `self`.
    fn clone(&self) -> Self {
        ChunkVec {
            root: self.root.clone(),
            tail: self.tail.clone(),
            len: self.len,
            height: self.height,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ChunkVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> ChunkVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        ChunkVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements held in full chunks (the rest sit in the tail).
    fn trie_len(&self) -> usize {
        self.len & !MASK
    }

    /// The element at `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.trie_len() {
            return self.tail.as_ref()?.get(i - self.trie_len());
        }
        let mut link = self.root.as_ref()?;
        let mut level = self.height;
        loop {
            match link {
                Link::Leaf(items) => return items.get(i & MASK),
                Link::Branch(branch) => {
                    link = branch.kids[(i >> (level * BITS)) & MASK].as_ref()?;
                    level -= 1;
                }
            }
        }
    }

    /// The last element.
    pub fn last(&self) -> Option<&T> {
        self.get(self.len.checked_sub(1)?)
    }

    /// The elements as contiguous chunks, in order.
    pub fn chunks(&self) -> Chunks<'_, T> {
        Chunks {
            root: self.root.as_ref(),
            stack: Vec::new(),
            tail: self.tail.as_deref().map(Vec::as_slice),
        }
    }

    /// The elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks().flatten()
    }

    /// Rough heap footprint of the chunks and trie (not of anything the
    /// elements own).
    pub fn size_bytes(&self) -> usize {
        self.len * std::mem::size_of::<T>() + self.len.div_ceil(WIDTH) * 32
    }
}

impl<T: Clone> ChunkVec<T> {
    /// Appends `value` to the tail chunk (copied first if shared). A
    /// full tail moves into the trie, copying only the shared part of
    /// the rightmost path.
    pub fn push(&mut self, value: T) {
        let tail = Arc::make_mut(self.tail.get_or_insert_with(|| Arc::new(Vec::new())));
        tail.push(value);
        self.len += 1;
        if tail.len() == WIDTH {
            let chunk = std::mem::take(tail);
            self.tail = None;
            self.push_chunk(chunk);
        }
    }

    /// Hangs a full chunk, the last `WIDTH` elements, into the trie.
    fn push_chunk(&mut self, chunk: Vec<T>) {
        let Ok(items) = <[T; WIDTH]>::try_from(chunk) else {
            unreachable!("the tail moves into the trie exactly when full")
        };
        let leaf = Link::Leaf(Arc::new(items));
        let start = self.len - WIDTH;
        let Some(mut root) = self.root.take() else {
            self.root = Some(leaf);
            return;
        };
        if start == WIDTH << (self.height * BITS) {
            let mut branch = Branch::new();
            branch.kids[0] = Some(root);
            root = Link::Branch(Arc::new(branch));
            self.height += 1;
        }
        let mut link = &mut root;
        let mut level = self.height;
        while let Link::Branch(branch) = link {
            let slot = &mut Arc::make_mut(branch).kids[(start >> (level * BITS)) & MASK];
            if level == 1 {
                *slot = Some(leaf);
                break;
            }
            link = slot.get_or_insert_with(|| Link::Branch(Arc::new(Branch::new())));
            level -= 1;
        }
        self.root = Some(root);
    }

    /// The element at `i` for writing, if in bounds. Copies the chunk and
    /// its path where another clone still shares them.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        let trie_len = self.trie_len();
        if i >= trie_len {
            return Arc::make_mut(self.tail.as_mut()?).get_mut(i - trie_len);
        }
        let mut link = self.root.as_mut()?;
        let mut level = self.height;
        loop {
            match link {
                Link::Leaf(items) => return Arc::make_mut(items).get_mut(i & MASK),
                Link::Branch(branch) => {
                    link = Arc::make_mut(branch).kids[(i >> (level * BITS)) & MASK].as_mut()?;
                    level -= 1;
                }
            }
        }
    }

    /// Grows the vector to `len` elements, filling with `value`.
    pub fn resize(&mut self, len: usize, value: T) {
        while self.len < len {
            self.push(value.clone());
        }
    }
}

impl<T: Clone> FromIterator<T> for ChunkVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = ChunkVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

/// Iterator over a [`ChunkVec`]'s chunks, from [`ChunkVec::chunks`].
pub struct Chunks<'a, T> {
    /// The trie root, until first visited.
    root: Option<&'a Link<T>>,
    /// Branches being walked (allocated only for a multi-chunk trie).
    stack: Vec<std::slice::Iter<'a, Option<Link<T>>>>,
    tail: Option<&'a [T]>,
}

impl<'a, T> Iterator for Chunks<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        let mut next = self.root.take();
        loop {
            match next {
                Some(Link::Leaf(items)) => return Some(&items[..]),
                Some(Link::Branch(branch)) => self.stack.push(branch.kids.iter()),
                None => {}
            }
            let Some(top) = self.stack.last_mut() else {
                return self.tail.take();
            };
            next = top.next().and_then(Option::as_ref);
            if next.is_none() {
                // Slots fill left to right: an empty one ends the branch.
                self.stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_and_iterate_across_levels() {
        let n = WIDTH * WIDTH + 7; // forces a third level
        let v: ChunkVec<usize> = (0..n).collect();
        assert_eq!(v.len(), n);
        assert_eq!(v.get(0), Some(&0));
        assert_eq!(v.get(WIDTH * WIDTH + 3), Some(&(WIDTH * WIDTH + 3)));
        assert_eq!(v.get(n), None);
        assert_eq!(v.last(), Some(&(n - 1)));
        assert!(v.iter().copied().eq(0..n));
        assert!(v.chunks().all(|c| c.len() <= WIDTH));
    }

    #[test]
    fn clones_do_not_see_later_writes() {
        let mut v: ChunkVec<u32> = (0..100).collect();
        let before = v.clone();
        *v.get_mut(5).unwrap() = 500;
        v.push(100);
        assert_eq!(before.get(5), Some(&5));
        assert_eq!(before.len(), 100);
        assert_eq!(v.get(5), Some(&500));
        assert_eq!(v.len(), 101);
    }

    #[test]
    fn resize_fills() {
        let mut v: ChunkVec<bool> = ChunkVec::new();
        v.resize(40, false);
        assert_eq!(v.len(), 40);
        assert!(v.iter().all(|b| !b));
    }
}
