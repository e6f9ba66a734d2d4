//! The ancestry graph: derivation edges between tuple sets.
//!
//! "Queries are often recursive, as there may have been several steps
//! involved with multiple intermediate data sets" (§II-B). The graph keeps
//! parent and child adjacency so closure queries run in both directions —
//! "backwards, to find ultimate origins, and also forwards, to find
//! derived data that may be many generations downstream" (§III-D).
//!
//! Parents referenced before (or without ever) being inserted get
//! placeholder nodes: provenance must survive ancestor removal (PASS
//! property 4) and ancestors may live at other sites.

use crate::arena::{IdArena, NodeIdx};
use crate::chunkvec::ChunkVec;
use pass_model::TupleSetId;

/// One directed derivation edge (child → parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The adjacent node.
    pub node: NodeIdx,
    /// True when this derivation crossed an abstraction boundary (§V:
    /// "gcc 3.3.3"): traversals may stop here instead of expanding.
    pub abstracted: bool,
}

/// Direction of a closure traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow child → parent edges ("find ultimate origins").
    Ancestors,
    /// Follow parent → child edges ("find all downstream data").
    Descendants,
}

/// The in-memory ancestry DAG. Its columns are [`ChunkVec`]s, so a clone
/// shares them and an insert copies only the chunks it touches.
#[derive(Debug, Default, Clone)]
pub struct AncestryGraph {
    arena: IdArena,
    parents: ChunkVec<Vec<Edge>>,
    children: ChunkVec<Vec<Edge>>,
    /// Nodes that exist only as referenced parents, never inserted.
    placeholder: ChunkVec<bool>,
    edge_count: usize,
}

impl AncestryGraph {
    /// An empty graph.
    pub fn new() -> Self {
        AncestryGraph::default()
    }

    fn ensure_node(&mut self, id: TupleSetId, is_placeholder: bool) -> NodeIdx {
        let idx = self.arena.intern(id);
        while self.parents.len() <= idx as usize {
            self.parents.push(Vec::new());
            self.children.push(Vec::new());
            self.placeholder.push(true);
        }
        if !is_placeholder && self.is_placeholder(idx) {
            if let Some(flag) = self.placeholder.get_mut(idx as usize) {
                *flag = false;
            }
        }
        idx
    }

    /// Inserts (or completes) a node with its derivation edges.
    /// `parents` pairs each parent id with the `abstracted` flag of the
    /// tool that performed the derivation.
    pub fn insert(&mut self, id: TupleSetId, parents: &[(TupleSetId, bool)]) -> NodeIdx {
        let idx = self.ensure_node(id, false);
        for &(parent_id, abstracted) in parents {
            let pidx = self.ensure_node(parent_id, true);
            if let Some(edges) = self.parents.get_mut(idx as usize) {
                edges.push(Edge { node: pidx, abstracted });
            }
            if let Some(edges) = self.children.get_mut(pidx as usize) {
                edges.push(Edge { node: idx, abstracted });
            }
            self.edge_count += 1;
        }
        idx
    }

    /// Dense index of an id, if known.
    pub fn lookup(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.arena.lookup(id)
    }

    /// Identity behind a dense index.
    pub fn resolve(&self, idx: NodeIdx) -> Option<TupleSetId> {
        self.arena.resolve(idx)
    }

    /// Maps dense indexes back to identities.
    pub fn resolve_all(&self, idxs: &[NodeIdx]) -> Vec<TupleSetId> {
        self.arena.resolve_all(idxs)
    }

    /// Edges toward parents of `idx`.
    pub fn parents_of(&self, idx: NodeIdx) -> &[Edge] {
        self.parents.get(idx as usize).map_or(&[], Vec::as_slice)
    }

    /// Edges toward children of `idx`.
    pub fn children_of(&self, idx: NodeIdx) -> &[Edge] {
        self.children.get(idx as usize).map_or(&[], Vec::as_slice)
    }

    /// Adjacency in a traversal direction.
    pub fn neighbors(&self, idx: NodeIdx, dir: Direction) -> &[Edge] {
        match dir {
            Direction::Ancestors => self.parents_of(idx),
            Direction::Descendants => self.children_of(idx),
        }
    }

    /// True when the node was only ever referenced as a parent (removed
    /// ancestor or remote tuple set).
    pub fn is_placeholder(&self, idx: NodeIdx) -> bool {
        self.placeholder.get(idx as usize).copied().unwrap_or(false)
    }

    /// Number of nodes (placeholders included).
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// Number of derivation edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// All edges as `(child, parent, abstracted)` triples — the flat
    /// relation the naive-join closure baseline scans.
    pub fn all_edges(&self) -> Vec<(NodeIdx, NodeIdx, bool)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (child, edges) in self.parents.iter().enumerate() {
            for e in edges {
                out.push((child as NodeIdx, e.node, e.abstracted));
            }
        }
        out
    }

    /// Topological order (parents before children), or the node on a cycle.
    ///
    /// Well-formed provenance cannot cycle (identity hashes bind children
    /// to parents), so an `Err` here means forged or corrupt records.
    pub fn topo_order(&self) -> Result<Vec<NodeIdx>, crate::error::IndexError> {
        let n = self.node_count();
        let mut in_deg = vec![0u32; n];
        for (child, edges) in self.parents.iter().enumerate() {
            in_deg[child] = edges.len() as u32;
        }
        let mut queue: Vec<NodeIdx> = (0..n as u32).filter(|&i| in_deg[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0usize;
        while head < queue.len() {
            let node = queue[head];
            head += 1;
            order.push(node);
            for e in self.children_of(node) {
                in_deg[e.node as usize] -= 1;
                if in_deg[e.node as usize] == 0 {
                    queue.push(e.node);
                }
            }
        }
        if order.len() != n {
            let culprit = (0..n as u32).find(|&i| in_deg[i as usize] > 0).unwrap_or(0);
            return Err(crate::error::IndexError::CycleDetected { node: culprit });
        }
        Ok(order)
    }

    /// Rough heap footprint.
    pub fn size_bytes(&self) -> usize {
        let edge = std::mem::size_of::<Edge>();
        self.parents.iter().map(|v| v.capacity() * edge).sum::<usize>()
            + self.children.iter().map(|v| v.capacity() * edge).sum::<usize>()
            + self.parents.size_bytes()
            + self.children.size_bytes()
            + self.node_count() * (16 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u128) -> TupleSetId {
        TupleSetId(n)
    }

    #[test]
    fn insert_builds_bidirectional_adjacency() {
        let mut g = AncestryGraph::new();
        let raw = g.insert(id(1), &[]);
        let derived = g.insert(id(2), &[(id(1), false)]);
        assert_eq!(g.parents_of(derived), &[Edge { node: raw, abstracted: false }]);
        assert_eq!(g.children_of(raw), &[Edge { node: derived, abstracted: false }]);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn forward_references_create_placeholders() {
        let mut g = AncestryGraph::new();
        let child = g.insert(id(2), &[(id(1), false)]);
        let parent = g.lookup(id(1)).unwrap();
        assert!(g.is_placeholder(parent));
        assert!(!g.is_placeholder(child));
        // Later real insert clears the placeholder bit.
        g.insert(id(1), &[]);
        assert!(!g.is_placeholder(parent));
    }

    #[test]
    fn diamond_topology() {
        // 1 -> 2, 1 -> 3, {2,3} -> 4
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        g.insert(id(2), &[(id(1), false)]);
        g.insert(id(3), &[(id(1), false)]);
        let four = g.insert(id(4), &[(id(2), false), (id(3), false)]);
        assert_eq!(g.parents_of(four).len(), 2);
        let order = g.topo_order().unwrap();
        let pos = |x: TupleSetId| order.iter().position(|&n| g.resolve(n) == Some(x)).unwrap();
        assert!(pos(id(1)) < pos(id(2)));
        assert!(pos(id(1)) < pos(id(3)));
        assert!(pos(id(2)) < pos(id(4)));
        assert!(pos(id(3)) < pos(id(4)));
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[(id(2), false)]);
        g.insert(id(2), &[(id(1), false)]);
        assert!(matches!(g.topo_order(), Err(crate::error::IndexError::CycleDetected { .. })));
    }

    #[test]
    fn abstracted_flag_is_preserved_per_edge() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        let c = g.insert(id(3), &[(id(1), true)]);
        assert!(g.parents_of(c)[0].abstracted);
    }

    #[test]
    fn all_edges_lists_child_parent_pairs() {
        let mut g = AncestryGraph::new();
        g.insert(id(1), &[]);
        g.insert(id(2), &[(id(1), false)]);
        g.insert(id(3), &[(id(1), true), (id(2), false)]);
        let mut edges = g.all_edges();
        edges.sort();
        let one = g.lookup(id(1)).unwrap();
        let two = g.lookup(id(2)).unwrap();
        let three = g.lookup(id(3)).unwrap();
        assert_eq!(edges, vec![(two, one, false), (three, one, true), (three, two, false)]);
    }
}
