//! Tree geometry: the 8-ary level structure over the NVM address space.
//!
//! Table II: for 16 GB of protected data the SIT has 9 levels of 8-ary,
//! 64 B nodes. Leaves (level 0) are the CME counter blocks — one per 64
//! user-data lines — and the root (top level) lives in an on-chip register
//! rather than in NVM. Geometry answers every "where is it / who covers
//! it" question: data line → covering leaf, node → parent and child slot,
//! node → NVM line address, and the reverse mappings.

use scue_nvm::LineAddr;

/// Tree fan-out: 8 counters per node, 8 children per node (Fig. 4).
pub const ARITY: u64 = 8;

/// Data lines covered by one leaf counter block (64 minors, §II-B).
pub const LINES_PER_LEAF: u64 = 64;

/// Most stored levels any geometry has: a `u64` line count covers at
/// most 2^58 leaves, and each level above divides its width by
/// [`ARITY`] until it fits under the root, which takes 20 levels.
pub const MAX_STORED_LEVELS: usize = 20;

/// A node's position: `(level, index)`. Level 0 is the leaf (counter
/// block) level; the root is *not* a `NodeId` (it is on-chip, see
/// [`Parent::Root`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// Tree level, 0 = leaves.
    pub level: u8,
    /// Index within the level.
    pub index: u64,
}

impl NodeId {
    /// Makes a node id.
    pub const fn new(level: u8, index: u64) -> Self {
        Self { level, index }
    }

    /// The slot (0..8) this node occupies in its parent.
    pub const fn parent_slot(self) -> usize {
        (self.index % ARITY) as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}#{}", self.level, self.index)
    }
}

/// The parent of a node: either another stored node, or the on-chip root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parent {
    /// An NVM-resident tree node.
    Node(NodeId),
    /// The on-chip root register; the payload is the root counter slot
    /// (0..8) covering the child.
    Root(usize),
}

/// The ancestors of a node, nearest first: a fixed-capacity chain, so a
/// tree walk allocates nothing. Dereferences to a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ancestors {
    nodes: [NodeId; MAX_STORED_LEVELS - 1],
    len: usize,
}

impl std::ops::Deref for Ancestors {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.nodes[..self.len]
    }
}

/// Geometry of one integrity tree instance.
///
/// # Example
///
/// ```
/// use scue_itree::TreeGeometry;
///
/// // The paper's 16 GB configuration: 2^28 data lines.
/// let geom = TreeGeometry::for_data_lines(1 << 28);
/// assert_eq!(geom.total_levels(), 9);
/// assert_eq!(geom.leaf_count(), 1 << 22);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeGeometry {
    data_lines: u64,
    /// Node count per stored level, `[0] = leaves`. The on-chip root is
    /// not included.
    level_counts: Vec<u64>,
    /// NVM base line address per stored level.
    level_bases: Vec<u64>,
}

impl TreeGeometry {
    /// Geometry for a data region of `data_lines` 64 B lines, with one
    /// leaf counter block per 64 lines, metadata laid out directly after
    /// the data region.
    ///
    /// # Panics
    ///
    /// Panics if `data_lines` is zero.
    pub fn for_data_lines(data_lines: u64) -> Self {
        assert!(data_lines > 0, "cannot protect an empty data region");
        let leaf_count = data_lines.div_ceil(LINES_PER_LEAF);
        let mut level_counts = vec![leaf_count];
        while *level_counts.last().expect("non-empty") > ARITY {
            let next = level_counts.last().expect("non-empty").div_ceil(ARITY);
            level_counts.push(next);
        }
        let mut level_bases = Vec::with_capacity(level_counts.len());
        let mut base = data_lines;
        for &count in &level_counts {
            level_bases.push(base);
            base += count;
        }
        Self {
            data_lines,
            level_counts,
            level_bases,
        }
    }

    /// The paper's 16 GB configuration (2^28 data lines, 9 levels).
    pub fn paper_16gb() -> Self {
        Self::for_data_lines(1 << 28)
    }

    /// A tiny geometry for tests: `leaves` leaf nodes (protecting
    /// `leaves * 64` data lines).
    pub fn tiny(leaves: u64) -> Self {
        Self::for_data_lines(leaves * LINES_PER_LEAF)
    }

    /// Number of 64 B lines of protected user data.
    pub fn data_lines(&self) -> u64 {
        self.data_lines
    }

    /// Number of leaf counter blocks.
    pub fn leaf_count(&self) -> u64 {
        self.level_counts[0]
    }

    /// Stored (NVM-resident) levels — everything below the on-chip root.
    pub fn stored_levels(&self) -> u8 {
        self.level_counts.len() as u8
    }

    /// Total tree levels including the on-chip root.
    pub fn total_levels(&self) -> u8 {
        self.stored_levels() + 1
    }

    /// Node count at stored level `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not a stored level.
    pub fn level_count(&self, level: u8) -> u64 {
        self.level_counts[level as usize]
    }

    /// First NVM line beyond data + metadata (device capacity needed).
    pub fn total_lines(&self) -> u64 {
        *self.level_bases.last().expect("non-empty") + *self.level_counts.last().expect("non-empty")
    }

    /// Whether `addr` is in the user-data region.
    pub fn is_data_line(&self, addr: LineAddr) -> bool {
        addr.raw() < self.data_lines
    }

    /// The leaf counter block covering a user-data line.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data line.
    pub fn leaf_of_data(&self, addr: LineAddr) -> NodeId {
        assert!(self.is_data_line(addr), "{addr} is not a data line");
        NodeId::new(0, addr.raw() / LINES_PER_LEAF)
    }

    /// The minor-counter slot (0..64) of a data line within its leaf.
    pub fn minor_slot_of_data(&self, addr: LineAddr) -> usize {
        (addr.raw() % LINES_PER_LEAF) as usize
    }

    /// The NVM line address of a stored node.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the geometry.
    pub fn node_addr(&self, node: NodeId) -> LineAddr {
        let level = node.level as usize;
        assert!(level < self.level_counts.len(), "level {level} not stored");
        assert!(
            node.index < self.level_counts[level],
            "node {node} beyond level width {}",
            self.level_counts[level]
        );
        LineAddr::new(self.level_bases[level] + node.index)
    }

    /// The node stored at an NVM line, if the line is in a tree region.
    pub fn node_at_addr(&self, addr: LineAddr) -> Option<NodeId> {
        let raw = addr.raw();
        for (level, (&base, &count)) in self
            .level_bases
            .iter()
            .zip(self.level_counts.iter())
            .enumerate()
        {
            if raw >= base && raw < base + count {
                return Some(NodeId::new(level as u8, raw - base));
            }
        }
        None
    }

    /// The parent of a stored node — another node, or the on-chip root.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the geometry.
    pub fn parent(&self, node: NodeId) -> Parent {
        let level = node.level as usize;
        assert!(level < self.level_counts.len(), "level {level} not stored");
        assert!(
            node.index < self.level_counts[level],
            "node {node} out of range"
        );
        if level + 1 == self.level_counts.len() {
            Parent::Root((node.index % ARITY) as usize)
        } else {
            Parent::Node(NodeId::new(node.level + 1, node.index / ARITY))
        }
    }

    /// The chain of ancestors of `node`, nearest first, ending at the
    /// root slot.
    pub fn ancestors(&self, node: NodeId) -> (Ancestors, usize) {
        let mut chain = Ancestors {
            nodes: [NodeId::new(0, 0); MAX_STORED_LEVELS - 1],
            len: 0,
        };
        let mut cur = node;
        loop {
            match self.parent(cur) {
                Parent::Node(p) => {
                    chain.nodes[chain.len] = p;
                    chain.len += 1;
                    cur = p;
                }
                Parent::Root(slot) => return (chain, slot),
            }
        }
    }

    /// The children of a stored node at `level > 0`: up to 8 nodes at
    /// `level - 1` (the last node of a level may have fewer).
    ///
    /// # Panics
    ///
    /// Panics if `node.level == 0` (leaf children are data lines) or the
    /// node is outside the geometry.
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        assert!(node.level > 0, "leaves have no node children");
        let child_level = (node.level - 1) as usize;
        assert!(child_level < self.level_counts.len());
        let child_count = self.level_counts[child_level];
        let first = node.index * ARITY;
        (first..(first + ARITY).min(child_count))
            .map(|i| NodeId::new(node.level - 1, i))
            .collect()
    }

    /// The top-level stored nodes — the direct children of the root.
    pub fn root_children(&self) -> Vec<NodeId> {
        let top = (self.level_counts.len() - 1) as u8;
        (0..self.level_counts[top as usize])
            .map(|i| NodeId::new(top, i))
            .collect()
    }

    /// The root counter slot covering a leaf: which of the root's 8
    /// counters sums over this leaf's subtree.
    pub fn root_slot_of_leaf(&self, leaf_index: u64) -> usize {
        // Each root child covers arity^(stored_levels - 1) leaves.
        let leaves_per_top = ARITY.pow(self.stored_levels() as u32 - 1);
        ((leaf_index / leaves_per_top) % ARITY) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_has_nine_levels() {
        let g = TreeGeometry::paper_16gb();
        assert_eq!(g.total_levels(), 9);
        assert_eq!(g.stored_levels(), 8);
        assert_eq!(g.leaf_count(), 1 << 22);
        assert_eq!(g.level_count(7), 2, "top stored level has two nodes");
    }

    #[test]
    fn tiny_geometry_levels() {
        let g = TreeGeometry::tiny(64);
        // 64 leaves -> L1 has 8 -> root on top: stored levels = 2.
        assert_eq!(g.stored_levels(), 2);
        assert_eq!(g.total_levels(), 3);
        assert_eq!(g.level_count(1), 8);
    }

    #[test]
    fn single_leaf_geometry() {
        let g = TreeGeometry::tiny(1);
        assert_eq!(g.stored_levels(), 1);
        assert_eq!(g.leaf_count(), 1);
        assert_eq!(g.parent(NodeId::new(0, 0)), Parent::Root(0));
    }

    #[test]
    fn leaf_of_data_and_minor_slot() {
        let g = TreeGeometry::tiny(4);
        assert_eq!(g.leaf_of_data(LineAddr::new(0)), NodeId::new(0, 0));
        assert_eq!(g.leaf_of_data(LineAddr::new(63)), NodeId::new(0, 0));
        assert_eq!(g.leaf_of_data(LineAddr::new(64)), NodeId::new(0, 1));
        assert_eq!(g.minor_slot_of_data(LineAddr::new(65)), 1);
    }

    #[test]
    fn node_addr_bijection() {
        let g = TreeGeometry::tiny(64);
        for level in 0..g.stored_levels() {
            for index in 0..g.level_count(level) {
                let node = NodeId::new(level, index);
                let addr = g.node_addr(node);
                assert_eq!(g.node_at_addr(addr), Some(node));
                assert!(!g.is_data_line(addr), "metadata beyond data region");
            }
        }
    }

    #[test]
    fn data_lines_are_not_nodes() {
        let g = TreeGeometry::tiny(4);
        assert_eq!(g.node_at_addr(LineAddr::new(0)), None);
        assert_eq!(g.node_at_addr(LineAddr::new(255)), None);
    }

    #[test]
    fn parent_child_consistency() {
        let g = TreeGeometry::tiny(64);
        for index in 0..64 {
            let leaf = NodeId::new(0, index);
            match g.parent(leaf) {
                Parent::Node(p) => {
                    assert!(g.children(p).contains(&leaf));
                    assert_eq!(leaf.parent_slot(), (index % 8) as usize);
                }
                Parent::Root(_) => panic!("leaves of a 3-level tree have node parents"),
            }
        }
    }

    #[test]
    fn ancestors_end_at_root() {
        let g = TreeGeometry::paper_16gb();
        let (chain, slot) = g.ancestors(NodeId::new(0, 12345));
        assert_eq!(chain.len() as u8, g.stored_levels() - 1);
        assert!(slot < 8);
        // The chain is strictly ascending in level.
        for (i, n) in chain.iter().enumerate() {
            assert_eq!(n.level as usize, i + 1);
        }
    }

    #[test]
    fn widest_geometry_fits_the_chain_capacity() {
        // About as many leaves as a u64 line count can hold once the
        // metadata region must fit beside the data.
        let g = TreeGeometry::for_data_lines(u64::MAX - (1 << 59) + 1);
        assert_eq!(g.stored_levels() as usize, MAX_STORED_LEVELS);
        let (chain, _) = g.ancestors(NodeId::new(0, g.leaf_count() - 1));
        assert_eq!(chain.len(), MAX_STORED_LEVELS - 1);
    }

    #[test]
    fn root_slot_of_leaf_partitions_evenly() {
        let g = TreeGeometry::tiny(64);
        // 64 leaves over 8 root slots (L1 has 8 nodes, each a root child
        // covering 8 leaves).
        assert_eq!(g.root_slot_of_leaf(0), 0);
        assert_eq!(g.root_slot_of_leaf(7), 0);
        assert_eq!(g.root_slot_of_leaf(8), 1);
        assert_eq!(g.root_slot_of_leaf(63), 7);
    }

    #[test]
    fn root_slot_matches_ancestor_slot() {
        let g = TreeGeometry::paper_16gb();
        for &leaf in &[0u64, 77, 4095, (1 << 22) - 1] {
            let (_, slot) = g.ancestors(NodeId::new(0, leaf));
            assert_eq!(slot, g.root_slot_of_leaf(leaf));
        }
    }

    #[test]
    fn total_lines_covers_all_regions() {
        let g = TreeGeometry::tiny(64);
        // 64*64 data + 64 leaves + 8 L1 = 4168.
        assert_eq!(g.total_lines(), 64 * 64 + 64 + 8);
    }

    #[test]
    fn root_children_of_paper_tree() {
        let g = TreeGeometry::paper_16gb();
        let tops = g.root_children();
        assert_eq!(tops.len(), 2);
        assert!(tops.iter().all(|n| n.level == 7));
    }

    #[test]
    #[should_panic(expected = "not a data line")]
    fn leaf_of_metadata_panics() {
        let g = TreeGeometry::tiny(4);
        let _ = g.leaf_of_data(LineAddr::new(256));
    }
}
