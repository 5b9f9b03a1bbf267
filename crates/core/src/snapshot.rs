//! Copy-on-write catalog trie snapshots for online catalog evolution.
//!
//! The serving stack decodes against an immutable arena
//! [`IndexTrie`]; growing the catalog while the
//! fleet keeps answering requests therefore needs **snapshot semantics**:
//! in-flight batches must keep seeing the trie they started on while new
//! admissions see the grown one. [`CatalogTrie`] provides exactly that as
//! a *persistent* (append-only) trie with path copying: every insert
//! appends at most `levels + 1` fresh immutable nodes — the copied
//! root-to-leaf spine — and records a new root, while every unchanged
//! subtree is shared by node id with all earlier epochs. Old epochs are
//! bit-stable by construction because no node is ever mutated after it is
//! pushed (`tests/evolution.rs` pins this).
//!
//! A [`TrieSnapshot`] is a borrowed view of one epoch; its
//! [`materialize`](TrieSnapshot::materialize) walks the epoch's arena
//! nodes breadth-first into the canonical CSR [`IndexTrie`] for that epoch
//! — node-for-node identical to a full rebuild from the union catalog —
//! which is what the serving engines borrow (the `Router::swap_catalog`
//! path, see `docs/CATALOG.md`).

use lcrec_rqvae::{IndexError, IndexTrie, IndexTrieBuilder, ItemIndices};
use std::collections::{BTreeSet, VecDeque};

/// One immutable trie node: parallel ascending edge codes and child ids,
/// plus the bound item on full-depth leaves.
#[derive(Clone, Debug)]
struct Node {
    codes: Vec<u16>,
    children: Vec<u32>,
    item: Option<u32>,
}

impl Node {
    fn empty() -> Node {
        Node { codes: Vec::new(), children: Vec::new(), item: None }
    }
}

/// A copy-on-write prefix trie over semantic item IDs, with one root per
/// **epoch**: epoch 0 is the trie as built, and every successful
/// [`CatalogTrie::insert`] appends a new epoch whose root shares all
/// unchanged subtrees with the previous one. Old epochs stay valid and
/// bit-stable forever — the node arena is append-only.
///
/// Duplicate item ids and already-bound code paths are rejected with
/// typed [`IndexError`]s instead of silently shadowing the existing
/// binding (the regression `tests/evolution.rs` pins both).
///
/// # Examples
///
/// ```
/// use lcrec_core::CatalogTrie;
/// use lcrec_rqvae::{IndexTrie, ItemIndices};
///
/// let base = ItemIndices::new(vec![4, 4], vec![vec![0, 1], vec![2, 0]]);
/// let mut trie = CatalogTrie::from_indices(&base).expect("conflict-free");
/// assert_eq!(trie.epoch(), 0);
///
/// // Inserting a new item creates epoch 1; epoch 0 stays bit-stable.
/// let epoch = trie.insert(&[2, 3], 2).expect("free path");
/// assert_eq!(epoch, 1);
/// let old = trie.snapshot_at(0).expect("old epochs stay valid");
/// assert_eq!(old.item_at(&[2, 3]), None, "epoch 0 never sees the new item");
/// assert_eq!(trie.snapshot().item_at(&[2, 3]), Some(2));
///
/// // A materialized snapshot is node-for-node the full rebuild.
/// let union =
///     ItemIndices::new(vec![4, 4], vec![vec![0, 1], vec![2, 0], vec![2, 3]]);
/// assert_eq!(trie.materialize(), IndexTrie::build(&union));
/// ```
#[derive(Clone, Debug)]
pub struct CatalogTrie {
    levels: usize,
    /// Append-only node arena; entries are never mutated once pushed.
    nodes: Vec<Node>,
    /// Root node of each epoch, oldest first (never empty).
    roots: Vec<u32>,
    /// Item ids bound in any epoch (bindings are never removed).
    bound: BTreeSet<u32>,
}

impl CatalogTrie {
    /// An empty trie (epoch 0 holds no items) over `levels`-deep paths.
    pub fn new(levels: usize) -> CatalogTrie {
        CatalogTrie { levels, nodes: vec![Node::empty()], roots: vec![0], bound: BTreeSet::new() }
    }

    /// Builds epoch 0 from a whole catalog. Unlike
    /// [`IndexTrie::build`]'s silent first-insert-wins rule, a full-path
    /// conflict in `indices` is a typed [`IndexError::PathOccupied`].
    pub fn from_indices(indices: &ItemIndices) -> Result<CatalogTrie, IndexError> {
        let mut paths: Vec<(Vec<u16>, u32)> = indices
            .codes
            .iter()
            .enumerate()
            .map(|(item, codes)| (codes.clone(), item as u32))
            .collect();
        paths.sort_by(|a, b| a.0.cmp(&b.0));
        for w in paths.windows(2) {
            if let [(pa, ia), (pb, _)] = w {
                if pa == pb {
                    return Err(IndexError::PathOccupied { codes: pa.clone(), bound: *ia });
                }
            }
        }
        let mut trie = CatalogTrie {
            levels: indices.levels,
            nodes: Vec::new(),
            roots: Vec::new(),
            bound: paths.iter().map(|p| p.1).collect(),
        };
        let root = trie.carve(0, &paths);
        trie.roots.push(root);
        Ok(trie)
    }

    /// Recursively carves sorted unique `paths` (all sharing their first
    /// `depth` codes) into one subtree; returns the subtree's node id.
    fn carve(&mut self, depth: usize, paths: &[(Vec<u16>, u32)]) -> u32 {
        if depth == self.levels {
            let item = paths.first().map(|p| p.1);
            self.nodes.push(Node { codes: Vec::new(), children: Vec::new(), item });
            return (self.nodes.len() - 1) as u32;
        }
        let mut codes = Vec::new();
        let mut children = Vec::new();
        let mut i = 0usize;
        while i < paths.len() {
            let code = paths.get(i).and_then(|p| p.0.get(depth)).copied().unwrap_or(0);
            let mut j = i + 1;
            while paths.get(j).and_then(|p| p.0.get(depth)).copied() == Some(code) {
                j += 1;
            }
            let child = self.carve(depth + 1, paths.get(i..j).unwrap_or(&[]));
            codes.push(code);
            children.push(child);
            i = j;
        }
        self.nodes.push(Node { codes, children, item: None });
        (self.nodes.len() - 1) as u32
    }

    /// Number of index levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The latest epoch (0-based; one new epoch per successful insert).
    pub fn epoch(&self) -> u64 {
        (self.roots.len() - 1) as u64
    }

    /// Number of items bound across all epochs.
    pub fn items_len(&self) -> usize {
        self.bound.len()
    }

    /// Total arena size — grows by at most `levels + 1` nodes per insert,
    /// which is what makes the structural sharing visible in benches.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Inserts one `codes → item` binding by path copying: the new epoch's
    /// root-to-leaf spine is freshly appended, everything else is shared
    /// with the previous epoch. Returns the new epoch number. Fails with
    /// [`IndexError::LevelMismatch`] on a wrong path depth,
    /// [`IndexError::DuplicateItem`] when `item` is already bound and
    /// [`IndexError::PathOccupied`] when another item owns the path —
    /// never silently shadowing an existing binding.
    pub fn insert(&mut self, codes: &[u16], item: u32) -> Result<u64, IndexError> {
        if codes.len() != self.levels {
            return Err(IndexError::LevelMismatch { expected: self.levels, got: codes.len() });
        }
        if self.bound.contains(&item) {
            return Err(IndexError::DuplicateItem { item });
        }
        // Walk the current root down, recording the existing node (if any)
        // at every depth; the walk also detects an occupied full path.
        let mut chain: Vec<Option<u32>> = Vec::with_capacity(self.levels + 1);
        let mut cur = self.roots.last().copied();
        chain.push(cur);
        for &c in codes {
            cur = cur.and_then(|n| self.child_of(n, c));
            chain.push(cur);
        }
        if let Some(leaf) = chain.last().copied().flatten() {
            // Full-depth nodes exist only when an item is bound to them.
            let bound = self.node(leaf).and_then(|n| n.item).unwrap_or(item);
            return Err(IndexError::PathOccupied { codes: codes.to_vec(), bound });
        }
        // Copy the spine bottom-up: fresh leaf, then one copied ancestor
        // per level with the edge toward the fresh child swapped in.
        self.nodes.push(Node { codes: Vec::new(), children: Vec::new(), item: Some(item) });
        let mut child_id = (self.nodes.len() - 1) as u32;
        for (depth, &code) in codes.iter().enumerate().rev() {
            let mut node = match chain.get(depth).copied().flatten().and_then(|n| self.node(n)) {
                Some(n) => n.clone(),
                None => Node::empty(),
            };
            match node.codes.binary_search(&code) {
                Ok(pos) => {
                    if let Some(slot) = node.children.get_mut(pos) {
                        *slot = child_id;
                    }
                }
                Err(pos) => {
                    node.codes.insert(pos, code);
                    node.children.insert(pos, child_id);
                }
            }
            self.nodes.push(node);
            child_id = (self.nodes.len() - 1) as u32;
        }
        self.roots.push(child_id);
        self.bound.insert(item);
        lcrec_obs::counter_add("catalog.inserts", 1);
        Ok(self.epoch())
    }

    /// A view of the latest epoch.
    pub fn snapshot(&self) -> TrieSnapshot<'_> {
        TrieSnapshot {
            trie: self,
            epoch: self.epoch(),
            root: self.roots.last().copied().unwrap_or(0),
        }
    }

    /// A view of an arbitrary epoch; `None` once `epoch` exceeds
    /// [`CatalogTrie::epoch`]. Old epochs stay valid forever.
    pub fn snapshot_at(&self, epoch: u64) -> Option<TrieSnapshot<'_>> {
        let root = self.roots.get(epoch as usize).copied()?;
        Some(TrieSnapshot { trie: self, epoch, root })
    }

    /// [`TrieSnapshot::materialize`] of the latest epoch.
    pub fn materialize(&self) -> IndexTrie {
        self.snapshot().materialize()
    }

    /// [`TrieSnapshot::materialize`] of an arbitrary epoch.
    pub fn materialize_at(&self, epoch: u64) -> Option<IndexTrie> {
        Some(self.snapshot_at(epoch)?.materialize())
    }

    fn node(&self, id: u32) -> Option<&Node> {
        self.nodes.get(id as usize)
    }

    /// The child of `id` along edge `code`, if present.
    fn child_of(&self, id: u32, code: u16) -> Option<u32> {
        let n = self.node(id)?;
        let pos = n.codes.binary_search(&code).ok()?;
        n.children.get(pos).copied()
    }
}

/// A borrowed, immutable view of one [`CatalogTrie`] epoch. All lookups
/// resolve against that epoch's root, so a snapshot taken before an
/// insert keeps answering exactly as it did — the contract the serving
/// layer's drain-on-old-snapshot hot swap relies on.
#[derive(Clone, Copy, Debug)]
pub struct TrieSnapshot<'a> {
    trie: &'a CatalogTrie,
    epoch: u64,
    root: u32,
}

impl<'a> TrieSnapshot<'a> {
    /// The epoch this snapshot views.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of index levels.
    pub fn levels(&self) -> usize {
        self.trie.levels
    }

    /// The node reached by `prefix` under this epoch's root.
    fn node_at(&self, prefix: &[u16]) -> Option<&'a Node> {
        let mut id = self.root;
        for &c in prefix {
            id = self.trie.child_of(id, c)?;
        }
        self.trie.node(id)
    }

    /// Legal next codes after `prefix`, ascending, as a borrowed slice
    /// (empty if the prefix is illegal or complete) — the same contract
    /// as [`IndexTrie::allowed_slice`].
    pub fn allowed_slice(&self, prefix: &[u16]) -> &'a [u16] {
        self.node_at(prefix).map(|n| n.codes.as_slice()).unwrap_or(&[])
    }

    /// Legal next codes after `prefix` as an owned vector.
    pub fn allowed(&self, prefix: &[u16]) -> Vec<u16> {
        self.allowed_slice(prefix).to_vec()
    }

    /// The item whose full index is `codes` in this epoch, if any.
    pub fn item_at(&self, codes: &[u16]) -> Option<u32> {
        if codes.len() != self.trie.levels {
            return None;
        }
        self.node_at(codes).and_then(|n| n.item)
    }

    /// Number of items bound in this epoch (a full DFS walk — fine for
    /// diagnostics, not a hot path).
    pub fn items_len(&self) -> usize {
        let mut count = 0usize;
        let mut stack = vec![(self.root, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            let Some(node) = self.trie.node(id) else { continue };
            if depth == self.trie.levels {
                count += usize::from(node.item.is_some());
                continue;
            }
            for &child in &node.children {
                stack.push((child, depth + 1));
            }
        }
        count
    }

    /// Canonical text serialization, **byte-identical** to
    /// [`IndexTrie::to_text`] on the same contents: a `trie levels=L`
    /// header followed by one `c0.c1.….cL-1=item` line per stored item in
    /// ascending depth-first order.
    pub fn to_text(&self) -> String {
        let mut out = format!("trie levels={}\n", self.trie.levels);
        // Explicit DFS stack; edges are stored ascending, so push them
        // descending for the ascending code to pop first.
        let mut stack: Vec<(u32, Vec<u16>)> = vec![(self.root, Vec::new())];
        while let Some((id, path)) = stack.pop() {
            let Some(node) = self.trie.node(id) else { continue };
            if path.len() == self.trie.levels {
                if let Some(item) = node.item {
                    let codes: Vec<String> = path.iter().map(|c| c.to_string()).collect();
                    out.push_str(&format!("{}={}\n", codes.join("."), item));
                }
                continue;
            }
            for (&c, &child) in node.codes.iter().zip(&node.children).rev() {
                let mut next = path.clone();
                next.push(c);
                stack.push((child, next));
            }
        }
        out
    }

    /// Rebuilds this epoch as a canonical CSR [`IndexTrie`] — node-for-node
    /// identical to a full rebuild from the epoch's item set, which is the
    /// differential contract `tests/evolution.rs` pins. The serving
    /// engines borrow the materialized trie.
    ///
    /// One breadth-first walk of the epoch's reachable arena nodes, pushed
    /// straight into an [`IndexTrieBuilder`]: edges are already stored
    /// ascending, and the walk's FIFO order is the CSR numbering, so no
    /// path is ever rebuilt, sorted or parsed.
    pub fn materialize(&self) -> IndexTrie {
        let levels = self.trie.levels;
        let mut builder = IndexTrieBuilder::new(levels);
        let mut queue: VecDeque<(u32, usize)> = VecDeque::from([(self.root, 0)]);
        while let Some((id, depth)) = queue.pop_front() {
            match self.trie.node(id) {
                Some(node) if depth < levels => {
                    builder.push_node(&node.codes, None);
                    queue.extend(node.children.iter().map(|&child| (child, depth + 1)));
                }
                node => builder.push_node(&[], node.and_then(|n| n.item)),
            }
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ItemIndices {
        ItemIndices::new(
            vec![4, 4, 4],
            vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 2, 0], vec![3, 0, 0]],
        )
    }

    #[test]
    fn epoch_zero_matches_the_csr_build() {
        let idx = base();
        let trie = CatalogTrie::from_indices(&idx).expect("conflict-free");
        assert_eq!(trie.materialize(), IndexTrie::build(&idx));
        assert_eq!(trie.snapshot().to_text(), IndexTrie::build(&idx).to_text());
        assert_eq!(trie.epoch(), 0);
        assert_eq!(trie.items_len(), 4);
    }

    #[test]
    fn inserts_share_unchanged_subtrees() {
        let mut trie = CatalogTrie::from_indices(&base()).expect("conflict-free");
        let before = trie.num_nodes();
        trie.insert(&[0, 1, 0], 4).expect("free path");
        // Path copying appends at most levels + 1 nodes (here: a new leaf
        // plus copies of the three spine nodes).
        assert!(trie.num_nodes() <= before + 4, "insert copied too much");
        // The untouched [3, 0, 0] subtree is shared: both epochs resolve it.
        assert_eq!(trie.snapshot_at(0).and_then(|s| s.item_at(&[3, 0, 0])), Some(3));
        assert_eq!(trie.snapshot().item_at(&[3, 0, 0]), Some(3));
    }

    #[test]
    fn old_snapshots_stay_bit_stable() {
        let mut trie = CatalogTrie::from_indices(&base()).expect("conflict-free");
        let text0 = trie.snapshot().to_text();
        trie.insert(&[1, 1, 1], 4).expect("free path");
        trie.insert(&[2, 2, 2], 5).expect("free path");
        let old = trie.snapshot_at(0).expect("epoch 0 remains");
        assert_eq!(old.to_text(), text0, "epoch 0 bytes changed after inserts");
        assert_eq!(old.item_at(&[1, 1, 1]), None);
        assert_eq!(trie.snapshot().item_at(&[2, 2, 2]), Some(5));
        assert_eq!(trie.epoch(), 2);
    }

    #[test]
    fn duplicate_item_and_occupied_path_are_typed_errors() {
        let mut trie = CatalogTrie::from_indices(&base()).expect("conflict-free");
        assert_eq!(trie.insert(&[1, 1, 1], 2), Err(IndexError::DuplicateItem { item: 2 }));
        assert_eq!(
            trie.insert(&[0, 1, 2], 9),
            Err(IndexError::PathOccupied { codes: vec![0, 1, 2], bound: 0 })
        );
        assert_eq!(
            trie.insert(&[0, 1], 9),
            Err(IndexError::LevelMismatch { expected: 3, got: 2 })
        );
        // Failed inserts create no epoch and bind nothing.
        assert_eq!(trie.epoch(), 0);
        assert_eq!(trie.items_len(), 4);
    }

    #[test]
    fn empty_trie_grows_from_nothing() {
        let mut trie = CatalogTrie::new(2);
        assert_eq!(trie.snapshot().allowed_slice(&[]), &[] as &[u16]);
        trie.insert(&[1, 0], 0).expect("free path");
        assert_eq!(trie.snapshot().allowed(&[]), vec![1]);
        assert_eq!(trie.snapshot().item_at(&[1, 0]), Some(0));
        assert_eq!(trie.snapshot_at(0).map(|s| s.items_len()), Some(0));
    }
}
