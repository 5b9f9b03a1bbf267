//! Item index containers and the prefix trie used for constrained decoding.

use std::collections::HashMap;

/// Typed failures of catalog indexing operations: checked trie
/// construction ([`IndexTrie::try_build`]), copy-on-write inserts
/// (`lcrec_core::CatalogTrie`) and incremental admission
/// (`crate::CatalogUpdater`). Every variant names the offending item or
/// code path, so callers can log or surface the exact conflict instead of
/// silently shadowing it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexError {
    /// The item id is already bound to a code path in this index.
    DuplicateItem {
        /// The already-bound item id.
        item: u32,
    },
    /// The full code path is already bound to another item.
    PathOccupied {
        /// The contested code path.
        codes: Vec<u16>,
        /// The item currently bound to it.
        bound: u32,
    },
    /// A code path's depth does not match the index's level count.
    LevelMismatch {
        /// Levels the index expects.
        expected: usize,
        /// Levels the caller supplied.
        got: usize,
    },
    /// An embedding's dimension does not match the model's input width.
    DimensionMismatch {
        /// Dimension the model expects.
        expected: usize,
        /// Dimension the caller supplied.
        got: usize,
    },
    /// Conflict resolution ran out of leaf slots: every cohort reachable
    /// within the relocation budget is full.
    SlotsExhausted {
        /// The prefix cohort the item last tried to land in.
        prefix: Vec<u16>,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::DuplicateItem { item } => {
                write!(f, "item {item} is already bound to a code path")
            }
            IndexError::PathOccupied { codes, bound } => {
                let path: Vec<String> = codes.iter().map(|c| c.to_string()).collect();
                write!(f, "code path {} is already bound to item {bound}", path.join("."))
            }
            IndexError::LevelMismatch { expected, got } => {
                write!(f, "code path has {got} levels, index expects {expected}")
            }
            IndexError::DimensionMismatch { expected, got } => {
                write!(f, "embedding has dimension {got}, model expects {expected}")
            }
            IndexError::SlotsExhausted { prefix } => {
                let path: Vec<String> = prefix.iter().map(|c| c.to_string()).collect();
                write!(
                    f,
                    "no free leaf slot within the relocation budget (last cohort [{}])",
                    path.join(".")
                )
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// The learned multi-level indices of a whole catalog.
///
/// `codes[item][level]` is the codeword chosen at that level. The paper's
/// notation `<a_12><b_3><c_41><d_9>` corresponds to
/// `codes[item] = [12, 3, 41, 9]` with `levels = 4`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemIndices {
    /// Number of levels `H`.
    pub levels: usize,
    /// Codebook size per level. Level `l` codewords live in
    /// `0..codebook_sizes[l]`.
    pub codebook_sizes: Vec<usize>,
    /// Per-item code sequences, each of length `levels`.
    pub codes: Vec<Vec<u16>>,
}

impl ItemIndices {
    /// Builds the container, validating code ranges.
    pub fn new(codebook_sizes: Vec<usize>, codes: Vec<Vec<u16>>) -> Self {
        let levels = codebook_sizes.len();
        for (i, c) in codes.iter().enumerate() {
            assert_eq!(c.len(), levels, "item {i} has {} levels, expected {levels}", c.len());
            for (l, &code) in c.iter().enumerate() {
                assert!(
                    (code as usize) < codebook_sizes[l],
                    "item {i} level {l} code {code} out of {}",
                    codebook_sizes[l]
                );
            }
        }
        ItemIndices { levels, codebook_sizes, codes }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The code sequence of one item. Unknown item ids yield an empty
    /// slice rather than a panic, so serving-path lookups stay total.
    pub fn of(&self, item: u32) -> &[u16] {
        self.codes.get(item as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of items that share their full index with another item.
    /// The paper's USM step exists to drive this to zero.
    pub fn conflicts(&self) -> usize {
        let mut seen: HashMap<&[u16], usize> = HashMap::new();
        for c in &self.codes {
            *seen.entry(c.as_slice()).or_default() += 1;
        }
        seen.values().filter(|&&n| n > 1).map(|&n| n).sum() // lint: allow(det, reason = "sum over counts is an order-independent reduction")
    }

    /// True if every item has a unique full index.
    pub fn is_unique(&self) -> bool {
        self.conflicts() == 0
    }

    /// Total number of distinct tokens the LM vocabulary must gain —
    /// the paper's "usually ~1,000 additional tokens" (H × K).
    pub fn vocab_tokens(&self) -> usize {
        self.codebook_sizes.iter().sum()
    }

    /// Offset of level `l`'s tokens inside the flattened index-token block.
    /// Levels past the last clamp to the total (`take` never overruns).
    pub fn level_offset(&self, level: usize) -> usize {
        self.codebook_sizes.iter().take(level).sum()
    }

    /// Flattens `(level, code)` into a single token id in
    /// `0..vocab_tokens()`.
    pub fn flat_token(&self, level: usize, code: u16) -> usize {
        self.level_offset(level) + code as usize
    }

    /// Human-readable form, e.g. `<a_12><b_3><c_41><d_9>`.
    pub fn format(&self, item: u32) -> String {
        let letters = ['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'];
        self.codes[item as usize]
            .iter()
            .enumerate()
            .map(|(l, &c)| format!("<{}_{}>", letters[l % letters.len()], c))
            .collect()
    }

    /// Fraction of same-prefix item pairs (at `depth` levels) — a coarse
    /// measure of how hierarchical the code space is.
    pub fn prefix_sharing(&self, depth: usize) -> f32 {
        let n = self.codes.len();
        if n < 2 {
            return 0.0;
        }
        let mut groups: HashMap<&[u16], usize> = HashMap::new();
        for c in &self.codes {
            *groups.entry(&c[..depth.min(self.levels)]).or_default() += 1;
        }
        let pairs: usize = groups.values().map(|&g| g * (g - 1) / 2).sum(); // lint: allow(det, reason = "sum over per-group pair counts is an order-independent reduction")
        pairs as f32 / (n * (n - 1) / 2) as f32
    }
}

/// A prefix tree over item indices. Drives the paper's constrained beam
/// search: at each generation step only children of the current prefix are
/// legal, so every completed beam is a real item ("probabilities of tokens
/// that may result in illegal item indices will be assigned 0").
///
/// # Layout
///
/// The trie is stored as a **flattened arena in CSR form** rather than
/// pointer-per-node maps: nodes are numbered in breadth-first order, the
/// outgoing edges of node `n` occupy the contiguous span
/// `child_start[n]..child_start[n + 1]` of the parallel `edge_codes` /
/// `edge_child` arrays, and codes within a span are ascending. The beam
/// hot path ([`IndexTrie::allowed_slice`]) is then a two-array walk ending
/// in a borrowed slice — no hashing, no per-call allocation, no sort —
/// and lookups are cache-friendly binary searches over tiny spans (see
/// `docs/PERFORMANCE.md`). [`PointerTrie`] keeps the original
/// pointer-per-node structure as the differential-testing reference.
///
/// # Examples
///
/// ```
/// use lcrec_rqvae::{IndexTrie, ItemIndices};
///
/// // Three items with 2-level semantic IDs; items 0 and 1 share a prefix.
/// let indices = ItemIndices::new(vec![4, 4], vec![
///     vec![0, 0],
///     vec![0, 3],
///     vec![2, 1],
/// ]);
/// let trie = IndexTrie::build(&indices);
///
/// // Only learned code paths are legal at each step...
/// assert_eq!(trie.allowed(&[]), &[0, 2]);
/// assert_eq!(trie.allowed_slice(&[0]), &[0, 3]);
/// assert!(trie.allowed(&[1]).is_empty(), "no item starts with code 1");
///
/// // ...so every completed path resolves to a real item.
/// assert_eq!(trie.item_at(&[0, 3]), Some(1));
/// assert_eq!(trie.item_at(&[2, 3]), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexTrie {
    levels: usize,
    /// Node `n`'s edges are `edge_codes[child_start[n]..child_start[n+1]]`
    /// (ascending) with child ids in `edge_child` at the same positions.
    child_start: Vec<u32>,
    edge_codes: Vec<u16>,
    edge_child: Vec<u32>,
    /// Per-node bound item (depth-`levels` leaves only).
    items: Vec<Option<u32>>,
}

impl IndexTrie {
    /// Builds the trie from a set of item indices. When several items
    /// share a full index (a conflict USM is meant to eliminate), the
    /// lowest item id stays bound to the leaf — the same first-insert-wins
    /// rule as [`PointerTrie::build`].
    pub fn build(indices: &ItemIndices) -> Self {
        let paths: Vec<(Vec<u16>, u32)> = indices
            .codes
            .iter()
            .enumerate()
            .map(|(item, codes)| (codes.clone(), item as u32))
            .collect();
        IndexTrie::from_paths(indices.levels, paths)
    }

    /// [`IndexTrie::build`] with conflicts surfaced instead of swallowed:
    /// when two items share a full code path the silent first-insert-wins
    /// rule is replaced by a typed [`IndexError::PathOccupied`] naming the
    /// contested path and the item already bound to it. On a conflict-free
    /// input the result is node-for-node identical to [`IndexTrie::build`].
    pub fn try_build(indices: &ItemIndices) -> Result<Self, IndexError> {
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
        Ok(IndexTrie::from_paths(indices.levels, paths))
    }

    /// CSR construction from full code paths: stable-sort by code path
    /// (ties keep insertion order, so the first-bound item wins), dedup,
    /// then carve the sorted list into nodes breadth-first through an
    /// [`IndexTrieBuilder`]. Each node's edges come out contiguous and
    /// code-ascending by construction.
    fn from_paths(levels: usize, mut paths: Vec<(Vec<u16>, u32)>) -> Self {
        paths.sort_by(|a, b| a.0.cmp(&b.0));
        paths.dedup_by(|cur, prev| cur.0 == prev.0);
        let mut builder = IndexTrieBuilder::new(levels);
        // BFS queue of (depth, lo, hi): paths[lo..hi] share their first
        // `depth` codes and define the subtrie under one node. Nodes are
        // popped in exactly the order their edges were pushed, which is
        // the order the builder numbers them in.
        let mut queue: std::collections::VecDeque<(usize, usize, usize)> =
            std::collections::VecDeque::new();
        queue.push_back((0, 0, paths.len()));
        let mut codes: Vec<u16> = Vec::new();
        while let Some((depth, lo, hi)) = queue.pop_front() {
            if depth == levels {
                builder.push_node(&[], paths.get(lo).filter(|_| lo < hi).map(|p| p.1));
                continue;
            }
            codes.clear();
            let mut i = lo;
            while i < hi {
                let code = paths[i].0[depth]; // lint: allow(panic, reason = "i < hi <= paths.len() and every path has exactly `levels` codes with depth < levels")
                let mut j = i + 1;
                while j < hi && paths[j].0[depth] == code { // lint: allow(panic, reason = "j < hi <= paths.len() and every path has exactly `levels` codes with depth < levels")
                    j += 1;
                }
                codes.push(code);
                queue.push_back((depth + 1, i, j));
                i = j;
            }
            builder.push_node(&codes, None);
        }
        builder.finish()
    }

    /// Number of index levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The edge span of `node`, if the node exists.
    fn child_range(&self, node: usize) -> Option<(usize, usize)> {
        let lo = *self.child_start.get(node)? as usize;
        let hi = *self.child_start.get(node + 1)? as usize;
        Some((lo, hi))
    }

    /// The node reached by `prefix`, if it exists: one binary search per
    /// level over that node's (tiny, sorted) edge span.
    fn node_at(&self, prefix: &[u16]) -> Option<usize> {
        let mut node = 0usize;
        for c in prefix {
            let (lo, hi) = self.child_range(node)?;
            let span = self.edge_codes.get(lo..hi)?;
            let k = span.binary_search(c).ok()?;
            node = *self.edge_child.get(lo + k)? as usize;
        }
        Some(node)
    }

    /// Legal next codes after `prefix`, ascending, as a **borrowed slice**
    /// of the arena (empty if the prefix is illegal or complete). This is
    /// the beam-search hot path: no allocation, no hashing, no sort.
    pub fn allowed_slice(&self, prefix: &[u16]) -> &[u16] {
        self.node_at(prefix)
            .and_then(|n| self.child_range(n))
            .and_then(|(lo, hi)| self.edge_codes.get(lo..hi))
            .unwrap_or(&[])
    }

    /// Legal next codes after `prefix` as an owned vector (empty if the
    /// prefix is illegal or complete). Prefer [`IndexTrie::allowed_slice`]
    /// on hot paths.
    pub fn allowed(&self, prefix: &[u16]) -> Vec<u16> {
        self.allowed_slice(prefix).to_vec()
    }

    /// The item whose full index is `codes`, if any.
    pub fn item_at(&self, codes: &[u16]) -> Option<u32> {
        if codes.len() != self.levels {
            return None;
        }
        self.node_at(codes).and_then(|n| self.items.get(n).copied().flatten())
    }

    /// Total node count (diagnostics / benches).
    pub fn num_nodes(&self) -> usize {
        self.items.len()
    }

    /// Canonical text serialization: a `trie levels=L` header followed by
    /// one `c0.c1.….cL-1=item` line per stored item, emitted in depth-first
    /// order with the codes at every node visited in ascending order. The
    /// output is independent of the order items were inserted — two tries
    /// with the same contents always serialize identically (the
    /// golden-snapshot property `tests/golden.rs` pins).
    pub fn to_text(&self) -> String {
        let mut out = format!("trie levels={}\n", self.levels);
        // Explicit DFS stack of (node, code path so far).
        let mut stack: Vec<(usize, Vec<u16>)> = vec![(0, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            if path.len() == self.levels {
                if let Some(item) = self.items.get(node).copied().flatten() {
                    let codes: Vec<String> = path.iter().map(|c| c.to_string()).collect();
                    out.push_str(&format!("{}={}\n", codes.join("."), item));
                }
                continue;
            }
            // Edges are stored ascending; push descending so the ascending
            // code pops first.
            if let Some((lo, hi)) = self.child_range(node) {
                for e in (lo..hi).rev() {
                    if let (Some(&c), Some(&child)) =
                        (self.edge_codes.get(e), self.edge_child.get(e))
                    {
                        let mut next = path.clone();
                        next.push(c);
                        stack.push((child as usize, next));
                    }
                }
            }
        }
        out
    }

    /// Parses the [`IndexTrie::to_text`] format. Returns `None` on any
    /// malformed header, path or item id, or when a path's depth does not
    /// match the header's level count. Duplicate paths keep the first
    /// line's item, mirroring the build rule.
    pub fn from_text(s: &str) -> Option<IndexTrie> {
        let mut lines = s.lines();
        let levels: usize =
            lines.next()?.strip_prefix("trie levels=")?.trim().parse().ok()?;
        let mut paths: Vec<(Vec<u16>, u32)> = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (path, item) = line.split_once('=')?;
            let codes: Vec<u16> =
                path.split('.').map(|c| c.parse().ok()).collect::<Option<_>>()?;
            if codes.len() != levels {
                return None;
            }
            paths.push((codes, item.parse().ok()?));
        }
        Some(IndexTrie::from_paths(levels, paths))
    }
}

/// Breadth-first builder of an [`IndexTrie`]'s CSR arrays: the one place
/// the arena layout is written, shared by the from-paths build and by
/// `TrieSnapshot::materialize` in `lcrec-core`, which walks its
/// copy-on-write arena straight into it.
///
/// Nodes are pushed in **breadth-first order starting at the root**, each
/// with its edge codes ascending; a node's children are numbered in the
/// order its edges are given and must later be pushed in that same order,
/// after every node pushed before them has had its own children pushed —
/// i.e. the caller drives a plain FIFO queue. Nodes at depth `levels` are
/// leaves (no edges) and carry the bound item. Two tries pushed from the
/// same contents in this order are equal field for field.
///
/// # Examples
///
/// ```
/// use lcrec_rqvae::{IndexTrie, IndexTrieBuilder, ItemIndices};
///
/// let mut b = IndexTrieBuilder::new(2);
/// b.push_node(&[0, 2], None); // root
/// b.push_node(&[3], None); // child along code 0
/// b.push_node(&[1], None); // child along code 2
/// b.push_node(&[], Some(0)); // leaf [0, 3]
/// b.push_node(&[], Some(1)); // leaf [2, 1]
/// let indices = ItemIndices::new(vec![4, 4], vec![vec![0, 3], vec![2, 1]]);
/// assert_eq!(b.finish(), IndexTrie::build(&indices));
/// ```
#[derive(Clone, Debug)]
pub struct IndexTrieBuilder {
    trie: IndexTrie,
}

impl IndexTrieBuilder {
    /// An empty builder for `levels`-deep paths.
    pub fn new(levels: usize) -> Self {
        IndexTrieBuilder {
            trie: IndexTrie {
                levels,
                child_start: vec![0],
                edge_codes: Vec::new(),
                edge_child: Vec::new(),
                items: Vec::new(),
            },
        }
    }

    /// Appends the next node in breadth-first order with its ascending
    /// edge `codes` (empty for a leaf) and bound `item`.
    pub fn push_node(&mut self, codes: &[u16], item: Option<u32>) {
        debug_assert!(codes.windows(2).all(|w| w.first() < w.last()), "edge codes must be strictly ascending");
        let t = &mut self.trie;
        // Node 0 is the root; every edge pushed so far named one child.
        let first_child = t.edge_child.len() as u32 + 1;
        t.items.push(item);
        t.edge_codes.extend_from_slice(codes);
        t.edge_child.extend((0..codes.len() as u32).map(|k| first_child + k));
        t.child_start.push(t.edge_codes.len() as u32);
    }

    /// The finished trie, its arrays trimmed to their length: a published
    /// trie lives as long as the router that serves it, so the slack the
    /// pushes' doubling left behind would be held for as long.
    pub fn finish(mut self) -> IndexTrie {
        let t = &mut self.trie;
        t.child_start.shrink_to_fit();
        t.edge_codes.shrink_to_fit();
        t.edge_child.shrink_to_fit();
        t.items.shrink_to_fit();
        self.trie
    }
}

/// The original pointer-per-node prefix trie, kept as the **reference
/// implementation** for differential testing of the arena [`IndexTrie`]
/// (`tests/decode.rs` checks node-for-node equivalence on randomized ID
/// sets). Not used on any hot path.
#[derive(Debug)]
pub struct PointerTrie {
    levels: usize,
    /// node → (code → child node id); leaves store item ids in `items`.
    children: Vec<HashMap<u16, usize>>,
    items: Vec<Option<u32>>,
}

impl PointerTrie {
    /// Builds the trie from a set of item indices (first-insert-wins on
    /// conflicting full indices, like [`IndexTrie::build`]).
    pub fn build(indices: &ItemIndices) -> Self {
        let mut trie = PointerTrie {
            levels: indices.levels,
            children: vec![HashMap::new()],
            items: vec![None],
        };
        for (item, codes) in indices.codes.iter().enumerate() {
            trie.insert(codes, item as u32);
        }
        trie
    }

    /// Inserts one full code path, keeping the first item bound to it.
    fn insert(&mut self, codes: &[u16], item: u32) {
        let mut node = 0usize;
        for &c in codes {
            let next = match self.children[node].get(&c) { // lint: allow(panic, reason = "node is 0 (created in build) or a child id stored when that node was pushed, so it is always < children.len()")
                Some(&n) => n,
                None => {
                    self.children.push(HashMap::new());
                    self.items.push(None);
                    let id = self.children.len() - 1;
                    self.children[node].insert(c, id); // lint: allow(panic, reason = "node predates the push above, so it stays in bounds after the vec grew")
                    id
                }
            };
            node = next;
        }
        if self.items[node].is_none() { // lint: allow(panic, reason = "items grows in lockstep with children, so every node id indexes both")
            self.items[node] = Some(item); // lint: allow(panic, reason = "items grows in lockstep with children, so every node id indexes both")
        }
    }

    /// Number of index levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The node reached by `prefix`, if it exists.
    fn node_at(&self, prefix: &[u16]) -> Option<usize> {
        let mut node = 0usize;
        for c in prefix {
            node = *self.children.get(node)?.get(c)?;
        }
        Some(node)
    }

    /// Legal next codes after `prefix`, ascending (empty if the prefix is
    /// illegal or complete).
    pub fn allowed(&self, prefix: &[u16]) -> Vec<u16> {
        match self.node_at(prefix).and_then(|n| self.children.get(n)) {
            Some(next) => {
                let mut v: Vec<u16> = next.keys().copied().collect();
                v.sort_unstable();
                v
            }
            None => Vec::new(),
        }
    }

    /// The item whose full index is `codes`, if any.
    pub fn item_at(&self, codes: &[u16]) -> Option<u32> {
        if codes.len() != self.levels {
            return None;
        }
        self.node_at(codes).and_then(|n| self.items.get(n).copied().flatten())
    }

    /// Total node count (diagnostics / differential tests).
    pub fn num_nodes(&self) -> usize {
        self.children.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ItemIndices {
        ItemIndices::new(
            vec![4, 4, 4],
            vec![
                vec![0, 1, 2],
                vec![0, 1, 3],
                vec![0, 2, 0],
                vec![3, 0, 0],
            ],
        )
    }

    #[test]
    fn uniqueness_and_conflicts() {
        let idx = sample();
        assert!(idx.is_unique());
        let dup = ItemIndices::new(vec![2, 2], vec![vec![0, 1], vec![0, 1], vec![1, 0]]);
        assert!(!dup.is_unique());
        assert_eq!(dup.conflicts(), 2);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn rejects_out_of_range_codes() {
        ItemIndices::new(vec![2], vec![vec![5]]);
    }

    #[test]
    fn token_flattening() {
        let idx = sample();
        assert_eq!(idx.vocab_tokens(), 12);
        assert_eq!(idx.flat_token(0, 3), 3);
        assert_eq!(idx.flat_token(1, 0), 4);
        assert_eq!(idx.flat_token(2, 2), 10);
    }

    #[test]
    fn format_is_readable() {
        let idx = sample();
        assert_eq!(idx.format(0), "<a_0><b_1><c_2>");
    }

    #[test]
    fn trie_allows_only_real_prefixes() {
        let idx = sample();
        let trie = IndexTrie::build(&idx);
        assert_eq!(trie.allowed(&[]), vec![0, 3]);
        assert_eq!(trie.allowed(&[0]), vec![1, 2]);
        assert_eq!(trie.allowed(&[0, 1]), vec![2, 3]);
        assert!(trie.allowed(&[2]).is_empty(), "illegal prefix has no children");
    }

    #[test]
    fn trie_resolves_items() {
        let idx = sample();
        let trie = IndexTrie::build(&idx);
        assert_eq!(trie.item_at(&[0, 1, 3]), Some(1));
        assert_eq!(trie.item_at(&[3, 0, 0]), Some(3));
        assert_eq!(trie.item_at(&[1, 1, 1]), None);
        assert_eq!(trie.item_at(&[0, 1]), None, "partial index is not an item");
    }

    #[test]
    fn try_build_rejects_full_path_collisions() {
        let dup = ItemIndices::new(vec![2, 2], vec![vec![0, 1], vec![0, 1], vec![1, 0]]);
        match IndexTrie::try_build(&dup) {
            Err(IndexError::PathOccupied { codes, bound }) => {
                assert_eq!(codes, vec![0, 1]);
                assert_eq!(bound, 0, "the first-bound item is named");
            }
            other => panic!("expected PathOccupied, got {other:?}"),
        }
        let idx = sample();
        let checked = IndexTrie::try_build(&idx).expect("conflict-free input");
        assert_eq!(checked, IndexTrie::build(&idx), "checked build matches the silent one");
    }

    #[test]
    fn prefix_sharing_decreases_with_depth() {
        let idx = sample();
        assert!(idx.prefix_sharing(1) >= idx.prefix_sharing(2));
        assert!(idx.prefix_sharing(2) >= idx.prefix_sharing(3));
    }
}
