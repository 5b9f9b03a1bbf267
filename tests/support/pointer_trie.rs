//! The original pointer-per-node prefix trie, kept as the **reference
//! implementation** for differential testing of the arena `IndexTrie`
//! (`tests/decode.rs` checks node-for-node equivalence on randomized ID
//! sets, `tests/scale.rs` on a 50k-item vocabulary). Test support only:
//! include it with `#[path = "support/pointer_trie.rs"] mod pointer_trie;`.

use lc_rec::rqvae::ItemIndices;
use std::collections::HashMap;

#[derive(Debug)]
pub struct PointerTrie {
    levels: usize,
    /// node → (code → child node id); leaves store item ids in `items`.
    children: Vec<HashMap<u16, usize>>,
    items: Vec<Option<u32>>,
}

impl PointerTrie {
    /// Builds the trie from a set of item indices (first-insert-wins on
    /// conflicting full indices, like `IndexTrie::build`).
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
            let next = match self.children[node].get(&c) {
                Some(&n) => n,
                None => {
                    self.children.push(HashMap::new());
                    self.items.push(None);
                    let id = self.children.len() - 1;
                    self.children[node].insert(c, id);
                    id
                }
            };
            node = next;
        }
        if self.items[node].is_none() {
            self.items[node] = Some(item);
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

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.children.len()
    }
}
