//! The extended vocabulary: base word tokens plus the learned item-index
//! tokens, appended exactly as the paper adds OOV tokens to the LLaMA
//! tokenizer ("all tokens related to item indices are appended to the
//! tokenizer", §IV-A4).

use lcrec_data::Seg;
use lcrec_rqvae::ItemIndices;
use lcrec_text::token::{BOS, EOS, PAD};
use lcrec_text::Vocab;

/// Word vocabulary + index-token block.
#[derive(Debug)]
pub struct ExtendedVocab {
    base: Vocab,
    indices: ItemIndices,
}

impl ExtendedVocab {
    /// Combines a word vocabulary with learned item indices.
    pub fn new(base: Vocab, indices: ItemIndices) -> Self {
        ExtendedVocab { base, indices }
    }

    /// Total vocabulary size (words + specials + index tokens).
    pub fn len(&self) -> usize {
        self.base.len() + self.indices.vocab_tokens()
    }

    /// True if there are no word tokens beyond specials and no index tokens.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.indices.vocab_tokens() == 0
    }

    /// The underlying word vocabulary.
    pub fn base(&self) -> &Vocab {
        &self.base
    }

    /// The item indices this vocabulary embeds.
    pub fn indices(&self) -> &ItemIndices {
        &self.indices
    }

    /// First token id of the index block.
    pub fn index_base(&self) -> u32 {
        self.base.len() as u32
    }

    /// The token id of `(level, code)`.
    pub fn index_token(&self, level: usize, code: u16) -> u32 {
        self.index_base() + self.indices.flat_token(level, code) as u32
    }

    /// Inverse of [`ExtendedVocab::index_token`]: which (level, code) a
    /// token id denotes, if it is an index token.
    pub fn token_index(&self, token: u32) -> Option<(usize, u16)> {
        let off = token.checked_sub(self.index_base())? as usize;
        if off >= self.indices.vocab_tokens() {
            return None;
        }
        let mut level = 0;
        let mut rest = off;
        while rest >= self.indices.codebook_sizes[level] {
            rest -= self.indices.codebook_sizes[level];
            level += 1;
        }
        Some((level, rest as u16))
    }

    /// Whether `token` is an item-index token.
    pub fn is_index_token(&self, token: u32) -> bool {
        self.token_index(token).is_some()
    }

    /// The index-token sequence of an item.
    pub fn item_tokens(&self, item: u32) -> Vec<u32> {
        self.indices
            .of(item)
            .iter()
            .enumerate()
            .map(|(l, &c)| self.index_token(l, c))
            .collect()
    }

    /// Renders instruction segments to token ids (no BOS/EOS added).
    pub fn render(&self, segs: &[Seg]) -> Vec<u32> {
        let mut out = Vec::new();
        for seg in segs {
            match seg {
                Seg::Text(t) => out.extend(self.base.encode(t)),
                Seg::Item(i) => out.extend(self.item_tokens(*i)),
                Seg::Items(items) => {
                    for &i in items {
                        out.extend(self.item_tokens(i));
                    }
                }
            }
        }
        out
    }

    /// Renders an inference prompt: `BOS` + [`ExtendedVocab::render`],
    /// front-truncated (dropping the oldest tokens after `BOS`) so that
    /// prompt + one full item index + one spare position fit a context
    /// window of `max_seq` tokens. The budget saturates and always keeps
    /// `BOS`: a window smaller than one item index degrades to a
    /// maximally-truncated prompt instead of underflowing. The one
    /// rendering rule shared by `LcRec::render_prompt` and the serving
    /// engine, so the two cannot drift apart.
    pub fn render_prompt(&self, segs: &[Seg], max_seq: usize) -> Vec<u32> {
        let mut tokens = vec![BOS];
        tokens.extend(self.render(segs));
        let budget = max_seq.saturating_sub(self.indices.levels + 1).max(1);
        if tokens.len() > budget {
            let excess = tokens.len() - budget;
            tokens.drain(1..1 + excess);
        }
        tokens
    }

    /// Full example rendering: `BOS prompt … response EOS`, returning
    /// `(tokens, prompt_len)` where the first `prompt_len` positions are
    /// conditioning-only (no loss), per Eqn. (7).
    pub fn render_example(&self, prompt: &[Seg], response: &[Seg]) -> (Vec<u32>, usize) {
        let mut tokens = vec![BOS];
        tokens.extend(self.render(prompt));
        let prompt_len = tokens.len();
        tokens.extend(self.render(response));
        tokens.push(EOS);
        (tokens, prompt_len)
    }

    /// Decodes token ids to text, rendering index tokens in the paper's
    /// `<a_12>` notation and skipping PAD/BOS/EOS.
    pub fn decode(&self, tokens: &[u32]) -> String {
        let letters = ['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'];
        let mut out = String::new();
        let mut prev_was_index = false;
        for &t in tokens {
            if t == PAD || t == BOS || t == EOS {
                continue;
            }
            if let Some((level, code)) = self.token_index(t) {
                // Index tokens glue to each other but not to words.
                if !out.is_empty() && !prev_was_index {
                    out.push(' ');
                }
                out.push_str(&format!("<{}_{}>", letters[level % letters.len()], code));
                prev_was_index = true;
            } else {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(self.base.word(t));
                prev_was_index = false;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExtendedVocab {
        let base = Vocab::build(["recommend the next item please"], 1);
        let indices = ItemIndices::new(
            vec![4, 4],
            vec![vec![0, 1], vec![2, 3], vec![1, 0]],
        );
        ExtendedVocab::new(base, indices)
    }

    #[test]
    fn layout_is_contiguous() {
        let v = sample();
        assert_eq!(v.len(), v.base().len() + 8);
        assert_eq!(v.index_token(0, 0), v.index_base());
        assert_eq!(v.index_token(1, 0), v.index_base() + 4);
    }

    #[test]
    fn token_index_round_trips() {
        let v = sample();
        for level in 0..2 {
            for code in 0..4u16 {
                let t = v.index_token(level, code);
                assert_eq!(v.token_index(t), Some((level, code)));
            }
        }
        assert_eq!(v.token_index(0), None, "PAD is not an index token");
        assert_eq!(v.token_index(v.index_base() + 8), None, "past the block");
    }

    #[test]
    fn item_tokens_follow_codes() {
        let v = sample();
        let t = v.item_tokens(1);
        assert_eq!(t, vec![v.index_token(0, 2), v.index_token(1, 3)]);
    }

    #[test]
    fn render_example_marks_prompt_region() {
        let v = sample();
        let (tokens, plen) = v.render_example(
            &[Seg::Text("recommend the next item".into()), Seg::Items(vec![0, 2])],
            &[Seg::Item(1)],
        );
        assert_eq!(tokens[0], BOS);
        assert_eq!(*tokens.last().expect("non-empty"), EOS);
        // BOS + 4 words + 2 items × 2 tokens = 9 prompt positions.
        assert_eq!(plen, 9);
        assert_eq!(tokens.len(), plen + 2 + 1);
    }

    #[test]
    fn render_prompt_keeps_bos_and_the_newest_tokens_within_the_budget() {
        let v = sample();
        let segs = [Seg::Text("recommend the next item".into()), Seg::Items(vec![0, 2, 1])];
        let full = v.render_prompt(&segs, 64);
        assert_eq!(full.len(), 1 + 4 + 6, "nothing to truncate in a wide window");
        // Budget = max_seq - levels - 1 = 5: BOS + the 4 newest tokens.
        let cut = v.render_prompt(&segs, 8);
        assert_eq!(cut.len(), 5);
        assert_eq!(cut[0], BOS);
        assert_eq!(cut[1..], full[full.len() - 4..]);
        // A window smaller than one item index saturates to BOS alone.
        for max_seq in 0..=3 {
            assert_eq!(v.render_prompt(&segs, max_seq), vec![BOS], "max_seq {max_seq}");
        }
    }

    #[test]
    fn decode_uses_paper_notation() {
        let v = sample();
        let (tokens, _) = v.render_example(&[Seg::Text("recommend".into())], &[Seg::Item(0)]);
        let s = v.decode(&tokens);
        assert_eq!(s, "recommend <a_0><b_1>");
    }
}
