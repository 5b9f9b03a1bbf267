//! # lcrec-serve
//!
//! A batched inference engine for LC-Rec: recommendation requests (user
//! history → top-K item indices) are admitted into a bounded queue, drained
//! oldest-first in batches of at most `max_batch`, and decoded **together** — one
//! weight pass per transformer step shared across every request's prefill
//! tokens and beam candidates ([`lcrec_core::multi_constrained_beam_search_scratch`]).
//!
//! Design contract (see `docs/SERVING.md` for the full lifecycle):
//!
//! * **Bit-identical to sequential decoding.** The batched LM step does
//!   per-row arithmetic identical to the one-request path, so a request's
//!   ranking and log-probabilities never depend on which other requests
//!   share its batch — at batch size 1, 3 or 8, answers match bit for bit
//!   (`tests/serving.rs`).
//! * **Graceful degradation.** `max_batch = 1` turns the engine into a
//!   plain sequential server; nothing else changes.
//! * **Backpressure, not buffering.** The admission queue is bounded
//!   ([`ServeConfig::queue_cap`]); a full queue rejects new requests with a
//!   typed reason ([`Reject::QueueFull`]) instead of growing without bound.
//! * **Every request ends in exactly one typed outcome.** Submission either
//!   returns a ticket or a typed [`Reject`] (queue full, load shed, invalid
//!   `k`); a ticketed request later resolves to exactly one [`Outcome`] —
//!   [`Outcome::Completed`] or [`Outcome::TimedOut`] — never a panic and
//!   never silence (`docs/ROBUSTNESS.md`).
//! * **Observable.** Every batch records a `serve.batch` span, batch-size
//!   histogram and per-request latency under the `LCREC_OBS` gate; faults,
//!   retries, sheds and timeouts have counters of their own.
//!
//! Dispatch is work-conserving: [`Engine::step_outcomes`] decodes whatever
//! is queued, since a batch runs to completion on the caller's thread and
//! requests arriving meanwhile queue up for the next one anyway. Batching
//! knobs come from [`ServeConfig`] or the `LCREC_SERVE_BATCH` and
//! `LCREC_SERVE_QUEUE` environment variables (documented in
//! `docs/ENVIRONMENT.md`). Fault injection for the chaos
//! suite is wired through [`lcrec_fault::FaultPlan`] (`LCREC_FAULT`,
//! default off).

#![warn(missing_docs)]

pub mod router;

pub use router::{Ring, Router, RouterConfig, RouterOutcome, RouterReject, HEDGE_ENV, SHARDS_ENV};

use lcrec_core::{
    multi_constrained_beam_search_scratch, CausalLm, DecodeScratch, ExtendedVocab, Hypothesis,
    LcRec,
};
use lcrec_data::Seg;
use lcrec_fault::{deadline_expired, seams, Backoff, FaultPlan};
use lcrec_par::Pool;
use lcrec_rqvae::IndexTrie;
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

/// Environment variable overriding [`ServeConfig::max_batch`].
pub const BATCH_ENV: &str = "LCREC_SERVE_BATCH";
/// Environment variable overriding [`ServeConfig::queue_cap`].
pub const QUEUE_ENV: &str = "LCREC_SERVE_QUEUE";

/// Batching and admission policy for an [`Engine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Most requests decoded in one shared weight pass. `1` degrades the
    /// engine to plain sequential serving (same answers, bit for bit).
    pub max_batch: usize,
    /// Admission-queue capacity; a full queue rejects new requests with
    /// [`Reject::QueueFull`] instead of buffering unboundedly.
    pub queue_cap: usize,
    /// Beam width floor: each request decodes at `max(beam, k)` so the
    /// top-K cut always comes from a full-width ranked list.
    pub beam: usize,
    /// Instruction text rendered in front of the history items.
    pub template: String,
    /// History items kept per request (context-window budget; mirrors
    /// `LcRecConfig::max_hist_items`).
    pub max_hist_items: usize,
    /// Default per-request deadline in milliseconds, measured from
    /// admission. A request still queued (or reached in a batch) past its
    /// deadline resolves as [`Outcome::TimedOut`] instead of decoding.
    /// `None` (the default) disables deadlines entirely, preserving the
    /// pre-robustness behaviour bit for bit.
    pub deadline_ms: Option<u64>,
    /// Load-shedding watermark: when set and the queue already holds at
    /// least this many requests, `submit` rejects with [`Reject::Shed`]
    /// before the hard [`ServeConfig::queue_cap`] is reached. `None` (the
    /// default) disables shedding.
    pub shed_watermark: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            queue_cap: 64,
            beam: 10,
            template: "recommend the next item".to_string(),
            max_hist_items: 8,
            deadline_ms: None,
            shed_watermark: None,
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by the `LCREC_SERVE_BATCH` and
    /// `LCREC_SERVE_QUEUE` environment variables (unset or unparsable
    /// values keep the default; both clamp to ≥ 1).
    pub fn from_env() -> Self {
        let mut cfg = ServeConfig::default();
        if let Some(v) = env_usize(BATCH_ENV) {
            cfg.max_batch = v.max(1);
        }
        if let Some(v) = env_usize(QUEUE_ENV) {
            cfg.queue_cap = v.max(1);
        }
        cfg
    }
}

/// Shared env-var parsing for this crate's gate module (`detlint` allows
/// environment reads only here, so [`router::RouterConfig::from_env`]
/// calls back into this helper).
pub(crate) fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.trim().parse::<usize>().ok())
}

/// Why a request was not admitted. Returned by [`Engine::submit`] so
/// callers can shed load explicitly instead of blocking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The bounded admission queue is at capacity.
    QueueFull {
        /// The configured [`ServeConfig::queue_cap`] that was hit.
        capacity: usize,
    },
    /// The engine shed the request before the hard capacity: either the
    /// [`ServeConfig::shed_watermark`] was reached or admission pressure
    /// was injected by the active [`FaultPlan`].
    Shed {
        /// Requests already queued when the request was shed.
        queued: usize,
    },
    /// The requested `k` is unusable: zero asks for an empty ranking.
    /// (`k` larger than the catalog is clamped, not rejected.)
    InvalidK {
        /// The `k` the caller passed to [`Engine::submit`].
        k: usize,
    },
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity}); retry later")
            }
            Reject::Shed { queued } => {
                write!(f, "request shed under load ({queued} queued); retry later")
            }
            Reject::InvalidK { k } => {
                write!(f, "invalid top-k request (k = {k}); k must be at least 1")
            }
        }
    }
}

impl std::error::Error for Reject {}

/// Why a ticketed request timed out instead of completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeoutReason {
    /// The per-request deadline expired before decoding started.
    Deadline,
    /// Transient decode faults exhausted the bounded retry budget.
    RetriesExhausted,
}

impl fmt::Display for TimeoutReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeoutReason::Deadline => write!(f, "deadline expired"),
            TimeoutReason::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}

/// The final, typed resolution of one admitted request. Every ticket
/// returned by [`Engine::submit`] resolves to exactly one `Outcome` from
/// [`Engine::step_outcomes`] / [`Engine::flush_outcomes`] — the engine
/// never panics on a request and never drops one silently.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The request decoded successfully.
    Completed(Response),
    /// The request was abandoned with a typed reason.
    TimedOut {
        /// The ticket returned by [`Engine::submit`].
        id: u64,
        /// Seconds from admission to abandonment.
        waited_s: f64,
        /// Why the request did not complete.
        reason: TimeoutReason,
    },
}

impl Outcome {
    /// The ticket this outcome resolves.
    pub fn id(&self) -> u64 {
        match self {
            Outcome::Completed(r) => r.id,
            Outcome::TimedOut { id, .. } => *id,
        }
    }

    /// True for [`Outcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed(_))
    }

    /// The response, when the request completed.
    pub fn completed(self) -> Option<Response> {
        match self {
            Outcome::Completed(r) => Some(r),
            Outcome::TimedOut { .. } => None,
        }
    }
}

/// One completed request: the ranked recommendations plus serving metadata.
#[derive(Clone, Debug)]
pub struct Response {
    /// The ticket returned by [`Engine::submit`].
    pub id: u64,
    /// Top-K items, best first (K as requested at submit time).
    pub ranked: Vec<Hypothesis>,
    /// Seconds from admission to completion (queue wait + decode).
    pub latency_s: f64,
    /// How many requests shared this request's batch.
    pub batch_size: usize,
}

struct Pending {
    id: u64,
    history: Vec<u32>,
    k: usize,
    enqueued: Instant,
    deadline_ms: Option<u64>,
}

/// The batched inference engine.
///
/// Borrows a trained model's parts (LM, extended vocabulary, index trie) —
/// the engine adds no model state of its own, only the admission queue.
/// Requests go in via [`Engine::submit`]; batches come out as typed
/// [`Outcome`]s via [`Engine::step_outcomes`] (one batch) or
/// [`Engine::flush_outcomes`] (every batch).
///
/// # Examples
///
/// ```
/// use lcrec_core::{CausalLm, ExtendedVocab, LmConfig};
/// use lcrec_rqvae::{IndexTrie, ItemIndices};
/// use lcrec_serve::{Engine, ServeConfig};
/// use lcrec_text::Vocab;
///
/// // A miniature model: 4 items with 2-level semantic IDs.
/// let base = Vocab::build(["recommend the next item"], 1);
/// let indices = ItemIndices::new(
///     vec![3, 3],
///     vec![vec![0, 0], vec![0, 1], vec![1, 2], vec![2, 2]],
/// );
/// let trie = IndexTrie::build(&indices);
/// let vocab = ExtendedVocab::new(base, indices);
/// let lm = CausalLm::new(LmConfig::test(vocab.len()));
///
/// let mut engine = Engine::new(&lm, &vocab, &trie, ServeConfig::default());
/// let id = engine.submit(&[0, 2], 3).expect("queue has room");
/// let outcomes = engine.flush_outcomes();
/// assert_eq!(outcomes.len(), 1);
/// assert_eq!(outcomes[0].id(), id);
/// let response = outcomes[0].clone().completed().expect("no deadline, no faults");
/// assert_eq!(response.ranked.len(), 3, "top-3 of the 4 items");
/// ```
#[derive(Debug)]
pub struct Engine<'a> {
    lm: &'a CausalLm,
    vocab: &'a ExtendedVocab,
    trie: &'a IndexTrie,
    cfg: ServeConfig,
    pool: Pool,
    queue: VecDeque<Pending>,
    next_id: u64,
    plan: FaultPlan,
    backoff: Backoff,
    /// Decode buffers + the cached LM-head transpose, reused across every
    /// dispatched batch. Safe for the engine's whole lifetime: it borrows
    /// the LM immutably, so the parameters the scratch snapshotted cannot
    /// change while the engine exists.
    scratch: DecodeScratch,
}

impl fmt::Debug for Pending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pending").field("id", &self.id).field("k", &self.k).finish()
    }
}

impl<'a> Engine<'a> {
    /// An engine over explicit model parts, with parallelism from the
    /// ambient [`Pool::from_env`] (`LCREC_THREADS`).
    pub fn new(
        lm: &'a CausalLm,
        vocab: &'a ExtendedVocab,
        trie: &'a IndexTrie,
        cfg: ServeConfig,
    ) -> Self {
        Engine::with_pool(lm, vocab, trie, cfg, Pool::from_env())
    }

    /// [`Engine::new`] with an explicit thread pool.
    pub fn with_pool(
        lm: &'a CausalLm,
        vocab: &'a ExtendedVocab,
        trie: &'a IndexTrie,
        cfg: ServeConfig,
        pool: Pool,
    ) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_cap >= 1, "queue_cap must be at least 1");
        assert!(cfg.beam >= 1, "beam must be at least 1");
        Engine {
            lm,
            vocab,
            trie,
            cfg,
            pool,
            queue: VecDeque::new(),
            next_id: 0,
            plan: FaultPlan::from_env(),
            backoff: Backoff::default(),
            scratch: lm.new_scratch(),
        }
    }

    /// Replaces the engine's fault plan (defaults to
    /// [`FaultPlan::from_env`], i.e. disabled unless `LCREC_FAULT` is
    /// set). The chaos suite uses this to run explicit seeded plans
    /// without touching the environment.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replaces the bounded retry policy used for transient decode
    /// faults (defaults to [`Backoff::default`]).
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Replaces the fault plan in place. [`Router`] uses this to give
    /// every shard a plan derived from one spec but a shard-distinct
    /// seed, so replicas do not hiccup in lockstep.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// An engine over a trained [`LcRec`] model's LM, vocabulary and trie.
    pub fn for_model(model: &'a LcRec, cfg: ServeConfig) -> Self {
        Engine::new(model.lm(), model.vocab(), model.trie(), cfg)
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Requests currently waiting for a batch.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Admits a request (user `history` → top-`k` items) into the queue and
    /// returns its ticket, or rejects it with a typed reason: the bounded
    /// queue is at capacity ([`Reject::QueueFull`]), the engine is
    /// shedding load ([`Reject::Shed`]), or `k` is zero
    /// ([`Reject::InvalidK`]). A `k` beyond the catalog size is clamped to
    /// the catalog — every item ranked is still a real item. The request
    /// carries the config-default deadline ([`ServeConfig::deadline_ms`]);
    /// use [`Engine::submit_with_deadline`] for a per-request override.
    pub fn submit(&mut self, history: &[u32], k: usize) -> Result<u64, Reject> {
        self.submit_with_deadline(history, k, self.cfg.deadline_ms)
    }

    /// [`Engine::submit`] with an explicit per-request deadline
    /// (milliseconds from admission; `None` means no deadline), overriding
    /// [`ServeConfig::deadline_ms`].
    pub fn submit_with_deadline(
        &mut self,
        history: &[u32],
        k: usize,
        deadline_ms: Option<u64>,
    ) -> Result<u64, Reject> {
        if k == 0 {
            lcrec_obs::counter_add("serve.rejected", 1);
            return Err(Reject::InvalidK { k });
        }
        let k = k.min(self.vocab.indices().len());
        if self.queue.len() >= self.cfg.queue_cap {
            lcrec_obs::counter_add("serve.rejected", 1);
            return Err(Reject::QueueFull { capacity: self.cfg.queue_cap });
        }
        let watermark_hit =
            self.cfg.shed_watermark.is_some_and(|w| self.queue.len() >= w);
        if watermark_hit || self.plan.should_fail(seams::SERVE_ADMISSION) {
            lcrec_obs::counter_add("serve.shed", 1);
            return Err(Reject::Shed { queued: self.queue.len() });
        }
        let id = self.next_id;
        self.next_id += 1;
        lcrec_obs::counter_add("serve.requests", 1);
        self.queue.push_back(Pending {
            id,
            history: history.to_vec(),
            k,
            enqueued: Instant::now(), // lint: allow(det, reason = "arrival timestamps feed only deadlines and latency_s, never dispatch or decode; outputs stay bit-identical (pinned by tests/serving.rs)")
            deadline_ms,
        });
        Ok(id)
    }

    /// Dispatches **one** batch — the oldest `min(queue_len, max_batch)`
    /// requests, however few are queued — and returns every request's
    /// typed [`Outcome`] (completions and timeouts) in admission order; an
    /// empty queue returns an empty vector. Drive this from a serving loop;
    /// tests and offline use can call [`Engine::flush_outcomes`] instead.
    /// A caller that wants only the responses filters with
    /// [`Outcome::completed`].
    pub fn step_outcomes(&mut self) -> Vec<Outcome> {
        let n = self.queue.len().min(self.cfg.max_batch);
        let batch: Vec<Pending> = self.queue.drain(..n).collect();
        self.dispatch(batch)
    }

    /// Steps until the queue is empty and returns every request's typed
    /// [`Outcome`] — completions and timeouts — in admission order.
    pub fn flush_outcomes(&mut self) -> Vec<Outcome> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            out.extend(self.step_outcomes());
        }
        out
    }

    /// Renders one request's prompt exactly as `LcRec::render_prompt`
    /// does: history capped to [`ServeConfig::max_hist_items`], then
    /// [`ExtendedVocab::render_prompt`] — BOS + template text + item-index
    /// tokens, front-truncated (dropping the oldest tokens after BOS) so
    /// prompt + one full index fits the LM's context window. Public so
    /// bit-identity tests can compare the engine against direct
    /// beam-search calls on the same tokens.
    pub fn render_prompt(&self, history: &[u32]) -> Vec<u32> {
        let capped = if history.len() > self.cfg.max_hist_items {
            &history[history.len() - self.cfg.max_hist_items..] // lint: allow(panic, reason = "the branch guard makes the start offset at most history.len()")
        } else {
            history
        };
        let segs =
            [Seg::Text(self.cfg.template.clone()), Seg::Items(capped.to_vec())];
        self.vocab.render_prompt(&segs, self.lm.config().max_seq)
    }

    fn dispatch(&mut self, batch: Vec<Pending>) -> Vec<Outcome> {
        if batch.is_empty() {
            return Vec::new();
        }
        let _span = lcrec_obs::span("serve.batch");
        let obs_on = lcrec_obs::enabled();
        if obs_on {
            lcrec_obs::counter_add("serve.batches", 1);
            lcrec_obs::hist_record("serve.batch_size", batch.len() as f64);
        }
        let batch_size = batch.len();
        // Deadline sweep, in admission order: a request whose deadline has
        // already expired (or whose deadline seam fires under a chaos
        // plan) is abandoned before it costs any decode work.
        let mut slots: Vec<Option<Outcome>> = Vec::with_capacity(batch_size);
        slots.resize_with(batch_size, || None);
        let mut live: Vec<(usize, Pending)> = Vec::with_capacity(batch_size);
        for (i, p) in batch.into_iter().enumerate() {
            let waited_ms = p.enqueued.elapsed().as_millis() as u64;
            let expired = p.deadline_ms.is_some_and(|dl| deadline_expired(waited_ms, dl))
                || self.plan.should_fail(seams::SERVE_DEADLINE);
            if expired {
                lcrec_obs::counter_add("serve.timeouts", 1);
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some(Outcome::TimedOut {
                        id: p.id,
                        waited_s: p.enqueued.elapsed().as_secs_f64(),
                        reason: TimeoutReason::Deadline,
                    });
                }
            } else {
                live.push((i, p));
            }
        }
        if live.is_empty() {
            return slots.into_iter().flatten().collect();
        }
        // Bounded retry against transient decode faults. Decoding itself
        // is deterministic, so a "failed attempt" costs one schedule slot
        // and one counter tick, never a repeated weight pass or a sleep —
        // the backoff delay is accounted, not slept. Under a transient
        // plan the burst cap guarantees success within the budget; only a
        // chaos plan can exhaust it.
        let mut failed = 0u32;
        while failed < self.backoff.max_attempts()
            && self.plan.should_fail(seams::SERVE_DECODE)
        {
            lcrec_obs::counter_add("serve.retries", 1);
            lcrec_obs::counter_add("serve.backoff_ms", self.backoff.delay_ms(failed));
            failed += 1;
        }
        if failed >= self.backoff.max_attempts() {
            for (i, p) in live {
                lcrec_obs::counter_add("serve.timeouts", 1);
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some(Outcome::TimedOut {
                        id: p.id,
                        waited_s: p.enqueued.elapsed().as_secs_f64(),
                        reason: TimeoutReason::RetriesExhausted,
                    });
                }
            }
            return slots.into_iter().flatten().collect();
        }
        let prompts: Vec<Vec<u32>> =
            live.iter().map(|(_, p)| self.render_prompt(&p.history)).collect();
        let widths: Vec<usize> =
            live.iter().map(|(_, p)| p.k.max(self.cfg.beam)).collect();
        let ranked_lists = multi_constrained_beam_search_scratch(
            &self.pool,
            self.lm,
            self.vocab,
            self.trie,
            &prompts,
            &widths,
            &mut self.scratch,
        );
        for ((i, pending), mut ranked) in live.into_iter().zip(ranked_lists) {
            ranked.truncate(pending.k);
            let latency_s = pending.enqueued.elapsed().as_secs_f64();
            if obs_on {
                lcrec_obs::profile_record("serve.request_s", latency_s);
            }
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(Outcome::Completed(Response {
                    id: pending.id,
                    ranked,
                    latency_s,
                    batch_size,
                }));
            }
        }
        slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrec_core::LmConfig;
    use lcrec_rqvae::ItemIndices;
    use lcrec_text::Vocab;

    fn setup() -> (CausalLm, ExtendedVocab, IndexTrie) {
        let base = Vocab::build(["recommend the next item please"], 1);
        let indices = ItemIndices::new(
            vec![3, 3],
            vec![vec![0, 0], vec![0, 1], vec![1, 2], vec![2, 2]],
        );
        let trie = IndexTrie::build(&indices);
        let vocab = ExtendedVocab::new(base, indices);
        let lm = CausalLm::new(LmConfig::test(vocab.len()));
        (lm, vocab, trie)
    }

    fn completed(outcomes: Vec<Outcome>) -> Vec<Response> {
        outcomes.into_iter().filter_map(Outcome::completed).collect()
    }

    #[test]
    fn queue_full_rejects_with_capacity() {
        let (lm, vocab, trie) = setup();
        let cfg = ServeConfig { queue_cap: 2, ..ServeConfig::default() };
        let mut engine = Engine::new(&lm, &vocab, &trie, cfg);
        assert!(engine.submit(&[0], 1).is_ok());
        assert!(engine.submit(&[1], 1).is_ok());
        let err = engine.submit(&[2], 1).unwrap_err();
        assert_eq!(err, Reject::QueueFull { capacity: 2 });
        assert!(err.to_string().contains("capacity 2"));
        // Draining the queue frees capacity again.
        engine.flush_outcomes();
        assert!(engine.submit(&[2], 1).is_ok());
    }

    #[test]
    fn step_dispatches_whatever_is_queued() {
        let (lm, vocab, trie) = setup();
        let mut engine = Engine::new(&lm, &vocab, &trie, ServeConfig::default());
        let max_batch = engine.config().max_batch;
        // An empty queue resolves nothing.
        assert!(engine.step_outcomes().is_empty());
        // A lone request resolves on the first step: nothing waits for
        // company.
        let id = engine.submit(&[0], 2).expect("admitted");
        let out = completed(engine.step_outcomes());
        assert_eq!(out.iter().map(|r| (r.id, r.batch_size)).collect::<Vec<_>>(), vec![(id, 1)]);
        assert_eq!(engine.queue_len(), 0);
        // max_batch + 3 queued requests: one full batch, then the 3 left.
        let ids: Vec<u64> = (0..max_batch + 3)
            .map(|i| engine.submit(&[i as u32 % 4], 2).expect("admitted"))
            .collect();
        let first = completed(engine.step_outcomes());
        assert_eq!(first.iter().map(|r| r.id).collect::<Vec<_>>(), ids[..max_batch]);
        assert!(first.iter().all(|r| r.batch_size == max_batch));
        let rest = completed(engine.step_outcomes());
        assert_eq!(rest.iter().map(|r| r.id).collect::<Vec<_>>(), ids[max_batch..]);
        assert!(rest.iter().all(|r| r.batch_size == 3));
        assert!(engine.step_outcomes().is_empty());
    }

    #[test]
    fn responses_keep_admission_order_and_ids() {
        let (lm, vocab, trie) = setup();
        let cfg = ServeConfig { max_batch: 2, ..ServeConfig::default() };
        let mut engine = Engine::new(&lm, &vocab, &trie, cfg);
        let ids: Vec<u64> =
            (0..5).map(|i| engine.submit(&[i as u32 % 4], 2).expect("admitted")).collect();
        let out = completed(engine.flush_outcomes());
        assert_eq!(out.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
        // 5 requests at max_batch 2 → batches of 2, 2, 1.
        assert_eq!(out.iter().map(|r| r.batch_size).collect::<Vec<_>>(), vec![2, 2, 2, 2, 1]);
        assert!(out.iter().all(|r| r.latency_s >= 0.0));
    }

    #[test]
    fn top_k_truncates_the_full_width_ranking() {
        let (lm, vocab, trie) = setup();
        let mut engine = Engine::new(&lm, &vocab, &trie, ServeConfig::default());
        engine.submit(&[0, 1], 2).expect("admitted");
        engine.submit(&[0, 1], 4).expect("admitted");
        let out = completed(engine.flush_outcomes());
        assert_eq!(out[0].ranked.len(), 2);
        assert_eq!(out[1].ranked.len(), 4, "all 4 items exist");
        // Same history → the k=2 list is a prefix of the k=4 list.
        for (a, b) in out[0].ranked.iter().zip(&out[1].ranked) {
            assert_eq!(a.item, b.item);
            assert_eq!(a.logprob.to_bits(), b.logprob.to_bits());
        }
    }

    #[test]
    fn from_env_falls_back_to_defaults() {
        // The test runner may or may not have the vars set; either way the
        // config must be well-formed (clamped to ≥ 1 where required).
        let cfg = ServeConfig::from_env();
        assert!(cfg.max_batch >= 1);
        assert!(cfg.queue_cap >= 1);
    }
}
