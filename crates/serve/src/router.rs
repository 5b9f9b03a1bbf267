//! Multi-shard serving: a consistent-hash [`Router`] over N [`Engine`]
//! replicas.
//!
//! One [`Engine`] is one **shard**: a bounded admission queue plus batched
//! constrained decoding over a borrowed model snapshot. The [`Router`]
//! composes N of them behind a seeded consistent-hash ring
//! ([`Ring`]) so that
//!
//! * a fixed user id lands on the same shard run after run (the ring is a
//!   pure function of `(seed, shard, vnode)` — adding a shard moves only
//!   the keys the new shard takes over, see [`Ring`]);
//! * every shard keeps its **own** bounded queue and backpressure — one hot
//!   shard rejecting admissions never blocks the others;
//! * a shard's typed refusal ([`Reject::QueueFull`] / [`Reject::Shed`]) or
//!   typed abandonment ([`Outcome::TimedOut`]) triggers a **hedged retry**:
//!   the request is re-dispatched to the next distinct replica in ring
//!   order, bounded by [`RouterConfig::hedge_attempts`] and accounted
//!   against a [`Backoff`] schedule (delays are recorded, not slept —
//!   decoding is deterministic, so a retry costs a schedule slot, not a
//!   repeated weight pass);
//! * every submitted request still resolves to **exactly one** terminal
//!   outcome: a typed [`RouterReject`] at admission time, or later exactly
//!   one [`RouterOutcome`] — never a panic, never silence.
//!
//! Model **hot-swap** ([`Router::hot_swap`]) is snapshot-based: new
//! admissions go to fresh engines over the new model parts, while each
//! shard's previous engine is demoted to a *draining* standby whose
//! in-flight requests finish on the old snapshot. The swap never cancels
//! queued work and never mixes two snapshots inside one batch.
//!
//! The determinism contract extends one level up from the engine: rankings
//! are bit-identical across shard counts and router-vs-direct-engine
//! (`tests/fleet.rs`), the same way `lcrec-par` is bit-identical across
//! thread counts. See `docs/FLEET.md` for the ring layout, the hedging
//! policy and outcome taxonomy, and how to read `results/fleet.md`.

use crate::{Engine, Outcome, Reject, Response, ServeConfig, TimeoutReason};
use lcrec_core::{CausalLm, ExtendedVocab};
use lcrec_fault::{fnv1a64_extend, Backoff, FaultPlan, Mode, FNV1A64_BASIS};
use lcrec_rqvae::IndexTrie;
use std::collections::BTreeMap;
use std::fmt;

/// Environment variable overriding [`RouterConfig::shards`].
pub const SHARDS_ENV: &str = "LCREC_SHARDS";
/// Environment variable overriding [`RouterConfig::hedge_attempts`].
pub const HEDGE_ENV: &str = "LCREC_HEDGE_ATTEMPTS";

/// Sharding and hedging policy for a [`Router`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Engine replicas behind the ring. `1` degrades the router to a bare
    /// [`Engine`] with ticket renumbering (same answers, bit for bit).
    pub shards: usize,
    /// Virtual nodes per shard on the hash ring. More vnodes smooth the
    /// per-shard key share; the default (16) keeps the expected imbalance
    /// small without bloating the ring.
    pub vnodes: usize,
    /// Hedged re-dispatches allowed per request **after** its first
    /// admission. `0` disables hedging: a shard's timeout is final.
    pub hedge_attempts: u32,
    /// Seed for the ring's placement hash. Two routers with the same seed,
    /// shard count and vnodes route every user identically.
    pub seed: u64,
    /// Per-shard engine policy (batching, queue bound, deadlines); every
    /// shard gets its own copy, so queue capacity is *per shard*.
    pub shard: ServeConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            vnodes: 16,
            hedge_attempts: 2,
            seed: 0xf1ee7,
            shard: ServeConfig::default(),
        }
    }
}

impl RouterConfig {
    /// Defaults overridden by the `LCREC_SHARDS` and
    /// `LCREC_HEDGE_ATTEMPTS` environment variables (unset or unparsable
    /// values keep the default; shards clamp to ≥ 1), with the per-shard
    /// engine policy from [`ServeConfig::from_env`].
    pub fn from_env() -> Self {
        let mut cfg = RouterConfig { shard: ServeConfig::from_env(), ..RouterConfig::default() };
        if let Some(v) = crate::env_usize(SHARDS_ENV) {
            cfg.shards = v.max(1);
        }
        if let Some(v) = crate::env_usize(HEDGE_ENV) {
            cfg.hedge_attempts = v.min(u32::MAX as usize) as u32;
        }
        cfg
    }
}

/// Why the router did not admit a request. Mirrors the engine-level
/// [`Reject`], lifted to the fleet: the router only refuses a request
/// after **every** replica in the user's ring order refused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouterReject {
    /// The requested `k` is unusable: zero asks for an empty ranking.
    InvalidK {
        /// The `k` the caller passed to [`Router::submit`].
        k: usize,
    },
    /// Every shard in the user's replica order refused admission; the
    /// per-shard refusals are preserved so callers can tell hard capacity
    /// ([`Reject::QueueFull`]) from load shedding ([`Reject::Shed`]).
    AllShardsSaturated {
        /// `(shard, refusal)` per attempted replica, in ring order.
        attempts: Vec<(usize, Reject)>,
    },
}

impl fmt::Display for RouterReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterReject::InvalidK { k } => {
                write!(f, "invalid top-k request (k = {k}); k must be at least 1")
            }
            RouterReject::AllShardsSaturated { attempts } => {
                write!(f, "all {} shard(s) rejected admission; retry later", attempts.len())
            }
        }
    }
}

impl std::error::Error for RouterReject {}

/// The final, typed resolution of one routed request. Every ticket
/// returned by [`Router::submit`] resolves to exactly one `RouterOutcome`
/// from [`Router::step_outcomes`] / [`Router::flush_outcomes`] — hedged
/// re-dispatches happen *inside* the router and never surface as extra
/// outcomes.
#[derive(Clone, Debug)]
pub enum RouterOutcome {
    /// The request decoded successfully on `shard`.
    Completed {
        /// The shard whose engine produced the response.
        shard: usize,
        /// Admissions this request took (1 = no hedging).
        hops: u32,
        /// The engine response, with its id rewritten to the router ticket.
        response: Response,
    },
    /// The request was abandoned after the hedge budget ran out.
    TimedOut {
        /// The ticket returned by [`Router::submit`].
        id: u64,
        /// The shard whose engine reported the final timeout.
        shard: usize,
        /// Admissions this request took before giving up.
        hops: u32,
        /// Seconds from the *final* admission to abandonment.
        waited_s: f64,
        /// Why the final attempt did not complete.
        reason: TimeoutReason,
    },
}

impl RouterOutcome {
    /// The router ticket this outcome resolves.
    pub fn id(&self) -> u64 {
        match self {
            RouterOutcome::Completed { response, .. } => response.id,
            RouterOutcome::TimedOut { id, .. } => *id,
        }
    }

    /// The shard that produced this outcome.
    pub fn shard(&self) -> usize {
        match self {
            RouterOutcome::Completed { shard, .. } => *shard,
            RouterOutcome::TimedOut { shard, .. } => *shard,
        }
    }

    /// Admissions the request took (1 = routed once, never hedged).
    pub fn hops(&self) -> u32 {
        match self {
            RouterOutcome::Completed { hops, .. } => *hops,
            RouterOutcome::TimedOut { hops, .. } => *hops,
        }
    }

    /// True for [`RouterOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, RouterOutcome::Completed { .. })
    }

    /// The response, when the request completed.
    pub fn completed(self) -> Option<Response> {
        match self {
            RouterOutcome::Completed { response, .. } => Some(response),
            RouterOutcome::TimedOut { .. } => None,
        }
    }
}

/// One routed-but-unresolved request.
#[derive(Clone, Debug)]
struct Route {
    history: Vec<u32>,
    k: usize,
    /// Admissions so far (1 after the first successful submit).
    hops: u32,
    /// The user's distinct-shard failover order, from [`Ring::replica_cycle`].
    replicas: Vec<usize>,
}

/// One shard: the live engine plus, right after a hot swap, the previous
/// generation still draining its queued work on the old snapshot.
#[derive(Debug)]
struct Shard<'a> {
    active: Engine<'a>,
    /// Engine-local ticket → router ticket for the active engine.
    active_tickets: BTreeMap<u64, u64>,
    /// Demoted engine + its ticket map; dropped once fully drained.
    draining: Option<(Engine<'a>, BTreeMap<u64, u64>)>,
}

/// Builds the per-shard fault plan: same mode and rate everywhere, but a
/// shard-distinct seed so replicas do not hiccup in lockstep.
fn shard_plan(spec: Option<(Mode, u64, u64)>, shard: usize) -> FaultPlan {
    let derive = |seed: u64| seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    match spec {
        None => {
            let base = FaultPlan::from_env();
            match base.mode() {
                Mode::Off => FaultPlan::disabled(),
                Mode::Transient => FaultPlan::transient(derive(base.seed())),
                Mode::Chaos => FaultPlan::chaos(derive(base.seed())),
            }
        }
        Some((Mode::Off, _, _)) => FaultPlan::disabled(),
        Some((Mode::Transient, seed, rate)) => FaultPlan::transient(derive(seed)).with_rate(rate),
        Some((Mode::Chaos, seed, rate)) => FaultPlan::chaos(derive(seed)).with_rate(rate),
    }
}

/// A consistent-hash router over N [`Engine`] shards.
///
/// Users are partitioned across shards by a seeded [`Ring`]; each shard
/// keeps its own bounded queue and backpressure. Admission refusals and
/// timeouts hedge to the next ring replica (bounded by
/// [`RouterConfig::hedge_attempts`]); [`Router::hot_swap`] flips every
/// shard to a new model snapshot while in-flight work finishes on the old
/// one. Rankings are bit-identical to a direct [`Engine`] at any shard
/// count.
///
/// # Examples
///
/// ```
/// use lcrec_core::{CausalLm, ExtendedVocab, LmConfig};
/// use lcrec_rqvae::{IndexTrie, ItemIndices};
/// use lcrec_serve::{Router, RouterConfig};
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
/// let cfg = RouterConfig { shards: 2, ..RouterConfig::default() };
/// let mut router = Router::new(&lm, &vocab, &trie, cfg);
/// let ticket = router.submit(7, &[0, 2], 3).expect("fleet has room");
/// let outcomes = router.flush_outcomes();
/// assert_eq!(outcomes.len(), 1);
/// assert_eq!(outcomes[0].id(), ticket);
/// assert!(outcomes[0].is_completed());
/// ```
#[derive(Debug)]
pub struct Router<'a> {
    cfg: RouterConfig,
    ring: Ring,
    shards: Vec<Shard<'a>>,
    /// Router ticket → route state, until the terminal outcome.
    pending: BTreeMap<u64, Route>,
    next_id: u64,
    backoff: Backoff,
    /// `(mode, seed, rate)` the per-shard fault plans are derived from;
    /// `None` falls back to the `LCREC_FAULT` environment plan.
    faults: Option<(Mode, u64, u64)>,
    epoch: u64,
    /// Catalog epoch of the trie snapshot new admissions decode against
    /// (see [`Router::swap_catalog`]); 0 until the first catalog swap.
    catalog_epoch: u64,
    /// `router.shard{n}.requests`, one per shard, formatted once here so
    /// `submit` allocates nothing for its per-shard counter.
    shard_counters: Vec<String>,
}

impl<'a> Router<'a> {
    /// A router over `cfg.shards` fresh engines sharing one model
    /// snapshot, partitioned by a seeded consistent-hash ring.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrec_core::{CausalLm, ExtendedVocab, LmConfig};
    /// use lcrec_rqvae::{IndexTrie, ItemIndices};
    /// use lcrec_serve::{Router, RouterConfig};
    /// use lcrec_text::Vocab;
    ///
    /// let base = Vocab::build(["recommend the next item"], 1);
    /// let indices = ItemIndices::new(vec![3], vec![vec![0], vec![1], vec![2]]);
    /// let trie = IndexTrie::build(&indices);
    /// let vocab = ExtendedVocab::new(base, indices);
    /// let lm = CausalLm::new(LmConfig::test(vocab.len()));
    ///
    /// let cfg = RouterConfig { shards: 4, ..RouterConfig::default() };
    /// let router = Router::new(&lm, &vocab, &trie, cfg);
    /// assert_eq!(router.shard_count(), 4);
    /// // The same user always routes to the same shard.
    /// assert_eq!(router.ring().primary(42), router.ring().primary(42));
    /// ```
    pub fn new(
        lm: &'a CausalLm,
        vocab: &'a ExtendedVocab,
        trie: &'a IndexTrie,
        cfg: RouterConfig,
    ) -> Self {
        assert!(cfg.shards >= 1, "a router needs at least one shard");
        assert!(cfg.vnodes >= 1, "a router needs at least one vnode per shard");
        let ring = Ring::new(cfg.shards, cfg.vnodes, cfg.seed);
        let shards = (0..cfg.shards)
            .map(|s| {
                let mut active = Engine::new(lm, vocab, trie, cfg.shard.clone());
                active.set_fault_plan(shard_plan(None, s));
                Shard { active, active_tickets: BTreeMap::new(), draining: None }
            })
            .collect();
        let shard_counters =
            (0..cfg.shards).map(|s| format!("router.shard{s}.requests")).collect();
        Router {
            cfg,
            ring,
            shards,
            pending: BTreeMap::new(),
            next_id: 0,
            backoff: Backoff::default(),
            faults: None,
            epoch: 0,
            catalog_epoch: 0,
            shard_counters,
        }
    }

    /// Replaces every shard's fault plan with one derived from
    /// `(mode, seed, rate)` — same mode and rate on each shard, but
    /// shard-distinct seeds so replicas fail independently. The chaos
    /// suite uses this for explicit seeded sweeps without touching the
    /// environment; the derivation is pure, so the same spec reproduces
    /// the same fleet-wide fault schedule (and survives hot swaps).
    pub fn with_faults(mut self, mode: Mode, seed: u64, rate: u64) -> Self {
        self.faults = Some((mode, seed, rate));
        for (s, sh) in self.shards.iter_mut().enumerate() {
            sh.active.set_fault_plan(shard_plan(self.faults, s));
            if let Some((eng, _)) = sh.draining.as_mut() {
                eng.set_fault_plan(shard_plan(self.faults, s));
            }
        }
        self
    }

    /// Replaces the hedge-delay schedule (defaults to
    /// [`Backoff::default`]). Delays are accounted to the
    /// `router.backoff_ms` counter, never slept.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The consistent-hash ring routing users to shards.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Engine replicas behind the ring.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Requests queued across every engine (active and draining).
    pub fn queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| {
                sh.active.queue_len()
                    + sh.draining.as_ref().map(|(eng, _)| eng.queue_len()).unwrap_or(0)
            })
            .sum()
    }

    /// Tickets admitted but not yet resolved to a terminal outcome.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Model generations served so far minus one: starts at 0, increments
    /// on every [`Router::hot_swap`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The catalog epoch new admissions decode against — the value passed
    /// to the latest [`Router::swap_catalog`] call (0 before the first).
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog_epoch
    }

    /// Routes a request (user id + history → top-`k` items) to the user's
    /// primary shard, falling through the ring's failover order when a
    /// shard refuses admission. Returns a fleet-wide ticket, or a typed
    /// [`RouterReject`] — [`RouterReject::AllShardsSaturated`] only after
    /// **every** replica refused, so callers see exactly one terminal
    /// resolution per request.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrec_core::{CausalLm, ExtendedVocab, LmConfig};
    /// use lcrec_rqvae::{IndexTrie, ItemIndices};
    /// use lcrec_serve::{Router, RouterConfig, RouterReject};
    /// use lcrec_text::Vocab;
    ///
    /// let base = Vocab::build(["recommend the next item"], 1);
    /// let indices = ItemIndices::new(vec![3], vec![vec![0], vec![1], vec![2]]);
    /// let trie = IndexTrie::build(&indices);
    /// let vocab = ExtendedVocab::new(base, indices);
    /// let lm = CausalLm::new(LmConfig::test(vocab.len()));
    ///
    /// let mut router = Router::new(&lm, &vocab, &trie, RouterConfig::default());
    /// assert!(matches!(
    ///     router.submit(7, &[0], 0),
    ///     Err(RouterReject::InvalidK { k: 0 })
    /// ));
    /// let ticket = router.submit(7, &[0, 1], 2).expect("fleet has room");
    /// let outcomes = router.flush_outcomes();
    /// assert_eq!(outcomes.len(), 1);
    /// assert_eq!(outcomes[0].id(), ticket);
    /// ```
    pub fn submit(
        &mut self,
        user: u64,
        history: &[u32],
        k: usize,
    ) -> Result<u64, RouterReject> {
        if k == 0 {
            lcrec_obs::counter_add("router.rejected", 1);
            return Err(RouterReject::InvalidK { k });
        }
        let cycle = self.ring.replica_cycle(user);
        let mut attempts: Vec<(usize, Reject)> = Vec::new();
        for (pos, &shard) in cycle.iter().enumerate() {
            let Some(sh) = self.shards.get_mut(shard) else { continue };
            match sh.active.submit(history, k) {
                Ok(local) => {
                    let ticket = self.next_id;
                    self.next_id += 1;
                    sh.active_tickets.insert(local, ticket);
                    self.pending.insert(
                        ticket,
                        Route { history: history.to_vec(), k, hops: 1, replicas: cycle.clone() },
                    );
                    lcrec_obs::counter_add("router.requests", 1);
                    if pos > 0 {
                        lcrec_obs::counter_add("router.redirects", pos as u64);
                    }
                    if lcrec_obs::enabled() {
                        lcrec_obs::hist_record("router.shard", shard as f64);
                        if let Some(name) = self.shard_counters.get(shard) {
                            lcrec_obs::counter_add(name, 1);
                        }
                    }
                    return Ok(ticket);
                }
                // k ≥ 1 was checked above, so the engine can only refuse
                // for capacity; keep the arm for exhaustiveness.
                Err(Reject::InvalidK { k }) => {
                    lcrec_obs::counter_add("router.rejected", 1);
                    return Err(RouterReject::InvalidK { k });
                }
                Err(refusal) => attempts.push((shard, refusal)),
            }
        }
        lcrec_obs::counter_add("router.saturated", 1);
        Err(RouterReject::AllShardsSaturated { attempts })
    }

    /// Steps every shard once — draining engines are flushed to
    /// completion, active engines dispatch one batch of whatever is queued
    /// — and returns **every** terminal typed [`RouterOutcome`] this step
    /// produced. A timeout that still has hedge budget is re-dispatched
    /// internally instead of surfacing. A caller that wants only the
    /// responses filters with [`RouterOutcome::completed`].
    pub fn step_outcomes(&mut self) -> Vec<RouterOutcome> {
        let mut out = Vec::new();
        self.sweep(false, &mut out);
        out
    }

    /// Drains every queue in the fleet — including hedged re-dispatches —
    /// and returns **every** request's terminal typed [`RouterOutcome`].
    /// Loops until no engine holds queued work,
    /// so hedged re-dispatches triggered by this flush also resolve; the
    /// loop terminates because every re-dispatch consumes bounded hedge
    /// budget.
    pub fn flush_outcomes(&mut self) -> Vec<RouterOutcome> {
        let mut out = Vec::new();
        loop {
            self.sweep(true, &mut out);
            if self.queue_depth() == 0 {
                break;
            }
        }
        out
    }

    /// Flips the fleet to a new model snapshot. Each shard's current
    /// engine is demoted to a draining standby — its already-admitted
    /// requests complete on the **old** snapshot — while a fresh engine
    /// over the new parts takes all new admissions. Any *previous*
    /// standby generation is flushed first; its terminal outcomes are
    /// returned (empty when back-to-back swaps don't overlap). No queued
    /// request is ever dropped by a swap, and no batch mixes snapshots.
    ///
    /// The borrowed parts must outlive the router, exactly as in
    /// [`Router::new`]; load a checkpoint into the new parts beforehand
    /// via the chunked `lcrec_tensor::load_params_file` path.
    pub fn hot_swap(
        &mut self,
        lm: &'a CausalLm,
        vocab: &'a ExtendedVocab,
        trie: &'a IndexTrie,
    ) -> Vec<RouterOutcome> {
        // Finish the previous standby generation before demoting another.
        let mut out = Vec::new();
        for s in 0..self.shards.len() {
            let local: Vec<Outcome> = self
                .shards
                .get_mut(s)
                .and_then(|sh| sh.draining.as_mut())
                .map(|(eng, _)| eng.flush_outcomes())
                .unwrap_or_default();
            for o in local {
                self.resolve(s, true, o, &mut out);
            }
        }
        self.retire_drained();
        for s in 0..self.shards.len() {
            let mut fresh = Engine::new(lm, vocab, trie, self.cfg.shard.clone());
            fresh.set_fault_plan(shard_plan(self.faults, s));
            let Some(sh) = self.shards.get_mut(s) else { continue };
            let old = std::mem::replace(&mut sh.active, fresh);
            let old_tickets = std::mem::take(&mut sh.active_tickets);
            sh.draining = Some((old, old_tickets));
        }
        self.epoch += 1;
        lcrec_obs::counter_add("router.swaps", 1);
        out
    }

    /// [`Router::hot_swap`] for **catalog growth**: flips the fleet to a
    /// trie materialized from a newer `lcrec_core::CatalogTrie` epoch
    /// (typically the same `lm`/`vocab` — the code space H × K does not
    /// change when items are admitted). In-flight batches finish decoding
    /// against the old snapshot's trie while new admissions see the grown
    /// one; `catalog_epoch` records which snapshot epoch the fleet now
    /// serves, and the `catalog.swaps` counter tracks roll-forwards.
    pub fn swap_catalog(
        &mut self,
        lm: &'a CausalLm,
        vocab: &'a ExtendedVocab,
        trie: &'a IndexTrie,
        catalog_epoch: u64,
    ) -> Vec<RouterOutcome> {
        let out = self.hot_swap(lm, vocab, trie);
        self.catalog_epoch = catalog_epoch;
        lcrec_obs::counter_add("catalog.swaps", 1);
        out
    }

    /// One pass over the fleet: drains each shard's standby engine, steps
    /// (or drains) its active engine, and resolves the local outcomes —
    /// hedging timeouts that still have budget.
    fn sweep(&mut self, drain_active: bool, out: &mut Vec<RouterOutcome>) {
        for s in 0..self.shards.len() {
            let mut local: Vec<(bool, Outcome)> = Vec::new();
            if let Some(sh) = self.shards.get_mut(s) {
                if let Some((eng, _)) = sh.draining.as_mut() {
                    local.extend(eng.flush_outcomes().into_iter().map(|o| (true, o)));
                }
                let fresh = if drain_active {
                    sh.active.flush_outcomes()
                } else {
                    sh.active.step_outcomes()
                };
                local.extend(fresh.into_iter().map(|o| (false, o)));
            }
            for (from_draining, o) in local {
                self.resolve(s, from_draining, o, out);
            }
        }
        self.retire_drained();
    }

    /// Maps one engine-local outcome back to its router ticket: a
    /// completion (or hedge-exhausted timeout) becomes the ticket's single
    /// terminal [`RouterOutcome`]; a timeout with budget left re-dispatches
    /// instead.
    fn resolve(&mut self, shard: usize, from_draining: bool, o: Outcome, out: &mut Vec<RouterOutcome>) {
        let local_id = o.id();
        let ticket = self.shards.get_mut(shard).and_then(|sh| {
            if from_draining {
                sh.draining.as_mut().and_then(|(_, map)| map.remove(&local_id))
            } else {
                sh.active_tickets.remove(&local_id)
            }
        });
        // Exhaustive accounting: every engine outcome maps to a ticket by
        // construction (inserted at submit, removed exactly once here).
        assert!(ticket.is_some(), "engine outcome without a router ticket (shard {shard})");
        let Some(ticket) = ticket else { return };
        match o {
            Outcome::Completed(mut response) => {
                let route = self.pending.remove(&ticket);
                assert!(route.is_some(), "completed ticket missing from the pending table");
                let hops = route.map(|r| r.hops).unwrap_or(1);
                response.id = ticket;
                lcrec_obs::counter_add("router.completed", 1);
                out.push(RouterOutcome::Completed { shard, hops, response });
            }
            Outcome::TimedOut { waited_s, reason, .. } => {
                if self.try_hedge(ticket, shard) {
                    return;
                }
                let route = self.pending.remove(&ticket);
                assert!(route.is_some(), "timed-out ticket missing from the pending table");
                let hops = route.map(|r| r.hops).unwrap_or(1);
                lcrec_obs::counter_add("router.exhausted", 1);
                out.push(RouterOutcome::TimedOut { id: ticket, shard, hops, waited_s, reason });
            }
        }
    }

    /// Re-dispatches a timed-out ticket to the next replica in its ring
    /// order (a fresh admission: the deadline clock restarts). Returns
    /// false when the hedge budget is spent or every replica refused —
    /// the caller then emits the terminal timeout.
    fn try_hedge(&mut self, ticket: u64, failed: usize) -> bool {
        let (history, k, cycle, hops) = match self.pending.get(&ticket) {
            Some(route) if route.hops < self.cfg.hedge_attempts.saturating_add(1) => {
                (route.history.clone(), route.k, route.replicas.clone(), route.hops)
            }
            _ => return false,
        };
        let len = cycle.len();
        if len == 0 {
            return false;
        }
        // Start clockwise *after* the shard that just failed the request.
        let start = cycle.iter().position(|&s| s == failed).map(|p| p + 1).unwrap_or(0);
        for &cand in cycle.iter().cycle().skip(start).take(len) {
            let Some(sh) = self.shards.get_mut(cand) else { continue };
            if let Ok(local) = sh.active.submit(&history, k) {
                sh.active_tickets.insert(local, ticket);
                if let Some(route) = self.pending.get_mut(&ticket) {
                    route.hops += 1;
                }
                lcrec_obs::counter_add("router.hedges", 1);
                lcrec_obs::counter_add(
                    "router.backoff_ms",
                    self.backoff.delay_ms(hops.saturating_sub(1)),
                );
                return true;
            }
        }
        false
    }

    /// Drops standby engines that have no queued work and no unresolved
    /// tickets left.
    fn retire_drained(&mut self) {
        for sh in &mut self.shards {
            let done = sh
                .draining
                .as_ref()
                .is_some_and(|(eng, map)| eng.queue_len() == 0 && map.is_empty());
            if done {
                sh.draining = None;
            }
        }
    }
}

fn point_hash(seed: u64, shard: usize, vnode: usize) -> u64 {
    let mut h = fnv1a64_extend(FNV1A64_BASIS, b"lcrec.ring.point");
    h = fnv1a64_extend(h, &seed.to_le_bytes());
    h = fnv1a64_extend(h, &(shard as u64).to_le_bytes());
    fnv1a64_extend(h, &(vnode as u64).to_le_bytes())
}

fn user_hash(seed: u64, user: u64) -> u64 {
    let h = fnv1a64_extend(FNV1A64_BASIS, b"lcrec.ring.user");
    fnv1a64_extend(fnv1a64_extend(h, &seed.to_le_bytes()), &user.to_le_bytes())
}

/// A seeded consistent-hash ring mapping user ids to shards.
///
/// Each shard contributes `vnodes` points at
/// `hash(seed, shard, vnode)` — a function that never looks at the total
/// shard count. A user maps to the shard owning the first point at or
/// after `hash(seed, user)` (wrapping). Because existing points never move
/// when a shard is added, growing the fleet from N to N+1 shards only
/// re-routes the users the new shard's points capture; everyone else keeps
/// their shard (pinned by `tests/fleet.rs`).
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point hash, shard)` sorted by hash — the clockwise ring order.
    points: Vec<(u64, usize)>,
    shards: usize,
    seed: u64,
}

impl Ring {
    /// Builds the ring for `shards` replicas with `vnodes` points each.
    pub fn new(shards: usize, vnodes: usize, seed: u64) -> Self {
        assert!(shards >= 1, "a ring needs at least one shard");
        assert!(vnodes >= 1, "a ring needs at least one vnode per shard");
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                points.push((point_hash(seed, shard, vnode), shard));
            }
        }
        // Tie-break equal hashes by shard id so the ring order is total.
        points.sort_unstable();
        Ring { points, shards, seed }
    }

    /// Shard count this ring was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The seed the placement hash was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning `user`: the first ring point at or after the
    /// user's hash, wrapping past the top of the hash space.
    pub fn primary(&self, user: u64) -> usize {
        let h = user_hash(self.seed, user);
        let pos = self.points.partition_point(|&(ph, _)| ph < h);
        self.points
            .get(pos)
            .or_else(|| self.points.first())
            .map(|&(_, shard)| shard)
            .unwrap_or(0)
    }

    /// Every distinct shard in clockwise ring order starting from the
    /// user's primary — the failover order hedged retries walk. Always
    /// contains all shards exactly once.
    pub fn replica_cycle(&self, user: u64) -> Vec<usize> {
        let h = user_hash(self.seed, user);
        let pos = self.points.partition_point(|&(ph, _)| ph < h);
        let mut cycle = Vec::with_capacity(self.shards);
        for &(_, shard) in self.points.iter().skip(pos).chain(self.points.iter().take(pos)) {
            if !cycle.contains(&shard) {
                cycle.push(shard);
                if cycle.len() == self.shards {
                    break;
                }
            }
        }
        cycle
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

    #[test]
    fn ring_is_deterministic_and_covers_every_shard() {
        let a = Ring::new(4, 16, 7);
        let b = Ring::new(4, 16, 7);
        for user in 0..64u64 {
            assert_eq!(a.primary(user), b.primary(user));
            let cycle = a.replica_cycle(user);
            let mut sorted = cycle.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "cycle covers all shards: {cycle:?}");
            assert_eq!(cycle.first().copied(), Some(a.primary(user)));
        }
        // A different seed reshuffles placement.
        let c = Ring::new(4, 16, 8);
        assert!((0..64u64).any(|u| a.primary(u) != c.primary(u)));
    }

    #[test]
    fn adding_a_shard_only_moves_keys_to_the_new_shard() {
        let before = Ring::new(3, 16, 7);
        let after = Ring::new(4, 16, 7);
        for user in 0..256u64 {
            let (b, a) = (before.primary(user), after.primary(user));
            assert!(a == b || a == 3, "user {user} moved {b} → {a}, not to the new shard");
        }
    }

    #[test]
    fn every_user_routes_consistently_through_submit() {
        let (lm, vocab, trie) = setup();
        let cfg = RouterConfig { shards: 3, ..RouterConfig::default() };
        let mut router = Router::new(&lm, &vocab, &trie, cfg);
        let primary = router.ring().primary(5);
        let ticket = router.submit(5, &[0, 1], 2).expect("admitted");
        let out = router.flush_outcomes();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id(), ticket);
        assert_eq!(out[0].shard(), primary);
        assert_eq!(out[0].hops(), 1);
        assert_eq!(router.pending_len(), 0);
    }

    #[test]
    fn from_env_is_well_formed() {
        let cfg = RouterConfig::from_env();
        assert!(cfg.shards >= 1);
    }

    #[test]
    fn zero_k_is_rejected_before_touching_the_ring() {
        let (lm, vocab, trie) = setup();
        let mut router = Router::new(&lm, &vocab, &trie, RouterConfig::default());
        assert_eq!(router.submit(1, &[0], 0), Err(RouterReject::InvalidK { k: 0 }));
        assert_eq!(router.queue_depth(), 0);
    }
}
