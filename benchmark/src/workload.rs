//! The four workloads: what traffic each sends, how much of it, and why
//! it exists. Every count, rate and limit here is frozen: two commits
//! compared with this benchmark do identical work.

use crate::sut::{Inputs, Model};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The run length the phase counts below are sized for; `--seconds`
/// scales every count by `seconds / REF_SECONDS`.
pub const REF_SECONDS: u64 = 28;

/// How a workload turns an arriving user into a request history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Zipf-replayed users; visit `v` of a user sends the stored history
    /// plus `v` seeded extra items, so a returning user's history grows
    /// by one item until the engine's 8-item window slides.
    Returning,
    /// Zipf-replayed users, every history padded to at least 8 items.
    Padded,
    /// Uniformly drawn users, only the last stored item: short prompts
    /// that share nothing beyond the template.
    OneItem,
}

/// Request counts of one run, at [`REF_SECONDS`].
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warm: usize,
    /// Closed loop, `max_batch x shards` tickets outstanding.
    pub closed: usize,
    /// Open loop at `open_rps`.
    pub open: usize,
    pub open_rps: f64,
    /// Two higher fixed rates, run only in the traced pass.
    pub ladder: [(f64, usize); 2],
}

/// Catalog publishes beside the traffic.
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    /// A publish every this many closed-loop submissions.
    pub closed_every: usize,
    /// A publish every this many open-loop arrivals.
    pub open_every: usize,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub model: Model,
    pub traffic: Traffic,
    /// Top-k asked for; also the beam width.
    pub k: usize,
    /// The open-loop p90 limit of the rate ladder.
    pub slo_ms: f64,
    pub phases: Phases,
    pub churn: Option<Churn>,
    /// New items per publish.
    pub burst: usize,
    /// Publishes on the idle fleet after the traffic, for workloads
    /// without churn (every workload reports a publish time).
    pub idle_bursts: usize,
    /// Batches the layer replay re-runs.
    pub replay_batches: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "zipf-steady",
        why: "the representative mix: 20 MB model streamed from memory each step, hot users return, so kernels, session reuse and per-shard workers all show here",
        model: Model::Large,
        traffic: Traffic::Returning,
        k: 10,
        slo_ms: 1000.0,
        phases: Phases { warm: 16, closed: 128, open: 100, open_rps: 5.0, ladder: [(9.0, 36), (12.0, 48)] },
        churn: None,
        burst: 50,
        idle_bursts: 12,
        replay_batches: 5,
    },
    Spec {
        name: "prefill-heavy",
        why: "29-token prompts at beam 4, so prefill does most of the work: template-prefix KV, head skipping and batched prefill show here and barely on decode-heavy",
        model: Model::Medium,
        traffic: Traffic::Padded,
        k: 4,
        slo_ms: 150.0,
        phases: Phases { warm: 64, closed: 1700, open: 1050, open_rps: 55.0, ladder: [(110.0, 440), (165.0, 660)] },
        churn: None,
        burst: 50,
        idle_bursts: 12,
        replay_batches: 32,
    },
    Spec {
        name: "decode-heavy",
        why: "8-token unshared prompts at beam 20, so beam expansion does most of the work: KV clones, scoring, pruning and pool spawns show here; the bypass workload for any prefix-reuse claim",
        model: Model::Medium,
        traffic: Traffic::OneItem,
        k: 20,
        slo_ms: 150.0,
        phases: Phases { warm: 64, closed: 1100, open: 780, open_rps: 40.0, ladder: [(65.0, 260), (95.0, 380)] },
        churn: None,
        burst: 50,
        idle_bursts: 12,
        replay_batches: 32,
    },
    Spec {
        name: "catalog-churn",
        why: "the zipf-steady traffic rule while bursts of new items are inserted, materialized and swapped in: trie writes beside reads, so cheap publishing that slows lookups (or the reverse) shows",
        model: Model::Medium,
        traffic: Traffic::Returning,
        k: 10,
        slo_ms: 150.0,
        phases: Phases { warm: 64, closed: 1800, open: 480, open_rps: 30.0, ladder: [(60.0, 240), (90.0, 360)] },
        churn: Some(Churn { closed_every: 200, open_every: 10 }),
        burst: 50,
        idle_bursts: 0,
        replay_batches: 32,
    },
];

pub fn spec_named(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The same phases over `seconds` instead of [`REF_SECONDS`].
    pub fn for_seconds(mut self, seconds: u64) -> Spec {
        let f = seconds as f64 / REF_SECONDS as f64;
        let scale = |n: usize, floor: usize| ((n as f64 * f).round() as usize).max(floor);
        let p = &mut self.phases;
        p.warm = scale(p.warm, 16);
        p.closed = scale(p.closed, 32);
        p.open = scale(p.open, 16);
        for step in p.ladder.iter_mut() {
            step.1 = scale(step.1, 16);
        }
        self
    }

    /// `--smoke`: the micro tier and model, tens of requests, every phase.
    pub fn smoke(mut self) -> Spec {
        self.model = Model::Test;
        self.k = self.k.min(4);
        self.phases = Phases {
            warm: 8,
            closed: 48,
            open: 32,
            open_rps: 400.0,
            ladder: [(800.0, 24), (1600.0, 24)],
        };
        self.churn = self.churn.map(|_| Churn {
            closed_every: 16,
            open_every: 8,
        });
        self.burst = 4;
        self.idle_bursts = self.idle_bursts.min(2);
        self.replay_batches = 3;
        self
    }

    /// Requests a traced run sends: a quarter of each phase, twice for the
    /// closed loop (untraced, then traced), plus the ladder.
    pub fn traced(mut self) -> Spec {
        self.phases.closed = (self.phases.closed / 4).max(32);
        self.phases.open = (self.phases.open / 4).max(16);
        self
    }
}

/// One arriving request.
#[derive(Clone, Debug)]
pub struct Request {
    pub user: u64,
    pub history: Vec<u32>,
}

/// The first `n` requests of a workload's traffic, in arrival order: a
/// pure function of the seed.
pub fn requests(inputs: &Inputs, traffic: Traffic, seed: u64, n: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x007A_FF1C);
    let users: Vec<usize> = match traffic {
        Traffic::OneItem => (0..n)
            .map(|_| rng.random_range(0..inputs.num_users()))
            .collect(),
        Traffic::Returning | Traffic::Padded => inputs.replay_users(n),
    };
    let mut visits: BTreeMap<usize, usize> = BTreeMap::new();
    users
        .into_iter()
        .map(|user| {
            let mut history = inputs.base_history(user);
            // A user's extra items are their own seeded stream, so visit
            // v + 1 extends visit v by exactly one item.
            let mut extras =
                StdRng::seed_from_u64(seed ^ (user as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            match traffic {
                Traffic::Returning => {
                    let seen = visits.entry(user).or_insert(0);
                    history.extend((0..*seen).map(|_| inputs.draw_item(&mut extras)));
                    *seen += 1;
                }
                Traffic::Padded => {
                    while history.len() < 8 {
                        history.push(inputs.draw_item(&mut extras));
                    }
                }
                Traffic::OneItem => {
                    history.drain(..history.len().saturating_sub(1));
                }
            }
            Request {
                user: user as u64,
                history,
            }
        })
        .collect()
}

/// How far an arrival's due time may sit from its even slot, as a share of
/// the gap between slots.
const JITTER: f64 = 0.1;

/// Due times in seconds from the phase start of `n` arrivals at `rps`:
/// evenly paced, one per `1 / rps` seconds, each moved by a seeded jitter
/// of at most a tenth of the gap either way. Every seed offers the same
/// rate with the same spacing, so the latency of a run is set by the
/// program and not by which arrivals happened to bunch; the same seed gives
/// the same schedule.
pub fn paced_schedule(seed: u64, rps: f64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA221_7A15);
    (0..n)
        .map(|i| (i as f64 + 0.5 + rng.random_range(-JITTER..JITTER)) / rps)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_due_times() {
        let a = paced_schedule(7, 50.0, 500);
        let b = paced_schedule(7, 50.0, 500);
        assert_eq!(a, b);
        assert_ne!(a, paced_schedule(8, 50.0, 500));
        let gap = 1.0 / 50.0;
        assert!(
            a.windows(2)
                .all(|w| w[1] - w[0] > 0.79 * gap && w[1] - w[0] < 1.21 * gap),
            "neighbours are a gap apart, give or take the jitter"
        );
        assert!(
            a.iter()
                .enumerate()
                .all(|(i, t)| (t - (i as f64 + 0.5) * gap).abs() <= JITTER * gap),
            "every arrival stays within the jitter of its slot"
        );
    }

    #[test]
    fn returning_users_grow_by_one_item_and_traffic_repeats_per_seed() {
        let inputs = Inputs::generate(Model::Test, true, 3);
        let a = requests(&inputs, Traffic::Returning, 3, 200);
        let b = requests(&inputs, Traffic::Returning, 3, 200);
        assert_eq!(
            a.iter()
                .map(|r| (r.user, r.history.clone()))
                .collect::<Vec<_>>(),
            b.iter()
                .map(|r| (r.user, r.history.clone()))
                .collect::<Vec<_>>()
        );
        let mut last: BTreeMap<u64, &Vec<u32>> = BTreeMap::new();
        let mut returns = 0;
        for r in &a {
            if let Some(prev) = last.insert(r.user, &r.history) {
                assert_eq!(r.history.len(), prev.len() + 1);
                assert_eq!(&r.history[..prev.len()], prev.as_slice());
                returns += 1;
            }
        }
        assert!(returns > 0, "200 draws over 200 users repeat someone");
        assert!(requests(&inputs, Traffic::Padded, 3, 50)
            .iter()
            .all(|r| r.history.len() >= 8));
        assert!(requests(&inputs, Traffic::OneItem, 3, 50)
            .iter()
            .all(|r| r.history.len() == 1));
    }

    #[test]
    fn phase_counts_scale_with_seconds() {
        let spec = WORKLOADS[1];
        let half = spec.for_seconds(REF_SECONDS / 2);
        assert_eq!(half.phases.closed, spec.phases.closed / 2);
        assert_eq!(spec.for_seconds(REF_SECONDS).phases.open, spec.phases.open);
    }
}
