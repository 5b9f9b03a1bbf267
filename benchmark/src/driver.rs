//! The load generator: one thread drives the synchronous router through a
//! closed loop, an open loop on an evenly paced, seeded schedule, and catalog
//! publishes, and keeps one record per arrival for the answer check.

use crate::stats::{fnv1a_u64, FNV_BASIS};
use crate::sut::{trie_item_at, Direct, Fleet, Inputs, Parts, Publisher, Ranked, Resolved};
use crate::trace::{now, Tracer};
use crate::workload::{paced_schedule, Request, Spec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which part of the run an arrival belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warm,
    /// The quarter-length closed loop a traced run does first, tracing off.
    ClosedUntraced,
    Closed,
    Open,
    Ladder(usize),
}

impl Phase {
    pub fn label(self) -> String {
        match self {
            Phase::Warm => "warm".into(),
            Phase::ClosedUntraced => "closed-untraced".into(),
            Phase::Closed => "closed".into(),
            Phase::Open => "open".into(),
            Phase::Ladder(i) => format!("ladder-r{}", i + 2),
        }
    }
}

/// How an arrival ended.
#[derive(Clone, Debug)]
pub enum Ending {
    /// Admitted, not yet resolved. None is left when a phase ends.
    Pending,
    /// The router refused the submit.
    Refused,
    TimedOut,
    Done(Ranked),
}

/// Everything kept about one arrival.
#[derive(Clone, Debug)]
pub struct Record {
    pub phase: Phase,
    pub ending: Ending,
    /// Trie slot new admissions decoded against when this one was admitted.
    pub slot: usize,
    /// Seconds since the run began: when the request was due (open loop)
    /// or submitted (closed loop), when the step that resolved it began,
    /// and when that step returned.
    pub due_s: f64,
    pub step_began_s: f64,
    pub resolved_s: f64,
    pub shard: usize,
    pub hops: u32,
    /// Requests in the batch that decoded it, as the engine reported.
    pub batch_size: usize,
    /// Serial number of the resolving step, to regroup batches.
    pub step: u64,
}

/// Seconds each part of one publish took.
#[derive(Clone, Copy, Debug)]
pub struct PublishTimes {
    pub total_s: f64,
    pub insert_s: f64,
    pub materialize_s: f64,
    pub swap_s: f64,
}

/// Where the driver thread's time went in one phase.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    pub wall_s: f64,
    pub submit_s: f64,
    /// Steps that resolved something.
    pub step_s: f64,
    /// Polls that resolved nothing, and spinning until the next arrival.
    pub idle_s: f64,
    pub publish_s: f64,
    /// `(seconds since phase start, completed so far)` after each step.
    pub marks: Vec<(f64, usize)>,
    /// Open loop: how late each admission ran behind its due time.
    pub late_s: Vec<f64>,
    pub queue_depth_max: usize,
    /// Open loop: tickets unresolved when the last arrival was admitted.
    pub backlog_at_end: usize,
}

/// One workload run in progress.
#[derive(Debug)]
pub struct Run<'a> {
    pub spec: Spec,
    seed: u64,
    inputs: &'a Inputs,
    parts: &'a Parts,
    fleet: Fleet<'a>,
    publisher: Publisher,
    requests: Vec<Request>,
    pub records: Vec<Record>,
    outstanding: BTreeMap<u64, usize>,
    origin: Instant,
    steps: u64,
    next_item: u32,
    pub tracer: Tracer,
    pub publishes: Vec<PublishTimes>,
    /// Violations the answer check found; empty means correct.
    pub errors: Vec<String>,
}

impl<'a> Run<'a> {
    pub fn begin(
        spec: Spec,
        seed: u64,
        inputs: &'a Inputs,
        parts: &'a Parts,
        requests: Vec<Request>,
    ) -> Run<'a> {
        Run {
            spec,
            seed,
            inputs,
            parts,
            fleet: Fleet::start(inputs, parts, spec.k),
            publisher: Publisher::open(inputs),
            requests,
            records: Vec::new(),
            outstanding: BTreeMap::new(),
            origin: now(),
            steps: 0,
            next_item: inputs.num_items() as u32,
            tracer: Tracer::new(false),
            publishes: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn clock_s(&self) -> f64 {
        now().duration_since(self.origin).as_secs_f64()
    }

    pub fn request_of(&self, arrival: usize) -> &Request {
        &self.requests[arrival]
    }

    pub fn arena_nodes(&self) -> usize {
        self.publisher.arena_nodes()
    }

    /// Submits the next arrival; `due_s` is the time its latency runs from.
    fn admit(&mut self, phase: Phase, due_s: f64, stats: &mut LoopStats) {
        let arrival = self.records.len();
        let t0 = self.clock_s();
        self.tracer.open_span("router.submit", Some(arrival as u64));
        let req = &self.requests[arrival];
        let ticket = self.fleet.fleet_submit(req.user, &req.history, self.spec.k);
        self.tracer.close_span();
        stats.submit_s += self.clock_s() - t0;
        let ending = match ticket {
            Some(t) => {
                if self.outstanding.insert(t, arrival).is_some() {
                    self.errors.push(format!("ticket {t} was handed out twice"));
                }
                Ending::Pending
            }
            None => Ending::Refused,
        };
        self.records.push(Record {
            phase,
            ending,
            slot: self.fleet.trie_slot(),
            due_s,
            step_began_s: 0.0,
            resolved_s: 0.0,
            shard: 0,
            hops: 0,
            batch_size: 0,
            step: 0,
        });
    }

    /// Books the outcomes a step (or a swap) returned.
    fn settle(&mut self, resolved: Vec<Resolved>, began_s: f64, ended_s: f64) {
        self.steps += 1;
        for r in resolved {
            let Some(arrival) = self.outstanding.remove(&r.ticket) else {
                self.errors.push(format!(
                    "ticket {} resolved twice or was never issued",
                    r.ticket
                ));
                continue;
            };
            let rec = &mut self.records[arrival];
            rec.step_began_s = began_s;
            rec.resolved_s = ended_s;
            rec.shard = r.shard;
            rec.hops = r.hops;
            rec.batch_size = r.batch_size;
            rec.step = self.steps;
            rec.ending = r.ranked.map_or(Ending::TimedOut, Ending::Done);
        }
    }

    /// One `step_outcomes`. A poll that resolved nothing is idle time.
    fn step(&mut self, stats: &mut LoopStats) -> usize {
        let began = self.clock_s();
        self.tracer.open_span("router.step", None);
        let resolved = self.fleet.fleet_step();
        let ended = self.clock_s();
        if resolved.is_empty() {
            self.tracer.discard_span();
            stats.idle_s += ended - began;
            return 0;
        }
        self.tracer.close_span();
        stats.step_s += ended - began;
        let resolved_n = resolved.len();
        self.settle(resolved, began, ended);
        resolved_n
    }

    /// A burst of inserts, `materialize()`, `swap_catalog`; then checks
    /// that the fleet serves the new epoch and the new trie the new items.
    pub fn publish(&mut self) -> PublishTimes {
        let t0 = self.clock_s();
        self.tracer.open_span("publish", None);
        let mut added = Vec::with_capacity(self.spec.burst);
        let mut epoch = 0;
        for _ in 0..self.spec.burst {
            let codes = self.inputs.codes_of_item(self.next_item);
            self.tracer.open_span("snapshot.insert", None);
            epoch = self.publisher.catalog_insert(&codes, self.next_item);
            self.tracer.close_span();
            added.push((codes, self.next_item));
            self.next_item += 1;
        }
        let t1 = self.clock_s();
        self.tracer.open_span("snapshot.materialize", None);
        let trie = self.publisher.catalog_materialize();
        self.tracer.close_span();
        let t2 = self.clock_s();
        self.tracer.open_span("router.swap", None);
        let resolved = self.fleet.fleet_swap(trie, epoch);
        self.tracer.close_span();
        let t3 = self.clock_s();
        self.tracer.close_span();
        self.settle(resolved, t2, t3);
        if self.fleet.fleet_epoch() != epoch {
            self.errors.push(format!(
                "after the swap the fleet reports epoch {}, not {epoch}",
                self.fleet.fleet_epoch()
            ));
        }
        let live = self.parts.trie_in_slot(self.fleet.trie_slot());
        for (codes, item) in added {
            if trie_item_at(live, &codes) != Some(item) {
                self.errors.push(format!(
                    "published trie does not bind item {item} at {codes:?}"
                ));
            }
        }
        let times = PublishTimes {
            total_s: t3 - t0,
            insert_s: t1 - t0,
            materialize_s: t2 - t1,
            swap_s: t3 - t2,
        };
        self.publishes.push(times);
        times
    }

    /// Flushes whatever a phase left queued and checks nothing is pending.
    fn finish_phase(&mut self, phase: Phase) {
        if !self.outstanding.is_empty() {
            let began = self.clock_s();
            let resolved = self.fleet.fleet_flush();
            let ended = self.clock_s();
            self.settle(resolved, began, ended);
        }
        if !self.outstanding.is_empty() || self.fleet.fleet_pending() != 0 {
            self.errors.push(format!(
                "{} ticket(s) never resolved in phase {}",
                self.outstanding.len(),
                phase.label()
            ));
            self.outstanding.clear();
        }
    }

    /// Closed loop: keeps `max_batch x shards` tickets outstanding until
    /// `n` arrivals have resolved.
    pub fn closed_loop(&mut self, phase: Phase, n: usize) -> LoopStats {
        let in_flight = Fleet::max_batch() * Fleet::shard_count();
        let swap_every = self.spec.churn.map(|c| c.closed_every);
        let mut stats = LoopStats::default();
        self.tracer.open_span("phase", None);
        let t0 = self.clock_s();
        let (mut sent, mut resolved) = (0usize, 0usize);
        while resolved < n {
            while sent < n && self.outstanding.len() < in_flight {
                self.admit(phase, self.clock_s(), &mut stats);
                sent += 1;
                if matches!(
                    self.records.last().map(|r| &r.ending),
                    Some(Ending::Refused)
                ) {
                    resolved += 1;
                }
                if swap_every.is_some_and(|every| sent.is_multiple_of(every)) {
                    let before = self.outstanding.len();
                    stats.publish_s += self.publish().total_s;
                    resolved += before - self.outstanding.len();
                }
            }
            let got = self.step(&mut stats);
            if got > 0 {
                resolved += got;
                stats.marks.push((self.clock_s() - t0, resolved));
            }
        }
        stats.wall_s = self.clock_s() - t0;
        self.tracer.close_span();
        self.finish_phase(phase);
        stats
    }

    /// Open loop: admits every arrival whose due time has passed, steps
    /// once, and spins when idle. Latency runs from the due time, so the
    /// wait behind the blocked driver thread counts.
    pub fn open_loop(&mut self, phase: Phase, rps: f64, n: usize) -> LoopStats {
        let swap_every = self.spec.churn.map(|c| c.open_every);
        let due = paced_schedule(self.seed ^ self.records.len() as u64, rps, n);
        let mut stats = LoopStats::default();
        self.tracer.open_span("phase", None);
        let t0 = self.clock_s();
        let mut sent = 0usize;
        loop {
            let t = self.clock_s() - t0;
            while sent < n && due[sent] <= t {
                let late = self.clock_s() - t0 - due[sent];
                stats.late_s.push(late);
                self.admit(phase, t0 + due[sent], &mut stats);
                sent += 1;
                if swap_every.is_some_and(|every| sent.is_multiple_of(every)) {
                    stats.publish_s += self.publish().total_s;
                }
                if sent == n {
                    stats.backlog_at_end = self.outstanding.len();
                }
            }
            stats.queue_depth_max = stats.queue_depth_max.max(self.fleet.fleet_queue_depth());
            if self.outstanding.is_empty() {
                if sent == n {
                    break;
                }
                // Nothing queued: wait for the next arrival.
                let spin = self.clock_s();
                while self.clock_s() - t0 < due[sent] {
                    std::hint::spin_loop();
                }
                stats.idle_s += self.clock_s() - spin;
                continue;
            }
            self.step(&mut stats);
        }
        stats.wall_s = self.clock_s() - t0;
        self.tracer.close_span();
        self.finish_phase(phase);
        stats
    }

    /// Sent, succeeded and failed arrivals of one phase.
    pub fn tally(&self, phase: Phase) -> (usize, usize, usize) {
        let of_phase = self.records.iter().filter(|r| r.phase == phase);
        let sent = of_phase.clone().count();
        let ok = of_phase
            .filter(|r| matches!(r.ending, Ending::Done(_)))
            .count();
        (sent, ok, sent - ok)
    }

    /// Seconds from due (or submit) to resolved, for a phase's completed arrivals.
    pub fn latencies_s(&self, phase: Phase) -> Vec<f64> {
        self.done_in(phase)
            .map(|r| r.resolved_s - r.due_s)
            .collect()
    }

    /// Seconds from due to the start of the step that resolved the arrival.
    pub fn queue_waits_s(&self, phase: Phase) -> Vec<f64> {
        self.done_in(phase)
            .map(|r| (r.step_began_s - r.due_s).max(0.0))
            .collect()
    }

    pub fn done_in(&self, phase: Phase) -> impl Iterator<Item = &Record> + Clone {
        self.records
            .iter()
            .filter(move |r| r.phase == phase && matches!(r.ending, Ending::Done(_)))
    }

    /// FNV over arrival index, item and log-prob bits of a phase's
    /// rankings, in arrival order: identical run to run for one seed.
    pub fn ranking_checksum(&self, phase: Phase) -> u64 {
        let mut h = FNV_BASIS;
        for (arrival, rec) in self.records.iter().enumerate() {
            if let (true, Ending::Done(ranked)) = (rec.phase == phase, &rec.ending) {
                h = fnv1a_u64(h, arrival as u64);
                for &(item, bits) in ranked {
                    h = fnv1a_u64(h, (item as u64) << 32 | bits as u64);
                }
            }
        }
        h
    }

    /// The answer check: every arrival ended exactly once, and one request
    /// in 16 decoded again by a direct single-prompt search under
    /// `Pool::serial()`, against the trie that served it, gives the same
    /// items and the same log-prob bits. Returns how many were re-decoded.
    pub fn verify(&mut self, direct: &mut Direct<'_>) -> usize {
        let mut decoded = 0;
        for (arrival, rec) in self.records.iter().enumerate() {
            match &rec.ending {
                Ending::Pending => self
                    .errors
                    .push(format!("arrival {arrival} has no outcome")),
                Ending::Done(ranked) => {
                    if ranked.len() != self.spec.k {
                        self.errors.push(format!(
                            "arrival {arrival} got {} items, asked for {}",
                            ranked.len(),
                            self.spec.k
                        ));
                    }
                    if arrival % 16 != 0 {
                        continue;
                    }
                    decoded += 1;
                    let prompt = direct.direct_render(&self.requests[arrival].history);
                    let trie = self.parts.trie_in_slot(rec.slot);
                    let again = direct.direct_search(true, trie, &[prompt], &[self.spec.k]);
                    if again.first() != Some(ranked) {
                        self.errors.push(format!(
                            "arrival {arrival}: the router's ranking differs from a direct decode"
                        ));
                    }
                }
                Ending::Refused | Ending::TimedOut => {}
            }
        }
        decoded
    }
}
