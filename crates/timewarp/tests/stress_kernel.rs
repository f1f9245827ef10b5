//! Stress test of the kernel's per-LP queues: a splitmix64-driven storm of
//! random positives, stragglers, anti-messages and orphan antis is fed
//! straight into one `LpRuntime`, and after every step the runtime's
//! observables are compared against a naive reference model that keeps
//! unsorted `Vec`s and resolves every annihilation by linear scan. The
//! runtime keeps its pending events in one deque sorted by `(recv_time,
//! id)`, inserts by binary search, finds an anti-message's positive by
//! binary search in the pending and processed queues, and hands a
//! rollback's undone events back on the deque's front. Any divergence in
//! decision (annihilate pending / secondary rollback / orphan), queue
//! contents, LVT or resulting state is a bug in that ordering.

use pls_timewarp::lp::{LpRuntime, Scratch};
use pls_timewarp::{
    AntiEvent, Application, Cancellation, Event, EventId, EventSink, KernelConfig, KernelStats,
    LpId, NoProbe, Transmission, VTime,
};

/// splitmix64 — drives the schedule generation deterministically.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An LP that folds every executed batch into an order-sensitive hash and
/// never sends: all traffic comes from the test driver, so the reference
/// model sees exactly the same message stream as the kernel.
struct Sponge;

fn fold(state: u64, now: VTime, msgs: &[(LpId, u64)]) -> u64 {
    let mut h = state;
    for &(src, payload) in msgs {
        let mut x = h ^ now.0 ^ ((src as u64) << 32) ^ payload;
        h = mix(&mut x);
    }
    h
}

impl Application for Sponge {
    type Msg = u64;
    type State = u64;

    fn num_lps(&self) -> usize {
        1
    }
    fn init_state(&self, _lp: LpId) -> u64 {
        0x5EED
    }
    fn init_events(&self, _lp: LpId, _state: &mut u64, _sink: &mut EventSink<u64>) {}
    fn execute(
        &self,
        _lp: LpId,
        state: &mut u64,
        now: VTime,
        msgs: &[(LpId, u64)],
        _sink: &mut EventSink<u64>,
    ) {
        *state = fold(*state, now, msgs);
    }
}

/// The linear-scan reference: plain `Vec`s everywhere, every lookup a
/// scan. Mirrors the protocol decisions of `LpRuntime` exactly.
#[derive(Default)]
struct Reference {
    pending: Vec<Event<u64>>,
    processed: Vec<Event<u64>>,
    orphans: Vec<AntiEvent>,
    lvt: VTime,
    annihilated: u64,
    primary_rollbacks: u64,
    secondary_rollbacks: u64,
}

impl Reference {
    /// Fold the processed history from the initial state — the state an
    /// honest Time Warp LP must be in after any amount of mis-speculation.
    fn state(&self) -> u64 {
        let mut h = 0x5EED;
        let mut i = 0;
        while i < self.processed.len() {
            let t = self.processed[i].recv_time;
            let mut j = i;
            while j < self.processed.len() && self.processed[j].recv_time == t {
                j += 1;
            }
            let msgs: Vec<(LpId, u64)> =
                self.processed[i..j].iter().map(|e| (e.id.src, e.msg)).collect();
            h = fold(h, t, &msgs);
            i = j;
        }
        h
    }

    /// Move processed work at `recv_time >= to` back to pending and reset
    /// the clock — a rollback, by the definition rather than the machinery.
    fn unprocess(&mut self, to: VTime) {
        while self.processed.last().is_some_and(|e| e.recv_time >= to) {
            let ev = self.processed.pop().unwrap();
            self.pending.push(ev);
        }
        self.lvt = self.processed.last().map(|e| e.recv_time).unwrap_or(VTime::ZERO);
    }

    fn receive_positive(&mut self, ev: Event<u64>) {
        if let Some(pos) = self.orphans.iter().position(|a| a.id == ev.id) {
            self.orphans.remove(pos);
            self.annihilated += 1;
            return;
        }
        if ev.recv_time <= self.lvt {
            self.primary_rollbacks += 1;
            self.unprocess(ev.recv_time);
        }
        self.pending.push(ev);
    }

    fn receive_anti(&mut self, anti: AntiEvent) {
        if let Some(pos) = self.pending.iter().position(|e| e.id == anti.id) {
            self.pending.remove(pos);
            self.annihilated += 1;
        } else if self.processed.iter().any(|e| e.id == anti.id) {
            self.secondary_rollbacks += 1;
            self.unprocess(anti.recv_time);
            let pos = self
                .pending
                .iter()
                .position(|e| e.id == anti.id)
                .expect("secondary rollback re-files the positive as pending");
            self.pending.remove(pos);
            self.annihilated += 1;
        } else {
            self.orphans.push(anti);
        }
    }

    /// Execute the earliest batch: all pending events at the minimum
    /// receive time, message order `(src, seq)` — the kernel's contract.
    fn execute_next(&mut self) {
        let now = self.pending.iter().map(|e| e.recv_time).min().expect("non-empty");
        let mut batch: Vec<Event<u64>> = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].recv_time == now {
                batch.push(self.pending.remove(i));
            } else {
                i += 1;
            }
        }
        batch.sort_by_key(|e| e.id);
        self.lvt = now;
        self.processed.extend(batch);
    }
}

/// Protocol-path coverage across a sweep, so a bad schedule generator
/// can't quietly turn the comparison vacuous.
#[derive(Default)]
struct Coverage {
    primary: u64,
    secondary: u64,
    annihilated: u64,
    orphaned: u64,
    coasted: u64,
}

fn run_schedule(
    seed: u64,
    steps: usize,
    cancellation: Cancellation,
    checkpoint: u32,
    cov: &mut Coverage,
) {
    let app = Sponge;
    let cfg = KernelConfig { cancellation, checkpoint_interval: checkpoint, ..Default::default() };
    let mut init = Vec::new();
    let mut lp: LpRuntime<Sponge> = LpRuntime::new(&app, 0, cfg, &mut init);
    assert!(init.is_empty(), "Sponge seeds no events");

    let mut reference = Reference::default();
    let mut stats = KernelStats::default();
    let mut outbox: Vec<Transmission<u64>> = Vec::new();
    let mut probe = NoProbe;
    let mut scratch = Scratch::default();

    let mut rng = seed;
    // Per-sender sequence counters (senders 1..=3).
    let mut seqs = [0u64; 3];
    // Positives whose antis were delivered first, awaiting delivery.
    let mut stashed: Vec<Event<u64>> = Vec::new();
    // Delivered positives that are still live (no anti sent yet).
    let mut live: Vec<Event<u64>> = Vec::new();

    let fresh = |rng: &mut u64, seqs: &mut [u64; 3]| -> Event<u64> {
        let src = 1 + (mix(rng) % 3) as LpId;
        let seq = seqs[(src - 1) as usize];
        seqs[(src - 1) as usize] += 1;
        let recv = VTime(1).after(mix(rng) % 60);
        Event {
            id: EventId { src, seq },
            dst: 0,
            send_time: VTime(recv.0.saturating_sub(1)),
            recv_time: recv,
            msg: mix(rng),
        }
    };

    for _ in 0..steps {
        match mix(&mut rng) % 10 {
            // Deliver a fresh positive (often a straggler: recv times are
            // drawn from the same window the LP executes in).
            0..=3 => {
                let ev = fresh(&mut rng, &mut seqs);
                live.push(ev.clone());
                reference.receive_positive(ev.clone());
                lp.receive(
                    &app,
                    Transmission::Positive(ev),
                    &mut stats,
                    &mut outbox,
                    &mut scratch,
                    &mut probe,
                );
            }
            // Anti-message for a random live positive: hits the pending or
            // the processed (secondary rollback) path depending on whether
            // the LP got to it yet.
            4..=5 => {
                if live.is_empty() {
                    continue;
                }
                let k = (mix(&mut rng) % live.len() as u64) as usize;
                let anti = live.swap_remove(k).anti();
                reference.receive_anti(anti);
                lp.receive(
                    &app,
                    Transmission::Anti(anti),
                    &mut stats,
                    &mut outbox,
                    &mut scratch,
                    &mut probe,
                );
            }
            // Anti-message *before* its positive (orphan path): generate an
            // event, deliver only the anti, stash the positive.
            6 => {
                let ev = fresh(&mut rng, &mut seqs);
                let anti = ev.anti();
                stashed.push(ev);
                cov.orphaned += 1;
                reference.receive_anti(anti);
                lp.receive(
                    &app,
                    Transmission::Anti(anti),
                    &mut stats,
                    &mut outbox,
                    &mut scratch,
                    &mut probe,
                );
            }
            // Deliver a stashed positive onto its waiting orphan anti.
            7 => {
                if stashed.is_empty() {
                    continue;
                }
                let k = (mix(&mut rng) % stashed.len() as u64) as usize;
                let ev = stashed.swap_remove(k);
                reference.receive_positive(ev.clone());
                lp.receive(
                    &app,
                    Transmission::Positive(ev),
                    &mut stats,
                    &mut outbox,
                    &mut scratch,
                    &mut probe,
                );
            }
            // Execute the earliest pending batch.
            _ => {
                if lp.next_time().is_inf() {
                    continue;
                }
                reference.execute_next();
                lp.execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut probe);
            }
        }

        // The sponge never sends, so nothing may ever leave the LP.
        assert!(outbox.is_empty(), "seed {seed}: sponge LP emitted {:?}", outbox);
        assert_eq!(lp.pending_len(), reference.pending.len(), "seed {seed}: pending");
        assert_eq!(lp.orphan_antis_len(), reference.orphans.len(), "seed {seed}: orphans");
        assert_eq!(lp.lvt(), reference.lvt, "seed {seed}: lvt");
        assert_eq!(stats.annihilated_pending, reference.annihilated, "seed {seed}: annihilations");
        assert_eq!(stats.primary_rollbacks, reference.primary_rollbacks, "seed {seed}: primary");
        assert_eq!(
            stats.secondary_rollbacks, reference.secondary_rollbacks,
            "seed {seed}: secondary"
        );
        assert_eq!(*lp.state(), reference.state(), "seed {seed}: state hash diverged");
    }

    // Drain: both sides execute everything still queued; the final states
    // must agree (order-sensitive hash ⇒ same events in the same order).
    while !lp.next_time().is_inf() {
        reference.execute_next();
        lp.execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut probe);
        assert!(outbox.is_empty());
    }
    assert!(reference.pending.is_empty(), "seed {seed}: reference kept events the kernel drained");
    assert_eq!(*lp.state(), reference.state(), "seed {seed}: final state");
    assert_eq!(lp.orphan_antis_len(), reference.orphans.len(), "seed {seed}: final orphans");

    cov.primary += stats.primary_rollbacks;
    cov.secondary += stats.secondary_rollbacks;
    cov.annihilated += stats.annihilated_pending;
    cov.coasted += stats.events_coasted;
}

#[test]
fn random_anti_storms_match_linear_scan_reference() {
    let mut s = 0xDECAF;
    let mut cov = Coverage::default();
    for case in 0..48 {
        let seed = mix(&mut s);
        let checkpoint = 1 + (mix(&mut s) % 5) as u32;
        let cancellation =
            if case % 2 == 0 { Cancellation::Aggressive } else { Cancellation::Lazy };
        run_schedule(seed, 400, cancellation, checkpoint, &mut cov);
    }
    // The sweep must exercise every annihilation path, or the comparison
    // proves nothing.
    assert!(cov.primary > 100, "too few straggler rollbacks: {}", cov.primary);
    assert!(cov.secondary > 100, "too few secondary rollbacks: {}", cov.secondary);
    assert!(cov.annihilated > 500, "too few annihilations: {}", cov.annihilated);
    assert!(cov.orphaned > 100, "too few orphan antis: {}", cov.orphaned);
    assert!(cov.coasted > 100, "too few coast-forward replays: {}", cov.coasted);
}

/// Two long single runs: thousands of inserts into the middle of a deep
/// pending queue, front re-insertions after rollbacks and removals from
/// both queues, with the order checked against the reference throughout.
#[test]
fn long_runs_keep_the_queues_in_key_order() {
    let mut cov = Coverage::default();
    run_schedule(0xB0A7, 6_000, Cancellation::Aggressive, 3, &mut cov);
    run_schedule(0xB0A8, 6_000, Cancellation::Lazy, 1, &mut cov);
    assert!(cov.annihilated > 500, "too few annihilations: {}", cov.annihilated);
}
