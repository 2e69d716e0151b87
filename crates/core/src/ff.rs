//! Steady-state fast-forward: cycle detection over iteration signatures.
//!
//! The pipeline-filling backends simulate every bubble of every iteration, but
//! over a week-long fleet horizon almost all of that work is repetitive
//! steady state. This module implements the detection half of the
//! fast-forward machinery: each main-job pipeline summarizes its *complete*
//! behavioral state at every iteration boundary into a signature (a
//! `Vec<u64>` of exact bit patterns — accumulator bits, plan identities,
//! executor cursors), and the [`SteadyDetector`] looks for a previous
//! boundary with an identical signature. Because the signature captures
//! everything that determines future behavior, a repeated signature proves
//! the simulation has entered a cycle: the iterations between the two
//! boundaries will repeat verbatim, forever, until an external transition
//! (a fault, an arrival, the horizon) perturbs the state.
//!
//! Once a cycle of length `L` is confirmed, the backend skips `M` whole
//! cycles. Clocks and integer counters advance in closed form. The
//! floating-point accumulators cannot: `M` replays of one cycle's
//! additions round differently from one multiplied sum. The backend
//! instead replays them exactly, in time proportional to the cycle times
//! the binades the accumulator crosses, not to `M`. Under
//! round-to-nearest-even, an accumulator in the binade `[2^e, 2^(e+1))`
//! has the fixed ulp `u = 2^(e-52)`, and adding a finite `f ≥ 0` adds
//! exactly `round(f/u)` ulps while the sum stays in the binade and `f/u`
//! is not a tie (a fractional part of exactly one half). One cycle then
//! adds a constant integer `D` ulps, so every whole cycle that stays in
//! the binade collapses into one integer step, and one plain cycle
//! crosses into the next binade, where the argument restarts. A binade
//! where the jump cannot be proven (a tie, a zero or subnormal
//! accumulator, a negative or non-finite addition) is replayed cycle by
//! cycle. Either way the skip is bit-for-bit identical to simulating the
//! events, not merely close.
//!
//! # Randomness gates the whole mechanism
//!
//! A signature match only proves determinism if no randomness is consumed
//! inside the cycle (jitter draws would make "identical state" a lie).
//! The detector therefore tracks the backend RNG's
//! [`state_fingerprint`](pipefill_sim_core::rng::DeterministicRng::state_fingerprint)
//! across iteration boundaries and arms itself only while the fingerprint
//! is frozen. Jittered runs — the default fidelity — keep the detector
//! permanently disarmed at the cost of one fingerprint compare per
//! iteration, which also guarantees their event-by-event results are
//! untouched by this feature.

use std::collections::VecDeque;

use pipefill_sim_core::SimDuration;

/// Absolute monotone counters sampled at an iteration boundary; the
/// detector differences consecutive samples to get per-iteration deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SteadyCounters {
    /// Fill jobs completed (absolute).
    pub completions: u64,
    /// Fill jobs drawn from the backlog (absolute; advances job ids).
    pub draws: u64,
    /// Fill partitions killed by isolated OOMs (absolute).
    pub isolated_ooms: u64,
    /// Bubbles lost to device downtime (absolute). Both this and
    /// `isolated_ooms` stay zero in quiescent runs but are carried so the
    /// replay stays fully general.
    pub bubbles_lost: u64,
}

impl SteadyCounters {
    fn delta(self, earlier: SteadyCounters) -> SteadyCounters {
        SteadyCounters {
            completions: self.completions - earlier.completions,
            draws: self.draws - earlier.draws,
            isolated_ooms: self.isolated_ooms - earlier.isolated_ooms,
            bubbles_lost: self.bubbles_lost - earlier.bubbles_lost,
        }
    }
}

/// Everything one iteration did to the backend's monotone accumulators,
/// in exact order. Replaying the record reproduces the iteration's metric
/// updates bit for bit.
#[derive(Debug, Default)]
pub(crate) struct IterRecord {
    /// Per-bubble FLOP additions in event order.
    pub flops: Vec<f64>,
    /// Critical-path stall folded into the clock at the iteration end.
    pub delay: SimDuration,
    /// Counter deltas over the iteration.
    pub counters: SteadyCounters,
    /// Ids of fill jobs completed during the iteration. Ids are the only
    /// non-cyclic part of the state (each cycle's ids sit exactly
    /// `draws`-per-cycle above the previous cycle's), so replay shifts
    /// them by that stride per skipped cycle.
    pub completed: Vec<u64>,
}

/// A confirmed cycle and how many times to replay it.
#[derive(Debug)]
pub(crate) struct Skip {
    /// Whole cycles to skip.
    pub cycles: u64,
    /// Iterations per cycle.
    pub len: u64,
    /// Sum of the per-iteration clock stalls across one cycle.
    pub delay_sum: SimDuration,
    /// Counter deltas across one cycle.
    pub counters: SteadyCounters,
    /// One cycle's per-bubble FLOP additions, in event order.
    pub flops: Vec<f64>,
    /// Ids of the fill jobs one cycle completes, in completion order.
    pub completed: Vec<u64>,
}

impl Skip {
    /// Total iterations skipped.
    pub fn iterations(&self) -> u64 {
        self.cycles * self.len
    }
}

struct HistEntry {
    sig: Vec<u64>,
    rec: IterRecord,
}

/// FxHash-style mixing — cheap, deterministic across platforms, and only
/// used to pre-filter exact `Vec<u64>` comparisons.
fn hash_sig(sig: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in sig {
        h = (h ^ w).wrapping_mul(0x0100_0000_01b3).rotate_left(5);
    }
    h
}

/// Detects steady-state cycles at iteration boundaries. One instance per
/// independent iteration stream (one per main-job pipeline).
#[derive(Debug)]
pub(crate) struct SteadyDetector {
    enabled: bool,
    last_fp: Option<[u64; 7]>,
    /// True while the RNG fingerprint has been frozen across at least one
    /// full iteration, i.e. the current iteration is being recorded.
    active: bool,
    /// Signature hashes, index-aligned with `hist`. The backward scan
    /// reads only this contiguous ring until a hash matches.
    hashes: VecDeque<u64>,
    hist: VecDeque<HistEntry>,
    cap: usize,
    cur_flops: Vec<f64>,
    cur_completed: Vec<u64>,
    /// Signature buffer handed out by [`Self::sig_buffer`], recycled from
    /// the entry the full history evicts, so a steady boundary allocates
    /// nothing.
    spare_sig: Vec<u64>,
    /// Counters at the last recorded boundary.
    snap: SteadyCounters,
    /// Counters at the boundary currently being observed.
    pending: SteadyCounters,
}

impl std::fmt::Debug for HistEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistEntry")
            .field("sig_len", &self.sig.len())
            .finish()
    }
}

impl SteadyDetector {
    /// Creates a detector. `cap` bounds the signature history, which
    /// bounds both memory and the longest detectable cycle.
    pub fn new(enabled: bool, cap: usize) -> Self {
        SteadyDetector {
            enabled,
            last_fp: None,
            active: false,
            hashes: VecDeque::new(),
            hist: VecDeque::new(),
            cap,
            cur_flops: Vec::new(),
            cur_completed: Vec::new(),
            spare_sig: Vec::new(),
            snap: SteadyCounters::default(),
            pending: SteadyCounters::default(),
        }
    }

    /// Whether fast-forward is on at all (the cheap outer gate for every
    /// hot-path call below).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one bubble's FLOP contribution. No-op unless the detector
    /// is armed, so jittered runs pay a single branch.
    #[inline]
    pub fn record_flops(&mut self, flops: f64) {
        if self.active {
            self.cur_flops.push(flops);
        }
    }

    /// Records a fill-job completion (by id). No-op unless armed.
    #[inline]
    pub fn record_completion(&mut self, id: u64) {
        if self.active {
            self.cur_completed.push(id);
        }
    }

    /// Phase 1 of an iteration boundary: quiescence bookkeeping. Returns
    /// `true` when the caller should build a full state signature and
    /// finish the boundary with [`Self::end_iteration`]. Must be called
    /// with the RNG fingerprint and the *current absolute* counters.
    pub fn observe(&mut self, fp: [u64; 7], counters: SteadyCounters) -> bool {
        if !self.enabled {
            return false;
        }
        let quiescent = self.last_fp == Some(fp);
        self.last_fp = Some(fp);
        self.pending = counters;
        if !quiescent {
            // Randomness was consumed: any cycle hypothesis is void.
            self.reset();
            self.snap = counters;
            return false;
        }
        if !self.active {
            // The fingerprint just proved frozen across one boundary, but
            // that iteration ran before recording was armed. Arm now and
            // record from the next iteration on.
            self.active = true;
            self.cur_flops.clear();
            self.cur_completed.clear();
            self.snap = counters;
            return false;
        }
        true
    }

    /// An empty buffer for the caller to write the boundary's signature
    /// into before passing it back to [`Self::end_iteration`].
    pub fn sig_buffer(&mut self) -> Vec<u64> {
        let mut sig = std::mem::take(&mut self.spare_sig);
        sig.clear();
        sig
    }

    /// Phase 2: closes the iteration with its post-state signature and
    /// clock stall, then hunts for a cycle. Returns a [`Skip`] when a
    /// confirmed cycle allows skipping at least one whole cycle within
    /// `remaining` iterations (one iteration is always left to run for
    /// real so the final iteration boundary fires as a genuine event).
    pub fn end_iteration(
        &mut self,
        sig: Vec<u64>,
        delay: SimDuration,
        remaining: u64,
    ) -> Option<Skip> {
        debug_assert!(self.active, "end_iteration without a true observe()");
        let rec = IterRecord {
            flops: std::mem::take(&mut self.cur_flops),
            completed: std::mem::take(&mut self.cur_completed),
            delay,
            counters: self.pending.delta(self.snap),
        };
        self.snap = self.pending;
        if self.hist.len() == self.cap {
            self.hashes.pop_front();
            if let Some(old) = self.hist.pop_front() {
                // Recycle the evicted entry's buffers for the next boundary.
                self.spare_sig = old.sig;
                self.cur_flops = old.rec.flops;
                self.cur_flops.clear();
                self.cur_completed = old.rec.completed;
                self.cur_completed.clear();
            }
        }

        // Scan backwards (nearest previous boundary first → minimal cycle
        // length) for a boundary with an identical signature.
        let hash = hash_sig(&sig);
        let mut upto = self.hashes.len();
        let found = loop {
            let Some(i) = self.hashes.range(..upto).rposition(|&h| h == hash) else {
                break None;
            };
            if self.hist[i].sig == sig {
                break Some(i);
            }
            upto = i;
        };
        self.hashes.push_back(hash);
        self.hist.push_back(HistEntry { sig, rec });
        let i = found?;
        let len = (self.hist.len() - 1 - i) as u64;
        let cycles = remaining.saturating_sub(1) / len;
        if cycles == 0 {
            return None;
        }
        let mut skip = Skip {
            cycles,
            len,
            delay_sum: SimDuration::ZERO,
            counters: SteadyCounters::default(),
            flops: Vec::new(),
            completed: Vec::new(),
        };
        for e in self.hist.range(i + 1..) {
            let r = &e.rec;
            skip.delay_sum += r.delay;
            skip.counters.completions += r.counters.completions;
            skip.counters.draws += r.counters.draws;
            skip.counters.isolated_ooms += r.counters.isolated_ooms;
            skip.counters.bubbles_lost += r.counters.bubbles_lost;
            skip.flops.extend_from_slice(&r.flops);
            skip.completed.extend_from_slice(&r.completed);
        }
        Some(skip)
    }

    /// Discards every cycle hypothesis (history and partial records).
    /// Called whenever randomness was consumed or an external
    /// transition (fault, arrival, eviction) perturbs the state.
    pub fn reset(&mut self) {
        self.active = false;
        self.hashes.clear();
        self.hist.clear();
        self.cur_flops.clear();
        self.cur_completed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_sim_core::rng::DeterministicRng;

    fn fp(rng: &DeterministicRng) -> [u64; 7] {
        rng.state_fingerprint()
    }

    #[test]
    fn disabled_detector_is_inert() {
        let mut d = SteadyDetector::new(false, 16);
        assert!(!d.enabled());
        let rng = DeterministicRng::seed_from(1);
        assert!(!d.observe(fp(&rng), SteadyCounters::default()));
        d.record_flops(1.0);
        assert!(d.cur_flops.is_empty());
    }

    #[test]
    fn arms_only_after_a_frozen_fingerprint_boundary() {
        let mut d = SteadyDetector::new(true, 16);
        let mut rng = DeterministicRng::seed_from(2);
        // First boundary: no baseline yet.
        assert!(!d.observe(fp(&rng), SteadyCounters::default()));
        // Consuming randomness keeps it disarmed.
        let _ = rng.uniform(0.0, 1.0);
        assert!(!d.observe(fp(&rng), SteadyCounters::default()));
        // One frozen boundary arms recording…
        assert!(!d.observe(fp(&rng), SteadyCounters::default()));
        // …and the next frozen boundary asks for a signature.
        assert!(d.observe(fp(&rng), SteadyCounters::default()));
    }

    #[test]
    fn period_two_cycle_is_detected_and_scaled() {
        let mut d = SteadyDetector::new(true, 16);
        let rng = DeterministicRng::seed_from(3);
        let c = SteadyCounters::default();
        assert!(!d.observe(fp(&rng), c)); // baseline
        assert!(!d.observe(fp(&rng), c)); // arm
                                          // States alternate A, B, A, B…
        assert!(d.observe(fp(&rng), c));
        assert!(d
            .end_iteration(vec![0xa], SimDuration::from_secs(1), 1000)
            .is_none());
        assert!(d.observe(fp(&rng), c));
        assert!(d
            .end_iteration(vec![0xb], SimDuration::from_secs(2), 999)
            .is_none());
        assert!(d.observe(fp(&rng), c));
        let skip = d
            .end_iteration(vec![0xa], SimDuration::from_secs(1), 998)
            .expect("A repeated: cycle of length 2");
        assert_eq!(skip.len, 2);
        // (998 - 1) / 2 whole cycles fit while leaving one real iteration.
        assert_eq!(skip.cycles, 498);
        assert_eq!(skip.iterations(), 996);
        assert!(skip.flops.is_empty() && skip.completed.is_empty());
        assert_eq!(skip.delay_sum, SimDuration::from_secs(3));
    }

    #[test]
    fn randomness_voids_the_hypothesis() {
        let mut d = SteadyDetector::new(true, 16);
        let mut rng = DeterministicRng::seed_from(6);
        let c = SteadyCounters::default();
        assert!(!d.observe(fp(&rng), c));
        assert!(!d.observe(fp(&rng), c));
        assert!(d.observe(fp(&rng), c));
        assert!(d.end_iteration(vec![1], SimDuration::ZERO, 100).is_none());
        let _ = rng.uniform(0.0, 1.0); // perturb
        assert!(!d.observe(fp(&rng), c)); // disarmed again
        assert!(!d.observe(fp(&rng), c)); // re-arm
        assert!(d.observe(fp(&rng), c));
        // History was wiped: the matching signature from before the
        // perturbation no longer counts.
        assert!(d.end_iteration(vec![1], SimDuration::ZERO, 100).is_none());
        assert!(d.observe(fp(&rng), c));
        assert!(d.end_iteration(vec![1], SimDuration::ZERO, 100).is_some());
    }

    #[test]
    fn counter_deltas_and_records_replay_exactly() {
        let mut d = SteadyDetector::new(true, 16);
        let rng = DeterministicRng::seed_from(7);
        let at = |n: u64| SteadyCounters {
            completions: n,
            draws: 2 * n,
            ..SteadyCounters::default()
        };
        assert!(!d.observe(fp(&rng), at(0)));
        assert!(!d.observe(fp(&rng), at(1)));
        assert!(d.observe(fp(&rng), at(2)));
        d.record_flops(1.5);
        d.record_completion(40);
        assert!(d.end_iteration(vec![5], SimDuration::ZERO, 100).is_none());
        assert!(d.observe(fp(&rng), at(3)));
        d.record_flops(2.5);
        d.record_completion(41);
        let skip = d
            .end_iteration(vec![5], SimDuration::ZERO, 100)
            .expect("cycle of length 1");
        assert_eq!(skip.len, 1);
        assert_eq!(skip.counters.completions, 1);
        assert_eq!(skip.counters.draws, 2);
        assert_eq!(skip.flops, vec![2.5]);
        assert_eq!(skip.completed, vec![41]);
    }

    #[test]
    fn full_history_recycles_buffers_and_still_finds_the_nearest_match() {
        let mut d = SteadyDetector::new(true, 3);
        let rng = DeterministicRng::seed_from(9);
        let c = SteadyCounters::default();
        assert!(!d.observe(fp(&rng), c));
        assert!(!d.observe(fp(&rng), c));
        // Five distinct boundaries overflow the 3-entry history twice.
        for w in [10u64, 11, 12, 13, 14] {
            assert!(d.observe(fp(&rng), c));
            d.record_flops(w as f64);
            let mut sig = d.sig_buffer();
            assert!(sig.is_empty(), "a recycled buffer comes back cleared");
            sig.extend([w, w + 100]);
            assert!(d.end_iteration(sig, SimDuration::ZERO, 100).is_none());
        }
        // The history now holds 12, 13, 14: repeating 13 closes a cycle of
        // length 2 whose records are the iterations after it.
        assert!(d.observe(fp(&rng), c));
        d.record_flops(15.0);
        let mut sig = d.sig_buffer();
        sig.extend([13, 113]);
        let skip = d
            .end_iteration(sig, SimDuration::ZERO, 100)
            .expect("13 repeated within the history");
        assert_eq!(skip.len, 2);
        assert_eq!(skip.flops, vec![14.0, 15.0]);
    }

    #[test]
    fn history_cap_bounds_detectable_cycles() {
        let mut d = SteadyDetector::new(true, 3);
        let rng = DeterministicRng::seed_from(8);
        let c = SteadyCounters::default();
        assert!(!d.observe(fp(&rng), c));
        assert!(!d.observe(fp(&rng), c));
        // A cycle of length 4 never fits in a 3-entry history.
        for sig in [1u64, 2, 3, 4, 1, 2, 3, 4, 1, 2] {
            assert!(d.observe(fp(&rng), c));
            assert!(d.end_iteration(vec![sig], SimDuration::ZERO, 100).is_none());
        }
    }
}
