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
//! Each history entry holds three things: the boundary's signature, the
//! FLOP additions of the iteration that ended there, and the caller's
//! *mark*, an opaque `Copy` value with its absolute counters at that
//! boundary (for a pipeline: completions, fill-id draws, total stall).
//! A match returns the mark at the cycle's first boundary, so one
//! cycle's effect on every counter is `now − since`; nothing is
//! differenced or summed per iteration. The detector resets whenever it
//! returns a skip, so a later cycle lies wholly after it.
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

/// A confirmed cycle and how many times to replay it.
pub(crate) struct Skip<M> {
    /// Whole cycles to skip.
    pub cycles: u64,
    /// Iterations per cycle.
    pub len: u64,
    /// The caller's mark at the boundary the cycle starts from: one
    /// cycle moves each absolute counter in the mark by `now − since`.
    pub since: M,
    /// One cycle's per-bubble FLOP additions, in event order.
    pub flops: Vec<f64>,
}

impl<M> Skip<M> {
    /// Total iterations skipped.
    pub fn iterations(&self) -> u64 {
        self.cycles * self.len
    }
}

/// One recorded boundary: its signature, the FLOP additions of the
/// iteration that ended there, and the caller's mark.
struct HistEntry<M> {
    sig: Vec<u64>,
    flops: Vec<f64>,
    mark: M,
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
/// independent iteration stream (one per main-job pipeline). `M` is the
/// caller's mark: its absolute counters at a boundary, opaque here.
pub(crate) struct SteadyDetector<M> {
    enabled: bool,
    last_fp: Option<[u64; 7]>,
    /// True while the RNG fingerprint has been frozen across at least one
    /// full iteration, i.e. the current iteration is being recorded.
    active: bool,
    /// Signature hashes, index-aligned with `hist`. The backward scan
    /// reads only this contiguous ring until a hash matches.
    hashes: VecDeque<u64>,
    hist: VecDeque<HistEntry<M>>,
    cap: usize,
    cur_flops: Vec<f64>,
    /// Signature buffer handed out by [`Self::sig_buffer`], recycled from
    /// the entry the full history evicts, so a steady boundary allocates
    /// nothing.
    spare_sig: Vec<u64>,
}

impl<M: Copy> SteadyDetector<M> {
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
            spare_sig: Vec::new(),
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

    /// Phase 1 of an iteration boundary: quiescence bookkeeping on the
    /// RNG fingerprint. Returns `true` when the caller should build a
    /// full state signature and finish the boundary with
    /// [`Self::end_iteration`].
    pub fn observe(&mut self, fp: [u64; 7]) -> bool {
        if !self.enabled {
            return false;
        }
        let quiescent = self.last_fp == Some(fp);
        self.last_fp = Some(fp);
        if !quiescent {
            // Randomness was consumed: any cycle hypothesis is void.
            self.reset();
            return false;
        }
        if !self.active {
            // The fingerprint just proved frozen across one boundary, but
            // that iteration ran before recording was armed. Arm now and
            // record from the next iteration on.
            self.active = true;
            self.cur_flops.clear();
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
    /// the caller's `mark` at this boundary, then hunts for a cycle.
    /// Returns a [`Skip`] when a confirmed cycle allows skipping at least
    /// one whole cycle within `remaining` iterations (one iteration is
    /// always left to run for real so the final iteration boundary fires
    /// as a genuine event). Returning a skip resets the detector, so
    /// every boundary of a later cycle lies after the skip.
    pub fn end_iteration(&mut self, sig: Vec<u64>, mark: M, remaining: u64) -> Option<Skip<M>> {
        debug_assert!(self.active, "end_iteration without a true observe()");
        let flops = std::mem::take(&mut self.cur_flops);
        if self.hist.len() == self.cap {
            self.hashes.pop_front();
            if let Some(old) = self.hist.pop_front() {
                // Recycle the evicted entry's buffers for the next boundary.
                self.spare_sig = old.sig;
                self.cur_flops = old.flops;
                self.cur_flops.clear();
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
        self.hist.push_back(HistEntry { sig, flops, mark });
        let i = found?;
        let len = (self.hist.len() - 1 - i) as u64;
        let cycles = remaining.saturating_sub(1) / len;
        if cycles == 0 {
            return None;
        }
        let mut flops = Vec::new();
        for e in self.hist.range(i + 1..) {
            flops.extend_from_slice(&e.flops);
        }
        let since = self.hist[i].mark;
        self.reset();
        Some(Skip {
            cycles,
            len,
            since,
            flops,
        })
    }

    /// Discards every cycle hypothesis (history and partial records).
    /// Called whenever randomness was consumed, after a skip, and when an
    /// external transition (a device failure) perturbs the state.
    pub fn reset(&mut self) {
        self.active = false;
        self.hashes.clear();
        self.hist.clear();
        self.cur_flops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_sim_core::rng::DeterministicRng;
    use pipefill_sim_core::SimDuration;

    fn fp(rng: &DeterministicRng) -> [u64; 7] {
        rng.state_fingerprint()
    }

    #[test]
    fn disabled_detector_is_inert() {
        let mut d = SteadyDetector::<()>::new(false, 16);
        assert!(!d.enabled());
        let rng = DeterministicRng::seed_from(1);
        assert!(!d.observe(fp(&rng)));
        d.record_flops(1.0);
        assert!(d.cur_flops.is_empty());
    }

    #[test]
    fn arms_only_after_a_frozen_fingerprint_boundary() {
        let mut d = SteadyDetector::<()>::new(true, 16);
        let mut rng = DeterministicRng::seed_from(2);
        // First boundary: no baseline yet.
        assert!(!d.observe(fp(&rng)));
        // Consuming randomness keeps it disarmed.
        let _ = rng.uniform(0.0, 1.0);
        assert!(!d.observe(fp(&rng)));
        // One frozen boundary arms recording…
        assert!(!d.observe(fp(&rng)));
        // …and the next frozen boundary asks for a signature.
        assert!(d.observe(fp(&rng)));
    }

    #[test]
    fn period_two_cycle_is_detected_and_scaled() {
        // The mark is the total stall so far: 1 s, then 2 s per iteration.
        let mut d = SteadyDetector::new(true, 16);
        let rng = DeterministicRng::seed_from(3);
        let secs = SimDuration::from_secs;
        assert!(!d.observe(fp(&rng))); // baseline
        assert!(!d.observe(fp(&rng))); // arm

        // States alternate A, B, A, B…
        assert!(d.observe(fp(&rng)));
        assert!(d.end_iteration(vec![0xa], secs(1), 1000).is_none());
        assert!(d.observe(fp(&rng)));
        assert!(d.end_iteration(vec![0xb], secs(3), 999).is_none());
        assert!(d.observe(fp(&rng)));
        let skip = d
            .end_iteration(vec![0xa], secs(4), 998)
            .expect("A repeated: cycle of length 2");
        assert_eq!(skip.len, 2);
        // (998 - 1) / 2 whole cycles fit while leaving one real iteration.
        assert_eq!(skip.cycles, 498);
        assert_eq!(skip.iterations(), 996);
        assert!(skip.flops.is_empty());
        // The cycle starts at the first A: one cycle stalls 4 s − 1 s.
        assert_eq!(skip.since, secs(1));
        assert_eq!(secs(4) - skip.since, secs(3));
    }

    #[test]
    fn randomness_voids_the_hypothesis() {
        let mut d = SteadyDetector::new(true, 16);
        let mut rng = DeterministicRng::seed_from(6);
        assert!(!d.observe(fp(&rng)));
        assert!(!d.observe(fp(&rng)));
        assert!(d.observe(fp(&rng)));
        assert!(d.end_iteration(vec![1], (), 100).is_none());
        let _ = rng.uniform(0.0, 1.0); // perturb
        assert!(!d.observe(fp(&rng))); // disarmed again
        assert!(!d.observe(fp(&rng))); // re-arm
        assert!(d.observe(fp(&rng)));
        // History was wiped: the matching signature from before the
        // perturbation no longer counts.
        assert!(d.end_iteration(vec![1], (), 100).is_none());
        assert!(d.observe(fp(&rng)));
        assert!(d.end_iteration(vec![1], (), 100).is_some());
    }

    #[test]
    fn marks_and_flops_replay_exactly() {
        // The mark is (completions, draws), both absolute.
        let mut d = SteadyDetector::new(true, 16);
        let rng = DeterministicRng::seed_from(7);
        let at = |n: u64| (n, 2 * n);
        assert!(!d.observe(fp(&rng)));
        assert!(!d.observe(fp(&rng)));
        assert!(d.observe(fp(&rng)));
        d.record_flops(1.5);
        assert!(d.end_iteration(vec![5], at(2), 100).is_none());
        assert!(d.observe(fp(&rng)));
        d.record_flops(2.5);
        let skip = d
            .end_iteration(vec![5], at(3), 100)
            .expect("cycle of length 1");
        assert_eq!(skip.len, 1);
        assert_eq!(skip.since, at(2));
        let (now, since) = (at(3), skip.since);
        assert_eq!((now.0 - since.0, now.1 - since.1), (1, 2));
        assert_eq!(skip.flops, vec![2.5]);
    }

    #[test]
    fn a_returned_skip_empties_the_history() {
        let mut d = SteadyDetector::new(true, 16);
        let rng = DeterministicRng::seed_from(4);
        assert!(!d.observe(fp(&rng)));
        assert!(!d.observe(fp(&rng)));
        for mark in 0..2u64 {
            assert!(d.observe(fp(&rng)));
            d.record_flops(1.0);
            let skip = d.end_iteration(vec![7], mark, 100);
            assert_eq!(skip.is_some(), mark == 1);
        }
        assert!(d.hist.is_empty() && d.hashes.is_empty() && d.cur_flops.is_empty());
        // Recording re-arms at the next frozen boundary and starts a
        // fresh history: the signature before the skip no longer counts.
        assert!(!d.observe(fp(&rng)));
        assert!(d.observe(fp(&rng)));
        assert!(d.end_iteration(vec![7], 2, 100).is_none());
        assert_eq!(d.hist.len(), 1);
    }

    #[test]
    fn full_history_recycles_buffers_and_still_finds_the_nearest_match() {
        let mut d = SteadyDetector::new(true, 3);
        let rng = DeterministicRng::seed_from(9);
        assert!(!d.observe(fp(&rng)));
        assert!(!d.observe(fp(&rng)));
        // Five distinct boundaries overflow the 3-entry history twice.
        for w in [10u64, 11, 12, 13, 14] {
            assert!(d.observe(fp(&rng)));
            d.record_flops(w as f64);
            let mut sig = d.sig_buffer();
            assert!(sig.is_empty(), "a recycled buffer comes back cleared");
            sig.extend([w, w + 100]);
            assert!(d.end_iteration(sig, w, 100).is_none());
        }
        // The history now holds 12, 13, 14: repeating 13 closes a cycle of
        // length 2 whose records are the iterations after it.
        assert!(d.observe(fp(&rng)));
        d.record_flops(15.0);
        let mut sig = d.sig_buffer();
        sig.extend([13, 113]);
        let skip = d
            .end_iteration(sig, 15, 100)
            .expect("13 repeated within the history");
        assert_eq!(skip.len, 2);
        assert_eq!(skip.since, 13);
        assert_eq!(skip.flops, vec![14.0, 15.0]);
    }

    #[test]
    fn history_cap_bounds_detectable_cycles() {
        let mut d = SteadyDetector::new(true, 3);
        let rng = DeterministicRng::seed_from(8);
        assert!(!d.observe(fp(&rng)));
        assert!(!d.observe(fp(&rng)));
        // A cycle of length 4 never fits in a 3-entry history.
        for sig in [1u64, 2, 3, 4, 1, 2, 3, 4, 1, 2] {
            assert!(d.observe(fp(&rng)));
            assert!(d.end_iteration(vec![sig], (), 100).is_none());
        }
    }
}
