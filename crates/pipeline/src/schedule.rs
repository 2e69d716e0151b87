//! Pipeline schedule generators: GPipe, 1F1B, interleaved 1F1B and
//! ZB-H1 per-stage instruction sequences with PipeFill's bubble markers
//! inserted where the large bubbles are expected (§4.2, §4.5).
//!
//! The two schedule families beyond the paper's pair reshape the bubble
//! geometry PipeFill gets to fill:
//!
//! * **Interleaved 1F1B** (Megatron-LM virtual pipeline stages): each
//!   device hosts `v` model chunks, shrinking the fill/drain ramp to
//!   `(p-1)/v` chunk-slots at the cost of extra mid-iteration
//!   fragmentation (more, smaller gaps — which PipeFill classifies as
//!   non-contiguous and does not fill).
//! * **ZB-H1** (Qi et al., *Zero Bubble Pipeline Parallelism*): the
//!   backward pass splits into a dependency-critical activation-gradient
//!   half (`B`) and a freely movable weight-gradient half (`W`); the
//!   schedule defers `W` work into what 1F1B leaves as fwd-bwd/drain
//!   bubble, shrinking total bubble time to roughly
//!   `(p-1)·(t_f + t_B - t_W)` per stage.

use crate::bubbles::BubbleKind;
use crate::instructions::PipelineInstruction;

/// Which pipeline schedule the main job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// GPipe (Huang et al., 2019): all forwards, then all backwards.
    GPipe,
    /// 1F1B (PipeDream-flush; Narayanan et al., 2019): warmup forwards,
    /// then alternate one-forward-one-backward, then drain.
    OneFOneB,
    /// Interleaved 1F1B (Narayanan et al., 2021): `chunks` virtual
    /// pipeline stages per device. `chunks == 1` is exactly 1F1B (pinned
    /// bit for bit by the conformance suite).
    Interleaved {
        /// Model chunks (virtual stages) per device, `>= 1`.
        chunks: usize,
    },
    /// ZB-H1 (Qi et al., 2023): backward split into B/W instructions;
    /// deferred W work fills what was fwd-bwd bubble, within 1F1B's
    /// activation-memory budget.
    ZbH1,
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleKind::GPipe => write!(f, "GPipe"),
            ScheduleKind::OneFOneB => write!(f, "1F1B"),
            ScheduleKind::Interleaved { chunks } => write!(f, "interleaved:{chunks}"),
            ScheduleKind::ZbH1 => write!(f, "ZB-H1"),
        }
    }
}

impl std::str::FromStr for ScheduleKind {
    type Err = String;

    /// Parses CLI spellings: `gpipe`, `1f1b`, `interleaved` (2 chunks),
    /// `interleaved:<v>`, `zb-h1`. Case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canonical = s.to_ascii_lowercase();
        match canonical.as_str() {
            "gpipe" => Ok(ScheduleKind::GPipe),
            "1f1b" | "one-f-one-b" => Ok(ScheduleKind::OneFOneB),
            "interleaved" => Ok(ScheduleKind::Interleaved { chunks: 2 }),
            "zb-h1" | "zbh1" => Ok(ScheduleKind::ZbH1),
            other => {
                if let Some(v) = other.strip_prefix("interleaved:") {
                    // `usize::from_str` accepts `+2`, `02` and friends;
                    // the round-trip check pins the suffix to the one
                    // canonical decimal spelling so a chunk count never
                    // has two spellings in configs or golden output.
                    let chunks: usize = v.parse().map_err(|_| {
                        format!("interleaved chunk count must be an integer, got '{v}'")
                    })?;
                    if chunks == 0 {
                        return Err(
                            "interleaved needs at least 1 chunk per device, got 'interleaved:0'"
                                .into(),
                        );
                    }
                    if v != chunks.to_string() {
                        return Err(format!(
                            "interleaved chunk count must be a canonical decimal \
                             (write 'interleaved:{chunks}'), got '{v}'"
                        ));
                    }
                    return Ok(ScheduleKind::Interleaved { chunks });
                }
                Err(format!(
                    "unknown schedule '{s}' (gpipe|1f1b|interleaved[:v]|zb-h1)"
                ))
            }
        }
    }
}

impl ScheduleKind {
    /// The four canonical schedules the sweeps and CLI expose
    /// (interleaved at its default 2 chunks per device).
    pub const ALL: [ScheduleKind; 4] = [
        ScheduleKind::GPipe,
        ScheduleKind::OneFOneB,
        ScheduleKind::Interleaved { chunks: 2 },
        ScheduleKind::ZbH1,
    ];

    /// Model chunks per device: `chunks` for the interleaved schedule,
    /// 1 for everything else.
    pub fn chunk_count(self) -> usize {
        match self {
            ScheduleKind::Interleaved { chunks } => chunks,
            _ => 1,
        }
    }

    /// The largest shape the generators accept, counted as
    /// `chunks · p · m` units: one per (chunk, microbatch) on each
    /// device, or per microbatch for the one-chunk schedules. A shape at
    /// the bound emits about `2·MAX_UNITS` instructions. The interleaved
    /// generator sizes its tables by the unit count, and the bound keeps
    /// every unit's start, Megatron rank and virtual stage inside the
    /// fixed-width fields of its packed sort key.
    pub const MAX_UNITS: usize = 1 << 20;

    /// Whether a `p`-stage, `m`-microbatch shape is within
    /// [`ScheduleKind::MAX_UNITS`].
    pub fn within_bound(self, p: usize, m: usize) -> bool {
        self.chunk_count()
            .checked_mul(p)
            .and_then(|n| n.checked_mul(m))
            .is_some_and(|units| units <= Self::MAX_UNITS)
    }

    /// The instruction stream for one iteration on stage `stage` of a
    /// `p`-stage pipeline processing `m` microbatches.
    ///
    /// All schedules end with gradient sync, the optimizer step, and the
    /// fill-drain bubble marker; all carry a fwd-bwd marker immediately
    /// before the stage's first backward.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= p`, `m == 0`, an interleaved schedule has
    /// zero chunks, or the shape is past [`ScheduleKind::MAX_UNITS`].
    pub fn stage_instructions(self, stage: usize, p: usize, m: usize) -> Vec<PipelineInstruction> {
        assert!(stage < p, "stage {stage} out of range for {p} stages");
        self.assert_within_bound(p, m);
        if let ScheduleKind::Interleaved { chunks } = self {
            assert!(chunks > 0, "interleaved needs at least 1 chunk per device");
            if chunks > 1 {
                // The constructive derivation produces every device's
                // stream in one pass; single-stage callers pay for the
                // fleet, so the engine uses all_stage_instructions.
                return interleaved_all_stage_instructions(p, m, chunks).swap_remove(stage);
            }
        }
        assert!(m > 0, "need at least one microbatch");
        let mut out = Vec::with_capacity(2 * m + 4);
        match self {
            ScheduleKind::GPipe => {
                for i in 0..m {
                    out.push(PipelineInstruction::Forward { microbatch: i });
                }
                out.push(PipelineInstruction::Bubble {
                    kind: BubbleKind::FwdBwd,
                });
                for i in 0..m {
                    out.push(PipelineInstruction::Backward { microbatch: i });
                }
            }
            ScheduleKind::OneFOneB => {
                let warmup = (p - 1 - stage).min(m);
                for i in 0..warmup {
                    out.push(PipelineInstruction::Forward { microbatch: i });
                }
                out.push(PipelineInstruction::Bubble {
                    kind: BubbleKind::FwdBwd,
                });
                let mut next_fwd = warmup;
                for bwd in 0..m {
                    if next_fwd < m {
                        out.push(PipelineInstruction::Forward {
                            microbatch: next_fwd,
                        });
                        next_fwd += 1;
                    }
                    out.push(PipelineInstruction::Backward { microbatch: bwd });
                }
            }
            ScheduleKind::Interleaved { .. } => {
                // chunks == 1 (the multi-chunk case returned above): one
                // chunk per device *is* 1F1B; delegating keeps the
                // instruction streams — and therefore every derived
                // timeline — identical bit for bit.
                return ScheduleKind::OneFOneB.stage_instructions(stage, p, m);
            }
            ScheduleKind::ZbH1 => {
                // Same warmup (and so the same activation-memory envelope)
                // as 1F1B; backwards split into B (emitted eagerly, it
                // unblocks the upstream stage) and W (deferred — during the
                // drain phase one deferred W slots in front of each B,
                // filling the gap 1F1B leaves there, and the rest flush
                // back-to-back before the optimizer step).
                let warmup = (p - 1 - stage).min(m);
                for i in 0..warmup {
                    out.push(PipelineInstruction::Forward { microbatch: i });
                }
                out.push(PipelineInstruction::Bubble {
                    kind: BubbleKind::FwdBwd,
                });
                let mut next_fwd = warmup;
                let mut next_w = 0;
                for bwd in 0..m {
                    if next_fwd < m {
                        out.push(PipelineInstruction::Forward {
                            microbatch: next_fwd,
                        });
                        next_fwd += 1;
                    } else if next_w < bwd {
                        out.push(PipelineInstruction::BackwardWeight { microbatch: next_w });
                        next_w += 1;
                    }
                    out.push(PipelineInstruction::BackwardInput { microbatch: bwd });
                }
                while next_w < m {
                    out.push(PipelineInstruction::BackwardWeight { microbatch: next_w });
                    next_w += 1;
                }
            }
        }
        out.push(PipelineInstruction::GradSync);
        out.push(PipelineInstruction::OptimizerStep);
        out.push(PipelineInstruction::Bubble {
            kind: BubbleKind::FillDrain,
        });
        out
    }

    /// Every stage's instruction stream for one iteration, in stage
    /// order — semantically `(0..p).map(|s| stage_instructions(s, p, m))`,
    /// but the multi-chunk interleaved schedule derives all `p` streams
    /// from a single constructive pass instead of re-simulating the whole
    /// fleet once per stage. The engine builds its streams through this.
    ///
    /// # Panics
    ///
    /// As [`ScheduleKind::stage_instructions`].
    pub fn all_stage_instructions(self, p: usize, m: usize) -> Vec<Vec<PipelineInstruction>> {
        assert!(p > 0, "need at least one stage");
        self.assert_within_bound(p, m);
        if let ScheduleKind::Interleaved { chunks } = self {
            assert!(chunks > 0, "interleaved needs at least 1 chunk per device");
            if chunks > 1 {
                return interleaved_all_stage_instructions(p, m, chunks);
            }
        }
        (0..p).map(|s| self.stage_instructions(s, p, m)).collect()
    }

    fn assert_within_bound(self, p: usize, m: usize) {
        assert!(
            self.within_bound(p, m),
            "{self} at {p} stages x {m} microbatches is past the generators' \
             bound of {} units",
            Self::MAX_UNITS
        );
    }
}

/// Interleaved-1F1B streams for every device, derived constructively: a
/// unit-time greedy simulation over the `v·p` virtual stages (per-chunk
/// forward = 1 unit, backward = 2, matching the repo's 2:1 calibration)
/// schedules every (chunk, microbatch) unit work-conservingly —
/// globally-earliest start first, backwards preferred over forwards on
/// ties (the 1F1B discipline; forward run-ahead is bounded only by this
/// preference plus dependency latency, not by an explicit warmup cap),
/// Megatron round order breaking the rest, then the lowest virtual
/// stage. The committed order is a linearization of a real execution, so
/// the engine's in-order replay can never deadlock, whatever the stage
/// timings.
///
/// Each virtual stage offers at most one runnable unit at a time, and a
/// tournament tree over the virtual stages keeps the earliest of them at
/// its root. Committing a unit changes only its device's `v` stages (the
/// device's free time moved) and the adjacent virtual stages `vs ± 1`
/// (their dependency may have landed), so each of the `2·v·p·m` commits
/// costs `O(v·log(v·p))` rather than a scan of every virtual stage.
fn interleaved_all_stage_instructions(
    p: usize,
    m: usize,
    v: usize,
) -> Vec<Vec<PipelineInstruction>> {
    assert!(m > 0, "need at least one microbatch");
    let mut greedy = Greedy::new(p, m, v);
    let vs_total = v * p;
    let mut tree = Tournament::new(vs_total);
    for vs in 0..vs_total {
        tree.set(vs, greedy.candidate(vs));
    }

    // Each device runs `2·v·m` units, the fwd-bwd marker in front of its
    // first backward, and the three closing instructions.
    let mut per_device: Vec<Vec<PipelineInstruction>> =
        (0..p).map(|_| Vec::with_capacity(2 * v * m + 4)).collect();
    let mut marked = vec![false; p];
    for _ in 0..2 * vs_total * m {
        let unit = tree.best();
        // Deadlock detector: a wedged schedule must panic loudly rather
        // than emit a truncated timeline.
        assert!(
            unit != Unit::NONE,
            "interleaved schedule wedged: no runnable unit"
        );
        let dev = greedy.device[unit.vs()];
        if unit.kind() == Unit::BACKWARD && !std::mem::replace(&mut marked[dev], true) {
            per_device[dev].push(PipelineInstruction::Bubble {
                kind: BubbleKind::FwdBwd,
            });
        }
        per_device[dev].push(greedy.commit(unit));
        for vs in (dev..vs_total).step_by(p) {
            tree.set(vs, greedy.candidate(vs));
        }
        for vs in [unit.vs().wrapping_sub(1), unit.vs() + 1] {
            if vs < vs_total {
                tree.set(vs, greedy.candidate(vs));
            }
        }
    }

    // Every device ran `v·m` backwards, so every stream has its marker.
    for stream in &mut per_device {
        stream.extend([
            PipelineInstruction::GradSync,
            PipelineInstruction::OptimizerStep,
            PipelineInstruction::Bubble {
                kind: BubbleKind::FillDrain,
            },
        ]);
    }
    per_device
}

/// One runnable (chunk, microbatch) unit of the interleaved greedy, in
/// the order it is picked: earliest start, backward (`kind` 0) before
/// forward (1), lower Megatron rank, lower virtual stage.
///
/// The four fields are packed into one `u64` whose order is that tuple
/// order, most significant first: `start` in bits 41–62, `kind` in bit
/// 40, `rank` in bits 20–39 and `vs` in bits 0–19. Bit 63 stays clear,
/// so [`Unit::NONE`] loses to every unit. The generators' shape bound,
/// [`ScheduleKind::MAX_UNITS`], keeps every unit within its fields (see
/// the assertion below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Unit(u64);

impl Unit {
    const START_BITS: u32 = 22;
    const RANK_BITS: u32 = 20;
    const VS_BITS: u32 = 20;
    const KIND_SHIFT: u32 = Self::RANK_BITS + Self::VS_BITS;
    const START_SHIFT: u32 = Self::KIND_SHIFT + 1;

    const BACKWARD: u8 = 0;
    const FORWARD: u8 = 1;

    /// No runnable unit: loses to every real one, whose bit 63 is clear.
    const NONE: Unit = Unit(u64::MAX);

    fn new(start: u64, kind: u8, rank: usize, vs: usize) -> Unit {
        debug_assert!(
            start < 1 << Self::START_BITS && kind <= 1,
            "unit fields out of range"
        );
        debug_assert!(rank < 1 << Self::RANK_BITS && vs < 1 << Self::VS_BITS);
        Unit(
            start << Self::START_SHIFT
                | u64::from(kind) << Self::KIND_SHIFT
                | (rank as u64) << Self::VS_BITS
                | vs as u64,
        )
    }

    fn start(self) -> u64 {
        self.0 >> Self::START_SHIFT
    }

    fn kind(self) -> u8 {
        (self.0 >> Self::KIND_SHIFT) as u8 & 1
    }

    fn vs(self) -> usize {
        (self.0 & ((1 << Self::VS_BITS) - 1)) as usize
    }
}

// Every unit of a shape within the bound fits its fields: its rank is
// below `v·m` and its virtual stage below `v·p`, both at most
// `MAX_UNITS`, and its start is at most the `3·v·p·m` time units of all
// work committed before it (a candidate starts at 0 or at a committed
// unit's end). The fields leave bit 63 clear.
const _: () = assert!(
    ScheduleKind::MAX_UNITS <= 1 << Unit::RANK_BITS
        && ScheduleKind::MAX_UNITS <= 1 << Unit::VS_BITS
        && 3 * (ScheduleKind::MAX_UNITS as u64) < 1 << Unit::START_BITS
        && Unit::START_SHIFT + Unit::START_BITS == 63
);

/// The interleaved greedy's state: per-virtual-stage microbatch cursors
/// (microbatches run in order) and unit completion times, plus the
/// per-virtual-stage and per-microbatch constants its picks read.
struct Greedy {
    m: usize,
    v: usize,
    vs_total: usize,
    /// Per virtual stage, its device (`vs mod p`).
    device: Vec<usize>,
    /// Per virtual stage, its chunk (`vs / p`).
    chunk: Vec<usize>,
    /// Per microbatch, the Megatron rank its round starts at. Forwards
    /// proceed in rounds of `g = min(p, m)` microbatches per chunk
    /// (chunk 0's round, then chunk 1's, …), so microbatch `i`'s round
    /// is `i / g` and spans `v` ranks.
    round: Vec<usize>,
    next_f: Vec<usize>,
    next_b: Vec<usize>,
    /// Completion time of each (virtual stage, microbatch) unit, at
    /// `vs·m + microbatch`; [`Greedy::UNSCHEDULED`] until committed.
    f_end: Vec<u64>,
    b_end: Vec<u64>,
    dev_free: Vec<u64>,
}

impl Greedy {
    const UNSCHEDULED: u64 = u64::MAX;
    const T_FWD: u64 = 1;
    const T_BWD: u64 = 2;

    fn new(p: usize, m: usize, v: usize) -> Greedy {
        let vs_total = v * p;
        let g = p.min(m);
        Greedy {
            m,
            v,
            vs_total,
            device: (0..vs_total).map(|vs| vs % p).collect(),
            chunk: (0..vs_total).map(|vs| vs / p).collect(),
            round: (0..m).map(|i| i / g * v).collect(),
            next_f: vec![0; vs_total],
            next_b: vec![0; vs_total],
            f_end: vec![Self::UNSCHEDULED; vs_total * m],
            b_end: vec![Self::UNSCHEDULED; vs_total * m],
            dev_free: vec![0; p],
        }
    }

    /// Virtual stage `vs`'s earliest runnable unit, or [`Unit::NONE`].
    /// Ties prefer backwards over forwards (the 1F1B discipline that
    /// bounds activation run-ahead), then Megatron's round order:
    /// forwards chunk-ascending within a round, backwards
    /// chunk-descending.
    fn candidate(&self, vs: usize) -> Unit {
        let (m, v) = (self.m, self.v);
        let free = self.dev_free[self.device[vs]];
        let chunk = self.chunk[vs];
        let mut best = Unit::NONE;
        let i = self.next_b[vs];
        if i < m && self.f_end[vs * m + i] != Self::UNSCHEDULED {
            let dep = if vs == self.vs_total - 1 {
                self.f_end[vs * m + i]
            } else {
                self.b_end[(vs + 1) * m + i]
            };
            if dep != Self::UNSCHEDULED {
                let rank = self.round[i] + (v - 1 - chunk);
                best = Unit::new(free.max(dep), Unit::BACKWARD, rank, vs);
            }
        }
        let i = self.next_f[vs];
        if i < m {
            let dep = if vs == 0 {
                0
            } else {
                self.f_end[(vs - 1) * m + i]
            };
            if dep != Self::UNSCHEDULED {
                let rank = self.round[i] + chunk;
                best = best.min(Unit::new(free.max(dep), Unit::FORWARD, rank, vs));
            }
        }
        best
    }

    /// Runs `unit`, returning the instruction it becomes.
    fn commit(&mut self, unit: Unit) -> PipelineInstruction {
        let (vs, m) = (unit.vs(), self.m);
        let chunk = self.chunk[vs];
        if unit.kind() == Unit::FORWARD {
            let i = self.next_f[vs];
            self.next_f[vs] += 1;
            self.f_end[vs * m + i] = unit.start() + Self::T_FWD;
            self.dev_free[self.device[vs]] = unit.start() + Self::T_FWD;
            PipelineInstruction::ForwardChunk {
                chunk,
                microbatch: i,
            }
        } else {
            let i = self.next_b[vs];
            self.next_b[vs] += 1;
            self.b_end[vs * m + i] = unit.start() + Self::T_BWD;
            self.dev_free[self.device[vs]] = unit.start() + Self::T_BWD;
            PipelineInstruction::BackwardChunk {
                chunk,
                microbatch: i,
            }
        }
    }
}

/// A tournament (segment) tree holding one [`Unit`] per leaf, with the
/// least of them at the root.
struct Tournament {
    /// Leaf count, a power of two; leaf `i` lives at `leaves + i`.
    leaves: usize,
    nodes: Vec<Unit>,
}

impl Tournament {
    fn new(len: usize) -> Tournament {
        let leaves = len.next_power_of_two();
        Tournament {
            leaves,
            nodes: vec![Unit::NONE; 2 * leaves],
        }
    }

    fn set(&mut self, leaf: usize, unit: Unit) {
        let mut i = self.leaves + leaf;
        self.nodes[i] = unit;
        while i > 1 {
            i /= 2;
            let best = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
            if self.nodes[i] == best {
                // Every ancestor already holds what it would recompute.
                break;
            }
            self.nodes[i] = best;
        }
    }

    fn best(&self) -> Unit {
        self.nodes[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn count_fwd_bwd(instrs: &[PipelineInstruction]) -> (usize, usize) {
        let f = instrs
            .iter()
            .filter(|i| matches!(i, PipelineInstruction::Forward { .. }))
            .count();
        let b = instrs
            .iter()
            .filter(|i| matches!(i, PipelineInstruction::Backward { .. }))
            .count();
        (f, b)
    }

    #[test]
    fn gpipe_emits_all_forwards_then_all_backwards() {
        let instrs = ScheduleKind::GPipe.stage_instructions(2, 4, 3);
        let kinds: Vec<_> = instrs.iter().collect();
        assert!(matches!(
            kinds[0],
            PipelineInstruction::Forward { microbatch: 0 }
        ));
        assert!(matches!(
            kinds[3],
            PipelineInstruction::Bubble {
                kind: BubbleKind::FwdBwd
            }
        ));
        assert!(matches!(
            kinds[4],
            PipelineInstruction::Backward { microbatch: 0 }
        ));
        assert_eq!(count_fwd_bwd(&instrs), (3, 3));
    }

    #[test]
    fn one_f_one_b_warmup_depends_on_stage() {
        let p = 4;
        let m = 6;
        // Last stage: no warmup, strict F,B alternation.
        let last = ScheduleKind::OneFOneB.stage_instructions(3, p, m);
        assert!(matches!(
            last[0],
            PipelineInstruction::Bubble {
                kind: BubbleKind::FwdBwd
            }
        ));
        assert!(matches!(
            last[1],
            PipelineInstruction::Forward { microbatch: 0 }
        ));
        assert!(matches!(
            last[2],
            PipelineInstruction::Backward { microbatch: 0 }
        ));
        // First stage: p-1 = 3 warmup forwards.
        let first = ScheduleKind::OneFOneB.stage_instructions(0, p, m);
        let warmups = first
            .iter()
            .take_while(|i| matches!(i, PipelineInstruction::Forward { .. }))
            .count();
        assert_eq!(warmups, 3);
        assert_eq!(count_fwd_bwd(&first), (m, m));
        assert_eq!(count_fwd_bwd(&last), (m, m));
    }

    #[test]
    fn warmup_capped_by_microbatch_count() {
        // p=8, m=2: stage 0 would want 7 warmups but only 2 exist.
        let instrs = ScheduleKind::OneFOneB.stage_instructions(0, 8, 2);
        assert_eq!(count_fwd_bwd(&instrs), (2, 2));
        let warmups = instrs
            .iter()
            .take_while(|i| matches!(i, PipelineInstruction::Forward { .. }))
            .count();
        assert_eq!(warmups, 2);
    }

    #[test]
    fn both_schedules_end_with_sync_opt_filldrain() {
        for kind in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
            let instrs = kind.stage_instructions(1, 4, 4);
            let n = instrs.len();
            assert_eq!(instrs[n - 3], PipelineInstruction::GradSync);
            assert_eq!(instrs[n - 2], PipelineInstruction::OptimizerStep);
            assert_eq!(
                instrs[n - 1],
                PipelineInstruction::Bubble {
                    kind: BubbleKind::FillDrain
                }
            );
        }
    }

    #[test]
    fn backwards_are_in_microbatch_order() {
        for kind in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
            let instrs = kind.stage_instructions(1, 4, 5);
            let bwds: Vec<usize> = instrs
                .iter()
                .filter_map(|i| match i {
                    PipelineInstruction::Backward { microbatch } => Some(*microbatch),
                    _ => None,
                })
                .collect();
            assert_eq!(bwds, vec![0, 1, 2, 3, 4], "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_stage_rejected() {
        let _ = ScheduleKind::GPipe.stage_instructions(4, 4, 2);
    }

    #[test]
    fn parses_and_prints_all_schedules() {
        for kind in ScheduleKind::ALL {
            let round_trip: ScheduleKind = kind.to_string().parse().unwrap();
            assert_eq!(round_trip, kind, "{kind}");
        }
        assert_eq!(
            "interleaved".parse::<ScheduleKind>().unwrap(),
            ScheduleKind::Interleaved { chunks: 2 }
        );
        assert_eq!(
            "interleaved:4".parse::<ScheduleKind>().unwrap(),
            ScheduleKind::Interleaved { chunks: 4 }
        );
        assert_eq!("ZB-H1".parse::<ScheduleKind>().unwrap(), ScheduleKind::ZbH1);
        assert!("interleaved:0".parse::<ScheduleKind>().is_err());
        assert!("interleaved:two".parse::<ScheduleKind>().is_err());
        assert!("bidirectional".parse::<ScheduleKind>().is_err());
        // The canonical spelling is the only accepted one.
        assert!("interleaved:02".parse::<ScheduleKind>().is_err());
        assert!("interleaved:+2".parse::<ScheduleKind>().is_err());
        assert!("interleaved:".parse::<ScheduleKind>().is_err());
        assert_eq!(ScheduleKind::Interleaved { chunks: 3 }.chunk_count(), 3);
        assert_eq!(ScheduleKind::ZbH1.chunk_count(), 1);
    }

    /// The exact diagnostics every `--schedule` surface relays: the CLI
    /// and scenario layers parse through this one `FromStr`, so these
    /// messages are the contract their rejection tests assert.
    #[test]
    fn malformed_interleaved_suffixes_get_exact_diagnostics() {
        let err = "interleaved:0".parse::<ScheduleKind>().unwrap_err();
        assert_eq!(
            err,
            "interleaved needs at least 1 chunk per device, got 'interleaved:0'"
        );
        let err = "interleaved:two".parse::<ScheduleKind>().unwrap_err();
        assert_eq!(err, "interleaved chunk count must be an integer, got 'two'");
        let err = "interleaved:".parse::<ScheduleKind>().unwrap_err();
        assert_eq!(err, "interleaved chunk count must be an integer, got ''");
        let err = "interleaved:-2".parse::<ScheduleKind>().unwrap_err();
        assert_eq!(err, "interleaved chunk count must be an integer, got '-2'");
        for (spelling, canon) in [("02", "2"), ("+2", "2"), ("0004", "4")] {
            let err = format!("interleaved:{spelling}")
                .parse::<ScheduleKind>()
                .unwrap_err();
            assert_eq!(
                err,
                format!(
                    "interleaved chunk count must be a canonical decimal \
                     (write 'interleaved:{canon}'), got '{spelling}'"
                )
            );
        }
        // Case-insensitivity still holds for the canonical spellings.
        assert_eq!(
            "Interleaved:4".parse::<ScheduleKind>().unwrap(),
            ScheduleKind::Interleaved { chunks: 4 }
        );
    }

    #[test]
    fn one_chunk_interleaved_is_one_f_one_b_bit_for_bit() {
        for (p, m) in [(4usize, 6usize), (8, 2), (1, 3), (5, 5)] {
            for stage in 0..p {
                assert_eq!(
                    ScheduleKind::Interleaved { chunks: 1 }.stage_instructions(stage, p, m),
                    ScheduleKind::OneFOneB.stage_instructions(stage, p, m),
                    "p={p} m={m} stage={stage}"
                );
            }
        }
    }

    #[test]
    fn zb_h1_splits_every_backward_and_defers_weight_work() {
        let (p, m) = (4usize, 8usize);
        for stage in 0..p {
            let instrs = ScheduleKind::ZbH1.stage_instructions(stage, p, m);
            let inputs: Vec<usize> = instrs
                .iter()
                .filter_map(|i| match i {
                    PipelineInstruction::BackwardInput { microbatch } => Some(*microbatch),
                    _ => None,
                })
                .collect();
            let weights: Vec<usize> = instrs
                .iter()
                .filter_map(|i| match i {
                    PipelineInstruction::BackwardWeight { microbatch } => Some(*microbatch),
                    _ => None,
                })
                .collect();
            let expect: Vec<usize> = (0..m).collect();
            assert_eq!(inputs, expect, "stage {stage}: every B exactly once");
            assert_eq!(weights, expect, "stage {stage}: every W exactly once");
            assert!(
                !instrs
                    .iter()
                    .any(|i| matches!(i, PipelineInstruction::Backward { .. })),
                "ZB-H1 never emits an unsplit backward"
            );
            // W_i never runs before its B_i.
            for i in 0..m {
                let b_pos = instrs
                    .iter()
                    .position(|x| *x == PipelineInstruction::BackwardInput { microbatch: i })
                    .unwrap();
                let w_pos = instrs
                    .iter()
                    .position(|x| *x == PipelineInstruction::BackwardWeight { microbatch: i })
                    .unwrap();
                assert!(b_pos < w_pos, "stage {stage} microbatch {i}");
            }
        }
        // The last stage ends with a burst of deferred W's.
        let last = ScheduleKind::ZbH1.stage_instructions(p - 1, p, m);
        let n = last.len();
        assert_eq!(
            last[n - 4],
            PipelineInstruction::BackwardWeight { microbatch: m - 1 }
        );
    }

    #[test]
    fn interleaved_emits_every_chunk_unit_exactly_once() {
        for (p, m, v) in [(4usize, 8usize, 2usize), (4, 4, 4), (3, 2, 2), (2, 5, 3)] {
            for stage in 0..p {
                let instrs =
                    ScheduleKind::Interleaved { chunks: v }.stage_instructions(stage, p, m);
                let mut fwd = vec![vec![false; m]; v];
                let mut bwd = vec![vec![false; m]; v];
                for i in &instrs {
                    match i {
                        PipelineInstruction::ForwardChunk { chunk, microbatch } => {
                            assert!(!fwd[*chunk][*microbatch], "duplicate F");
                            fwd[*chunk][*microbatch] = true;
                        }
                        PipelineInstruction::BackwardChunk { chunk, microbatch } => {
                            assert!(!bwd[*chunk][*microbatch], "duplicate B");
                            bwd[*chunk][*microbatch] = true;
                        }
                        PipelineInstruction::Forward { .. }
                        | PipelineInstruction::Backward { .. } => {
                            panic!("interleaved streams are fully chunked")
                        }
                        _ => {}
                    }
                }
                assert!(fwd.iter().flatten().all(|&x| x), "p={p} m={m} v={v}");
                assert!(bwd.iter().flatten().all(|&x| x), "p={p} m={m} v={v}");
            }
        }
    }

    #[test]
    fn all_schedules_end_with_sync_opt_filldrain() {
        for kind in ScheduleKind::ALL {
            let instrs = kind.stage_instructions(1, 4, 4);
            let n = instrs.len();
            assert_eq!(instrs[n - 3], PipelineInstruction::GradSync, "{kind}");
            assert_eq!(instrs[n - 2], PipelineInstruction::OptimizerStep, "{kind}");
            assert_eq!(
                instrs[n - 1],
                PipelineInstruction::Bubble {
                    kind: BubbleKind::FillDrain
                },
                "{kind}"
            );
            assert_eq!(
                instrs
                    .iter()
                    .filter(|i| matches!(
                        i,
                        PipelineInstruction::Bubble {
                            kind: BubbleKind::FwdBwd
                        }
                    ))
                    .count(),
                1,
                "{kind}: exactly one fwd-bwd marker"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 chunk")]
    fn zero_chunk_interleaved_rejected() {
        let _ = ScheduleKind::Interleaved { chunks: 0 }.stage_instructions(0, 4, 4);
    }

    #[test]
    fn all_stage_instructions_matches_per_stage_emission() {
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved { chunks: 1 },
            ScheduleKind::Interleaved { chunks: 2 },
            ScheduleKind::Interleaved { chunks: 3 },
            ScheduleKind::ZbH1,
        ] {
            for (p, m) in [(1usize, 1usize), (4, 6), (5, 3)] {
                let all = kind.all_stage_instructions(p, m);
                assert_eq!(all.len(), p, "{kind} p={p} m={m}");
                for (s, expect) in all.iter().enumerate() {
                    assert_eq!(
                        &kind.stage_instructions(s, p, m),
                        expect,
                        "{kind} p={p} m={m} stage {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn shapes_past_the_bound_are_rejected() {
        let bound = ScheduleKind::MAX_UNITS;
        assert!(ScheduleKind::GPipe.within_bound(bound, 1));
        assert!(!ScheduleKind::GPipe.within_bound(bound + 1, 1));
        let two = ScheduleKind::Interleaved { chunks: 2 };
        assert!(two.within_bound(64, bound / 128));
        assert!(!two.within_bound(64, bound / 128 + 1));
        assert!(!two.within_bound(usize::MAX, 2), "an overflowing product");
    }

    #[test]
    #[should_panic(expected = "past the generators' bound")]
    fn generator_refuses_a_shape_past_the_bound() {
        let _ = ScheduleKind::Interleaved { chunks: 2 }
            .all_stage_instructions(ScheduleKind::MAX_UNITS, 1);
    }

    /// A key field drawn below `below`, often at either end of its range
    /// so that pairs of units tie on it.
    fn field(below: u64) -> impl Strategy<Value = u64> {
        prop_oneof![0..2u64, below - 2..below, 0..below]
    }

    fn unit((start, kind, rank, vs): (u64, u8, u64, u64)) -> Unit {
        Unit::new(start, kind, rank as usize, vs as usize)
    }

    /// Any unit, each field up to the bound `Unit::new` asserts.
    fn any_unit() -> impl Strategy<Value = (u64, u8, u64, u64)> {
        (
            field(1 << Unit::START_BITS),
            0u8..2,
            field(1 << Unit::RANK_BITS),
            field(1 << Unit::VS_BITS),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Packed `u64` keys order exactly like `(start, kind, rank, vs)`
        /// tuples, for fields up to the bounds `Unit::new` asserts, and
        /// decode back to their fields; `Unit::NONE` loses to every unit.
        #[test]
        fn packed_unit_keys_order_like_their_field_tuples(a in any_unit(), b in any_unit()) {
            prop_assert_eq!(unit(a).cmp(&unit(b)), a.cmp(&b));
            prop_assert!(unit(a) < Unit::NONE);
            let (start, kind, _, vs) = a;
            prop_assert_eq!((unit(a).start(), unit(a).kind(), unit(a).vs()), (start, kind, vs as usize));
        }
    }
}
