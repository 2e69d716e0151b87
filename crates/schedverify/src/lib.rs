//! # pipefill-schedverify — "schedcheck"
//!
//! A static verifier for pipeline-parallel instruction streams. Given one
//! iteration's per-device streams — from the built-in generators or an
//! external stream file — it proves, from the stream text:
//!
//! 1. **Well-formedness** ([`wellformed`]): every microbatch's forward
//!    and backward (or ZB-H1 `B`+`W` pair) appears exactly once per
//!    stage and chunk, in a legal per-microbatch order.
//! 2. **Deadlock-freedom**: the engine's in-order execution of the
//!    streams ([`EngineConfig::timeline_of`]) completes — the run the
//!    bubble bound reads. When it wedges, [`graph`] spells out the
//!    cross-device dependency cycle behind the wedge: intra-device
//!    program order plus the inter-stage activation/gradient edges the
//!    engine keys execution on.
//! 3. **Memory-envelope compliance** ([`memory`]): the static peak of
//!    live activations per device, checked against a limit and equal to
//!    the engine's published [`pipefill_pipeline::activation_envelope`].
//! 4. **Bubble optimality** ([`critpath`]): the steady-state bubble
//!    fraction — the longest paths through the weighted dependency DAG,
//!    which is the same engine run's evaluation of the stream text —
//!    compared against the paper's closed forms where they apply.
//!
//! Verdicts render as deterministic JSON certificates ([`certificate`])
//! that CI regenerates and byte-compares, so "the built-in schedules are
//! deadlock-free and bubble-optimal" is a pinned artifact, not a hope.
//!
//! Property 1 is re-derived independently of the engine. Properties 2
//! and 4 are one engine run: there is one deadlock decision and one
//! evaluation of the start-time recurrence in the workspace, not two to
//! keep in step. Property 3 is the prefix count the engine's memory
//! model publishes ([`pipefill_pipeline::activation_peaks`]), and the
//! conformance suite pins it against the closed-form envelope.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod certificate;
pub mod critpath;
pub mod graph;
pub mod memory;
pub mod stream;
pub mod wellformed;

use pipefill_pipeline::{bubble_fraction_for, deps, EngineConfig, EngineError, ScheduleKind};
use pipefill_sim_core::SimDuration;

pub use critpath::CritPath;
pub use stream::StreamSet;

/// Which property a finding falsifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Property {
    /// Completeness / per-microbatch ordering (property 1).
    Wellformed,
    /// Deadlock-freedom (property 2).
    Deadlock,
    /// Memory-envelope compliance (property 3).
    Memory,
    /// Bubble optimality / steady-state analysis (property 4).
    Bubble,
}

impl Property {
    /// Stable lower-case name used in certificates and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            Property::Wellformed => "wellformed",
            Property::Deadlock => "deadlock",
            Property::Memory => "memory",
            Property::Bubble => "bubble",
        }
    }
}

impl std::fmt::Display for Property {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One defect: a property the stream set fails, with a human-readable
/// explanation. No findings means certified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The property falsified.
    pub property: Property,
    /// The device the defect was observed on, when attributable.
    pub device: Option<usize>,
    /// What went wrong, in stream-file vocabulary.
    pub message: String,
}

impl Finding {
    /// A finding attributed to one device.
    pub fn on_device(property: Property, device: usize, message: String) -> Finding {
        Finding {
            property,
            device: Some(device),
            message,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.device {
            Some(d) => write!(f, "[{}] dev{d}: {}", self.property, self.message),
            None => write!(f, "[{}] {}", self.property, self.message),
        }
    }
}

/// How a verification run weighs and bounds the streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Per-stage forward time for one microbatch (uniform stages).
    pub t_fwd: SimDuration,
    /// Per-stage backward time for one microbatch (uniform stages).
    pub t_bwd: SimDuration,
    /// Inter-stage hand-off latency.
    pub comm: SimDuration,
    /// Per-device cap on live microbatch activations, if any.
    pub memory_limit: Option<u64>,
    /// The schedule the streams claim to implement; enables the
    /// closed-form bubble comparison.
    pub schedule: Option<ScheduleKind>,
}

impl VerifyConfig {
    /// Uniform-stage config with no memory limit and no claimed schedule.
    pub fn new(t_fwd: SimDuration, t_bwd: SimDuration) -> VerifyConfig {
        VerifyConfig {
            t_fwd,
            t_bwd,
            comm: SimDuration::ZERO,
            memory_limit: None,
            schedule: None,
        }
    }

    /// Claims the streams implement `schedule`, enabling the closed-form
    /// bubble comparison.
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> VerifyConfig {
        self.schedule = Some(schedule);
        self
    }

    /// Caps live microbatch activations per device.
    pub fn with_memory_limit(mut self, limit: u64) -> VerifyConfig {
        self.memory_limit = Some(limit);
        self
    }

    /// The engine configuration whose durations and comm latency weight
    /// the dependency DAG. The schedule slot only matters for its chunk
    /// count (which drives chunked-compute durations), so it is forced
    /// consistent with the stream set's.
    pub fn engine_config(&self, set: &StreamSet) -> EngineConfig {
        let repr = match self.schedule {
            Some(k) if k.chunk_count() == set.chunks => k,
            _ if set.chunks > 1 => ScheduleKind::Interleaved { chunks: set.chunks },
            _ => ScheduleKind::OneFOneB,
        };
        let mut cfg =
            EngineConfig::uniform(repr, set.stages(), set.microbatches, self.t_fwd, self.t_bwd);
        cfg.comm = self.comm;
        cfg
    }
}

/// How the static bubble fraction relates to the paper's closed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// The closed form is the realized fraction; equality is checked
    /// bit-for-bit.
    Exact,
    /// The closed form is an ideal lower bound (interleaved schedules:
    /// the generator's fill/drain overlap is imperfect, §2); the static
    /// fraction must be at least it.
    LowerBound,
    /// The closed form makes no claim for this shape (e.g. `m < p`) or
    /// these timings; nothing is checked.
    OutOfRegime,
}

impl Relation {
    /// Stable kebab-case name used in certificates.
    pub fn as_str(self) -> &'static str {
        match self {
            Relation::Exact => "exact",
            Relation::LowerBound => "lower-bound",
            Relation::OutOfRegime => "out-of-regime",
        }
    }
}

/// The closed-form comparison attached to a verdict when the schedule is
/// known.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedForm {
    /// The paper's formula evaluated for this shape (`bubble_fraction_for`).
    pub expected: f64,
    /// What the formula claims about the realized fraction.
    pub relation: Relation,
    /// Whether the claim holds for the static fraction.
    pub holds: bool,
}

/// Everything a certified run proves, reported in certificates.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Pipeline stages.
    pub stages: usize,
    /// Microbatches per iteration.
    pub microbatches: usize,
    /// Model chunks per device.
    pub chunks: usize,
    /// Instruction occurrences across all devices (one iteration).
    pub instructions: usize,
    /// Inter-stage dependency edges: instructions that wait on a key
    /// another instruction publishes (program order excluded).
    pub dependency_edges: usize,
    /// Peak live microbatch activations per device.
    pub memory_peaks: Vec<u64>,
    /// Proven steady-state iteration period.
    pub period: SimDuration,
    /// Static bubble fraction (engine `bubble_ratio`, bit-for-bit).
    pub bubble_fraction_static: f64,
    /// Closed-form comparison, when a schedule was claimed.
    pub closed_form: Option<ClosedForm>,
}

/// The verifier's output: findings (empty iff certified) plus the proven
/// quantities (absent when the streams are too broken to analyze).
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Every defect found, in analysis order.
    pub findings: Vec<Finding>,
    /// Proven quantities; `None` when well-formedness or deadlock
    /// analysis already failed.
    pub stats: Option<Stats>,
}

impl Verdict {
    /// True iff every property holds.
    pub fn certified(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Verifies a stream set: well-formedness, deadlock-freedom, memory
/// envelope, bubble bound. See the crate docs for the property list.
pub fn verify(set: &StreamSet, cfg: &VerifyConfig) -> Verdict {
    let findings = wellformed::check(set);
    if !findings.is_empty() {
        return Verdict {
            findings,
            stats: None,
        };
    }
    let run = cfg.engine_config(set).timeline_of(&set.streams);
    if let Err(EngineError::Deadlock { ran, .. }) = &run {
        return Verdict {
            findings: vec![graph::explain(set, ran)],
            stats: None,
        };
    }
    let (memory_peaks, mut findings) = memory::check(set, cfg.memory_limit);
    let crit = match critpath::read(run) {
        Ok(c) => c,
        Err(f) => {
            findings.push(f);
            return Verdict {
                findings,
                stats: None,
            };
        }
    };

    let closed_form = cfg
        .schedule
        .map(|kind| closed_form_check(kind, set, cfg, crit.bubble_fraction));
    if let Some(cf) = closed_form {
        if !cf.holds {
            findings.push(Finding {
                property: Property::Bubble,
                device: None,
                message: format!(
                    "static bubble fraction {} violates the closed form {} ({})",
                    crit.bubble_fraction,
                    cf.expected,
                    cf.relation.as_str()
                ),
            });
        }
    }

    Verdict {
        stats: Some(Stats {
            stages: set.stages(),
            microbatches: set.microbatches,
            chunks: set.chunks,
            instructions: set.instruction_count(),
            dependency_edges: consumed_keys(set),
            memory_peaks,
            period: crit.period,
            bubble_fraction_static: crit.bubble_fraction,
            closed_form,
        }),
        findings,
    }
}

/// How many instructions wait on an inter-stage key.
fn consumed_keys(set: &StreamSet) -> usize {
    let p = set.stages();
    set.streams
        .iter()
        .enumerate()
        .flat_map(|(s, stream)| {
            let waits = move |&instr| deps::consumed(instr, s, p, set.chunks);
            stream.iter().filter_map(waits)
        })
        .count()
}

/// Relates the static fraction to `bubble_fraction_for`.
///
/// Regimes: the formulas assume `m >= p` (below that the pipeline never
/// fills and the drain structure changes); ZB-H1's additionally bakes in
/// the `B = W = t_bwd/2` split, so it is only exact when `t_bwd` splits
/// evenly; interleaved formulas are ideal lower bounds by construction.
fn closed_form_check(
    kind: ScheduleKind,
    set: &StreamSet,
    cfg: &VerifyConfig,
    static_fraction: f64,
) -> ClosedForm {
    let (p, m) = (set.stages(), set.microbatches);
    let r = if cfg.t_fwd.is_zero() {
        f64::NAN
    } else {
        cfg.t_bwd.as_nanos() as f64 / cfg.t_fwd.as_nanos() as f64
    };
    let expected = bubble_fraction_for(kind, p, m, r);
    let relation = if m < p || cfg.t_fwd.is_zero() || !cfg.comm.is_zero() {
        Relation::OutOfRegime
    } else {
        match kind {
            ScheduleKind::GPipe | ScheduleKind::OneFOneB => Relation::Exact,
            ScheduleKind::Interleaved { chunks: 1 } => Relation::Exact,
            ScheduleKind::Interleaved { .. } => Relation::LowerBound,
            ScheduleKind::ZbH1 => {
                if cfg.t_bwd.as_nanos().is_multiple_of(2) {
                    Relation::Exact
                } else {
                    Relation::OutOfRegime
                }
            }
        }
    };
    let holds = match relation {
        Relation::Exact => static_fraction.to_bits() == expected.to_bits(),
        Relation::LowerBound => static_fraction >= expected,
        Relation::OutOfRegime => true,
    };
    ClosedForm {
        expected,
        relation,
        holds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn cfg() -> VerifyConfig {
        VerifyConfig::new(ms(10), ms(20))
    }

    #[test]
    fn builtins_certify_with_exact_or_bounding_closed_forms() {
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved { chunks: 2 },
            ScheduleKind::ZbH1,
        ] {
            let set = StreamSet::from_schedule(kind, 4, 8);
            let verdict = verify(&set, &cfg().with_schedule(kind));
            assert!(verdict.certified(), "{kind}: {:?}", verdict.findings);
            let stats = verdict.stats.expect("certified runs carry stats");
            let cf = stats.closed_form.expect("schedule was claimed");
            assert!(cf.holds, "{kind}");
            match kind {
                ScheduleKind::Interleaved { .. } => {
                    assert_eq!(cf.relation, Relation::LowerBound, "{kind}");
                    assert!(stats.bubble_fraction_static >= cf.expected, "{kind}");
                }
                _ => {
                    assert_eq!(cf.relation, Relation::Exact, "{kind}");
                    assert_eq!(
                        stats.bubble_fraction_static.to_bits(),
                        cf.expected.to_bits(),
                        "{kind}"
                    );
                }
            }
        }
    }

    #[test]
    fn deadlocked_stream_is_rejected_with_a_cycle() {
        let set = StreamSet::parse(
            "stages = 2\nmicrobatches = 2\n\
             device_0 = \"F0 B0 F1 B1\"\n\
             device_1 = \"F1 F0 B0 B1\"\n",
        )
        .expect("parses");
        let verdict = verify(&set, &cfg());
        assert!(!verdict.certified());
        assert!(verdict.stats.is_none());
        assert_eq!(verdict.findings[0].property, Property::Deadlock);
    }

    #[test]
    fn memory_limit_rejects_gpipe_but_not_1f1b() {
        let gpipe = StreamSet::from_schedule(ScheduleKind::GPipe, 4, 8);
        let verdict = verify(&gpipe, &cfg().with_memory_limit(4));
        assert!(!verdict.certified());
        assert!(verdict
            .findings
            .iter()
            .all(|f| f.property == Property::Memory));
        // Memory findings don't block the rest of the analysis.
        assert!(verdict.stats.is_some());

        let ofob = StreamSet::from_schedule(ScheduleKind::OneFOneB, 4, 8);
        assert!(verify(&ofob, &cfg().with_memory_limit(4)).certified());
    }

    #[test]
    fn small_m_is_out_of_regime_not_a_failure() {
        let set = StreamSet::from_schedule(ScheduleKind::ZbH1, 4, 2);
        let verdict = verify(&set, &cfg().with_schedule(ScheduleKind::ZbH1));
        assert!(verdict.certified(), "{:?}", verdict.findings);
        let cf = verdict.stats.expect("stats").closed_form.expect("claimed");
        assert_eq!(cf.relation, Relation::OutOfRegime);
    }
}
