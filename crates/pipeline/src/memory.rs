//! Bubble free memory and the main job's activation residency.
//!
//! The paper's engine *measures* free memory with allocator statistics
//! and seeds its simulator with the measurement: 4.5 GB on both the 5B
//! and 40B jobs (§6.1). Every bubble of a main job reports that one value
//! ([`MEASURED_BUBBLE_FREE_MEMORY`] by default, the axis Fig. 10b
//! sweeps). What stays structural is the schedule's activation
//! residency: [`activation_envelope`] gives its closed forms and
//! [`activation_peaks`] measures it on emitted streams.

use pipefill_device::Bytes;

use crate::instructions::PipelineInstruction;
use crate::schedule::ScheduleKind;

/// The paper's measured free memory during bubbles: 4.5 GiB on both the
/// 5B and 40B jobs, without main-job offloading (§6.1).
pub const MEASURED_BUBBLE_FREE_MEMORY: Bytes = Bytes::from_mib(4608);

/// Peak resident microbatch-activations per device for `schedule` on `p`
/// stages and `m` microbatches: the closed forms the static schedule
/// verifier cross-checks its stream-measured peaks ([`activation_peaks`])
/// against.
///
/// Microbatches whose activations are resident during the fwd-bwd
/// bubble: GPipe keeps all `m`; 1F1B keeps at most `p - stage` in
/// flight; 1-chunk interleaved *is* 1F1B. ZB-H1 shares 1F1B's envelope
/// by modeling assumption (the H1 variant defers only W work, which this
/// model treats as holding no extra activations). The multi-chunk
/// interleaved schedule's residency is not 1F1B's — its greedy
/// realization runs forwards further ahead than the 1F1B warmup — so its
/// per-stage peak is measured from the emitted streams by
/// [`activation_peaks`].
///
/// # Panics
///
/// Panics if `p` or `m` is zero, or an interleaved schedule has zero
/// chunks.
pub fn activation_envelope(schedule: ScheduleKind, p: usize, m: usize) -> Vec<u64> {
    assert!(p > 0 && m > 0, "p and m must be positive");
    match schedule {
        ScheduleKind::GPipe => vec![m as u64; p],
        ScheduleKind::Interleaved { chunks } if chunks > 1 => {
            activation_peaks(&schedule.all_stage_instructions(p, m), chunks)
        }
        ScheduleKind::OneFOneB | ScheduleKind::Interleaved { .. } | ScheduleKind::ZbH1 => {
            (0..p).map(|s| m.min(p - s) as u64).collect()
        }
    }
}

/// Peak live activations per device of arbitrary per-device streams
/// (one iteration each, `chunks` model chunks per device), in
/// whole-microbatch units.
///
/// A forward pins one chunk's worth of activation memory until the
/// matching backward consumes it — the full `B` for plain schedules, the
/// `BI` half for ZB-H1 (the deferred `W` half reads weight gradients,
/// not activations). A device executes its stream in order, so the
/// prefix count of forwards minus backwards is its exact residency
/// trajectory for any stage timing; the chunk-unit peak rounds up to
/// whole microbatches. A backward with nothing resident (only malformed
/// streams have one) frees nothing.
pub fn activation_peaks(streams: &[Vec<PipelineInstruction>], chunks: usize) -> Vec<u64> {
    streams
        .iter()
        .map(|stream| {
            let mut resident = 0u64; // live activation chunks
            let mut peak = 0u64;
            for &instr in stream {
                match instr {
                    PipelineInstruction::Forward { .. }
                    | PipelineInstruction::ForwardChunk { .. } => {
                        resident += 1;
                        peak = peak.max(resident);
                    }
                    PipelineInstruction::Backward { .. }
                    | PipelineInstruction::BackwardChunk { .. }
                    | PipelineInstruction::BackwardInput { .. } => {
                        resident = resident.saturating_sub(1);
                    }
                    _ => {}
                }
            }
            peak.div_ceil(chunks as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_envelope_matches_closed_forms() {
        assert_eq!(activation_envelope(ScheduleKind::GPipe, 4, 6), vec![6; 4]);
        assert_eq!(
            activation_envelope(ScheduleKind::OneFOneB, 4, 6),
            vec![4, 3, 2, 1]
        );
        assert_eq!(
            activation_envelope(ScheduleKind::ZbH1, 4, 2),
            vec![2, 2, 2, 1]
        );
        assert_eq!(
            activation_envelope(ScheduleKind::Interleaved { chunks: 1 }, 4, 6),
            activation_envelope(ScheduleKind::OneFOneB, 4, 6)
        );
        // Multi-chunk peaks are measured, never below 1F1B's closed form.
        let il = activation_envelope(ScheduleKind::Interleaved { chunks: 2 }, 4, 8);
        for (s, &peak) in il.iter().enumerate() {
            assert!(peak >= (8usize.min(4 - s)) as u64, "stage {s}: {peak}");
        }
    }

    #[test]
    fn interleaved_residency_is_measured_not_borrowed_from_one_f_one_b() {
        // The interleaved greedy runs forwards further ahead than 1F1B's
        // warmup, so early stages hold *more* activations: the envelope
        // must reflect the emitted schedule, not 1F1B's closed form.
        // Needs m ≥ p for the bounds to separate (below that both cap at
        // m): the 40B job's 2K-GPU point is m=32 on p=16.
        let (p, m) = (16, 32);
        let ofob = activation_envelope(ScheduleKind::OneFOneB, p, m);
        let il2 = activation_envelope(ScheduleKind::Interleaved { chunks: 2 }, p, m);
        assert!(
            il2[0] > ofob[0],
            "stage 0 should hold more under interleaved: {} vs {}",
            il2[0],
            ofob[0]
        );
        // 1-chunk interleaved is 1F1B bit for bit, residency included.
        let il1 = activation_envelope(ScheduleKind::Interleaved { chunks: 1 }, p, m);
        assert_eq!(il1, ofob);
    }
}
