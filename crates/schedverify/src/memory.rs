//! Static memory envelope: peak live activations per device.
//!
//! The peaks are [`pipefill_pipeline::activation_peaks`] over the stream
//! text: the prefix count of forwards minus backwards each device's
//! in-order execution holds, in whole-microbatch units, without
//! executing anything. [`pipefill_pipeline::activation_envelope`]
//! publishes the same quantity for the built-in generators from closed
//! forms; the conformance tests pin the two against each other.

use pipefill_pipeline::activation_peaks;

use crate::stream::StreamSet;
use crate::{Finding, Property};

/// Checks the envelope against an optional per-device limit.
pub fn check(set: &StreamSet, limit: Option<u64>) -> (Vec<u64>, Vec<Finding>) {
    let peaks = activation_peaks(&set.streams, set.chunks);
    let mut findings = Vec::new();
    if let Some(limit) = limit {
        for (s, &peak) in peaks.iter().enumerate() {
            if peak > limit {
                findings.push(Finding::on_device(
                    Property::Memory,
                    s,
                    format!(
                        "peak of {peak} live microbatch activations exceeds \
                         the limit of {limit}"
                    ),
                ));
            }
        }
    }
    (peaks, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_pipeline::{activation_envelope, ScheduleKind};

    #[test]
    fn static_peaks_match_the_published_envelope() {
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved { chunks: 2 },
            ScheduleKind::Interleaved { chunks: 3 },
            ScheduleKind::ZbH1,
        ] {
            for (p, m) in [(1, 1), (2, 4), (4, 8), (4, 2), (8, 16)] {
                let set = StreamSet::from_schedule(kind, p, m);
                assert_eq!(
                    check(&set, None).0,
                    activation_envelope(kind, p, m),
                    "{kind} p={p} m={m}"
                );
            }
        }
    }

    #[test]
    fn limits_trip_per_device() {
        // GPipe holds all m activations on every device; 1F1B caps at
        // min(m, p - s).
        let gpipe = StreamSet::from_schedule(ScheduleKind::GPipe, 4, 8);
        let (peaks, findings) = check(&gpipe, Some(4));
        assert_eq!(peaks, vec![8, 8, 8, 8]);
        assert_eq!(findings.len(), 4);
        assert!(findings[0].message.contains("peak of 8"));

        let ofob = StreamSet::from_schedule(ScheduleKind::OneFOneB, 4, 8);
        let (peaks, findings) = check(&ofob, Some(4));
        assert_eq!(peaks, vec![4, 3, 2, 1]);
        assert!(findings.is_empty());

        let (_, findings) = check(&ofob, None);
        assert!(findings.is_empty());
    }
}
