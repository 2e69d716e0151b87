//! Fill-job descriptions.

use pipefill_model_zoo::{JobKind, ModelGraph, ModelId};
use pipefill_sim_core::SimTime;
use serde::{Deserialize, Serialize};

/// Unique fill-job identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A fill job as submitted to PipeFill: "PIPEFILL takes as input the model
/// used for the fill-job, as well as valid batch-sizes; given the job
/// configuration, it will attempt to execute the fill-job with maximum
/// throughput" (§4.1). Every job here supports the same batch-size menu,
/// [`FillJobSpec::BATCH_SIZES`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FillJobSpec {
    /// Job identifier.
    pub id: JobId,
    /// Which Table-1 model the job runs.
    pub model: ModelId,
    /// Training or batch inference.
    pub kind: JobKind,
    /// Samples the job must process to complete.
    pub samples: u64,
    /// Submission time.
    pub arrival: SimTime,
    /// Optional completion deadline (drives deadline-aware policies).
    pub deadline: Option<SimTime>,
}

impl FillJobSpec {
    /// The batch-size menu every fill job supports: powers of two from 1
    /// to 512.
    pub const BATCH_SIZES: [usize; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

    /// Creates a job arriving at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn new(id: u64, model: ModelId, kind: JobKind, samples: u64) -> Self {
        assert!(samples > 0, "a job must process at least one sample");
        FillJobSpec {
            id: JobId(id),
            model,
            kind,
            samples,
            arrival: SimTime::ZERO,
            deadline: None,
        }
    }

    /// Sets the arrival time.
    pub fn with_arrival(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets a deadline.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builds the model graph for this job.
    pub fn model_graph(&self) -> ModelGraph {
        self.model.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_model_zoo::ModelId;

    #[test]
    fn batch_menu_is_powers_of_two() {
        for (i, &b) in FillJobSpec::BATCH_SIZES.iter().enumerate() {
            assert_eq!(b, 1 << i);
        }
        assert_eq!(FillJobSpec::BATCH_SIZES.last(), Some(&512));
    }

    #[test]
    fn builder_methods_chain() {
        let job = FillJobSpec::new(2, ModelId::EfficientNet, JobKind::Training, 50)
            .with_arrival(SimTime::from_secs_f64(10.0))
            .with_deadline(SimTime::from_secs_f64(100.0));
        assert_eq!(job.arrival, SimTime::from_secs_f64(10.0));
        assert_eq!(job.deadline, Some(SimTime::from_secs_f64(100.0)));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = FillJobSpec::new(3, ModelId::BertBase, JobKind::Training, 0);
    }
}
