//! Combined-parallelism configuration (§2.2): tensor parallelism within a
//! node, pipeline stages across nodes, data-parallel replication of the
//! whole pipeline.

/// How a training job is parallelized.
///
/// The paper's scaling rule (§3.1): tensor and pipeline degrees are fixed
/// by the model and node shape; scaling out raises the data-parallel
/// degree, and because the global minibatch is fixed (1024 sequences at
/// microbatch 2), the number of microbatches per pipeline replica falls —
/// which is what inflates the bubble fraction.
///
/// # Example
///
/// ```
/// use pipefill_pipeline::ParallelismConfig;
///
/// // The 40B job at 8K GPUs: TP=8, PP=16, DP=64.
/// let cfg = ParallelismConfig::new(8, 16, 64, 2, 1024);
/// assert_eq!(cfg.total_gpus(), 8192);
/// assert_eq!(cfg.microbatches_per_replica(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// Tensor-parallel degree (within a node).
    pub tensor_parallel: usize,
    /// Number of pipeline stages.
    pub pipeline_stages: usize,
    /// Data-parallel degree (pipeline replicas).
    pub data_parallel: usize,
    /// Sequences per microbatch.
    pub microbatch_size: usize,
    /// Global minibatch in sequences, fixed across scales (the paper fixes
    /// 1024 sequences ≈ 2M tokens per model update).
    pub global_minibatch: usize,
}

impl ParallelismConfig {
    /// Creates and validates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any degree is zero or the global minibatch does not
    /// divide evenly into per-replica microbatches.
    pub fn new(
        tensor_parallel: usize,
        pipeline_stages: usize,
        data_parallel: usize,
        microbatch_size: usize,
        global_minibatch: usize,
    ) -> Self {
        let cfg = ParallelismConfig {
            tensor_parallel,
            pipeline_stages,
            data_parallel,
            microbatch_size,
            global_minibatch,
        };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(
            self.tensor_parallel > 0
                && self.pipeline_stages > 0
                && self.data_parallel > 0
                && self.microbatch_size > 0
                && self.global_minibatch > 0,
            "all parallelism degrees must be positive: {self:?}"
        );
        let per_replica = self.global_minibatch / self.data_parallel;
        assert!(
            per_replica * self.data_parallel == self.global_minibatch,
            "global minibatch {} does not divide across {} replicas",
            self.global_minibatch,
            self.data_parallel
        );
        assert!(
            per_replica.is_multiple_of(self.microbatch_size),
            "per-replica minibatch {per_replica} does not divide into microbatches of {}",
            self.microbatch_size
        );
        assert!(
            self.microbatches_per_replica() >= 1,
            "need at least one microbatch per replica"
        );
    }

    /// GPUs in one pipeline replica.
    pub fn gpus_per_replica(&self) -> usize {
        self.tensor_parallel * self.pipeline_stages
    }

    /// Total GPUs across all replicas.
    pub fn total_gpus(&self) -> usize {
        self.gpus_per_replica() * self.data_parallel
    }

    /// Microbatches each replica processes per model update: `m` in the
    /// bubble-fraction formula `(p-1)/(m+p-1)`.
    pub fn microbatches_per_replica(&self) -> usize {
        self.global_minibatch / self.data_parallel / self.microbatch_size
    }

    /// The paper's 40B-job scaling series: TP=8, PP=16 fixed, DP chosen to
    /// hit `total_gpus` (must be a multiple of 128).
    ///
    /// # Panics
    ///
    /// Panics if `total_gpus` is not a positive multiple of 128 or the
    /// resulting replica count cannot split 512 microbatches evenly.
    pub fn for_40b_at_scale(total_gpus: usize) -> Self {
        assert!(
            total_gpus > 0 && total_gpus.is_multiple_of(128),
            "the 40B job allocates GPUs in replica units of 128, got {total_gpus}"
        );
        ParallelismConfig::new(8, 16, total_gpus / 128, 2, 1024)
    }

    /// The paper's 5B physical-cluster job: PP=16, no TP, one replica of
    /// 16 GPUs, with a configurable microbatch count (8 in the headline
    /// 65%-bubble-ratio experiments).
    pub fn for_5b_physical(microbatches: usize) -> Self {
        assert!(microbatches > 0, "need at least one microbatch");
        // One replica: the global minibatch seen by this replica is
        // microbatches × microbatch size.
        ParallelismConfig::new(1, 16, 1, 2, 2 * microbatches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scaling_series() {
        // GPUs -> microbatches per replica: 1K/64, 2K/32, 4K/16, 8K/8, 16K/4.
        for (gpus, m) in [(1024, 64), (2048, 32), (4096, 16), (8192, 8), (16384, 4)] {
            let cfg = ParallelismConfig::for_40b_at_scale(gpus);
            assert_eq!(cfg.total_gpus(), gpus);
            assert_eq!(cfg.microbatches_per_replica(), m, "at {gpus} GPUs");
        }
    }

    #[test]
    fn physical_5b_job_shape() {
        let cfg = ParallelismConfig::for_5b_physical(8);
        assert_eq!(cfg.total_gpus(), 16);
        assert_eq!(cfg.pipeline_stages, 16);
        assert_eq!(cfg.tensor_parallel, 1);
        assert_eq!(cfg.microbatches_per_replica(), 8);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn uneven_microbatches_rejected() {
        let _ = ParallelismConfig::new(1, 4, 1, 3, 8);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_degree_rejected() {
        let _ = ParallelismConfig::new(0, 4, 1, 2, 8);
    }

    #[test]
    #[should_panic(expected = "replica units of 128")]
    fn non_replica_multiple_rejected() {
        let _ = ParallelismConfig::for_40b_at_scale(1000);
    }
}
