//! Converting trace jobs into executable fill-job specs.
//!
//! §5.3: "To determine how many samples a job should process, we divide
//! the job-size (in GPU-hours) by the max throughput that the job-type
//! can achieve when executed in isolation on one GPU." The throughput is
//! the job type's exclusive throughput on the main job's device, read
//! from its [`StagePlans`](crate::StagePlans).

use pipefill_executor::FillJobSpec;
use pipefill_trace::TraceJob;

/// Samples a trace job must process: GPU-hours × the job type's isolated
/// max `throughput` (samples per second); at least 1.
pub fn samples_for_trace_job(job: &TraceJob, throughput: f64) -> u64 {
    let samples = (job.gpu_hours * 3600.0 * throughput).round() as u64;
    samples.max(1)
}

/// Full conversion into the Executor's job description, given the job
/// type's isolated max `throughput`.
pub fn trace_job_to_spec(job: &TraceJob, throughput: f64) -> FillJobSpec {
    let samples = samples_for_trace_job(job, throughput);
    let mut spec = FillJobSpec::new(job.id, job.model, job.kind, samples).with_arrival(job.arrival);
    if let Some(d) = job.deadline {
        spec = spec.with_deadline(d);
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_device::DeviceSpec;
    use pipefill_executor::exclusive_throughput;
    use pipefill_model_zoo::{JobKind, ModelId};
    use pipefill_sim_core::SimTime;
    use pipefill_trace::{TraceConfig, TraceGenerator};

    /// The job type's exclusive throughput on `device`, profiled cold.
    fn throughput(job: &TraceJob, device: &DeviceSpec) -> f64 {
        let graph = job.model.build();
        exclusive_throughput(&graph, job.kind, device, &FillJobSpec::BATCH_SIZES)
            .expect("every Table-1 job type fits a V100")
            .0
    }

    /// Samples `job` processes on `device`.
    fn samples(job: &TraceJob, device: &DeviceSpec) -> u64 {
        samples_for_trace_job(job, throughput(job, device))
    }

    fn trace_job(model: ModelId, kind: JobKind, gpu_hours: f64) -> TraceJob {
        TraceJob {
            id: 1,
            arrival: SimTime::ZERO,
            model,
            kind,
            gpu_hours,
            deadline: None,
        }
    }

    #[test]
    fn samples_scale_with_gpu_hours() {
        let d = DeviceSpec::v100();
        let small = trace_job(ModelId::BertBase, JobKind::BatchInference, 0.1);
        let big = trace_job(ModelId::BertBase, JobKind::BatchInference, 1.0);
        let s1 = samples(&small, &d);
        let s2 = samples(&big, &d);
        let ratio = s2 as f64 / s1 as f64;
        assert!((ratio - 10.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn bert_inference_sample_count_is_plausible() {
        // BERT-base batch inference on a V100 runs hundreds of samples
        // per second; a 0.5 GPU-hour job should be ~10^5-10^6 samples.
        let d = DeviceSpec::v100();
        let job = trace_job(ModelId::BertBase, JobKind::BatchInference, 0.5);
        let s = samples(&job, &d);
        assert!((50_000..5_000_000).contains(&s), "samples {s}");
    }

    #[test]
    fn training_jobs_get_fewer_samples_than_inference() {
        let d = DeviceSpec::v100();
        let t = trace_job(ModelId::BertBase, JobKind::Training, 0.5);
        let i = trace_job(ModelId::BertBase, JobKind::BatchInference, 0.5);
        assert!(samples(&t, &d) < samples(&i, &d));
    }

    #[test]
    fn whole_trace_converts() {
        let d = DeviceSpec::v100();
        let (jobs, _) = TraceGenerator::new(TraceConfig::physical(2)).generate();
        assert!(!jobs.is_empty());
        for j in &jobs {
            // §5.3's bucketing rule: only sub-700M models train.
            assert!(
                j.kind == JobKind::BatchInference || j.model.trainable_as_fill_job(),
                "{j:?}"
            );
            let spec = trace_job_to_spec(j, throughput(j, &d));
            assert!(spec.samples >= 1);
            assert_eq!(spec.arrival, j.arrival);
            assert_eq!(spec.deadline, j.deadline);
        }
    }
}
