//! The fine-grained "physical cluster" simulator.
//!
//! Stand-in for the paper's 16-GPU testbed runs (§5.1, §6.1): where the
//! coarse simulator replays plans between arrival/completion events, this
//! one executes *every bubble of every iteration* with multiplicative
//! timing jitter, explicit context-switch costs, and an engine-slack
//! floor inside each bubble. Main-job slowdown is therefore an emergent
//! measurement: whenever a fill partition (plus switch cost) overruns the
//! jittered bubble's usable span, the pipeline stalls and the iteration
//! stretches — which is exactly the failure mode the paper's 68%
//! fill-fraction cap exists to avoid (Fig. 5).
//!
//! Because this models the same plans through an independent mechanism,
//! comparing its recovered FLOPS against the coarse simulator reproduces
//! the paper's simulator-validation experiment (Fig. 6, error <2%).
//!
//! The simulator is [`PhysicalBackend`], the pipeline-filling engine
//! (`crate::filling`) run as a one-job fleet: each main-job iteration
//! unfolds as one `StageBubbles` event per stage (which executes that
//! stage's bubble windows) followed by a `JobIterationEnd` event that
//! folds the per-stage stalls into the pipeline's critical path and
//! schedules the next iteration at the *stretched* period — so the kernel
//! clock itself carries the emergent slowdown.
//! [`PhysicalBackend::simulate`] is the convenience entry point.

use pipefill_executor::ExecutorConfig;
use pipefill_pipeline::MainJobSpec;
use pipefill_sim_core::SimDuration;
use pipefill_trace::ModelMix;
use serde::{Deserialize, Serialize};

use crate::backend::{BackendDriver, BackendKind};
use crate::filling::FillBackend;
use crate::fleet::FleetSimConfig;

/// Fine-grained simulation parameters.
#[derive(Debug, Clone)]
pub struct PhysicalSimConfig {
    /// The main job (defaults target the paper's 5B/16-GPU setup).
    pub main_job: MainJobSpec,
    /// Executor tuning; `fill_fraction` is the Fig. 5 sweep axis. A fill
    /// fraction of exactly `0.0` disables filling (the baseline run).
    pub executor: ExecutorConfig,
    /// Fill-job model mix (devices draw from an infinite backlog).
    pub mix: ModelMix,
    /// Main-job iterations to simulate.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Coefficient of variation of the multiplicative timing jitter
    /// applied to bubble windows and fill partitions.
    pub jitter_cv: f64,
    /// Size of each backlog job in GPU-hours.
    pub backlog_job_gpu_hours: f64,
    /// Draw backlog jobs by weighted round-robin instead of random
    /// sampling. Used by the simulator-validation experiment (Fig. 6) so
    /// the physical run realizes the mix weights exactly rather than up
    /// to sampling noise.
    pub deterministic_mix: bool,
    /// Failure injection: coefficient of variation of the *actual* free
    /// memory relative to the profiled value (0 disables). When a
    /// partition's memory request exceeds the jittered free memory, the
    /// allocation hits the per-process cap: the fill attempt dies with an
    /// OOM isolated to the Executor (§4.3) and the bubble goes idle —
    /// the main job is never affected.
    pub memory_jitter_cv: f64,
    /// Steady-state fast-forward: when the simulation provably enters a
    /// repeating iteration cycle (identical full-state signature at two
    /// iteration boundaries with no randomness consumed in between), skip
    /// whole cycles analytically instead of simulating their events.
    /// Results are bit-for-bit identical either way; this only trades
    /// wall-clock time. Default on.
    pub fast_forward: bool,
    /// Signature matches required before the first fast-forward skip
    /// (the "k consecutive identical iterations" knob). `u32::MAX` pins
    /// fast-forward off even when `fast_forward` is true — the degenerate
    /// k=∞ setting used by regression tests.
    pub steady_confirm: u32,
}

impl PhysicalSimConfig {
    /// Defaults matching the paper's physical experiments: the 5B main
    /// job, trace mix, 8% jitter.
    pub fn new(main_job: MainJobSpec) -> Self {
        PhysicalSimConfig {
            main_job,
            executor: ExecutorConfig::default(),
            mix: ModelMix::paper_mix(),
            iterations: 200,
            seed: 7,
            jitter_cv: 0.08,
            backlog_job_gpu_hours: 0.02,
            deterministic_mix: false,
            memory_jitter_cv: 0.0,
            fast_forward: true,
            steady_confirm: 1,
        }
    }

    /// Sets the fill fraction (Fig. 5 sweep).
    pub fn with_fill_fraction(mut self, f: f64) -> Self {
        if f == 0.0 {
            self.executor.fill_fraction = 0.0; // sentinel: no filling
        } else {
            self.executor = self.executor.with_fill_fraction(f);
        }
        self
    }

    /// Sets the model mix (Fig. 6 sweep).
    pub fn with_mix(mut self, mix: ModelMix) -> Self {
        self.mix = mix;
        self
    }
}

/// Fine-grained simulation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalSimResult {
    /// Iterations simulated.
    pub iterations: usize,
    /// Undisturbed iteration period.
    pub nominal_period: SimDuration,
    /// Mean iteration period including fill-induced stalls.
    pub mean_period: SimDuration,
    /// Main-job slowdown caused by filling: `(mean − nominal)/nominal`.
    pub main_slowdown: f64,
    /// Fill FLOPs executed.
    pub fill_flops: f64,
    /// Fill TFLOPS per GPU over the (stretched) run.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU (slowdown-adjusted).
    pub main_tflops_per_gpu: f64,
    /// Fill jobs completed.
    pub jobs_completed: usize,
    /// Fill-job OOMs isolated by the memory cap (only non-zero under
    /// memory-jitter failure injection).
    pub isolated_ooms: u64,
    /// Iterations skipped analytically by steady-state fast-forward
    /// (zero when the run never reached a provable cycle). Skipped
    /// iterations are counted in `iterations` as usual — this only
    /// reports how many of them cost O(1) instead of events.
    pub iterations_fast_forwarded: u64,
}

impl PhysicalSimResult {
    /// Aggregate TFLOPS per GPU.
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }
}

/// The fine-grained backend: the pipeline-filling engine run as a
/// one-job fleet that cannot fail, reporting its pipeline's own numbers.
/// See the module docs for the event flow.
pub type PhysicalBackend = FillBackend<PhysicalSimResult>;

impl PhysicalBackend {
    /// Builds the backend (runs the engine once to extract bubbles).
    pub fn new(cfg: PhysicalSimConfig) -> Self {
        FillBackend::build(FleetSimConfig::from_physical(&cfg), BackendKind::Physical)
    }

    /// Runs a configuration to completion on the shared event kernel.
    pub fn simulate(cfg: PhysicalSimConfig) -> PhysicalSimResult {
        BackendDriver::new(Self::new(cfg)).run().1.into_result()
    }

    /// The detailed result. Only valid after the driver has run.
    ///
    /// # Panics
    ///
    /// Panics if the backend has not been drained yet.
    pub fn into_result(self) -> PhysicalSimResult {
        let fleet = self.into_report();
        let job = &fleet.jobs[0];
        PhysicalSimResult {
            iterations: job.iterations,
            nominal_period: job.nominal_period,
            mean_period: job.mean_period,
            main_slowdown: job.main_slowdown,
            fill_flops: job.fill_flops,
            recovered_tflops_per_gpu: job.recovered_tflops_per_gpu,
            main_tflops_per_gpu: job.main_tflops_per_gpu,
            jobs_completed: job.fill_jobs_completed,
            isolated_ooms: job.isolated_ooms,
            iterations_fast_forwarded: fleet.iterations_fast_forwarded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_model_zoo::ModelId;
    use pipefill_pipeline::ScheduleKind;

    fn config(fill: f64) -> PhysicalSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main).with_fill_fraction(fill);
        cfg.iterations = 120;
        cfg
    }

    #[test]
    fn no_fill_baseline_has_zero_overhead() {
        let r = PhysicalBackend::simulate(config(0.0));
        assert_eq!(r.main_slowdown, 0.0);
        assert_eq!(r.recovered_tflops_per_gpu, 0.0);
        assert_eq!(r.jobs_completed, 0);
    }

    #[test]
    fn default_fill_fraction_keeps_overhead_under_two_percent() {
        // Fig. 5's headline: <2% slowdown at the 68% default.
        let r = PhysicalBackend::simulate(config(0.68));
        assert!(r.main_slowdown < 0.02, "slowdown {}", r.main_slowdown);
        assert!(
            r.recovered_tflops_per_gpu > 2.0,
            "recovered {}",
            r.recovered_tflops_per_gpu
        );
        assert!(r.jobs_completed > 0);
    }

    #[test]
    fn aggressive_filling_hurts_the_main_job() {
        let moderate = PhysicalBackend::simulate(config(0.68));
        let aggressive = PhysicalBackend::simulate(config(0.95));
        assert!(
            aggressive.main_slowdown > moderate.main_slowdown * 2.0,
            "moderate {} aggressive {}",
            moderate.main_slowdown,
            aggressive.main_slowdown
        );
        assert!(aggressive.main_slowdown > 0.02);
        // But total utilization keeps rising (the Fig. 5 observation).
        assert!(aggressive.recovered_tflops_per_gpu > moderate.recovered_tflops_per_gpu);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PhysicalBackend::simulate(config(0.68));
        let b = PhysicalBackend::simulate(config(0.68));
        assert_eq!(a, b);
    }

    #[test]
    fn recovered_scales_with_fill_fraction() {
        let lo = PhysicalBackend::simulate(config(0.3));
        let hi = PhysicalBackend::simulate(config(0.68));
        assert!(
            hi.recovered_tflops_per_gpu > lo.recovered_tflops_per_gpu * 1.4,
            "lo {} hi {}",
            lo.recovered_tflops_per_gpu,
            hi.recovered_tflops_per_gpu
        );
    }

    #[test]
    fn memory_jitter_causes_isolated_ooms_not_slowdown() {
        // §4.3: a fill job exceeding its cap OOMs in isolation — the
        // main job never notices.
        let mut cfg = config(0.68);
        cfg.memory_jitter_cv = 0.4;
        let with_faults = PhysicalBackend::simulate(cfg);
        let clean = PhysicalBackend::simulate(config(0.68));
        assert!(with_faults.isolated_ooms > 0, "no OOMs injected");
        assert_eq!(clean.isolated_ooms, 0);
        // Lost bubbles reduce recovered work but never the main job.
        assert!(with_faults.recovered_tflops_per_gpu < clean.recovered_tflops_per_gpu);
        assert!(
            with_faults.main_slowdown < 0.02,
            "isolation violated: slowdown {}",
            with_faults.main_slowdown
        );
    }

    #[test]
    fn overhead_is_mix_independent_at_default_fill() {
        // Fig. 6: "the overhead to the main job does not vary
        // significantly" across fill-job types.
        let xlm = PhysicalBackend::simulate(
            config(0.68).with_mix(ModelMix::single(ModelId::XlmRobertaXl)),
        );
        let eff = PhysicalBackend::simulate(
            config(0.68).with_mix(ModelMix::single(ModelId::EfficientNet)),
        );
        assert!(xlm.main_slowdown < 0.02, "xlm {}", xlm.main_slowdown);
        assert!(eff.main_slowdown < 0.02, "eff {}", eff.main_slowdown);
    }
}
