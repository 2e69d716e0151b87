//! The Alibaba-style arrival/size generator and the paper's filtering
//! pipeline.

use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_sim_core::rng::DeterministicRng;
use pipefill_sim_core::{SimDuration, SimTime};

use crate::mix::ModelMix;

/// One fill job emitted by the trace (before GPU-hours → samples
/// conversion, which needs a device profile).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Sequential id.
    pub id: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Model to run.
    pub model: ModelId,
    /// Training or batch inference.
    pub kind: JobKind,
    /// Size in GPU-hours (GPU quantity × service time, §5.3).
    pub gpu_hours: f64,
    /// Optional deadline (a slack multiple of the job's exclusive
    /// duration past its arrival), present on a configurable fraction of
    /// jobs.
    pub deadline: Option<SimTime>,
}

/// Retention statistics of the filtering pipeline, for validating against
/// the paper's published percentages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceStats {
    /// Jobs drawn before any filtering.
    pub raw: usize,
    /// Jobs surviving the latency-sensitive QoS filter.
    pub after_qos: usize,
    /// Jobs surviving the GPU-hours cap (the final trace).
    pub kept: usize,
}

impl TraceStats {
    /// Fraction of QoS-surviving jobs kept by the size cap — the paper
    /// reports 55% at 9 GPU-minutes and 81.6% at 1 GPU-hour.
    pub fn size_retention(&self) -> f64 {
        if self.after_qos == 0 {
            0.0
        } else {
            self.kept as f64 / self.after_qos as f64
        }
    }
}

/// Trace-generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// RNG seed (same seed ⇒ identical trace).
    pub seed: u64,
    /// Mean job inter-arrival time of the *kept* stream. Load sweeps
    /// (Fig. 9) scale this.
    pub mean_interarrival: SimDuration,
    /// Trace horizon: jobs arrive in `[0, horizon)`.
    pub horizon: SimDuration,
    /// GPU-hours cap: 0.15 (9 GPU-minutes) for physical-cluster-scale
    /// runs, 1.0 for simulator runs (§5.3).
    pub max_gpu_hours: f64,
    /// Model distribution.
    pub mix: ModelMix,
    /// Fraction of raw jobs tagged latency-sensitive and filtered out
    /// (the PAI trace is dominated by short latency-bound inference; we
    /// default to 0.45).
    pub latency_sensitive_fraction: f64,
    /// Fraction of kept jobs that carry a deadline.
    pub deadline_fraction: f64,
    /// Deadline slack: deadline = arrival + slack × (GPU-hours as
    /// wall-clock on one exclusive GPU).
    pub deadline_slack: f64,
    /// Lognormal μ of raw GPU-hours (natural-log scale).
    pub size_mu: f64,
    /// Lognormal σ of raw GPU-hours.
    pub size_sigma: f64,
}

impl TraceConfig {
    /// Simulator-scale defaults (§5.3): 1 GPU-hour cap. The lognormal
    /// parameters are fitted so the cap retains ≈81.6% of jobs and the
    /// 9-GPU-minute cap retains ≈55% (see crate docs).
    pub fn simulator(seed: u64) -> Self {
        TraceConfig {
            seed,
            mean_interarrival: SimDuration::from_secs(60),
            horizon: SimDuration::from_secs(24 * 3600),
            max_gpu_hours: 1.0,
            mix: ModelMix::paper_mix(),
            latency_sensitive_fraction: 0.45,
            deadline_fraction: 0.2,
            deadline_slack: 8.0,
            size_mu: -2.205,
            size_sigma: 2.449,
        }
    }

    /// Physical-cluster-scale defaults (§5.3): 9 GPU-minute cap.
    pub fn physical(seed: u64) -> Self {
        TraceConfig {
            max_gpu_hours: 0.15,
            mean_interarrival: SimDuration::from_secs(30),
            horizon: SimDuration::from_secs(4 * 3600),
            ..TraceConfig::simulator(seed)
        }
    }

    /// Scales the arrival rate by `load` (>1 ⇒ more jobs per unit time;
    /// the Fig. 9 load axis).
    ///
    /// # Panics
    ///
    /// Panics if `load` is not positive.
    pub fn with_load(mut self, load: f64) -> Self {
        assert!(load > 0.0 && load.is_finite(), "load must be positive");
        self.mean_interarrival = self.mean_interarrival.mul_f64(1.0 / load);
        self
    }

    /// Replaces the model mix.
    pub fn with_mix(mut self, mix: ModelMix) -> Self {
        self.mix = mix;
        self
    }
}

/// Generates filtered fill-job traces.
#[derive(Debug)]
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator.
    pub fn new(config: TraceConfig) -> Self {
        TraceGenerator { config }
    }

    /// Draws the trace and the filtering statistics.
    pub fn generate(&self) -> (Vec<TraceJob>, TraceStats) {
        let cfg = &self.config;
        let mut rng = DeterministicRng::seed_from(cfg.seed);
        let mut stats = TraceStats::default();
        let mut jobs = Vec::new();
        let mut clock = SimTime::ZERO;
        let horizon = SimTime::ZERO + cfg.horizon;
        let rate = 1.0 / cfg.mean_interarrival.as_secs_f64();
        let mut id = 0u64;

        loop {
            clock += SimDuration::from_secs_f64(rng.exponential(rate));
            if clock >= horizon {
                break;
            }
            stats.raw += 1;
            // QoS filter: latency-sensitive jobs cannot run in bubbles.
            if rng.bernoulli(cfg.latency_sensitive_fraction) {
                continue;
            }
            stats.after_qos += 1;
            // Size filter.
            let gpu_hours = rng.lognormal(cfg.size_mu, cfg.size_sigma);
            if gpu_hours > cfg.max_gpu_hours {
                continue;
            }
            stats.kept += 1;
            let model = cfg.mix.sample_model(&mut rng);
            let kind = cfg.mix.sample_kind(model, &mut rng);
            let deadline = if rng.bernoulli(cfg.deadline_fraction) {
                let exclusive = SimDuration::from_secs_f64(gpu_hours * 3600.0);
                Some(clock + exclusive.mul_f64(cfg.deadline_slack))
            } else {
                None
            };
            jobs.push(TraceJob {
                id,
                arrival: clock,
                model,
                kind,
                gpu_hours,
                deadline,
            });
            id += 1;
        }
        (jobs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let (a, _) = TraceGenerator::new(TraceConfig::simulator(42)).generate();
        let (b, _) = TraceGenerator::new(TraceConfig::simulator(42)).generate();
        let (c, _) = TraceGenerator::new(TraceConfig::simulator(43)).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_sorted_and_within_horizon() {
        let cfg = TraceConfig::simulator(7);
        let horizon = SimTime::ZERO + cfg.horizon;
        let (jobs, _) = TraceGenerator::new(cfg).generate();
        assert!(jobs.len() > 100, "got only {} jobs", jobs.len());
        for w in jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert!(jobs.iter().all(|j| j.arrival < horizon));
    }

    #[test]
    fn size_cap_retention_matches_paper() {
        // §5.3: ≤1 GPU-hour keeps 81.6% of jobs; ≤9 GPU-minutes keeps 55%.
        let (_, sim_stats) = TraceGenerator::new(TraceConfig::simulator(1)).generate();
        let sim_kept = sim_stats.size_retention();
        assert!(
            (sim_kept - 0.816).abs() < 0.03,
            "1 GPU-hour cap keeps {sim_kept}"
        );
        let mut phys_cfg = TraceConfig::physical(1);
        phys_cfg.horizon = SimDuration::from_secs(24 * 3600);
        let (_, phys_stats) = TraceGenerator::new(phys_cfg).generate();
        let phys_kept = phys_stats.size_retention();
        assert!(
            (phys_kept - 0.55).abs() < 0.03,
            "9 GPU-minute cap keeps {phys_kept}"
        );
    }

    #[test]
    fn all_jobs_respect_size_cap() {
        let cfg = TraceConfig::physical(3);
        let cap = cfg.max_gpu_hours;
        let (jobs, _) = TraceGenerator::new(cfg).generate();
        assert!(jobs.iter().all(|j| j.gpu_hours <= cap));
        assert!(jobs.iter().all(|j| j.gpu_hours > 0.0));
    }

    #[test]
    fn load_scaling_changes_job_count_proportionally() {
        let base = TraceGenerator::new(TraceConfig::simulator(5))
            .generate()
            .0
            .len();
        let double = TraceGenerator::new(TraceConfig::simulator(5).with_load(2.0))
            .generate()
            .0
            .len();
        let ratio = double as f64 / base as f64;
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    fn deadline_fraction_is_respected() {
        let cfg = TraceConfig::simulator(9);
        let expect = cfg.deadline_fraction;
        let (jobs, _) = TraceGenerator::new(cfg).generate();
        let with = jobs.iter().filter(|j| j.deadline.is_some()).count();
        let frac = with as f64 / jobs.len() as f64;
        assert!((frac - expect).abs() < 0.04, "deadline fraction {frac}");
        for j in &jobs {
            if let Some(d) = j.deadline {
                assert!(d > j.arrival, "deadline before arrival");
            }
        }
    }

    #[test]
    fn kind_rule_enforced_in_trace() {
        let (jobs, _) = TraceGenerator::new(TraceConfig::simulator(10)).generate();
        for j in &jobs {
            if !j.model.trainable_as_fill_job() {
                assert_eq!(j.kind, JobKind::BatchInference, "{:?}", j.model);
            }
        }
        // Training jobs do exist on small models.
        assert!(jobs.iter().any(|j| j.kind == JobKind::Training));
    }

    #[test]
    fn single_model_mix_produces_only_that_model() {
        let cfg = TraceConfig::simulator(11).with_mix(ModelMix::single(ModelId::BertBase));
        let (jobs, _) = TraceGenerator::new(cfg).generate();
        assert!(jobs.iter().all(|j| j.model == ModelId::BertBase));
    }
}
