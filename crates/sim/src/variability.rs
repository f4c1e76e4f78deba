//! Monte-Carlo throughput variability under hardware noise.
//!
//! The paper attributes part of Figure 5's run-to-run spread to "system or
//! hardware level variability" and cites the tail-at-scale literature. This
//! module quantifies that component for GPU training: it samples fleets
//! whose GPUs are independently derated (thermal throttling, faulty DIMMs,
//! noisy neighbours), simulates each fleet, and reports the throughput
//! distribution — showing how the *slowest* worker, not the average one,
//! sets data-parallel performance.

use crate::des::{NoPerturbation, SimScratch};
use crate::gpu::GpuTrainingSim;
use crate::simulator::Simulator;
use crate::SimError;
use recsim_data::dist::SplitMix64;
use recsim_data::schema::ModelConfig;
use recsim_hw::Platform;
use recsim_metrics::Summary;
use recsim_placement::PlacementStrategy;
use recsim_verify::{Code, Diagnostic};

/// The hardware-noise model: each GPU independently runs at a derate factor
/// drawn from `1 - |N(0, sigma)|`, floored at `min_factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareNoise {
    /// Standard deviation of per-GPU slowdown (0.05 = typically a few
    /// percent, occasionally worse).
    pub sigma: f64,
    /// Worst-case derate floor.
    pub min_factor: f64,
}

impl Default for HardwareNoise {
    fn default() -> Self {
        Self {
            sigma: 0.05,
            min_factor: 0.5,
        }
    }
}

impl HardwareNoise {
    /// Samples a noisy copy of `platform` (each GPU independently derated).
    pub fn sample_platform(&self, platform: &Platform, rng: &mut SplitMix64) -> Platform {
        let mut noisy = platform.clone();
        for g in 0..platform.gpus().len() {
            // |N(0, sigma)| slowdown.
            let factor = (1.0 - (rng.normal() * self.sigma).abs()).clamp(self.min_factor, 1.0);
            if factor < 1.0 {
                noisy = noisy.with_straggler_gpu(g, factor);
            }
        }
        noisy
    }
}

/// The result of a variability study.
#[derive(Debug, Clone, PartialEq)]
pub struct VariabilityStudy {
    throughputs: Vec<f64>,
    nominal: f64,
}

impl VariabilityStudy {
    /// Runs `runs` noisy-fleet simulations of the given setup.
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] (RV029) when `runs == 0` or the model/platform
    /// fails validation; [`SimError::Placement`] when the placement does
    /// not fit the platform (noise never changes capacity, so every noisy
    /// fleet fits whenever the nominal one does).
    pub fn run(
        config: &ModelConfig,
        platform: &Platform,
        strategy: PlacementStrategy,
        batch: u64,
        noise: HardwareNoise,
        runs: usize,
        seed: u64,
    ) -> Result<Self, SimError> {
        if runs == 0 {
            return Err(SimError::Invalid(
                Diagnostic::error(
                    Code::InvalidClusterConfig,
                    "VariabilityStudy.runs",
                    "need at least one run",
                )
                .into(),
            ));
        }
        let mut rng = SplitMix64::keyed(seed, "sim/variability");
        // One scratch for the whole Monte-Carlo loop: every noisy fleet
        // reuses the engine buffers sized by the first simulation.
        let mut scratch = SimScratch::new();
        let nominal = GpuTrainingSim::new(config, platform, strategy, batch)?
            .run_with(&mut scratch, &NoPerturbation)
            .throughput();
        let mut throughputs = Vec::with_capacity(runs);
        for _ in 0..runs {
            let noisy = noise.sample_platform(platform, &mut rng);
            throughputs.push(
                GpuTrainingSim::new(config, &noisy, strategy, batch)?
                    .run_with(&mut scratch, &NoPerturbation)
                    .throughput(),
            );
        }
        Ok(Self {
            throughputs,
            nominal,
        })
    }

    /// Throughput of the noise-free fleet.
    pub fn nominal_throughput(&self) -> f64 {
        self.nominal
    }

    /// The sampled throughputs.
    pub fn samples(&self) -> &[f64] {
        &self.throughputs
    }

    /// Distribution summary of the sampled throughputs.
    pub fn summary(&self) -> Summary {
        Summary::from_samples(self.throughputs.clone())
    }

    /// Mean fraction of nominal throughput lost to hardware noise.
    pub fn mean_loss(&self) -> f64 {
        let mean = self.throughputs.iter().sum::<f64>() / self.throughputs.len() as f64;
        1.0 - mean / self.nominal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsim_hw::units::Bytes;
    use recsim_placement::PartitionScheme;

    fn setup() -> (ModelConfig, Platform, PlacementStrategy) {
        (
            ModelConfig::test_suite(64, 8, 100_000, &[256, 256]),
            Platform::big_basin(Bytes::from_gib(32)),
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
        )
    }

    #[test]
    fn noise_only_slows_fleets() {
        let (cfg, platform, strategy) = setup();
        let study = VariabilityStudy::run(
            &cfg,
            &platform,
            strategy,
            800,
            HardwareNoise::default(),
            12,
            7,
        )
        .expect("valid study");
        for &t in study.samples() {
            assert!(
                t <= study.nominal_throughput() + 1e-6,
                "noise cannot speed a fleet up"
            );
            assert!(t > 0.0);
        }
        assert!(study.mean_loss() >= 0.0);
    }

    #[test]
    fn stronger_noise_loses_more_throughput() {
        let (cfg, platform, strategy) = setup();
        let mild = VariabilityStudy::run(
            &cfg,
            &platform,
            strategy,
            800,
            HardwareNoise {
                sigma: 0.02,
                min_factor: 0.5,
            },
            16,
            11,
        )
        .expect("valid study");
        let harsh = VariabilityStudy::run(
            &cfg,
            &platform,
            strategy,
            800,
            HardwareNoise {
                sigma: 0.20,
                min_factor: 0.5,
            },
            16,
            11,
        )
        .expect("valid study");
        assert!(
            harsh.mean_loss() > mild.mean_loss(),
            "sigma 0.20 loses {:.3} vs sigma 0.02 {:.3}",
            harsh.mean_loss(),
            mild.mean_loss()
        );
    }

    #[test]
    fn studies_are_reproducible() {
        let (cfg, platform, strategy) = setup();
        let a = VariabilityStudy::run(
            &cfg,
            &platform,
            strategy,
            512,
            HardwareNoise::default(),
            6,
            3,
        )
        .expect("valid study");
        let b = VariabilityStudy::run(
            &cfg,
            &platform,
            strategy,
            512,
            HardwareNoise::default(),
            6,
            3,
        )
        .expect("valid study");
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_platforms_never_exceed_nominal_rate() {
        let (_, platform, _) = setup();
        let noise = HardwareNoise::default();
        let mut rng = SplitMix64::new(1);
        for _ in 0..20 {
            let noisy = noise.sample_platform(&platform, &mut rng);
            for (a, b) in noisy.gpus().iter().zip(platform.gpus()) {
                assert!(
                    a.sustained_flop_rate().as_tflops()
                        <= b.sustained_flop_rate().as_tflops() + 1e-9
                );
                assert!(
                    a.sustained_flop_rate().as_tflops()
                        >= b.sustained_flop_rate().as_tflops() * noise.min_factor - 1e-9
                );
            }
        }
    }
}
