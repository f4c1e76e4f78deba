//! Bridging fault schedules into the DES: a [`SlowdownField`] turns the
//! time-averaged degradation of a [`FaultSchedule`]
//! into a [`Perturbation`] the engine applies per task.
//!
//! The DES simulates one steady-state iteration (milliseconds); the fault
//! horizon spans hours. Rather than replaying episodes inside the
//! iteration, the field stretches every task on a degraded resource by the
//! reciprocal of that resource's time-averaged effective rate — the
//! mean-field view of "this GPU spent 20% of the day at 60% speed".
//! Stretch factors are fixed per resource name before simulation, so a
//! perturbed run is exactly as deterministic as an unperturbed one.

use crate::FaultSchedule;
use recsim_hw::units::Duration;
use recsim_sim::{Perturbation, TaskCategory};

/// A per-resource duration stretch derived from a fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownField {
    /// `(resource name, effective rate in (0, 1])`, sorted by name.
    rates: Vec<(String, f64)>,
}

impl SlowdownField {
    /// Builds the field from a schedule's time-averaged slowdowns.
    pub fn from_schedule(schedule: &FaultSchedule) -> SlowdownField {
        SlowdownField {
            rates: schedule.slowdown_factors(),
        }
    }

    /// A field that perturbs nothing (the healthy baseline).
    pub fn healthy() -> SlowdownField {
        SlowdownField { rates: Vec::new() }
    }

    /// The effective rate of a resource: `1.0` unless degraded.
    pub fn rate_of(&self, resource: &str) -> f64 {
        self.rates
            .iter()
            .find(|(name, _)| name == resource)
            .map_or(1.0, |(_, rate)| *rate)
    }

    /// Whether the field perturbs anything at all.
    pub fn is_healthy(&self) -> bool {
        self.rates.is_empty()
    }
}

impl Perturbation for SlowdownField {
    fn perturbed_duration(
        &self,
        resource: Option<&str>,
        _category: TaskCategory,
        base: Duration,
    ) -> Duration {
        match resource {
            Some(name) => {
                let rate = self.rate_of(name);
                if rate >= 1.0 {
                    base
                } else {
                    // rate is validated > 0 upstream (RV032 factor range).
                    base * (1.0 / rate)
                }
            }
            None => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultConfig;

    #[test]
    fn healthy_field_is_the_identity() {
        let field = SlowdownField::healthy();
        let base = Duration::from_millis(3.0);
        assert_eq!(
            field.perturbed_duration(Some("gpu0"), TaskCategory::MlpCompute, base),
            base
        );
        assert_eq!(
            field.perturbed_duration(None, TaskCategory::Framework, base),
            base
        );
        assert!(field.is_healthy());
    }

    #[test]
    fn degraded_resources_stretch_and_others_do_not() {
        let schedule = FaultSchedule::generate(&FaultConfig::default(), 8).expect("valid");
        let field = SlowdownField::from_schedule(&schedule);
        assert!(!field.is_healthy(), "default config degrades something");
        let base = Duration::from_millis(2.0);
        let mut stretched_any = false;
        for (resource, rate) in schedule.slowdown_factors() {
            let out = field.perturbed_duration(Some(&resource), TaskCategory::MlpCompute, base);
            assert!(
                (out.as_secs() - base.as_secs() / rate).abs() < 1e-12,
                "{resource}: {} vs {}",
                out.as_secs(),
                base.as_secs() / rate
            );
            stretched_any |= out > base;
        }
        assert!(stretched_any);
        // A resource no fault ever touched keeps its nominal duration.
        assert_eq!(
            field.perturbed_duration(Some("host_cpu"), TaskCategory::HostStaging, base),
            base
        );
    }
}
