//! Temporal worlds: Table 3 at arbitrary scale.
//!
//! Object values evolve over a discrete horizon; sources observe the
//! evolution with behaviour-specific delays. Independents re-publish the
//! truth (with optional error) some ticks after each change — "slow
//! providers"; copiers re-publish whatever their original published, `lag`
//! ticks later — "lazy copiers" (Example 3.2). The generator returns the
//! observable [`History`] plus the planted [`TemporalTruth`] and pair list.

use rand::Rng as _;
use serde::{Deserialize, Serialize};

use sailing_model::{History, ObjectId, SailingError, SourceId, TemporalTruth, ValueId};

/// Behaviour of a temporal source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TemporalBehavior {
    /// Publishes each truth change after a delay in
    /// `[min_delay, max_delay]`, wrongly (a random false value) with
    /// probability `1 − accuracy`, and misses a change entirely with
    /// probability `miss_rate`.
    Independent {
        /// Probability a published update carries the correct new value.
        accuracy: f64,
        /// Smallest publication delay (ticks).
        min_delay: i64,
        /// Largest publication delay (ticks).
        max_delay: i64,
        /// Probability of skipping a change altogether (lazy updater).
        miss_rate: f64,
    },
    /// Re-publishes its original's updates `lag` ticks later, each with
    /// probability `copy_rate` (a lazy copier skips some updates).
    Copier {
        /// Index of the copied source.
        original: usize,
        /// Fixed copying lag in ticks.
        lag: i64,
        /// Probability each original update is copied.
        copy_rate: f64,
    },
}

/// Configuration of a temporal world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalWorldConfig {
    /// Number of evolving objects.
    pub num_objects: usize,
    /// Discrete time horizon `0..horizon`.
    pub horizon: i64,
    /// Expected number of value changes per object over the horizon
    /// (including the initial value at t = 0).
    pub changes_per_object: f64,
    /// Distinct values per object (1 current true + alternatives).
    pub domain_size: usize,
    /// Source behaviours; copiers must reference earlier indices.
    pub sources: Vec<TemporalBehavior>,
    /// RNG seed.
    pub seed: u64,
}

impl TemporalWorldConfig {
    /// Checks structural validity.
    pub fn validate(&self) -> Result<(), SailingError> {
        let err = |reason: String| SailingError::config("TemporalWorldConfig", reason);
        if self.num_objects == 0 || self.horizon <= 0 || self.domain_size < 2 {
            return Err(err("degenerate world dimensions".into()));
        }
        if self.changes_per_object < 1.0 {
            return Err(err("changes_per_object must be at least 1".into()));
        }
        for (i, s) in self.sources.iter().enumerate() {
            match s {
                TemporalBehavior::Independent {
                    accuracy,
                    min_delay,
                    max_delay,
                    miss_rate,
                } => {
                    if !(0.0..=1.0).contains(accuracy) || !(0.0..=1.0).contains(miss_rate) {
                        return Err(err(format!("source {i}: probability out of range")));
                    }
                    if min_delay < &0 || max_delay < min_delay {
                        return Err(err(format!("source {i}: bad delay range")));
                    }
                }
                TemporalBehavior::Copier {
                    original,
                    lag,
                    copy_rate,
                } => {
                    if *original >= i {
                        return Err(err(format!(
                            "source {i}: copier must reference earlier source"
                        )));
                    }
                    if *lag < 0 || !(0.0..=1.0).contains(copy_rate) {
                        return Err(err(format!("source {i}: bad lag/copy_rate")));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A generated temporal world.
#[derive(Debug, Clone)]
pub struct TemporalWorld {
    /// The observable update traces.
    pub history: History,
    /// The planted truth evolution.
    pub truth: TemporalTruth,
    /// The planted `(copier, original)` pairs.
    pub planted_pairs: Vec<(SourceId, SourceId)>,
    /// The behaviours used.
    pub behaviors: Vec<TemporalBehavior>,
}

impl TemporalWorld {
    /// Generates the world.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub fn generate(config: &TemporalWorldConfig) -> Self {
        config.validate().expect("invalid temporal world config");
        let mut rng = crate::rng(config.seed);
        let value_of = |o: usize, k: usize| ValueId::from_index(o * config.domain_size + k);

        // Truth evolution: each object starts at value 0 and changes at
        // uniformly drawn times to the next value index (cyclic).
        let mut truth = TemporalTruth::new();
        let mut truth_changes: Vec<Vec<(i64, ValueId)>> = Vec::with_capacity(config.num_objects);
        for o in 0..config.num_objects {
            let extra = (config.changes_per_object - 1.0).max(0.0);
            let n_extra = extra.floor() as usize + usize::from(rng.gen::<f64>() < extra.fract());
            let mut times: Vec<i64> = (0..n_extra)
                .map(|_| rng.gen_range(1..config.horizon))
                .collect();
            times.sort_unstable();
            times.dedup();
            let mut changes = vec![(0i64, value_of(o, 0))];
            for (j, &t) in times.iter().enumerate() {
                changes.push((t, value_of(o, (j + 1) % config.domain_size)));
            }
            for &(t, v) in &changes {
                truth.record(ObjectId::from_index(o), t, v);
            }
            truth_changes.push(changes);
        }

        let num_sources = config.sources.len();
        let mut history = History::new(num_sources, config.num_objects);
        let mut planted_pairs = Vec::new();

        // Materialise independents first (copiers replay their traces).
        for (i, behavior) in config.sources.iter().enumerate() {
            match behavior {
                TemporalBehavior::Independent {
                    accuracy,
                    min_delay,
                    max_delay,
                    miss_rate,
                } => {
                    for (o, changes) in truth_changes.iter().enumerate() {
                        for &(t, v) in changes {
                            if rng.gen::<f64>() < *miss_rate {
                                continue;
                            }
                            let delay = if max_delay > min_delay {
                                rng.gen_range(*min_delay..=*max_delay)
                            } else {
                                *min_delay
                            };
                            let at = (t + delay).min(config.horizon);
                            let published = if rng.gen::<f64>() < *accuracy {
                                v
                            } else {
                                value_of(o, rng.gen_range(1..config.domain_size))
                            };
                            history.record(
                                SourceId::from_index(i),
                                ObjectId::from_index(o),
                                at,
                                published,
                            );
                        }
                    }
                }
                TemporalBehavior::Copier {
                    original,
                    lag,
                    copy_rate,
                } => {
                    planted_pairs.push((SourceId::from_index(i), SourceId::from_index(*original)));
                    let source_traces: Vec<(ObjectId, Vec<(i64, ValueId)>)> = history
                        .traces_of(SourceId::from_index(*original))
                        .into_iter()
                        .map(|(o, tr)| (o, tr.updates().to_vec()))
                        .collect();
                    for (o, updates) in source_traces {
                        for (t, v) in updates {
                            if rng.gen::<f64>() >= *copy_rate {
                                continue;
                            }
                            let at = (t + lag).min(config.horizon + lag);
                            history.record(SourceId::from_index(i), o, at, v);
                        }
                    }
                }
            }
        }

        Self {
            history,
            truth,
            planted_pairs,
            behaviors: config.sources.clone(),
        }
    }

    /// Unordered precision/recall of a detected pair list against the
    /// planted pairs.
    pub fn pair_detection_quality(&self, detected: &[(SourceId, SourceId)]) -> (f64, f64) {
        let canon = |&(a, b): &(SourceId, SourceId)| if a < b { (a, b) } else { (b, a) };
        let planted: std::collections::HashSet<_> = self.planted_pairs.iter().map(canon).collect();
        let detected: std::collections::HashSet<_> = detected.iter().map(canon).collect();
        let hits = detected.intersection(&planted).count();
        let precision = if detected.is_empty() {
            1.0
        } else {
            hits as f64 / detected.len() as f64
        };
        let recall = if planted.is_empty() {
            1.0
        } else {
            hits as f64 / planted.len() as f64
        };
        (precision, recall)
    }
}

/// A convenient three-behaviour world mirroring Table 3's cast: accurate
/// up-to-date independents, slow independents, and lazy copiers.
pub fn table3_style(
    num_objects: usize,
    lag: i64,
    seed: u64,
) -> (TemporalWorldConfig, &'static [&'static str]) {
    let config = TemporalWorldConfig {
        num_objects,
        horizon: 50,
        changes_per_object: 3.0,
        domain_size: 6,
        sources: vec![
            TemporalBehavior::Independent {
                accuracy: 0.98,
                min_delay: 0,
                max_delay: 2,
                miss_rate: 0.0,
            },
            // The slow independent's delay range *overlaps* the up-to-date
            // source's: per Example 3.2, "many of its updates are before the
            // corresponding ones" — a copier is never ahead of its original,
            // a slow independent sometimes is, and that asymmetry is what
            // keeps the two apart.
            TemporalBehavior::Independent {
                accuracy: 0.95,
                min_delay: 0,
                max_delay: 5,
                miss_rate: 0.2,
            },
            TemporalBehavior::Copier {
                original: 0,
                lag,
                copy_rate: 0.8,
            },
        ],
        seed,
    };
    (config, &["up-to-date", "slow-independent", "lazy-copier"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_core::params::TemporalParams;
    use sailing_core::temporal::detect_all;

    #[test]
    fn generation_is_deterministic() {
        let (config, _) = table3_style(50, 2, 9);
        let w1 = TemporalWorld::generate(&config);
        let w2 = TemporalWorld::generate(&config);
        let ups1: Vec<_> = w1.history.all_updates().collect();
        let ups2: Vec<_> = w2.history.all_updates().collect();
        assert_eq!(ups1.len(), ups2.len());
    }

    #[test]
    fn truth_evolves() {
        let (config, _) = table3_style(30, 1, 3);
        let w = TemporalWorld::generate(&config);
        assert_eq!(w.truth.len(), 30);
        let multi = (0..30)
            .filter(|&o| w.truth.trace(ObjectId::from_index(o)).unwrap().len() > 1)
            .count();
        assert!(multi > 15, "most objects should change value: {multi}");
    }

    #[test]
    fn copier_trails_original_by_lag() {
        let (config, _) = table3_style(40, 3, 5);
        let w = TemporalWorld::generate(&config);
        let copier = SourceId(2);
        let original = SourceId(0);
        for (o, trace) in w.history.traces_of(copier) {
            for &(t, v) in trace.updates() {
                let t_orig = w
                    .history
                    .trace(original, o)
                    .and_then(|tr| tr.first_asserted(v));
                assert_eq!(t_orig, Some(t - 3), "copied update must lag by 3");
            }
        }
    }

    #[test]
    fn lazy_copier_detected_at_scale() {
        let (config, _) = table3_style(80, 2, 21);
        let w = TemporalWorld::generate(&config);
        let params = TemporalParams {
            max_lag: 3,
            ..Default::default()
        };
        let deps = detect_all(&w.history, &params);
        let flagged: Vec<_> = deps
            .iter()
            .filter(|p| p.probability > 0.8)
            .map(|p| (p.a, p.b))
            .collect();
        let (precision, recall) = w.pair_detection_quality(&flagged);
        assert!(
            precision > 0.7 && recall > 0.9,
            "precision {precision} recall {recall}: {deps:?}"
        );
    }

    #[test]
    fn slow_independent_not_confused_with_copier() {
        let (config, _) = table3_style(80, 2, 33);
        let w = TemporalWorld::generate(&config);
        let params = TemporalParams {
            max_lag: 3,
            ..Default::default()
        };
        let deps = detect_all(&w.history, &params);
        let find = |a: u32, b: u32| {
            deps.iter()
                .find(|p| (p.a, p.b) == (SourceId(a.min(b)), SourceId(a.max(b))))
                .map(|p| p.probability)
                .unwrap_or(0.0)
        };
        // S0–S2 is the planted copier pair; S0–S1 is independent (slow).
        assert!(
            find(0, 2) > find(0, 1),
            "copier pair {} must outrank slow-independent pair {}",
            find(0, 2),
            find(0, 1)
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let (mut config, _) = table3_style(10, 1, 0);
        config.horizon = 0;
        assert!(config.validate().is_err());

        let (mut config, _) = table3_style(10, 1, 0);
        config.sources[2] = TemporalBehavior::Copier {
            original: 5,
            lag: 1,
            copy_rate: 0.5,
        };
        assert!(config.validate().is_err());

        let (mut config, _) = table3_style(10, 1, 0);
        config.sources[1] = TemporalBehavior::Independent {
            accuracy: 0.9,
            min_delay: 3,
            max_delay: 1,
            miss_rate: 0.0,
        };
        assert!(config.validate().is_err());
    }
}
