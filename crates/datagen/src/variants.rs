//! Variant worlds: snapshot worlds whose sources disagree about *formatting*
//! as much as about facts.
//!
//! Every candidate value exists in a canonical form plus a set of
//! format-variants of the same underlying truth — `"J. Smith"`-style case,
//! whitespace, hyphen, and diacritic re-spellings of text, and
//! trailing-zero / within-tolerance re-renderings of numerics (`"3.14"` vs
//! `"3.140"`). Under exact value identity the honest majority splits its
//! vote across the formattings; under a matching [`ValueEquivalence`]
//! backend the variants collapse into one equivalence class and the
//! majority re-forms. The generator interns **all canonical values first**,
//! so each class representative (the minimum member id) is the canonical
//! id and planted-truth scoring works unmodified on quotiented snapshots.
//!
//! [`ValueEquivalence`]: sailing_model::ValueEquivalence

use rand::Rng as _;
use serde::{Deserialize, Serialize};

use sailing_model::{
    ClaimStore, ClaimStoreBuilder, GroundTruth, ObjectId, SailingError, SnapshotView, Value,
    ValueId,
};

/// Configuration of a variant world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantWorldConfig {
    /// Number of data items.
    pub num_objects: usize,
    /// Number of sources (all independents covering every object).
    pub num_sources: usize,
    /// Source accuracies are spread linearly over this range.
    pub accuracy_range: (f64, f64),
    /// Probability an asserted value is re-rendered as a format-variant
    /// instead of its canonical form. `0.0` yields a *variant-free* world
    /// in which every backend's partition is the identity.
    pub variant_rate: f64,
    /// Fraction of objects whose candidate values are numeric strings;
    /// the rest are person-name text.
    pub numeric_fraction: f64,
    /// Candidate values per object (1 true + `domain_size − 1` false).
    pub domain_size: usize,
    /// Numeric variants jitter by `eps / 2`, so a
    /// [`NumericTolerance`](sailing_model::NumericTolerance) backend with
    /// this `eps` merges them with their canonical form while canonical
    /// candidates stay far apart (spaced by [`NUMERIC_SPACING`]).
    pub numeric_eps: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Gap between adjacent canonical numeric candidates; vastly larger than
/// any sensible tolerance, so tolerance chains never bridge classes.
pub const NUMERIC_SPACING: f64 = 25.0;

impl VariantWorldConfig {
    /// A *variant-free* federation world: every source renders every value
    /// canonically, so any backend's partition is the identity. This is the
    /// substrate for the private-federation story — hashed-digest matching
    /// must reproduce exact-identity analysis bit for bit.
    pub fn federation(num_objects: usize, num_sources: usize, seed: u64) -> Self {
        Self {
            num_objects,
            num_sources,
            accuracy_range: (0.55, 0.9),
            variant_rate: 0.0,
            numeric_fraction: 0.5,
            domain_size: 5,
            numeric_eps: 0.01,
            seed,
        }
    }

    /// A *messy* world where half the assertions arrive as format-variants:
    /// the regime where quotienting visibly improves decision precision.
    pub fn messy(num_objects: usize, num_sources: usize, seed: u64) -> Self {
        Self {
            variant_rate: 0.5,
            ..Self::federation(num_objects, num_sources, seed)
        }
    }

    /// Checks structural validity (ranges, counts).
    pub fn validate(&self) -> Result<(), SailingError> {
        let err = |reason: String| SailingError::config("VariantWorldConfig", reason);
        if self.num_objects == 0 {
            return Err(err("num_objects must be positive".into()));
        }
        if self.num_sources < 2 {
            return Err(err("num_sources must be at least 2".into()));
        }
        if self.domain_size < 2 {
            return Err(err("domain_size must be at least 2".into()));
        }
        for (name, p) in [
            ("variant_rate", self.variant_rate),
            ("numeric_fraction", self.numeric_fraction),
            ("accuracy_range.0", self.accuracy_range.0),
            ("accuracy_range.1", self.accuracy_range.1),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(err(format!("{name} {p} outside [0,1]")));
            }
        }
        if !(self.numeric_eps.is_finite() && self.numeric_eps > 0.0) {
            return Err(err(format!(
                "numeric_eps {} must be positive and finite",
                self.numeric_eps
            )));
        }
        Ok(())
    }
}

/// A generated variant world.
#[derive(Debug, Clone)]
pub struct VariantWorld {
    /// The claim store (its interned arena rides along on snapshots, which
    /// is what lets engines quotient them).
    pub store: ClaimStore,
    /// The observable data, canonical ids and variant ids mixed.
    pub snapshot: SnapshotView,
    /// The planted truth, in **canonical** value ids — exactly the
    /// representatives a matching backend's quotient rewrites to.
    pub truth: GroundTruth,
    /// How many assertions were re-rendered as variants.
    pub num_variant_claims: usize,
    /// The configuration that produced the world.
    pub config: VariantWorldConfig,
}

impl VariantWorld {
    /// Generates the world.
    ///
    /// # Panics
    /// Panics when the configuration is invalid
    /// ([`VariantWorldConfig::validate`]).
    pub fn generate(config: &VariantWorldConfig) -> Self {
        config.validate().expect("invalid variant world config");
        let mut rng = crate::rng(config.seed);
        let num_numeric = (config.num_objects as f64 * config.numeric_fraction).round() as usize;

        // Intern every canonical candidate up front so canonical ids are
        // the smallest in their class: quotient representatives (minimum
        // member id) then coincide with the planted-truth ids.
        let mut builder = ClaimStoreBuilder::new();
        let mut canonical: Vec<Vec<ValueId>> = Vec::with_capacity(config.num_objects);
        for o in 0..config.num_objects {
            let ids = (0..config.domain_size)
                .map(|k| builder.value(&canonical_value(config, num_numeric, o, k)))
                .collect();
            canonical.push(ids);
        }
        let truth = GroundTruth::from_pairs(
            (0..config.num_objects).map(|o| (ObjectId::from_index(o), canonical[o][0])),
        );

        let mut num_variant_claims = 0usize;
        for s in 0..config.num_sources {
            let t = if config.num_sources == 1 {
                0.5
            } else {
                s as f64 / (config.num_sources - 1) as f64
            };
            let accuracy =
                config.accuracy_range.0 + t * (config.accuracy_range.1 - config.accuracy_range.0);
            let source = format!("S{s}");
            for o in 0..config.num_objects {
                let k = if rng.gen::<f64>() < accuracy {
                    0
                } else {
                    rng.gen_range(1..config.domain_size)
                };
                let value = if rng.gen::<f64>() < config.variant_rate {
                    num_variant_claims += 1;
                    variant_value(config, num_numeric, o, k, rng.gen::<u32>())
                } else {
                    canonical_value(config, num_numeric, o, k)
                };
                builder.add(&source, &format!("O{o}"), value);
            }
        }

        let store = builder.build();
        let snapshot = store.snapshot();
        Self {
            store,
            snapshot,
            truth,
            num_variant_claims,
            config: config.clone(),
        }
    }
}

fn is_numeric_object(num_numeric: usize, o: usize) -> bool {
    o < num_numeric
}

/// The canonical numeric payload of candidate `k` of object `o`: spaced
/// [`NUMERIC_SPACING`] apart so no tolerance chain can bridge candidates.
fn numeric_base(config: &VariantWorldConfig, o: usize, k: usize) -> f64 {
    (o * config.domain_size + k) as f64 * NUMERIC_SPACING
}

fn canonical_value(config: &VariantWorldConfig, num_numeric: usize, o: usize, k: usize) -> Value {
    if is_numeric_object(num_numeric, o) {
        Value::text(format!("{:.1}", numeric_base(config, o, k)))
    } else {
        Value::text(format!("Ada{o} Lovelace{k}"))
    }
}

/// A format-variant of candidate `k` of object `o`, chosen by `pick`.
/// Text variants normalize to the canonical key (case, whitespace, hyphen,
/// diacritic); numeric variants re-render the same magnitude (trailing
/// zeros) or jitter within `numeric_eps / 2` of it.
fn variant_value(
    config: &VariantWorldConfig,
    num_numeric: usize,
    o: usize,
    k: usize,
    pick: u32,
) -> Value {
    if is_numeric_object(num_numeric, o) {
        let base = numeric_base(config, o, k);
        match pick % 2 {
            0 => Value::text(format!("{base:.3}")),
            _ => Value::text(format!("{:.4}", base + config.numeric_eps * 0.5)),
        }
    } else {
        let name = format!("Ada{o} Lovelace{k}");
        match pick % 3 {
            0 => Value::text(name.to_uppercase()),
            1 => Value::text(name.replace(' ', "-")),
            _ => Value::text(name.replacen('a', "á", 1).replace(' ', "  ")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailing_core::AccuCopy;
    use sailing_linkage::NormalizedString;
    use sailing_model::{HashedDigest, NumericTolerance};

    #[test]
    fn generation_is_deterministic() {
        let a = VariantWorld::generate(&VariantWorldConfig::messy(60, 6, 21));
        let b = VariantWorld::generate(&VariantWorldConfig::messy(60, 6, 21));
        assert_eq!(a.snapshot, b.snapshot);
        assert_eq!(a.num_variant_claims, b.num_variant_claims);
        assert!(a.num_variant_claims > 0);
    }

    #[test]
    fn variant_free_worlds_quotient_to_identity_under_every_backend() {
        let w = VariantWorld::generate(&VariantWorldConfig::federation(40, 5, 3));
        assert_eq!(w.num_variant_claims, 0);
        assert!(w.snapshot.quotient(&NormalizedString).is_identity());
        assert!(w
            .snapshot
            .quotient(&HashedDigest::new(0xfeed))
            .is_identity());
        let eps = NumericTolerance::new(w.config.numeric_eps).unwrap();
        assert!(w.snapshot.quotient(&eps).is_identity());
    }

    #[test]
    fn quotient_representatives_are_canonical_ids() {
        let w = VariantWorld::generate(&VariantWorldConfig::messy(60, 6, 7));
        let num_canonical = w.config.num_objects * w.config.domain_size;
        let q = w.snapshot.quotient(&NormalizedString);
        assert!(!q.is_identity());
        for raw in 0..q.coverage() {
            let rep = q.representative_of(ValueId::from_index(raw));
            if raw < num_canonical {
                // Canonical values represent themselves.
                assert_eq!(rep.index(), raw);
            } else {
                // Text variants collapse back onto a canonical id;
                // numeric variants need the tolerance backend instead.
                assert!(rep.index() <= raw);
            }
        }
    }

    #[test]
    fn matching_backends_strictly_improve_decision_precision() {
        let w = VariantWorld::generate(&VariantWorldConfig::messy(120, 8, 42));
        let precision = |snapshot: &SnapshotView| {
            let result = AccuCopy::with_defaults().run(snapshot);
            w.truth.decision_precision(&result.decisions()).unwrap()
        };
        let exact = precision(&w.snapshot);
        let normalized = precision(
            &w.snapshot
                .quotiented(&w.snapshot.quotient(&NormalizedString)),
        );
        let eps = NumericTolerance::new(w.config.numeric_eps).unwrap();
        let numeric = precision(&w.snapshot.quotiented(&w.snapshot.quotient(&eps)));
        assert!(
            normalized > exact,
            "normalized {normalized} vs exact {exact}"
        );
        assert!(numeric > exact, "numeric {numeric} vs exact {exact}");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = VariantWorldConfig::messy(10, 4, 0);
        c.num_objects = 0;
        assert!(c.validate().is_err());

        let mut c = VariantWorldConfig::messy(10, 4, 0);
        c.num_sources = 1;
        assert!(c.validate().is_err());

        let mut c = VariantWorldConfig::messy(10, 4, 0);
        c.variant_rate = 1.5;
        assert!(c.validate().is_err());

        let mut c = VariantWorldConfig::messy(10, 4, 0);
        c.numeric_eps = -1.0;
        assert!(c.validate().is_err());
    }
}
