//! Seeded input generation. Everything here is the load generator, not
//! the program: its cost is outside every reported metric.

use sailing_datagen::world::{SnapshotWorld, WorldConfig};
use sailing_model::{GroundTruth, ObjectId, SnapshotView, SourceId, ValueId};

/// One claim triple as a source publishes it.
pub type Triple = (SourceId, ObjectId, ValueId);

/// A generated world: its claim triples and the planted truth.
pub struct World {
    pub num_sources: usize,
    pub num_objects: usize,
    pub triples: Vec<Triple>,
    pub truth: GroundTruth,
}

impl World {
    /// Builds the program's snapshot from the raw triples through the
    /// public model constructor (this is set-up work of the program).
    pub fn snapshot(&self) -> SnapshotView {
        SnapshotView::from_triples(
            self.num_sources,
            self.num_objects,
            self.triples.iter().copied(),
        )
    }
}

/// The claim triples of a snapshot, in source order.
pub fn triples_of(snapshot: &SnapshotView) -> Vec<Triple> {
    (0..snapshot.num_sources())
        .flat_map(|s| {
            let sid = SourceId::from_index(s);
            snapshot
                .source_assertions(sid)
                .iter()
                .map(move |&(o, v)| (sid, o, v))
        })
        .collect()
}

/// SplitMix64 finaliser: derives independent per-input seeds from the
/// run's seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` distinct specialist worlds (`WorldConfig::specialist`) with
/// seeds derived from `seed`.
pub fn specialist_worlds(
    seed: u64,
    count: usize,
    sources: usize,
    objects: usize,
    coverage: usize,
) -> Vec<World> {
    (0..count)
        .map(|i| {
            let config =
                WorldConfig::specialist(sources, objects, coverage, derive_seed(seed, i as u64));
            let world = SnapshotWorld::generate(&config);
            World {
                num_sources: world.snapshot.num_sources(),
                num_objects: world.snapshot.num_objects(),
                triples: triples_of(&world.snapshot),
                truth: world.truth,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = specialist_worlds(3, 2, 10, 40, 10);
        let b = specialist_worlds(3, 2, 10, 40, 10);
        let c = specialist_worlds(4, 2, 10, 40, 10);
        assert_eq!(a[1].triples, b[1].triples);
        assert_ne!(a[0].triples, a[1].triples);
        assert_ne!(a[0].triples, c[0].triples);
    }

    #[test]
    fn snapshot_round_trips_the_triples() {
        let world = &specialist_worlds(1, 1, 10, 40, 10)[0];
        assert_eq!(triples_of(&world.snapshot()), world.triples);
    }
}
