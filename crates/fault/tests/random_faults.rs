//! `random_faults` shuffles flat link indices instead of `Link` values.
//! Against the earlier formulation — shuffle `candidate_links` and block
//! the first `count` — it must block the same links and leave the
//! generator in the same state, for every network size, kind filter,
//! fault count and seed.

use iadm_check::{check, check_assert_eq};
use iadm_fault::scenario::{candidate_links, random_faults, KindFilter};
use iadm_fault::BlockageMap;
use iadm_rng::{SliceRandom, StdRng};
use iadm_topology::Size;

/// Shuffles the `Link` candidates and blocks the first `count`.
fn reference_random_faults(
    rng: &mut StdRng,
    size: Size,
    count: usize,
    filter: KindFilter,
) -> BlockageMap {
    let mut links = candidate_links(size, filter);
    links.shuffle(rng);
    BlockageMap::from_links(size, links.into_iter().take(count))
}

const FILTERS: [KindFilter; 3] = [
    KindFilter::Any,
    KindFilter::NonstraightOnly,
    KindFilter::StraightOnly,
];

check! {
    /// N = 2 … 1024, every filter, any admissible count.
    fn random_faults_matches_the_link_shuffle(g; cases = 256) {
        let size = Size::from_stages(g.u32_in(1..=10));
        let filter = FILTERS[g.usize_in(0..=2)];
        let candidates = candidate_links(size, filter).len();
        let count = g.usize_in(0..=candidates);
        let rng = g.rng();
        let (mut fast, mut reference) = (rng.clone(), rng);
        check_assert_eq!(
            random_faults(&mut fast, size, count, filter),
            reference_random_faults(&mut reference, size, count, filter),
            "N={} {filter:?} count={count}", size.n()
        );
        check_assert_eq!(fast, reference, "generators consumed different draws");
    }
}

#[test]
#[should_panic(expected = "requested 25 faults but only 24 candidate links")]
fn random_faults_rejects_more_faults_than_candidates() {
    let size = Size::new(8).unwrap();
    let _ = random_faults(
        &mut StdRng::seed_from_u64(1),
        size,
        25,
        KindFilter::StraightOnly,
    );
}
