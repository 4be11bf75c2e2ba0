//! `place_unordered` against a naive reference written from §2.3: the
//! components, in non-increasing order, each go to the unused cluster
//! that the rule picks among those it fits on, ties to the lowest index.
//! Widths run from one component to one per cluster on 1–64 clusters,
//! so the heap spill past four inline components is pinned too.

use coalloc_core::job::Placement;
use coalloc_core::placement::{place_unordered, PlacementRule, MAX_CLUSTERS};
use proptest::prelude::*;

const RULES: [PlacementRule; 3] =
    [PlacementRule::WorstFit, PlacementRule::BestFit, PlacementRule::FirstFit];

fn reference(idle: &[u32], components: &[u32], rule: PlacementRule) -> Option<Placement> {
    let mut used = vec![false; idle.len()];
    let mut pairs = Vec::new();
    for &size in components {
        let fits = (0..idle.len()).filter(|&c| !used[c] && idle[c] >= size);
        // `min_by_key` keeps the first of equal keys: the lowest index.
        let cluster = match rule {
            PlacementRule::WorstFit => fits.min_by_key(|&c| std::cmp::Reverse(idle[c])),
            PlacementRule::BestFit => fits.min_by_key(|&c| idle[c]),
            PlacementRule::FirstFit => fits.min(),
        }?;
        used[cluster] = true;
        pairs.push((cluster, size));
    }
    Some(Placement::new(pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn place_unordered_matches_the_greedy_reference(
        clusters in 1..=MAX_CLUSTERS,
        width in 1..=MAX_CLUSTERS,
        idle in proptest::collection::vec(0..=32u32, MAX_CLUSTERS),
        cap in 1..=48u32,
        sizes in proptest::collection::vec(0..48u32, MAX_CLUSTERS),
        rule in 0..RULES.len(),
    ) {
        // Few distinct idle counts give ties. Component sizes up to a
        // `cap` of 1–48 over idle counts up to 32 make about 70 % of the
        // cases fit (half of all cases are fits wider than four) and the
        // rest fail.
        let idle = &idle[..clusters];
        let width = 1 + (width - 1) % clusters;
        let mut components: Vec<u32> = sizes[..width].iter().map(|&s| 1 + s % cap).collect();
        components.sort_unstable_by(|a, b| b.cmp(a));
        let rule = RULES[rule];
        prop_assert_eq!(
            place_unordered(idle, &components, rule),
            reference(idle, &components, rule),
            "idle {:?}, components {:?}, {:?}",
            idle,
            components,
            rule
        );
    }
}
