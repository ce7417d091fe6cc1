//! Property tests for the paper's channel placement (Section 8.3): the
//! greedy size-balanced assignment of a pangenome's chromosomes to memory
//! channels, `balance_loads`, which also places the shards of a
//! `ShardedIndex` on the elastic schedule's worker pools.
//!
//! A load is a chromosome's (or shard's) size and a bin is a channel (or
//! pool). Invariants: every load is placed on exactly one bin, the
//! imbalance metric is well-formed (`>= 1.0`), equal loads split evenly
//! with exactly zero excess imbalance, the heaviest bin stays within one
//! load of the mean, and more bins never make the heaviest bin heavier.

use segram_core::{balance_loads, load_imbalance};
use segram_testkit::prelude::*;

/// Per-bin load totals of a placement.
fn totals(loads: &[u64], placement: &[Vec<usize>]) -> Vec<u64> {
    placement
        .iter()
        .map(|bin| bin.iter().map(|&i| loads[i]).sum())
        .collect()
}

/// The heaviest bin's total.
fn heaviest(loads: &[u64], bins: usize) -> u64 {
    let placement = balance_loads(loads, bins);
    totals(loads, &placement).into_iter().max().unwrap_or(0)
}

proptest! {
    #[test]
    fn every_chromosome_is_placed_exactly_once(
        loads in prop::collection::vec(2_000u64..6_000, 1..6),
        channels in 1usize..9,
    ) {
        let placement = balance_loads(&loads, channels);
        prop_assert_eq!(placement.len(), channels);
        // Exactly-once partition of the load indices.
        let mut placed: Vec<usize> = placement.iter().flatten().copied().collect();
        placed.sort_unstable();
        let expected: Vec<usize> = (0..loads.len()).collect();
        prop_assert_eq!(placed, expected);
        // The imbalance metric is max-over-mean, so never below 1.0 for a
        // placement that carries any load at all.
        let imbalance = load_imbalance(&totals(&loads, &placement));
        prop_assert!(imbalance >= 1.0 - 1e-12, "imbalance {imbalance}");
    }

    #[test]
    fn equal_size_chromosomes_split_with_zero_imbalance(
        per_channel in 1usize..4,
        channels in 1usize..5,
        size in prop::sample::select(vec![2_500u64, 4_000]),
    ) {
        // `channels * per_channel` equal loads: greedy largest-first
        // placement must distribute them `per_channel`-per-channel, with
        // imbalance exactly 1.0 (zero excess).
        let loads = vec![size; per_channel * channels];
        let placement = balance_loads(&loads, channels);
        for channel in &placement {
            prop_assert_eq!(channel.len(), per_channel);
        }
        let imbalance = load_imbalance(&totals(&loads, &placement));
        prop_assert!(
            (imbalance - 1.0).abs() < 1e-12,
            "equal loads must have zero excess imbalance, got {imbalance}"
        );
    }

    #[test]
    fn placement_balances_sizes(
        loads in prop::collection::vec(1u64..50_000, 1..12),
        channels in 1usize..6,
    ) {
        // Greedy's bound: the last load placed on the heaviest bin went to
        // the lightest bin, which then held at most the mean — so the
        // heaviest bin exceeds the mean by at most one load.
        let total: u64 = loads.iter().sum();
        let largest = loads.iter().copied().max().unwrap_or(0);
        let heaviest = heaviest(&loads, channels);
        prop_assert!(
            heaviest as f64 <= total as f64 / channels as f64 + largest as f64,
            "heaviest {heaviest} of {total} over {channels} bins"
        );
        // One channel is trivially balanced.
        let single = totals(&loads, &balance_loads(&loads, 1));
        prop_assert!((load_imbalance(&single) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_channels_never_increase_imbalance_error(
        loads in prop::collection::vec(1u64..50_000, 1..10),
        channels in 1usize..12,
    ) {
        // The placement's error is its heaviest bin: one more channel
        // never makes it heavier.
        prop_assert!(heaviest(&loads, channels + 1) <= heaviest(&loads, channels));
        // Channels beyond the load count stay empty but valid: every load
        // alone in a bin of its own, the best any placement can do.
        let spread = balance_loads(&loads, loads.len() + channels);
        prop_assert_eq!(spread.iter().filter(|bin| bin.len() == 1).count(), loads.len());
        prop_assert_eq!(spread.iter().flatten().count(), loads.len());
        prop_assert_eq!(heaviest(&loads, loads.len() + channels), *loads.iter().max().unwrap());
    }
}
