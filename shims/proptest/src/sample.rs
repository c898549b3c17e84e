//! Sampling strategies, mirroring `proptest::sample`.

use crate::strategy::{SizeRange, Strategy};
use rand::rngs::StdRng;
use rand::Rng;

/// Strategy choosing one element of `items` uniformly.
pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
    assert!(!items.is_empty(), "select requires a non-empty vector");
    Select { items }
}

/// Strategy returned by [`select`].
pub struct Select<T> {
    items: Vec<T>,
}

impl<T: Clone> Strategy for Select<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        let i = rng.random_range(0..self.items.len());
        self.items[i].clone()
    }
}

/// Strategy choosing an order-preserving subsequence of `items` whose
/// length is drawn from `size` (clamped to the number of items).
pub fn subsequence<T: Clone>(items: Vec<T>, size: impl Into<SizeRange>) -> Subsequence<T> {
    Subsequence {
        items,
        size: size.into(),
    }
}

/// Strategy producing uniformly random permutations of `items` — the
/// shim's counterpart of `proptest::sample::Shuffle` (real proptest
/// reaches it through `Just(vec).prop_shuffle()`; offline callers use
/// `sample::shuffle(vec)` directly).
pub fn shuffle<T: Clone>(items: Vec<T>) -> Shuffle<T> {
    Shuffle { items }
}

/// Strategy returned by [`shuffle`].
pub struct Shuffle<T> {
    items: Vec<T>,
}

impl<T: Clone> Strategy for Shuffle<T> {
    type Value = Vec<T>;
    fn generate(&self, rng: &mut StdRng) -> Vec<T> {
        let mut out = self.items.clone();
        // Fisher–Yates; deterministic given the case's seeded RNG.
        for i in (1..out.len()).rev() {
            let j = rng.random_range(0..=i);
            out.swap(i, j);
        }
        out
    }
}

/// Strategy returned by [`subsequence`].
pub struct Subsequence<T> {
    items: Vec<T>,
    size: SizeRange,
}

impl<T: Clone> Strategy for Subsequence<T> {
    type Value = Vec<T>;
    fn generate(&self, rng: &mut StdRng) -> Vec<T> {
        let n = self.items.len();
        let k = self.size.pick(rng).min(n);
        // Floyd's algorithm for k distinct indices in [0, n), then emit the
        // chosen items in their original order.
        let mut chosen = vec![false; n];
        for j in n - k..n {
            let t = rng.random_range(0..=j);
            if chosen[t] {
                chosen[j] = true;
            } else {
                chosen[t] = true;
            }
        }
        self.items
            .iter()
            .zip(&chosen)
            .filter(|(_, &c)| c)
            .map(|(x, _)| x.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shuffle_produces_deterministic_permutations() {
        let items: Vec<u32> = (0..16).collect();
        let strat = shuffle(items.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let a = strat.generate(&mut rng);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, items, "a permutation keeps every element");

        // Same seed, same stream.
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(strat.generate(&mut rng2), a);

        // The stream actually varies across draws (16! >> draw count).
        let b = strat.generate(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_handles_degenerate_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(shuffle(Vec::<u8>::new()).generate(&mut rng), vec![]);
        assert_eq!(shuffle(vec![9u8]).generate(&mut rng), vec![9]);
    }
}
