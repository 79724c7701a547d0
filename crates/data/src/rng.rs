//! Seeded sampling helpers.
//!
//! All randomness in the reproduction flows through seeded `StdRng`s so
//! every experiment is bit-reproducible. Normal variates use the Box–Muller
//! transform, keeping the dependency set to plain `rand`. The SQL tuple
//! shuffle draws no numbers at all: it orders its buffer by a seeded hash
//! key per row, ranked by [`rank_by_key`].

use rand::Rng;

/// Draw one standard-normal variate via Box–Muller.
pub fn randn<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Guard against log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Fill a vector with `dim` standard-normal variates.
pub fn randn_vec<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| randn(rng)).collect()
}

/// Draw a random unit vector of the given dimension.
pub fn rand_unit_vec<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> Vec<f32> {
    loop {
        let mut v = randn_vec(rng, dim);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-6 {
            for x in &mut v {
                *x /= norm;
            }
            return v;
        }
    }
}

/// Sample `k` distinct indices from `0..n`, returned sorted ascending.
///
/// Uses Floyd's algorithm: O(k) expected draws, no O(n) allocation.
pub fn sample_distinct_sorted<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct from {n}");
    let mut chosen = std::collections::BTreeSet::new();
    for j in n - k..n {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

/// Fisher–Yates shuffle of a slice using the supplied RNG.
pub fn shuffle_in_place<T, R: Rng + ?Sized>(rng: &mut R, slice: &mut [T]) {
    for i in (1..slice.len()).rev() {
        let j = rng.gen_range(0..=i);
        slice.swap(i, j);
    }
}

/// A set of keys with a bucket of more positions than this — keys sharing
/// their top bits — is sorted by `sort_unstable` instead, so that no key set
/// can make [`rank_by_key`] quadratic.
const SMALL_BUCKET: usize = 16;

/// The keyed counterpart of [`shuffle_in_place`]: a shuffle by hash key.
/// Sorts the positions of `keys` by key, ties by position, into `order`,
/// scratch kept across calls. A bucket sort: each position goes to one of
/// `n` buckets by its key's top bits (the high word of `key × n`), whose
/// bounds `order` holds past its first `n` entries meanwhile. The buckets
/// are in key order, so one insertion sort over `order` finishes them all.
pub fn rank_by_key(keys: &[u64], order: &mut Vec<u32>) {
    let n = keys.len();
    let bucket = |k: u64| ((u128::from(k) * n as u128) >> 64) as usize;
    order.resize(2 * n + 1, 0);
    let (sorted, bounds) = order.split_at_mut(n);
    bounds.fill(0);
    keys.iter().for_each(|&k| bounds[bucket(k) + 1] += 1);
    let big = bounds.iter().any(|&size| size as usize > SMALL_BUCKET);
    let mut start = 0;
    for at in bounds.iter_mut() {
        start += *at;
        *at = start;
    }
    for (j, &k) in (0u32..).zip(keys) {
        let at = &mut bounds[bucket(k)];
        sorted[*at as usize] = j;
        *at += 1;
    }
    order.truncate(n);
    if big {
        order.sort_unstable_by_key(|&j| (keys[j as usize], j));
    }
    for i in 1..n {
        let (j, mut at) = (order[i], i);
        while at > 0 && keys[order[at - 1] as usize] > keys[j as usize] {
            order[at] = order[at - 1];
            at -= 1;
        }
        order[at] = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_storage::splitmix64;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_has_roughly_unit_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let xs: Vec<f32> = (0..n).map(|_| randn(&mut rng)).collect();
        let mean: f32 = xs.iter().sum::<f32>() / n as f32;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn unit_vec_has_unit_norm() {
        let mut rng = StdRng::seed_from_u64(2);
        for dim in [1, 3, 100] {
            let v = rand_unit_vec(&mut rng, dim);
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "dim {dim}: norm {norm}");
        }
    }

    #[test]
    fn sample_distinct_is_distinct_sorted_and_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let s = sample_distinct_sorted(&mut rng, 100, 17);
            assert_eq!(s.len(), 17);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn sample_all_gives_full_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = sample_distinct_sorted(&mut rng, 10, 10);
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_n_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        sample_distinct_sorted(&mut rng, 3, 4);
    }

    #[test]
    fn shuffle_is_permutation_and_seed_deterministic() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b: Vec<u32> = (0..100).collect();
        shuffle_in_place(&mut StdRng::seed_from_u64(7), &mut a);
        shuffle_in_place(&mut StdRng::seed_from_u64(7), &mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            a,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }

    /// `rank_by_key` into scratch a previous fill left dirty, checked
    /// against `sort_unstable_by_key` on `(key, position)` pairs.
    fn assert_ranks_like_the_key_sort(keys: &[u64]) {
        let mut pairs: Vec<(u64, u32)> = keys.iter().copied().zip(0u32..).collect();
        pairs.sort_unstable_by_key(|&pair| pair);
        let mut order = vec![7; 5];
        rank_by_key(keys, &mut order);
        let want: Vec<u32> = pairs.iter().map(|&(_, j)| j).collect();
        assert_eq!(order, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// The bucket sort is the key sort of the SQL tuple shuffle's
        /// `splitmix64(salt ^ id)` keys, on empty, one-row, power-of-two and
        /// odd-sized fills, with ids unique or repeated (equal keys).
        #[test]
        fn prop_rank_by_key_is_the_key_sort(
            n in prop_oneof![
                Just(0usize),
                Just(1),
                Just(65_536),
                Just(70_000),
                0usize..70_001,
            ],
            salt in any::<u64>(),
            ids in prop_oneof![Just(u64::MAX), 1u64..50],
        ) {
            let keys: Vec<u64> = (0..n as u64).map(|j| splitmix64(salt ^ (j % ids))).collect();
            assert_ranks_like_the_key_sort(&keys);
        }
    }

    #[test]
    fn keys_sharing_their_top_bits_fall_back_to_sort_unstable() {
        // Every key below 2^40 falls in bucket 0 of 20 000: one bucket far
        // over SMALL_BUCKET, in descending order — quadratic for an
        // insertion sort, so it takes the fallback.
        let n = 20_000u64;
        let keys: Vec<u64> = (0..n).map(|j| splitmix64(j) >> 24).rev().collect();
        assert!(keys
            .iter()
            .all(|&k| (u128::from(k) * u128::from(n)) >> 64 == 0));
        assert_ranks_like_the_key_sort(&keys);
        // A few big buckets among small ones.
        let mut keys: Vec<u64> = (0..n).map(splitmix64).collect();
        keys[..3_000].iter_mut().for_each(|k| *k >>= 30);
        assert_ranks_like_the_key_sort(&keys);
    }
}
