//! Deterministic seed derivation — the workspace's one seed-splitting rule.
//!
//! Every parallel or streamed computation in this workspace is a pure
//! function of `(spec, seed)`: worker counts and scheduling never change a
//! byte. That property rests on a single derivation rule, defined here:
//!
//! ```text
//! child = base ^ SplitMix64(index + 1)
//! ```
//!
//! ([`split_seed`]). The `+ 1` keeps `split_seed(base, 0) != base`, so a
//! parent stream never collides with its first child.
//!
//! ## Derivation conventions
//!
//! Call sites fall into three patterns, all built from [`split_seed`]:
//!
//! * **Indexed fan-out** — item `i` of a sweep, batch `b` of an adaptive
//!   Monte-Carlo run, die `d` of a wafer:
//!   `split_seed(base, i)`. Results are independent of which worker
//!   evaluates which index.
//! * **Salted sub-streams** — a fixed ASCII tag separates *kinds* of
//!   randomness hanging off one base seed, so adding a consumer never
//!   shifts another's stream: `split_seed(base, SALT)`. Existing salts:
//!   `0x636E_7463` (`"cntc"`, count-model sampling), `0x7046_6D63`
//!   (`"pFmc"`, MC back-end evaluation), `0x636F_6F70` (`"coop"`,
//!   co-optimization restarts), and the wafer-field knob salts in
//!   `cnfet-pipeline`.
//! * **Value-keyed streams** — when the natural key is a value rather than
//!   an index, its bits are the index: `split_seed(base, w.to_bits())`
//!   (per-width MC memoization in `cnfet-core`).
//!
//! Composition nests: `split_seed(split_seed(base, salt), index)` gives a
//! salted family of indexed streams. Because [`splitmix64`] is a bijective
//! finalizer, distinct indices always produce distinct child seeds for a
//! fixed base.

/// SplitMix64 finalizer — a bijective avalanche mix that decorrelates
/// nearby indices into statistically independent seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Derive the `index`-th child seed of `base` (see the module docs for the
/// derivation conventions built on this rule).
///
/// This is the deterministic seed-splitting rule every fan-out layer in
/// the workspace uses — parallel Monte-Carlo workers, scenario sweeps,
/// adaptive MC batches, co-optimization restarts, and wafer die streams —
/// so reproducibility for a given `(base, index)` pair is independent of
/// worker count and scheduling.
pub fn split_seed(base: u64, index: u64) -> u64 {
    base ^ splitmix64(index.wrapping_add(1))
}

/// A deterministic RNG seeded from a derived seed — the one constructor
/// consumers use to turn a [`split_seed`] child into a sample stream.
///
/// Centralizing the generator choice here means every layer draws from
/// the same algorithm; callers only ever see an opaque
/// [`rand::RngCore`], so the concrete generator can evolve without
/// touching call sites (recorded artifacts pin it via their tests).
pub fn seeded_rng(seed: u64) -> impl rand::RngCore {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_distinct_and_differ_from_base() {
        let base = 20100613;
        let children: Vec<u64> = (0..64).map(|i| split_seed(base, i)).collect();
        for (i, &a) in children.iter().enumerate() {
            assert_ne!(a, base, "child {i} collided with its base");
            for &b in &children[i + 1..] {
                assert_ne!(a, b, "distinct indices must give distinct seeds");
            }
        }
    }

    #[test]
    fn derivation_is_the_documented_formula() {
        // The rule is a public contract: artifacts recorded under it must
        // reparse bit-identically forever.
        assert_eq!(split_seed(7, 3), 7 ^ splitmix64(4));
        assert_eq!(split_seed(0, u64::MAX), splitmix64(0));
    }

    #[test]
    fn splitmix64_matches_reference_vector() {
        // Reference value of the SplitMix64 finalizer at x = 0 (Steele,
        // Lea, Flood; also the JDK SplittableRandom mix).
        assert_eq!(splitmix64(0), 0xE220A8397B1DCDAF);
    }
}
