//! `bernoulli_threshold` against `gen_bool`: on cloned generators the
//! integer test `(next_u64() >> 11) < bernoulli_threshold(p)` must accept
//! exactly the draws `gen_bool(p)` accepts and leave both generators in
//! the same state — for random probabilities, for the edge values, and
//! for probabilities placed exactly on (and one ulp around) the next
//! draw, where an off-by-one in the rounding would show.

use iadm_check::{check, check_assert, check_assert_eq};
use iadm_rng::{bernoulli_threshold, Rng, RngCore, StdRng};

/// `0`, the smallest subnormal, `2^-53`, `1 - 2^-53` and `1`.
const EDGES: [f64; 5] = [
    0.0,
    f64::from_bits(1),
    1.0 / (1u64 << 53) as f64,
    1.0 - 1.0 / (1u64 << 53) as f64,
    1.0,
];

/// Draws `count` trials both ways from clones of `rng`; `Err` names the
/// first trial on which the two forms disagree.
fn agree(rng: StdRng, p: f64, count: usize) -> Result<(), String> {
    let threshold = bernoulli_threshold(p);
    let mut float = rng.clone();
    let mut int = rng;
    for i in 0..count {
        let a = float.gen_bool(p);
        let b = (int.next_u64() >> 11) < threshold;
        check_assert!(a == b, "p = {p:e}: trial {i} gen_bool {a}, threshold {b}");
    }
    check_assert_eq!(float, int, "p = {p:e}: generators consumed different draws");
    Ok(())
}

check! {
    /// Uniformly drawn probabilities.
    fn random_probabilities_accept_the_same_draws(g; cases = 256) {
        let p = g.f64_in(0.0..1.0);
        agree(g.rng(), p, 256)?;
    }

    /// The edge probabilities, each on a fresh random stream.
    fn edge_probabilities_accept_the_same_draws(g; cases = 64) {
        let p = EDGES[g.usize_in(0..=EDGES.len() - 1)];
        agree(g.rng(), p, 256)?;
    }

    /// `p` equal to the next draw's value `x · 2^-53` (which `gen_bool`
    /// must reject) and one ulp either side of it.
    fn probabilities_on_the_next_draw_accept_the_same_draws(g; cases = 256) {
        let rng = g.rng();
        let x = rng.clone().next_u64() >> 11;
        let exact = x as f64 / (1u64 << 53) as f64;
        for p in [exact, exact.next_up(), exact.next_down()] {
            if (0.0..=1.0).contains(&p) {
                agree(rng.clone(), p, 4)?;
            }
        }
        check_assert!(!rng.clone().gen_bool(exact), "x = {x}: gen_bool accepted p = x");
    }
}

#[test]
fn thresholds_at_the_edges() {
    assert_eq!(bernoulli_threshold(0.0), 0);
    assert_eq!(bernoulli_threshold(f64::from_bits(1)), 1);
    assert_eq!(bernoulli_threshold(EDGES[2]), 1);
    assert_eq!(bernoulli_threshold(EDGES[3]), (1u64 << 53) - 1);
    assert_eq!(bernoulli_threshold(1.0), 1u64 << 53);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_probability_is_rejected() {
    let _ = bernoulli_threshold(f64::NAN);
}
