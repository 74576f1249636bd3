//! `gen_range` against the formula it shortcuts: on cloned generators
//! the Lemire form (compute `2^64 mod span` only when the low product
//! word is below `span`) must return the same values as computing the
//! threshold up front, and consume the same draws — for power-of-two
//! spans (threshold 0), odd spans, arbitrary spans, and spans just above
//! `2^63`, where about half of all draws are rejected.

use iadm_check::{check, check_assert_eq, Gen};
use iadm_rng::{Rng, RngCore, StdRng};

/// `gen_range(start..start + span)` with the threshold computed on
/// every call, as before the shortcut.
fn reference_gen_range(rng: &mut StdRng, start: usize, span: u64) -> usize {
    let threshold = span.wrapping_neg() % span;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(span);
        if (m as u64) >= threshold {
            return start + (m >> 64) as usize;
        }
    }
}

/// Draws `count` values both ways from clones of `rng`.
fn agree(rng: StdRng, span: u64, count: usize) -> Result<(), String> {
    let start = 5usize;
    let range = start..start + span as usize;
    let mut fast = rng.clone();
    let mut reference = rng;
    for i in 0..count {
        check_assert_eq!(
            fast.gen_range(range.clone()),
            reference_gen_range(&mut reference, start, span),
            "span {span}: draw {i}"
        );
    }
    check_assert_eq!(
        fast,
        reference,
        "span {span}: generators consumed different draws"
    );
    Ok(())
}

/// A span of the kind selected by the first draw (kept below
/// `usize::MAX - 5` so the shifted range cannot overflow).
fn span(g: &mut Gen) -> u64 {
    let cap = u64::MAX - 5;
    match g.usize_in(0..=3) {
        0 => 1u64 << g.u32_in(0..=63),
        1 => (g.u64_any() % cap) | 1,
        2 => g.u64_any() % cap + 1,
        _ => (1u64 << 63) + 1 + g.u64_any() % (1 << 20),
    }
}

check! {
    /// Random spans of every kind.
    fn gen_range_matches_the_reference_formula(g; cases = 512) {
        let span = span(g);
        agree(g.rng(), span, 64)?;
    }

    /// Small spans, where most callers live (shuffles, destinations).
    fn gen_range_matches_on_small_spans(g; cases = 256) {
        let span = g.u64_any() % 4096 + 1;
        agree(g.rng(), span, 64)?;
    }
}
