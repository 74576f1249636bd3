//! REROUTE against the path-materializing formulation it replaced.
//!
//! `reroute_from` and `reroute_bounded` walk the current tag's path in
//! place and only build a `Path` for BACKTRACK. The reference loops
//! below are the earlier formulations, kept verbatim as test code: every
//! iteration traces the whole path with `trace_tsdt` and scans it with
//! `BlockageMap::first_blockage_on`. On random maps over N = 4 … 256 —
//! with single, straight and double-nonstraight blockages (the BACKTRACK
//! branch) and severed output switches (disconnected pairs) — both forms
//! must return equal `Result`s, errors included.

use iadm_check::{check, check_assert_eq, Gen};
use iadm_core::backtrack::{backtrack, backtrack_measured, BoundedFail};
use iadm_core::reroute::{reroute_bounded, reroute_from, BoundedRerouteError, RerouteError};
use iadm_core::route::trace_tsdt;
use iadm_core::TsdtTag;
use iadm_fault::BlockageMap;
use iadm_topology::{Link, LinkKind, Size};

/// The Path-based REROUTE loop: trace, scan for the first blockage,
/// Corollary 4.1 or BACKTRACK, retrace.
fn reference_reroute_from(
    blockages: &BlockageMap,
    source: usize,
    tag: TsdtTag,
) -> Result<TsdtTag, RerouteError> {
    let size = tag.size();
    let mut tag = tag;
    let mut path = trace_tsdt(size, source, &tag);
    loop {
        let Some(blocked) = blockages.first_blockage_on(&path) else {
            return Ok(tag);
        };
        let i = blocked.stage;
        if path.kind_at(i).is_nonstraight() && blockages.is_free(blocked.opposite()) {
            tag = tag.corollary_4_1(i);
        } else {
            tag = backtrack(blockages, &path, i, tag).map_err(|reason| RerouteError {
                reason,
                source,
                dest: tag.dest(),
            })?;
        }
        path = trace_tsdt(size, source, &tag);
    }
}

/// The Path-based budgeted REROUTE loop.
fn reference_reroute_bounded(
    size: Size,
    blockages: &BlockageMap,
    source: usize,
    dest: usize,
    max_backtrack: usize,
) -> Result<(TsdtTag, usize), BoundedRerouteError> {
    let mut tag = TsdtTag::new(size, dest);
    let mut path = trace_tsdt(size, source, &tag);
    let mut max_used = 0usize;
    loop {
        let Some(blocked) = blockages.first_blockage_on(&path) else {
            return Ok((tag, max_used));
        };
        let i = blocked.stage;
        if path.kind_at(i).is_nonstraight() && blockages.is_free(blocked.opposite()) {
            tag = tag.corollary_4_1(i);
        } else {
            match backtrack_measured(blockages, &path, i, tag, max_backtrack) {
                Ok((new_tag, used)) => {
                    tag = new_tag;
                    max_used = max_used.max(used);
                }
                Err(BoundedFail::NoPath(reason)) => {
                    return Err(BoundedRerouteError::NoPath(RerouteError {
                        reason,
                        source,
                        dest,
                    }))
                }
                Err(BoundedFail::BudgetExceeded { needed }) => {
                    return Err(BoundedRerouteError::BudgetExceeded { needed })
                }
            }
        }
        path = trace_tsdt(size, source, &tag);
    }
}

/// A random network size N = 4 … 256 and blockage map mixing single
/// links, straight links, double-nonstraight pairs and severed output
/// switches. Every value is drawn from `g`, so failures shrink toward
/// small networks with few blockages.
fn random_map(g: &mut Gen) -> (Size, BlockageMap) {
    let size = Size::from_stages(g.u32_in(2..=8));
    let (n, stages) = (size.n(), size.stages());
    let mut map = BlockageMap::new(size);
    for _ in 0..g.usize_in(0..=3 * stages) {
        let stage = g.usize_in(0..=stages - 1);
        let from = g.usize_in(0..=n - 1);
        match g.usize_in(0..=3) {
            0 => map.block(Link::new(
                stage,
                from,
                LinkKind::from_index(g.usize_in(0..=2)),
            )),
            1 => map.block(Link::straight(stage, from)),
            2 => {
                map.block(Link::minus(stage, from));
                map.block(Link::plus(stage, from))
            }
            _ => {
                // Every input of an output switch: pairs ending there
                // are disconnected.
                map.block_switch(stages, from);
                true
            }
        };
    }
    (size, map)
}

/// Source/destination pairs: all of them for N ≤ 16, else 48 drawn.
fn pairs(g: &mut Gen, size: Size) -> Vec<(usize, usize)> {
    let n = size.n();
    if n <= 16 {
        return (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect();
    }
    (0..48)
        .map(|_| (g.usize_in(0..=n - 1), g.usize_in(0..=n - 1)))
        .collect()
}

check! {
    /// Unbounded REROUTE, from the all-C tag and from a random start tag.
    fn reroute_from_matches_the_path_based_loop(g; cases = 256) {
        let (size, map) = random_map(g);
        for (s, d) in pairs(g, size) {
            let start = TsdtTag::new(size, d);
            check_assert_eq!(
                reroute_from(&map, s, start),
                reference_reroute_from(&map, s, start),
                "N={} s={s} d={d} blocked={:?}", size.n(), map.blocked_links()
            );
            let bent = TsdtTag::with_state(size, d, g.usize_in(0..=size.n() - 1));
            check_assert_eq!(
                reroute_from(&map, s, bent),
                reference_reroute_from(&map, s, bent),
                "N={} s={s} start={bent} blocked={:?}", size.n(), map.blocked_links()
            );
        }
    }

    /// Budgeted REROUTE at every budget from 0 (SSDT power) to n.
    fn reroute_bounded_matches_the_path_based_loop(g; cases = 128) {
        let (size, map) = random_map(g);
        for (s, d) in pairs(g, size) {
            for budget in 0..=size.stages() {
                check_assert_eq!(
                    reroute_bounded(size, &map, s, d, budget),
                    reference_reroute_bounded(size, &map, s, d, budget),
                    "N={} s={s} d={d} budget={budget} blocked={:?}",
                    size.n(),
                    map.blocked_links()
                );
            }
        }
    }
}

/// The generator does reach every branch the differential is meant to
/// cover: clean pairs, bent tags, BACKTRACK successes and refusals.
#[test]
fn the_random_maps_cover_every_reroute_branch() {
    let (mut clean, mut bent, mut backtracked, mut refused) = (0, 0, 0, 0);
    iadm_check::Runner::new("coverage", 256).run(|g| {
        let (size, map) = random_map(g);
        for (s, d) in pairs(g, size) {
            match reroute_bounded(size, &map, s, d, 0) {
                Ok((tag, _)) if tag.state_bits() == 0 => clean += 1,
                Ok(_) => bent += 1,
                Err(_) => match reroute_from(&map, s, TsdtTag::new(size, d)) {
                    Ok(_) => backtracked += 1,
                    Err(_) => refused += 1,
                },
            }
        }
        Ok(())
    });
    for (what, count) in [
        ("clean", clean),
        ("bent", bent),
        ("backtracked", backtracked),
        ("refused", refused),
    ] {
        assert!(count > 100, "only {count} {what} pairs");
    }
}
