//! A dense arena of the *currently non-empty* link queues: the link
//! buffers of both engines.
//!
//! [`crate::QueueArena`] lays every queue of the network out flat —
//! `3 N n` ring buffers — which must be allocated, zeroed and walked at
//! the end of the run whatever the traffic, and at low load on a large
//! network scatters the handful of in-flight packets' queue touches over
//! tens of megabytes. `ActiveArena` keeps only the non-empty queues in a
//! dense slab: a flat-index→dense-slot map activates a queue on its first
//! push and releases the slot the moment it drains, so the working set
//! is proportional to the packets in flight, not to the network, and the
//! per-queue totals it keeps for the finisher are a few bytes each.
//!
//! The accounting contract is exact equality with [`crate::QueueArena`],
//! which stays as the reference model: per-queue occupancy integrals,
//! high-water marks, and carried counts are the same `u64`s the flat
//! arena would have produced (episode sums folded into persistent
//! per-queue totals on every drain; an idle span between episodes
//! contributes length `0`, which is exactly what the flat arena's lazy
//! flush would have credited), so the downstream floating-point
//! statistics are bit-identical. The randomized operation soup below
//! checks that equality directly; the parity goldens and
//! `tests/equivalence.rs` check it end to end.

use crate::packet::Packet;

/// `slot_of` sentinel: the queue is empty and holds no dense slot.
const NONE: u32 = u32::MAX;

/// Bookkeeping for one *active* (non-empty) queue: the same fields as
/// `QueueArena`'s `QueueMeta`, scoped to the current non-empty episode.
#[derive(Debug, Clone, Copy)]
struct ActiveRec {
    /// The flat queue index this dense slot currently serves.
    q: u32,
    /// Ring-buffer head offset.
    head: u16,
    /// Current length (invariant: > 0 between operations — a drained
    /// queue is released immediately).
    len: u16,
    /// Largest occupancy observed this episode.
    high_water: u16,
    /// Shared-sample-counter value at the last flush.
    flushed_at: u64,
    /// Cumulative occupancy over flushed sample points, this episode.
    occupancy_sum: u64,
    /// Packets carried over the queue's link, this episode.
    carried: u64,
}

/// A flat-indexed arena of bounded FIFO ring buffers that stores only the
/// non-empty queues densely. Drop-in accounting twin of
/// [`crate::QueueArena`] (same `push`/`pop`/`pop_carried`/`head`/`tick`
/// vocabulary, identical statistics).
#[derive(Debug)]
pub struct ActiveArena {
    capacity: usize,
    /// Flat queue index → dense slot ([`NONE`] = empty, inactive).
    slot_of: Vec<u32>,
    /// Dense records, parallel to `capacity`-sized chunks of `slab`.
    active: Vec<ActiveRec>,
    /// `active.len() * capacity` packet slots.
    slab: Vec<Packet>,
    /// Recycled dense slots.
    free: Vec<u32>,
    /// Per-queue occupancy integral folded from completed episodes.
    total_sum: Vec<u64>,
    /// Per-queue all-time high-water mark from completed episodes.
    total_high: Vec<u16>,
    /// Per-queue carried count from completed episodes.
    total_carried: Vec<u64>,
    /// One bit per queue: has queue `q` ever been activated? The
    /// end-of-run statistics folds visit only these queues: a
    /// never-activated queue contributes exactly `0`/`0.0` to every
    /// fold, so skipping it is byte-identical — and it keeps the
    /// finisher proportional to the traffic plus one bit per queue.
    ever: Vec<u64>,
    /// Shared sample counter (one tick per simulated cycle).
    samples: u64,
}

impl ActiveArena {
    /// Creates `queues` empty ring buffers of `capacity` packets each
    /// (same bounds as [`crate::QueueArena::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity > u16::MAX`.
    pub fn new(queues: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(
            capacity <= u16::MAX as usize,
            "queue capacity {capacity} exceeds the arena's u16 ring offsets"
        );
        ActiveArena {
            capacity,
            slot_of: vec![NONE; queues],
            active: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            total_sum: vec![0; queues],
            total_high: vec![0; queues],
            total_carried: vec![0; queues],
            ever: vec![0; queues.div_ceil(64)],
            samples: 0,
        }
    }

    /// Number of queues in the arena.
    pub fn queue_count(&self) -> usize {
        self.slot_of.len()
    }

    /// Current number of packets queued in queue `q`.
    #[inline]
    pub fn len(&self, q: usize) -> usize {
        match self.slot_of[q] {
            NONE => 0,
            slot => self.active[slot as usize].len as usize,
        }
    }

    /// Is queue `q` empty?
    #[inline]
    pub fn is_empty(&self, q: usize) -> bool {
        self.slot_of[q] == NONE
    }

    /// Is queue `q` at capacity?
    #[inline]
    pub fn is_full(&self, q: usize) -> bool {
        match self.slot_of[q] {
            NONE => false,
            slot => self.active[slot as usize].len as usize >= self.capacity,
        }
    }

    /// Credits the episode's current length for all sample points since
    /// the last mutation (identical to `QueueArena::flush_occupancy`).
    #[inline]
    fn flush(rec: &mut ActiveRec, samples: u64) {
        let pending = samples - rec.flushed_at;
        if pending > 0 {
            rec.occupancy_sum += rec.len as u64 * pending;
            rec.flushed_at = samples;
        }
    }

    /// Starts a non-empty episode for queue `q`: the span since the last
    /// drain contributed length `0`, so the fresh record opens flushed at
    /// the current sample count with a zero sum.
    #[inline]
    fn activate(&mut self, q: usize) -> usize {
        self.ever[q >> 6] |= 1 << (q & 63);
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                let slot = self.active.len();
                self.active.push(ActiveRec {
                    q: 0,
                    head: 0,
                    len: 0,
                    high_water: 0,
                    flushed_at: 0,
                    occupancy_sum: 0,
                    carried: 0,
                });
                self.slab
                    .resize(self.active.len() * self.capacity, Packet::new(0, 0));
                slot
            }
        };
        self.active[slot] = ActiveRec {
            q: q as u32,
            head: 0,
            len: 0,
            high_water: 0,
            flushed_at: self.samples,
            occupancy_sum: 0,
            carried: 0,
        };
        self.slot_of[q] = slot as u32;
        slot
    }

    /// Ends queue `q`'s episode (it just drained): folds the episode's
    /// statistics into the persistent per-queue totals and recycles the
    /// dense slot.
    #[inline]
    fn release(&mut self, q: usize, slot: usize) {
        let rec = self.active[slot];
        debug_assert_eq!(rec.q as usize, q, "slot map out of sync");
        debug_assert_eq!(rec.len, 0, "releasing a non-empty queue");
        debug_assert_eq!(rec.flushed_at, self.samples, "releasing an unflushed queue");
        self.total_sum[q] += rec.occupancy_sum;
        self.total_high[q] = self.total_high[q].max(rec.high_water);
        self.total_carried[q] += rec.carried;
        self.slot_of[q] = NONE;
        self.free.push(slot as u32);
    }

    /// Enqueues `packet` on queue `q`; returns `false` (leaving the queue
    /// unchanged) when full.
    #[inline]
    pub fn push(&mut self, q: usize, packet: Packet) -> bool {
        let slot = match self.slot_of[q] {
            NONE => self.activate(q),
            slot => slot as usize,
        };
        let samples = self.samples;
        let rec = &mut self.active[slot];
        if rec.len as usize >= self.capacity {
            return false;
        }
        Self::flush(rec, samples);
        let mut pos = rec.head as usize + rec.len as usize;
        if pos >= self.capacity {
            pos -= self.capacity;
        }
        rec.len += 1;
        rec.high_water = rec.high_water.max(rec.len);
        self.slab[slot * self.capacity + pos] = packet;
        true
    }

    /// Dequeues the head packet of queue `q`, if any.
    #[inline]
    pub fn pop(&mut self, q: usize) -> Option<Packet> {
        let slot = match self.slot_of[q] {
            NONE => return None,
            slot => slot as usize,
        };
        let samples = self.samples;
        let rec = &mut self.active[slot];
        Self::flush(rec, samples);
        let pos = rec.head as usize;
        let next = pos + 1;
        rec.head = if next == self.capacity { 0 } else { next } as u16;
        rec.len -= 1;
        let drained = rec.len == 0;
        let packet = self.slab[slot * self.capacity + pos];
        if drained {
            self.release(q, slot);
        }
        Some(packet)
    }

    /// Dequeues the head packet of queue `q` and counts it as carried
    /// over the queue's link. The queue must be non-empty.
    #[inline]
    pub fn pop_carried(&mut self, q: usize) -> Packet {
        let slot = self.slot_of[q];
        debug_assert_ne!(slot, NONE, "pop_carried on an empty queue");
        let slot = slot as usize;
        let samples = self.samples;
        let rec = &mut self.active[slot];
        Self::flush(rec, samples);
        let pos = rec.head as usize;
        let next = pos + 1;
        rec.head = if next == self.capacity { 0 } else { next } as u16;
        rec.len -= 1;
        rec.carried += 1;
        let drained = rec.len == 0;
        let packet = self.slab[slot * self.capacity + pos];
        if drained {
            self.release(q, slot);
        }
        packet
    }

    /// Peeks at the head packet of queue `q`.
    #[inline]
    pub fn head(&self, q: usize) -> Option<&Packet> {
        match self.slot_of[q] {
            NONE => None,
            slot => {
                let rec = &self.active[slot as usize];
                Some(&self.slab[slot as usize * self.capacity + rec.head as usize])
            }
        }
    }

    /// Calls `f` with every queue index ever activated, in ascending
    /// order. Every queue with a non-zero statistic is among them.
    pub fn for_each_touched(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.ever.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w << 6 | bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Number of live (non-empty) queues across the whole arena.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.active.len() - self.free.len()
    }

    /// Calls `f` with the flat index of every live queue, in arbitrary
    /// order. Freed slots keep `len == 0` (release asserts it), so a
    /// non-zero length identifies exactly the live records.
    #[inline]
    pub fn for_each_live(&self, mut f: impl FnMut(u32)) {
        for rec in &self.active {
            if rec.len > 0 {
                f(rec.q);
            }
        }
    }

    /// Records one occupancy sample point for every queue (call once per
    /// cycle); O(1) like [`crate::QueueArena::tick`].
    #[inline]
    pub fn tick(&mut self) {
        self.samples += 1;
    }

    /// Advances the sample counter by `span` cycles in one jump — the
    /// event-driven engine's idle-span skip. Exactly equivalent to `span`
    /// ticks: the lazy flush credits each active queue's standing length
    /// for the whole span on its next mutation, and inactive queues
    /// contribute `0` either way.
    #[inline]
    pub fn fast_forward(&mut self, span: u64) {
        self.samples += span;
    }

    /// Packets carried over queue `q`'s link so far.
    pub fn carried(&self, q: usize) -> u64 {
        let mut total = self.total_carried[q];
        if let Some(&slot) = self.slot_of.get(q) {
            if slot != NONE {
                total += self.active[slot as usize].carried;
            }
        }
        total
    }

    /// Largest occupancy ever observed on queue `q`.
    pub fn high_water(&self, q: usize) -> usize {
        let mut high = self.total_high[q];
        if self.slot_of[q] != NONE {
            high = high.max(self.active[self.slot_of[q] as usize].high_water);
        }
        high as usize
    }

    /// Mean occupancy of queue `q` over all sample points (0.0 when never
    /// sampled) — the same value [`crate::QueueArena::mean_occupancy`]
    /// computes: completed episodes' sums, the live episode's flushed
    /// sum, and the pending unflushed span, all in `u64`, divided once.
    pub fn mean_occupancy(&self, q: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let mut total = self.total_sum[q];
        if self.slot_of[q] != NONE {
            let rec = &self.active[self.slot_of[q] as usize];
            let pending = self.samples - rec.flushed_at;
            total += rec.occupancy_sum + rec.len as u64 * pending;
        }
        total as f64 / self.samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueArena;
    use iadm_rng::{Rng, StdRng};

    fn pkt(id: u64) -> Packet {
        Packet::new(id as usize, 0)
    }

    #[test]
    fn fifo_order_and_independence() {
        let mut a = ActiveArena::new(4, 3);
        assert!(a.push(0, pkt(1)));
        assert!(a.push(0, pkt(2)));
        assert!(a.push(3, pkt(9)));
        assert_eq!(a.pop(0).unwrap().dest, 1);
        assert_eq!(a.pop(0).unwrap().dest, 2);
        assert_eq!(a.pop(0), None);
        assert_eq!(a.pop(3).unwrap().dest, 9);
    }

    #[test]
    fn rejects_when_full_and_reports_len() {
        let mut a = ActiveArena::new(1, 2);
        assert!(!a.is_full(0), "an inactive queue is empty, not full");
        assert!(a.push(0, pkt(1)));
        assert!(a.push(0, pkt(2)));
        assert!(a.is_full(0));
        assert!(!a.push(0, pkt(3)));
        assert_eq!(a.len(0), 2);
    }

    #[test]
    fn dense_slots_recycle_across_episodes() {
        // Draining a queue frees its slot; a different queue's next
        // activation reuses it, keeping the dense set proportional to the
        // non-empty queues rather than the ever-touched ones.
        let mut a = ActiveArena::new(100, 2);
        a.push(7, pkt(1));
        a.pop(7);
        a.push(42, pkt(2));
        assert_eq!(a.active.len(), 1, "one slot serves both episodes");
        assert_eq!(a.head(42).unwrap().dest, 2);
        assert!(a.is_empty(7));
    }

    #[test]
    fn statistics_survive_episode_boundaries() {
        let mut a = ActiveArena::new(2, 4);
        a.push(0, pkt(1));
        a.tick(); // one sample at length 1
        assert_eq!(a.pop_carried(0).dest, 1); // episode ends
        a.tick();
        a.tick(); // two samples at length 0
        a.push(0, pkt(2)); // second episode
        a.tick(); // one sample at length 1
        assert_eq!(a.carried(0), 1);
        assert_eq!(a.high_water(0), 1);
        assert!((a.mean_occupancy(0) - 2.0 / 4.0).abs() < 1e-12);
    }

    /// The load-bearing contract: a random operation soup produces
    /// exactly the statistics the flat arena produces, episode folds,
    /// idle spans, fast-forward jumps and all.
    #[test]
    fn matches_queue_arena_exactly_under_random_soup() {
        let queues = 13;
        let capacity = 3;
        let mut flat = QueueArena::new(queues, capacity);
        let mut dense = ActiveArena::new(queues, capacity);
        let mut rng = StdRng::seed_from_u64(0xACED);
        for _ in 0..5000 {
            let q = rng.gen_range(0..queues);
            match rng.gen_range(0..6) {
                0 | 1 => {
                    let p = pkt(rng.gen_range(0..queues) as u64);
                    assert_eq!(flat.push(q, p), dense.push(q, p));
                }
                2 => {
                    let a = flat.pop(q);
                    let b = dense.pop(q);
                    assert_eq!(a.map(|p| p.dest), b.map(|p| p.dest));
                }
                3 => {
                    if flat.len(q) > 0 {
                        assert_eq!(flat.pop_carried(q).dest, dense.pop_carried(q).dest);
                    }
                }
                4 => {
                    flat.tick();
                    dense.tick();
                }
                _ => {
                    // Idle span: the flat arena ticks cycle by cycle, the
                    // dense one jumps — the integrals must not notice.
                    let span = rng.gen_range(1..20) as u64;
                    for _ in 0..span {
                        flat.tick();
                    }
                    dense.fast_forward(span);
                }
            }
            assert_eq!(flat.len(q), dense.len(q));
            assert_eq!(flat.is_full(q), dense.is_full(q));
            assert_eq!(flat.head(q).map(|p| p.dest), dense.head(q).map(|p| p.dest));
        }
        for q in 0..queues {
            assert_eq!(flat.carried(q), dense.carried(q), "queue {q} carried");
            assert_eq!(flat.high_water(q), dense.high_water(q), "queue {q} peak");
            let fm = flat.mean_occupancy(q);
            let dm = dense.mean_occupancy(q);
            assert!(
                fm.to_bits() == dm.to_bits(),
                "queue {q} mean occupancy diverged: {fm} vs {dm}"
            );
        }
    }

    #[test]
    fn touched_queues_are_visited_once_in_ascending_order() {
        let mut a = ActiveArena::new(200, 2);
        for q in [130, 7, 64, 63, 7, 199, 0] {
            a.push(q, pkt(1));
            a.pop(q);
        }
        let mut seen = Vec::new();
        a.for_each_touched(|q| seen.push(q));
        assert_eq!(seen, [0, 7, 63, 64, 130, 199]);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = ActiveArena::new(1, 0);
    }
}
