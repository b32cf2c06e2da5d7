//! The [`Layout::BitParallel`] product-BFS kernel: word-packed
//! frontier/visited bitmaps over the dense `(state, positions)`
//! configuration space of a synchronized atom of arity 2 or 3.
//!
//! The flat BFS ([`crate::product`]) walks configurations one at a time
//! through a word queue; per visited configuration it pays a hash-set
//! probe, a copy onto the queue, and a pop. This kernel
//! replaces all three with bits: a configuration is one bit at index
//! `encode(q, pos) = ((q·|V| + pos₀)·|V| + pos₁)…`, the visited set and
//! the current/next frontiers are `u64`-word bitmaps, and a transition
//! step decodes the positions and drives the flat path's slice odometer
//! over CSR successor ranges, marking successors as bits. Frontier words
//! are tracked in explicit word lists so levels iterate only nonzero
//! words, and dirty words are wiped lazily at the *next* call, so a
//! call's cost is proportional to the configurations it actually reached
//! — never to the configuration space.
//!
//! The kernel is only entered for atoms of arity 2–3 whose space fits the
//! dense-bitmap gate, and only in non-witness mode; witness traces and
//! over-large or wider spaces fall back to the flat scalar path, and
//! arity-1 atoms are decided by the single-track sweep of
//! [`crate::semijoin`] under both layouts. That is why
//! `Layout::BitParallel` is answer-bit-identical to `Layout::Flat` by
//! construction on the shared enumeration machinery.
//!
//! This module is bit-parallel-hot (xtask lint rule 7): per-element map
//! probes (`.get(`/`.insert(`) are forbidden here — state must live in
//! word ops over bitmaps or in index arithmetic, not hash probes.
//!
//! [`Layout::BitParallel`]: crate::product::Layout::BitParallel

use crate::governor::Pacer;
use crate::product::{DenseAtom, DenseTables, ProductStats};
use crate::trace::{Phase, Tracer};
use ecrpq_automata::{BitSet, Nfa, Row, StateId, Track};
use ecrpq_graph::{GraphDb, NodeId};
use std::ops::Range;

/// A bump (arena) allocator over one `u32` pool: `alloc` hands out index
/// ranges by advancing a watermark, `reset` recycles the whole pool in
/// O(1). Answer-tuple staging and the kernel's odometer scratch carve
/// their fixed-size slices from here, so the per-call / per-assignment
/// steady state performs no heap allocation at all (the pool grows to the
/// high-water mark once and is reused).
#[derive(Default)]
pub(crate) struct BumpArena {
    pool: Vec<u32>,
    top: usize,
}

impl BumpArena {
    pub(crate) fn new() -> Self {
        BumpArena::default()
    }

    /// Recycles every allocation. Existing ranges become dangling-by-
    /// convention (they still index valid pool memory, but the next
    /// `alloc` will hand the same words out again).
    pub(crate) fn reset(&mut self) {
        self.top = 0;
    }

    /// Bumps out a zero-initialized range of `len` words.
    pub(crate) fn alloc(&mut self, len: usize) -> Range<usize> {
        let start = self.top;
        let end = start + len;
        if self.pool.len() < end {
            self.pool.resize(end, 0);
        } else {
            self.pool[start..end].fill(0);
        }
        self.top = end;
        start..end
    }

    /// The live slice behind a range handed out by [`BumpArena::alloc`].
    pub(crate) fn slice_mut(&mut self, r: Range<usize>) -> &mut [u32] {
        &mut self.pool[r]
    }
}

/// Per-atom reusable kernel state: the three bitmaps plus the word lists
/// that make clearing and iteration proportional to touched words.
pub(crate) struct BitScratch {
    /// Every configuration ever reached in the current call.
    visited: BitSet,
    /// The level currently being expanded.
    frontier: BitSet,
    /// The level being built.
    next: BitSet,
    /// Words of `visited` that went nonzero this call. Frontier bits are
    /// always a subset of visited bits, so this one list wipes all three
    /// bitmaps at the start of the next call.
    touched: Vec<u32>,
    /// Nonzero words of `frontier` (current level), deduplicated.
    cur_words: Vec<u32>,
    /// Nonzero words of `next`, deduplicated.
    nxt_words: Vec<u32>,
    /// Odometer / decode scratch of the expansion step.
    arena: BumpArena,
}

impl BitScratch {
    pub(crate) fn new(space: usize) -> Self {
        BitScratch {
            visited: BitSet::new(space),
            frontier: BitSet::new(space),
            next: BitSet::new(space),
            touched: Vec::new(),
            cur_words: Vec::new(),
            nxt_words: Vec::new(),
            arena: BumpArena::new(),
        }
    }

    /// Resident bytes of the three bitmaps — what the governor's memory
    /// ledger is charged when a worker installs a budget.
    pub(crate) fn bytes(&self) -> u64 {
        3 * 8 * self.visited.words().len() as u64
    }
}

/// Borrowed read-only inputs of one kernel run (one feasibility check).
pub(crate) struct BitBfsInput<'a> {
    pub(crate) db: &'a GraphDb,
    pub(crate) nfa: &'a Nfa<Row>,
    pub(crate) atom: &'a DenseAtom,
    pub(crate) dense: &'a DenseTables,
    pub(crate) starts: &'a [NodeId],
    pub(crate) ends: &'a [NodeId],
    /// Node-domain stride of the dense encoding (`num_nodes().max(1)`).
    pub(crate) nv: usize,
}

#[inline]
fn encode(q: StateId, pos: &[NodeId], nv: usize) -> usize {
    let mut idx = q as usize;
    for &p in pos {
        idx = idx * nv + p as usize;
    }
    idx
}

/// Sets bit `idx` in `visited` and mirrors the newly-set bit into `next`,
/// maintaining both word lists. Returns 1 when the configuration is new.
#[inline]
#[allow(clippy::too_many_arguments)]
fn set_one(
    idx: usize,
    visited: &mut BitSet,
    next: &mut BitSet,
    touched: &mut Vec<u32>,
    nxt_words: &mut Vec<u32>,
) -> u64 {
    let (w, mask) = (idx >> 6, 1u64 << (idx & 63));
    if visited.words()[w] == 0 {
        touched.push(w as u32);
    }
    let newly = visited.or_word(w, mask);
    if newly == 0 {
        return 0;
    }
    if next.words()[w] == 0 {
        nxt_words.push(w as u32);
    }
    next.or_word(w, newly);
    1
}

/// Whether some accepting configuration `(final state, ends)` is visited.
fn accepting_reached(nfa: &Nfa<Row>, ends: &[NodeId], nv: usize, visited: &BitSet) -> bool {
    (0..nfa.num_states() as StateId)
        .any(|q| nfa.is_final(q) && visited.contains(encode(q, ends, nv)))
}

/// Runs the bit-parallel level-synchronous BFS for one atom with fixed
/// endpoints. Returns `true` iff an accepting configuration is reached;
/// a `false` under a tripped pacer is unproven (the caller never memoizes
/// it — same contract as the flat path).
///
/// Counter semantics: `configurations` counts **first visits** (seed and
/// insert time), not pops — so `frontier_peak`, the maximum level
/// popcount, is bounded by `configurations` even on early-accept runs.
/// The pacer is charged per frontier-word batch (the popcount of each
/// expanded word), keeping the governor's work ledger within one word of
/// the flat path's per-configuration accounting.
pub(crate) fn run<T: Tracer>(
    input: &BitBfsInput<'_>,
    scratch: &mut BitScratch,
    pacer: &mut Pacer<'_>,
    tracer: &T,
    stats: &mut ProductStats,
) -> bool {
    let k = input.starts.len();
    let nv = input.nv;
    let nfa = input.nfa;

    // lazy reset: wipe only the words the previous call dirtied
    for i in 0..scratch.touched.len() {
        let w = scratch.touched[i] as usize;
        scratch.visited.clear_word(w);
        scratch.frontier.clear_word(w);
        scratch.next.clear_word(w);
    }
    scratch.touched.clear();
    scratch.cur_words.clear();
    scratch.nxt_words.clear();
    scratch.arena.reset();

    // seed the first level: one bit per initial state at `starts`
    let mut seeded = 0u64;
    for &q in nfa.initial_states() {
        seeded += set_one(
            encode(q, input.starts, nv),
            &mut scratch.visited,
            &mut scratch.frontier,
            &mut scratch.touched,
            &mut scratch.cur_words,
        );
    }
    stats.configurations += seeded;
    if T::ENABLED {
        tracer.count(Phase::ProductBfs, seeded);
    }
    let mut peak = seeded;
    let mut goal = accepting_reached(nfa, input.ends, nv, &scratch.visited);

    // decode/odometer scratch, carved from the bump arena
    let scratch_range = scratch.arena.alloc(3 * k);
    let csr = input.db.csr_targets();

    'bfs: while !goal && !scratch.cur_words.is_empty() {
        let mut inserted = 0u64;
        for wi in 0..scratch.cur_words.len() {
            let w = scratch.cur_words[wi] as usize;
            let fword = scratch.frontier.words()[w];
            scratch.frontier.clear_word(w);
            // cooperative budget check, one per word batch; the batch's
            // popcount is the work charged, so the shared ledger matches
            // the flat path's one-unit-per-configuration accounting
            if pacer.tick_batch_traced(u64::from(fword.count_ones()), tracer, Phase::ProductBfs) {
                stats.budget_aborts += 1;
                break 'bfs;
            }
            let mut bits = fword;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let idx = (w << 6) | b;
                inserted += expand(input, scratch, csr, idx, scratch_range.clone());
            }
        }
        stats.configurations += inserted;
        if T::ENABLED {
            tracer.count(Phase::ProductBfs, inserted);
        }
        peak = peak.max(inserted);
        goal = accepting_reached(nfa, input.ends, nv, &scratch.visited);
        // level flip: `next` becomes the frontier, the old (now empty)
        // frontier becomes the scatter target
        scratch.cur_words.clear();
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        std::mem::swap(&mut scratch.cur_words, &mut scratch.nxt_words);
    }

    stats.frontier_peak = stats.frontier_peak.max(peak);
    if T::ENABLED {
        tracer.frontier(Phase::ProductBfs, peak);
    }
    goal
}

/// Expands one configuration of arity `k ≥ 2`: decodes the positions,
/// then drives the same slice odometer as the flat path, but marks
/// successors as single bits instead of queue pushes. Decode, odometer
/// and combination scratch all live in the bump arena (`buf`), so the
/// per-configuration path allocates nothing.
fn expand(
    input: &BitBfsInput<'_>,
    scratch: &mut BitScratch,
    csr: &[NodeId],
    idx: usize,
    buf: Range<usize>,
) -> u64 {
    let nv = input.nv;
    let k = input.starts.len();
    let atom = input.atom;
    let ends = input.ends;
    // buf = [pos | odometer | combo], each k wide
    let (pos_buf, rest) = scratch.arena.slice_mut(buf).split_at_mut(k);
    let (odometer, combo) = rest.split_at_mut(k);
    let mut rem = idx;
    for i in (0..k).rev() {
        pos_buf[i] = (rem % nv) as u32;
        rem /= nv;
    }
    let q = rem as StateId;
    let mut inserted = 0u64;
    let gs = atom.state_offsets[q as usize] as usize..atom.state_offsets[q as usize + 1] as usize;
    'groups: for g in &atom.groups[gs] {
        let row = input.dense.row_of(g.row);
        // per-track successor options: a CSR range, or the parked
        // endpoint for ⊥ (encoded as an empty range carrying the node)
        let mut dead = false;
        for (i, t) in row.iter().enumerate() {
            match *t {
                Track::Pad => {
                    if pos_buf[i] != ends[i] {
                        dead = true;
                        break;
                    }
                    odometer[i] = u32::MAX; // sentinel: single parked option
                    combo[i] = ends[i];
                }
                Track::Sym(a) => {
                    let r = input.db.successor_range(pos_buf[i], a);
                    if r.is_empty() {
                        dead = true;
                        break;
                    }
                    odometer[i] = r.start as u32;
                    combo[i] = csr[r.start];
                }
            }
        }
        if dead {
            continue 'groups;
        }
        let targets = &atom.targets[g.targets_start as usize..g.targets_end as usize];
        // odometer over the per-track options; `odometer[i]` is a cursor
        // into the CSR targets column (or the parked sentinel)
        'combos: loop {
            for &q2 in targets {
                let mut idx2 = q2 as usize;
                for &c in combo.iter() {
                    idx2 = idx2 * nv + c as usize;
                }
                inserted += set_one(
                    idx2,
                    &mut scratch.visited,
                    &mut scratch.next,
                    &mut scratch.touched,
                    &mut scratch.nxt_words,
                );
            }
            let mut i = 0;
            loop {
                if i == k {
                    break 'combos;
                }
                if odometer[i] != u32::MAX {
                    let r = match row[i] {
                        Track::Sym(a) => input.db.successor_range(pos_buf[i], a),
                        Track::Pad => unreachable!("sentinel covers ⊥ tracks"),
                    };
                    let cursor = odometer[i] as usize + 1;
                    if cursor < r.end {
                        odometer[i] = cursor as u32;
                        combo[i] = csr[cursor];
                        break;
                    }
                    odometer[i] = r.start as u32;
                    combo[i] = csr[r.start];
                }
                i += 1;
            }
        }
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_arena_reuses_its_pool() {
        let mut a = BumpArena::new();
        let r1 = a.alloc(4);
        assert_eq!(r1, 0..4);
        a.slice_mut(r1.clone()).copy_from_slice(&[1, 2, 3, 4]);
        let r2 = a.alloc(2);
        assert_eq!(r2, 4..6);
        a.reset();
        // same words handed out again, re-zeroed
        let r3 = a.alloc(4);
        assert_eq!(r3, 0..4);
        assert_eq!(a.slice_mut(r3), &[0, 0, 0, 0]);
    }

    #[test]
    fn scratch_reports_bitmap_bytes() {
        let s = BitScratch::new(1000);
        // 1000 bits → 16 words/bitmap → 128 bytes × 3 bitmaps
        assert_eq!(s.bytes(), 3 * 16 * 8);
    }
}
