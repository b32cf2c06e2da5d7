//! A compact fixed-capacity bit set.
//!
//! Used for final-state sets, visited sets in subset constructions, and
//! generally wherever dense sets of small integers appear. Implemented here
//! rather than pulled from a crate because the whole substrate of the
//! reproduction is built from scratch.

use std::fmt;

/// A fixed-capacity set of `usize` values backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of addressable bits.
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Capacity (exclusive upper bound on storable values).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `i`. Returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts every value below the capacity.
    pub fn fill(&mut self) {
        self.words.fill(!0);
        // bits at or beyond the capacity stay zero
        let spare = 64 * self.words.len() - self.capacity;
        if let Some(last) = self.words.last_mut() {
            *last >>= spare;
        }
    }

    /// In-place union. Both sets must have equal capacity.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection. Both sets must have equal capacity.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self` and `other` share an element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// The backing `u64` words, least-significant bit first. Bits at or
    /// beyond `capacity` are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// ORs `mask` into word `w` and returns the bits that were newly set
    /// (`mask & !old`). The caller is responsible for keeping `mask`
    /// within `capacity`; word `w` must exist.
    #[inline]
    pub fn or_word(&mut self, w: usize, mask: u64) -> u64 {
        let old = self.words[w];
        self.words[w] = old | mask;
        mask & !old
    }

    /// Zeroes word `w` (no-op when `w` is past the last word).
    #[inline]
    pub fn clear_word(&mut self, w: usize) {
        if let Some(word) = self.words.get_mut(w) {
            *word = 0;
        }
    }

    /// In-place union that reports change: returns `true` iff `self`
    /// gained at least one element. Both sets must have equal capacity.
    pub fn union_assign(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity);
        let mut grew = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let merged = *a | b;
            grew |= merged != *a;
            *a = merged;
        }
        grew
    }

    /// Iterates over the elements in increasing order, skipping zero
    /// words without inspecting their bits. Equivalent to [`BitSet::iter`]
    /// but written as an explicit word loop so sparse sets over large
    /// capacities cost one load-and-compare per empty word.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let words = &self.words;
        let mut word_idx = 0usize;
        let mut current = 0u64;
        std::iter::from_fn(move || loop {
            if current != 0 {
                let b = current.trailing_zeros() as usize;
                current &= current - 1;
                return Some((word_idx - 1) * 64 + b);
            }
            // word-skipping fast path: scan for the next nonzero word
            while word_idx < words.len() && words[word_idx] == 0 {
                word_idx += 1;
            }
            if word_idx >= words.len() {
                return None;
            }
            current = words[word_idx];
            word_idx += 1;
        })
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Builds a set from an iterator of elements.
    pub fn from_iter_with_capacity(capacity: usize, it: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::new(capacity);
        for i in it {
            s.insert(i);
        }
        s
    }
}

/// Iterator over set elements.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let b = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + b);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(200);
        assert!(s.insert(3));
        assert!(s.insert(130));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(s.contains(130));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fill_stops_at_the_capacity() {
        for capacity in [0, 1, 63, 64, 65, 200] {
            let mut s = BitSet::new(capacity);
            s.fill();
            assert_eq!(s.len(), capacity);
            assert_eq!(s, BitSet::from_iter_with_capacity(capacity, 0..capacity));
        }
    }

    #[test]
    fn iter_in_order() {
        let s = BitSet::from_iter_with_capacity(300, [299, 0, 64, 63, 65]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![0, 63, 64, 65, 299]);
    }

    #[test]
    fn boolean_ops() {
        let a = BitSet::from_iter_with_capacity(100, [1, 2, 3, 70]);
        let b = BitSet::from_iter_with_capacity(100, [2, 3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 70]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 70]);
        assert!(a.intersects(&b));
        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(9);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(9));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn or_word_reports_newly_set_bits() {
        let mut s = BitSet::new(130);
        assert_eq!(s.or_word(0, 0b1010), 0b1010);
        assert_eq!(s.or_word(0, 0b1100), 0b0100);
        assert_eq!(s.or_word(0, 0b1110), 0);
        assert!(s.contains(1) && s.contains(2) && s.contains(3));
        assert_eq!(s.or_word(2, 1), 1);
        assert!(s.contains(128));
        s.clear_word(0);
        assert!(!s.contains(1));
        assert!(s.contains(128));
        s.clear_word(9999); // past the end: no-op, no panic
    }

    #[test]
    fn union_assign_reports_growth() {
        let mut a = BitSet::from_iter_with_capacity(100, [1, 70]);
        let b = BitSet::from_iter_with_capacity(100, [1, 2]);
        assert!(a.union_assign(&b));
        assert!(!a.union_assign(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 70]);
    }

    #[test]
    fn iter_ones_matches_iter_on_sparse_sets() {
        let s = BitSet::from_iter_with_capacity(100_000, [0, 63, 64, 65_537, 99_999]);
        assert_eq!(
            s.iter_ones().collect::<Vec<_>>(),
            s.iter().collect::<Vec<_>>()
        );
        let empty = BitSet::new(10_000);
        assert_eq!(empty.iter_ones().count(), 0);
    }
}
