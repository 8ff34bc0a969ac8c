//! A dense set of block or AA numbers at one bit each.

/// Set of small integers (pvbns, AA ids); holds no memory until the first
/// insert and grows to the largest member.
#[derive(Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn contains(&self, i: usize) -> bool {
        let word = self.words.get(i / 64).copied().unwrap_or(0);
        word >> (i % 64) & 1 == 1
    }

    /// Add `i`; returns `true` if it was not already present.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    pub(crate) fn remove(&mut self, i: usize) {
        if let Some(word) = self.words.get_mut(i / 64) {
            *word &= !(1u64 << (i % 64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_on_insert_and_answers_past_its_end() {
        let mut set = BitSet::default();
        assert!(!set.contains(0) && !set.contains(1 << 30));
        set.remove(1 << 30);
        assert!(set.words.is_empty(), "no memory until the first insert");
        for i in [0, 63, 64, 100_000] {
            assert!(set.insert(i), "{i} is new");
            assert!(!set.insert(i), "{i} is there already");
        }
        assert!(set.contains(63) && !set.contains(62) && !set.contains(65));
        set.remove(64);
        assert!(!set.contains(64) && set.contains(63) && set.contains(100_000));
    }
}
