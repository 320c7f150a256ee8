//! An exact least-recently-used map, shared by the artifact cache's shards
//! and the front-end session cache.
//!
//! Entries live in a dense `Vec` of slots, each linked to its newer and
//! older neighbours by slot index, and a `HashMap` finds a key's slot. The
//! map keeps both ends of the list, so marking an entry newest is one hash
//! lookup plus a relink, and removing the oldest is two: O(1) expected,
//! whatever the number of entries. Capacity policy (a byte budget, a count
//! cap) stays with the caller, which pops the oldest entry until it is
//! within bounds.

use std::collections::HashMap;
use std::hash::Hash;

/// The end of the list: no neighbour on that side.
const NIL: usize = usize::MAX;

/// One entry and its place in the recency list.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// The slot of the next more recently used entry; [`NIL`] for the
    /// newest.
    newer: usize,
    /// The slot of the next less recently used entry; [`NIL`] for the
    /// oldest.
    older: usize,
}

/// A map that orders its entries by use: [`get`](Lru::get) and
/// [`insert`](Lru::insert) make an entry the newest, and
/// [`pop_oldest`](Lru::pop_oldest) removes the least recently used one.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    /// Each key's index into `slots`.
    index: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    newest: usize,
    oldest: usize,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            index: HashMap::new(),
            slots: Vec::new(),
            newest: NIL,
            oldest: NIL,
        }
    }
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether `key` is present, without touching its recency.
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The value under `key`, which becomes the newest entry.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let at = *self.index.get(key)?;
        self.touch(at);
        Some(&self.slots[at].value)
    }

    /// Insert `value` under `key` as the newest entry, returning the value
    /// it replaces.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&at) = self.index.get(&key) {
            self.touch(at);
            return Some(std::mem::replace(&mut self.slots[at].value, value));
        }
        let at = self.slots.len();
        self.slots.push(Slot {
            key,
            value,
            newer: NIL,
            older: NIL,
        });
        self.index.insert(key, at);
        self.link_newest(at);
        None
    }

    /// Remove and return the least recently used entry.
    pub(crate) fn pop_oldest(&mut self) -> Option<(K, V)> {
        let at = self.oldest;
        if at == NIL {
            return None;
        }
        self.unlink(at);
        let slot = self.slots.swap_remove(at);
        self.index.remove(&slot.key);
        // The last slot moved into `at`: repoint its key and neighbours.
        if let Some(moved) = self.slots.get(at) {
            let (key, newer, older) = (moved.key, moved.newer, moved.older);
            *self.index.get_mut(&key).expect("a slot's key is indexed") = at;
            match newer {
                NIL => self.newest = at,
                n => self.slots[n].older = at,
            }
            match older {
                NIL => self.oldest = at,
                o => self.slots[o].newer = at,
            }
        }
        Some((slot.key, slot.value))
    }

    /// Move slot `at` to the newest end.
    fn touch(&mut self, at: usize) {
        if self.newest != at {
            self.unlink(at);
            self.link_newest(at);
        }
    }

    /// Detach slot `at` from the list, joining its neighbours.
    fn unlink(&mut self, at: usize) {
        let Slot { newer, older, .. } = self.slots[at];
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
    }

    /// Attach slot `at` (detached) at the newest end.
    fn link_newest(&mut self, at: usize) {
        let previous = std::mem::replace(&mut self.newest, at);
        match previous {
            NIL => self.oldest = at,
            p => self.slots[p].newer = at,
        }
        let slot = &mut self.slots[at];
        slot.newer = NIL;
        slot.older = previous;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive reference: a `Vec` in recency order, oldest first.
    #[derive(Default)]
    struct Reference(Vec<(u8, u32)>);

    impl Reference {
        fn take(&mut self, key: u8) -> Option<(u8, u32)> {
            let at = self.0.iter().position(|(k, _)| *k == key)?;
            Some(self.0.remove(at))
        }

        fn get(&mut self, key: u8) -> Option<u32> {
            let entry = self.take(key)?;
            self.0.push(entry);
            Some(entry.1)
        }

        fn insert(&mut self, key: u8, value: u32) -> Option<u32> {
            let old = self.take(key).map(|(_, v)| v);
            self.0.push((key, value));
            old
        }

        fn pop_oldest(&mut self) -> Option<(u8, u32)> {
            (!self.0.is_empty()).then(|| self.0.remove(0))
        }
    }

    /// Keys along the list from slot `end`, following `next` links, after
    /// checking that every key's index entry names its slot.
    fn walk(lru: &Lru<u8, u32>, end: usize, next: fn(&Slot<u8, u32>) -> usize) -> Vec<u8> {
        assert_eq!(lru.index.len(), lru.slots.len());
        for (at, slot) in lru.slots.iter().enumerate() {
            assert_eq!(lru.index[&slot.key], at);
        }
        let mut keys = Vec::new();
        let mut at = end;
        while at != NIL {
            assert!(keys.len() < lru.slots.len(), "the list has a cycle");
            keys.push(lru.slots[at].key);
            at = next(&lru.slots[at]);
        }
        keys
    }

    #[test]
    fn matches_a_naive_reference_over_seeded_steps() {
        let mut lru = Lru::default();
        let mut reference = Reference::default();
        // splitmix64: a fixed, dependency-free step sequence.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (mut hits, mut pops) = (0, 0);
        for step in 0..10_000u32 {
            let r = next();
            // 24 keys: small enough that gets hit and inserts replace.
            let key = (r >> 8) as u8 % 24;
            match r % 8 {
                0..=3 => {
                    let got = lru.get(&key).copied();
                    hits += usize::from(got.is_some());
                    assert_eq!(got, reference.get(key), "get at step {step}");
                }
                4..=6 => {
                    let got = lru.insert(key, step);
                    assert_eq!(got, reference.insert(key, step), "insert at step {step}");
                }
                _ => {
                    let got = lru.pop_oldest();
                    pops += usize::from(got.is_some());
                    assert_eq!(got, reference.pop_oldest(), "pop at step {step}");
                }
            }
            let order: Vec<u8> = reference.0.iter().map(|(k, _)| *k).collect();
            let forwards = walk(&lru, lru.oldest, |n| n.newer);
            assert_eq!(forwards, order, "newer links after step {step}");
            let mut backwards = walk(&lru, lru.newest, |n| n.older);
            backwards.reverse();
            assert_eq!(backwards, order, "older links after step {step}");
            assert_eq!(lru.len(), order.len());
        }
        assert!(hits > 1_000 && pops > 500, "{hits} hits, {pops} pops");
    }

    #[test]
    fn contains_key_leaves_recency_alone() {
        let mut lru = Lru::default();
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert!(lru.contains_key(&1));
        assert_eq!(lru.pop_oldest(), Some((1, "a")));
        assert_eq!(lru.pop_oldest(), Some((2, "b")));
        assert_eq!(lru.pop_oldest(), None);
        assert_eq!(lru.len(), 0);
    }
}
