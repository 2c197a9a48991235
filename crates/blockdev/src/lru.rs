//! An exact least-recently-used map with O(1) operations.
//!
//! [`LruMap`] is the one eviction mechanism under every cache in the
//! workspace: [`crate::BufferCache`], the plaintext-block shards of the
//! hidden read cache and its derived-key cache.  It holds no capacity of its
//! own — each cache decides *when* to evict (before or after an insert, one
//! victim or several) and calls [`LruMap::pop_lru`], or
//! [`LruMap::replace_lru`] to hand the victim's slot and value to the
//! incoming key; the map only keeps the recency order exact.
//!
//! # Representation and invariants
//!
//! Entries live in a dense slab (`Vec<Node>`), threaded on a doubly-linked
//! list by slab index, with a `HashMap<K, u32>` from key to slab index.
//! Safe code only: links are indices, never pointers.
//!
//! * `index.len() == nodes.len()`, and `index[k] == i` exactly when
//!   `nodes[i].key == k` — every node is indexed under its own key, once.
//! * Walking `newer` links from `lru` visits every node exactly once and
//!   ends at `mru`; walking `older` links from `mru` visits the same nodes
//!   in reverse.  The ends' outward links are `NIL`; an empty map has
//!   `mru == lru == NIL`.
//! * List order *is* recency: [`get`](LruMap::get) and
//!   [`insert`](LruMap::insert) move the entry to the MRU end (a no-op when
//!   it is already there), [`replace_lru`](LruMap::replace_lru) moves the
//!   LRU entry there under its new key, and [`demote`](LruMap::demote)
//!   moves an entry to the LRU end, ahead of every other victim;
//!   [`peek`](LruMap::peek),
//!   [`peek_lru`](LruMap::peek_lru), [`contains_key`](LruMap::contains_key)
//!   and [`values_mut`](LruMap::values_mut) never reorder;
//!   [`remove`](LruMap::remove), [`pop_lru`](LruMap::pop_lru) and
//!   [`retain`](LruMap::retain) keep the relative order of the survivors.
//! * The slab stays dense: removing slot `i` moves the last node into it
//!   (`swap_remove`) and re-points that node's index entry and its two list
//!   neighbours (or the list ends) at `i`.  A re-keyed victim keeps its
//!   slot, so an evict-and-insert moves no other node.
//!
//! The order is exactly the one a per-entry "last used" tick with a min-scan
//! victim search produces (a demotion takes a tick below every other); the
//! tests keep that simple model as the oracle.
//!
//! # The index's hasher
//!
//! The index hashes with `IndexHasher`, a multiply-rotate hash costing one
//! multiply per 8-byte word, instead of std's SipHash, which every lookup
//! under a cache lock used to pay.  SipHash's seeded keys exist to stop an
//! outside party from choosing keys that collide (HashDoS).  No key here is
//! chosen by an outside party: the callers index block numbers the
//! allocator hands out, `(generation, block)` pairs the read cache mints,
//! and SHA-256 outputs (derived-key ids), which nobody can steer towards a
//! collision without steering SHA-256.  Each map is also bounded by its
//! cache's capacity, so even a degenerate key set costs probes, never
//! memory.  The index is never iterated — recency lives in the list and
//! `retain`/`values_mut` walk the slab — so the hash decides no eviction,
//! no device traffic and no image.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The index's hash (module docs): each word is folded in by a xor and a
/// multiply by an odd constant; `finish` rotates the well-mixed high bits
/// into the low bits the table's bucket index uses.
#[derive(Default)]
struct IndexHasher(u64);

/// 2^64 divided by the golden ratio, rounded to odd.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl IndexHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type Index<K> = HashMap<K, u32, BuildHasherDefault<IndexHasher>>;

/// "No node": the outward link of either list end.
const NIL: u32 = u32::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    /// Next more recently used node (`NIL` at the MRU end).
    newer: u32,
    /// Next less recently used node (`NIL` at the LRU end).
    older: u32,
}

/// A hash map that also keeps its entries in exact least-recently-used
/// order; see the module docs for the invariants.
pub struct LruMap<K, V> {
    index: Index<K>,
    nodes: Vec<Node<K, V>>,
    mru: u32,
    lru: u32,
}

impl<K: Hash + Eq + Clone, V> Default for LruMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone, V> LruMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        LruMap {
            index: Index::default(),
            nodes: Vec::new(),
            mru: NIL,
            lru: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True if `key` is present.  Does not touch the recency order.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The value of `key`, which becomes the most recently used entry.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        self.touch(i);
        Some(&mut self.nodes[i as usize].value)
    }

    /// The value of `key`, without touching the recency order.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let i = *self.index.get(key)?;
        Some(&self.nodes[i as usize].value)
    }

    /// The least recently used entry — the one [`Self::pop_lru`] would
    /// remove — without removing or touching it.
    pub fn peek_lru(&self) -> Option<(&K, &V)> {
        let node = self.nodes.get(self.lru as usize)?;
        Some((&node.key, &node.value))
    }

    /// Insert `value` under `key` as the most recently used entry; returns
    /// the value it replaced, if `key` was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let next = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("LruMap holds fewer than u32::MAX entries");
        match self.index.entry(key) {
            Entry::Occupied(slot) => {
                let i = *slot.get();
                self.touch(i);
                Some(std::mem::replace(&mut self.nodes[i as usize].value, value))
            }
            Entry::Vacant(slot) => {
                self.nodes.push(Node {
                    key: slot.key().clone(),
                    value,
                    newer: NIL,
                    older: NIL,
                });
                slot.insert(next);
                self.link_as_mru(next);
                None
            }
        }
    }

    /// Make `key` the least recently used entry — the next
    /// [`Self::pop_lru`] victim.  Returns false if `key` is absent.
    pub fn demote(&mut self, key: &K) -> bool {
        let Some(&i) = self.index.get(key) else {
            return false;
        };
        if self.lru != i {
            self.unlink(i);
            self.link_as_lru(i);
        }
        true
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = *self.index.get(key)?;
        Some(self.remove_at(i).value)
    }

    /// Remove and return the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.lru == NIL {
            return None;
        }
        let node = self.remove_at(self.lru);
        Some((node.key, node.value))
    }

    /// Re-key the least recently used entry to `key` in place and make it
    /// the most recent; returns the victim's old key and its value, left
    /// for the caller to overwrite.  The order ends up as
    /// [`Self::pop_lru`] then [`Self::insert`] of `key` would leave it, but
    /// no other node moves: the victim keeps its slab slot.  `None` on an
    /// empty map.
    ///
    /// # Panics
    ///
    /// If `key` is already present.
    pub fn replace_lru(&mut self, key: K) -> Option<(K, &mut V)> {
        let i = self.lru;
        if i == NIL {
            return None;
        }
        let Entry::Vacant(slot) = self.index.entry(key) else {
            panic!("replace_lru: the key is already present");
        };
        let old = std::mem::replace(&mut self.nodes[i as usize].key, slot.key().clone());
        slot.insert(i);
        self.index.remove(&old);
        self.touch(i);
        Some((old, &mut self.nodes[i as usize].value))
    }

    /// Keep only the entries `keep` returns true for (it may mutate the
    /// value first — the purge paths zero a buffer they are about to drop).
    /// O(n); survivors keep their relative order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        let mut i = 0;
        while i < self.nodes.len() {
            let node = &mut self.nodes[i];
            if keep(&node.key, &mut node.value) {
                i += 1;
            } else {
                // The last node moves into slot `i`: visit that slot again.
                self.remove_at(i as u32);
            }
        }
    }

    /// Every value, in no particular order, without touching the recency
    /// order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.nodes.iter_mut().map(|n| &mut n.value)
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.mru = NIL;
        self.lru = NIL;
    }

    /// Move node `i` to the MRU end.
    fn touch(&mut self, i: u32) {
        if self.mru != i {
            self.unlink(i);
            self.link_as_mru(i);
        }
    }

    /// Take node `i` out of the list (its own links are left stale).
    fn unlink(&mut self, i: u32) {
        let node = &self.nodes[i as usize];
        let (newer, older) = (node.newer, node.older);
        self.set_older_of(newer, older);
        self.set_newer_of(older, newer);
    }

    /// Make `to` what lies on the older side of node `n` — or, when `n` is
    /// `NIL` (past the MRU end), the MRU end itself.
    fn set_older_of(&mut self, n: u32, to: u32) {
        match n {
            NIL => self.mru = to,
            n => self.nodes[n as usize].older = to,
        }
    }

    /// Make `to` what lies on the newer side of node `n` — or, when `n` is
    /// `NIL` (past the LRU end), the LRU end itself.
    fn set_newer_of(&mut self, n: u32, to: u32) {
        match n {
            NIL => self.lru = to,
            n => self.nodes[n as usize].newer = to,
        }
    }

    /// Put the unlinked node `i` at the MRU end.
    fn link_as_mru(&mut self, i: u32) {
        let old = std::mem::replace(&mut self.mru, i);
        let node = &mut self.nodes[i as usize];
        node.newer = NIL;
        node.older = old;
        self.set_newer_of(old, i);
    }

    /// Put the unlinked node `i` at the LRU end.
    fn link_as_lru(&mut self, i: u32) {
        let old = std::mem::replace(&mut self.lru, i);
        let node = &mut self.nodes[i as usize];
        node.older = NIL;
        node.newer = old;
        self.set_older_of(old, i);
    }

    /// Unlink and un-index node `i` and take it out of the slab, re-homing
    /// the last node into the freed slot.
    fn remove_at(&mut self, i: u32) -> Node<K, V> {
        self.unlink(i);
        let node = self.nodes.swap_remove(i as usize);
        self.index.remove(&node.key);
        if let Some(moved) = self.nodes.get(i as usize) {
            *self
                .index
                .get_mut(&moved.key)
                .expect("every node is indexed") = i;
            let (newer, older) = (moved.newer, moved.older);
            self.set_older_of(newer, i);
            self.set_newer_of(older, i);
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<K: Hash + Eq + Clone, V> LruMap<K, V> {
        /// Keys from most to least recently used, checking every structural
        /// invariant of the module docs on the way.
        pub(crate) fn checked_order(&self) -> Vec<K> {
            assert_eq!(self.index.len(), self.nodes.len());
            for (i, node) in self.nodes.iter().enumerate() {
                assert_eq!(self.index.get(&node.key), Some(&(i as u32)));
            }
            let mut down = Vec::new();
            let (mut at, mut came_from) = (self.mru, NIL);
            while at != NIL {
                let node = &self.nodes[at as usize];
                assert_eq!(node.newer, came_from, "newer link of slot {at}");
                down.push(node.key.clone());
                assert!(down.len() <= self.nodes.len(), "cycle in the list");
                (came_from, at) = (at, node.older);
            }
            assert_eq!(came_from, self.lru, "walk from mru ends at lru");
            assert_eq!(down.len(), self.nodes.len(), "list reaches every node");
            let mut up = Vec::new();
            let mut at = self.lru;
            while at != NIL {
                up.push(self.nodes[at as usize].key.clone());
                assert!(up.len() <= self.nodes.len(), "cycle in the list");
                at = self.nodes[at as usize].newer;
            }
            up.reverse();
            assert!(up == down, "the two walks disagree");
            down
        }
    }

    /// The design `LruMap` replaced, kept as its oracle: every entry carries
    /// the tick of its last use and the victim is found by a min-scan.  A
    /// demotion takes a tick below every tick handed out so far.
    #[derive(Default)]
    struct TickMap {
        map: HashMap<u8, (u32, i64)>,
        tick: i64,
        low: i64,
    }

    impl TickMap {
        fn next_tick(&mut self) -> i64 {
            self.tick += 1;
            self.tick
        }

        fn demote(&mut self, key: u8) -> bool {
            let Some(entry) = self.map.get_mut(&key) else {
                return false;
            };
            self.low -= 1;
            entry.1 = self.low;
            true
        }

        fn get(&mut self, key: u8) -> Option<u32> {
            let tick = self.next_tick();
            let entry = self.map.get_mut(&key)?;
            entry.1 = tick;
            Some(entry.0)
        }

        fn insert(&mut self, key: u8, value: u32) -> Option<u32> {
            let tick = self.next_tick();
            self.map.insert(key, (value, tick)).map(|(v, _)| v)
        }

        fn lru_key(&self) -> Option<u8> {
            self.map.iter().min_by_key(|(_, e)| e.1).map(|(&k, _)| k)
        }

        fn pop_lru(&mut self) -> Option<(u8, u32)> {
            let key = self.lru_key()?;
            self.map.remove(&key).map(|(v, _)| (key, v))
        }

        /// Keys from most to least recently used.
        fn order(&self) -> Vec<u8> {
            let mut keys: Vec<u8> = self.map.keys().copied().collect();
            keys.sort_by_key(|k| std::cmp::Reverse(self.map[k].1));
            keys
        }
    }

    #[test]
    fn get_and_insert_touch_but_peeks_do_not() {
        let mut m = LruMap::new();
        assert!(m.is_empty() && m.pop_lru().is_none() && m.peek_lru().is_none());
        for k in 0..4u8 {
            assert_eq!(m.insert(k, u32::from(k) * 10), None);
        }
        assert_eq!(m.checked_order(), [3, 2, 1, 0]);
        assert_eq!(m.get(&1).copied(), Some(10));
        assert_eq!(m.get(&1).copied(), Some(10), "already MRU: a no-op");
        assert_eq!(m.checked_order(), [1, 3, 2, 0]);
        assert_eq!(m.peek(&0), Some(&0));
        assert!(m.contains_key(&0) && !m.contains_key(&9));
        assert_eq!(m.peek_lru(), Some((&0, &0)));
        assert_eq!(m.checked_order(), [1, 3, 2, 0], "peeks leave the order");
        assert_eq!(m.insert(0, 99), Some(0), "re-insert returns the old value");
        assert_eq!(m.checked_order(), [0, 1, 3, 2]);
        assert_eq!(m.pop_lru(), Some((2, 20)));
        assert_eq!(m.remove(&1), Some(10));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.checked_order(), [0, 3]);
        assert!(m.demote(&0) && m.demote(&0), "already LRU: a no-op");
        assert_eq!(m.checked_order(), [3, 0]);
        assert_eq!(m.peek_lru(), Some((&0, &99)));
        assert!(!m.demote(&1));
        for v in m.values_mut() {
            *v += 1;
        }
        assert_eq!((m.peek(&0), m.peek(&3)), (Some(&100), Some(&31)));
        m.clear();
        assert_eq!(m.len(), 0);
        assert!(m.checked_order().is_empty());
        m.insert(7, 7);
        assert_eq!(m.checked_order(), [7], "usable after clear");
    }

    #[test]
    fn replace_lru_rekeys_the_victim_in_its_slot() {
        let mut m = LruMap::new();
        assert!(m.replace_lru(9).is_none(), "an empty map has no victim");
        for k in 0..4u8 {
            m.insert(k, u32::from(k));
        }
        let victim_slot = m.index[&0];
        let (old, value) = m.replace_lru(7).expect("a victim");
        assert_eq!((old, *value), (0, 0));
        *value = 70;
        assert_eq!(m.checked_order(), [7, 3, 2, 1]);
        assert_eq!(m.index[&7], victim_slot, "the victim keeps its slot");
        assert_eq!(m.peek(&7), Some(&70));
        assert!(!m.contains_key(&0));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn replace_lru_refuses_a_present_key() {
        let mut m = LruMap::new();
        m.insert(1u8, 1u32);
        m.insert(2, 2);
        m.replace_lru(2);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// A bounded cache's evict-and-insert done in place matches the
        /// model's pop-then-insert, in order and in every value.
        #[test]
        fn replace_lru_matches_pop_then_insert(
            capacity in 1usize..=6,
            ops in proptest::collection::vec((0u8..4, 0u8..8, any::<u32>()), 0..200),
        ) {
            let mut lru: LruMap<u8, u32> = LruMap::new();
            let mut model = TickMap::default();
            for (op, key, value) in ops {
                match op {
                    0 => prop_assert_eq!(lru.get(&key).copied(), model.get(key)),
                    1 => prop_assert_eq!(lru.demote(&key), model.demote(key)),
                    _ => {
                        if let Some(v) = lru.get(&key) {
                            *v = value;
                            model.insert(key, value);
                        } else if lru.len() >= capacity {
                            let (old, v) = lru.replace_lru(key).expect("full map");
                            prop_assert_eq!(Some((old, *v)), model.pop_lru());
                            *v = value;
                            model.insert(key, value);
                        } else {
                            prop_assert_eq!(lru.insert(key, value), model.insert(key, value));
                        }
                    }
                }
                prop_assert_eq!(lru.checked_order(), model.order());
                for k in 0..8u8 {
                    prop_assert_eq!(lru.peek(&k).copied(), model.map.get(&k).map(|e| e.0));
                }
            }
        }

        #[test]
        fn random_ops_match_the_tick_model(
            capacity in 1usize..=6,
            ops in proptest::collection::vec((0u8..13, 0u8..8, any::<u32>()), 0..200),
        ) {
            let mut lru: LruMap<u8, u32> = LruMap::new();
            let mut model = TickMap::default();
            for (op, key, value) in ops {
                match op {
                    0..=2 => prop_assert_eq!(lru.get(&key).copied(), model.get(key)),
                    3 => prop_assert_eq!(lru.peek(&key).copied(), model.map.get(&key).map(|e| e.0)),
                    // A bounded cache's insert: evict first when full.
                    4..=7 => {
                        if lru.len() >= capacity && !lru.contains_key(&key) {
                            prop_assert_eq!(lru.peek_lru().map(|(k, _)| *k), model.lru_key());
                            prop_assert_eq!(lru.pop_lru(), model.pop_lru());
                        }
                        prop_assert_eq!(lru.insert(key, value), model.insert(key, value));
                    }
                    8 => prop_assert_eq!(lru.remove(&key), model.map.remove(&key).map(|e| e.0)),
                    9 => prop_assert_eq!(lru.pop_lru(), model.pop_lru()),
                    10 => {
                        // Drop a value-dependent subset; the closure may
                        // mutate what it judges, kept or not.
                        let keep = |k: &u8, v: &mut u32| {
                            *v ^= 1;
                            (u32::from(*k) + *v) % 3 != value % 3
                        };
                        lru.retain(keep);
                        model.map.retain(|k, e| keep(k, &mut e.0));
                    }
                    11 => prop_assert_eq!(lru.demote(&key), model.demote(key)),
                    _ => {
                        lru.values_mut().for_each(|v| *v = v.wrapping_add(value));
                        model.map.values_mut().for_each(|e| e.0 = e.0.wrapping_add(value));
                    }
                }
                prop_assert_eq!(lru.checked_order(), model.order());
                for k in 0..8u8 {
                    prop_assert_eq!(lru.peek(&k).copied(), model.map.get(&k).map(|e| e.0));
                }
            }
        }
    }
}
