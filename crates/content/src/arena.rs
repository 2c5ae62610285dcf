//! The entry arena under [`crate::policy::PolicyFleet`].
//!
//! Entries live in parallel vectors (satellite, content id, size, expiry,
//! intrusive links) with a free list and a single fleet-wide
//! `(satellite, content) → entry` hash index. Every eviction order keeps
//! its per-satellite [`List`] heads and any per-entry metadata (a visited
//! bit, a queue tag, a segment tag) in its own arrays and links them
//! through this one pool — an entry is on at most one list at a time.
//!
//! Lists are doubly linked with `head` = front (most recent / most recently
//! admitted) and `tail` = back (the eviction end); `prev` points toward the
//! head.

use crate::catalog::ContentId;
use spacecdn_geo::SimTime;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Minimal multiply-rotate hasher for the fleet's `(satellite, content)`
/// index — the single hot hash table on the traffic fast path, where
/// SipHash's per-lookup cost is measurable. Not DoS-resistant, which is
/// fine for deterministic simulation keys we generate ourselves.
#[derive(Default)]
pub(crate) struct SlotHasher {
    state: u64,
}

impl SlotHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Null link/slot marker for the intrusive lists and the free list.
pub(crate) const NIL: u32 = u32::MAX;

type SlotIndex = HashMap<(u32, ContentId), u32, BuildHasherDefault<SlotHasher>>;

/// One intrusive doubly-linked list: `head` = front, `tail` = back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct List {
    pub head: u32,
    pub tail: u32,
}

impl List {
    /// An empty list.
    pub const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    /// True when the list holds no entries.
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

impl Default for List {
    fn default() -> Self {
        List::EMPTY
    }
}

/// Entry pool: parallel vectors + free list + fleet-wide slot index.
#[derive(Default)]
pub(crate) struct EntryArena {
    pub sat: Vec<u32>,
    pub content: Vec<ContentId>,
    pub size: Vec<u64>,
    pub expiry: Vec<SimTime>,
    pub prev: Vec<u32>,
    pub next: Vec<u32>,
    free: Vec<u32>,
    index: SlotIndex,
}

impl EntryArena {
    pub fn new() -> Self {
        EntryArena::default()
    }

    /// The arena slot holding `(sat, content)`, if any.
    #[inline]
    pub fn lookup(&self, sat: u32, content: ContentId) -> Option<u32> {
        self.index.get(&(sat, content)).copied()
    }

    /// Allocate an unlinked entry and index it. The caller links it into a
    /// list.
    pub fn alloc(&mut self, sat: u32, content: ContentId, size: u64, expiry: SimTime) -> u32 {
        let e = if let Some(e) = self.free.pop() {
            let i = e as usize;
            self.sat[i] = sat;
            self.content[i] = content;
            self.size[i] = size;
            self.expiry[i] = expiry;
            self.prev[i] = NIL;
            self.next[i] = NIL;
            e
        } else {
            let e = self.sat.len() as u32;
            self.sat.push(sat);
            self.content.push(content);
            self.size.push(size);
            self.expiry.push(expiry);
            self.prev.push(NIL);
            self.next.push(NIL);
            e
        };
        self.index.insert((sat, content), e);
        e
    }

    /// Return an already-unlinked entry to the free list and drop its index
    /// record.
    pub fn release(&mut self, e: u32) {
        let i = e as usize;
        self.index.remove(&(self.sat[i], self.content[i]));
        self.free.push(e);
    }

    /// Arena slots ever allocated (the capacity watermark).
    pub fn slots(&self) -> usize {
        self.sat.len()
    }

    // -- intrusive-list plumbing -------------------------------------------

    pub fn unlink(&mut self, list: &mut List, e: u32) {
        let (prev, next) = (self.prev[e as usize], self.next[e as usize]);
        if prev == NIL {
            list.head = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next == NIL {
            list.tail = prev;
        } else {
            self.prev[next as usize] = prev;
        }
    }

    pub fn push_front(&mut self, list: &mut List, e: u32) {
        let old = list.head;
        self.prev[e as usize] = NIL;
        self.next[e as usize] = old;
        if old == NIL {
            list.tail = e;
        } else {
            self.prev[old as usize] = e;
        }
        list.head = e;
    }
}

/// Grow-on-demand helper for per-entry metadata kept parallel to the arena.
#[inline]
pub(crate) fn meta_set<T: Copy + Default>(meta: &mut Vec<T>, e: u32, value: T) {
    let i = e as usize;
    if i >= meta.len() {
        meta.resize(i + 1, T::default());
    }
    meta[i] = value;
}
