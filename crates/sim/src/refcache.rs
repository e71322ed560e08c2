//! Reference (pre-optimization) set-associative cache: the seed
//! implementation the SoA single-probe [`crate::cache`] replaced.
//!
//! Kept for two purposes:
//!
//! 1. **Differential testing.** The property tests drive identical
//!    operation sequences through [`RefSetAssocCache`] and
//!    [`SetAssocCache`](crate::cache::SetAssocCache) and require identical
//!    observable behaviour (hits, victims, aux tags, dirty bits) — the
//!    unit-level half of the bit-identity guarantee the golden report
//!    snapshot enforces end to end.
//! 2. **Same-run benchmarking.** `repro --bench-json` times the same
//!    access stream against both implementations, so the committed
//!    `BENCH_*.json` records the hot-path speedup measured on the machine
//!    that produced it, not numbers imported from elsewhere.
//!
//! The code is a frame-struct (array-of-structs) design whose operations
//! scan the set multiple times (`contains` then `access`, `find` twice in
//! `access_write`, a residency scan plus an invalid-way scan in
//! `peek_victim`) — exactly the costs the SoA rewrite removed. Do not use
//! it in the simulator proper.
//!
//! Its replacement state is [`RefReplacement`], a frozen copy of the
//! per-way loops that [`crate::replacement::Replacement`]'s fixed-width
//! kernels replaced, so the differential tests also check the production
//! replacement kernels against an independent implementation.

use crate::addr::BlockAddr;
use crate::cache::{CacheGeometry, Victim};
use crate::replacement::ReplacementKind;

/// RRPV width used by SRRIP/BRRIP (2 bits, values 0..=3).
const RRPV_MAX: u8 = 3;
/// "Long re-reference" insertion value for SRRIP.
const RRPV_LONG: u8 = RRPV_MAX - 1;
/// Bimodal throttle period for BIP/BRRIP (1-in-32 insertions are favored).
const BIMODAL_PERIOD: u32 = 32;

/// Reference replacement state: the original slice-loop implementation of
/// the five policies, with the same API as
/// [`Replacement`](crate::replacement::Replacement). Frozen as a test
/// oracle; do not optimize it.
#[derive(Clone, Debug)]
pub struct RefReplacement {
    kind: ReplacementKind,
    assoc: usize,
    /// One metadata byte per way per set: LRU stack depth, or RRPV.
    meta: Vec<u8>,
    /// Bimodal throttle counter shared by all sets (BIP/BRRIP only).
    bimodal_ctr: u32,
}

impl RefReplacement {
    /// Creates replacement state for `sets` sets of `assoc` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 255.
    pub fn new(kind: ReplacementKind, sets: usize, assoc: usize) -> Self {
        assert!(assoc > 0 && assoc <= 255, "associativity out of range");
        let meta = match kind {
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                (0..sets * assoc).map(|i| (i % assoc) as u8).collect()
            }
            ReplacementKind::Srrip | ReplacementKind::Brrip => vec![RRPV_MAX; sets * assoc],
        };
        RefReplacement {
            kind,
            assoc,
            meta,
            bimodal_ctr: 0,
        }
    }

    #[inline]
    fn set_meta(&mut self, set: usize) -> &mut [u8] {
        let base = set * self.assoc;
        &mut self.meta[base..base + self.assoc]
    }

    #[inline]
    fn set_meta_ref(&self, set: usize) -> &[u8] {
        let base = set * self.assoc;
        &self.meta[base..base + self.assoc]
    }

    /// Records a hit on `way` of `set`.
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize) {
        match self.kind {
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                self.promote_to_mru(set, way);
            }
            ReplacementKind::Srrip | ReplacementKind::Brrip => {
                self.set_meta(set)[way] = 0;
            }
        }
    }

    /// Records that a new block was installed in `way` of `set`.
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        match self.kind {
            ReplacementKind::Lru => self.promote_to_mru(set, way),
            ReplacementKind::Lip => self.demote_to_lru(set, way),
            ReplacementKind::Bip => {
                self.bimodal_ctr = (self.bimodal_ctr + 1) % BIMODAL_PERIOD;
                if self.bimodal_ctr == 0 {
                    self.promote_to_mru(set, way);
                } else {
                    self.demote_to_lru(set, way);
                }
            }
            ReplacementKind::Srrip => self.set_meta(set)[way] = RRPV_LONG,
            ReplacementKind::Brrip => {
                self.bimodal_ctr = (self.bimodal_ctr + 1) % BIMODAL_PERIOD;
                let rrpv = if self.bimodal_ctr == 0 {
                    RRPV_LONG
                } else {
                    RRPV_MAX
                };
                self.set_meta(set)[way] = rrpv;
            }
        }
    }

    /// Returns the way that would be evicted from `set`, without mutating
    /// any policy state: the way with the largest metadata byte (deepest
    /// stack position, or largest RRPV), lowest index on ties.
    #[inline]
    pub fn victim_way(&self, set: usize) -> usize {
        Self::argmax(self.set_meta_ref(set))
    }

    /// Chooses and returns the victim way of `set`, applying RRIP aging.
    #[inline]
    pub fn evict(&mut self, set: usize) -> usize {
        let way = self.victim_way(set);
        if matches!(self.kind, ReplacementKind::Srrip | ReplacementKind::Brrip) {
            let meta = self.set_meta(set);
            let delta = RRPV_MAX - meta[way];
            if delta > 0 {
                for m in meta.iter_mut() {
                    *m = (*m + delta).min(RRPV_MAX);
                }
            }
        }
        way
    }

    /// Clears the metadata of `way` in `set` after an invalidation so the
    /// way is preferred for the next fill.
    pub fn on_invalidate(&mut self, set: usize, way: usize) {
        let init = match self.kind {
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                (self.assoc - 1) as u8
            }
            ReplacementKind::Srrip | ReplacementKind::Brrip => RRPV_MAX,
        };
        if matches!(
            self.kind,
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip
        ) {
            self.demote_to_lru(set, way);
        }
        self.set_meta(set)[way] = init;
    }

    #[inline]
    fn argmax(meta: &[u8]) -> usize {
        let mut best = 0;
        for (i, &m) in meta.iter().enumerate() {
            if m > meta[best] {
                best = i;
            }
        }
        best
    }

    #[inline]
    fn promote_to_mru(&mut self, set: usize, way: usize) {
        let meta = self.set_meta(set);
        let old = meta[way];
        if old == 0 {
            return;
        }
        for m in meta.iter_mut() {
            if *m < old {
                *m += 1;
            }
        }
        meta[way] = 0;
    }

    #[inline]
    fn demote_to_lru(&mut self, set: usize, way: usize) {
        let assoc = self.assoc as u8;
        let meta = self.set_meta(set);
        let old = meta[way];
        if old == assoc - 1 {
            return;
        }
        for m in meta.iter_mut() {
            if *m > old {
                *m -= 1;
            }
        }
        meta[way] = assoc - 1;
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct Frame {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
    aux: u8,
}

/// Outcome of [`RefSetAssocCache::access`].
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum RefAccessOutcome {
    /// The block was resident.
    Hit,
    /// The block was installed; `evicted` names the displaced block, if any.
    Miss {
        /// The displaced block, `None` if an invalid way was used.
        evicted: Option<Victim>,
    },
}

impl RefAccessOutcome {
    /// Returns `true` for [`RefAccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, RefAccessOutcome::Hit)
    }

    /// Returns the evicted victim of a miss, if any.
    pub fn evicted(self) -> Option<Victim> {
        match self {
            RefAccessOutcome::Hit => None,
            RefAccessOutcome::Miss { evicted } => evicted,
        }
    }
}

/// The seed's frame-struct cache (see the module doc).
#[derive(Clone, Debug)]
pub struct RefSetAssocCache {
    geom: CacheGeometry,
    frames: Vec<Frame>,
    repl: RefReplacement,
}

impl RefSetAssocCache {
    /// Creates an empty cache with the given geometry and replacement policy.
    pub fn new(geom: CacheGeometry, repl: ReplacementKind) -> Self {
        RefSetAssocCache {
            geom,
            frames: vec![Frame::default(); geom.blocks()],
            repl: RefReplacement::new(repl, geom.sets(), geom.assoc()),
        }
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.geom.assoc();
        base..base + self.geom.assoc()
    }

    fn find(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_of(block);
        for (way, idx) in self.set_range(set).enumerate() {
            let f = &self.frames[idx];
            if f.valid && f.block == block {
                return Some((set, way));
            }
        }
        None
    }

    /// Returns `true` if `block` is resident, without touching policy state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Returns the aux tag of a resident block.
    pub fn aux(&self, block: BlockAddr) -> Option<u8> {
        self.find(block)
            .map(|(set, way)| self.frames[set * self.geom.assoc() + way].aux)
    }

    /// Overwrites the aux tag of a resident block.
    pub fn set_aux(&mut self, block: BlockAddr, aux: u8) -> bool {
        if let Some((set, way)) = self.find(block) {
            self.frames[set * self.geom.assoc() + way].aux = aux;
            true
        } else {
            false
        }
    }

    /// Reports which block a fill of `block` would displace.
    pub fn peek_victim(&self, block: BlockAddr) -> Option<Victim> {
        if self.contains(block) {
            return None;
        }
        let set = self.geom.set_of(block);
        for idx in self.set_range(set) {
            if !self.frames[idx].valid {
                return None;
            }
        }
        let way = self.repl.victim_way(set);
        let f = &self.frames[set * self.geom.assoc() + way];
        Some(Victim {
            block: f.block,
            aux: f.aux,
            dirty: f.dirty,
        })
    }

    /// Accesses `block`, tagging the frame with `aux`.
    pub fn access(&mut self, block: BlockAddr, aux: u8) -> RefAccessOutcome {
        if let Some((set, way)) = self.find(block) {
            self.repl.on_hit(set, way);
            self.frames[set * self.geom.assoc() + way].aux = aux;
            return RefAccessOutcome::Hit;
        }
        let evicted = self.fill(block, aux);
        RefAccessOutcome::Miss { evicted }
    }

    /// Accesses `block` for writing; also marks the frame dirty.
    pub fn access_write(&mut self, block: BlockAddr, aux: u8) -> RefAccessOutcome {
        let outcome = self.access(block, aux);
        if let Some((set, way)) = self.find(block) {
            self.frames[set * self.geom.assoc() + way].dirty = true;
        }
        outcome
    }

    /// Installs `block` (which must not be resident), returning any victim.
    pub fn fill(&mut self, block: BlockAddr, aux: u8) -> Option<Victim> {
        debug_assert!(!self.contains(block), "fill of resident block");
        let set = self.geom.set_of(block);
        let assoc = self.geom.assoc();
        let mut target = None;
        for (way, idx) in self.set_range(set).enumerate() {
            if !self.frames[idx].valid {
                target = Some((way, None));
                break;
            }
        }
        let (way, victim) = match target {
            Some(t) => t,
            None => {
                let way = self.repl.evict(set);
                let f = &self.frames[set * assoc + way];
                (
                    way,
                    Some(Victim {
                        block: f.block,
                        aux: f.aux,
                        dirty: f.dirty,
                    }),
                )
            }
        };
        self.frames[set * assoc + way] = Frame {
            block,
            valid: true,
            dirty: false,
            aux,
        };
        self.repl.on_fill(set, way);
        victim
    }

    /// Invalidates `block` if resident, returning its frame info.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Victim> {
        if let Some((set, way)) = self.find(block) {
            let idx = set * self.geom.assoc() + way;
            let f = self.frames[idx];
            self.frames[idx].valid = false;
            self.frames[idx].dirty = false;
            self.repl.on_invalidate(set, way);
            Some(Victim {
                block: f.block,
                aux: f.aux,
                dirty: f.dirty,
            })
        } else {
            None
        }
    }

    /// Clears the dirty bit of a resident block, returning whether it was
    /// dirty.
    pub fn clean(&mut self, block: BlockAddr) -> bool {
        if let Some((set, way)) = self.find(block) {
            let idx = set * self.geom.assoc() + way;
            let was = self.frames[idx].dirty;
            self.frames[idx].dirty = false;
            was
        } else {
            false
        }
    }

    /// Number of resident (valid) blocks.
    pub fn occupancy(&self) -> usize {
        self.frames.iter().filter(|f| f.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_the_seed() {
        let mut c = RefSetAssocCache::new(CacheGeometry::new(256, 2), ReplacementKind::Lru);
        let b = BlockAddr::new(4);
        assert!(!c.access(b, 1).is_hit());
        assert!(c.access(b, 2).is_hit());
        assert_eq!(c.aux(b), Some(2));
        // Set 0 full: 0, 2 -> fill of 4... (2 sets x 2 ways)
        c.access(BlockAddr::new(0), 0);
        c.access(BlockAddr::new(2), 0);
        let peek = c.peek_victim(BlockAddr::new(6));
        let got = c.access(BlockAddr::new(6), 0).evicted();
        assert_eq!(peek, got);
    }
}
