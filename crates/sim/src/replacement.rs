//! Cache replacement policies.
//!
//! Section 5.7 of the paper studies STREX against state-of-the-art
//! replacement policies. This module implements all five policies evaluated
//! there:
//!
//! * **LRU** — classic least-recently-used stack.
//! * **LIP** — LRU Insertion Policy (Qureshi et al., ISCA 2007): new blocks
//!   are inserted at the LRU position so a streaming footprint cannot evict
//!   the working set.
//! * **BIP** — Bimodal Insertion Policy (same paper): like LIP, but a small
//!   fraction of insertions (1/32) go to the MRU position so the cache can
//!   adapt to working-set changes.
//! * **SRRIP** — Static Re-Reference Interval Prediction (Jaleel et al.,
//!   ISCA 2010): 2-bit re-reference prediction values (RRPV), inserting at
//!   "long" (RRPV = 2) and promoting to "near-immediate" (RRPV = 0) on hits.
//! * **BRRIP** — Bimodal RRIP: inserts at "distant" (RRPV = 3) most of the
//!   time and at "long" 1/32 of the time, resisting thrashing/streaming.
//!
//! The implementation stores one metadata byte per way per set (LRU stack
//! position or RRPV), and a shared bimodal throttle counter for BIP/BRRIP.
//! All decision logic is deterministic so that a *peek* at the next victim
//! (needed by STREX's victim monitor) always agrees with the subsequent
//! eviction.
//!
//! Nearly every simulated event runs an L1 install and an L2-slice update,
//! so the per-set kernels (promotion, demotion, victim selection, RRIP
//! aging) are branch-free passes over the set's bytes, compiled for a
//! fixed width at the associativities the paper's geometries use. The
//! LRU-family victim needs no max scan: the stack is a permutation of
//! `0..assoc` in every set, so the victim is the one way at depth
//! `assoc - 1`. [`crate::refcache::RefReplacement`] keeps the original
//! per-way loops as the differential oracle these kernels are tested
//! against.

use std::fmt;

/// RRPV width used by SRRIP/BRRIP (2 bits, values 0..=3).
const RRPV_MAX: u8 = 3;
/// "Long re-reference" insertion value for SRRIP.
const RRPV_LONG: u8 = RRPV_MAX - 1;
/// Bimodal throttle period for BIP/BRRIP (1-in-32 insertions are favored).
const BIMODAL_PERIOD: u32 = 32;

/// The replacement policy family to use for a cache.
///
/// # Examples
///
/// ```
/// use strex_sim::replacement::ReplacementKind;
/// assert_eq!(ReplacementKind::default(), ReplacementKind::Lru);
/// assert_eq!(ReplacementKind::Brrip.to_string(), "BRRIP");
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum ReplacementKind {
    /// Least recently used.
    #[default]
    Lru,
    /// LRU Insertion Policy.
    Lip,
    /// Bimodal Insertion Policy.
    Bip,
    /// Static Re-Reference Interval Prediction.
    Srrip,
    /// Bimodal Re-Reference Interval Prediction.
    Brrip,
}

impl ReplacementKind {
    /// All policy kinds, in the order Figure 9 reports them.
    pub const ALL: [ReplacementKind; 5] = [
        ReplacementKind::Lru,
        ReplacementKind::Lip,
        ReplacementKind::Bip,
        ReplacementKind::Srrip,
        ReplacementKind::Brrip,
    ];
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementKind::Lru => "LRU",
            ReplacementKind::Lip => "LIP",
            ReplacementKind::Bip => "BIP",
            ReplacementKind::Srrip => "SRRIP",
            ReplacementKind::Brrip => "BRRIP",
        };
        f.write_str(s)
    }
}

/// Replacement state for every set of one cache.
///
/// The cache calls [`on_hit`](Replacement::on_hit) when an access hits,
/// [`on_fill`](Replacement::on_fill) when a block is installed, and
/// [`victim_way`](Replacement::victim_way) /
/// [`evict`](Replacement::evict) when it must choose a victim.
#[derive(Clone, Debug)]
pub struct Replacement {
    kind: ReplacementKind,
    assoc: usize,
    /// One metadata byte per way per set: LRU stack depth, or RRPV.
    meta: Vec<u8>,
    /// Bimodal throttle counter shared by all sets (BIP/BRRIP only).
    bimodal_ctr: u32,
}

impl Replacement {
    /// Creates replacement state for `sets` sets of `assoc` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than 255.
    pub fn new(kind: ReplacementKind, sets: usize, assoc: usize) -> Self {
        assert!(assoc > 0 && assoc <= 255, "associativity out of range");
        let meta = match kind {
            // The LRU stack must be a permutation of 0..assoc per set even
            // before any access, so initialize each set as the identity
            // (the cache prefers invalid ways regardless).
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                (0..sets * assoc).map(|i| (i % assoc) as u8).collect()
            }
            ReplacementKind::Srrip | ReplacementKind::Brrip => vec![RRPV_MAX; sets * assoc],
        };
        Replacement {
            kind,
            assoc,
            meta,
            bimodal_ctr: 0,
        }
    }

    /// Returns the policy family.
    pub fn kind(&self) -> ReplacementKind {
        self.kind
    }

    /// Returns the associativity this state was built for.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Raw pointer to the metadata byte at flat frame index `idx`
    /// (prefetch hints only).
    #[inline]
    pub(crate) fn meta_ptr(&self, idx: usize) -> *const u8 {
        debug_assert!(idx < self.meta.len());
        unsafe { self.meta.as_ptr().add(idx) }
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

    /// Returns the way that would be evicted from `set`, without mutating any
    /// policy state.
    ///
    /// This is the *peek* operation STREX's victim monitor relies on: the way
    /// returned here is exactly the way [`evict`](Replacement::evict) will
    /// select next (assuming no intervening hits or fills in the set).
    #[inline]
    pub fn victim_way(&self, set: usize) -> usize {
        let meta = self.set_meta_ref(set);
        match self.kind {
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                fixed(meta, lru_way)
            }
            ReplacementKind::Srrip | ReplacementKind::Brrip => {
                fixed(meta, |m| first_eq(m, max_rrpv(m)))
            }
        }
    }

    /// Chooses and returns the victim way of `set`, applying any policy
    /// mutation that eviction implies (RRIP aging).
    #[inline]
    pub fn evict(&mut self, set: usize) -> usize {
        let kind = self.kind;
        let meta = self.set_meta(set);
        match kind {
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                fixed(meta, lru_way)
            }
            // Age every way by the amount needed for the victim to reach
            // RRPV_MAX, mirroring the iterative increment loop in hardware
            // (a zero delta leaves the set unchanged).
            ReplacementKind::Srrip | ReplacementKind::Brrip => fixed_mut(meta, |m| {
                let oldest = max_rrpv(m);
                let way = first_eq(m, oldest);
                let delta = RRPV_MAX - oldest;
                for r in m.iter_mut() {
                    *r = (*r + delta).min(RRPV_MAX);
                }
                way
            }),
        }
    }

    /// Clears the metadata of `way` in `set` after an invalidation so the
    /// way is preferred for the next fill.
    pub fn on_invalidate(&mut self, set: usize, way: usize) {
        match self.kind {
            // A demotion to LRU keeps the stack a permutation.
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                self.demote_to_lru(set, way);
            }
            ReplacementKind::Srrip | ReplacementKind::Brrip => self.set_meta(set)[way] = RRPV_MAX,
        }
    }

    /// Moves `way` to stack depth 0 and pushes shallower entries down.
    #[inline]
    fn promote_to_mru(&mut self, set: usize, way: usize) {
        let meta = self.set_meta(set);
        let old = meta[way];
        fixed_mut(meta, |m| {
            for d in m.iter_mut() {
                *d += (*d < old) as u8;
            }
            m[way] = 0;
        });
    }

    /// Moves `way` to the deepest stack position, pulling deeper entries up.
    #[inline]
    fn demote_to_lru(&mut self, set: usize, way: usize) {
        let meta = self.set_meta(set);
        let old = meta[way];
        fixed_mut(meta, |m| {
            for d in m.iter_mut() {
                *d -= (*d > old) as u8;
            }
            m[way] = (m.len() - 1) as u8;
        });
    }
}

/// Runs `kernel` on one set's metadata, re-borrowed as a fixed-size
/// `[u8; N]` for the associativities the cache's tag scan dispatches
/// (Table 2: 8-way L1s, 16-way L2; 4-way in tests). With the length a
/// compile-time constant each kernel body compiles to straight-line
/// vector code; other associativities run the same body on the slice.
#[inline(always)]
fn fixed<R>(meta: &[u8], kernel: impl FnOnce(&[u8]) -> R) -> R {
    match meta.len() {
        4 => kernel(<&[u8; 4]>::try_from(meta).unwrap()),
        8 => kernel(<&[u8; 8]>::try_from(meta).unwrap()),
        16 => kernel(<&[u8; 16]>::try_from(meta).unwrap()),
        _ => kernel(meta),
    }
}

/// The mutable twin of [`fixed`].
#[inline(always)]
fn fixed_mut<R>(meta: &mut [u8], kernel: impl FnOnce(&mut [u8]) -> R) -> R {
    match meta.len() {
        4 => kernel(<&mut [u8; 4]>::try_from(meta).unwrap()),
        8 => kernel(<&mut [u8; 8]>::try_from(meta).unwrap()),
        16 => kernel(<&mut [u8; 16]>::try_from(meta).unwrap()),
        _ => kernel(meta),
    }
}

/// The LRU-family victim. The stack is a permutation of `0..assoc` in every
/// set, so the LRU way is the unique way at the deepest depth.
#[inline(always)]
fn lru_way(meta: &[u8]) -> usize {
    first_eq(meta, (meta.len() - 1) as u8)
}

/// The largest RRPV in a set. RRIP aging makes the first way holding it
/// the first to reach RRPV_MAX, i.e. the victim.
#[inline(always)]
fn max_rrpv(meta: &[u8]) -> u8 {
    meta.iter().fold(0, |oldest, &r| oldest.max(r))
}

/// The first way whose metadata byte equals `target`, which the callers
/// guarantee is present. Per 16 ways, a compare mask with one byte per way
/// (bit `8 * w` set iff way `w` matches) read as a `u128`, so its
/// `trailing_zeros` names the first match: a set of up to 16 ways is one
/// vector compare and one bit scan.
#[inline(always)]
fn first_eq(meta: &[u8], target: u8) -> usize {
    for (chunk_no, chunk) in meta.chunks(16).enumerate() {
        let mut eq = [0u8; 16];
        for (e, &m) in eq.iter_mut().zip(chunk) {
            *e = (m == target) as u8;
        }
        let mask = u128::from_le_bytes(eq);
        if mask != 0 {
            return chunk_no * 16 + mask.trailing_zeros() as usize / 8;
        }
    }
    unreachable!("no way holds metadata {target}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_positions(r: &Replacement, set: usize) -> Vec<u8> {
        r.set_meta_ref(set).to_vec()
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 4);
        for way in 0..4 {
            r.on_fill(0, way);
        }
        // Fill order 0,1,2,3 -> way 0 is LRU.
        assert_eq!(r.victim_way(0), 0);
        r.on_hit(0, 0); // way 0 becomes MRU
        assert_eq!(r.victim_way(0), 1);
    }

    #[test]
    fn lru_stack_is_a_permutation() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 8);
        for way in 0..8 {
            r.on_fill(0, way);
        }
        for &w in &[3usize, 1, 7, 3, 0] {
            r.on_hit(0, w);
            let mut pos = stack_positions(&r, 0);
            pos.sort_unstable();
            assert_eq!(pos, (0..8u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lip_inserts_at_lru() {
        let mut r = Replacement::new(ReplacementKind::Lip, 1, 4);
        for way in 0..4 {
            r.on_fill(0, way);
        }
        // The most recent fill sits at the LRU position under LIP.
        assert_eq!(r.victim_way(0), 3);
        // A hit rescues it.
        r.on_hit(0, 3);
        assert_ne!(r.victim_way(0), 3);
    }

    #[test]
    fn bip_occasionally_inserts_at_mru() {
        let mut r = Replacement::new(ReplacementKind::Bip, 1, 2);
        let mut mru_inserts = 0;
        for i in 0..(2 * BIMODAL_PERIOD as usize) {
            let way = i % 2;
            r.on_fill(0, way);
            if r.set_meta_ref(0)[way] == 0 {
                mru_inserts += 1;
            }
        }
        assert_eq!(mru_inserts, 2, "exactly 1-in-32 fills go to MRU");
    }

    #[test]
    fn srrip_promotes_on_hit_and_ages_on_evict() {
        let mut r = Replacement::new(ReplacementKind::Srrip, 1, 2);
        r.on_fill(0, 0);
        r.on_fill(0, 1);
        assert_eq!(r.set_meta_ref(0), &[RRPV_LONG, RRPV_LONG]);
        r.on_hit(0, 0);
        assert_eq!(r.set_meta_ref(0)[0], 0);
        // Way 1 has the larger RRPV, so it is the victim; eviction ages way 0.
        assert_eq!(r.victim_way(0), 1);
        let v = r.evict(0);
        assert_eq!(v, 1);
        assert_eq!(r.set_meta_ref(0)[0], 1, "other ways aged by the same delta");
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut r = Replacement::new(ReplacementKind::Brrip, 1, 1);
        let mut long_inserts = 0;
        for _ in 0..BIMODAL_PERIOD as usize {
            r.on_fill(0, 0);
            if r.set_meta_ref(0)[0] == RRPV_LONG {
                long_inserts += 1;
            }
        }
        assert_eq!(long_inserts, 1);
    }

    #[test]
    fn peek_matches_evict_for_all_kinds() {
        for kind in ReplacementKind::ALL {
            let mut r = Replacement::new(kind, 4, 8);
            // Mixed traffic over a few sets.
            for i in 0..200usize {
                let set = i % 4;
                let way = (i * 7) % 8;
                if i % 3 == 0 {
                    r.on_hit(set, way);
                } else {
                    r.on_fill(set, way);
                }
                let peek = r.victim_way(set);
                let got = r.evict(set);
                assert_eq!(peek, got, "peek/evict divergence for {kind}");
            }
        }
    }

    #[test]
    fn invalidate_prefers_way_for_next_victim() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 4);
        for way in 0..4 {
            r.on_fill(0, way);
        }
        r.on_invalidate(0, 2);
        assert_eq!(r.victim_way(0), 2);
    }

    #[test]
    #[should_panic(expected = "associativity out of range")]
    fn zero_assoc_panics() {
        let _ = Replacement::new(ReplacementKind::Lru, 1, 0);
    }
}
