//! The on-chip L1 texture cache (paper §2.3, §3.3).

use mltc_cache::SetAssocCache;
use mltc_texture::{L1BlockKey, TextureId, TileSize};

/// How texture lines are shaped in host memory and therefore in the cache.
///
/// Hakura's study (which §2.3 builds on) compares *tiled* storage (square
/// texel blocks per cache line) against conventional *linear* scanline
/// storage; the paper adopts tiled storage. `Linear` keeps the same line
/// size but shapes it as a 1-texel-tall run, for the storage-format
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageFormat {
    /// Square tiles (the paper's choice).
    #[default]
    Tiled,
    /// Scanline runs of texels (tile.texel_count() x 1).
    Linear,
}

/// Configuration of the L1 texture cache.
///
/// Following the paper (§2.3), the line size equals the tile size, the
/// default tile is 4×4 texels of 32 bits (64-byte lines), and associativity
/// defaults to 2-way — "Hakura … argues that 2-way set associative is of
/// sufficient associativity to avoid conflict misses with trilinear
/// interpolation. We follow Hakura's lead."
///
/// ```
/// use mltc_core::L1Config;
/// let c = L1Config::kb(2);
/// assert_eq!(c.lines(), 32);
/// assert_eq!(c.sets(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Total capacity in bytes (must be a power of two ≥ one line).
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Tile (= line) size.
    pub tile: TileSize,
    /// Line shape: square tiles or linear scanline runs (§2.3 ablation).
    pub storage: StorageFormat,
}

impl L1Config {
    /// A `kb`-kilobyte, 2-way, 4×4-tile cache (the paper's configurations
    /// are 2 KB "low end" and 16 KB "high end").
    pub const fn kb(kb: usize) -> Self {
        Self {
            size_bytes: kb * 1024,
            ways: 2,
            tile: TileSize::X4,
            storage: StorageFormat::Tiled,
        }
    }

    /// Line size in bytes (tile texels × 4 bytes).
    #[inline]
    pub const fn line_bytes(&self) -> usize {
        self.tile.cache_bytes()
    }

    /// Number of lines.
    #[inline]
    pub const fn lines(&self) -> usize {
        self.size_bytes / self.line_bytes()
    }

    /// Number of sets.
    #[inline]
    pub const fn sets(&self) -> usize {
        self.lines() / self.ways
    }
}

impl Default for L1Config {
    fn default() -> Self {
        Self::kb(16)
    }
}

/// Interleaves the low 16 bits of `x` and `y` (Morton order).
#[inline]
fn morton16(x: u32, y: u32) -> u32 {
    fn spread(mut v: u32) -> u32 {
        v &= 0xffff;
        v = (v | (v << 8)) & 0x00ff_00ff;
        v = (v | (v << 4)) & 0x0f0f_0f0f;
        v = (v | (v << 2)) & 0x3333_3333;
        v = (v | (v << 1)) & 0x5555_5555;
        v
    }
    spread(x) | (spread(y) << 1)
}

/// The set hash's serial XOR fold: `h ^= h >> k·bits` for `k = 1, 2, …`
/// while the shift stays below 32. [`L1AddressMap`] never runs it per
/// probe; its constructor runs it on unit vectors to derive the closed
/// form (see [`L1AddressMap::new`]).
fn serial_fold(mut h: u32, bits: u32) -> u32 {
    let mut shift = bits;
    while shift < 32 {
        h ^= h >> shift;
        shift += bits;
    }
    h
}

/// Pure tag/set address computation of the L1 texture cache, split out of
/// [`L1TextureCache`] so the wide replay path and the attribution shadow
/// models can compute L1 addresses without touching cache state.
///
/// Bit-for-bit the same mapping the cache itself uses: the cache's
/// `locate` delegates here, so there is exactly one definition of the
/// tag/set function.
#[derive(Debug, Clone, Copy)]
pub struct L1AddressMap {
    set_mask: u32,
    /// Width of a fold chunk: `log2(sets)`, at least 1.
    set_bits: u32,
    /// The pre-fold hash bits the fold carries into the set index: a
    /// union of whole `set_bits`-wide chunks (0 for a one-set cache).
    chunk_mask: u32,
    /// First XOR-halving shift of the closed form, `set_bits · 2^t`
    /// with `2^(t+1)` chunks covering `chunk_mask`; below `set_bits`
    /// when the mask fits the low chunk and no shift is needed.
    top_shift: u32,
    tile_shift: u32,
    linear: bool,
}

impl L1AddressMap {
    /// Builds the map for `cfg`.
    ///
    /// Derives the closed form of the set hash's fold once: every fold
    /// step `h ^= h >> k·b` is linear over GF(2) and the steps commute,
    /// so the fold's low `b = log2(sets)` bits are the XOR of a fixed
    /// subset of `h`'s `b`-bit chunks. Bit `k` of `h` belongs to that
    /// subset iff the fold maps the unit vector `1 << k` to a non-zero
    /// set — exact by linearity.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid geometries [`L1TextureCache::new`]
    /// rejects (zero or non-power-of-two set count).
    pub fn new(cfg: L1Config) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "L1 of {} bytes has no sets", cfg.size_bytes);
        assert!(
            sets.is_power_of_two(),
            "L1 set count {sets} must be a power of two"
        );
        let set_mask = sets as u32 - 1;
        let set_bits = sets.trailing_zeros().max(1);
        let chunk_mask = (0..32)
            .filter(|&k| serial_fold(1 << k, set_bits) & set_mask != 0)
            .fold(0u32, |mask, k| mask | 1 << k);
        // `n` halvings, `b·2^(n-1)` down to `b`, XOR chunks 0..2^n into
        // chunk 0; `n` is the bit length of the top kept chunk's index.
        let top_chunk = chunk_mask.checked_ilog2().unwrap_or(0) / set_bits;
        let halvings = u32::BITS - top_chunk.leading_zeros();
        Self {
            set_mask,
            set_bits,
            chunk_mask,
            top_shift: (set_bits << halvings) >> 1,
            tile_shift: cfg.tile.shift(),
            linear: matches!(cfg.storage, StorageFormat::Linear),
        }
    }

    /// Tile coordinates of texel `(u, v)` under the configured storage
    /// format.
    #[inline]
    fn block_coords(&self, u: u32, v: u32) -> (u32, u32) {
        if self.linear {
            // A line holds the same texel count, but 1 texel tall.
            (u >> (2 * self.tile_shift), v)
        } else {
            (u >> self.tile_shift, v >> self.tile_shift)
        }
    }

    /// Set index for a tile: Morton-interleaved tile coordinates
    /// XOR-folded down to the set bits (so distant tiles contribute too,
    /// not just the immediate neighbourhood), perturbed by mip level and
    /// texture id so that coincident tiles of different levels/textures
    /// spread across sets.
    #[inline]
    fn set_of_block(&self, tid: TextureId, m: u32, bx: u32, by: u32) -> usize {
        // Mip level and texture id are multiplicatively spread over all bits
        // so coincident tiles of different levels/textures don't pile into
        // neighbouring sets.
        let h = morton16(bx, by)
            ^ m.wrapping_mul(0x85eb_ca6b)
            ^ tid.index().wrapping_mul(0x9e37_79b1).rotate_right(16);
        self.fold(h) as usize
    }

    /// The serial fold's set bits in closed form: XOR the chunks the fold
    /// keeps into the low chunk by halving shifts (at most 5, none for a
    /// one-set cache).
    #[inline]
    fn fold(&self, h: u32) -> u32 {
        let mut x = h & self.chunk_mask;
        let mut shift = self.top_shift;
        while shift >= self.set_bits {
            x ^= x >> shift;
            shift >>= 1;
        }
        x & self.set_mask
    }

    /// Tag and set of the line holding texel `(u, v)` of level `m` of
    /// `tid`. The tag is the packed tiling-independent [`L1BlockKey`].
    #[inline]
    pub fn tag_set(&self, tid: TextureId, m: u32, u: u32, v: u32) -> (u64, u32) {
        let (bx, by) = self.block_coords(u, v);
        let tag = L1BlockKey::from_block_coords(tid, m, bx, by).packed();
        (tag, self.set_of_block(tid, m, bx, by) as u32)
    }

    /// The set-free half of [`tag_set`](Self::tag_set): just the packed
    /// tag — shifts and ORs only, no Morton interleave or fold.
    #[inline]
    pub fn tag_of(&self, tid: TextureId, m: u32, u: u32, v: u32) -> u64 {
        let (bx, by) = self.block_coords(u, v);
        L1BlockKey::from_block_coords(tid, m, bx, by).packed()
    }

    /// Block columns/rows of a corner quad in one go. Both storage
    /// formats map texel columns to block columns and texel rows to block
    /// rows *componentwise*, so a quad's four corners have block coords
    /// `{bxa,bxb} × {bya,byb}` — the wide kernel derives a level's
    /// distinct tags from the two inequalities `bxa != bxb` / `bya !=
    /// byb` instead of packing and comparing four tags.
    #[inline]
    pub fn quad_blocks(&self, xa: u32, xb: u32, ya: u32, yb: u32) -> (u32, u32, u32, u32) {
        if self.linear {
            let s = 2 * self.tile_shift;
            (xa >> s, xb >> s, ya, yb)
        } else {
            let s = self.tile_shift;
            (xa >> s, xb >> s, ya >> s, yb >> s)
        }
    }

    /// Home set of a packed tag from [`tag_of`](Self::tag_of) /
    /// [`tag_set`](Self::tag_set): unpacks the block identity and runs
    /// the same hash, so `set_of_tag(tag_of(…)) == tag_set(…).1` by
    /// construction. The wide replay path calls this lazily — only for
    /// the unique tags of a batch whose residency the cache's last-slot
    /// memo cannot already prove.
    #[inline]
    pub fn set_of_tag(&self, tag: u64) -> u32 {
        let tid = TextureId::from_index((tag >> 28) as u32);
        let m = ((tag >> 24) & 0xF) as u32;
        let bx = ((tag >> 12) & 0xFFF) as u32;
        let by = (tag & 0xFFF) as u32;
        self.set_of_block(tid, m, bx, by) as u32
    }
}

/// The L1 texture cache: an N-way set-associative cache of L1 texture tiles
/// tagged by their virtual block identity and indexed by bit-interleaved
/// tile coordinates — Hakura's "6D blocked representation" for collision
/// avoidance, which the paper adopts by making L1 tags "the same
/// ⟨tid, L2, L1⟩ used for L2 virtual addresses" (§3.3).
///
/// Per §3.3, the tag calculation is *fixed across all simulated L2 tile
/// sizes* so that L1 behaviour does not vary within an L2 parameter sweep:
/// tags here are the tiling-independent [`L1BlockKey`] (texture, mip level,
/// tile column, tile row), which is in one-to-one correspondence with
/// ⟨tid, L2, L1⟩ for any fixed L2 tile size.
///
/// ```
/// use mltc_core::{L1Config, L1TextureCache};
/// use mltc_texture::TextureId;
/// let mut l1 = L1TextureCache::new(L1Config::kb(2));
/// let t = TextureId::from_index(0);
/// assert!(!l1.access(t, 0, 0, 0)); // cold miss
/// assert!(l1.access(t, 0, 3, 3));  // same 4x4 tile
/// ```
#[derive(Debug, Clone)]
pub struct L1TextureCache {
    cache: SetAssocCache,
    cfg: L1Config,
    map: L1AddressMap,
    /// One-entry tag → set memo: the packed key of the most recently
    /// located line and its set. `last_set == usize::MAX` until the first
    /// access. The key → set mapping is a pure function, so a key match
    /// can reuse the set without rehashing — consecutive filter taps hit
    /// the same tile constantly. Since the fold is closed-form the hash
    /// is mostly the Morton interleave and two multiplies; the memo still
    /// pays for its compare on the miss path (DESIGN.md §8).
    last_key: u64,
    last_set: usize,
}

impl L1TextureCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or a non-power-of-two
    /// set count (hardware indexes sets with address bits).
    pub fn new(cfg: L1Config) -> Self {
        let map = L1AddressMap::new(cfg);
        Self {
            cache: SetAssocCache::new(cfg.sets(), cfg.ways),
            cfg,
            map,
            last_key: 0,
            last_set: usize::MAX,
        }
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> L1Config {
        self.cfg
    }

    /// The pure tag/set address computation this cache indexes with.
    #[inline]
    pub fn address_map(&self) -> L1AddressMap {
        self.map
    }

    /// Tag and set of the line holding texel `(u, v)` of level `m` of `tid`.
    #[inline]
    fn locate(&mut self, tid: TextureId, m: u32, u: u32, v: u32) -> (u64, usize) {
        let (bx, by) = self.map.block_coords(u, v);
        let tag = L1BlockKey::from_block_coords(tid, m, bx, by).packed();
        // The packed key determines the set (pure function of the same
        // inputs), so a repeat of the previous key skips the hash.
        if tag == self.last_key && self.last_set != usize::MAX {
            return (tag, self.last_set);
        }
        let set = self.map.set_of_block(tid, m, bx, by);
        self.last_key = tag;
        self.last_set = set;
        (tag, set)
    }

    /// Looks up the texel `(u, v)` of mip level `m` of `tid` (texel
    /// coordinates within the level) and returns whether its line hit.
    /// On a miss, the line is installed (the caller models the download).
    #[inline]
    pub fn access(&mut self, tid: TextureId, m: u32, u: u32, v: u32) -> bool {
        let (tag, set) = self.locate(tid, m, u, v);
        self.cache.access(tag, set).hit
    }

    /// Wide probe/commit ([`SetAssocCache::access_all_hits_by_tag`]):
    /// `tags` are the batch's unique tags with their last-occurrence lane
    /// indices, and set indices are recovered lazily from the tag alone —
    /// only for tags the cache's memo cannot prove resident. Commits the
    /// whole batch as hits if every tag is resident (bit-identical to
    /// per-lane [`access`](Self::access) calls), otherwise mutates nothing
    /// and returns `false` so the caller replays the lanes scalar. The
    /// one-entry locate memo is bypassed — it is outcome-neutral by design.
    #[inline]
    pub fn access_all_hits_by_tag(
        &mut self,
        tags: &[u64],
        last_lane: &[u32],
        lane_count: u32,
    ) -> bool {
        let map = self.map;
        self.cache
            .access_all_hits_by_tag(tags, last_lane, lane_count, |t| map.set_of_tag(t))
    }

    /// Recommits the previous committed by-tag batch without re-probing
    /// ([`SetAssocCache::recommit_last_batch`]); the caller must have
    /// proved the new batch's tags equal the previous one's (the wide
    /// kernel does so by footprint equality).
    #[inline]
    pub fn recommit_last_batch(&mut self, last_lane: &[u32], lane_count: u32) -> bool {
        self.cache.recommit_last_batch(last_lane, lane_count)
    }

    /// Invalidates the line holding texel `(u, v)` of level `m` of `tid`,
    /// returning whether a line was dropped. Used to undo the speculative
    /// install of [`access`](Self::access) when the download that was to
    /// fill the line failed; it is not an access.
    pub fn invalidate(&mut self, tid: TextureId, m: u32, u: u32, v: u32) -> bool {
        let (tag, set) = self.locate(tid, m, u, v);
        self.cache.invalidate(tag, set)
    }

    /// The valid lines ([`SetAssocCache::lines`]): two L1s with equal
    /// lines answer every future access stream identically.
    pub fn lines(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.cache.lines()
    }

    /// Invalidates the whole cache.
    pub fn flush(&mut self) {
        self.cache.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TextureId {
        TextureId::from_index(i)
    }

    #[test]
    fn config_arithmetic() {
        let c = L1Config::kb(16);
        assert_eq!(c.line_bytes(), 64);
        assert_eq!(c.lines(), 256);
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn same_tile_hits_different_tile_misses() {
        let mut l1 = L1TextureCache::new(L1Config::kb(2));
        assert!(!l1.access(t(0), 0, 0, 0));
        assert!(l1.access(t(0), 0, 1, 2));
        assert!(!l1.access(t(0), 0, 4, 0), "next tile to the right");
        assert!(!l1.access(t(0), 0, 0, 4), "next tile below");
    }

    #[test]
    fn mip_levels_do_not_alias() {
        let mut l1 = L1TextureCache::new(L1Config::kb(2));
        assert!(!l1.access(t(0), 0, 0, 0));
        assert!(!l1.access(t(0), 1, 0, 0));
        assert!(l1.access(t(0), 0, 0, 0));
        assert!(l1.access(t(0), 1, 0, 0));
    }

    #[test]
    fn textures_do_not_alias() {
        let mut l1 = L1TextureCache::new(L1Config::kb(2));
        assert!(!l1.access(t(0), 0, 0, 0));
        assert!(!l1.access(t(1), 0, 0, 0));
        assert!(l1.access(t(0), 0, 0, 0));
    }

    #[test]
    fn scanline_sweep_within_capacity_only_compulsory_misses() {
        // A 32-texel-wide scanline touches 8 tiles per band; with Morton
        // set indexing they fit the 2 KB cache without conflicts, so rows
        // 1-3 of each 4-row band hit entirely.
        let mut l1 = L1TextureCache::new(L1Config::kb(2));
        let mut misses = 0;
        for v in 0..8u32 {
            for u in 0..32u32 {
                misses += !l1.access(t(0), 0, u, v) as u32;
            }
        }
        // Misses: 8 tiles on the first scanline of each of the 2 bands.
        assert_eq!(misses, 16);
    }

    #[test]
    fn capacity_misses_appear_when_working_set_exceeds_cache() {
        // A 2D-local working set of 16x16 tiles (16 KB) cycled twice.
        // 2 KB = 32 lines: cyclic thrash, the second pass misses too.
        let mut l1 = L1TextureCache::new(L1Config::kb(2));
        let mut hits = 0;
        for _ in 0..2 {
            for i in 0..256u32 {
                hits += l1.access(t(0), 0, (i % 16) * 4, (i / 16) * 4) as u32;
            }
        }
        assert!(hits * 5 < 512, "hits={hits} of 512");

        // 32 KB = 512 lines: Morton indexing maps the 16x16-tile square
        // conflict-free, so the second pass hits entirely.
        let mut big = L1TextureCache::new(L1Config::kb(32));
        for pass in 0..2 {
            for i in 0..256u32 {
                let hit = big.access(t(0), 0, (i % 16) * 4, (i / 16) * 4);
                assert_eq!(hit, pass == 1, "pass {pass}, tile {i}");
            }
        }
    }

    #[test]
    fn morton_interleave_spreads_neighbours() {
        // 2x2 neighbouring tiles land in 4 distinct sets.
        let map = L1AddressMap::new(L1Config::kb(2));
        let mut sets = std::collections::HashSet::new();
        for by in 0..2 {
            for bx in 0..2 {
                sets.insert(map.set_of_block(t(0), 0, bx, by));
            }
        }
        assert_eq!(sets.len(), 4);
    }

    #[test]
    fn address_map_matches_cache_for_both_storage_formats() {
        for storage in [StorageFormat::Tiled, StorageFormat::Linear] {
            let cfg = L1Config {
                storage,
                ..L1Config::kb(2)
            };
            let map = L1AddressMap::new(cfg);
            let mut a = L1TextureCache::new(cfg);
            let mut b = L1TextureCache::new(cfg);
            // Replay a texel walk two ways: scalar accesses vs per-texel
            // one-lane batches tagged through the standalone map, whose
            // sets the cache recovers from the tag. Every outcome and the
            // final lines must agree.
            for i in 0..512u32 {
                let (tid, m) = (t(i % 3), i % 2);
                let (u, v) = ((i * 7) % 64, (i * 13) % 64);
                let scalar_hit = a.access(tid, m, u, v);
                let tag = map.tag_of(tid, m, u, v);
                let wide_hit = b.access_all_hits_by_tag(&[tag], &[0], 1);
                if !wide_hit {
                    assert!(!b.access(tid, m, u, v), "lane must still miss");
                }
                assert_eq!(scalar_hit, wide_hit, "access {i} diverged");
            }
            assert!(a.lines().eq(b.lines()));
        }
    }

    #[test]
    fn set_of_tag_round_trips_tag_set() {
        for storage in [StorageFormat::Tiled, StorageFormat::Linear] {
            let cfg = L1Config {
                storage,
                ..L1Config::kb(2)
            };
            let map = L1AddressMap::new(cfg);
            for i in 0..2048u32 {
                let (tid, m) = (t(i % 5), i % 4);
                let (u, v) = ((i * 7) % 512, (i * 13) % 512);
                let (tag, set) = map.tag_set(tid, m, u, v);
                assert_eq!(map.tag_of(tid, m, u, v), tag);
                assert_eq!(map.set_of_tag(tag), set, "access {i}");
            }
        }
    }

    #[test]
    fn closed_form_fold_equals_the_serial_fold_at_every_set_count() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for log_sets in 0..=16u32 {
            let sets = 1usize << log_sets;
            let map = L1AddressMap::new(L1Config {
                size_bytes: sets * 64,
                ways: 1,
                ..L1Config::kb(2)
            });
            let (bits, mask) = (log_sets.max(1), sets as u32 - 1);
            let units = (0..32).map(|k| 1u32 << k);
            let random = (0..4096).map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 32) as u32
            });
            for h in units.chain(random) {
                assert_eq!(
                    map.fold(h),
                    serial_fold(h, bits) & mask,
                    "{sets} sets, h = {h:#010x}"
                );
            }
        }
    }

    #[test]
    fn by_tag_batches_match_scalar_accesses() {
        let cfg = L1Config::kb(2);
        let map = L1AddressMap::new(cfg);
        let mut a = L1TextureCache::new(cfg);
        let mut b = L1TextureCache::new(cfg);
        // Pairs of taps per "request", often landing in one tile: replay
        // scalar vs deduplicated two-lane batches.
        for i in 0..512u32 {
            let (tid, m) = (t(i % 3), i % 2);
            let (u0, v0) = ((i * 3) % 64, (i * 5) % 64);
            let (u1, v1) = ((u0 + i % 2) % 64, v0);
            let t0 = map.tag_of(tid, m, u0, v0);
            let t1 = map.tag_of(tid, m, u1, v1);
            let (uniq, last): (&[u64], &[u32]) = if t0 == t1 {
                (&[t0], &[1])
            } else {
                (&[t0, t1], &[0, 1])
            };
            let wide = b.access_all_hits_by_tag(uniq, last, 2);
            let h0 = a.access(tid, m, u0, v0);
            let h1 = a.access(tid, m, u1, v1);
            if wide {
                assert!(h0 && h1, "batch {i} committed but scalar missed");
            } else {
                assert!(!(h0 && h1), "batch {i} declined but scalar all-hit");
                assert_eq!(b.access(tid, m, u0, v0), h0);
                assert_eq!(b.access(tid, m, u1, v1), h1);
            }
        }
        assert!(a.lines().eq(b.lines()));
    }

    #[test]
    fn invalidate_undoes_a_speculative_install() {
        let mut l1 = L1TextureCache::new(L1Config::kb(2));
        assert!(!l1.access(t(0), 0, 0, 0)); // miss installs the line
        assert!(l1.invalidate(t(0), 0, 3, 3), "same tile, any texel");
        assert!(!l1.access(t(0), 0, 0, 0), "line must be gone again");
        assert!(
            !l1.invalidate(t(1), 0, 0, 0),
            "absent line: nothing to drop"
        );
        assert_eq!(l1.lines().count(), 1, "the second access installed again");
    }

    #[test]
    fn flush_forgets_contents() {
        let mut l1 = L1TextureCache::new(L1Config::kb(2));
        l1.access(t(0), 0, 0, 0);
        l1.flush();
        assert_eq!(l1.lines().count(), 0);
        assert!(!l1.access(t(0), 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        // 3 KB / 64 B / 2 = 24 sets.
        let _ = L1TextureCache::new(L1Config {
            size_bytes: 3072,
            ..L1Config::kb(2)
        });
    }
}
