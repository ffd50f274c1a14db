//! Texture filtering: the authoritative request → texel-taps mapping.
//!
//! Both the renderer (for colours) and the cache engine (for addresses)
//! expand a [`PixelRequest`](crate::PixelRequest) through [`filter_taps`],
//! so the simulated caches see exactly the texels the image was filtered
//! from.

use crate::PixelRequest;

/// Widest tap list any filter mode produces (trilinear = 8): the batch
/// width of the wide replay path, which processes one request's taps as
/// fixed-width lanes. [`TapList`] is sized by this.
pub const MAX_FILTER_TAPS: usize = 8;

/// Texture filtering mode (paper §2.1: point sampling for the locality
/// statistics, bilinear and trilinear for the cache simulations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FilterMode {
    /// Nearest texel of the nearest mip level: 1 tap.
    Point,
    /// 2×2 weighted average within the nearest mip level: 4 taps.
    #[default]
    Bilinear,
    /// Bilinear in the two straddling mip levels, blended: 8 taps
    /// (4 when the level of detail is clamped at either end of the pyramid).
    Trilinear,
}

impl FilterMode {
    /// Short lowercase name (`"point"`, `"bilinear"`, `"trilinear"`).
    pub fn name(self) -> &'static str {
        match self {
            FilterMode::Point => "point",
            FilterMode::Bilinear => "bilinear",
            FilterMode::Trilinear => "trilinear",
        }
    }

    /// Maximum taps this mode can produce.
    pub const fn max_taps(self) -> usize {
        match self {
            FilterMode::Point => 1,
            FilterMode::Bilinear => 4,
            FilterMode::Trilinear => 8,
        }
    }
}

impl std::fmt::Display for FilterMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One texel read produced by filtering: mip level, wrapped in-bounds texel
/// coordinates, and its blend weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Mip level.
    pub m: u32,
    /// In-bounds texel column.
    pub u: u32,
    /// In-bounds texel row.
    pub v: u32,
    /// Blend weight; the weights of a tap list sum to 1.
    pub weight: f32,
}

/// Up to 8 [`Tap`]s, inline (no allocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapList {
    taps: [Tap; MAX_FILTER_TAPS],
    len: u8,
}

impl TapList {
    const EMPTY_TAP: Tap = Tap {
        m: 0,
        u: 0,
        v: 0,
        weight: 0.0,
    };

    fn new() -> Self {
        Self {
            taps: [Self::EMPTY_TAP; MAX_FILTER_TAPS],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, t: Tap) {
        self.taps[self.len as usize] = t;
        self.len += 1;
    }

    /// The taps as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Tap] {
        &self.taps[..self.len as usize]
    }

    /// Number of taps.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no taps were produced (never happens for valid requests).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the taps.
    pub fn iter(&self) -> std::slice::Iter<'_, Tap> {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a TapList {
    type Item = &'a Tap;
    type IntoIter = std::slice::Iter<'a, Tap>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Wraps a (possibly negative / out-of-range) texel coordinate into
/// `[0, size)` — repeat addressing, the mode both workloads use.
///
/// Almost every tap is already in range, so the general `rem_euclid`
/// (a hardware divide) only runs for coordinates that actually crossed an
/// edge; the fast path is a compare. The value is identical either way.
#[inline]
pub(crate) fn wrap(x: i64, size: u32) -> u32 {
    debug_assert!(size > 0);
    if (x as u64) < size as u64 {
        return x as u32;
    }
    x.rem_euclid(size as i64) as u32
}

/// Expands a pixel request into the texels it reads under `filter`.
///
/// `level_count` is the texture's mip level count and `dims(m)` returns the
/// dimensions of level `m`. Request coordinates are texel-space at level 0;
/// coarser levels address `u / 2^m` (the dimension ratio is used exactly, so
/// non-square clamped pyramids stay consistent).
///
/// ```
/// use mltc_trace::{filter_taps, FilterMode, PixelRequest};
/// use mltc_texture::TextureId;
/// let req = PixelRequest { tid: TextureId::from_index(0), u: 1.0, v: 1.0, lod: 0.0 };
/// let taps = filter_taps(&req, FilterMode::Point, 5, |m| (16 >> m, 16 >> m));
/// assert_eq!(taps.len(), 1);
/// assert_eq!(taps.as_slice()[0].weight, 1.0);
/// ```
#[inline]
pub fn filter_taps(
    req: &PixelRequest,
    filter: FilterMode,
    level_count: u32,
    dims: impl Fn(u32) -> (u32, u32),
) -> TapList {
    debug_assert!(level_count > 0);
    let max_m = level_count - 1;
    let mut out = TapList::new();
    let (w0, h0) = dims(0);

    let (m0, second) = select_levels(req.lod, max_m, filter);
    match filter {
        FilterMode::Point => point_tap(&mut out, req, m0, dims(m0), (w0, h0), 1.0),
        FilterMode::Bilinear => bilinear_taps(&mut out, req, m0, dims(m0), (w0, h0), 1.0),
        FilterMode::Trilinear => match second {
            None => bilinear_taps(&mut out, req, m0, dims(m0), (w0, h0), 1.0),
            Some((m1, frac)) => {
                bilinear_taps(&mut out, req, m0, dims(m0), (w0, h0), 1.0 - frac);
                bilinear_taps(&mut out, req, m1, dims(m1), (w0, h0), frac);
            }
        },
    }
    out
}

/// One mip level's bilinear corner footprint: the two wrapped texel
/// columns and rows whose cross product is the level's four taps.
///
/// Lane order contract (the order [`filter_taps`] emits and the wide
/// replay path replays): `(xa,ya), (xb,ya), (xa,yb), (xb,yb)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelQuad {
    /// Mip level.
    pub m: u32,
    /// Wrapped left texel column.
    pub xa: u32,
    /// Wrapped right texel column.
    pub xb: u32,
    /// Wrapped top texel row.
    pub ya: u32,
    /// Wrapped bottom texel row.
    pub yb: u32,
}

/// The taps of a request, folded to their geometric footprint: a single
/// texel for point sampling, or one corner quad per sampled mip level.
/// The wide replay path works on this form directly — identical
/// consecutive footprints mean identical tap addresses, and a quad names
/// at most four distinct cache lines without materialising eight lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Footprint {
    /// Point sampling: one tap.
    Point {
        /// Mip level.
        m: u32,
        /// Wrapped texel column.
        u: u32,
        /// Wrapped texel row.
        v: u32,
    },
    /// Bilinear/trilinear: the first `n` entries of `quads` are sampled
    /// levels of four taps each, finest first.
    Quads {
        /// Per-level corner quads (only `..n` are meaningful).
        quads: [LevelQuad; 2],
        /// Number of sampled levels (1 or 2).
        n: usize,
    },
}

/// Folds a request to its [`Footprint`] under `filter` — the same
/// level-selection and corner math as [`filter_taps`], minus the weights,
/// so unrolled in [`LevelQuad`]'s lane order it is [`filter_taps`]'
/// `(m, u, v)` sequence bit-for-bit.
#[inline]
pub fn filter_footprint(
    req: &PixelRequest,
    filter: FilterMode,
    level_count: u32,
    dims: impl Fn(u32) -> (u32, u32),
) -> Footprint {
    debug_assert!(level_count > 0);
    let max_m = level_count - 1;
    let base = dims(0);
    let (m0, second) = select_levels(req.lod, max_m, filter);
    if matches!(filter, FilterMode::Point) {
        let ld = dims(m0);
        let (u, v) = to_level(req, ld, base);
        return Footprint::Point {
            m: m0,
            u: wrap(u.floor() as i64, ld.0),
            v: wrap(v.floor() as i64, ld.1),
        };
    }
    match second {
        None => Footprint::Quads {
            quads: [level_quad(req, m0, dims(m0), base), LevelQuad::default()],
            n: 1,
        },
        Some((m1, _)) => Footprint::Quads {
            quads: level_quads2(req, m0, dims(m0), dims(m1), base),
            n: 2,
        },
    }
}

/// Both trilinear levels' corner quads in one straight-line pass.
///
/// The per-component arithmetic is exactly [`bilinear_footprint`]'s
/// (`u·w / w0`, minus the half-texel centre offset, floor) — only laid
/// out as four independent component lanes so the two levels' scale,
/// divide and floor operations become packed instructions instead of two
/// sequential scalar chains. Each output value's dataflow is unchanged,
/// so every coordinate is bit-identical to calling [`level_quad`] twice.
#[inline]
fn level_quads2(
    req: &PixelRequest,
    m0: u32,
    d0: (u32, u32),
    d1: (u32, u32),
    (w0, h0): (u32, u32),
) -> [LevelQuad; 2] {
    let num = [
        req.u * d0.0 as f32,
        req.v * d0.1 as f32,
        req.u * d1.0 as f32,
        req.v * d1.1 as f32,
    ];
    let den = [w0 as f32, h0 as f32, w0 as f32, h0 as f32];
    let mut fl = [0f32; 4];
    for i in 0..4 {
        fl[i] = (num[i] / den[i] - 0.5).floor();
    }
    let (x0, y0) = (fl[0] as i64, fl[1] as i64);
    let (x1, y1) = (fl[2] as i64, fl[3] as i64);
    [
        LevelQuad {
            m: m0,
            xa: wrap(x0, d0.0),
            xb: wrap(x0 + 1, d0.0),
            ya: wrap(y0, d0.1),
            yb: wrap(y0 + 1, d0.1),
        },
        LevelQuad {
            m: m0 + 1,
            xa: wrap(x1, d1.0),
            xb: wrap(x1 + 1, d1.0),
            ya: wrap(y1, d1.1),
            yb: wrap(y1 + 1, d1.1),
        },
    ]
}

/// The wrapped corner quad of level `m`.
#[inline]
fn level_quad(
    req: &PixelRequest,
    m: u32,
    level_dims: (u32, u32),
    base_dims: (u32, u32),
) -> LevelQuad {
    let (w, h) = level_dims;
    let (x0, y0, _, _) = bilinear_footprint(req, level_dims, base_dims);
    LevelQuad {
        m,
        xa: wrap(x0, w),
        xb: wrap(x0 + 1, w),
        ya: wrap(y0, h),
        yb: wrap(y0 + 1, h),
    }
}

/// Number of requests gathered by a [`FootprintBlock`] before its
/// deferred two-level expansions are computed in one straight-line pass.
pub const FOOTPRINT_BLOCK: usize = 8;

/// Cross-request footprint gathering: defers the two-level (trilinear
/// interpolating) case — four independent scale/divide/floor component
/// lanes per request — so [`FOOTPRINT_BLOCK`] requests' sixteen lanes
/// run as packed arithmetic in a single [`flush`](Self::flush), instead
/// of four sequential scalar chains per request.
///
/// Per-value arithmetic is exactly [`filter_footprint`]'s, so every
/// coordinate is bit-identical; only instruction-level layout changes.
/// Point-filter and single-level requests have nothing to batch and are
/// expanded immediately by [`push`](Self::push).
#[derive(Debug, Clone)]
pub struct FootprintBlock {
    reqs: [PixelRequest; FOOTPRINT_BLOCK],
    m0: [u32; FOOTPRINT_BLOCK],
    d0: [(u32, u32); FOOTPRINT_BLOCK],
    d1: [(u32, u32); FOOTPRINT_BLOCK],
    base: [(u32, u32); FOOTPRINT_BLOCK],
    n: usize,
}

impl Default for FootprintBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl FootprintBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self {
            reqs: [PixelRequest {
                tid: mltc_texture::TextureId::from_index(0),
                u: 0.0,
                v: 0.0,
                lod: 0.0,
            }; FOOTPRINT_BLOCK],
            m0: [0; FOOTPRINT_BLOCK],
            d0: [(1, 1); FOOTPRINT_BLOCK],
            d1: [(1, 1); FOOTPRINT_BLOCK],
            base: [(1, 1); FOOTPRINT_BLOCK],
            n: 0,
        }
    }

    /// Queues `req` for deferred expansion (`None`) when it samples two
    /// mip levels, or expands it immediately (`Some`) when it doesn't.
    ///
    /// The caller owns ordering: an immediate footprint — and an
    /// [`is_full`](Self::is_full) block — must be processed only after
    /// [`flush`](Self::flush)ing previously queued requests, which are
    /// older. May not be called on a full block.
    #[inline]
    pub fn push(
        &mut self,
        req: &PixelRequest,
        filter: FilterMode,
        level_count: u32,
        dims: impl Fn(u32) -> (u32, u32),
    ) -> Option<Footprint> {
        debug_assert!(level_count > 0);
        debug_assert!(self.n < FOOTPRINT_BLOCK);
        let max_m = level_count - 1;
        let (m0, second) = select_levels(req.lod, max_m, filter);
        if matches!(filter, FilterMode::Point) {
            let ld = dims(m0);
            let (u, v) = to_level(req, ld, dims(0));
            return Some(Footprint::Point {
                m: m0,
                u: wrap(u.floor() as i64, ld.0),
                v: wrap(v.floor() as i64, ld.1),
            });
        }
        match second {
            None => Some(Footprint::Quads {
                quads: [level_quad(req, m0, dims(m0), dims(0)), LevelQuad::default()],
                n: 1,
            }),
            Some((m1, _)) => {
                let i = self.n;
                self.reqs[i] = *req;
                self.m0[i] = m0;
                self.d0[i] = dims(m0);
                self.d1[i] = dims(m1);
                self.base[i] = dims(0);
                self.n = i + 1;
                None
            }
        }
    }

    /// Whether the block holds [`FOOTPRINT_BLOCK`] queued requests.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.n == FOOTPRINT_BLOCK
    }

    /// Whether the block holds no queued requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Expands every queued request — packed arithmetic for a full
    /// block, [`level_quads2`] per request otherwise — writing request
    /// `i`'s two quads into `quads_out[i]` and returning the requests in
    /// queue order. Empties the block.
    #[inline]
    pub fn flush<'a>(
        &'a mut self,
        quads_out: &mut [[LevelQuad; 2]; FOOTPRINT_BLOCK],
    ) -> &'a [PixelRequest] {
        let n = self.n;
        self.n = 0;
        if n == FOOTPRINT_BLOCK {
            let mut num = [0f32; 4 * FOOTPRINT_BLOCK];
            let mut den = [0f32; 4 * FOOTPRINT_BLOCK];
            for i in 0..FOOTPRINT_BLOCK {
                let r = &self.reqs[i];
                let (w0, h0) = self.base[i];
                num[i * 4] = r.u * self.d0[i].0 as f32;
                num[i * 4 + 1] = r.v * self.d0[i].1 as f32;
                num[i * 4 + 2] = r.u * self.d1[i].0 as f32;
                num[i * 4 + 3] = r.v * self.d1[i].1 as f32;
                den[i * 4] = w0 as f32;
                den[i * 4 + 1] = h0 as f32;
                den[i * 4 + 2] = w0 as f32;
                den[i * 4 + 3] = h0 as f32;
            }
            let mut fl = [0i64; 4 * FOOTPRINT_BLOCK];
            for i in 0..4 * FOOTPRINT_BLOCK {
                fl[i] = (num[i] / den[i] - 0.5).floor() as i64;
            }
            for i in 0..FOOTPRINT_BLOCK {
                let (x0, y0) = (fl[i * 4], fl[i * 4 + 1]);
                let (x1, y1) = (fl[i * 4 + 2], fl[i * 4 + 3]);
                let (wa, ha) = self.d0[i];
                let (wb, hb) = self.d1[i];
                let m0 = self.m0[i];
                quads_out[i] = [
                    LevelQuad {
                        m: m0,
                        xa: wrap(x0, wa),
                        xb: wrap(x0 + 1, wa),
                        ya: wrap(y0, ha),
                        yb: wrap(y0 + 1, ha),
                    },
                    LevelQuad {
                        m: m0 + 1,
                        xa: wrap(x1, wb),
                        xb: wrap(x1 + 1, wb),
                        ya: wrap(y1, hb),
                        yb: wrap(y1 + 1, hb),
                    },
                ];
            }
        } else {
            for (i, q) in quads_out.iter_mut().enumerate().take(n) {
                *q = level_quads2(
                    &self.reqs[i],
                    self.m0[i],
                    self.d0[i],
                    self.d1[i],
                    self.base[i],
                );
            }
        }
        &self.reqs[..n]
    }
}

/// Which mip level(s) a request reads under `filter`: the primary level,
/// plus the second trilinear level and its blend fraction when the level
/// of detail falls strictly between two levels. Single source of the
/// level-selection rule for both expansions.
#[inline]
fn select_levels(lod: f32, max_m: u32, filter: FilterMode) -> (u32, Option<(u32, f32)>) {
    match filter {
        FilterMode::Point | FilterMode::Bilinear => {
            ((lod + 0.5).floor().max(0.0).min(max_m as f32) as u32, None)
        }
        FilterMode::Trilinear => {
            let lod = lod.max(0.0).min(max_m as f32);
            let m0 = lod.floor() as u32;
            let frac = lod - m0 as f32;
            if frac <= f32::EPSILON || m0 == max_m {
                (m0, None)
            } else {
                (m0, Some((m0 + 1, frac)))
            }
        }
    }
}

/// Converts level-0 texel coordinates to level-`m` continuous coordinates.
#[inline]
fn to_level(req: &PixelRequest, (w, h): (u32, u32), (w0, h0): (u32, u32)) -> (f32, f32) {
    (req.u * w as f32 / w0 as f32, req.v * h as f32 / h0 as f32)
}

#[inline]
fn point_tap(
    out: &mut TapList,
    req: &PixelRequest,
    m: u32,
    level_dims: (u32, u32),
    base_dims: (u32, u32),
    weight: f32,
) {
    let (u, v) = to_level(req, level_dims, base_dims);
    out.push(Tap {
        m,
        u: wrap(u.floor() as i64, level_dims.0),
        v: wrap(v.floor() as i64, level_dims.1),
        weight,
    });
}

/// The bilinear footprint of a request at level `m`: pre-wrap top-left
/// corner and intra-texel fractions. Shared by the weighted and
/// address-only expansions so their coordinates cannot drift apart.
#[inline]
fn bilinear_footprint(
    req: &PixelRequest,
    level_dims: (u32, u32),
    base_dims: (u32, u32),
) -> (i64, i64, f32, f32) {
    let (u, v) = to_level(req, level_dims, base_dims);
    // Texel centres sit at integer + 0.5.
    let uc = u - 0.5;
    let vc = v - 0.5;
    let x0 = uc.floor();
    let y0 = vc.floor();
    (x0 as i64, y0 as i64, uc - x0, vc - y0)
}

#[inline]
fn bilinear_taps(
    out: &mut TapList,
    req: &PixelRequest,
    m: u32,
    level_dims: (u32, u32),
    base_dims: (u32, u32),
    weight: f32,
) {
    let (w, h) = level_dims;
    let (x0, y0, fx, fy) = bilinear_footprint(req, level_dims, base_dims);
    let corners = [
        (x0, y0, (1.0 - fx) * (1.0 - fy)),
        (x0 + 1, y0, fx * (1.0 - fy)),
        (x0, y0 + 1, (1.0 - fx) * fy),
        (x0 + 1, y0 + 1, fx * fy),
    ];
    for (x, y, wgt) in corners {
        out.push(Tap {
            m,
            u: wrap(x, w),
            v: wrap(y, h),
            weight: wgt * weight,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltc_texture::TextureId;

    fn req(u: f32, v: f32, lod: f32) -> PixelRequest {
        PixelRequest {
            tid: TextureId::from_index(0),
            u,
            v,
            lod,
        }
    }

    fn square_dims(base: u32) -> impl Fn(u32) -> (u32, u32) {
        move |m| ((base >> m).max(1), (base >> m).max(1))
    }

    fn weight_sum(t: &TapList) -> f32 {
        t.iter().map(|t| t.weight).sum()
    }

    #[test]
    fn point_single_tap_floor() {
        let t = filter_taps(&req(3.7, 9.2, 0.0), FilterMode::Point, 5, square_dims(16));
        assert_eq!(t.len(), 1);
        let tap = t.as_slice()[0];
        assert_eq!((tap.m, tap.u, tap.v), (0, 3, 9));
    }

    #[test]
    fn point_rounds_lod() {
        let t = filter_taps(&req(0.0, 0.0, 1.6), FilterMode::Point, 5, square_dims(16));
        assert_eq!(t.as_slice()[0].m, 2);
        let t = filter_taps(&req(0.0, 0.0, 1.4), FilterMode::Point, 5, square_dims(16));
        assert_eq!(t.as_slice()[0].m, 1);
    }

    #[test]
    fn lod_clamps_to_pyramid() {
        let t = filter_taps(&req(0.0, 0.0, 99.0), FilterMode::Point, 5, square_dims(16));
        assert_eq!(t.as_slice()[0].m, 4);
        let t = filter_taps(&req(0.0, 0.0, -3.0), FilterMode::Point, 5, square_dims(16));
        assert_eq!(t.as_slice()[0].m, 0);
    }

    #[test]
    fn bilinear_weights_sum_to_one() {
        let t = filter_taps(
            &req(3.3, 7.8, 0.2),
            FilterMode::Bilinear,
            5,
            square_dims(16),
        );
        assert_eq!(t.len(), 4);
        assert!((weight_sum(&t) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn bilinear_at_texel_centre_is_single_texel() {
        // u = 2.5 is the centre of texel 2: all weight on one corner.
        let t = filter_taps(
            &req(2.5, 2.5, 0.0),
            FilterMode::Bilinear,
            5,
            square_dims(16),
        );
        let big: Vec<&Tap> = t.iter().filter(|t| t.weight > 0.99).collect();
        assert_eq!(big.len(), 1);
        assert_eq!((big[0].u, big[0].v), (2, 2));
    }

    #[test]
    fn bilinear_wraps_at_edges() {
        let t = filter_taps(
            &req(0.1, 0.1, 0.0),
            FilterMode::Bilinear,
            5,
            square_dims(16),
        );
        // Neighbours of texel (-1,-1) wrap to 15.
        assert!(t.iter().any(|t| t.u == 15 && t.v == 15));
        assert!(t.iter().any(|t| t.u == 0 && t.v == 0));
    }

    #[test]
    fn trilinear_straddles_two_levels() {
        let t = filter_taps(
            &req(4.0, 4.0, 0.5),
            FilterMode::Trilinear,
            5,
            square_dims(16),
        );
        assert_eq!(t.len(), 8);
        let levels: std::collections::HashSet<u32> = t.iter().map(|t| t.m).collect();
        assert_eq!(levels, [0u32, 1].into_iter().collect());
        assert!((weight_sum(&t) - 1.0).abs() < 1e-5);
        // Half the weight in each level.
        let w0: f32 = t.iter().filter(|t| t.m == 0).map(|t| t.weight).sum();
        assert!((w0 - 0.5).abs() < 1e-5);
    }

    #[test]
    fn trilinear_integral_lod_uses_one_level() {
        let t = filter_taps(
            &req(4.0, 4.0, 1.0),
            FilterMode::Trilinear,
            5,
            square_dims(16),
        );
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|t| t.m == 1));
    }

    #[test]
    fn trilinear_clamped_at_coarsest_uses_one_level() {
        let t = filter_taps(
            &req(0.0, 0.0, 10.0),
            FilterMode::Trilinear,
            5,
            square_dims(16),
        );
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|t| t.m == 4));
    }

    #[test]
    fn coarse_level_coordinates_scale_down() {
        // Texel (8,8) at level 0 of a 16x16 texture is texel (4,4) at level 1.
        let t = filter_taps(&req(8.2, 8.2, 1.0), FilterMode::Point, 5, square_dims(16));
        let tap = t.as_slice()[0];
        assert_eq!((tap.m, tap.u, tap.v), (1, 4, 4));
    }

    #[test]
    fn taps_always_in_bounds() {
        let dims = square_dims(8);
        for mode in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
        ] {
            for i in 0..200 {
                let r = req(
                    i as f32 * 1.37 - 50.0,
                    i as f32 * -2.11 + 33.3,
                    i as f32 * 0.07 - 1.0,
                );
                for tap in &filter_taps(&r, mode, 4, &dims) {
                    let (w, h) = dims(tap.m);
                    assert!(tap.u < w && tap.v < h, "{mode:?} tap {tap:?} out of bounds");
                }
            }
        }
    }

    #[test]
    fn lane_expansion_matches_filter_taps_exactly() {
        // Non-square pyramid with clamped coarse levels, coordinates far
        // out of range in both directions, lods straddling both clamps:
        // the footprint, unrolled in the wide replay path's corner order
        // (xa,ya) (xb,ya) (xa,yb) (xb,yb) per level, must reproduce
        // filter_taps' (m, u, v) sequence bit-for-bit, lane for lane —
        // the order a declined fragment replays its taps in.
        let rect = |m: u32| ((64u32 >> m).max(1), (16u32 >> m).max(1));
        for mode in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
        ] {
            for i in 0..500 {
                let r = req(
                    i as f32 * 1.37 - 150.0,
                    i as f32 * -2.11 + 133.3,
                    i as f32 * 0.043 - 2.0,
                );
                let lanes: Vec<(u32, u32, u32)> = match filter_footprint(&r, mode, 7, rect) {
                    Footprint::Point { m, u, v } => vec![(m, u, v)],
                    Footprint::Quads { quads, n } => quads[..n]
                        .iter()
                        .flat_map(|q| {
                            let (m, xa, xb, ya, yb) = (q.m, q.xa, q.xb, q.ya, q.yb);
                            [(m, xa, ya), (m, xb, ya), (m, xa, yb), (m, xb, yb)]
                        })
                        .collect(),
                };
                let taps: Vec<(u32, u32, u32)> = filter_taps(&r, mode, 7, rect)
                    .iter()
                    .map(|t| (t.m, t.u, t.v))
                    .collect();
                assert_eq!(lanes, taps, "{mode:?} req {i}");
            }
        }
    }

    #[test]
    fn blocked_expansion_matches_filter_footprint_exactly() {
        // Stream a mix of point / single-level / two-level requests
        // through a FootprintBlock, flushing whenever it fills (and once
        // at the end, exercising the scalar partial-flush path), and
        // check every expansion — immediate or deferred — against
        // filter_footprint bit-for-bit.
        let rect = |m: u32| ((64u32 >> m).max(1), (16u32 >> m).max(1));
        for mode in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
        ] {
            let mut block = FootprintBlock::new();
            let mut qbuf = [[LevelQuad::default(); 2]; FOOTPRINT_BLOCK];
            let mut queued: Vec<PixelRequest> = Vec::new();
            let check_flush = |block: &mut FootprintBlock,
                               qbuf: &mut [[LevelQuad; 2]; FOOTPRINT_BLOCK],
                               queued: &mut Vec<PixelRequest>| {
                let reqs = block.flush(qbuf);
                assert_eq!(reqs.len(), queued.len());
                for (i, r) in reqs.iter().enumerate() {
                    assert_eq!(r, &queued[i], "{mode:?} queued req {i} identity");
                    let expect = filter_footprint(r, mode, 7, rect);
                    assert_eq!(
                        expect,
                        Footprint::Quads {
                            quads: qbuf[i],
                            n: 2
                        },
                        "{mode:?} deferred req {i}"
                    );
                }
                queued.clear();
            };
            for i in 0..503 {
                let r = req(
                    i as f32 * 1.37 - 150.0,
                    i as f32 * -2.11 + 133.3,
                    // Integer lods every few requests force single-level
                    // (immediate) expansions between two-level ones.
                    if i % 5 == 0 {
                        (i / 5) as f32 % 7.0
                    } else {
                        i as f32 * 0.043 - 2.0
                    },
                );
                match block.push(&r, mode, 7, rect) {
                    Some(fp) => {
                        assert_eq!(fp, filter_footprint(&r, mode, 7, rect), "{mode:?} req {i}");
                    }
                    None => {
                        queued.push(r);
                        if block.is_full() {
                            check_flush(&mut block, &mut qbuf, &mut queued);
                        }
                    }
                }
            }
            check_flush(&mut block, &mut qbuf, &mut queued);
            assert!(block.is_empty());
        }
    }

    #[test]
    fn wrap_handles_negatives() {
        assert_eq!(wrap(-1, 8), 7);
        assert_eq!(wrap(-8, 8), 0);
        assert_eq!(wrap(17, 8), 1);
    }
}
