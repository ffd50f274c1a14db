//! The finalized, immutable locality profile — what one instrumented
//! replay distills a trace into, and all the evaluator ever reads.

use mltc_telemetry::Json;
use std::collections::HashMap;
use std::fmt;

/// L2 block replacement policy, mirrored from the engine (`mltc-model`
/// cannot depend on `mltc-core`, which depends back on this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Second-chance clock (the paper's choice).
    Clock,
    /// True least-recently-used.
    Lru,
    /// First-in first-out.
    Fifo,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Policy::Clock => "clock",
            Policy::Lru => "lru",
            Policy::Fifo => "fifo",
        })
    }
}

/// A cumulative distribution over exact stack distances: for any capacity
/// `c`, [`count_below`](Self::count_below) returns how many recorded
/// values are `< c` — i.e. how many accesses hit a capacity-`c`
/// fully-associative LRU.
#[derive(Debug, Clone, Default)]
pub struct CumCurve {
    /// (value, cumulative count of recordings ≤ value), values ascending.
    points: Vec<(u64, u64)>,
}

impl CumCurve {
    /// Builds the curve from a value → count histogram.
    pub fn from_counts(counts: &HashMap<u64, u64>) -> Self {
        let mut points: Vec<(u64, u64)> = counts.iter().map(|(&v, &c)| (v, c)).collect();
        points.sort_unstable();
        let mut cum = 0;
        for p in &mut points {
            cum += p.1;
            p.1 = cum;
        }
        Self { points }
    }

    /// Recordings with value `< c`.
    pub fn count_below(&self, c: u64) -> u64 {
        let i = self.points.partition_point(|&(v, _)| v < c);
        if i == 0 {
            0
        } else {
            self.points[i - 1].1
        }
    }

    /// Total recordings.
    pub fn total(&self) -> u64 {
        self.points.last().map_or(0, |&(_, c)| c)
    }

    /// The raw (value, cumulative) points, ascending.
    pub fn points(&self) -> &[(u64, u64)] {
        &self.points
    }
}

/// The L1 block-granularity stack-distance curve over the full tap stream.
#[derive(Debug, Clone)]
pub struct BlockProfile {
    /// `log2` of the block (tile) edge in texels.
    pub shift: u32,
    /// Taps recorded.
    pub accesses: u64,
    /// Cold (first-touch) taps — misses at every capacity.
    pub cold: u64,
    /// Distinct blocks touched.
    pub distinct: u64,
    /// Stack-distance curve of the warm taps.
    pub curve: CumCurve,
}

/// One replacement-exact mini-simulation rung: counters for both sector
/// modes of a (policy, capacity) L2 over the captured L1-miss stream.
#[derive(Debug, Clone, Copy)]
pub struct MiniPoint {
    /// Replacement policy simulated.
    pub policy: Policy,
    /// Capacity in L2 blocks.
    pub cap_blocks: u64,
    /// Sector-mapped full hits.
    pub full_hits_on: u64,
    /// Sector-mapped partial hits.
    pub partial_hits_on: u64,
    /// Whole-block-download full hits (= any allocated hit).
    pub full_hits_off: u64,
    /// Full misses (identical in both sector modes).
    pub full_misses: u64,
}

/// One TLB ladder rung: a round-robin TLB of `entries` slots run over the
/// page-key stream.
#[derive(Debug, Clone, Copy)]
pub struct TlbPoint {
    /// TLB capacity in entries.
    pub entries: usize,
    /// Accesses (= captured L1 misses).
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
}

/// Everything captured for one page size over the L1-miss stream.
#[derive(Debug, Clone)]
pub struct PageProfile {
    /// `log2` of the L2 tile (page) edge in texels.
    pub shift: u32,
    /// L1 misses observed (the L2 access count of any config).
    pub accesses: u64,
    /// Cold page touches — full misses at every capacity.
    pub cold: u64,
    /// Distinct pages touched.
    pub distinct: u64,
    /// Page stack-distance curve: `count_below(C)` = accesses whose page
    /// is resident in a capacity-`C` LRU (full + partial hits).
    pub resident: CumCurve,
    /// Sector-survival curve: `count_below(C)` = sector-mapped full hits
    /// in a capacity-`C` LRU (see `capture` module docs).
    pub sector_full: CumCurve,
    /// Replacement-exact clock/LRU/FIFO rungs.
    pub minis: Vec<MiniPoint>,
    /// Round-robin TLB rungs.
    pub tlbs: Vec<TlbPoint>,
}

impl PageProfile {
    /// The rung for (policy, capacity), if the ladder ran one.
    pub fn mini(&self, policy: Policy, cap_blocks: u64) -> Option<&MiniPoint> {
        self.minis
            .iter()
            .find(|m| m.policy == policy && m.cap_blocks == cap_blocks)
    }

    /// The TLB rung with exactly `entries` slots, if the ladder ran one.
    pub fn tlb(&self, entries: usize) -> Option<&TlbPoint> {
        self.tlbs.iter().find(|t| t.entries == entries)
    }
}

/// The distilled locality of one replay: everything needed to predict any
/// (L1 size × L2 size × page size × TLB × sector × policy) design point.
#[derive(Debug, Clone)]
pub struct LocalityProfile {
    /// Total taps replayed.
    pub taps: u64,
    /// Measured L1 hits of the instrumented configuration.
    pub l1_hits: u64,
    /// Measured L1 misses of the instrumented configuration.
    pub l1_misses: u64,
    /// The instrumented L1's capacity in lines.
    pub l1_lines_instrumented: u64,
    /// The instrumented L1's associativity.
    pub l1_ways_instrumented: u64,
    /// L1 line size in bytes.
    pub l1_line_bytes: u64,
    /// `log2` of the L1 tile edge.
    pub tile_shift: u32,
    /// Block-granularity curves (currently one, at the L1 tile size).
    pub blocks: Vec<BlockProfile>,
    /// Page-granularity planes, one per captured page shift.
    pub pages: Vec<PageProfile>,
}

impl LocalityProfile {
    /// The page plane for a given page shift.
    pub fn page(&self, shift: u32) -> Option<&PageProfile> {
        self.pages.iter().find(|p| p.shift == shift)
    }

    /// The block curve at a given tile shift.
    pub fn block(&self, shift: u32) -> Option<&BlockProfile> {
        self.blocks.iter().find(|b| b.shift == shift)
    }

    /// Measured L1 hit rate of the instrumented replay.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.taps == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.taps as f64
        }
    }

    /// The full profile as a JSON value. Curves are `[value, cumulative]`
    /// pairs; everything the evaluator reads is present, so a dumped
    /// profile is a complete model artefact.
    pub fn to_json(&self) -> Json {
        let curve = |c: &CumCurve| {
            let pair = |&(v, n): &(u64, u64)| Json::Arr(vec![Json::Num(v), Json::Num(n)]);
            Json::Arr(c.points().iter().map(pair).collect())
        };
        let block = |b: &BlockProfile| {
            Json::obj([
                ("shift", Json::Num(b.shift.into())),
                ("accesses", Json::Num(b.accesses)),
                ("cold", Json::Num(b.cold)),
                ("distinct", Json::Num(b.distinct)),
                ("curve", curve(&b.curve)),
            ])
        };
        let mini = |m: &MiniPoint| {
            Json::obj([
                ("policy", Json::Str(m.policy.to_string())),
                ("cap_blocks", Json::Num(m.cap_blocks)),
                ("full_hits_on", Json::Num(m.full_hits_on)),
                ("partial_hits_on", Json::Num(m.partial_hits_on)),
                ("full_hits_off", Json::Num(m.full_hits_off)),
                ("full_misses", Json::Num(m.full_misses)),
            ])
        };
        let tlb = |t: &TlbPoint| {
            Json::obj([
                ("entries", Json::Num(t.entries as u64)),
                ("accesses", Json::Num(t.accesses)),
                ("hits", Json::Num(t.hits)),
            ])
        };
        let page = |p: &PageProfile| {
            Json::obj([
                ("shift", Json::Num(p.shift.into())),
                ("accesses", Json::Num(p.accesses)),
                ("cold", Json::Num(p.cold)),
                ("distinct", Json::Num(p.distinct)),
                ("resident", curve(&p.resident)),
                ("sector_full", curve(&p.sector_full)),
                ("minis", Json::Arr(p.minis.iter().map(mini).collect())),
                ("tlbs", Json::Arr(p.tlbs.iter().map(tlb).collect())),
            ])
        };
        Json::obj([
            ("taps", Json::Num(self.taps)),
            ("l1_hits", Json::Num(self.l1_hits)),
            ("l1_misses", Json::Num(self.l1_misses)),
            ("l1_lines", Json::Num(self.l1_lines_instrumented)),
            ("l1_line_bytes", Json::Num(self.l1_line_bytes)),
            ("tile_shift", Json::Num(self.tile_shift.into())),
            ("blocks", Json::Arr(self.blocks.iter().map(block).collect())),
            ("pages", Json::Arr(self.pages.iter().map(page).collect())),
        ])
    }
}
