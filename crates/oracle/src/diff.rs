//! Lockstep differential replay: engine vs oracle, access by access.

use crate::model::OracleEngine;
use crate::timing::NaiveTiming;
use mltc_core::{AccessTrace, EngineConfig, EngineError, LatencyModel, SimEngine};
use mltc_texture::{TextureId, TextureRegistry};
use mltc_trace::{filter_taps, FilterMode, FrameTrace};
use std::fmt;

/// One texel access of an access stream: plain numbers, no packing, so
/// streams serialize trivially and shrink element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TexelAccess {
    /// Texture index.
    pub tid: u32,
    /// Mip level.
    pub m: u32,
    /// In-bounds texel column of level `m`.
    pub u: u32,
    /// In-bounds texel row of level `m`.
    pub v: u32,
}

/// Expands a recorded frame trace into the flat texel-access stream the
/// engine would replay (one access per filter tap), using the same
/// authoritative [`filter_taps`] expansion the engine itself uses.
pub fn expand_frame(
    trace: &FrameTrace,
    filter: FilterMode,
    registry: &TextureRegistry,
    out: &mut Vec<TexelAccess>,
) -> Result<(), EngineError> {
    for req in &trace.requests {
        let pyr = registry
            .pyramid(req.tid)
            .ok_or(EngineError::UnknownTexture(req.tid))?;
        let dims: Vec<(u32, u32)> = pyr.iter().map(|l| (l.width(), l.height())).collect();
        let taps = filter_taps(req, filter, dims.len() as u32, |m| dims[m as usize]);
        for tap in &taps {
            out.push(TexelAccess {
                tid: req.tid.index(),
                m: tap.m,
                u: tap.u,
                v: tap.v,
            });
        }
    }
    Ok(())
}

/// Where and how the engine and the oracle disagreed.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the diverging access in the replayed stream.
    pub index: usize,
    /// The access itself.
    pub access: TexelAccess,
    /// What the engine reported.
    pub engine: AccessTrace,
    /// What the oracle reported.
    pub oracle: AccessTrace,
    /// Human-readable detail (names the first differing field, including
    /// the clock hand, which is compared beyond the traces).
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divergence at access #{} (tid={} m={} u={} v={}): {}",
            self.index, self.access.tid, self.access.m, self.access.u, self.access.v, self.detail
        )
    }
}

fn describe(engine: &AccessTrace, oracle: &AccessTrace, hands: Option<(usize, usize)>) -> String {
    macro_rules! diff {
        ($field:ident) => {
            if engine.$field != oracle.$field {
                return format!(
                    concat!(stringify!($field), ": engine {:?} vs oracle {:?}"),
                    engine.$field, oracle.$field
                );
            }
        };
    }
    diff!(l1_hit);
    diff!(tlb_hit);
    diff!(l2);
    diff!(l2_block);
    diff!(evicted_page);
    diff!(host_bytes);
    diff!(retries);
    diff!(failed);
    diff!(degraded);
    diff!(dropped);
    if let Some((e, o)) = hands {
        if e != o {
            return format!("clock hand: engine {e} vs oracle {o}");
        }
    }
    "traces equal (spurious)".to_string()
}

/// Replays access streams through a [`SimEngine`] and an [`OracleEngine`]
/// built from the same configuration and registry, asserting per-access
/// agreement on classification (L1/TLB/L2), byte counts, replacement
/// victims and — for the clock policy — the hand position.
pub struct DiffHarness<'a> {
    cfg: EngineConfig,
    registry: &'a TextureRegistry,
    /// Timing conformance mode: attach the engine's timing overlay under
    /// this model and check its cycle total against the naive serial
    /// reference (upper bound always; exact equality in lockstep mode).
    timing: Option<LatencyModel>,
}

impl<'a> DiffHarness<'a> {
    /// Builds a harness; fails exactly when [`SimEngine::try_new`] would.
    pub fn new(cfg: EngineConfig, registry: &'a TextureRegistry) -> Result<Self, EngineError> {
        // Probe-build the engine once so invalid configs fail here, loudly,
        // rather than on every replay.
        SimEngine::try_new(cfg, registry)?;
        Ok(Self {
            cfg,
            registry,
            timing: None,
        })
    }

    /// Enables timing conformance under `model`: every replay attaches
    /// the engine's timing overlay, feeds a [`NaiveTiming`] serial
    /// reference from the *oracle's* traces, and reports a [`Divergence`]
    /// if (a) the engine's cycle total exceeds the serial upper bound,
    /// (b) the model is [`LatencyModel::lockstep`] and the totals are not
    /// exactly equal to the behavioral access count, or (c) the timing
    /// overlay's scheduled link bytes disagree with the behavioral host
    /// bytes (a merge double-counted or dropped a transfer). Shrinking
    /// works on timing divergences too — every ddmin candidate replays
    /// cold with the same checks.
    pub fn with_timing(mut self, model: LatencyModel) -> Self {
        self.timing = Some(model);
        self
    }

    /// The configuration under test.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Replays `accesses` in lockstep; returns the first divergence
    /// (boxed: the two embedded traces make it a large payload for the hot
    /// `Ok` path). Also replays the same stream through the engine's
    /// monomorphized tap-slice fast path ([`SimEngine::replay_taps`]) and
    /// checks it against the per-access traced replay — three models, one
    /// verdict.
    pub fn replay(&self, accesses: &[TexelAccess]) -> Result<(), Box<Divergence>> {
        self.replay_mode(accesses, true)
    }

    /// [`replay`](Self::replay) with the fast-path cross-check optional
    /// (property tests toggle it so shrinking an oracle divergence does not
    /// pay for the extra engine on every candidate).
    pub fn replay_mode(
        &self,
        accesses: &[TexelAccess],
        check_fast: bool,
    ) -> Result<(), Box<Divergence>> {
        let mut engine = SimEngine::try_new(self.cfg, self.registry)
            .expect("config was validated in DiffHarness::new");
        if let Some(model) = self.timing {
            engine.attach_timing(model);
        }
        let mut oracle = OracleEngine::new(self.cfg, self.registry);
        let mut naive = self.timing.map(NaiveTiming::new);
        for (index, &a) in accesses.iter().enumerate() {
            let tid = TextureId::from_index(a.tid);
            let e = engine.access_texel_traced(tid, a.m, a.u, a.v);
            let o = oracle.access_texel(tid, a.m, a.u, a.v);
            if let Some(n) = &mut naive {
                n.observe(&o);
            }
            let engine_hand = engine.l2().and_then(|l2| l2.clock_hand());
            let oracle_hand = oracle.clock_hand();
            if e != o || engine_hand != oracle_hand {
                let hands = engine_hand.zip(oracle_hand);
                return Err(Box::new(Divergence {
                    index,
                    access: a,
                    engine: e,
                    oracle: o,
                    detail: describe(&e, &o, hands),
                }));
            }
        }
        if check_fast {
            self.check_fast_path(&mut engine, accesses)?;
        }
        if let Some(naive) = naive {
            // check_fast_path already closed the traced frame (draining
            // the lookahead window); close it here otherwise.
            if !check_fast {
                engine.end_frame();
            }
            self.check_timing(&engine, &naive, accesses)?;
        }
        Ok(())
    }

    /// The timing verdicts: serial upper bound, lockstep exactness and
    /// link-byte conservation (see [`with_timing`](Self::with_timing)).
    fn check_timing(
        &self,
        engine: &SimEngine,
        naive: &NaiveTiming,
        accesses: &[TexelAccess],
    ) -> Result<(), Box<Divergence>> {
        let timing = engine.timing().expect("timing was attached for replay");
        let t = timing.totals();
        let host_bytes = engine.totals().host_bytes;
        let mismatch = if t.cycles_total > naive.cycles() {
            Some(format!(
                "timing upper bound violated: engine {} cycles vs naive serial {}",
                t.cycles_total,
                naive.cycles()
            ))
        } else if *timing.model() == LatencyModel::lockstep()
            && (t.cycles_total != naive.cycles() || t.cycles_total != accesses.len() as u64)
        {
            Some(format!(
                "lockstep timing not exact: engine {} cycles, naive {}, {} accesses",
                t.cycles_total,
                naive.cycles(),
                accesses.len()
            ))
        } else if t.link_bytes != host_bytes {
            Some(format!(
                "link bytes diverge from behavioral host bytes: {} vs {} \
                 (a merge double-counted or dropped a transfer)",
                t.link_bytes, host_bytes
            ))
        } else {
            None
        };
        if let Some(detail) = mismatch {
            return Err(Box::new(Divergence {
                index: accesses.len(),
                access: accesses.last().copied().unwrap_or(TexelAccess {
                    tid: 0,
                    m: 0,
                    u: 0,
                    v: 0,
                }),
                engine: AccessTrace::default(),
                oracle: AccessTrace::default(),
                detail,
            }));
        }
        Ok(())
    }

    /// Replays `accesses` through one more engine via the tap-slice fast
    /// path and compares its end state (frame counters, clock hand,
    /// host-link draw count) to `traced`, whose state was built tap by tap
    /// through [`SimEngine::access_texel_traced`]. The paths share their
    /// scalar tap body, so any mismatch is a specialization bug.
    fn check_fast_path(
        &self,
        traced: &mut SimEngine,
        accesses: &[TexelAccess],
    ) -> Result<(), Box<Divergence>> {
        let taps: Vec<(u32, u32, u32, u32)> =
            accesses.iter().map(|a| (a.tid, a.m, a.u, a.v)).collect();
        traced.end_frame();
        let mut fast = SimEngine::try_new(self.cfg, self.registry)
            .expect("config was validated in DiffHarness::new");
        fast.replay_taps(&taps);
        fast.end_frame();
        let mismatch = if fast.frames() != traced.frames() {
            Some(format!(
                "frame counters: fast {:?} vs traced {:?}",
                fast.frames().last(),
                traced.frames().last()
            ))
        } else if fast.l2().and_then(|l2| l2.clock_hand())
            != traced.l2().and_then(|l2| l2.clock_hand())
        {
            Some(format!(
                "clock hand: fast {:?} vs traced {:?}",
                fast.l2().and_then(|l2| l2.clock_hand()),
                traced.l2().and_then(|l2| l2.clock_hand())
            ))
        } else if fast.host().transfers() != traced.host().transfers() {
            Some(format!(
                "host transfers: fast {} vs traced {}",
                fast.host().transfers(),
                traced.host().transfers()
            ))
        } else {
            None
        };
        match mismatch {
            None => Ok(()),
            Some(detail) => Err(Box::new(Divergence {
                index: accesses.len(),
                access: accesses.last().copied().unwrap_or(TexelAccess {
                    tid: 0,
                    m: 0,
                    u: 0,
                    v: 0,
                }),
                engine: AccessTrace::default(),
                oracle: AccessTrace::default(),
                detail: format!("fast-path replay diverged: {detail}"),
            })),
        }
    }

    /// Delta-minimizes a diverging stream: returns the smallest sub-stream
    /// (in replay order) this harness could find that still diverges. If
    /// `accesses` does not diverge it is returned unchanged.
    ///
    /// Classic ddmin over chunk complements, followed by a greedy
    /// one-at-a-time pass; every candidate replays both models from a cold
    /// state, so minimization is deterministic.
    pub fn shrink(&self, accesses: &[TexelAccess]) -> Vec<TexelAccess> {
        let mut current = accesses.to_vec();
        if self.replay(&current).is_ok() {
            return current;
        }
        let mut n = 2usize;
        while current.len() >= 2 {
            let chunk = current.len().div_ceil(n);
            let mut reduced = false;
            let mut start = 0usize;
            while start < current.len() {
                let end = (start + chunk).min(current.len());
                let mut candidate = Vec::with_capacity(current.len() - (end - start));
                candidate.extend_from_slice(&current[..start]);
                candidate.extend_from_slice(&current[end..]);
                if !candidate.is_empty() && self.replay(&candidate).is_err() {
                    current = candidate;
                    n = n.saturating_sub(1).max(2);
                    reduced = true;
                    break;
                }
                start = end;
            }
            if !reduced {
                if n >= current.len() {
                    break;
                }
                n = (n * 2).min(current.len());
            }
        }
        // Greedy polish: try dropping each remaining access once more.
        let mut i = 0;
        while current.len() > 1 && i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if self.replay(&candidate).is_err() {
                current = candidate;
            } else {
                i += 1;
            }
        }
        current
    }
}

/// Replays a pre-built engine/oracle pair (used by tests that deliberately
/// mismatch configurations to exercise divergence reporting; `replay` can
/// never diverge-on-demand since both sides are built from one config).
pub fn replay_pair(
    engine: &mut SimEngine,
    oracle: &mut OracleEngine,
    accesses: &[TexelAccess],
) -> Result<(), Box<Divergence>> {
    for (index, &a) in accesses.iter().enumerate() {
        let tid = TextureId::from_index(a.tid);
        let e = engine.access_texel_traced(tid, a.m, a.u, a.v);
        let o = oracle.access_texel(tid, a.m, a.u, a.v);
        let engine_hand = engine.l2().and_then(|l2| l2.clock_hand());
        let oracle_hand = oracle.clock_hand();
        if e != o || engine_hand != oracle_hand {
            let hands = engine_hand.zip(oracle_hand);
            return Err(Box::new(Divergence {
                index,
                access: a,
                engine: e,
                oracle: o,
                detail: describe(&e, &o, hands),
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltc_core::{L1Config, L2Config};
    use mltc_texture::{synth, MipPyramid};

    fn registry(n: usize, dim: u32) -> TextureRegistry {
        let mut reg = TextureRegistry::new();
        for i in 0..n {
            reg.load(
                format!("t{i}"),
                MipPyramid::from_image(synth::checkerboard(dim, 4, [0; 3], [255; 3])),
            );
        }
        reg
    }

    fn ml_cfg() -> EngineConfig {
        EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config {
                size_bytes: 8 * 1024, // 8 blocks: evictions happen fast
                ..L2Config::mb(1)
            }),
            tlb_entries: 2,
            ..EngineConfig::default()
        }
    }

    fn sweep_stream(dim: u32) -> Vec<TexelAccess> {
        let mut s = Vec::new();
        for v in (0..dim).step_by(4) {
            for u in (0..dim).step_by(4) {
                s.push(TexelAccess { tid: 0, m: 0, u, v });
            }
        }
        s
    }

    #[test]
    fn engine_and_oracle_agree_on_a_sweep() {
        let reg = registry(2, 64);
        let h = DiffHarness::new(ml_cfg(), &reg).unwrap();
        h.replay(&sweep_stream(64)).unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        let reg = registry(1, 64);
        let bad = EngineConfig {
            l1: L1Config {
                size_bytes: 3072,
                ..L1Config::kb(2)
            },
            ..EngineConfig::default()
        };
        assert!(DiffHarness::new(bad, &reg).is_err());
    }

    #[test]
    fn mismatched_pair_diverges_and_shrinks() {
        // Engine with 8 blocks vs oracle with 4: replay_pair must catch the
        // first decision the extra capacity changes, and the divergence
        // message must name a concrete field.
        let reg = registry(1, 64);
        let big = ml_cfg();
        let small = EngineConfig {
            l2: Some(L2Config {
                size_bytes: 4 * 1024,
                ..big.l2.unwrap()
            }),
            ..big
        };
        let stream = sweep_stream(64);
        let mut engine = SimEngine::new(big, &reg);
        let mut oracle = OracleEngine::new(small, &reg);
        let div = replay_pair(&mut engine, &mut oracle, &stream).unwrap_err();
        assert!(
            !div.detail.contains("spurious"),
            "divergence must name a field: {}",
            div.detail
        );
        assert!(div.index < stream.len());
    }

    #[test]
    fn shrink_returns_non_diverging_streams_unchanged() {
        let reg = registry(1, 64);
        let h = DiffHarness::new(ml_cfg(), &reg).unwrap();
        let stream = sweep_stream(64);
        assert_eq!(h.shrink(&stream), stream);
    }
}
