//! L1 passes: one replay's L1-filtered miss stream, made a value, so every
//! other configuration on the same L1 replays only what lies below it.
//!
//! On a fault-free link everything below the L1 is a function of the L1
//! miss stream alone (DESIGN.md §14). An [`L1Pass`] is that stream as the
//! leader of a group of configurations sharing an L1
//! ([`shares_l1_with`](SimEngine::shares_l1_with)) makes it — per frame its
//! misses in tap order and its `l1_accesses`/`l1_hits`, and at the end a
//! clone of its L1 — so every other member, in the same run or in a later
//! one, replays the pass through the below-L1 loop (`Misses`) and
//! ends state-identical to its solo batched replay. It is the only way
//! configurations share an L1, and nothing here is a new tap body.

use super::{FrameCounters, Misses, SimEngine};
use crate::batch::WideFrame;
use crate::tap::{AdmitAll, L1Miss, MissLog, TelOff};
use crate::{EngineError, L1Config, L1TextureCache};
use mltc_texture::TilingConfig;
use mltc_trace::{FilterMode, FrameTrace};

/// Bits of a packed miss word given to each of `u` and `v`; the mip level
/// takes the four that remain.
const COORD_BITS: u32 = 14;
const COORD_MASK: u32 = (1 << COORD_BITS) - 1;
const LEVEL_BITS: u32 = 32 - 2 * COORD_BITS;

/// Whether every miss over textures of these mip dimensions packs into a
/// word: at most 16 levels, none over 16 384 texels on a side (taps are
/// wrapped into their level). Checked where a group forms and where a
/// recording starts, so a recording leader never meets a miss it cannot
/// pack. `mltc_texture::Image` caps a level at 4096 texels today; the check
/// keeps that an observation rather than an assumption.
pub(super) fn packs_every_miss(dims: &[Option<Vec<(u32, u32)>>]) -> bool {
    dims.iter().flatten().all(|levels| {
        levels.len() <= 1 << LEVEL_BITS
            && levels
                .iter()
                .all(|&(w, h)| w <= COORD_MASK + 1 && h <= COORD_MASK + 1)
    })
}

/// One L1 miss as one word, `m << 28 | u << 14 | v` — memory, not time, is
/// what a stored pass costs. Every field fits: the pass's textures passed
/// [`packs_every_miss`].
fn pack(m: u32, u: u32, v: u32) -> u32 {
    debug_assert!(m < 1 << LEVEL_BITS && u <= COORD_MASK && v <= COORD_MASK);
    m << (2 * COORD_BITS) | u << COORD_BITS | v
}

fn unpack(tid: u32, word: u32) -> L1Miss {
    (
        tid,
        word >> (2 * COORD_BITS),
        (word >> COORD_BITS) & COORD_MASK,
        word & COORD_MASK,
    )
}

/// One frame of a pass, each slice allocated at its exact size.
#[derive(Debug)]
struct PassFrame {
    l1_accesses: u64,
    l1_hits: u64,
    /// The frame's L1 misses in tap order, [`pack`]ed.
    words: Box<[u32]>,
    /// `(texture index, length)` runs over `words`: consecutive misses
    /// mostly stay on one texture, so the id is stored per run.
    runs: Box<[(u32, u32)]>,
}

impl PassFrame {
    fn pack(misses: &[L1Miss], counters: &FrameCounters) -> Self {
        let mut words = Vec::with_capacity(misses.len());
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &(tid, m, u, v) in misses {
            words.push(pack(m, u, v));
            match runs.last_mut() {
                Some((t, n)) if *t == tid && *n < u32::MAX => *n += 1,
                _ => runs.push((tid, 1)),
            }
        }
        Self {
            l1_accesses: counters.l1_accesses,
            l1_hits: counters.l1_hits,
            words: words.into_boxed_slice(),
            runs: runs.into_boxed_slice(),
        }
    }

    fn misses(&self) -> impl Iterator<Item = L1Miss> + '_ {
        let mut rest = &self.words[..];
        self.runs.iter().flat_map(move |&(tid, n)| {
            let (run, tail) = rest.split_at(n as usize);
            rest = tail;
            run.iter().map(move |&word| unpack(tid, word))
        })
    }

    fn bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + std::mem::size_of_val(&*self.words)
            + std::mem::size_of_val(&*self.runs)) as u64
    }
}

/// A complete L1 pass over one animation: what every fault-free,
/// unobserved engine with this filter, L1 geometry and tiling over these
/// textures would compute above its L2, TLB and host link.
///
/// Recorded by [`SimEngine::try_run_frame_recorded_as`] through an
/// [`L1PassRecorder`]; replayed by
/// [`SimEngine::replay_pass_frame`].
#[derive(Debug)]
pub struct L1Pass {
    filter: FilterMode,
    l1_cfg: L1Config,
    tiling: TilingConfig,
    /// Mip dimensions of the textures the pass was made over (the
    /// engine's `dims`): other textures expand the same requests to other
    /// taps.
    dims: Vec<Option<Vec<(u32, u32)>>>,
    frames: Vec<PassFrame>,
    /// The L1 as the last frame left it.
    l1: L1TextureCache,
}

impl L1Pass {
    /// Whether `engine`, replaying under `filter`, may replay this pass
    /// instead of running its own: the identity
    /// [`shares_l1_with`](SimEngine::shares_l1_with) compares, plus the
    /// filter.
    pub fn answers(&self, engine: &SimEngine, filter: FilterMode) -> bool {
        self.filter == filter && self.fits(engine)
    }

    /// Whether `other` is a pass over the same filter, L1 and textures —
    /// over the same frames, the same pass.
    pub fn same_l1_as(&self, other: &L1Pass) -> bool {
        self.filter == other.filter
            && self.l1_cfg == other.l1_cfg
            && self.tiling == other.tiling
            && self.dims == other.dims
    }

    /// [`shares_l1_with`](SimEngine::shares_l1_with) against the engine
    /// the pass was recorded on; its textures passed the word check then.
    fn fits(&self, engine: &SimEngine) -> bool {
        engine.l1_stands_alone()
            && self.l1_cfg == engine.cfg.l1
            && self.tiling == engine.cfg.tiling
            && self.dims == engine.dims
    }

    /// Whether the pass holds exactly the frames `leader` has replayed.
    fn follows(&self, leader: &SimEngine) -> bool {
        self.fits(leader) && self.frames.len() == leader.frames.len()
    }

    /// Frames in the pass.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Approximate resident size in bytes (for a holder's budget).
    pub fn bytes(&self) -> u64 {
        let dims: usize = self
            .dims
            .iter()
            .map(|d| {
                std::mem::size_of_val(d) + d.as_ref().map_or(0, |l| std::mem::size_of_val(&l[..]))
            })
            .sum();
        // The L1's tag and stamp arrays, a `u64` each per line.
        let l1 = std::mem::size_of::<L1TextureCache>() + self.l1_cfg.lines() * 16;
        (std::mem::size_of::<Self>() + dims + l1) as u64
            + self.frames.iter().map(PassFrame::bytes).sum::<u64>()
    }
}

/// An [`L1Pass`] in the making: handed to
/// [`SimEngine::try_run_frame_recorded_as`] with every frame of a replay,
/// then [`finish`](Self::finish)ed. It owns the buffer each frame's misses
/// are logged into before they are packed. Recording stops for good — the
/// replay itself carries on unchanged — the moment the pass could not be
/// exact: a leader with a fault plan, telemetry or timing, over textures
/// whose misses do not pack, or one that already replayed something; a
/// frame that ended in an error.
#[derive(Debug)]
pub struct L1PassRecorder {
    filter: FilterMode,
    pass: Option<L1Pass>,
    /// The frame being recorded's L1 misses in tap order (reused from
    /// frame to frame).
    log: Vec<L1Miss>,
}

impl L1PassRecorder {
    /// The finished pass, if every frame `leader` replayed was recorded.
    pub fn finish(self, leader: &SimEngine) -> Option<L1Pass> {
        let mut pass = self.pass.filter(|p| p.follows(leader))?;
        pass.l1.clone_from(&leader.l1);
        Some(pass)
    }
}

impl SimEngine {
    /// Starts recording the L1 pass this engine is about to make under
    /// `filter` with
    /// [`try_run_frame_recorded_as`](Self::try_run_frame_recorded_as).
    pub fn record_l1_pass(&self, filter: FilterMode) -> L1PassRecorder {
        let fresh = self.frames.is_empty() && self.current == FrameCounters::default();
        let exact = self.l1_stands_alone() && packs_every_miss(&self.dims);
        L1PassRecorder {
            filter,
            pass: (fresh && exact).then(|| L1Pass {
                filter,
                l1_cfg: self.cfg.l1,
                tiling: self.cfg.tiling,
                dims: self.dims.clone(),
                frames: Vec::new(),
                l1: self.l1.clone(),
            }),
            log: Vec::new(),
        }
    }

    /// [`try_run_frame_as_batched`](Self::try_run_frame_as_batched) under
    /// the recorder's filter, with the frame appended to the pass being
    /// recorded: the wide frame loop runs with the `MissLog` sink in place
    /// of `TelOff`, and the misses it logs are packed when the frame
    /// closes. Not generic, so callers in other crates share this crate's
    /// copy of the logging frame loops.
    ///
    /// # Errors
    ///
    /// Same contract as [`try_run_frame`](Self::try_run_frame); a frame
    /// that ends in an error ends the recording.
    pub fn try_run_frame_recorded_as(
        &mut self,
        trace: &FrameTrace,
        recorder: &mut L1PassRecorder,
    ) -> Result<(), EngineError> {
        let filter = recorder.filter;
        let Some(mut pass) = recorder.pass.take().filter(|p| p.follows(self)) else {
            return self.replay_frame_batched(filter, &trace.requests);
        };
        recorder.log.clear();
        let frame = WideFrame {
            filter,
            requests: trace.requests.iter().copied(),
            ad: AdmitAll,
        };
        let log = MissLog(&mut recorder.log);
        self.hierarchy(None).0.replay_under(log, frame)?;
        pass.frames
            .push(PassFrame::pack(&recorder.log, &self.current));
        recorder.pass = Some(pass);
        self.end_frame();
        Ok(())
    }

    /// Replays frame `frame` of a pass: its L1 misses through this
    /// engine's own TLB, L2 and host link, its L1 counters adopted and —
    /// with the last frame — a clone of the L1 the pass ended on. Frames
    /// replay in order on a fresh engine, which then ends every frame
    /// where its solo batched replay of the animation would (the L1 itself
    /// only once the whole pass has been replayed: nothing below a
    /// fault-free L1 ever reads it).
    ///
    /// # Panics
    ///
    /// Panics if the pass does not [answer](L1Pass::answers) this engine,
    /// or on any other frame than the next one.
    pub fn replay_pass_frame(&mut self, pass: &L1Pass, frame: usize) {
        assert!(
            pass.fits(self),
            "an L1 pass replays only on an engine that shares its L1"
        );
        assert!(
            self.frames.len() == frame && self.current == FrameCounters::default(),
            "an L1 pass replays frame by frame on a fresh engine"
        );
        let stored = &pass.frames[frame];
        let misses = Misses(stored.misses());
        self.hierarchy(None).0.replay_under(TelOff, misses);
        self.current.l1_accesses = stored.l1_accesses;
        self.current.l1_hits = stored.l1_hits;
        if frame + 1 == pass.frames.len() {
            self.l1.clone_from(&pass.l1);
        }
        self.end_frame();
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_same_state, registry, shared_l1_configs, wavy_trace};
    use super::*;
    use crate::{EngineConfig, FaultPlan, LatencyModel};
    use mltc_telemetry::Recorder;
    use mltc_texture::{Image, MipPyramid, TexelFormat, TextureId, TextureRegistry};
    use mltc_trace::PixelRequest;

    const FILTERS: [FilterMode; 3] = [
        FilterMode::Point,
        FilterMode::Bilinear,
        FilterMode::Trilinear,
    ];

    fn frame(frame: u32, requests: &[(u32, f32, f32, f32)]) -> FrameTrace {
        let mut t = FrameTrace::new(frame, 8, 8, FilterMode::Point);
        for &(tid, u, v, lod) in requests {
            t.push(PixelRequest {
                tid: TextureId::from_index(tid),
                u,
                v,
                lod,
            });
        }
        t
    }

    /// Replays `frames` through `leader`, recording; the pass if one came
    /// out of it.
    fn record(leader: &mut SimEngine, frames: &[FrameTrace], filter: FilterMode) -> Option<L1Pass> {
        let mut recorder = leader.record_l1_pass(filter);
        for t in frames {
            leader.try_run_frame_recorded_as(t, &mut recorder).unwrap();
        }
        recorder.finish(leader)
    }

    fn solo(
        cfg: EngineConfig,
        reg: &TextureRegistry,
        frames: &[FrameTrace],
        filter: FilterMode,
    ) -> SimEngine {
        let mut e = SimEngine::new(cfg, reg);
        for t in frames {
            e.try_run_frame_as_batched(t, filter).unwrap();
        }
        e
    }

    fn miss_count(pass: &L1Pass) -> u64 {
        pass.frames.iter().map(|f| f.words.len() as u64).sum()
    }

    fn from_pass(cfg: EngineConfig, reg: &TextureRegistry, pass: &L1Pass) -> SimEngine {
        let mut e = SimEngine::new(cfg, reg);
        for f in 0..pass.frame_count() {
            e.replay_pass_frame(pass, f);
        }
        e
    }

    /// Replays `pass` into a fresh `cfg` engine beside that engine's solo
    /// batched replay of `frames`, holding the two together frame by frame;
    /// the L1 is adopted with the last frame, so it is compared at the end.
    /// The solo replay is returned.
    fn assert_replays_as_solo(
        cfg: EngineConfig,
        reg: &TextureRegistry,
        pass: &L1Pass,
        frames: &[FrameTrace],
        filter: FilterMode,
        ctx: &str,
    ) -> SimEngine {
        let mut want = SimEngine::new(cfg, reg);
        let mut got = SimEngine::new(cfg, reg);
        for (f, t) in frames.iter().enumerate() {
            want.try_run_frame_as_batched(t, filter).unwrap();
            got.replay_pass_frame(pass, f);
            let ctx = format!("{ctx} frame {f}");
            assert_eq!(got.frames(), want.frames(), "{ctx}: frame counters");
            assert_eq!(
                got.l2().map(|l2| (l2.clock_hand(), l2.clock_stats())),
                want.l2().map(|l2| (l2.clock_hand(), l2.clock_stats())),
                "{ctx}: clock state"
            );
            assert_eq!(
                got.host().transfers(),
                want.host().transfers(),
                "{ctx}: host"
            );
        }
        assert_same_state(&got, &want, ctx);
        want
    }

    #[test]
    fn stored_pass_replay_is_state_identical_to_solo_replays() {
        let reg = registry(3, 128);
        let configs = shared_l1_configs();
        let frames: Vec<FrameTrace> = (0..3).map(wavy_trace).collect();
        for filter in FILTERS {
            // Each of the five below-L1 shapes leads once: every leader
            // makes the same pass, and every member replaying it — the
            // leader's own shape included — holds its solo replay's state
            // frame by frame.
            let mut passes = Vec::new();
            for (lead, &cfg) in configs.iter().enumerate() {
                let mut leader = SimEngine::new(cfg, &reg);
                let pass = record(&mut leader, &frames, filter).expect("a plain leader records");
                let ctx = format!("{filter} led by {lead}");
                assert_same_state(&leader, &solo(cfg, &reg, &frames, filter), &ctx);
                let t = leader.totals();
                assert_eq!(miss_count(&pass), t.l1_accesses - t.l1_hits, "{ctx}");
                assert!(
                    t.l1_hits > 0 && miss_count(&pass) > 0,
                    "{ctx}: hits and misses"
                );
                passes.push(pass);
            }
            for (lead, pass) in passes.iter().enumerate() {
                assert!(pass.same_l1_as(&passes[0]), "{filter} led by {lead}");
                assert_eq!(miss_count(pass), miss_count(&passes[0]));
                for (i, &cfg) in configs.iter().enumerate() {
                    assert!(pass.answers(&SimEngine::new(cfg, &reg), filter));
                    let ctx = format!("{filter} led by {lead}, member {i}");
                    let want = assert_replays_as_solo(cfg, &reg, pass, &frames, filter, &ctx);
                    if i == 2 {
                        assert!(want.totals().l2_full_misses > 0, "the small L2 must churn");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_frames_straddling_runs_and_single_frames_round_trip() {
        let reg = registry(2, 128);
        let pull = EngineConfig {
            l1: L1Config::kb(2),
            ..EngineConfig::default()
        };
        let texels = |tid: u32, from: u32, to: u32| -> Vec<(u32, f32, f32, f32)> {
            (from..to)
                .map(|i| (tid, (i * 4 % 128) as f32, (i / 32 * 4) as f32, 0.0))
                .collect()
        };
        // Frame 0 ends and frame 1 begins on texture 1's misses; frame 2 has
        // no requests; frame 3 repeats four texels, so it only hits.
        let animation = vec![
            frame(0, &[texels(0, 0, 40), texels(1, 0, 40)].concat()),
            frame(1, &[texels(1, 40, 90), texels(0, 40, 50)].concat()),
            frame(2, &[]),
            frame(3, &[texels(0, 49, 50), texels(0, 49, 50)].concat()),
        ];
        // A pull-only leader: no L2 anywhere, leader or member.
        for frames in [&animation[..], &animation[..1]] {
            let pass = record(&mut SimEngine::new(pull, &reg), frames, FilterMode::Point)
                .expect("recorded");
            assert_eq!(pass.frame_count(), frames.len());
            for cfg in [pull, shared_l1_configs()[2]] {
                let want = solo(cfg, &reg, frames, FilterMode::Point);
                assert_same_state(&from_pass(cfg, &reg, &pass), &want, &cfg.label());
            }
        }
        let want = solo(pull, &reg, &animation, FilterMode::Point);
        let misses: Vec<u64> = want
            .frames()
            .iter()
            .map(|f| f.l1_accesses - f.l1_hits)
            .collect();
        assert!(misses[0] > 0 && misses[1] > 0, "{misses:?}");
        assert_eq!(misses[2..], [0, 0], "an empty frame and an all-hit one");
        assert_eq!(want.frames()[3].l1_hits, 2);
    }

    #[test]
    fn unknown_texture_ends_the_recording_and_keeps_the_error_contract() {
        let reg = registry(1, 64);
        let cfg = shared_l1_configs()[0];
        let good = frame(0, &[(0, 1.0, 1.0, 0.0)]);
        let bad = frame(1, &[(0, 9.0, 9.0, 0.0), (7, 1.0, 1.0, 0.0)]);
        let mut leader = SimEngine::new(cfg, &reg);
        let mut recorder = leader.record_l1_pass(FilterMode::Bilinear);
        leader
            .try_run_frame_recorded_as(&good, &mut recorder)
            .unwrap();
        let err = leader.try_run_frame_recorded_as(&bad, &mut recorder);
        let mut want = SimEngine::new(cfg, &reg);
        want.try_run_frame_as_batched(&good, FilterMode::Bilinear)
            .unwrap();
        assert_eq!(
            err,
            want.try_run_frame_as_batched(&bad, FilterMode::Bilinear)
        );
        assert!(matches!(err, Err(EngineError::UnknownTexture(_))));
        // Even if the caller carried on with a good frame.
        for e in [&mut leader, &mut want] {
            e.end_frame();
        }
        leader
            .try_run_frame_recorded_as(&good, &mut recorder)
            .unwrap();
        want.try_run_frame_as_batched(&good, FilterMode::Bilinear)
            .unwrap();
        assert!(recorder.finish(&leader).is_none());
        assert_same_state(&leader, &want, "open-frame counters and all");
    }

    #[test]
    fn the_widest_level_a_registry_holds_round_trips_and_wider_misses_are_refused() {
        // `Image` caps a level at 4096 texels a side, a quarter of what a
        // word holds: no registry texture can reach the limit, so the far
        // edge of the widest one goes through an engine...
        let mut reg = TextureRegistry::new();
        let base = Image::filled(4096, 8, TexelFormat::Rgb565, [9, 9, 9]);
        reg.load("wide", MipPyramid::from_image(base));
        let cfg = shared_l1_configs()[0];
        let frames = [frame(0, &[(0, 3.0, 1.0, 0.0), (0, 4095.0, 7.0, 0.0)])];
        let pass = record(&mut SimEngine::new(cfg, &reg), &frames, FilterMode::Point)
            .expect("4095 fits a word");
        let want = solo(cfg, &reg, &frames, FilterMode::Point);
        assert_eq!(want.totals().l1_hits, 0, "both taps miss");
        assert_same_state(&from_pass(cfg, &reg, &pass), &want, "4096 wide");
        // ...every field at its limit round-trips through a frame...
        let counters = FrameCounters::default();
        let fits = [(0, 15, COORD_MASK, 0), (0, 0, 0, COORD_MASK), (2, 1, 5, 6)];
        let packed = PassFrame::pack(&fits, &counters);
        assert!(packed.misses().eq(fits));
        assert_eq!(&*packed.runs, [(0, 2), (2, 1)]);
        // ...and the limit itself is checked where a group forms and where a
        // recording starts, from the textures' mip dimensions: sixteen
        // levels of 16 384 texels a side pack, one more level or one more
        // texel on either side do not, and such an engine shares no L1 and
        // records no pass.
        let limit = 16_384;
        let widest: Vec<(u32, u32)> = (0..16).map(|m| (limit >> m.min(13), limit)).collect();
        let with_dims = |levels: &[(u32, u32)]| {
            let mut e = SimEngine::new(cfg, &reg);
            e.dims = vec![Some(levels.to_vec())];
            e
        };
        let at_limit = with_dims(&widest);
        assert!(packs_every_miss(&at_limit.dims));
        assert!(at_limit.shares_l1_with(&with_dims(&widest)));
        assert!(at_limit.record_l1_pass(FilterMode::Point).pass.is_some());
        let seventeen = [&widest[..], &[(1, 1)]].concat();
        for beyond in [seventeen, vec![(limit + 1, 1)], vec![(1, limit + 1)]] {
            let e = with_dims(&beyond);
            assert!(!packs_every_miss(&e.dims), "{beyond:?}");
            assert!(!e.shares_l1_with(&with_dims(&beyond)), "{beyond:?}");
            assert!(
                e.record_l1_pass(FilterMode::Point).pass.is_none(),
                "{beyond:?}"
            );
        }
    }

    #[test]
    fn faulty_observed_and_used_engines_neither_record_nor_replay_a_pass() {
        let reg = registry(3, 128);
        let cfg = shared_l1_configs()[0];
        let frames = [wavy_trace(0), wavy_trace(1)];
        let filter = FilterMode::Trilinear;
        let pass = record(&mut SimEngine::new(cfg, &reg), &frames, filter).unwrap();
        let faulty = SimEngine::new(
            EngineConfig {
                fault: FaultPlan::with_rate(7, 100_000),
                ..cfg
            },
            &reg,
        );
        let mut timed = SimEngine::new(cfg, &reg);
        timed.attach_timing(LatencyModel::default());
        let mut observed = SimEngine::new(cfg, &reg);
        observed.attach_telemetry(&Recorder::enabled(), "observed", "test");
        let mut used = SimEngine::new(cfg, &reg);
        used.try_run_frame_as_batched(&frames[0], filter).unwrap();
        for (what, mut engine) in [
            ("faulty", faulty),
            ("timed", timed),
            ("observed", observed),
            ("used", used),
        ] {
            if what != "used" {
                assert!(!pass.answers(&engine, filter), "{what}");
            }
            // Recording is refused; the replay is the plain batched one.
            let mut plain = SimEngine::new(engine.config(), &reg);
            if what == "used" {
                plain.try_run_frame_as_batched(&frames[0], filter).unwrap();
            }
            assert!(record(&mut engine, &frames, filter).is_none(), "{what}");
            for t in &frames {
                plain.try_run_frame_as_batched(t, filter).unwrap();
            }
            assert_eq!(engine.frames(), plain.frames(), "{what}");
        }
        assert!(!pass.answers(&SimEngine::new(cfg, &reg), FilterMode::Bilinear));
        assert!(!pass.answers(&SimEngine::new(cfg, &registry(2, 128)), filter));
        assert!(!pass.answers(
            &SimEngine::new(shared_l1_configs()[0], &reg),
            FilterMode::Point
        ));
    }

    #[test]
    fn replaying_a_pass_on_a_faulty_engine_panics() {
        let reg = registry(3, 128);
        let cfg = shared_l1_configs()[0];
        let pass = record(
            &mut SimEngine::new(cfg, &reg),
            &[wavy_trace(0)],
            FilterMode::Point,
        )
        .unwrap();
        let faulty = EngineConfig {
            fault: FaultPlan::with_rate(7, 100_000),
            ..cfg
        };
        // An engine with another L1 is refused the same way.
        let other_l1 = EngineConfig {
            l1: L1Config::kb(4),
            ..cfg
        };
        for bad in [faulty, other_l1] {
            let mut engine = SimEngine::new(bad, &reg);
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.replay_pass_frame(&pass, 0)
            }))
            .expect_err("the replay must panic");
            let msg = panicked
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panicked.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("shares its L1"), "{bad:?}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "frame by frame on a fresh engine")]
    fn replaying_a_pass_out_of_order_panics() {
        let reg = registry(3, 128);
        let cfg = shared_l1_configs()[0];
        let frames = [wavy_trace(0), wavy_trace(1)];
        let pass = record(&mut SimEngine::new(cfg, &reg), &frames, FilterMode::Point).unwrap();
        SimEngine::new(cfg, &reg).replay_pass_frame(&pass, 1);
    }
}
