//! Stored L1 passes: one replay's L1-filtered miss stream, kept so later
//! configurations on the same L1 replay only what lies below it.
//!
//! On a fault-free link everything below the L1 is a function of the L1
//! miss stream alone (DESIGN.md §14), and
//! [`try_run_frame_shared`](SimEngine::try_run_frame_shared) already uses
//! that inside one call: the leader logs its misses, the followers replay
//! the log. An [`L1Pass`] is that log made a value — per frame the leader's
//! misses in tap order and its `l1_accesses`/`l1_hits`, and at the end a
//! clone of its L1 — so a configuration that arrives in a *later* call
//! replays the pass through the same below-L1 loop
//! (`replay_l1_misses`) and ends state-identical to its solo batched
//! replay. Nothing here is a new tap body.

use super::{FrameCounters, SimEngine};
use crate::tap::L1Miss;
use crate::{EngineError, L1Config, L1TextureCache};
use mltc_texture::TilingConfig;
use mltc_trace::{FilterMode, FrameTrace};

/// Bits of a packed miss word given to each of `u` and `v`; the mip level
/// takes the four that remain.
const COORD_BITS: u32 = 14;
const COORD_MASK: u32 = (1 << COORD_BITS) - 1;

/// One L1 miss as one word, `m << 28 | u << 14 | v` — memory, not time, is
/// what a stored pass costs. `None` when a field does not fit (a level over
/// 16 384 texels on a side, a 17th mip level): such a pass is not kept.
/// `mltc_texture::Image` caps a level at 4096 texels today, so nothing a
/// registry holds comes near; the check is what keeps that an observation
/// rather than an assumption.
fn pack(m: u32, u: u32, v: u32) -> Option<u32> {
    (m < 1 << (32 - 2 * COORD_BITS) && u <= COORD_MASK && v <= COORD_MASK)
        .then_some(m << (2 * COORD_BITS) | u << COORD_BITS | v)
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
    fn pack(misses: &[L1Miss], counters: &FrameCounters) -> Option<Self> {
        let mut words = Vec::with_capacity(misses.len());
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &(tid, m, u, v) in misses {
            words.push(pack(m, u, v)?);
            match runs.last_mut() {
                Some((t, n)) if *t == tid => *n = n.checked_add(1)?,
                _ => runs.push((tid, 1)),
            }
        }
        Some(Self {
            l1_accesses: counters.l1_accesses,
            l1_hits: counters.l1_hits,
            words: words.into_boxed_slice(),
            runs: runs.into_boxed_slice(),
        })
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
/// [`L1PassRecorder`]; replayed by [`SimEngine::replay_pass_frame`].
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
/// then [`finish`](Self::finish)ed. Recording stops for good — the replay
/// itself carries on unchanged — the moment the pass could not be exact or
/// could not be packed: a leader with a fault plan, telemetry or timing, or
/// one that already replayed something; a frame that ended in an error; a
/// miss whose coordinates do not fit a word.
#[derive(Debug)]
pub struct L1PassRecorder {
    filter: FilterMode,
    pass: Option<L1Pass>,
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
    /// `filter` as the leader of
    /// [`try_run_frame_recorded_as`](Self::try_run_frame_recorded_as).
    pub fn record_l1_pass(&self, filter: FilterMode) -> L1PassRecorder {
        let fresh = self.frames.is_empty() && self.current == FrameCounters::default();
        L1PassRecorder {
            filter,
            pass: (fresh && self.l1_stands_alone()).then(|| L1Pass {
                filter,
                l1_cfg: self.cfg.l1,
                tiling: self.cfg.tiling,
                dims: self.dims.clone(),
                frames: Vec::new(),
                l1: self.l1.clone(),
            }),
        }
    }

    /// [`try_run_frame_shared_as`](Self::try_run_frame_shared_as) under the
    /// recorder's filter, with the frame appended to the pass being
    /// recorded: while it records, the leader logs its L1 misses even in a
    /// group of one. Like the `_as` form it is not generic, so callers in
    /// other crates share this crate's copy of the logging frame loops.
    ///
    /// # Errors
    ///
    /// Same contract as [`try_run_frame_shared`](Self::try_run_frame_shared);
    /// a frame that ends in an error ends the recording.
    pub fn try_run_frame_recorded_as(
        group: &mut [SimEngine],
        trace: &FrameTrace,
        recorder: &mut L1PassRecorder,
    ) -> Result<(), EngineError> {
        let recording = recorder
            .pass
            .take()
            .filter(|p| group.first().is_some_and(|l| p.follows(l)));
        let requests = trace.requests.iter().copied();
        let ran = Self::run_frame_shared(group, recorder.filter, requests, recording.is_some());
        if let (Some(mut pass), Ok(())) = (recording, &ran) {
            let leader = &group[0];
            recorder.pass = PassFrame::pack(&leader.miss_log, leader.frame_stats()).map(|frame| {
                pass.frames.push(frame);
                pass
            });
        }
        ran
    }

    /// Replays frame `frame` of a stored pass: its L1 misses through this
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
            "a stored pass replays only on an engine that shares its L1"
        );
        assert!(
            self.frames.len() == frame && self.current == FrameCounters::default(),
            "a stored pass replays frame by frame on a fresh engine"
        );
        let stored = &pass.frames[frame];
        self.replay_l1_misses(stored.misses());
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

    /// Replays `frames` through `group`, recording; the pass if one came
    /// out of it.
    fn record(
        group: &mut [SimEngine],
        frames: &[FrameTrace],
        filter: FilterMode,
    ) -> Option<L1Pass> {
        let mut recorder = group[0].record_l1_pass(filter);
        for t in frames {
            SimEngine::try_run_frame_recorded_as(group, t, &mut recorder).unwrap();
        }
        recorder.finish(&group[0])
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

    #[test]
    fn stored_pass_replay_is_state_identical_to_solo_replays() {
        let reg = registry(3, 128);
        let configs = shared_l1_configs();
        let frames: Vec<FrameTrace> = (0..3).map(wavy_trace).collect();
        for filter in FILTERS {
            // Recorded by a leader on its own, and by one with followers.
            let mut alone = vec![SimEngine::new(configs[0], &reg)];
            let mut group: Vec<SimEngine> =
                configs.iter().map(|&c| SimEngine::new(c, &reg)).collect();
            let passes = [
                record(&mut alone, &frames, filter).expect("a plain leader records"),
                record(&mut group, &frames, filter).expect("so does a group's"),
            ];
            assert!(passes[0].same_l1_as(&passes[1]));
            assert_eq!(miss_count(&passes[0]), miss_count(&passes[1]));
            for (i, &cfg) in configs.iter().enumerate() {
                let want = solo(cfg, &reg, &frames, filter);
                let ctx = format!("{filter} member {i}");
                assert_same_state(&group[i], &want, &format!("{ctx}, recording run"));
                for pass in &passes {
                    assert!(pass.answers(&SimEngine::new(cfg, &reg), filter));
                    assert_same_state(&from_pass(cfg, &reg, pass), &want, &ctx);
                }
            }
            let t = alone[0].totals();
            assert_eq!(miss_count(&passes[0]), t.l1_accesses - t.l1_hits);
            assert!(
                t.l1_hits > 0 && miss_count(&passes[0]) > 0,
                "hits and misses"
            );
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
        // A pull-only group: no L2 anywhere, leader or follower.
        for frames in [&animation[..], &animation[..1]] {
            let mut group = vec![SimEngine::new(pull, &reg), SimEngine::new(pull, &reg)];
            let pass = record(&mut group, frames, FilterMode::Point).expect("recorded");
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
        let mut group = vec![SimEngine::new(cfg, &reg), SimEngine::new(cfg, &reg)];
        let mut recorder = group[0].record_l1_pass(FilterMode::Bilinear);
        SimEngine::try_run_frame_recorded_as(&mut group, &good, &mut recorder).unwrap();
        let err = SimEngine::try_run_frame_recorded_as(&mut group, &bad, &mut recorder);
        let mut want = SimEngine::new(cfg, &reg);
        want.try_run_frame_as_batched(&good, FilterMode::Bilinear)
            .unwrap();
        assert_eq!(
            err,
            want.try_run_frame_as_batched(&bad, FilterMode::Bilinear)
        );
        assert!(matches!(err, Err(EngineError::UnknownTexture(_))));
        // Even if the caller carried on with a good frame.
        for e in group.iter_mut().chain([&mut want]) {
            e.end_frame();
        }
        SimEngine::try_run_frame_recorded_as(&mut group, &good, &mut recorder).unwrap();
        want.try_run_frame_as_batched(&good, FilterMode::Bilinear)
            .unwrap();
        assert!(recorder.finish(&group[0]).is_none());
        for member in &group {
            assert_same_state(member, &want, "open-frame counters and all");
        }
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
        let mut group = vec![SimEngine::new(cfg, &reg), SimEngine::new(cfg, &reg)];
        let pass = record(&mut group, &frames, FilterMode::Point).expect("4095 fits a word");
        let want = solo(cfg, &reg, &frames, FilterMode::Point);
        assert_eq!(want.totals().l1_hits, 0, "both taps miss");
        assert_same_state(&from_pass(cfg, &reg, &pass), &want, "4096 wide");
        // ...and the limit itself is checked where a frame is packed: one
        // miss that does not fit and there is no frame, hence no pass.
        let counters = FrameCounters::default();
        let fits = [(0, 15, COORD_MASK, 0), (0, 0, 0, COORD_MASK), (2, 1, 5, 6)];
        let packed = PassFrame::pack(&fits, &counters).expect("every field fits");
        assert!(packed.misses().eq(fits));
        assert_eq!(&*packed.runs, [(0, 2), (2, 1)]);
        for beyond in [
            (0, 16, 0, 0),
            (0, 0, COORD_MASK + 1, 0),
            (0, 0, 0, COORD_MASK + 1),
        ] {
            assert!(PassFrame::pack(&[fits[0], beyond], &counters).is_none());
        }
    }

    #[test]
    fn faulty_observed_and_used_engines_neither_record_nor_replay_a_pass() {
        let reg = registry(3, 128);
        let cfg = shared_l1_configs()[0];
        let frames = [wavy_trace(0), wavy_trace(1)];
        let filter = FilterMode::Trilinear;
        let pass = record(&mut [SimEngine::new(cfg, &reg)], &frames, filter).unwrap();
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
        for (what, engine) in [
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
            let mut group = [engine];
            assert!(record(&mut group, &frames, filter).is_none(), "{what}");
            for t in &frames {
                plain.try_run_frame_as_batched(t, filter).unwrap();
            }
            assert_eq!(group[0].frames(), plain.frames(), "{what}");
        }
        assert!(!pass.answers(&SimEngine::new(cfg, &reg), FilterMode::Bilinear));
        assert!(!pass.answers(&SimEngine::new(cfg, &registry(2, 128)), filter));
        assert!(!pass.answers(
            &SimEngine::new(shared_l1_configs()[0], &reg),
            FilterMode::Point
        ));
    }

    #[test]
    #[should_panic(expected = "shares its L1")]
    fn replaying_a_pass_on_a_faulty_engine_panics() {
        let reg = registry(3, 128);
        let cfg = shared_l1_configs()[0];
        let pass = record(
            &mut [SimEngine::new(cfg, &reg)],
            &[wavy_trace(0)],
            FilterMode::Point,
        )
        .unwrap();
        let faulty = EngineConfig {
            fault: FaultPlan::with_rate(7, 100_000),
            ..cfg
        };
        SimEngine::new(faulty, &reg).replay_pass_frame(&pass, 0);
    }

    #[test]
    #[should_panic(expected = "frame by frame on a fresh engine")]
    fn replaying_a_pass_out_of_order_panics() {
        let reg = registry(3, 128);
        let cfg = shared_l1_configs()[0];
        let frames = [wavy_trace(0), wavy_trace(1)];
        let pass = record(&mut [SimEngine::new(cfg, &reg)], &frames, FilterMode::Point).unwrap();
        SimEngine::new(cfg, &reg).replay_pass_frame(&pass, 1);
    }
}
