//! Workload driver: scene + camera script + frame rendering.

use crate::{city, village, CameraPath, Scene};
use mltc_raster::{Camera, Framebuffer, RasterMode, Rasterizer, Traversal};
use mltc_texture::TextureRegistry;
use mltc_trace::{FilterMode, FrameTrace, PixelRequest};
use std::ops::ControlFlow;
use std::sync::mpsc::{channel, sync_channel};

/// Scale parameters for a workload run.
///
/// The spatial content and camera path are scale-independent; `frames`
/// controls how densely the path is sampled, `texture_scale` divides
/// texture dimensions (1 = the calibrated full-size assets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadParams {
    /// Screen width in pixels.
    pub width: u32,
    /// Screen height in pixels.
    pub height: u32,
    /// Animation length; `0` selects the paper's per-workload frame count
    /// (411 for the Village, 525 for the City).
    pub frames: u32,
    /// Texture dimension divisor (power of two recommended; min texture
    /// dimension is clamped to 16).
    pub texture_scale: u32,
    /// Master seed for all procedural content.
    pub seed: u64,
}

impl WorkloadParams {
    /// Minimal scale for unit tests: 64×48, 4 frames, 1/8-size textures.
    pub fn tiny() -> Self {
        Self {
            width: 64,
            height: 48,
            frames: 4,
            texture_scale: 8,
            seed: 0x5eed,
        }
    }

    /// Small scale for quick experiments and benches: 256×192, 24 frames.
    pub fn quick() -> Self {
        Self {
            width: 256,
            height: 192,
            frames: 24,
            texture_scale: 4,
            seed: 0x5eed,
        }
    }

    /// The default experiment scale: 640×480, 120 frames, full textures.
    pub fn default_scale() -> Self {
        Self {
            width: 640,
            height: 480,
            frames: 120,
            texture_scale: 1,
            seed: 0x5eed,
        }
    }

    /// The paper's scale: 1024×768, full animation length, full textures.
    pub fn paper_scale() -> Self {
        Self {
            width: 1024,
            height: 768,
            frames: 0,
            texture_scale: 1,
            seed: 0x5eed,
        }
    }

    /// Applies `texture_scale` to a base texture dimension.
    pub fn scaled_texture(&self, base: u32) -> u32 {
        (base / self.texture_scale.max(1)).max(16)
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self::default_scale()
    }
}

/// The procedural workloads by identity, without their (heavyweight) built
/// scenes — hashable, so a `(WorkloadKind, WorkloadParams)` pair can key
/// memoized traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The Village walk-through ([`Workload::village`]).
    Village,
    /// The City fly-through ([`Workload::city`]).
    City,
    /// The §6 "workload of the future" City variant
    /// ([`Workload::future_city`]).
    FutureCity,
}

impl WorkloadKind {
    /// The workload's stable name (matches [`Workload::name`]).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Village => "village",
            WorkloadKind::City => "city",
            WorkloadKind::FutureCity => "future-city",
        }
    }

    /// Builds the scene + camera path for this kind.
    pub fn build(self, params: &WorkloadParams) -> Workload {
        match self {
            WorkloadKind::Village => Workload::village(params),
            WorkloadKind::City => Workload::city(params),
            WorkloadKind::FutureCity => Workload::future_city(params),
        }
    }
}

/// A scene plus its scripted animation, ready to trace or render.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Workload {
    /// Workload name (`"village"` or `"city"`).
    pub name: &'static str,
    /// Which procedural workload this is.
    pub kind: WorkloadKind,
    /// The parameters the workload was built with.
    pub params: WorkloadParams,
    scene: Scene,
    path: CameraPath,
    /// Screen width in pixels.
    pub width: u32,
    /// Screen height in pixels.
    pub height: u32,
    /// Number of animation frames.
    pub frame_count: u32,
}

impl Workload {
    /// Builds the Village walk-through (paper §3.1).
    pub fn village(params: &WorkloadParams) -> Self {
        let (scene, path) = village::build(params);
        let frames = if params.frames == 0 {
            village::PAPER_FRAMES
        } else {
            params.frames
        };
        Self {
            name: "village",
            kind: WorkloadKind::Village,
            params: *params,
            scene,
            path,
            width: params.width,
            height: params.height,
            frame_count: frames,
        }
    }

    /// Builds the City fly-through (paper §3.1).
    pub fn city(params: &WorkloadParams) -> Self {
        let (scene, path) = city::build(params);
        let frames = if params.frames == 0 {
            city::PAPER_FRAMES
        } else {
            params.frames
        };
        Self {
            name: "city",
            kind: WorkloadKind::City,
            params: *params,
            scene,
            path,
            width: params.width,
            height: params.height,
            frame_count: frames,
        }
    }

    /// Builds the "workload of the future" City variant the paper's §6
    /// asks to investigate: a larger downtown with double-resolution
    /// facades, stressing L2 capacity.
    pub fn future_city(params: &WorkloadParams) -> Self {
        let (scene, path) = city::build_with(params, city::CityOptions::future());
        let frames = if params.frames == 0 {
            city::PAPER_FRAMES
        } else {
            params.frames
        };
        Self {
            name: "future-city",
            kind: WorkloadKind::FutureCity,
            params: *params,
            scene,
            path,
            width: params.width,
            height: params.height,
            frame_count: frames,
        }
    }

    /// The scene.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The camera for a frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame >= frame_count`.
    pub fn camera_at(&self, frame: u32) -> Camera {
        assert!(frame < self.frame_count, "frame {frame} out of range");
        self.path.camera_for_frame(frame, self.frame_count)
    }

    /// Renders one frame to a texture-access trace (no colours).
    pub fn trace_frame(&self, frame: u32, filter: FilterMode) -> FrameTrace {
        let mut raster = Rasterizer::new(
            self.width,
            self.height,
            filter,
            RasterMode::Trace,
            self.scene.registry(),
        );
        self.trace_into(&mut raster, frame, false)
    }

    /// Renders one frame to a trace with the z-pre-pass ablation enabled
    /// (only visible fragments are textured; paper §6).
    pub fn trace_frame_zprepass(&self, frame: u32, filter: FilterMode) -> FrameTrace {
        let mut raster = Rasterizer::new(
            self.width,
            self.height,
            filter,
            RasterMode::Trace,
            self.scene.registry(),
        );
        self.trace_into(&mut raster, frame, true)
    }

    fn trace_into(&self, raster: &mut Rasterizer<'_>, frame: u32, zprepass: bool) -> FrameTrace {
        let cam = self.camera_at(frame);
        raster.begin_frame(frame);
        if zprepass {
            self.scene.draw_depth_prepass(raster, &cam);
            raster.set_after_z(true);
        }
        self.scene.draw(raster, &cam);
        raster.finish_frame()
    }

    /// Streams the whole animation through `sink`, reusing one rasterizer.
    ///
    /// `zprepass` enables the §6 ablation for every frame.
    pub fn render_animation(
        &self,
        filter: FilterMode,
        zprepass: bool,
        sink: impl FnMut(FrameTrace),
    ) {
        self.render_animation_traversal(filter, zprepass, Traversal::Scanline, sink);
    }

    /// Like [`Workload::render_animation`], with an explicit fragment
    /// traversal order (for the §2.3 tiled-rasterization ablation).
    pub fn render_animation_traversal(
        &self,
        filter: FilterMode,
        zprepass: bool,
        traversal: Traversal,
        mut sink: impl FnMut(FrameTrace),
    ) {
        self.render_animation_feed(filter, zprepass, traversal, 1, |t| {
            sink(t);
            ControlFlow::Continue(None)
        });
    }

    /// The one render loop: rasterizes the animation on up to `jobs`
    /// threads and hands `sink` frames `0..frame_count` once each, in
    /// frame order, on the calling thread, until it breaks.
    ///
    /// The calling thread renders frames `0, jobs, 2·jobs, …` on a
    /// rasterizer of its own; `jobs − 1` scoped workers, one rasterizer
    /// each, render frames `j, j + jobs, …`. Frames are independent:
    /// [`Rasterizer::begin_frame`] resets every per-frame field (depth,
    /// trace, the z-pre-pass state) and [`Workload::camera_at`] is pure, so
    /// which rasterizer renders a frame never changes its trace, and the
    /// frames the sink sees are the ones a single rasterizer would make.
    /// Each worker hands a finished frame over a rendezvous channel, so at
    /// most one frame per worker waits for the sink. At `jobs <= 1` no
    /// thread is spawned and the caller renders every frame itself.
    ///
    /// The sink may hand a request buffer back (e.g. after serialising the
    /// frame to disk): it goes to the rasterizer that rendered that frame,
    /// which reuses its capacity, so a consume-as-you-go loop allocates
    /// nothing in steady state. A sink that breaks stops the render: the
    /// workers' next hand-off finds nobody listening and they return. A
    /// panic in the sink or in a worker reaches the caller as that panic.
    pub fn render_animation_feed(
        &self,
        filter: FilterMode,
        zprepass: bool,
        traversal: Traversal,
        jobs: usize,
        mut sink: impl FnMut(FrameTrace) -> ControlFlow<(), Option<Vec<PixelRequest>>>,
    ) {
        let frames = self.frame_count as usize;
        let jobs = jobs.clamp(1, frames.max(1));
        let rasterizer = || {
            let mut raster = Rasterizer::new(
                self.width,
                self.height,
                filter,
                RasterMode::Trace,
                self.scene.registry(),
            );
            raster.set_traversal(traversal);
            raster
        };
        std::thread::scope(|scope| {
            let mut workers: Vec<_> = (1..jobs)
                .map(|first| {
                    let (frame_tx, frame_rx) = sync_channel::<FrameTrace>(0);
                    let (buf_tx, buf_rx) = channel::<Vec<PixelRequest>>();
                    let worker = scope.spawn(move || {
                        let mut raster = rasterizer();
                        for frame in (first..frames).step_by(jobs) {
                            while let Ok(buf) = buf_rx.try_recv() {
                                raster.recycle(buf);
                            }
                            let t = self.trace_into(&mut raster, frame as u32, zprepass);
                            if frame_tx.send(t).is_err() {
                                return; // the sink broke
                            }
                        }
                    });
                    (frame_rx, buf_tx, Some(worker))
                })
                .collect();
            let mut raster = rasterizer();
            for frame in 0..frames {
                let owner = frame % jobs;
                let t = if owner == 0 {
                    self.trace_into(&mut raster, frame as u32, zprepass)
                } else {
                    let (frame_rx, _, worker) = &mut workers[owner - 1];
                    match frame_rx.recv() {
                        Ok(t) => t,
                        // The worker hung up without its frame: it panicked.
                        Err(_) => match worker.take().map(|w| w.join()) {
                            Some(Err(payload)) => std::panic::resume_unwind(payload),
                            _ => unreachable!("a render worker stopped before its last frame"),
                        },
                    }
                };
                match sink(t) {
                    ControlFlow::Break(()) => break,
                    ControlFlow::Continue(Some(buf)) if owner == 0 => raster.recycle(buf),
                    ControlFlow::Continue(Some(buf)) => {
                        // A worker past its last frame no longer takes buffers.
                        let _ = workers[owner - 1].1.send(buf);
                    }
                    ControlFlow::Continue(None) => {}
                }
            }
            // Dropping the receivers releases any worker still rendering.
            drop(workers);
        });
    }

    /// Renders a shaded snapshot of one frame (Fig. 12).
    pub fn render_snapshot(&self, frame: u32, filter: FilterMode) -> Framebuffer {
        let mut raster = Rasterizer::new(
            self.width,
            self.height,
            filter,
            RasterMode::Shaded,
            self.scene.registry(),
        );
        let cam = self.camera_at(frame);
        raster.begin_frame(frame);
        self.scene.draw(&mut raster, &cam);
        let _ = raster.finish_frame();
        raster.framebuffer().clone()
    }

    /// Shorthand for the scene's texture registry.
    pub fn registry(&self) -> &TextureRegistry {
        self.scene.registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_presets_scale_sensibly() {
        assert!(WorkloadParams::tiny().width < WorkloadParams::quick().width);
        assert_eq!(WorkloadParams::paper_scale().width, 1024);
        assert_eq!(WorkloadParams::default(), WorkloadParams::default_scale());
        assert_eq!(WorkloadParams::tiny().scaled_texture(512), 64);
        assert_eq!(
            WorkloadParams::tiny().scaled_texture(64),
            16,
            "clamped at 16"
        );
    }

    #[test]
    fn paper_frame_counts() {
        let mut p = WorkloadParams::tiny();
        p.frames = 0;
        assert_eq!(Workload::village(&p).frame_count, 411);
        assert_eq!(Workload::city(&p).frame_count, 525);
    }

    #[test]
    fn village_traces_have_depth_complexity_above_two() {
        let w = Workload::village(&WorkloadParams::tiny());
        let t = w.trace_frame(0, FilterMode::Point);
        assert!(
            t.depth_complexity() > 2.0,
            "village d = {:.2} should include sky+ground+buildings",
            t.depth_complexity()
        );
    }

    #[test]
    fn city_traces_are_shallower_than_village() {
        let p = WorkloadParams::tiny();
        let v = Workload::village(&p).trace_frame(0, FilterMode::Point);
        let c = Workload::city(&p).trace_frame(2, FilterMode::Point);
        assert!(
            c.depth_complexity() < v.depth_complexity(),
            "city {:.2} < village {:.2}",
            c.depth_complexity(),
            v.depth_complexity()
        );
    }

    #[test]
    fn traces_are_deterministic() {
        let p = WorkloadParams::tiny();
        let a = Workload::village(&p).trace_frame(1, FilterMode::Bilinear);
        let b = Workload::village(&p).trace_frame(1, FilterMode::Bilinear);
        assert_eq!(a, b);
    }

    #[test]
    fn adjacent_frames_overlap_heavily() {
        // Inter-frame locality is the premise of L2 caching: most texels
        // touched in frame n are touched in frame n+1 too. Sample the path
        // densely enough that adjacent frames are incremental.
        let params = WorkloadParams {
            frames: 60,
            ..WorkloadParams::tiny()
        };
        let w = Workload::village(&params);
        let collect = |f: u32| -> std::collections::HashSet<(u32, u64, u64)> {
            w.trace_frame(f, FilterMode::Point)
                .requests
                .iter()
                .map(|r| {
                    (
                        r.tid.index(),
                        (r.u as i64 / 16) as u64,
                        (r.v as i64 / 16) as u64,
                    )
                })
                .collect()
        };
        let a = collect(0);
        let b = collect(1);
        let shared = a.intersection(&b).count();
        assert!(
            shared * 10 >= a.len() * 6,
            "only {shared}/{} blocks shared between adjacent frames",
            a.len()
        );
    }

    #[test]
    fn zprepass_reduces_textured_fragments() {
        let w = Workload::village(&WorkloadParams::tiny());
        let full = w.trace_frame(0, FilterMode::Point).pixels_rendered;
        let pre = w.trace_frame_zprepass(0, FilterMode::Point).pixels_rendered;
        assert!(
            pre < full,
            "z-pre-pass {pre} must texture fewer fragments than {full}"
        );
        // The screen is fully covered, so at least width*height survive.
        assert!(pre >= (w.width * w.height) as u64 * 9 / 10);
    }

    #[test]
    fn kind_builds_the_matching_workload() {
        let p = WorkloadParams::tiny();
        for kind in [
            WorkloadKind::Village,
            WorkloadKind::City,
            WorkloadKind::FutureCity,
        ] {
            let w = kind.build(&p);
            assert_eq!(w.kind, kind);
            assert_eq!(w.name, kind.name());
            assert_eq!(w.params, p);
        }
    }

    #[test]
    fn feed_with_recycling_traces_identically() {
        let p = WorkloadParams::tiny();
        let w = Workload::village(&p);
        let mut plain = Vec::new();
        w.render_animation(FilterMode::Point, false, |t| plain.push(t));
        let mut fed = Vec::new();
        w.render_animation_feed(FilterMode::Point, false, Traversal::Scanline, 1, |t| {
            fed.push(t.clone());
            ControlFlow::Continue(Some(t.requests)) // donate the buffer back every frame
        });
        assert_eq!(plain, fed, "buffer recycling must not change the trace");
    }

    #[test]
    fn render_animation_visits_every_frame() {
        let w = Workload::city(&WorkloadParams::tiny());
        let mut frames = Vec::new();
        w.render_animation(FilterMode::Point, false, |t| frames.push(t.frame));
        assert_eq!(frames, (0..w.frame_count).collect::<Vec<_>>());
    }

    #[test]
    fn future_city_scales_up_the_texture_set() {
        let p = WorkloadParams::tiny();
        let today = Workload::city(&p);
        let future = Workload::future_city(&p);
        assert_eq!(future.name, "future-city");
        assert!(future.registry().live_count() > today.registry().live_count());
        assert!(future.registry().host_byte_size() > 2 * today.registry().host_byte_size());
        // It still renders.
        let t = future.trace_frame(0, FilterMode::Point);
        assert!(t.pixels_rendered > 0);
    }

    #[test]
    fn snapshot_renders_nonblack_pixels() {
        let w = Workload::village(&WorkloadParams::tiny());
        let fb = w.render_snapshot(0, FilterMode::Bilinear);
        let mut lit = 0;
        for y in 0..fb.height() {
            for x in 0..fb.width() {
                if fb.color_at(x, y) != 0xff00_0000 {
                    lit += 1;
                }
            }
        }
        assert!(
            lit * 10 > (fb.width() * fb.height()) * 9,
            "snapshot mostly covered"
        );
    }
}
