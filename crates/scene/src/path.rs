//! Scripted camera animations.

use mltc_math::Vec3;
use mltc_raster::Camera;

/// A scripted camera path: eye/target keyframes traversed at constant
/// keyframe rate with Catmull-Rom smoothing, evaluated at a normalized
/// parameter `t ∈ [0, 1]` — so an animation keeps the same spatial path no
/// matter how many frames sample it (the paper's walk-through and
/// fly-through are scripted the same way, §3.1).
///
/// ```
/// use mltc_math::Vec3;
/// use mltc_scene::CameraPath;
/// let path = CameraPath::new(vec![
///     (Vec3::ZERO, Vec3::X),
///     (Vec3::new(10.0, 0.0, 0.0), Vec3::new(11.0, 0.0, 0.0)),
/// ]);
/// let start = path.camera_at(0.0);
/// let end = path.camera_at(1.0);
/// assert!((end.eye.x - 10.0).abs() < 1e-4);
/// assert!((start.eye - Vec3::ZERO).length() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct CameraPath {
    keys: Vec<(Vec3, Vec3)>,
}

impl CameraPath {
    /// Creates a path from `(eye, target)` keyframes.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two keyframes.
    pub fn new(keys: Vec<(Vec3, Vec3)>) -> Self {
        assert!(
            keys.len() >= 2,
            "a camera path needs at least two keyframes"
        );
        Self { keys }
    }

    /// Evaluates the camera at `t ∈ [0, 1]` (clamped).
    pub fn camera_at(&self, t: f32) -> Camera {
        let t = t.clamp(0.0, 1.0);
        let segments = (self.keys.len() - 1) as f32;
        let ft = t * segments;
        let seg = (ft as usize).min(self.keys.len() - 2);
        let local = ft - seg as f32;

        let idx = |i: isize| -> usize { i.clamp(0, self.keys.len() as isize - 1) as usize };
        let k0 = self.keys[idx(seg as isize - 1)];
        let k1 = self.keys[seg];
        let k2 = self.keys[seg + 1];
        let k3 = self.keys[idx(seg as isize + 2)];

        let eye = catmull_rom(k0.0, k1.0, k2.0, k3.0, local);
        let target = catmull_rom(k0.1, k1.1, k2.1, k3.1, local);
        Camera::new(eye, target)
    }

    /// Evaluates the camera for `frame` of a `frame_count`-frame animation.
    ///
    /// # Panics
    ///
    /// Panics if `frame_count` is zero.
    pub fn camera_for_frame(&self, frame: u32, frame_count: u32) -> Camera {
        assert!(frame_count > 0);
        let t = if frame_count == 1 {
            0.0
        } else {
            frame as f32 / (frame_count - 1) as f32
        };
        self.camera_at(t)
    }
}

/// Standard Catmull-Rom spline interpolation.
fn catmull_rom(p0: Vec3, p1: Vec3, p2: Vec3, p3: Vec3, t: f32) -> Vec3 {
    let t2 = t * t;
    let t3 = t2 * t;
    (p1 * 2.0
        + (p2 - p0) * t
        + (p0 * 2.0 - p1 * 5.0 + p2 * 4.0 - p3) * t2
        + (p1 * 3.0 - p0 - p2 * 3.0 + p3) * t3)
        * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_path() -> CameraPath {
        CameraPath::new(vec![
            (Vec3::ZERO, Vec3::Z),
            (Vec3::new(4.0, 0.0, 0.0), Vec3::new(4.0, 0.0, 1.0)),
            (Vec3::new(8.0, 0.0, 0.0), Vec3::new(8.0, 0.0, 1.0)),
        ])
    }

    #[test]
    fn endpoints_hit_keyframes() {
        let p = line_path();
        assert!((p.camera_at(0.0).eye - Vec3::ZERO).length() < 1e-5);
        assert!((p.camera_at(1.0).eye - Vec3::new(8.0, 0.0, 0.0)).length() < 1e-5);
    }

    #[test]
    fn midpoint_hits_middle_key() {
        let p = line_path();
        assert!((p.camera_at(0.5).eye - Vec3::new(4.0, 0.0, 0.0)).length() < 1e-4);
    }

    #[test]
    fn collinear_keys_interpolate_linearly_in_interior_segments() {
        // With uniform collinear keys, Catmull-Rom is exactly linear on
        // interior segments (end segments ease in/out from clamped knots).
        let p = CameraPath::new(vec![
            (Vec3::ZERO, Vec3::Z),
            (Vec3::new(4.0, 0.0, 0.0), Vec3::new(4.0, 0.0, 1.0)),
            (Vec3::new(8.0, 0.0, 0.0), Vec3::new(8.0, 0.0, 1.0)),
            (Vec3::new(12.0, 0.0, 0.0), Vec3::new(12.0, 0.0, 1.0)),
        ]);
        // t = 0.5 lands in the middle of the interior segment (4 -> 8).
        let e = p.camera_at(0.5).eye;
        assert!((e.x - 6.0).abs() < 1e-4, "got {e}");
        assert!(e.y.abs() < 1e-5 && e.z.abs() < 1e-5);
    }

    #[test]
    fn eye_motion_is_monotone_along_a_straight_path() {
        let p = line_path();
        let mut last = -1.0f32;
        for i in 0..=20 {
            let x = p.camera_at(i as f32 / 20.0).eye.x;
            assert!(x >= last - 1e-4, "x went backwards: {x} after {last}");
            last = x;
        }
    }

    #[test]
    fn parameter_is_clamped() {
        let p = line_path();
        assert_eq!(p.camera_at(-1.0).eye, p.camera_at(0.0).eye);
        assert_eq!(p.camera_at(2.0).eye, p.camera_at(1.0).eye);
    }

    #[test]
    fn frame_sampling_covers_the_path() {
        let p = line_path();
        let c0 = p.camera_for_frame(0, 100);
        let c99 = p.camera_for_frame(99, 100);
        assert!((c0.eye - Vec3::ZERO).length() < 1e-5);
        assert!((c99.eye.x - 8.0).abs() < 1e-4);
    }

    #[test]
    fn motion_between_adjacent_frames_is_small() {
        let p = line_path();
        let a = p.camera_for_frame(40, 100).eye;
        let b = p.camera_for_frame(41, 100).eye;
        assert!(
            (b - a).length() < 0.2,
            "inter-frame step should be incremental"
        );
    }

    #[test]
    #[should_panic(expected = "two keyframes")]
    fn single_key_rejected() {
        let _ = CameraPath::new(vec![(Vec3::ZERO, Vec3::X)]);
    }
}
