//! Procedural workloads: the *Village* and *City* animations (paper §3.1).
//!
//! The paper's workloads are proprietary scene databases — the Village
//! (Evans & Sutherland) explored by a scripted walk-through over 411 frames,
//! and the City (UCLA) by a fly-through over 525 frames. This crate builds
//! procedural stand-ins calibrated to the published statistics (see
//! DESIGN.md §1):
//!
//! * [`village`]: textured ground and streets, a sky dome, tens of
//!   buildings **sharing** a small pool of wall/roof textures, trees —
//!   texture re-use within and between objects, depth complexity ≈ 3.8;
//! * [`city`]: a street grid where every building carries its **own**
//!   facade texture (repeated across the facade by ⟨u,v⟩ wrap, but never
//!   shared between buildings), depth complexity ≈ 1.9.
//!
//! [`Workload`] packages a scene with its scripted camera path and drives
//! the `mltc-raster` renderer to produce per-frame texture traces or
//! shaded snapshots; [`TraceKey`] names one rendered trace, and is the one
//! writer and parser of the key string every `.mltct` file carries.
//!
//! # Example
//!
//! ```
//! use mltc_scene::{Workload, WorkloadParams};
//! use mltc_trace::FilterMode;
//!
//! let w = Workload::village(&WorkloadParams::tiny());
//! let trace = w.trace_frame(0, FilterMode::Point);
//! assert!(trace.pixels_rendered > 0);
//! assert!(trace.depth_complexity() > 1.0); // sky + ground + buildings
//! ```

pub mod city;
mod key;
mod mesh;
mod object;
mod path;
pub mod village;
mod workload;

pub use key::{traversal_tag, TraceKey};
pub use mesh::Mesh;
pub use object::{Object, Scene};
pub use path::CameraPath;
pub use workload::{Workload, WorkloadKind, WorkloadParams};
