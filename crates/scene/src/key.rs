//! The trace key: the identity of one rendered animation trace, written
//! into (and checked against) every `.mltct` trace file.
//!
//! ```text
//! mltc-trace kind=city w=64 h=48 frames=4 ts=8 seed=0x5eed zprepass=false traversal=scanline
//! ```
//!
//! Workload construction is deterministic in `(kind, params)`, so parsing
//! a key is enough to regenerate the exact texture registry the trace was
//! rendered against: a trace file replays without re-rendering anything.

use crate::{Workload, WorkloadKind, WorkloadParams};
use mltc_raster::Traversal;

/// Identity of one rendered animation trace. There is no filter field:
/// a trace records pixel requests, which every filter mode expands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Which procedural workload.
    pub kind: WorkloadKind,
    /// Its scale parameters (screen size, frames, texture scale, seed).
    pub params: WorkloadParams,
    /// Whether the §6 z-buffer-before-texture prepass was applied.
    pub zprepass: bool,
    /// Fragment traversal order (§2.3 tiled ablation).
    pub traversal: Traversal,
}

/// The traversal's spelling in keys, trace file names and run tags:
/// `scanline` or `tiled<edge>`.
pub fn traversal_tag(t: Traversal) -> String {
    match t {
        Traversal::Scanline => "scanline".to_string(),
        Traversal::Tiled(edge) => format!("tiled{edge}"),
    }
}

impl TraceKey {
    /// The key for a workload's trace under the given render options.
    pub fn of(w: &Workload, zprepass: bool, traversal: Traversal) -> Self {
        Self {
            kind: w.kind,
            params: w.params,
            zprepass,
            traversal,
        }
    }

    /// The key string a trace file carries.
    pub fn render(&self) -> String {
        let p = &self.params;
        format!(
            "mltc-trace kind={} w={} h={} frames={} ts={} seed={:#x} zprepass={} traversal={}",
            self.kind.name(),
            p.width,
            p.height,
            p.frames,
            p.texture_scale,
            p.seed,
            self.zprepass,
            traversal_tag(self.traversal)
        )
    }

    /// Parses a key string as [`render`](Self::render) writes it. Every
    /// field it writes is required; fields it does not write are ignored.
    pub fn parse(key: &str) -> Result<Self, String> {
        let mut words = key.split_whitespace();
        if words.next() != Some("mltc-trace") {
            return Err(format!("not an mltc-trace key: {key:?}"));
        }
        let mut kind = None;
        let (mut width, mut height, mut frames, mut texture_scale) = (None, None, None, None);
        let mut seed = None;
        let mut zprepass = None;
        let mut traversal = None;
        for word in words {
            let (name, value) = word
                .split_once('=')
                .ok_or_else(|| format!("malformed key field {word:?}"))?;
            match name {
                "kind" => {
                    kind = Some(match value {
                        "village" => WorkloadKind::Village,
                        "city" => WorkloadKind::City,
                        "future-city" => WorkloadKind::FutureCity,
                        other => return Err(format!("unknown workload kind {other:?}")),
                    })
                }
                "w" => width = Some(parse_u32(name, value)?),
                "h" => height = Some(parse_u32(name, value)?),
                "frames" => frames = Some(parse_u32(name, value)?),
                "ts" => texture_scale = Some(parse_u32(name, value)?),
                "seed" => {
                    let hex = value
                        .strip_prefix("0x")
                        .ok_or_else(|| format!("seed must be hex, got {value:?}"))?;
                    seed = Some(
                        u64::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad seed {value:?}: {e}"))?,
                    );
                }
                "zprepass" => {
                    zprepass = Some(match value {
                        "true" => true,
                        "false" => false,
                        other => return Err(format!("bad zprepass {other:?}")),
                    })
                }
                "traversal" => traversal = Some(parse_traversal(value)?),
                // Forward compatibility: ignore fields added by newer
                // writers rather than refusing the whole trace.
                _ => {}
            }
        }
        // A missing field must not default to 0 (`ts=0` rebuilds
        // full-size textures, not the ones the trace was rendered against).
        let missing = |name: &str| format!("key missing {name}=");
        Ok(Self {
            kind: kind.ok_or_else(|| missing("kind"))?,
            params: WorkloadParams {
                width: width.ok_or_else(|| missing("w"))?,
                height: height.ok_or_else(|| missing("h"))?,
                frames: frames.ok_or_else(|| missing("frames"))?,
                texture_scale: texture_scale.ok_or_else(|| missing("ts"))?,
                seed: seed.ok_or_else(|| missing("seed"))?,
            },
            zprepass: zprepass.ok_or_else(|| missing("zprepass"))?,
            traversal: traversal.ok_or_else(|| missing("traversal"))?,
        })
    }

    /// Regenerates the workload (scene, textures, camera path) the trace
    /// was rendered from.
    pub fn workload(&self) -> Workload {
        self.kind.build(&self.params)
    }
}

fn parse_u32(name: &str, value: &str) -> Result<u32, String> {
    value
        .parse::<u32>()
        .map_err(|e| format!("bad {name} {value:?}: {e}"))
}

/// The inverse of [`traversal_tag`]: only its own spellings, with a tile
/// edge the rasterizer accepts (a power of two).
fn parse_traversal(value: &str) -> Result<Traversal, String> {
    let traversal = match value.strip_prefix("tiled") {
        None => Traversal::Scanline,
        Some(edge) => Traversal::Tiled(edge.parse().unwrap_or(0)),
    };
    let edge_ok = match traversal {
        Traversal::Tiled(edge) => edge.is_power_of_two(),
        Traversal::Scanline => true,
    };
    if edge_ok && traversal_tag(traversal) == value {
        Ok(traversal)
    } else {
        Err(format!("bad traversal {value:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CITY: &str = "mltc-trace kind=city w=64 h=48 frames=4 ts=8 seed=0x5eed \
                        zprepass=false traversal=scanline";

    #[test]
    fn parses_a_store_formatted_key() {
        let parsed = TraceKey::parse(CITY).unwrap();
        assert_eq!(parsed.kind, WorkloadKind::City);
        assert_eq!(parsed.params, WorkloadParams::tiny());
        assert!(!parsed.zprepass);
        assert_eq!(parsed.traversal, Traversal::Scanline);
        assert_eq!(parsed.render(), CITY);
    }

    #[test]
    fn parse_inverts_render_for_every_kind_traversal_and_prepass() {
        for kind in [
            WorkloadKind::Village,
            WorkloadKind::City,
            WorkloadKind::FutureCity,
        ] {
            for traversal in [Traversal::Scanline, Traversal::Tiled(8)] {
                for zprepass in [false, true] {
                    let key = TraceKey {
                        kind,
                        params: WorkloadParams::tiny(),
                        zprepass,
                        traversal,
                    };
                    assert_eq!(TraceKey::parse(&key.render()), Ok(key), "{key:?}");
                }
            }
        }
    }

    #[test]
    fn rejects_foreign_and_truncated_keys() {
        assert!(TraceKey::parse("something-else v=1").is_err());
        assert!(TraceKey::parse("mltc-trace kind=city w=64").is_err());
        assert!(TraceKey::parse(
            "mltc-trace kind=moon w=1 h=1 frames=1 ts=1 seed=0x0 zprepass=true traversal=scanline"
        )
        .is_err());
        for traversal in [
            "", "tiled", "tiled0", "tiled6", "tiled08", "tiled+8", "tiledx", "Scanline", "tiled8x",
        ] {
            let key = CITY.replace("traversal=scanline", &format!("traversal={traversal}"));
            assert_eq!(
                TraceKey::parse(&key),
                Err(format!("bad traversal {traversal:?}")),
                "{traversal:?}"
            );
        }
        let tiled = CITY.replace("traversal=scanline", "traversal=tiled16");
        assert_eq!(
            TraceKey::parse(&tiled).map(|k| k.traversal),
            Ok(Traversal::Tiled(16))
        );
    }

    #[test]
    fn every_field_the_store_writes_is_required() {
        for field in [
            "kind",
            "w",
            "h",
            "frames",
            "ts",
            "seed",
            "zprepass",
            "traversal",
        ] {
            let without: Vec<&str> = CITY
                .split_whitespace()
                .filter(|word| !word.starts_with(&format!("{field}=")))
                .collect();
            let err = TraceKey::parse(&without.join(" ")).unwrap_err();
            assert_eq!(err, format!("key missing {field}="), "{field}");
        }
        // Fields a newer writer adds are still ignored.
        assert!(TraceKey::parse(&format!("{CITY} lanes=8")).is_ok());
    }

    #[test]
    fn rebuilt_workload_matches_a_direct_build() {
        let key = "mltc-trace kind=village w=64 h=48 frames=4 ts=8 seed=0x5eed \
                   zprepass=false traversal=scanline";
        let parsed = TraceKey::parse(key).unwrap();
        let wl = parsed.workload();
        let direct = WorkloadKind::Village.build(&WorkloadParams::tiny());
        assert_eq!(
            wl.scene().registry().issued_count(),
            direct.scene().registry().issued_count()
        );
    }
}
