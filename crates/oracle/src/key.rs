//! Rebuilding workloads from the key string embedded in `.mltct` trace
//! files.
//!
//! The trace store writes every cached trace with a self-describing key
//! (see `TraceStore` in `mltc-experiments`):
//!
//! ```text
//! mltc-trace kind=city w=64 h=48 frames=4 ts=8 seed=0x5eed zprepass=false traversal=scanline
//! ```
//!
//! Workload construction is deterministic in `(kind, params)`, so parsing
//! that key is enough to regenerate the exact texture registry the trace
//! was rendered against — which is what the diff harness needs to replay a
//! trace file without re-rendering anything.

use mltc_scene::{Workload, WorkloadKind, WorkloadParams};

/// A parsed trace key: enough to rebuild the workload the trace came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceKey {
    /// Which scene generator produced the trace.
    pub kind: WorkloadKind,
    /// Generator parameters (screen size, frames, texture scale, seed).
    pub params: WorkloadParams,
    /// Whether the trace was rendered with a depth pre-pass.
    pub zprepass: bool,
    /// Rasterizer traversal tag (`scanline` or `tiled<edge>`); recorded for
    /// provenance only — replay is traversal-independent once the trace
    /// exists.
    pub traversal: String,
}

impl TraceKey {
    /// Parses a key string as written by the trace store.
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
                "traversal" => traversal = Some(value.to_string()),
                // Forward compatibility: ignore fields added by newer
                // writers rather than refusing the whole trace.
                _ => {}
            }
        }
        // Every field the store writes is required: a missing one must not
        // default to 0 (`ts=0` rebuilds full-size textures, not the ones
        // the trace was rendered against).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_store_formatted_key() {
        let key = "mltc-trace kind=city w=64 h=48 frames=4 ts=8 seed=0x5eed \
                   zprepass=false traversal=scanline";
        let parsed = TraceKey::parse(key).unwrap();
        assert_eq!(parsed.kind, WorkloadKind::City);
        assert_eq!(parsed.params, WorkloadParams::tiny());
        assert!(!parsed.zprepass);
        assert_eq!(parsed.traversal, "scanline");
    }

    #[test]
    fn rejects_foreign_and_truncated_keys() {
        assert!(TraceKey::parse("something-else v=1").is_err());
        assert!(TraceKey::parse("mltc-trace kind=city w=64").is_err());
        assert!(TraceKey::parse(
            "mltc-trace kind=moon w=1 h=1 frames=1 ts=1 seed=0x0 zprepass=true traversal=scanline"
        )
        .is_err());
    }

    #[test]
    fn every_field_the_store_writes_is_required() {
        let key = "mltc-trace kind=city w=64 h=48 frames=4 ts=8 seed=0x5eed \
                   zprepass=false traversal=scanline";
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
            let without: Vec<&str> = key
                .split_whitespace()
                .filter(|word| !word.starts_with(&format!("{field}=")))
                .collect();
            let err = TraceKey::parse(&without.join(" ")).unwrap_err();
            assert_eq!(err, format!("key missing {field}="), "{field}");
        }
        // Fields a newer writer adds are still ignored.
        assert!(TraceKey::parse(&format!("{key} lanes=8")).is_ok());
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
