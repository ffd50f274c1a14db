//! Self-contained divergence repros.
//!
//! When the harness catches the engine and the oracle disagreeing, the
//! shrunk access stream alone is not enough to reproduce the bug: the
//! engine configuration and the texture set shape every replacement
//! decision. A [`Repro`] bundles all three into one JSON file in a repros
//! directory (`tracetool shrink` defaults to `results/repros/`, the
//! conformance test writes under `CARGO_TARGET_TMPDIR/repros`), named by a
//! content hash so re-running a broken build is idempotent. Texture
//! *content* is irrelevant to cache behaviour (only level geometry feeds
//! the page table), so textures are recorded as base dimensions and
//! rebuilt as flat-colour images.

use crate::diff::TexelAccess;
use crate::Json;
use mltc_core::{
    EngineConfig, FaultPlan, L1Config, L2Config, ReplacementPolicy, StorageFormat, TextureBlackout,
};
use mltc_texture::{Image, MipPyramid, TexelFormat, TextureRegistry, TileSize, TilingConfig};
use std::io;
use std::path::{Path, PathBuf};

/// Largest texture side an [`Image`] accepts.
const MAX_TEXTURE_SIDE: u32 = 4096;

/// A minimized, self-contained reproduction of a divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// Free-text description of the divergence (first differing field,
    /// index, ...).
    pub note: String,
    /// Engine configuration under which the divergence occurred.
    pub config: EngineConfig,
    /// Base dimensions of each texture-id slot, in id order. `None` marks a
    /// deleted slot: ids are never reused, so the slot must be burned when
    /// rebuilding the registry to keep later ids aligned.
    pub textures: Vec<Option<(u32, u32)>>,
    /// The shrunk access stream.
    pub accesses: Vec<TexelAccess>,
}

impl Repro {
    /// Captures a repro for `accesses` against the registry that produced
    /// the divergence.
    pub fn capture(
        note: impl Into<String>,
        config: EngineConfig,
        registry: &TextureRegistry,
        accesses: &[TexelAccess],
    ) -> Self {
        let textures = (0..registry.issued_count() as u32)
            .map(|i| {
                registry
                    .pyramid(mltc_texture::TextureId::from_index(i))
                    .map(|p| {
                        let base = p.iter().next().expect("pyramid has a base level");
                        (base.width(), base.height())
                    })
            })
            .collect();
        Self {
            note: note.into(),
            config,
            textures,
            accesses: accesses.to_vec(),
        }
    }

    /// Rebuilds a texture registry with the recorded id layout. Deleted
    /// slots are burned with a placeholder texture that is immediately
    /// deleted, so every recorded id maps to the same geometry it had when
    /// the divergence was captured.
    pub fn build_registry(&self) -> TextureRegistry {
        let mut reg = TextureRegistry::new();
        for (i, slot) in self.textures.iter().enumerate() {
            match slot {
                Some((w, h)) => {
                    let img = Image::filled(*w, *h, TexelFormat::Rgb565, [128, 128, 128]);
                    reg.load(format!("repro{i}"), MipPyramid::from_image(img));
                }
                None => {
                    let img = Image::filled(1, 1, TexelFormat::Rgb565, [0, 0, 0]);
                    let tid = reg.load(format!("deleted{i}"), MipPyramid::from_image(img));
                    reg.delete(tid);
                }
            }
        }
        reg
    }

    /// Serializes to the repro JSON schema.
    pub fn to_json(&self) -> Json {
        let nums = |ns: &[u64]| Json::Arr(ns.iter().map(|&n| Json::Num(n)).collect());
        let texture = |slot: &Option<(u32, u32)>| match slot {
            Some((w, h)) => nums(&[*w as u64, *h as u64]),
            None => nums(&[]),
        };
        let access = |a: &TexelAccess| nums(&[a.tid as u64, a.m as u64, a.u as u64, a.v as u64]);
        let textures = Json::Arr(self.textures.iter().map(texture).collect());
        let accesses = Json::Arr(self.accesses.iter().map(access).collect());
        Json::obj([
            ("note", Json::Str(self.note.clone())),
            ("config", config_to_json(&self.config)),
            ("textures", textures),
            ("accesses", accesses),
        ])
    }

    /// Parses the repro JSON schema.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let note = doc
            .get("note")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let config = config_from_json(doc.get("config").ok_or("missing \"config\"")?)?;
        let mut textures = Vec::new();
        for slot in doc
            .get("textures")
            .and_then(Json::as_arr)
            .ok_or("missing \"textures\" array")?
        {
            let dims = slot.as_arr().ok_or("texture slot must be an array")?;
            textures.push(match dims {
                [] => None,
                [w, h] => Some((side(w, "texture width")?, side(h, "texture height")?)),
                _ => return Err("texture slot must be [] or [w, h]".into()),
            });
        }
        let mut accesses = Vec::new();
        for item in doc
            .get("accesses")
            .and_then(Json::as_arr)
            .ok_or("missing \"accesses\" array")?
        {
            match item.as_arr().ok_or("access must be an array")? {
                [tid, m, u, v] => accesses.push(TexelAccess {
                    tid: u32_field(tid, "tid")?,
                    m: u32_field(m, "m")?,
                    u: u32_field(u, "u")?,
                    v: u32_field(v, "v")?,
                }),
                _ => return Err("access must be [tid, m, u, v]".into()),
            }
        }
        Ok(Self {
            note,
            config,
            textures,
            accesses,
        })
    }

    /// Writes the repro to `<dir>/repro-<hash>.json` (creating `dir`) and
    /// returns the path. The name is a content hash, so identical repros
    /// overwrite rather than accumulate.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        let text = self.to_json().render();
        let path = dir.join(format!("repro-{:016x}.json", fnv1a(text.as_bytes())));
        std::fs::create_dir_all(dir)?;
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

fn u64_field(j: &Json, what: &str) -> Result<u64, String> {
    j.as_u64().ok_or_else(|| format!("{what} must be a number"))
}

fn u32_field(j: &Json, what: &str) -> Result<u32, String> {
    let n = u64_field(j, what)?;
    u32::try_from(n).map_err(|_| format!("{what} {n} exceeds {}", u32::MAX))
}

/// A texture side [`Repro::build_registry`] can build: a power of two up to
/// the image cap.
fn side(j: &Json, what: &str) -> Result<u32, String> {
    let n = u32_field(j, what)?;
    if n.is_power_of_two() && n <= MAX_TEXTURE_SIDE {
        Ok(n)
    } else {
        Err(format!(
            "{what} {n} is not a power of two in 1..={MAX_TEXTURE_SIDE}"
        ))
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn tile_to_json(t: TileSize) -> Json {
    Json::Num(t.texels() as u64)
}

fn tile_from_json(j: &Json, what: &str) -> Result<TileSize, String> {
    match u64_field(j, what)? {
        4 => Ok(TileSize::X4),
        8 => Ok(TileSize::X8),
        16 => Ok(TileSize::X16),
        32 => Ok(TileSize::X32),
        n => Err(format!("{what}: unsupported tile edge {n}")),
    }
}

/// Serializes an [`EngineConfig`] (flat schema, omitting absent L2 / default
/// fault plans).
pub fn config_to_json(cfg: &EngineConfig) -> Json {
    let storage = match cfg.l1.storage {
        StorageFormat::Tiled => "tiled",
        StorageFormat::Linear => "linear",
    };
    let l1 = Json::obj([
        ("bytes", Json::Num(cfg.l1.size_bytes as u64)),
        ("ways", Json::Num(cfg.l1.ways as u64)),
        ("tile", tile_to_json(cfg.l1.tile)),
        ("storage", Json::Str(storage.into())),
    ]);
    let tiling = Json::obj([
        ("l2", tile_to_json(cfg.tiling.l2())),
        ("l1", tile_to_json(cfg.tiling.l1())),
    ]);
    let mut root = vec![
        ("l1", l1),
        ("tlb_entries", Json::Num(cfg.tlb_entries as u64)),
        ("tiling", tiling),
    ];
    root.extend(cfg.l2.map(|l2| {
        let fields = [
            ("bytes", Json::Num(l2.size_bytes as u64)),
            ("policy", Json::Str(l2.policy.to_string())),
            ("sector", Json::Bool(l2.sector_mapping)),
        ];
        ("l2", Json::obj(fields))
    }));
    if !cfg.fault.is_none() {
        let f = &cfg.fault;
        let mut fault = vec![
            ("seed", Json::Num(f.seed)),
            ("fail_ppm", Json::Num(f.fail_ppm as u64)),
            ("max_attempts", Json::Num(f.max_attempts as u64)),
            ("burst_period", Json::Num(f.burst_period as u64)),
            ("burst_len", Json::Num(f.burst_len as u64)),
        ];
        fault.extend(f.blackout.map(|b| {
            let window = [b.tid as u64, b.from, b.until].map(Json::Num);
            ("blackout", Json::Arr(window.to_vec()))
        }));
        root.push(("fault", Json::obj(fault)));
    }
    Json::obj(root)
}

/// Parses the flat [`EngineConfig`] schema produced by [`config_to_json`].
/// Structural validity only; semantic validation (power-of-two sizes etc.)
/// stays with [`SimEngine::try_new`](mltc_core::SimEngine::try_new).
pub fn config_from_json(doc: &Json) -> Result<EngineConfig, String> {
    let l1_doc = doc.get("l1").ok_or("missing \"l1\"")?;
    let l1 = L1Config {
        size_bytes: u64_field(l1_doc.get("bytes").ok_or("missing l1.bytes")?, "l1.bytes")? as usize,
        ways: u64_field(l1_doc.get("ways").ok_or("missing l1.ways")?, "l1.ways")? as usize,
        tile: tile_from_json(l1_doc.get("tile").ok_or("missing l1.tile")?, "l1.tile")?,
        storage: match l1_doc.get("storage").and_then(Json::as_str) {
            Some("tiled") | None => StorageFormat::Tiled,
            Some("linear") => StorageFormat::Linear,
            Some(other) => return Err(format!("unknown l1.storage {other:?}")),
        },
    };

    let l2 = match doc.get("l2") {
        None => None,
        Some(o) => Some(L2Config {
            size_bytes: u64_field(o.get("bytes").ok_or("missing l2.bytes")?, "l2.bytes")? as usize,
            policy: match o.get("policy").and_then(Json::as_str) {
                Some("clock") | None => ReplacementPolicy::Clock,
                Some("lru") => ReplacementPolicy::Lru,
                Some("fifo") => ReplacementPolicy::Fifo,
                Some(other) => return Err(format!("unknown l2.policy {other:?}")),
            },
            sector_mapping: o.get("sector").and_then(Json::as_bool).unwrap_or(true),
        }),
    };

    let tlb_entries = match doc.get("tlb_entries") {
        Some(n) => u64_field(n, "tlb_entries")? as usize,
        None => 0,
    };

    let tiling = match doc.get("tiling") {
        None => TilingConfig::PAPER_DEFAULT,
        Some(t) => TilingConfig::new(
            tile_from_json(t.get("l2").ok_or("missing tiling.l2")?, "tiling.l2")?,
            tile_from_json(t.get("l1").ok_or("missing tiling.l1")?, "tiling.l1")?,
        )
        .map_err(|e| e.to_string())?,
    };

    let fault = match doc.get("fault") {
        None => FaultPlan::none(),
        Some(f) => FaultPlan {
            seed: match f.get("seed") {
                Some(n) => u64_field(n, "fault.seed")?,
                None => 0,
            },
            fail_ppm: match f.get("fail_ppm") {
                Some(n) => u64_field(n, "fault.fail_ppm")? as u32,
                None => 0,
            },
            max_attempts: match f.get("max_attempts") {
                Some(n) => u64_field(n, "fault.max_attempts")? as u32,
                None => 1,
            },
            burst_period: match f.get("burst_period") {
                Some(n) => u64_field(n, "fault.burst_period")? as u32,
                None => 0,
            },
            burst_len: match f.get("burst_len") {
                Some(n) => u64_field(n, "fault.burst_len")? as u32,
                None => 0,
            },
            blackout: match f.get("blackout") {
                None => None,
                Some(b) => match b.as_arr().ok_or("fault.blackout must be an array")? {
                    [tid, from, until] => Some(TextureBlackout {
                        tid: u64_field(tid, "blackout tid")? as u32,
                        from: u64_field(from, "blackout from")?,
                        until: u64_field(until, "blackout until")?,
                    }),
                    _ => return Err("fault.blackout must be [tid, from, until]".into()),
                },
            },
        },
    };

    Ok(EngineConfig {
        l1,
        l2,
        tlb_entries,
        tiling,
        fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spicy_config() -> EngineConfig {
        EngineConfig {
            l1: L1Config {
                size_bytes: 4096,
                ways: 4,
                tile: TileSize::X8,
                storage: StorageFormat::Linear,
            },
            l2: Some(L2Config {
                size_bytes: 64 * 1024,
                policy: ReplacementPolicy::Fifo,
                sector_mapping: false,
            }),
            tlb_entries: 8,
            tiling: TilingConfig::new(TileSize::X32, TileSize::X8).unwrap(),
            fault: FaultPlan {
                seed: u64::MAX - 7,
                fail_ppm: 10_000,
                max_attempts: 3,
                burst_period: 100,
                burst_len: 5,
                blackout: Some(TextureBlackout {
                    tid: 2,
                    from: 10,
                    until: 20,
                }),
            },
        }
    }

    #[test]
    fn config_roundtrips_including_fault_plan() {
        let cfg = spicy_config();
        let parsed = config_from_json(&config_to_json(&cfg)).unwrap();
        assert_eq!(parsed, cfg);

        let plain = EngineConfig::default();
        assert_eq!(config_from_json(&config_to_json(&plain)).unwrap(), plain);
    }

    #[test]
    fn repro_roundtrips_and_rebuilds_registry() {
        let repro = Repro {
            note: "l2_block: engine Some(3) vs oracle Some(1)".into(),
            config: spicy_config(),
            textures: vec![Some((64, 64)), None, Some((128, 32))],
            accesses: vec![
                TexelAccess {
                    tid: 0,
                    m: 1,
                    u: 3,
                    v: 5,
                },
                TexelAccess {
                    tid: 2,
                    m: 0,
                    u: 100,
                    v: 17,
                },
            ],
        };
        let text = repro.to_json().render();
        let parsed = Repro::parse(&text).unwrap();
        assert_eq!(parsed, repro);

        let reg = parsed.build_registry();
        assert_eq!(reg.issued_count(), 3);
        assert!(reg
            .pyramid(mltc_texture::TextureId::from_index(1))
            .is_none());
        let p2 = reg
            .pyramid(mltc_texture::TextureId::from_index(2))
            .expect("slot 2 is live");
        let base = p2.iter().next().unwrap();
        assert_eq!((base.width(), base.height()), (128, 32));
    }

    #[test]
    fn hostile_numbers_are_errors_and_every_parsed_repro_builds() {
        let doc = |textures: &str, accesses: &str| {
            let config = config_to_json(&EngineConfig::default()).render();
            format!(r#"{{"config":{config},"textures":{textures},"accesses":{accesses}}}"#)
        };
        // Each side value as a width and as a height, the other side 1.
        for n in [
            0u64,
            1,
            2,
            3,
            5,
            12,
            16,
            4095,
            4096,
            4097,
            8192,
            1 << 32,
            (1 << 32) + 1,
        ] {
            let buildable = n.is_power_of_two() && n <= 4096;
            let text = doc(&format!("[[{n}, 1], [1, {n}], []]"), "[[0, 0, 1, 1]]");
            match Repro::parse(&text) {
                Ok(repro) => {
                    assert!(buildable, "{n} parsed");
                    assert_eq!(repro.build_registry().issued_count(), 3);
                }
                Err(e) => assert!(!buildable, "{n} refused: {e}"),
            }
        }
        for access in ["[4294967297, 0, 0, 0]", "[0, 0, 0, 4294967296]"] {
            let text = doc("[[4, 4]]", &format!("[{access}]"));
            assert!(Repro::parse(&text).is_err(), "{access}");
        }
    }

    #[test]
    fn write_is_content_addressed() {
        let dir = std::env::temp_dir().join("mltc-oracle-repro-test");
        let repro = Repro {
            note: "x".into(),
            config: EngineConfig::default(),
            textures: vec![Some((4, 4))],
            accesses: vec![],
        };
        let a = repro.write(&dir).unwrap();
        let b = repro.write(&dir).unwrap();
        assert_eq!(a, b);
        assert!(Repro::parse(&std::fs::read_to_string(&a).unwrap()).is_ok());
        let _ = std::fs::remove_file(a);
    }
}
