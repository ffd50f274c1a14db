//! Failure-injection integration tests: the system fails loudly and
//! precisely on misuse, and degrades gracefully where the paper's design
//! says it should.

use mltc::core::{
    EngineConfig, EngineError, FaultPlan, L1Config, L2Config, SimEngine, TextureBlackout,
};
use mltc::scene::{TraceKey, Workload, WorkloadParams};
use mltc::telemetry::Json;
use mltc::texture::{
    synth, Image, MipPyramid, TexelFormat, TextureId, TextureRegistry, TileSize, TilingConfig,
};
use mltc::trace::codec::{CodecError, TraceFileReader, TraceFileWriter};
use mltc::trace::{FilterMode, FrameTrace, PixelRequest};
use mltc_oracle::{Repro, TexelAccess};

fn one_texture_registry() -> TextureRegistry {
    let mut reg = TextureRegistry::new();
    reg.load(
        "t",
        MipPyramid::from_image(synth::checkerboard(64, 8, [0; 3], [255; 3])),
    );
    reg
}

#[test]
fn engine_rejects_traces_for_unknown_textures() {
    let reg = one_texture_registry();
    let mut e = SimEngine::new(
        EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        },
        &reg,
    );
    let mut t = FrameTrace::new(0, 8, 8, FilterMode::Point);
    t.push(PixelRequest {
        tid: TextureId::from_index(42),
        u: 0.0,
        v: 0.0,
        lod: 0.0,
    });
    let err = e.try_run_frame(&t).unwrap_err();
    assert_eq!(err, EngineError::UnknownTexture(TextureId::from_index(42)));
    assert!(err.to_string().contains("unknown"));
}

#[test]
fn l2_engine_requires_textures() {
    let reg = TextureRegistry::new();
    let err = SimEngine::try_new(
        EngineConfig {
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        },
        &reg,
    )
    .unwrap_err();
    assert_eq!(err, EngineError::EmptyPageTable);
    assert!(err.to_string().contains("empty texture page table"));
}

#[test]
fn invalid_geometry_is_a_typed_error() {
    let reg = one_texture_registry();
    let err = SimEngine::try_new(
        EngineConfig {
            l1: L1Config {
                ways: 0,
                ..L1Config::kb(2)
            },
            ..EngineConfig::default()
        },
        &reg,
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::InvalidGeometry(_)));
    assert!(err.to_string().contains("at least one way"));
}

#[test]
fn out_of_range_texel_coords_are_a_typed_error() {
    let reg = one_texture_registry();
    let mut e = SimEngine::new(EngineConfig::default(), &reg);
    let tid = TextureId::from_index(0);
    let err = e.try_access_texel(tid, 0, 64, 0).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::CoordsOutOfRange {
                u: 64,
                v: 0,
                m: 0,
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("out of range"));
}

#[test]
fn pull_engine_tolerates_empty_registry() {
    // Without an L2 there is no page table, so an empty registry is fine
    // until a texel access names a texture.
    let reg = TextureRegistry::new();
    let mut e = SimEngine::new(EngineConfig::default(), &reg);
    e.end_frame();
    assert_eq!(e.frame_stats().l1_accesses, 0);
}

#[test]
fn tiling_config_rejects_inverted_hierarchy() {
    assert!(TilingConfig::new(TileSize::X4, TileSize::X16).is_err());
    assert!(TilingConfig::new(TileSize::X8, TileSize::X8).is_err());
    let err = TilingConfig::new(TileSize::X4, TileSize::X32).unwrap_err();
    assert!(err.to_string().contains("smaller"));
}

/// A trace file of `frames` written under `key`.
fn trace_file(key: &str, frames: &[FrameTrace]) -> Vec<u8> {
    let mut file = Vec::new();
    let mut w = TraceFileWriter::new(&mut file, key, frames.len() as u32).unwrap();
    for t in frames {
        w.write_frame(t).unwrap();
    }
    w.finish().unwrap();
    file
}

/// Opens `bytes` as a trace file and reads every frame its header declares;
/// the frames read.
fn read_trace_file(bytes: &[u8]) -> Result<u32, CodecError> {
    let mut r = TraceFileReader::new(bytes)?;
    for _ in 0..r.frame_count() {
        r.read_frame()?;
    }
    Ok(r.frames_read())
}

#[test]
fn corrupt_trace_stream_reports_precise_errors() {
    let w = Workload::village(&WorkloadParams::tiny());
    let t = w.trace_frame(0, FilterMode::Point);
    let file = trace_file("village", std::slice::from_ref(&t));
    // The frame follows the header (magic, version, key length, key, frame
    // count) and its 4-byte length prefix.
    let frame_at = 4 + 4 + 2 + "village".len() + 4 + 4;

    // Flip the frame magic.
    let mut bad = file.clone();
    bad[frame_at + 1] ^= 0x55;
    let mut r = TraceFileReader::new(bad.as_slice()).unwrap();
    assert!(matches!(r.read_frame(), Err(CodecError::BadMagic(_))));

    // Cut the payload.
    let cut = &file[..(frame_at + file.len()) / 2];
    let mut r = TraceFileReader::new(cut).unwrap();
    assert!(matches!(r.read_frame(), Err(CodecError::Truncated)));

    // Flip the file magic.
    let mut bad = file.clone();
    bad[1] ^= 0x55;
    let opened = TraceFileReader::new(bad.as_slice());
    assert!(matches!(opened, Err(CodecError::BadFileMagic(_))));

    // Reading past the declared frame count is an error, not a panic.
    let mut r = TraceFileReader::new(file.as_slice()).unwrap();
    assert_eq!(r.read_frame().unwrap(), t);
    assert!(matches!(r.read_frame(), Err(CodecError::Truncated)));
}

/// Hostile bytes never panic the trace-file reader: a two-frame file cut at
/// every length and with every single bit flipped reads to `Ok` or a typed
/// `CodecError`, and no cut reads whole.
#[test]
fn every_cut_and_bit_flip_of_a_trace_file_is_ok_or_a_typed_error() {
    let frames: Vec<FrameTrace> = (0..2)
        .map(|f| {
            let mut t = FrameTrace::new(f, 8, 8, FilterMode::Trilinear);
            for i in 0..3 {
                t.push(PixelRequest {
                    tid: TextureId::from_index(i),
                    u: i as f32 * 0.25,
                    v: 0.5,
                    lod: f as f32,
                });
            }
            t
        })
        .collect();
    let file = trace_file("hostile", &frames);
    assert_eq!(read_trace_file(&file).unwrap(), 2);
    for cut in 0..file.len() {
        let read = std::panic::catch_unwind(|| read_trace_file(&file[..cut]));
        assert!(matches!(read, Ok(Err(_))), "cut at {cut}: {read:?}");
    }
    for bit in 0..file.len() * 8 {
        let mut flipped = file.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let read = std::panic::catch_unwind(|| read_trace_file(&flipped));
        assert!(read.is_ok(), "bit {bit} flipped panicked the reader");
    }
}

#[test]
fn deleting_a_texture_mid_run_releases_l2_blocks_without_corruption() {
    let mut reg = TextureRegistry::new();
    let a = reg.load(
        "a",
        MipPyramid::from_image(synth::checkerboard(64, 8, [0; 3], [255; 3])),
    );
    let b = reg.load(
        "b",
        MipPyramid::from_image(synth::checkerboard(64, 8, [0; 3], [255; 3])),
    );
    let mut e = SimEngine::new(
        EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        },
        &reg,
    );
    for v in (0..64).step_by(4) {
        for u in (0..64).step_by(4) {
            e.access_texel(a, 0, u, v);
            e.access_texel(b, 0, u, v);
        }
    }
    e.end_frame();
    let used_before = e.l2().unwrap().blocks_in_use();
    e.delete_texture(a);
    let used_after = e.l2().unwrap().blocks_in_use();
    assert!(used_after < used_before);
    // Texture b must be untouched: replaying it is all L2-full-hits.
    for v in (0..64).step_by(4) {
        for u in (0..64).step_by(4) {
            e.access_texel(b, 0, u, v);
        }
    }
    e.end_frame();
    let f = e.frame_stats();
    assert_eq!(
        f.l2_full_misses, 0,
        "b's pages must have survived a's deallocation"
    );
}

#[test]
fn workload_rejects_out_of_range_frames() {
    let w = Workload::city(&WorkloadParams::tiny());
    let result = std::panic::catch_unwind(|| w.camera_at(w.frame_count));
    assert!(
        result.is_err(),
        "frame index beyond the animation must panic"
    );
}

#[test]
fn engines_are_send_for_the_parallel_harness() {
    fn assert_send<T: Send>() {}
    assert_send::<SimEngine>();
    assert_send::<FrameTrace>();
}

/// Characters a hostile edit writes: digits, the key's separators, every
/// ASCII letter, the JSON punctuation, a NUL and multi-byte UTF-8.
const HOSTILE: &str = "0123456789=,- xabcdefghijklmnopqrstuvwyzABCDEFGHIJKLMNOPQRSTUVWXYZ\
                       []{}\":.\0é€";

/// Calls `f` on every truncation of `text`, every single-character deletion
/// and duplication, and every single-character replacement from
/// [`HOSTILE`]; returns how many variants it made.
fn for_each_hostile_edit(text: &str, mut f: impl FnMut(&str)) -> usize {
    let mut cases = 0;
    let mut edit = |parts: &[&str]| {
        f(&parts.concat());
        cases += 1;
    };
    for (at, c) in text.char_indices() {
        let (head, rest) = (&text[..at], &text[at + c.len_utf8()..]);
        let c = c.encode_utf8(&mut [0; 4]).to_string();
        edit(&[head]);
        edit(&[head, rest]);
        edit(&[head, &c, &c, rest]);
        for r in HOSTILE.chars().filter(|r| r.to_string() != c) {
            edit(&[head, r.encode_utf8(&mut [0; 4]), rest]);
        }
    }
    cases
}

#[test]
fn every_hostile_edit_of_a_committed_trace_key_is_ok_or_an_error() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/traces");
    let mut cases = 0;
    for name in [
        "city-64x48-f4-ts8-s5eed-late-scanline.mltct",
        "village-64x48-f4-ts8-s5eed-late-scanline.mltct",
    ] {
        let file = std::fs::File::open(dir.join(name)).expect("committed trace");
        let reader = TraceFileReader::new(std::io::BufReader::new(file)).expect("valid container");
        let key = reader.key().to_string();
        assert!(TraceKey::parse(&key).is_ok(), "{key:?}");
        cases += for_each_hostile_edit(&key, |text| {
            let parsed = std::panic::catch_unwind(|| TraceKey::parse(text));
            assert!(parsed.is_ok(), "TraceKey::parse panicked on {text:?}");
        });
    }
    assert!(cases >= 10_000, "only {cases} cases");
}

#[test]
fn every_hostile_edit_of_a_captured_repro_is_ok_or_an_error() {
    // Small textures: every edit that still parses rebuilds the registry.
    let flat = |w, h| MipPyramid::from_image(Image::filled(w, h, TexelFormat::Rgb565, [9; 3]));
    let mut reg = TextureRegistry::new();
    reg.load("square", flat(4, 4));
    let gone = reg.load("gone", flat(2, 2));
    reg.delete(gone);
    reg.load("wide", flat(8, 2));
    let config = EngineConfig {
        l1: L1Config::kb(2),
        l2: Some(L2Config::mb(2)),
        tlb_entries: 16,
        fault: FaultPlan {
            seed: 7,
            fail_ppm: 1000,
            max_attempts: 3,
            burst_period: 10,
            burst_len: 2,
            blackout: Some(TextureBlackout {
                tid: 2,
                from: 1,
                until: 5,
            }),
        },
        ..EngineConfig::default()
    };
    let accesses = [(0, 0, 3, 1), (2, 1, 3, 0)].map(|(tid, m, u, v)| TexelAccess { tid, m, u, v });
    let text = Repro::capture("l1 hit differs at 1", config, &reg, &accesses)
        .to_json()
        .render();
    assert!(Repro::parse(&text).is_ok(), "{text}");
    let cases = for_each_hostile_edit(&text, |text| {
        let built = std::panic::catch_unwind(|| {
            Repro::parse(text).map(|repro| repro.build_registry().issued_count())
        });
        assert!(
            built.is_ok(),
            "Repro::parse or build_registry panicked on {text:?}"
        );
    });
    assert!(cases >= 10_000, "only {cases} cases");
}

#[test]
fn every_hostile_edit_of_a_json_document_is_ok_or_an_error() {
    // A report in `Json::render`'s layout holding every variant, plus the
    // exponent floats that renderer never writes but reports may carry.
    let text = r#"{
  "bools": [true, false],
  "floats": [-2.5, 0.125, 6.02e23, -1.5E-7],
  "max": 18446744073709551615,
  "nested": {
    "cells": [
      {
        "empty": [],
        "tag": "é"
      },
      [0, {}]
    ]
  },
  "text": "quote \" slash \\ line\n end"
}
"#;
    let doc = Json::obj([
        (
            "bools",
            Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
        ),
        (
            "floats",
            Json::Arr([-2.5, 0.125, 6.02e23, -1.5e-7].map(Json::Float).to_vec()),
        ),
        ("max", Json::Num(u64::MAX)),
        (
            "nested",
            Json::obj([(
                "cells",
                Json::Arr(vec![
                    Json::obj([("empty", Json::Arr(vec![])), ("tag", Json::Str("é".into()))]),
                    Json::Arr(vec![Json::Num(0), Json::obj::<&str>([])]),
                ]),
            )]),
        ),
        ("text", Json::Str("quote \" slash \\ line\n end".into())),
    ]);
    assert_eq!(Json::parse(text), Ok(doc.clone()));
    assert_eq!(Json::parse(&doc.render()), Ok(doc));
    let cases = for_each_hostile_edit(text, |text| {
        let parsed = std::panic::catch_unwind(|| Json::parse(text));
        let Ok(parsed) = parsed else {
            panic!("Json::parse panicked on {text:?}");
        };
        // Whatever parses is a value the writer reproduces exactly.
        if let Ok(value) = parsed {
            let again = Json::parse(&value.render());
            assert_eq!(again.as_ref(), Ok(&value), "{text:?} re-rendered");
        }
    });
    assert!(cases >= 10_000, "only {cases} cases");
}
