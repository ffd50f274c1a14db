//! Property-based tests for filtering and the trace codec.

use mltc_texture::TextureId;
use mltc_trace::codec::{
    decode_frame, encode_frame, frame_cursor, CodecError, TraceFileReader, TraceFileWriter,
    MAX_FRAME_REQUESTS,
};
use mltc_trace::{filter_taps, FilterMode, FrameTrace, PixelRequest};
use proptest::prelude::*;
use std::mem::discriminant;

fn filters() -> impl Strategy<Value = FilterMode> {
    prop_oneof![
        Just(FilterMode::Point),
        Just(FilterMode::Bilinear),
        Just(FilterMode::Trilinear),
    ]
}

fn requests() -> impl Strategy<Value = PixelRequest> {
    (
        0u32..8,
        -1000.0f32..1000.0,
        -1000.0f32..1000.0,
        -4.0f32..16.0,
    )
        .prop_map(|(tid, u, v, lod)| PixelRequest {
            tid: TextureId::from_index(tid),
            u,
            v,
            lod,
        })
}

fn square_dims(base: u32) -> impl Fn(u32) -> (u32, u32) {
    move |m| ((base >> m).max(1), (base >> m).max(1))
}

/// A trace file declaring one frame whose length prefix frames `bytes`.
fn one_frame_file(bytes: &[u8]) -> Vec<u8> {
    let mut file = Vec::new();
    // The header is written as the writer opens; the frame goes in raw.
    TraceFileWriter::new(&mut file, "", 1).expect("header");
    file.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    file.extend_from_slice(bytes);
    file
}

/// `frame_cursor`, `decode_frame` and the `read_frame` of a one-frame trace
/// file holding `bytes` make the same thing of them: the same frame
/// (compared re-encoded, so a NaN coordinate equals itself) or the same
/// `CodecError` variant. The file's length prefix claims all of `bytes`, so
/// where the slice decoders find a frame with bytes left over the file
/// reader reports the mismatch, and where `bytes` is too short for a frame
/// header it rejects the prefix.
fn assert_decoders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let outcome = |r: Result<FrameTrace, CodecError>| {
        r.map(|t| encode_frame(&t)).map_err(|e| discriminant(&e))
    };
    let cursor = outcome(frame_cursor(bytes).map(|(c, _)| c.into_frame()));
    let slice = outcome(decode_frame(&mut &bytes[..]));
    prop_assert_eq!(&cursor, &slice, "frame_cursor vs decode_frame");
    let left_over = frame_cursor(bytes).map_or(0, |(_, rest)| rest.len());
    let expected = match cursor {
        Ok(_) if left_over > 0 => Err(discriminant(&CodecError::FrameLengthMismatch {
            declared: 0,
            decoded: 0,
        })),
        Err(_) if bytes.len() < 29 => Err(discriminant(&CodecError::BadFrameLength {
            declared: 0,
            max: 0,
        })),
        decoded => decoded,
    };
    let file = one_frame_file(bytes);
    let read = TraceFileReader::new(file.as_slice()).and_then(|mut r| r.read_frame());
    prop_assert_eq!(&outcome(read), &expected, "frame_cursor vs TraceFileReader");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every filter mode and any request: taps stay in bounds, weights
    /// are non-negative and sum to 1, and the tap count obeys the mode.
    #[test]
    fn taps_are_well_formed(req in requests(), filter in filters(), base_exp in 2u32..9) {
        let base = 1u32 << base_exp;
        let levels = base_exp + 1;
        let dims = square_dims(base);
        let taps = filter_taps(&req, filter, levels, &dims);

        prop_assert!(!taps.is_empty());
        prop_assert!(taps.len() <= filter.max_taps());
        match filter {
            FilterMode::Point => prop_assert_eq!(taps.len(), 1),
            FilterMode::Bilinear => prop_assert_eq!(taps.len(), 4),
            FilterMode::Trilinear => prop_assert!(taps.len() == 4 || taps.len() == 8),
        }

        let mut sum = 0.0f64;
        for tap in &taps {
            let (w, h) = dims(tap.m);
            prop_assert!(tap.m < levels);
            prop_assert!(tap.u < w && tap.v < h, "tap {:?} out of {}x{}", tap, w, h);
            prop_assert!(tap.weight >= -1e-6);
            sum += tap.weight as f64;
        }
        prop_assert!((sum - 1.0).abs() < 1e-4, "weights sum to {}", sum);
    }

    /// The mip levels a trilinear request touches straddle its (clamped)
    /// level of detail.
    #[test]
    fn trilinear_levels_straddle_lod(req in requests(), base_exp in 2u32..9) {
        let levels = base_exp + 1;
        let taps = filter_taps(&req, FilterMode::Trilinear, levels, square_dims(1 << base_exp));
        let clamped = req.lod.clamp(0.0, (levels - 1) as f32);
        let lo = clamped.floor() as u32;
        for tap in &taps {
            prop_assert!(tap.m == lo || tap.m == (lo + 1).min(levels - 1),
                "tap level {} vs lod {}", tap.m, clamped);
        }
    }

    /// Point and bilinear taps agree on the mip level they pick.
    #[test]
    fn point_and_bilinear_pick_same_level(req in requests(), base_exp in 2u32..9) {
        let levels = base_exp + 1;
        let dims = square_dims(1 << base_exp);
        let p = filter_taps(&req, FilterMode::Point, levels, &dims);
        let b = filter_taps(&req, FilterMode::Bilinear, levels, &dims);
        prop_assert_eq!(p.as_slice()[0].m, b.as_slice()[0].m);
    }

    /// The binary codec round-trips arbitrary traces exactly.
    #[test]
    fn codec_roundtrip(
        frame in 0u32..10_000,
        w in 1u32..2048,
        h in 1u32..2048,
        filter in filters(),
        reqs in proptest::collection::vec(requests(), 0..200),
    ) {
        let mut t = FrameTrace::new(frame, w, h, filter);
        for r in reqs {
            t.push(r);
        }
        let bytes = encode_frame(&t);
        let mut buf = bytes.as_ref();
        let back = decode_frame(&mut buf).unwrap();
        prop_assert_eq!(back, t);
        prop_assert!(buf.is_empty(), "decoder must consume the whole frame");
    }

    /// Truncating an encoded frame anywhere inside always errors (never
    /// silently yields a frame).
    #[test]
    fn codec_detects_truncation(
        reqs in proptest::collection::vec(requests(), 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut t = FrameTrace::new(0, 8, 8, FilterMode::Point);
        for r in reqs {
            t.push(r);
        }
        let bytes = encode_frame(&t);
        let cut = 1 + (cut_frac * (bytes.len() - 2) as f64) as usize;
        let mut buf = &bytes[..cut];
        prop_assert!(decode_frame(&mut buf).is_err());
    }

    /// Arbitrary bytes never panic a decoder, and the three agree on them:
    /// the same frame or the same error.
    #[test]
    fn decoders_agree_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        assert_decoders_agree(&bytes)?;
    }

    /// So they do on a valid frame with one byte changed — whichever header
    /// field or request it lands in — and with its tail cut off.
    #[test]
    fn decoders_agree_on_a_damaged_frame(
        reqs in proptest::collection::vec(requests(), 0..20),
        filter in filters(),
        at in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut t = FrameTrace::new(3, 64, 48, filter);
        for r in reqs {
            t.push(r);
        }
        let mut bytes = encode_frame(&t).to_vec();
        assert_decoders_agree(&bytes)?;
        let at = (at * bytes.len() as f64) as usize;
        bytes[at] ^= flip;
        assert_decoders_agree(&bytes)?;
        assert_decoders_agree(&bytes[..at])?;
    }

    /// A header claiming more than [`MAX_FRAME_REQUESTS`] requests is
    /// rejected as `Oversized` before the decoder allocates for the payload
    /// — regardless of how much (or little) payload follows.
    #[test]
    fn oversized_counts_are_rejected_before_allocation(
        excess in 1u32..=(u32::MAX - MAX_FRAME_REQUESTS),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut t = FrameTrace::new(0, 8, 8, FilterMode::Point);
        t.push(PixelRequest { tid: TextureId::from_index(0), u: 0.0, v: 0.0, lod: 0.0 });
        let mut bytes = encode_frame(&t).to_vec();
        let huge = MAX_FRAME_REQUESTS + excess;
        bytes[25..29].copy_from_slice(&huge.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let mut buf = bytes.as_slice();
        prop_assert!(matches!(
            decode_frame(&mut buf),
            Err(CodecError::Oversized { count, max })
                if count == huge && max == MAX_FRAME_REQUESTS
        ));
    }
}
