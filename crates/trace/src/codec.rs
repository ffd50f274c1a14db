//! Compact binary trace format for record/replay.
//!
//! A recorded trace is one versioned *trace file*: a header naming the
//! trace, then its frames, each encoded on its own. Recording an animation
//! once and replaying it through many cache configurations is the paper's
//! methodology; the file lets experiments skip re-rendering entirely.
//! [`TraceFileWriter`] writes one and [`TraceFileReader`] reads it back;
//! the experiment suite's persistent trace store and `tracetool` use
//! nothing else.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! file    := fmagic:u32 ("MLTS") version:u32 key_len:u16 key_bytes
//!            frame_count:u32 (frame_len:u32 frame)*frame_count
//! frame   := magic:u32 ("MLTC") frame:u32 width:u32 height:u32
//!            filter:u8 pixels_rendered:u64 count:u32 request*count
//! request := tid:u32 u:f32 v:f32 lod:f32
//! ```
//!
//! `key` is an opaque caller-defined identity string (the trace store encodes
//! the workload, its parameters and the render settings there) verified on
//! load, so a stale or mislabeled file is never silently replayed.
//!
//! One parser reads a frame, [`frame_cursor`]; [`decode_frame`] and the
//! file reader go through it. [`encode_frame`] and [`decode_frame`] are the
//! in-memory halves for a caller that frames the bytes itself.

use crate::{FilterMode, FrameTrace, PixelRequest};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mltc_texture::TextureId;
use std::fmt;
use std::io::{Read, Write};

const MAGIC: u32 = u32::from_le_bytes(*b"MLTC");

/// Magic number opening a versioned trace *file* (each frame inside it
/// opens with a magic of its own, `MLTC`).
pub const FILE_MAGIC: u32 = u32::from_le_bytes(*b"MLTS");

/// Current trace-file format version. Bump on any layout change; readers
/// reject every other version with [`CodecError::BadVersion`].
pub const FILE_VERSION: u32 = 1;

/// Upper bound on one encoded frame inside a trace file, implied by
/// [`MAX_FRAME_REQUESTS`]: header (29 bytes) plus 16 bytes per request.
pub const MAX_FRAME_BYTES: u32 = 29 + MAX_FRAME_REQUESTS * 16;

/// Upper bound on requests in one decoded frame.
///
/// A paper-scale frame (1024×768, trilinear, depth complexity ~4) needs
/// ~25 M taps; 2²² per *recorded* frame is generous for everything this
/// simulator produces while keeping the worst-case decode allocation at
/// 64 MiB. A corrupt or hostile header with a larger count is rejected with
/// [`CodecError::Oversized`] *before* any allocation happens.
pub const MAX_FRAME_REQUESTS: u32 = 1 << 22;

/// Error decoding a trace file or frame.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The frame header's magic number was wrong.
    BadMagic(u32),
    /// Unknown filter-mode byte.
    BadFilter(u8),
    /// The bytes ended inside a frame or the file header.
    Truncated,
    /// The header's request count exceeds [`MAX_FRAME_REQUESTS`].
    Oversized {
        /// The count the header claimed.
        count: u32,
        /// The cap that rejected it.
        max: u32,
    },
    /// A trace file did not open with [`FILE_MAGIC`].
    BadFileMagic(u32),
    /// A trace file's format version is not [`FILE_VERSION`].
    BadVersion {
        /// The version the file claimed.
        found: u32,
        /// The only version this reader understands.
        expected: u32,
    },
    /// A trace file's per-frame length prefix is impossible (too small for
    /// a frame header or over [`MAX_FRAME_BYTES`]).
    BadFrameLength {
        /// The length the prefix claimed.
        declared: u32,
        /// The cap that rejected it.
        max: u32,
    },
    /// A frame decoded to fewer bytes than its length prefix declared —
    /// the prefix and payload disagree, so the file is corrupt.
    FrameLengthMismatch {
        /// The length the prefix claimed.
        declared: u32,
        /// The bytes the frame decoder actually consumed.
        decoded: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            CodecError::BadFilter(b) => write!(f, "unknown filter byte {b}"),
            CodecError::Truncated => f.write_str("trace stream truncated mid-frame"),
            CodecError::Oversized { count, max } => {
                write!(f, "frame claims {count} requests, over the {max} cap")
            }
            CodecError::BadFileMagic(m) => write!(f, "bad trace-file magic {m:#010x}"),
            CodecError::BadVersion { found, expected } => {
                write!(f, "trace-file version {found}, expected {expected}")
            }
            CodecError::BadFrameLength { declared, max } => {
                write!(f, "frame length prefix {declared} outside 29..={max}")
            }
            CodecError::FrameLengthMismatch { declared, decoded } => {
                write!(
                    f,
                    "frame length prefix {declared} but frame decoded {decoded} bytes"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

fn filter_byte(f: FilterMode) -> u8 {
    match f {
        FilterMode::Point => 0,
        FilterMode::Bilinear => 1,
        FilterMode::Trilinear => 2,
    }
}

fn filter_from_byte(b: u8) -> Result<FilterMode, CodecError> {
    match b {
        0 => Ok(FilterMode::Point),
        1 => Ok(FilterMode::Bilinear),
        2 => Ok(FilterMode::Trilinear),
        other => Err(CodecError::BadFilter(other)),
    }
}

/// Encodes one frame to bytes.
pub fn encode_frame(t: &FrameTrace) -> Bytes {
    let mut buf = BytesMut::with_capacity(29 + t.requests.len() * 16);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(t.frame);
    buf.put_u32_le(t.width);
    buf.put_u32_le(t.height);
    buf.put_u8(filter_byte(t.filter));
    buf.put_u64_le(t.pixels_rendered);
    buf.put_u32_le(t.requests.len() as u32);
    for r in &t.requests {
        buf.put_u32_le(r.tid.index());
        buf.put_f32_le(r.u);
        buf.put_f32_le(r.v);
        buf.put_f32_le(r.lod);
    }
    buf.freeze()
}

/// Borrowed view of one encoded frame: header fields decoded, request
/// payload left in place and decoded lazily by [`requests`]
/// (`FrameCursor::requests`). Decoding a frame allocates nothing until
/// [`into_frame`](Self::into_frame) collects the requests — once per frame
/// read from a trace file, however many consumers share the result.
#[derive(Debug, Clone, Copy)]
pub struct FrameCursor<'a> {
    /// Frame number.
    pub frame: u32,
    /// Framebuffer width the trace was rendered at.
    pub width: u32,
    /// Framebuffer height.
    pub height: u32,
    /// Filter mode recorded with the frame.
    pub filter: FilterMode,
    /// Fragments the rasterizer produced for this frame.
    pub pixels_rendered: u64,
    /// Raw little-endian request payload, 16 bytes per request.
    payload: &'a [u8],
}

impl<'a> FrameCursor<'a> {
    /// Number of requests in the frame.
    #[inline]
    pub fn request_count(&self) -> u32 {
        (self.payload.len() / 16) as u32
    }

    /// Iterates the requests, decoding each from the payload in place.
    #[inline]
    pub fn requests(&self) -> FrameRequests<'a> {
        FrameRequests {
            payload: self.payload,
        }
    }

    /// Materializes an owned [`FrameTrace`] (the allocating path callers
    /// use when the frame must outlive the read buffer).
    pub fn into_frame(self) -> FrameTrace {
        FrameTrace {
            frame: self.frame,
            width: self.width,
            height: self.height,
            filter: self.filter,
            pixels_rendered: self.pixels_rendered,
            requests: self.requests().collect(),
        }
    }
}

/// In-place request iterator of a [`FrameCursor`].
#[derive(Debug, Clone)]
pub struct FrameRequests<'a> {
    payload: &'a [u8],
}

impl Iterator for FrameRequests<'_> {
    type Item = PixelRequest;

    #[inline]
    fn next(&mut self) -> Option<PixelRequest> {
        let (raw, rest) = self.payload.split_first_chunk::<16>()?;
        self.payload = rest;
        Some(PixelRequest {
            tid: TextureId::from_index(u32::from_le_bytes(raw[0..4].try_into().unwrap())),
            u: f32::from_le_bytes(raw[4..8].try_into().unwrap()),
            v: f32::from_le_bytes(raw[8..12].try_into().unwrap()),
            lod: f32::from_le_bytes(raw[12..16].try_into().unwrap()),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.payload.len() / 16;
        (n, Some(n))
    }
}

impl ExactSizeIterator for FrameRequests<'_> {}

/// Decodes one frame's header from the front of `buf`, returning a borrowed
/// [`FrameCursor`] over its request payload plus the remainder of `buf`
/// after the frame. Nothing is allocated. This is the one frame parser —
/// magic, filter byte and the [`MAX_FRAME_REQUESTS`] cap are checked here
/// and nowhere else — and every other frame decoder ([`decode_frame`],
/// [`TraceFileReader::read_frame_into`]) goes through it.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if `buf` ends mid-frame,
/// [`CodecError::BadMagic`]/[`CodecError::BadFilter`] on corrupt headers,
/// and [`CodecError::Oversized`] when the header claims more than
/// [`MAX_FRAME_REQUESTS`] requests.
pub fn frame_cursor(buf: &[u8]) -> Result<(FrameCursor<'_>, &[u8]), CodecError> {
    let Some(mut header) = buf.get(..29) else {
        return Err(CodecError::Truncated);
    };
    let magic = header.get_u32_le();
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let frame = header.get_u32_le();
    let width = header.get_u32_le();
    let height = header.get_u32_le();
    let filter = filter_from_byte(header.get_u8())?;
    let pixels_rendered = header.get_u64_le();
    let count = header.get_u32_le();
    if count > MAX_FRAME_REQUESTS {
        return Err(CodecError::Oversized {
            count,
            max: MAX_FRAME_REQUESTS,
        });
    }
    // The cap keeps `count * 16` far inside a 32-bit usize.
    let Some((payload, rest)) = buf[29..].split_at_checked(count as usize * 16) else {
        return Err(CodecError::Truncated);
    };
    let cursor = FrameCursor {
        frame,
        width,
        height,
        filter,
        pixels_rendered,
        payload,
    };
    Ok((cursor, rest))
}

/// Decodes one frame from the front of `buf`, advancing it past the frame
/// (an error leaves `buf` where it was).
///
/// # Errors
///
/// Same contract as [`frame_cursor`]; [`CodecError::Oversized`] is reported
/// before anything is allocated.
pub fn decode_frame(buf: &mut &[u8]) -> Result<FrameTrace, CodecError> {
    let (cursor, rest) = frame_cursor(buf)?;
    *buf = rest;
    Ok(cursor.into_frame())
}

/// Writes a versioned trace *file*: header (magic, version, key, frame
/// count) followed by length-prefixed frames.
///
/// The declared `frame_count` is part of the header, so the writer enforces
/// it: writing more frames than declared is an error, and [`finish`]
/// (`TraceFileWriter::finish`) fails if fewer were written. This makes a
/// half-written file (e.g. the process died mid-render) detectable on read
/// as [`CodecError::Truncated`] rather than silently short.
///
/// ```
/// use mltc_trace::{codec::{TraceFileReader, TraceFileWriter}, FilterMode, FrameTrace};
/// let mut buf = Vec::new();
/// let mut w = TraceFileWriter::new(&mut buf, "village-tiny", 1)?;
/// w.write_frame(&FrameTrace::new(0, 8, 8, FilterMode::Point))?;
/// w.finish()?;
/// let mut r = TraceFileReader::new(buf.as_slice())?;
/// assert_eq!(r.key(), "village-tiny");
/// assert_eq!(r.frame_count(), 1);
/// assert_eq!(r.read_frame()?.frame, 0);
/// # Ok::<(), mltc_trace::codec::CodecError>(())
/// ```
#[derive(Debug)]
pub struct TraceFileWriter<W: Write> {
    inner: W,
    declared: u32,
    written: u32,
}

impl<W: Write> TraceFileWriter<W> {
    /// Writes the file header and returns a writer expecting exactly
    /// `frame_count` frames.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; fails if `key` exceeds `u16::MAX` bytes.
    pub fn new(mut inner: W, key: &str, frame_count: u32) -> Result<Self, CodecError> {
        let key_len = u16::try_from(key.len()).map_err(|_| {
            CodecError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "trace-file key over 64 KiB",
            ))
        })?;
        let mut header = BytesMut::with_capacity(14 + key.len());
        header.put_u32_le(FILE_MAGIC);
        header.put_u32_le(FILE_VERSION);
        header.put_slice(&key_len.to_le_bytes());
        header.put_slice(key.as_bytes());
        header.put_u32_le(frame_count);
        inner.write_all(&header)?;
        Ok(Self {
            inner,
            declared: frame_count,
            written: 0,
        })
    }

    /// Appends one length-prefixed frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; fails if the declared frame count would be
    /// exceeded.
    pub fn write_frame(&mut self, t: &FrameTrace) -> Result<(), CodecError> {
        if self.written == self.declared {
            return Err(CodecError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "more frames than the header declared",
            )));
        }
        let frame = encode_frame(t);
        self.inner.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.inner.write_all(&frame)?;
        self.written += 1;
        Ok(())
    }

    /// Flushes and verifies that exactly the declared number of frames was
    /// written, returning the inner writer.
    ///
    /// # Errors
    ///
    /// Propagates flush errors; fails if fewer frames than declared were
    /// written.
    pub fn finish(mut self) -> Result<W, CodecError> {
        if self.written != self.declared {
            return Err(CodecError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "trace file declared {} frames but {} were written",
                    self.declared, self.written
                ),
            )));
        }
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Reads a versioned trace file written by [`TraceFileWriter`], validating
/// magic, version, and every frame's length prefix.
#[derive(Debug)]
pub struct TraceFileReader<R: Read> {
    inner: R,
    key: String,
    frame_count: u32,
    read: u32,
}

impl<R: Read> TraceFileReader<R> {
    /// Parses the file header.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadFileMagic`] / [`CodecError::BadVersion`] on
    /// a foreign or stale file, [`CodecError::Truncated`] if the header is
    /// incomplete, and I/O errors from the reader.
    pub fn new(mut inner: R) -> Result<Self, CodecError> {
        let mut fixed = [0u8; 10];
        read_full(&mut inner, &mut fixed)?;
        let mut hdr = &fixed[..];
        let magic = hdr.get_u32_le();
        if magic != FILE_MAGIC {
            return Err(CodecError::BadFileMagic(magic));
        }
        let version = hdr.get_u32_le();
        if version != FILE_VERSION {
            return Err(CodecError::BadVersion {
                found: version,
                expected: FILE_VERSION,
            });
        }
        let key_len = u16::from_le_bytes([hdr.get_u8(), hdr.get_u8()]) as usize;
        let mut key_bytes = vec![0u8; key_len];
        read_full(&mut inner, &mut key_bytes)?;
        let key = String::from_utf8(key_bytes).map_err(|_| {
            CodecError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "trace-file key is not UTF-8",
            ))
        })?;
        let mut count = [0u8; 4];
        read_full(&mut inner, &mut count)?;
        Ok(Self {
            inner,
            key,
            frame_count: u32::from_le_bytes(count),
            read: 0,
        })
    }

    /// The caller-defined identity string stored in the header.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Number of frames the header declares.
    pub fn frame_count(&self) -> u32 {
        self.frame_count
    }

    /// Frames read so far.
    pub fn frames_read(&self) -> u32 {
        self.read
    }

    /// Reads the next frame. Calling it more than [`frame_count`]
    /// (`Self::frame_count`) times is a caller bug reported as
    /// [`CodecError::Truncated`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadFrameLength`] on an impossible length
    /// prefix, [`CodecError::FrameLengthMismatch`] when prefix and payload
    /// disagree, [`CodecError::Truncated`] when the file ends early, plus
    /// the frame decoder's own errors.
    pub fn read_frame(&mut self) -> Result<FrameTrace, CodecError> {
        let mut scratch = Vec::new();
        self.read_frame_into(&mut scratch)
            .map(FrameCursor::into_frame)
    }

    /// [`read_frame`](Self::read_frame) without the per-frame allocations:
    /// the encoded frame is read into `scratch` (cleared and grown as
    /// needed — pass the same buffer every call and it stops allocating
    /// once it has seen the largest frame) and decoded in place as a
    /// borrowed [`FrameCursor`].
    ///
    /// # Errors
    ///
    /// Same contract as [`read_frame`](Self::read_frame).
    pub fn read_frame_into<'b>(
        &mut self,
        scratch: &'b mut Vec<u8>,
    ) -> Result<FrameCursor<'b>, CodecError> {
        if self.read == self.frame_count {
            return Err(CodecError::Truncated);
        }
        let mut len = [0u8; 4];
        read_full(&mut self.inner, &mut len)?;
        let declared = u32::from_le_bytes(len);
        if !(29..=MAX_FRAME_BYTES).contains(&declared) {
            return Err(CodecError::BadFrameLength {
                declared,
                max: MAX_FRAME_BYTES,
            });
        }
        scratch.clear();
        scratch.resize(declared as usize, 0);
        read_full(&mut self.inner, scratch)?;
        let (cursor, rest) = frame_cursor(scratch)?;
        if !rest.is_empty() {
            return Err(CodecError::FrameLengthMismatch {
                declared,
                decoded: declared - rest.len() as u32,
            });
        }
        self.read += 1;
        Ok(cursor)
    }
}

/// Fills `buf`; a stream that ends first is [`CodecError::Truncated`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), CodecError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => CodecError::Truncated,
        _ => CodecError::Io(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(n: usize) -> FrameTrace {
        let mut t = FrameTrace::new(7, 64, 48, FilterMode::Trilinear);
        for i in 0..n {
            t.push(PixelRequest {
                tid: TextureId::from_index(i as u32 % 3),
                u: i as f32 * 0.5,
                v: -(i as f32) * 0.25,
                lod: i as f32 * 0.01,
            });
        }
        t
    }

    #[test]
    fn roundtrip_in_memory() {
        let t = sample_trace(100);
        let enc = encode_frame(&t);
        let mut buf = enc.as_ref();
        let dec = decode_frame(&mut buf).unwrap();
        assert_eq!(dec, t);
        assert!(buf.is_empty());
    }

    #[test]
    fn roundtrip_empty_frame() {
        let t = FrameTrace::new(0, 1, 1, FilterMode::Point);
        let buf = encode_frame(&t);
        assert_eq!(decode_frame(&mut &buf[..]).unwrap(), t);
    }

    /// A one-frame file with key "k": its frame's bytes start here, after
    /// the 15-byte header and the 4-byte length prefix.
    const FRAME_AT: usize = 4 + 4 + 2 + 1 + 4 + 4;

    fn one_frame_file(t: &FrameTrace) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceFileWriter::new(&mut buf, "k", 1).unwrap();
        w.write_frame(t).unwrap();
        w.finish().unwrap();
        buf
    }

    #[test]
    fn multi_frame_stream() {
        let frames: Vec<FrameTrace> = (0..3)
            .map(|i| FrameTrace {
                frame: i,
                ..sample_trace(10 * i as usize)
            })
            .collect();
        let mut file = Vec::new();
        let mut w = TraceFileWriter::new(&mut file, "k", 3).unwrap();
        for t in &frames {
            w.write_frame(t).unwrap();
        }
        w.finish().unwrap();
        let mut r = TraceFileReader::new(file.as_slice()).unwrap();
        for t in &frames {
            assert_eq!(&r.read_frame().unwrap(), t);
        }
        assert!(matches!(r.read_frame(), Err(CodecError::Truncated)));
    }

    #[test]
    fn bad_magic_detected() {
        let t = sample_trace(1);
        let mut bytes = encode_frame(&t).to_vec();
        bytes[0] ^= 0xff;
        let mut buf = bytes.as_slice();
        assert!(matches!(
            decode_frame(&mut buf),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_filter_detected() {
        let t = sample_trace(0);
        let mut bytes = encode_frame(&t).to_vec();
        bytes[16] = 9; // filter byte
        let mut buf = bytes.as_slice();
        assert!(matches!(
            decode_frame(&mut buf),
            Err(CodecError::BadFilter(9))
        ));
    }

    #[test]
    fn truncation_detected() {
        let t = sample_trace(4);
        let bytes = encode_frame(&t);
        let mut buf = &bytes[..bytes.len() - 3];
        assert!(matches!(decode_frame(&mut buf), Err(CodecError::Truncated)));
        let file = one_frame_file(&t);
        let mut r = TraceFileReader::new(&file[..file.len() - 3]).unwrap();
        assert!(matches!(r.read_frame(), Err(CodecError::Truncated)));
    }

    #[test]
    fn oversized_count_rejected_on_both_paths() {
        let t = sample_trace(2);
        let mut bytes = encode_frame(&t).to_vec();
        // The count field sits at offset 25 in the 29-byte header.
        let oversized = (MAX_FRAME_REQUESTS + 1).to_le_bytes();
        bytes[25..29].copy_from_slice(&oversized);
        let mut buf = bytes.as_slice();
        assert!(matches!(
            decode_frame(&mut buf),
            Err(CodecError::Oversized { count, max })
                if count == MAX_FRAME_REQUESTS + 1 && max == MAX_FRAME_REQUESTS
        ));
        let mut file = one_frame_file(&t);
        file[FRAME_AT + 25..FRAME_AT + 29].copy_from_slice(&oversized);
        let mut r = TraceFileReader::new(file.as_slice()).unwrap();
        assert!(matches!(r.read_frame(), Err(CodecError::Oversized { .. })));
    }

    #[test]
    fn max_request_count_itself_is_accepted_shapewise() {
        // A frame claiming exactly the cap fails with Truncated (payload
        // missing), never Oversized: the cap is exclusive of valid sizes.
        let t = sample_trace(0);
        let mut bytes = encode_frame(&t).to_vec();
        bytes[25..29].copy_from_slice(&MAX_FRAME_REQUESTS.to_le_bytes());
        let mut buf = bytes.as_slice();
        assert!(matches!(decode_frame(&mut buf), Err(CodecError::Truncated)));
    }

    #[test]
    fn error_display_strings() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::BadMagic(5).to_string().contains("magic"));
        let e = CodecError::Oversized { count: 99, max: 10 };
        assert!(e.to_string().contains("99") && e.to_string().contains("10"));
        assert!(CodecError::BadFileMagic(1).to_string().contains("magic"));
        let e = CodecError::BadVersion {
            found: 3,
            expected: 1,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('1'));
        let e = CodecError::BadFrameLength {
            declared: 7,
            max: 9,
        };
        assert!(e.to_string().contains('7'));
        let e = CodecError::FrameLengthMismatch {
            declared: 40,
            decoded: 30,
        };
        assert!(e.to_string().contains("40") && e.to_string().contains("30"));
    }

    fn sample_file(key: &str, frames: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceFileWriter::new(&mut buf, key, frames as u32).unwrap();
        for i in 0..frames {
            let mut t = sample_trace(5 * i);
            t.frame = i as u32;
            w.write_frame(&t).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn trace_file_roundtrip() {
        let file = sample_file("village-64x48-f3", 3);
        let mut r = TraceFileReader::new(file.as_slice()).unwrap();
        assert_eq!(r.key(), "village-64x48-f3");
        assert_eq!(r.frame_count(), 3);
        for i in 0..3u32 {
            let t = r.read_frame().unwrap();
            assert_eq!(t.frame, i);
            assert_eq!(t.requests.len(), 5 * i as usize);
        }
        assert_eq!(r.frames_read(), 3);
    }

    #[test]
    fn trace_file_wrong_magic_rejected() {
        let mut file = sample_file("k", 1);
        file[0] ^= 0xff;
        assert!(matches!(
            TraceFileReader::new(file.as_slice()),
            Err(CodecError::BadFileMagic(_))
        ));
    }

    #[test]
    fn trace_file_wrong_version_rejected() {
        let mut file = sample_file("k", 1);
        file[4..8].copy_from_slice(&(FILE_VERSION + 1).to_le_bytes());
        assert!(matches!(
            TraceFileReader::new(file.as_slice()),
            Err(CodecError::BadVersion { found, expected })
                if found == FILE_VERSION + 1 && expected == FILE_VERSION
        ));
    }

    #[test]
    fn trace_file_truncation_rejected_everywhere() {
        let file = sample_file("key", 2);
        // Chop at every possible length; each must fail with a typed error,
        // never a panic, and never succeed in reading both frames.
        for cut in 0..file.len() {
            let short = &file[..cut];
            match TraceFileReader::new(short) {
                Err(_) => {}
                Ok(mut r) => {
                    let outcome = (0..2).try_for_each(|_| r.read_frame().map(|_| ()));
                    assert!(outcome.is_err(), "cut at {cut} read a whole file");
                }
            }
        }
    }

    #[test]
    fn trace_file_bad_frame_length_rejected() {
        let file = sample_file("k", 1);
        // The frame length prefix sits right after the 10+3-byte header of
        // key "k" — corrupt it to an absurd value.
        let prefix_at = 4 + 4 + 2 + 1 + 4;
        let mut big = file.clone();
        big[prefix_at..prefix_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = TraceFileReader::new(big.as_slice()).unwrap();
        assert!(matches!(
            r.read_frame(),
            Err(CodecError::BadFrameLength { .. })
        ));
        let mut small = file;
        small[prefix_at..prefix_at + 4].copy_from_slice(&5u32.to_le_bytes());
        let mut r = TraceFileReader::new(small.as_slice()).unwrap();
        assert!(matches!(
            r.read_frame(),
            Err(CodecError::BadFrameLength { .. })
        ));
    }

    #[test]
    fn trace_file_length_mismatch_rejected() {
        let t = sample_trace(2);
        let mut buf = Vec::new();
        let mut w = TraceFileWriter::new(&mut buf, "k", 1).unwrap();
        w.write_frame(&t).unwrap();
        w.finish().unwrap();
        // Inflate the length prefix by 16 and append one spare request's
        // worth of zero padding: the frame decodes fine but leaves bytes.
        let prefix_at = 4 + 4 + 2 + 1 + 4;
        let declared = u32::from_le_bytes(buf[prefix_at..prefix_at + 4].try_into().unwrap());
        buf[prefix_at..prefix_at + 4].copy_from_slice(&(declared + 16).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut r = TraceFileReader::new(buf.as_slice()).unwrap();
        assert!(matches!(
            r.read_frame(),
            Err(CodecError::FrameLengthMismatch { .. })
        ));
    }

    #[test]
    fn trace_file_writer_enforces_declared_count() {
        let mut buf = Vec::new();
        let mut w = TraceFileWriter::new(&mut buf, "k", 1).unwrap();
        w.write_frame(&sample_trace(0)).unwrap();
        assert!(w.write_frame(&sample_trace(0)).is_err());

        let mut buf = Vec::new();
        let w = TraceFileWriter::new(&mut buf, "k", 2).unwrap();
        assert!(w.finish().is_err(), "short file must not finish cleanly");
    }

    #[test]
    fn frame_cursor_matches_decode_frame() {
        let t = sample_trace(37);
        let enc = encode_frame(&t);
        let (cursor, rest) = frame_cursor(&enc).unwrap();
        assert!(rest.is_empty());
        assert_eq!(cursor.request_count() as usize, t.requests.len());
        let streamed: Vec<PixelRequest> = cursor.requests().collect();
        assert_eq!(streamed, t.requests);
        assert_eq!(cursor.into_frame(), t);
        // And the cursor rejects exactly what decode_frame rejects.
        assert!(matches!(
            frame_cursor(&enc[..enc.len() - 1]),
            Err(CodecError::Truncated)
        ));
        let mut bad = enc.to_vec();
        bad[0] ^= 0xff;
        assert!(matches!(frame_cursor(&bad), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn read_frame_into_reuses_one_scratch_buffer() {
        let file = sample_file("scratch", 4);
        let mut by_value = TraceFileReader::new(file.as_slice()).unwrap();
        let mut by_cursor = TraceFileReader::new(file.as_slice()).unwrap();
        let mut scratch = Vec::new();
        let mut peak_capacity = 0;
        for _ in 0..4 {
            let owned = by_value.read_frame().unwrap();
            let cursor = by_cursor.read_frame_into(&mut scratch).unwrap();
            assert_eq!(cursor.into_frame(), owned);
            peak_capacity = peak_capacity.max(scratch.capacity());
        }
        assert_eq!(
            scratch.capacity(),
            peak_capacity,
            "one buffer serves every frame"
        );
        assert!(by_cursor.read_frame_into(&mut scratch).is_err());
    }

    #[test]
    fn trace_file_reading_past_end_is_an_error_not_a_panic() {
        let file = sample_file("k", 1);
        let mut r = TraceFileReader::new(file.as_slice()).unwrap();
        r.read_frame().unwrap();
        assert!(r.read_frame().is_err());
    }
}
