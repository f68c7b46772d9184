//! Versioned, checksummed wire format for shuffle blocks.
//!
//! Every serialized block — a shuffle map-output bucket travelling to a
//! worker process, or a map output parked in the external shuffle
//! directory — is wrapped in one *frame*:
//!
//! ```text
//! +------+---------+-------------+------------+----------------+
//! | SPKL | version | len: u32 LE | crc: u32 LE| payload (len B)|
//! +------+---------+-------------+------------+----------------+
//! ```
//!
//! The payload is the [`crate::SpillCodec`] encoding of the value. The CRC
//! (CRC-32/IEEE over the payload) catches bit rot and garbled transfers; the
//! explicit length catches truncation. Decoding never panics: every way a
//! frame can be damaged surfaces as a [`WireError`], which the shuffle layer
//! converts into a retry/`FetchFailed`. A frame's exact length,
//! [`encoded_len`], is also the one byte rule: the shuffle layer accounts
//! it and the [`crate::BlockManager`] budgets cached blocks by it, though
//! cached blocks are never serialized.
//!
//! A shuffled payload is checksummed three times on its way — when the map
//! task frames it, when the worker ingests it, when the reduce task decodes
//! it — so both per-byte loops run at memory speed. [`crc32`] folds 64
//! bytes per step with carry-less multiplies on x86_64 CPUs that have
//! PCLMULQDQ (checked at run time) and uses slicing-by-16 tables for short
//! inputs, tails and other CPUs; and a `Vec` of fixed-width primitives —
//! every tile's `f64` payload — is encoded and decoded in one bulk pass
//! ([`crate::SpillCodec::encode_slice`]). Neither changes a byte: every
//! path writes and accepts the same frames.
//!
//! The format is deliberately minimal — no compression, no schema — because
//! the frames are hop-by-hop (driver ↔ worker ↔ shuffle dir), not a durable
//! interchange format. `VERSION` is bumped on any layout change so stale
//! worker binaries fail loudly with [`WireError::BadVersion`] instead of
//! misdecoding.

use crate::storage::SpillCodec;
use std::io::Read;
use std::ops::Range;

/// Frame magic: identifies a sparkline wire frame.
pub const MAGIC: [u8; 4] = *b"SPKL";

/// Wire format version. Bump on any layout change.
pub const VERSION: u8 = 1;

/// Bytes of framing overhead per frame (magic + version + length + CRC).
pub const HEADER_LEN: usize = 4 + 1 + 4 + 4;

/// Hard cap on a single frame's payload, shared by encoder and decoder. A
/// length field beyond this is treated as corruption rather than an
/// allocation request — a garbled length byte must not ask the decoder to
/// reserve gigabytes.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// Everything that can go wrong decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The buffer ended before the header or payload was complete.
    Truncated,
    /// The payload length field exceeds [`MAX_PAYLOAD`].
    Oversized(u64),
    /// The payload checksum did not match the header CRC.
    CrcMismatch { expected: u32, actual: u32 },
    /// The CRC matched but the payload did not decode as the requested type
    /// (wrong type parameter or a codec bug — the frame itself is intact).
    Decode,
    /// An underlying I/O error while reading or writing a stream.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized(n) => write!(f, "frame payload length {n} exceeds cap"),
            WireError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "crc mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
            WireError::Decode => write!(f, "payload failed to decode"),
            WireError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3): carry-less-multiply folding where the CPU has it,
// slicing-by-16 everywhere else and for every tail. Tables and constants are
// built at compile time — no dependencies.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte table; `CRC_TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, which lets one step fold
/// 16 input bytes with 16 independent lookups instead of a 16-long dependent
/// chain.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Shortest input the carry-less-multiply path takes: one 64-byte block
/// for its four folding lanes. Anything shorter (every message head) is
/// cheaper through the tables.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 64;

/// CRC-32/IEEE of `bytes` (the classic zlib/`cksum -o 3` polynomial).
///
/// On x86_64 CPUs with PCLMULQDQ and SSE4.1 an input of at least 64 bytes
/// is folded 64 bytes at a time with carry-less multiplies and its last
/// `len % 16` bytes go through the tables; every other input is sliced by
/// 16. Both paths compute the same function.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (body, tail) = bytes.split_at(bytes.len() / 16 * 16);
        // SAFETY: the two `is_x86_feature_detected!` checks above found
        // PCLMULQDQ and SSE4.1 on this CPU, and `body` is a whole number of
        // 16-byte blocks, at least four of them.
        let state = unsafe { crc32_clmul(!0, body) };
        return !crc32_sliced_update(state, tail);
    }
    crc32_sliced(bytes)
}

/// CRC-32/IEEE of `bytes` through the slicing-by-16 tables alone.
fn crc32_sliced(bytes: &[u8]) -> u32 {
    !crc32_sliced_update(!0, bytes)
}

/// Advance the raw (uninverted) CRC register `c` over `bytes`, 16 bytes per
/// table step, then byte by byte over the tail.
fn crc32_sliced_update(mut c: u32, bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<16>();
    for chunk in chunks {
        let state = c.to_le_bytes();
        let mut next = 0;
        for (i, &b) in chunk.iter().enumerate() {
            let b = if i < 4 { b ^ state[i] } else { b };
            next ^= CRC_TABLES[15 - i][b as usize];
        }
        c = next;
    }
    for &b in tail {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// Advance the raw CRC register `state` over `body` by carry-less
/// multiplication: Intel's "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction" for the bit-reflected IEEE polynomial. Four
/// 128-bit lanes fold 64 bytes per step, collapse into one lane, fold any
/// remaining 16-byte blocks, and a Barrett reduction turns the 128-bit
/// remainder into the 32-bit register.
///
/// # Safety
/// The CPU must support PCLMULQDQ and SSE4.1, and `body.len()` must be a
/// multiple of 16 and at least 64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn crc32_clmul(state: u32, body: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    // The method's constants for the reflected IEEE polynomial: powers
    // x^n mod P(x), bit-reflected. K1/K2 fold a lane 512 bits forward,
    // K3/K4 128 bits, K5 the last 64; P is the 33-bit reflected polynomial
    // and MU its Barrett quotient floor(x^64 / P(x)), reflected.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    // `acc_lo * k_lo ^ acc_hi * k_hi ^ next`: lane `acc` moved forward by
    // the distance `k` encodes, with `next` folded in.
    #[inline(always)]
    unsafe fn fold(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }
    // An unaligned load of 16 bytes the reference proves readable.
    #[inline(always)]
    unsafe fn load(block: &[u8; 16]) -> __m128i {
        _mm_loadu_si128(block.as_ptr().cast())
    }

    let (blocks, rest) = body.as_chunks::<64>();
    let (singles, _) = rest.as_chunks::<16>();
    let (first, blocks) = blocks.split_first().expect("body holds 64 bytes");
    let lanes = |b: &[u8; 64]| {
        let (quads, _) = b.as_chunks::<16>();
        [
            load(&quads[0]),
            load(&quads[1]),
            load(&quads[2]),
            load(&quads[3]),
        ]
    };

    let mut x = lanes(first);
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    for block in blocks {
        let y = lanes(block);
        for (acc, next) in x.iter_mut().zip(y) {
            *acc = fold(*acc, k1k2, next);
        }
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold(x[0], k3k4, x[1]);
    acc = fold(acc, k3k4, x[2]);
    acc = fold(acc, k3k4, x[3]);
    for single in singles {
        acc = fold(acc, k3k4, load(single));
    }

    // 128 -> 64 bits, then 64 -> 32 bits plus the remainder's high half.
    let low32 = _mm_setr_epi32(-1, 0, -1, 0);
    acc = _mm_xor_si128(
        _mm_srli_si128::<8>(acc),
        _mm_clmulepi64_si128::<0x10>(acc, k3k4),
    );
    acc = _mm_xor_si128(
        _mm_srli_si128::<4>(acc),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
    );

    // Barrett reduction: q = floor(acc_lo32 * MU / x^32), crc = acc ^ q * P.
    let poly = _mm_set_epi64x(MU, P);
    let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly);
    let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly);
    _mm_extract_epi32::<1>(_mm_xor_si128(acc, qp)) as u32
}

// ---------------------------------------------------------------------------
// Framing over raw payload bytes.
// ---------------------------------------------------------------------------

/// Wrap already-encoded payload bytes in a frame.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&[0; HEADER_LEN]);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// Fill in the header reserved at the front of `frame` for the payload that
/// follows it — the one place the header layout is written.
fn seal_frame(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(HEADER_LEN);
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload over cap");
    let (len, crc) = (payload.len() as u32, crc32(payload));
    header[..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[5..9].copy_from_slice(&len.to_le_bytes());
    header[9..13].copy_from_slice(&crc.to_le_bytes());
}

/// Check a frame header's magic, version and announced payload length
/// against `limit`; return that length and the CRC the header carries.
fn read_header(header: &[u8; HEADER_LEN], limit: usize) -> Result<(usize, u32), WireError> {
    if header[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if header[4] != VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    if len > limit.min(MAX_PAYLOAD) {
        return Err(WireError::Oversized(len as u64));
    }
    let crc = u32::from_le_bytes([header[9], header[10], header[11], header[12]]);
    Ok((len, crc))
}

/// [`read_header`] of the frame starting `buf`, which may be shorter than a
/// header.
fn header_at(buf: &[u8]) -> Result<(usize, u32), WireError> {
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        // Distinguish "not even a magic" from "header cut short" only as far
        // as the bytes allow: a wrong magic in the available prefix is
        // BadMagic, otherwise it is a truncation.
        let got = &buf[..buf.len().min(4)];
        if got != &MAGIC[..got.len()] {
            return Err(WireError::BadMagic);
        }
        return Err(WireError::Truncated);
    };
    read_header(header, MAX_PAYLOAD)
}

/// Total length (header + payload) of the frame starting `buf`, from its
/// header alone: the payload is neither required to be there nor checked.
/// Walking a run of back-to-back frames by this length skips each one
/// without reading it.
pub(crate) fn frame_len(buf: &[u8]) -> Result<usize, WireError> {
    header_at(buf).map(|(len, _)| HEADER_LEN + len)
}

/// Validate one frame at the start of `buf`; return the payload slice and
/// the total frame length (header + payload).
pub fn unframe_bytes(buf: &[u8]) -> Result<(&[u8], usize), WireError> {
    let (len, expected) = header_at(buf)?;
    let payload = buf
        .get(HEADER_LEN..HEADER_LEN + len)
        .ok_or(WireError::Truncated)?;
    let actual = crc32(payload);
    if actual != expected {
        return Err(WireError::CrcMismatch { expected, actual });
    }
    Ok((payload, HEADER_LEN + len))
}

// ---------------------------------------------------------------------------
// Typed frames over SpillCodec.
// ---------------------------------------------------------------------------

/// Encode a value as one self-contained frame: one allocation of the exact
/// frame length, the value encoded in place behind a reserved header.
pub fn encode_frame<T: SpillCodec>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + value.encoded_len());
    encode_frame_into(value, &mut out);
    out
}

/// Append the frame [`encode_frame`] builds for `value` to `out`, encoded
/// in place behind a header reserved at its end, and return where in `out`
/// it landed. Frames appended back to back this way are a run that
/// [`frame_len`] walks.
pub(crate) fn encode_frame_into<T: SpillCodec>(value: &T, out: &mut Vec<u8>) -> Range<usize> {
    let start = out.len();
    out.reserve(HEADER_LEN + value.encoded_len());
    out.extend_from_slice(&[0; HEADER_LEN]);
    value.encode(out);
    debug_assert_eq!(out.len() - start, HEADER_LEN + value.encoded_len());
    seal_frame(&mut out[start..]);
    start..out.len()
}

/// Validate a buffer that must be exactly one frame — trailing bytes are
/// corruption (a concatenated or padded file) — and return its payload.
pub fn unframe_exact(buf: &[u8]) -> Result<&[u8], WireError> {
    let (payload, consumed) = unframe_bytes(buf)?;
    if consumed != buf.len() {
        return Err(WireError::Decode);
    }
    Ok(payload)
}

/// Decode one frame holding a `T`; the whole buffer must be that frame.
pub fn decode_frame<T: SpillCodec>(buf: &[u8]) -> Result<T, WireError> {
    let payload = unframe_exact(buf)?;
    let mut pos = 0;
    let value = T::decode(payload, &mut pos).ok_or(WireError::Decode)?;
    if pos != payload.len() {
        return Err(WireError::Decode);
    }
    Ok(value)
}

/// Total wire length (header + payload) of the frame [`encode_frame`] would
/// build for `value`, without building it — the one byte figure shuffle
/// metrics, trace events and block sizes report.
pub fn encoded_len<T: SpillCodec>(value: &T) -> u64 {
    (HEADER_LEN + value.encoded_len()) as u64
}

// ---------------------------------------------------------------------------
// Stream helpers (sockets, files).
// ---------------------------------------------------------------------------

/// Read one frame from a stream, returning the verified payload bytes.
///
/// `limit` caps the payload length accepted from this peer (use
/// [`MAX_PAYLOAD`] for no extra restriction); a header advertising more is
/// an [`WireError::Oversized`] without reading the body.
pub fn read_frame_bytes<R: Read>(r: &mut R, limit: usize) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or_truncated(r, &mut header)?;
    let (len, expected) = read_header(&header, limit)?;
    let mut payload = vec![0u8; len];
    read_exact_or_truncated(r, &mut payload)?;
    let actual = crc32(&payload);
    if actual != expected {
        return Err(WireError::CrcMismatch { expected, actual });
    }
    Ok(payload)
}

/// `read_exact` that maps a clean EOF to [`WireError::Truncated`] (a peer
/// hanging up mid-frame is corruption, not an I/O failure).
pub(crate) fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(WireError::Truncated),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the polynomial division itself, one bit at a time, with
    /// no table or constant in common with [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !bitwise_update(!0, bytes)
    }

    /// [`crc32_bitwise`]'s raw register advanced over `bytes`.
    fn bitwise_update(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = (c >> 1) ^ (0xedb8_8320 & (c & 1).wrapping_neg());
            }
        }
        c
    }

    /// `n` bytes of a fixed xorshift stream: long inputs that are cheap to
    /// name by their seed.
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// The length of a 128 x 128 tile's payload: 8 + 8 + 8 + 128 * 128 * 8.
    const TILE_PAYLOAD: usize = 131_096;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        for crc in [crc32, crc32_sliced, crc32_bitwise] {
            assert_eq!(crc(b"123456789"), 0xcbf4_3926);
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"a"), 0xe8b7_be43);
            // Longer than one 16-byte step, with a tail.
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414f_a339
            );
        }
    }

    /// Both paths at every length from 0 to 4 104: whole 64-byte blocks,
    /// leftover 16-byte blocks and tails of every length, on either side of
    /// the 64-byte threshold. The sliced path is called directly, so a CPU
    /// that folds still tests it.
    #[test]
    fn crc32_paths_match_bitwise_at_every_length() {
        let data = noise(4104, 1);
        let mut raw = !0;
        for len in 0..=data.len() {
            if len > 0 {
                raw = bitwise_update(raw, &data[len - 1..len]);
            }
            assert_eq!(crc32(&data[..len]), !raw, "dispatched, len {len}");
            assert_eq!(crc32_sliced(&data[..len]), !raw, "sliced, len {len}");
        }
    }

    /// The thresholds and a tile-sized payload at every start offset
    /// within a 16-byte block.
    #[test]
    fn crc32_paths_match_bitwise_at_every_offset() {
        let data = noise(TILE_PAYLOAD + 16, 2);
        for offset in 0..16 {
            for len in [63, 64, 65, 127, 128, TILE_PAYLOAD] {
                let bytes = &data[offset..offset + len];
                let want = crc32_bitwise(bytes);
                assert_eq!(crc32(bytes), want, "dispatched, offset {offset} len {len}");
                assert_eq!(
                    crc32_sliced(bytes),
                    want,
                    "sliced, offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn frame_round_trips_typed_values() {
        let v: Vec<(u64, String)> = vec![(1, "one".into()), (2, "two".into())];
        let frame = encode_frame(&v);
        assert_eq!(frame.len() as u64, encoded_len(&v));
        let back: Vec<(u64, String)> = decode_frame(&frame).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut frame = encode_frame(&42u64);
        frame[0] = b'X';
        assert_eq!(decode_frame::<u64>(&frame), Err(WireError::BadMagic));
        let mut frame = encode_frame(&42u64);
        frame[4] = VERSION + 1;
        assert_eq!(
            decode_frame::<u64>(&frame),
            Err(WireError::BadVersion(VERSION + 1))
        );
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let frame = encode_frame(&vec![7u64, 8, 9]);
        for cut in 0..frame.len() {
            let err = decode_frame::<Vec<u64>>(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::BadMagic),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut frame = encode_frame(&1u64);
        frame.push(0);
        assert_eq!(decode_frame::<u64>(&frame), Err(WireError::Decode));
    }

    #[test]
    fn oversized_length_field_does_not_allocate() {
        let mut frame = encode_frame(&1u64);
        frame[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame::<u64>(&frame),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn wrong_type_is_a_decode_error_not_a_panic() {
        let frame = encode_frame(&"text".to_string());
        // Valid frame, wrong T: CRC passes, decode fails.
        assert_eq!(decode_frame::<Vec<f64>>(&frame), Err(WireError::Decode));
    }

    #[test]
    fn stream_round_trip_and_limit() {
        let payload = b"some shuffle bucket".to_vec();
        let buf = frame_bytes(&payload);
        let back = read_frame_bytes(&mut buf.as_slice(), MAX_PAYLOAD).unwrap();
        assert_eq!(back, payload);
        let err = read_frame_bytes(&mut buf.as_slice(), 4).unwrap_err();
        assert!(matches!(err, WireError::Oversized(_)));
    }

    #[test]
    fn stream_eof_mid_frame_is_truncated() {
        let buf = frame_bytes(b"0123456789");
        for cut in 0..buf.len() {
            let err = read_frame_bytes(&mut &buf[..cut], MAX_PAYLOAD).unwrap_err();
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
    }

    proptest! {
        /// Both CRC paths are the bitwise one at every length (whole
        /// steps, tails, empty) and every start alignment.
        #[test]
        fn prop_crc32_matches_bitwise_oracle(
            data in proptest::collection::vec(0u8..=255, 0..4096 + 8),
        ) {
            for offset in 0..8.min(data.len() + 1) {
                let want = crc32_bitwise(&data[offset..]);
                prop_assert_eq!(crc32(&data[offset..]), want);
                prop_assert_eq!(crc32_sliced(&data[offset..]), want);
            }
        }

        /// `read_frame_bytes` on arbitrary bytes: an error or a payload,
        /// never a panic, and never an allocation past the caller's limit.
        #[test]
        fn prop_read_frame_bytes_never_panics(
            data in proptest::collection::vec(0u8..=255, 0..256),
            valid_prefix in 0usize..3,
            limit in 0usize..64,
        ) {
            // Salt in streams that get past the magic and version checks.
            let mut stream = match valid_prefix {
                0 => Vec::new(),
                1 => MAGIC.to_vec(),
                _ => [&MAGIC[..], &[VERSION]].concat(),
            };
            stream.extend_from_slice(&data);
            if let Ok(payload) = read_frame_bytes(&mut stream.as_slice(), limit) {
                prop_assert!(payload.len() <= limit);
            }
            let _ = unframe_bytes(&stream);
        }

        /// Round trip for arbitrary payloads, through both the slice and the
        /// stream paths.
        #[test]
        fn prop_round_trip(data in proptest::collection::vec(0u8..=255, 0..512)) {
            let frame = frame_bytes(&data);
            let (payload, consumed) = unframe_bytes(&frame).unwrap();
            prop_assert_eq!(payload, &data[..]);
            prop_assert_eq!(consumed, frame.len());
            let read = read_frame_bytes(&mut frame.as_slice(), MAX_PAYLOAD).unwrap();
            prop_assert_eq!(read, data);
        }

        /// Adversarial single-bit flips anywhere in the frame must never
        /// round-trip silently: every flip is either detected as an error or
        /// (impossible for CRC-32 on a single bit) changes nothing. Half the
        /// payloads are tile-sized, so most of their flips land in the
        /// blocks the CRC folds rather than its tail.
        #[test]
        fn prop_bit_flips_are_detected(
            len in prop_oneof![0usize..256, Just(TILE_PAYLOAD)],
            seed in 0u64..u64::MAX,
            byte_pick in 0usize..1 << 20,
            bit in 0usize..8,
        ) {
            let data = noise(len, seed);
            let clean = frame_bytes(&data);
            let mut frame = clean.clone();
            let idx = byte_pick % frame.len();
            frame[idx] ^= 1 << bit;
            match unframe_bytes(&frame) {
                Err(_) => {} // detected — good
                Ok((payload, consumed)) => {
                    // A flip in the length field could make the frame appear
                    // shorter *and* still CRC-match only if the CRC of the
                    // prefix collides — assert it did not go unnoticed.
                    prop_assert!(
                        payload != &data[..] || consumed != frame.len() || frame[idx] == clean[idx],
                        "bit flip at byte {idx} bit {bit} went undetected"
                    );
                }
            }
        }

        /// `encode_frame_into` after any prefix leaves the prefix alone and
        /// appends exactly `encode_frame`'s bytes, where it says; a run of
        /// such frames is walked by `frame_len` and each decodes back.
        #[test]
        fn prop_encode_frame_into_appends_encode_frames_bytes(
            prefix in proptest::collection::vec(0u8..=255, 0..64),
            buckets in proptest::collection::vec(
                proptest::collection::vec((0u64..1 << 40, -1e9f64..1e9), 0..24),
                1..6,
            ),
        ) {
            let mut out = prefix.clone();
            let mut at = prefix.len();
            for bucket in &buckets {
                let frame = encode_frame_into(bucket, &mut out);
                prop_assert_eq!(frame.clone(), at..at + encode_frame(bucket).len());
                prop_assert_eq!(&out[frame.clone()], &encode_frame(bucket)[..]);
                at = frame.end;
            }
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            let mut at = prefix.len();
            for bucket in &buckets {
                let len = frame_len(&out[at..]).unwrap();
                let back: Vec<(u64, f64)> = decode_frame(&out[at..at + len]).unwrap();
                prop_assert_eq!(&back, bucket);
                at += len;
            }
            prop_assert_eq!(at, out.len());
        }

        /// Typed round trip over a realistic shuffle bucket type, including
        /// non-finite floats (compared by bit pattern).
        #[test]
        fn prop_typed_bucket_round_trip(
            pairs in proptest::collection::vec(
                (i64::MIN..i64::MAX, -1e300f64..1e300, 0usize..16),
                0..64,
            )
        ) {
            let pairs: Vec<(i64, f64)> = pairs
                .into_iter()
                .map(|(k, v, special)| {
                    // Salt in the values a range strategy can't produce.
                    let v = match special {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => -0.0,
                        _ => v,
                    };
                    (k, v)
                })
                .collect();
            let frame = encode_frame(&pairs);
            prop_assert_eq!(frame.len() as u64, encoded_len(&pairs));
            let back: Vec<(i64, f64)> = decode_frame(&frame).unwrap();
            let same = pairs.len() == back.len()
                && pairs.iter().zip(&back).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
            prop_assert!(same);
        }
    }
}
