//! Versioned, checksummed wire format for shuffle blocks and spill files.
//!
//! Every serialized block — a shuffle map-output bucket travelling to a
//! worker process, a spill file written by the [`crate::BlockManager`], or a
//! map output parked in the external shuffle directory — is wrapped in one
//! *frame*:
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
//! converts into a retry/`FetchFailed` and the block manager converts into a
//! lineage recompute.
//!
//! The format is deliberately minimal — no compression, no schema — because
//! the frames are hop-by-hop (driver ↔ worker ↔ shuffle dir), not a durable
//! interchange format. `VERSION` is bumped on any layout change so stale
//! worker binaries fail loudly with [`WireError::BadVersion`] instead of
//! misdecoding.

use crate::storage::SpillCodec;
use std::io::Read;

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
// CRC-32 (IEEE 802.3), slicing-by-16, tables built at compile time — no
// dependencies.
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

/// CRC-32/IEEE of `bytes` (the classic zlib/`cksum -o 3` polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
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
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// Framing over raw payload bytes.
// ---------------------------------------------------------------------------

/// Wrap already-encoded payload bytes in a frame.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&[0; HEADER_LEN]);
    out.extend_from_slice(payload);
    seal_frame(out)
}

/// Fill in the header reserved at the front of `out` for the payload that
/// follows it — the one place the header layout is written.
fn seal_frame(mut out: Vec<u8>) -> Vec<u8> {
    let payload = &out[HEADER_LEN..];
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload over cap");
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[..4].copy_from_slice(&MAGIC);
    out[4] = VERSION;
    out[5..9].copy_from_slice(&len.to_le_bytes());
    out[9..13].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Validate one frame at the start of `buf`; return the payload slice and
/// the total frame length (header + payload).
pub fn unframe_bytes(buf: &[u8]) -> Result<(&[u8], usize), WireError> {
    if buf.len() < HEADER_LEN {
        // Distinguish "not even a magic" from "header cut short" only as far
        // as the bytes allow: a wrong magic in the available prefix is
        // BadMagic, otherwise it is a truncation.
        let got = &buf[..buf.len().min(4)];
        if got != &MAGIC[..got.len()] {
            return Err(WireError::BadMagic);
        }
        return Err(WireError::Truncated);
    }
    if buf[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if buf[4] != VERSION {
        return Err(WireError::BadVersion(buf[4]));
    }
    let len = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len as u64));
    }
    let expected = u32::from_le_bytes([buf[9], buf[10], buf[11], buf[12]]);
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
    out.extend_from_slice(&[0; HEADER_LEN]);
    value.encode(&mut out);
    debug_assert_eq!(out.len(), HEADER_LEN + value.encoded_len());
    seal_frame(out)
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
    let expected = u32::from_le_bytes([header[9], header[10], header[11], header[12]]);
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
    /// no table in common with [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = (c >> 1) ^ (0xedb8_8320 & (c & 1).wrapping_neg());
            }
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        for crc in [crc32, crc32_bitwise] {
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
        /// The sliced CRC is the bitwise one at every length (whole steps,
        /// tails, empty) and every start alignment.
        #[test]
        fn prop_crc32_matches_bitwise_oracle(
            data in proptest::collection::vec(0u8..=255, 0..4096 + 8),
        ) {
            for offset in 0..8.min(data.len() + 1) {
                prop_assert_eq!(crc32(&data[offset..]), crc32_bitwise(&data[offset..]));
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
        /// (impossible for CRC-32 on a single bit) changes nothing.
        #[test]
        fn prop_bit_flips_are_detected(
            data in proptest::collection::vec(0u8..=255, 0..256),
            byte_pick in 0usize..1 << 16,
            bit in 0usize..8,
        ) {
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
