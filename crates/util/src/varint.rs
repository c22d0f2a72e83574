//! LEB128 variable-length integer encoding.
//!
//! The binary trace codec (`rtms_trace::codec`) packs the small integers
//! that dominate an event record — PIDs, callback IDs, dictionary indices,
//! nanosecond timestamps — as unsigned LEB128 varints: seven value bits per
//! byte, the high bit flagging continuation, least-significant group first.
//! Signed values (scheduling priorities) go through the ZigZag mapping
//! first so that small negative numbers stay short.
//!
//! Decoding is written for hostile input: a truncated or over-long
//! encoding returns `None` instead of panicking or wrapping, and a `u64`
//! varint is rejected after its maximal ten bytes — the "oversized varint"
//! class of corruption the trace-format robustness suite pins down.

/// Maximum encoded length of a `u64` varint: ⌈64 / 7⌉ bytes.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` to `buf` as an unsigned LEB128 varint (1–10 bytes).
///
/// The encoding is canonical: no redundant trailing zero groups are
/// emitted, so equal values always produce equal bytes — the property the
/// codec's byte-identical round-trip suite relies on.
#[inline]
pub fn write_u64(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push((value as u8) | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Appends a `u32` as an unsigned varint (shorthand for
/// [`write_u64`]).
#[inline]
pub fn write_u32(buf: &mut Vec<u8>, value: u32) {
    write_u64(buf, u64::from(value));
}

/// Appends a signed value as a ZigZag-mapped unsigned varint, so values
/// near zero of either sign encode in one byte.
#[inline]
pub fn write_i64(buf: &mut Vec<u8>, value: i64) {
    write_u64(buf, zigzag(value));
}

/// Decodes an unsigned LEB128 varint from the start of `bytes`.
///
/// Returns the value and the number of bytes consumed, or `None` if the
/// input is truncated (every byte has the continuation bit set), longer
/// than [`MAX_VARINT_LEN`] bytes, or overflows a `u64` in its final group
/// — never panics, never reads past the encoding.
#[inline]
pub fn read_u64(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    for (i, &b) in bytes.iter().take(MAX_VARINT_LEN).enumerate() {
        let group = u64::from(b & 0x7f);
        // The tenth byte may only carry the single remaining value bit.
        if i == MAX_VARINT_LEN - 1 && b > 0x01 {
            return None;
        }
        value |= group << (7 * i);
        if b & 0x80 == 0 {
            return Some((value, i + 1));
        }
    }
    None
}

/// The ZigZag mapping: 0, -1, 1, -2, … → 0, 1, 2, 3, …
#[inline]
pub const fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// The inverse ZigZag mapping.
#[inline]
pub const fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Encoded length of `value` as an unsigned varint, without encoding it.
#[inline]
pub const fn len_u64(value: u64) -> usize {
    // significant-bit count rounded up to whole 7-bit groups, branch-free.
    ((64 - (value | 1).leading_zeros()) as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        assert_eq!(buf.len(), len_u64(v), "len_u64 must agree for {v}");
        let (back, n) = read_u64(&buf).expect("decodes");
        assert_eq!((back, n), (v, buf.len()), "round trip for {v}");
    }

    #[test]
    fn round_trips_across_group_boundaries() {
        for v in [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            round_trip(v);
        }
    }

    #[test]
    fn one_byte_values() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0x7f);
        assert_eq!(buf, [0x7f]);
    }

    #[test]
    fn truncated_input_is_rejected() {
        assert_eq!(read_u64(&[]), None);
        assert_eq!(read_u64(&[0x80]), None);
        assert_eq!(read_u64(&[0xff, 0xff]), None);
    }

    #[test]
    fn oversized_varint_is_rejected() {
        // Eleven continuation bytes: longer than any valid u64 encoding.
        assert_eq!(read_u64(&[0x80; 11]), None);
        // Exactly ten bytes, but the last group carries more than the one
        // bit a u64 has left: an overflowing encoding.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        assert_eq!(read_u64(&overflow), None);
        // The maximal legal encoding still decodes.
        let mut max = [0xffu8; 10];
        max[9] = 0x01;
        assert_eq!(read_u64(&max), Some((u64::MAX, 10)));
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        buf.extend_from_slice(&[0xde, 0xad]);
        let (v, n) = read_u64(&buf).expect("decodes");
        assert_eq!((v, n), (300, 2));
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            assert_eq!(read_u64(&buf).map(|(z, n)| (unzigzag(z), n)), Some((v, buf.len())));
        }
    }
}
