//! LEB128 varints and zig-zag signed mapping.

use crate::WireError;

/// Appends `v` as an LEB128 varint (7 bits per byte, MSB = continuation).
#[inline]
pub fn write_u128(out: &mut Vec<u8>, mut v: u128) {
    // Every integer but a `u128` fits 64 bits, where the shifts are one
    // instruction each.
    if let Ok(mut v) = u64::try_from(v) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
        return;
    }
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Number of bytes the LEB128 encoding of `v` occupies — what
/// `write_u128` would append. Not exported: the counting sink in `ser`
/// is its only caller, so no other crate can mirror the format.
#[inline]
pub fn size_u128(v: u128) -> usize {
    // One byte per started group of 7 bits below the top set bit
    // (`| 1`: zero still takes a byte). Every integer but a `u128` fits
    // 64 bits, where the count takes one 64-bit bit scan.
    match u64::try_from(v) {
        Ok(v) => (63 - (v | 1).leading_zeros() as usize) / 7 + 1,
        Err(_) => (127 - (v | 1).leading_zeros() as usize) / 7 + 1,
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
/// Only the spelling [`write_u128`] produces is accepted: a last byte of
/// zero after the first (an overlong spelling) and bits past the 128th
/// are refused, so every value has one encoding.
#[inline]
pub fn read_u128(buf: &[u8], pos: &mut usize) -> Result<u128, WireError> {
    let mut v: u128 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| WireError::decode("varint: unexpected end of input"))?;
        *pos += 1;
        if shift >= 128 || (shift == 126 && byte > 3) {
            return Err(WireError::decode("varint: overflow"));
        }
        v |= ((byte & 0x7F) as u128) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(WireError::decode("varint: overlong (not canonical)"));
            }
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zig-zag maps a signed integer onto an unsigned one so that small
/// magnitudes (of either sign) encode in few bytes.
#[inline]
pub fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u128) {
        let mut buf = Vec::new();
        write_u128(&mut buf, v);
        assert_eq!(buf.len(), size_u128(v));
        let mut pos = 0;
        assert_eq!(read_u128(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn overlong_and_overflowing_varints_are_refused() {
        for bad in [&[0x80, 0x00][..], &[0xff, 0x00], &[0x81, 0x80, 0x00]] {
            let mut pos = 0;
            assert!(read_u128(bad, &mut pos).is_err(), "{bad:02x?}");
        }
        let mut top = vec![0xff; 18];
        top.push(0x03);
        let mut pos = 0;
        assert_eq!(read_u128(&top, &mut pos).unwrap(), u128::MAX);
        *top.last_mut().unwrap() = 0x04;
        let mut pos = 0;
        assert!(read_u128(&top, &mut pos).is_err());
    }

    #[test]
    fn varint_roundtrips() {
        for v in [0u128, 1, 127, 128, 300, u64::MAX as u128, u128::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn varint_sizes() {
        assert_eq!(size_u128(0), 1);
        assert_eq!(size_u128(127), 1);
        assert_eq!(size_u128(128), 2);
        assert_eq!(size_u128(16_383), 2);
        assert_eq!(size_u128(16_384), 3);
    }

    #[test]
    fn truncated_varint_errors() {
        let mut pos = 0;
        assert!(read_u128(&[0x80], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_u128(&[], &mut pos).is_err());
    }

    #[test]
    fn oversized_varint_errors() {
        // 19 continuation bytes exceed 128 bits of payload.
        let buf = vec![0xFF; 19];
        let mut pos = 0;
        assert!(read_u128(&buf, &mut pos).is_err());
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [
            -1000i128,
            -1,
            0,
            1,
            7,
            i64::MAX as i128,
            i128::MIN,
            i128::MAX,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
