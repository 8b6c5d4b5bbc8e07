//! Compact binary wire format for FlexCast messages.
//!
//! The paper measures the amount of information each protocol puts on the
//! wire (Figure 8: messages per second, average message size, KB/s per
//! node). Reproducing that experiment needs a deterministic, compact
//! serialization of protocol messages. None of the sanctioned dependencies
//! provides one (serde is a framework, not a format), so this crate
//! implements a small binary format in the spirit of bincode's varint mode:
//!
//! * unsigned integers are LEB128 varints, in their shortest spelling
//!   only (the decoder refuses an overlong one); signed integers are
//!   zig-zag encoded varints,
//! * `f32`/`f64` are little-endian fixed width,
//! * sequences/maps/strings are length-prefixed,
//! * options are a 1-byte tag, enum variants a varint index,
//! * structs and tuples are field concatenations (the schema is known by
//!   both sides, as with all FlexCast peers).
//!
//! Two types in the workspace spell their own encoding instead of
//! deriving it. A destination set (`flexcast_types::DestSet`, 2 words in
//! memory) travels as one header varint and then its *significant*
//! words: header `n ≤ 2` is a word count, followed by that many varints,
//! the last of them non-zero; header `9 + r` is the one-member set `{r}`
//! and nothing follows. So the empty set is one byte, a one-member set
//! one byte up to rank 118 and two above, and a larger set over the
//! paper's 12 groups two or three. The decoder refuses headers 3..=8
//! (word counts only a wider set needs), a header above 136, a zero
//! last word and a word form with exactly one member, which keeps the
//! encoding canonical. A history delta
//! (`flexcast_core::HistoryDelta`) writes its edges as maximal chains,
//! one `(creator, first idx, first before, afters)` run per chain, and its
//! decoder refuses an empty run, an index past `u32::MAX` and a run that
//! continues the one before it. (A local delivery whose chain edge a
//! delta carries is left out of the delta by the engine, not by the
//! format: the receiver's merge rebuilds it from the edge.)
//! `tests/format_vectors.rs` pins the destination-set bytes;
//! `crates/harness/tests/wire_vectors.rs` pins one value of every message
//! kind the simulator sizes.
//!
//! Entry points: [`to_bytes`], [`from_bytes`], and [`encoded_len`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod de;
mod ser;
mod varint;

pub use de::{from_bytes, Deserializer};
pub use ser::{encoded_len, to_bytes};

use flexcast_types::Error;

/// Wire-format error, wrapping the workspace [`Error`] to satisfy serde's
/// error traits.
#[derive(Debug)]
pub struct WireError(pub Error);

impl WireError {
    fn encode(msg: impl Into<String>) -> Self {
        WireError(Error::Encode(msg.into()))
    }

    fn decode(msg: impl Into<String>) -> Self {
        WireError(Error::Decode(msg.into()))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

impl serde::ser::Error for WireError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        WireError::encode(msg.to_string())
    }
}

impl serde::de::Error for WireError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        WireError::decode(msg.to_string())
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Error {
        e.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};

    fn roundtrip<T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v).unwrap();
        assert_eq!(bytes.len(), encoded_len(v).unwrap());
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    enum Kind {
        Unit,
        Tuple(u32, String),
        Struct { a: i64, b: Vec<u8> },
        Newtype(bool),
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    struct Envelope {
        id: (u32, u32),
        kinds: Vec<Kind>,
        opt: Option<f64>,
        map: std::collections::BTreeMap<u16, String>,
        ch: char,
        raw: Vec<u8>,
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&u16::MAX);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&u128::MAX);
        roundtrip(&i8::MIN);
        roundtrip(&i16::MIN);
        roundtrip(&(-1i32));
        roundtrip(&i64::MIN);
        roundtrip(&i128::MIN);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&1.5f32);
        roundtrip(&-2.75f64);
        roundtrip(&'λ');
        roundtrip(&"hello".to_string());
        roundtrip(&());
    }

    #[test]
    fn small_varints_are_one_byte() {
        assert_eq!(to_bytes(&5u64).unwrap().len(), 1);
        assert_eq!(to_bytes(&127u64).unwrap().len(), 1);
        assert_eq!(to_bytes(&128u64).unwrap().len(), 2);
        // zig-zag: small negatives stay small.
        assert_eq!(to_bytes(&-1i64).unwrap().len(), 1);
        assert_eq!(to_bytes(&-64i64).unwrap().len(), 1);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Some(42u16));
        roundtrip(&Option::<u16>::None);
        roundtrip(&(1u8, "two".to_string(), 3.0f64));
        let mut m = std::collections::BTreeMap::new();
        m.insert(1u16, "one".to_string());
        m.insert(2, "two".to_string());
        roundtrip(&m);
    }

    #[test]
    fn enums_roundtrip() {
        roundtrip(&Kind::Unit);
        roundtrip(&Kind::Tuple(9, "x".into()));
        roundtrip(&Kind::Struct {
            a: -5,
            b: vec![1, 2],
        });
        roundtrip(&Kind::Newtype(true));
    }

    #[test]
    fn nested_struct_roundtrips() {
        let mut map = std::collections::BTreeMap::new();
        map.insert(7u16, "seven".to_string());
        roundtrip(&Envelope {
            id: (3, 4),
            kinds: vec![Kind::Unit, Kind::Newtype(false)],
            opt: Some(2.5),
            map,
            ch: 'ß',
            raw: vec![0, 255, 128],
        });
    }

    #[test]
    fn flexcast_types_roundtrip() {
        use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};
        let m = Message::new(
            MsgId::new(ClientId(1), 2),
            DestSet::from_iter([GroupId(0), GroupId(5)]),
            Payload(vec![9; 32].into()),
        )
        .unwrap();
        roundtrip(&m);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = to_bytes(&"a longer string".to_string()).unwrap();
        for cut in 0..bytes.len() {
            let r: Result<String, _> = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        let r: Result<u32, _> = from_bytes(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        // Length 1, then an invalid UTF-8 byte.
        let bytes = vec![1, 0xFF];
        let r: Result<String, _> = from_bytes(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let r: Result<bool, _> = from_bytes(&[2]);
        assert!(r.is_err());
    }

    #[test]
    fn unknown_variant_rejected() {
        // Kind has 4 variants; index 9 is invalid.
        let r: Result<Kind, _> = from_bytes(&[9]);
        assert!(r.is_err());
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            let b = to_bytes(&v).unwrap();
            prop_assert_eq!(from_bytes::<u64>(&b).unwrap(), v);
        }

        #[test]
        fn prop_i64_roundtrip(v in any::<i64>()) {
            let b = to_bytes(&v).unwrap();
            prop_assert_eq!(from_bytes::<i64>(&b).unwrap(), v);
        }

        #[test]
        fn prop_string_roundtrip(v in ".*") {
            let b = to_bytes(&v).unwrap();
            prop_assert_eq!(from_bytes::<String>(&b).unwrap(), v);
        }

        #[test]
        fn prop_bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..256)) {
            let b = to_bytes(&v).unwrap();
            prop_assert_eq!(from_bytes::<Vec<u8>>(&b).unwrap(), v);
        }

        #[test]
        fn prop_struct_roundtrip(
            a in any::<u32>(), s in ".*", f in any::<f64>(), raw in proptest::collection::vec(any::<u8>(), 0..64)
        ) {
            prop_assume!(!f.is_nan());
            let v = Envelope {
                id: (a, a.wrapping_add(1)),
                kinds: vec![Kind::Tuple(a, s.clone())],
                opt: Some(f),
                map: Default::default(),
                ch: 'x',
                raw,
            };
            let b = to_bytes(&v).unwrap();
            prop_assert_eq!(from_bytes::<Envelope>(&b).unwrap(), v);
        }

        #[test]
        fn prop_size_matches_encoding(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            prop_assert_eq!(encoded_len(&v).unwrap(), to_bytes(&v).unwrap().len());
        }

        #[test]
        fn prop_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Decoding random bytes may fail but must not panic.
            let _ = from_bytes::<Envelope>(&bytes);
            let _ = from_bytes::<Kind>(&bytes);
            let _ = from_bytes::<Vec<String>>(&bytes);
        }
    }
}
