//! The bytes of a [`DestSet`], pinned.
//!
//! Every history vertex, message reference and message carries a
//! destination set, so its encoding is most of what the system puts on
//! the wire. These vectors make a change to it a reviewed diff of a hex
//! string rather than a drift in a byte counter; the `NetMsg` vectors in
//! `crates/harness/tests/wire_vectors.rs` do the same one level up.

use flexcast_types::{DestSet, Error, GroupId, MAX_GROUPS};
use flexcast_wire::{encoded_len, from_bytes, to_bytes};
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digits"))
        .collect()
}

fn set(ranks: &[u16]) -> DestSet {
    DestSet::try_from_ranks(ranks.iter().copied()).expect("ranks in range")
}

/// A word count, then that many significant words, least significant
/// first, each an LEB128 varint; trailing zero words are not sent. A set
/// of one member `{r}` is the header `9 + r` alone: one byte up to rank
/// 118, two from 119 up to 511 (header 520).
#[test]
fn dest_set_vectors() {
    let top_word = "80808080808080808001"; // 1 << 63
    let vectors = [
        (set(&[]), "00".to_string()),
        (set(&[0]), "09".to_string()),
        (set(&[118]), "7f".to_string()),
        (set(&[119]), "8001".to_string()),
        (set(&[511]), "8804".to_string()),
        (set(&[0, 5]), "0121".to_string()),
        (
            set(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]),
            "01ff1f".to_string(),
        ),
        (set(&[3, 64]), "020801".to_string()),
        (set(&[0, 511]), format!("0801000000000000{top_word}")),
    ];
    for (dst, want) in vectors {
        let bytes = to_bytes(&dst).expect("encodes");
        assert_eq!(hex(&bytes), want, "{dst:?}");
        assert_eq!(encoded_len(&dst).expect("sizes"), bytes.len(), "{dst:?}");
        assert_eq!(from_bytes::<DestSet>(&unhex(&want)).expect("decodes"), dst);
    }
}

fn decode_error(bytes: &[u8]) -> String {
    match from_bytes::<DestSet>(bytes) {
        Err(Error::Decode(why)) => why,
        other => panic!("{} decoded to {other:?}", hex(bytes)),
    }
}

/// One set, one spelling: the decoder refuses what the encoder never
/// writes, so re-encoding a decoded set reproduces its bytes.
#[test]
fn decoder_refuses_non_canonical_and_oversized_sets() {
    // What was nine words is `{0}` (header 9) and nine stray bytes: no
    // header spells more than eight words.
    assert!(decode_error(&unhex("09010101010101010101")).contains("trailing bytes"));
    // `{0}` and `{64}` in the word form, which the singleton form replaces.
    assert!(decode_error(&unhex("0101")).contains("one-member"));
    assert!(decode_error(&unhex("020001")).contains("one-member"));
    // One past the last singleton header, `{511}` = 520.
    assert!(decode_error(&unhex("8904")).contains("out of range"));
    // `{0}` followed by a zero word; and the empty set spelled as a word.
    assert!(decode_error(&unhex("020100")).contains("zero word"));
    assert!(decode_error(&unhex("0100")).contains("zero word"));
    // The old fixed form of `{0}`: eight words, seven of them zero.
    assert!(decode_error(&unhex("080100000000000000")).contains("zero word"));
    // A second word that runs off the input's end.
    assert!(decode_error(&unhex("020180")).contains("end of input"));
}

/// A header is a claim, not a budget: `u32::MAX` in front of two bytes of
/// input is refused on reading the header, before any word is — and a
/// set's words land in a fixed array whatever the header says.
#[test]
fn hostile_length_prefix_is_refused_up_front() {
    let why = decode_error(&unhex("ffffffff0f0101"));
    assert!(why.contains("out of range"), "{why}");
}

proptest! {
    /// Round trip at every significant-word count: the highest member
    /// picks the count, the rest scatter below it.
    #[test]
    fn prop_dest_set_roundtrips_at_every_width(
        words in 0usize..=8,
        top_bit in 0u16..64,
        rest in proptest::collection::vec(0u16..MAX_GROUPS as u16, 0..24),
    ) {
        let mut dst = DestSet::EMPTY;
        if words > 0 {
            let top = (words as u16 - 1) * 64 + top_bit;
            dst.insert(GroupId(top));
            for r in rest {
                dst.insert(GroupId(r % (top + 1)));
            }
        }
        let bytes = to_bytes(&dst).unwrap();
        if dst.len() == 1 {
            let rank = dst.lowest().unwrap().rank();
            prop_assert_eq!(from_bytes::<u16>(&bytes).unwrap(), 9 + rank, "a singleton is its header");
        } else {
            prop_assert_eq!(bytes[0] as usize, words, "the prefix is the significant-word count");
        }
        prop_assert_eq!(encoded_len(&dst).unwrap(), bytes.len());
        let back: DestSet = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, dst);
        prop_assert_eq!(to_bytes(&back).unwrap(), bytes);
    }
}
