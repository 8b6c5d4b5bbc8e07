//! The serializer half of the wire format.
//!
//! The encoding rules are written once, in [`Serializer`]'s serde walk,
//! over a [`Sink`] that either stores the bytes or only counts them — so
//! [`to_bytes`], [`append_to`] and [`encoded_len`] cannot disagree about
//! the format.

use crate::varint::{size_u128, write_u128, zigzag};
use crate::WireError;
use serde::ser::{self, Serialize};

/// Serializes `value` into a fresh byte vector, pre-sized from
/// [`encoded_len`] so the writer never reallocates mid-encode.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, flexcast_types::Error> {
    let cap = encoded_len(value)?;
    let mut ser = Serializer {
        out: Vec::with_capacity(cap),
    };
    value.serialize(&mut ser).map_err(|e| e.0)?;
    debug_assert_eq!(ser.out.len(), cap, "size pass and write pass agree");
    Ok(ser.out)
}

/// Appends the encoding of `value` to the end of `out`, in one pass and
/// with no size pass first: `out` grows as a `Vec` does. The bytes
/// appended are [`to_bytes`]`(value)`. On error `out` is left as it was.
pub fn append_to<T: Serialize>(value: &T, out: &mut Vec<u8>) -> Result<(), flexcast_types::Error> {
    let start = out.len();
    let mut ser = Serializer {
        out: std::mem::take(out),
    };
    let written = value.serialize(&mut ser);
    *out = ser.out;
    written.map_err(|e| {
        out.truncate(start);
        e.0
    })
}

/// Returns the exact number of bytes [`to_bytes`] would produce, without
/// allocating the encoding. Used as the capacity hint for [`to_bytes`]
/// and by the traffic accounting in Figure 8.
pub fn encoded_len<T: Serialize>(value: &T) -> Result<usize, flexcast_types::Error> {
    let mut ser = Serializer { out: Counter(0) };
    value.serialize(&mut ser).map_err(|e| e.0)?;
    Ok(ser.out.0)
}

/// Where [`Serializer`] puts the encoding. Everything the format emits
/// is one of these three shapes; a sink decides only whether the bytes
/// are kept.
trait Sink {
    fn byte(&mut self, b: u8);
    fn bytes(&mut self, b: &[u8]);
    /// An LEB128 varint.
    fn varint(&mut self, v: u128);
}

impl Sink for Vec<u8> {
    #[inline]
    fn byte(&mut self, b: u8) {
        self.push(b);
    }
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
    #[inline]
    fn varint(&mut self, v: u128) {
        write_u128(self, v);
    }
}

/// The sink behind [`encoded_len`]: the length a `Vec<u8>` sink would
/// have reached.
struct Counter(usize);

impl Sink for Counter {
    #[inline]
    fn byte(&mut self, _b: u8) {
        self.0 += 1;
    }
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }
    #[inline]
    fn varint(&mut self, v: u128) {
        self.0 += size_u128(v);
    }
}

/// Streaming serializer writing the compact binary format into a [`Sink`].
struct Serializer<S> {
    out: S,
}

macro_rules! ser_uint {
    ($method:ident, $ty:ty) => {
        fn $method(self, v: $ty) -> Result<(), WireError> {
            self.out.varint(v as u128);
            Ok(())
        }
    };
}

macro_rules! ser_sint {
    ($method:ident, $ty:ty) => {
        fn $method(self, v: $ty) -> Result<(), WireError> {
            self.out.varint(zigzag(v as i128));
            Ok(())
        }
    };
}

impl<S: Sink> ser::Serializer for &mut Serializer<S> {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;
    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.out.byte(v as u8);
        Ok(())
    }

    ser_uint!(serialize_u8, u8);
    ser_uint!(serialize_u16, u16);
    ser_uint!(serialize_u32, u32);
    ser_uint!(serialize_u64, u64);
    ser_uint!(serialize_u128, u128);
    ser_sint!(serialize_i8, i8);
    ser_sint!(serialize_i16, i16);
    ser_sint!(serialize_i32, i32);
    ser_sint!(serialize_i64, i64);
    ser_sint!(serialize_i128, i128);
    fn serialize_f32(self, v: f32) -> Result<(), WireError> {
        self.out.bytes(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), WireError> {
        self.out.bytes(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), WireError> {
        self.out.varint(v as u128);
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.serialize_bytes(v.as_bytes())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), WireError> {
        self.out.varint(v.len() as u128);
        self.out.bytes(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), WireError> {
        self.out.byte(0);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), WireError> {
        self.out.byte(1);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), WireError> {
        self.out.varint(variant_index as u128);
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.out.varint(variant_index as u128);
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or_else(|| WireError::encode("sequences must have a known length"))?;
        self.out.varint(len as u128);
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.out.varint(variant_index as u128);
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or_else(|| WireError::encode("maps must have a known length"))?;
        self.out.varint(len as u128);
        Ok(self)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.out.varint(variant_index as u128);
        Ok(self)
    }
}

macro_rules! ser_compound {
    ($trait:path, $elem:ident) => {
        impl<S: Sink> $trait for &mut Serializer<S> {
            type Ok = ();
            type Error = WireError;
            fn $elem<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), WireError> {
                Ok(())
            }
        }
    };
}

ser_compound!(ser::SerializeSeq, serialize_element);
ser_compound!(ser::SerializeTuple, serialize_element);
ser_compound!(ser::SerializeTupleStruct, serialize_field);
ser_compound!(ser::SerializeTupleVariant, serialize_field);

impl<S: Sink> ser::SerializeMap for &mut Serializer<S> {
    type Ok = ();
    type Error = WireError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), WireError> {
        key.serialize(&mut **self)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeStruct for &mut Serializer<S> {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeStructVariant for &mut Serializer<S> {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}
