//! The field-list codec under [`super::messages`].
//!
//! A message's wire layout is its fields, in the order one
//! [`wire_struct!`] / [`wire_enum!`] invocation lists them, each encoded
//! by its type's [`Wire`] impl: integers little-endian, `bool` and
//! `Option` behind a one-byte flag, strings, byte blobs and sequences
//! behind a `u32` length, enums behind a one-byte tag.
//!
//! Every decoder safety property lives in the primitives here, so no
//! message has to restate it: a read past the end of the frame is an
//! `Err`, never a panic; a claimed length or element count is checked
//! against the bytes that remain *before* anything is reserved; a flag or
//! tag outside its range is an `Err`.

use crate::{Result, TsError};
use bytes::{BufMut, Bytes, BytesMut};

/// A value with a fixed place in a frame.
pub(crate) trait Wire: Sized {
    /// Fewest bytes any encoding of `Self` occupies (never 0). A sequence
    /// decoder divides the bytes that remain by it to bound a claimed
    /// element count.
    const MIN_LEN: usize;

    /// Appends the encoding of `self`.
    fn put(&self, buf: &mut BytesMut);

    /// Decodes one value off the front of `buf`, advancing it.
    fn get(buf: &mut &[u8]) -> Result<Self>;
}

/// Splits `n` bytes off the front of `buf`.
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(TsError::Wire(format!("need {n} bytes, have {}", buf.len())));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Writes a sequence length.
pub(crate) fn put_len(buf: &mut BytesMut, n: usize) {
    buf.put_u32_le(u32::try_from(n).expect("wire sequences hold at most u32::MAX elements"));
}

/// Reads a sequence length and rejects it unless `n` elements of at least
/// `min_len` bytes each can still follow — so a hostile count fails here,
/// before the caller reserves anything for it.
pub(crate) fn get_len(buf: &mut &[u8], min_len: usize) -> Result<usize> {
    let n = u32::get(buf)? as usize;
    if n > buf.len() / min_len {
        return Err(TsError::Wire(format!(
            "length {n} exceeds the {} bytes that remain",
            buf.len()
        )));
    }
    Ok(n)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn put(&self, buf: &mut BytesMut) {
                buf.put_slice(&self.to_le_bytes());
            }

            fn get(buf: &mut &[u8]) -> Result<Self> {
                let raw = take(buf, Self::MIN_LEN)?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("take returned MIN_LEN bytes")))
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

impl Wire for bool {
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        Ok(u8::get(buf)? != 0)
    }
}

impl Wire for String {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut BytesMut) {
        put_len(buf, self.len());
        buf.put_slice(self.as_bytes());
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        let n = get_len(buf, 1)?;
        Ok(String::from_utf8_lossy(take(buf, n)?).into_owned())
    }
}

impl Wire for Bytes {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut BytesMut) {
        put_len(buf, self.len());
        buf.put_slice(self);
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        let n = get_len(buf, 1)?;
        Ok(Bytes::copy_from_slice(take(buf, n)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.put(buf);
            }
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            f => Err(TsError::Wire(format!("bad presence flag {f}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut BytesMut) {
        put_len(buf, self.len());
        for v in self {
            v.put(buf);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self> {
        let n = get_len(buf, T::MIN_LEN)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(buf)?);
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)+;

            fn put(&self, buf: &mut BytesMut) {
                $(self.$i.put(buf);)+
            }

            fn get(buf: &mut &[u8]) -> Result<Self> {
                Ok(($($t::get(buf)?,)+))
            }
        }
    )*};
}

wire_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
}

/// `wire_struct!(Type { field: FieldType, .. })`: the struct's wire
/// layout is the listed fields, in the listed order.
macro_rules! wire_struct {
    ($ty:path { $($field:ident : $ft:ty),+ $(,)? }) => {
        impl $crate::protocol::wire::Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$ft as $crate::protocol::wire::Wire>::MIN_LEN)+;

            fn put(&self, buf: &mut bytes::BytesMut) {
                $(<$ft as $crate::protocol::wire::Wire>::put(&self.$field, buf);)+
            }

            fn get(buf: &mut &[u8]) -> $crate::Result<Self> {
                Ok(Self {
                    $($field: <$ft as $crate::protocol::wire::Wire>::get(buf)?),+
                })
            }
        }
    };
}

/// `wire_enum!(Type { tag => Variant { field: FieldType, .. }, .. })`: a
/// one-byte tag, then the variant's listed fields. Unit variants list
/// nothing; a one-field tuple variant is written `Variant(name: Type)`.
/// A tag outside the list is an error — unless the list ends
/// `else Unknown`, in which case it decodes to `Type::Unknown { tag }`
/// (which re-encodes as the bare tag).
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:literal => $variant:ident
            $(($bind:ident : $bt:ty))?
            $({ $($field:ident : $ft:ty),+ $(,)? })?
        ),+ $(,)?
    } $(else $unknown:ident)?) => {
        impl $crate::protocol::wire::Wire for $ty {
            const MIN_LEN: usize = 1;

            fn put(&self, buf: &mut bytes::BytesMut) {
                use bytes::BufMut;
                match self {
                    $($ty::$variant $(($bind))? $({ $($field),+ })? => {
                        buf.put_u8($tag);
                        $(<$bt as $crate::protocol::wire::Wire>::put($bind, buf);)?
                        $($(<$ft as $crate::protocol::wire::Wire>::put($field, buf);)+)?
                    })+
                    $($ty::$unknown { tag } => buf.put_u8(*tag),)?
                }
            }

            fn get(buf: &mut &[u8]) -> $crate::Result<Self> {
                match <u8 as $crate::protocol::wire::Wire>::get(buf)? {
                    $($tag => Ok($ty::$variant
                        $((<$bt as $crate::protocol::wire::Wire>::get(buf)?))?
                        $({ $($field: <$ft as $crate::protocol::wire::Wire>::get(buf)?),+ })?
                    ),)+
                    tag => wire_enum!(@other $ty tag $($unknown)?),
                }
            }
        }
    };
    (@other $ty:ident $tag:ident) => {
        Err($crate::TsError::Wire(format!(
            concat!("bad ", stringify!($ty), " tag {}"),
            $tag
        )))
    };
    (@other $ty:ident $tag:ident $unknown:ident) => {
        Ok($ty::$unknown { tag: $tag })
    };
}

pub(crate) use {wire_enum, wire_struct};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_counts_fail_before_anything_is_reserved() {
        // 2^20 elements claimed, 4 bytes present: rejected on the count,
        // for every element width.
        let mut frame = (1u32 << 20).to_le_bytes().to_vec();
        frame.extend_from_slice(&[0; 4]);
        assert!(Vec::<u64>::get(&mut &frame[..]).is_err());
        assert!(Vec::<(String, u64)>::get(&mut &frame[..]).is_err());
        assert!(String::get(&mut &frame[..]).is_err());
        assert!(Bytes::get(&mut &frame[..]).is_err());
        // The largest count the bytes can back is accepted, and reserves
        // exactly that.
        let mut ok = 2u32.to_le_bytes().to_vec();
        ok.extend_from_slice(&[7; 16]);
        let v = Vec::<u64>::get(&mut &ok[..]).unwrap();
        assert_eq!((v.len(), v.capacity()), (2, 2));
    }

    #[test]
    fn every_primitive_rejects_every_strict_prefix() {
        let mut buf = BytesMut::new();
        let value = (
            7u8,
            (Some(9u32), vec![(1u64, "ab".to_string(), true)]),
            Bytes::from(vec![1, 2, 3]),
        );
        value.put(&mut buf);
        type T = (u8, (Option<u32>, Vec<(u64, String, bool)>), Bytes);
        assert_eq!(T::get(&mut &buf[..]).unwrap(), value);
        for cut in 0..buf.len() {
            assert!(T::get(&mut &buf[..cut]).is_err(), "prefix {cut}");
        }
        assert!(Option::<u8>::get(&mut &[2u8, 0][..]).is_err(), "bad flag");
    }
}
