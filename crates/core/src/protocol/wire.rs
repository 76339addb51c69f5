//! The field-list codec under [`super::messages`].
//!
//! A message's wire layout is its fields, in the order one
//! [`wire_struct!`] / [`wire_enum!`] invocation lists them, each encoded
//! by its type's [`Wire`] impl: integers little-endian, `bool` and
//! `Option` behind a one-byte flag, strings, byte blobs and sequences
//! behind a `u32` length, enums behind a one-byte tag.
//!
//! Byte blobs ([`Bytes`] fields) are never copied by the codec. Encoding
//! writes into a [`Sink`], which collects small fields in a head buffer
//! and emits a blob of [`BORROW_MIN`] bytes or more as a segment of its
//! own — a clone of the field, so the caller's buffer — and the encoded
//! message is the concatenation of the segments. Decoding reads through a
//! [`Reader`] over the received frame, and a blob field is a slice of that
//! frame.
//!
//! Every decoder safety property lives in the primitives here, so no
//! message has to restate it: a read past the end of the frame is an
//! `Err`, never a panic; a claimed length or element count is checked
//! against the bytes that remain *before* anything is reserved; a flag or
//! tag outside its range is an `Err`.

use crate::{Result, TsError};
use bytes::{BufMut, Bytes, BytesMut};

/// A blob shorter than this is copied into the head buffer: below a page,
/// the copy costs less than one more segment for the transport to gather.
pub(crate) const BORROW_MIN: usize = 4096;

/// Where [`Wire::put`] writes: the finished segments, then the head buffer
/// that small fields are still being appended to.
pub(crate) struct Sink {
    segments: Vec<Bytes>,
    head: BytesMut,
}

impl Sink {
    pub(crate) fn with_capacity(head: usize) -> Self {
        Self {
            segments: Vec::new(),
            head: BytesMut::with_capacity(head),
        }
    }

    /// Appends a blob: by reference when it is worth a segment of its own,
    /// into the head otherwise.
    fn put_shared(&mut self, blob: &Bytes) {
        if blob.len() < BORROW_MIN {
            self.head.put_slice(blob);
        } else {
            self.close_head();
            self.segments.push(blob.clone());
        }
    }

    fn close_head(&mut self) {
        if !self.head.is_empty() {
            self.segments.push(std::mem::take(&mut self.head).freeze());
        }
    }

    /// The encoding as the segments it was written in.
    pub(crate) fn into_segments(mut self) -> Vec<Bytes> {
        self.close_head();
        self.segments
    }

    /// The encoding as one buffer: the segments, concatenated.
    pub(crate) fn into_bytes(self) -> Bytes {
        if self.segments.is_empty() {
            return self.head.freeze();
        }
        let segments = self.into_segments();
        let mut whole = BytesMut::with_capacity(segments.iter().map(Bytes::len).sum());
        for segment in &segments {
            whole.put_slice(segment);
        }
        whole.freeze()
    }
}

impl BufMut for Sink {
    fn put_slice(&mut self, src: &[u8]) {
        self.head.put_slice(src);
    }
}

/// A read position in a received frame. Fixed-width fields are read out
/// of `rest`; a blob is handed out as a slice of `frame` itself.
pub(crate) struct Reader<'a> {
    frame: &'a Bytes,
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(frame: &'a Bytes) -> Self {
        Self { frame, rest: frame }
    }

    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Splits `n` bytes off the front.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(TsError::Wire(format!(
                "need {n} bytes, have {}",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Splits `n` bytes off the front as a slice sharing the frame's
    /// buffer.
    fn take_shared(&mut self, n: usize) -> Result<Bytes> {
        let at = self.frame.len() - self.rest.len();
        self.take(n)?;
        Ok(self.frame.slice(at..at + n))
    }
}

/// A value with a fixed place in a frame.
pub(crate) trait Wire: Sized {
    /// Fewest bytes any encoding of `Self` occupies (never 0). A sequence
    /// decoder divides the bytes that remain by it to bound a claimed
    /// element count.
    const MIN_LEN: usize;

    /// Appends the encoding of `self`.
    fn put(&self, buf: &mut Sink);

    /// Decodes one value off the front of `buf`, advancing it.
    fn get(buf: &mut Reader<'_>) -> Result<Self>;
}

/// Writes a sequence length.
pub(crate) fn put_len(buf: &mut Sink, n: usize) {
    buf.put_u32_le(u32::try_from(n).expect("wire sequences hold at most u32::MAX elements"));
}

/// Reads a sequence length and rejects it unless `n` elements of at least
/// `min_len` bytes each can still follow — so a hostile count fails here,
/// before the caller reserves anything for it.
pub(crate) fn get_len(buf: &mut Reader<'_>, min_len: usize) -> Result<usize> {
    let n = u32::get(buf)? as usize;
    if n > buf.remaining() / min_len {
        return Err(TsError::Wire(format!(
            "length {n} exceeds the {} bytes that remain",
            buf.remaining()
        )));
    }
    Ok(n)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn put(&self, buf: &mut Sink) {
                buf.put_slice(&self.to_le_bytes());
            }

            fn get(buf: &mut Reader<'_>) -> Result<Self> {
                let raw = buf.take(Self::MIN_LEN)?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("take returned MIN_LEN bytes")))
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

impl Wire for bool {
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut Sink) {
        buf.put_u8(*self as u8);
    }

    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        Ok(u8::get(buf)? != 0)
    }
}

impl Wire for String {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut Sink) {
        put_len(buf, self.len());
        buf.put_slice(self.as_bytes());
    }

    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        let n = get_len(buf, 1)?;
        Ok(String::from_utf8_lossy(buf.take(n)?).into_owned())
    }
}

impl Wire for Bytes {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut Sink) {
        put_len(buf, self.len());
        buf.put_shared(self);
    }

    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        let n = get_len(buf, 1)?;
        buf.take_shared(n)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut Sink) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.put(buf);
            }
        }
    }

    fn get(buf: &mut Reader<'_>) -> Result<Self> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            f => Err(TsError::Wire(format!("bad presence flag {f}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut Sink) {
        put_len(buf, self.len());
        for v in self {
            v.put(buf);
        }
    }

    fn get(buf: &mut Reader<'_>) -> Result<Self> {
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

            fn put(&self, buf: &mut Sink) {
                $(self.$i.put(buf);)+
            }

            fn get(buf: &mut Reader<'_>) -> Result<Self> {
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

            fn put(&self, buf: &mut $crate::protocol::wire::Sink) {
                $(<$ft as $crate::protocol::wire::Wire>::put(&self.$field, buf);)+
            }

            fn get(buf: &mut $crate::protocol::wire::Reader<'_>) -> $crate::Result<Self> {
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

            fn put(&self, buf: &mut $crate::protocol::wire::Sink) {
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

            fn get(buf: &mut $crate::protocol::wire::Reader<'_>) -> $crate::Result<Self> {
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

    fn get<T: Wire>(frame: &[u8]) -> Result<T> {
        T::get(&mut Reader::new(&Bytes::copy_from_slice(frame)))
    }

    #[test]
    fn hostile_counts_fail_before_anything_is_reserved() {
        // 2^20 elements claimed, 4 bytes present: rejected on the count,
        // for every element width.
        let mut frame = (1u32 << 20).to_le_bytes().to_vec();
        frame.extend_from_slice(&[0; 4]);
        assert!(get::<Vec<u64>>(&frame).is_err());
        assert!(get::<Vec<(String, u64)>>(&frame).is_err());
        assert!(get::<String>(&frame).is_err());
        assert!(get::<Bytes>(&frame).is_err());
        // The largest count the bytes can back is accepted, and reserves
        // exactly that.
        let mut ok = 2u32.to_le_bytes().to_vec();
        ok.extend_from_slice(&[7; 16]);
        let v = get::<Vec<u64>>(&ok).unwrap();
        assert_eq!((v.len(), v.capacity()), (2, 2));
    }

    #[test]
    fn every_primitive_rejects_every_strict_prefix() {
        let mut sink = Sink::with_capacity(0);
        let value = (
            7u8,
            (Some(9u32), vec![(1u64, "ab".to_string(), true)]),
            Bytes::from(vec![1, 2, 3]),
        );
        value.put(&mut sink);
        let buf = sink.into_bytes();
        type T = (u8, (Option<u32>, Vec<(u64, String, bool)>), Bytes);
        assert_eq!(get::<T>(&buf).unwrap(), value);
        for cut in 0..buf.len() {
            assert!(get::<T>(&buf[..cut]).is_err(), "prefix {cut}");
        }
        assert!(get::<Option<u8>>(&[2u8, 0]).is_err(), "bad flag");
    }

    #[test]
    fn a_large_blob_is_a_segment_of_its_own_and_a_small_one_is_not() {
        let small = Bytes::from(vec![1u8; BORROW_MIN - 1]);
        let large = Bytes::from(vec![2u8; BORROW_MIN]);
        let value = ((7u8, small.clone()), (large.clone(), 9u32));
        let segments = {
            let mut sink = Sink::with_capacity(16);
            value.put(&mut sink);
            sink.into_segments()
        };
        // [tag, len, small bytes, len] [large, by reference] [trailing u32]
        assert_eq!(segments.len(), 3);
        assert_eq!(segments[0].len(), 1 + 4 + small.len() + 4);
        assert_eq!(segments[1].as_ptr(), large.as_ptr());
        assert_eq!(&segments[2][..], &9u32.to_le_bytes());
        // One buffer is the same bytes, and decodes to slices of itself.
        let mut sink = Sink::with_capacity(16);
        value.put(&mut sink);
        let whole = sink.into_bytes();
        assert_eq!(&whole[..], &segments.concat()[..]);
        type T = ((u8, Bytes), (Bytes, u32));
        let back = T::get(&mut Reader::new(&whole)).unwrap();
        assert_eq!(back, value);
        let frame = whole.as_ptr_range();
        for blob in [&back.0 .1, &back.1 .0] {
            assert!(frame.start <= blob.as_ptr() && blob.as_ptr_range().end <= frame.end);
        }
    }
}
