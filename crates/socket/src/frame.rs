//! Multipart message frames.

use bytes::Bytes;

/// A multi-frame message, mirroring ZeroMQ multipart messages.
///
/// TensorSocket messages put the routing information in the topic and the
/// encoded payload(s) in the frames; frames are cheap reference-counted
/// byte slices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Multipart {
    /// The frames — or, when `chunked`, the chunks of the one frame.
    frames: Vec<Bytes>,
    chunked: bool,
}

impl Multipart {
    /// An empty message.
    pub fn new() -> Self {
        Self::default()
    }

    /// A message with one frame.
    pub fn single(frame: Bytes) -> Self {
        Self::from_frames(vec![frame])
    }

    /// A message from multiple frames.
    pub fn from_frames(frames: Vec<Bytes>) -> Self {
        Self {
            frames,
            chunked: false,
        }
    }

    /// A message with one frame, handed over as the chunks it is the
    /// concatenation of. The transport writes the chunks from where they
    /// are under one length prefix, and the receiver gets a single
    /// contiguous frame, exactly as if [`Multipart::single`] had been given
    /// the concatenation.
    pub fn chunked(chunks: Vec<Bytes>) -> Self {
        Self {
            chunked: chunks.len() != 1,
            frames: chunks,
        }
    }

    /// Appends a frame.
    ///
    /// # Panics
    /// On a [`Multipart::chunked`] message, which is exactly one frame.
    pub fn push(&mut self, frame: Bytes) -> &mut Self {
        assert!(!self.chunked, "a chunked message is exactly one frame");
        self.frames.push(frame);
        self
    }

    /// The frames. A received message always has one [`Bytes`] per frame;
    /// for a [`Multipart::chunked`] message that has not crossed a socket
    /// these are the chunks of its one frame ([`Multipart::is_chunked`]).
    pub fn frames(&self) -> &[Bytes] {
        &self.frames
    }

    /// True when [`Multipart::frames`] are the chunks of a single frame.
    pub fn is_chunked(&self) -> bool {
        self.chunked
    }

    /// The message with a chunked frame joined into one buffer (one copy
    /// of it); any other message as it is.
    pub fn into_contiguous(self) -> Self {
        if !self.chunked {
            return self;
        }
        Self::single(Bytes::from(self.frames.concat()))
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        if self.chunked {
            1
        } else {
            self.frames.len()
        }
    }

    /// True when there are no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes across frames.
    pub fn byte_len(&self) -> usize {
        self.frames.iter().map(|f| f.len()).sum()
    }
}

impl From<Bytes> for Multipart {
    fn from(b: Bytes) -> Self {
        Multipart::single(b)
    }
}

impl From<Vec<u8>> for Multipart {
    fn from(v: Vec<u8>) -> Self {
        Multipart::single(Bytes::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut m = Multipart::new();
        assert!(m.is_empty());
        m.push(Bytes::from_static(b"ab"));
        m.push(Bytes::from_static(b"cde"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.byte_len(), 5);
        assert_eq!(&m.frames()[1][..], b"cde");
    }

    #[test]
    fn chunked_is_one_frame_until_joined() {
        let chunks = vec![Bytes::from_static(b"ab"), Bytes::from_static(b"cde")];
        let m = Multipart::chunked(chunks.clone());
        assert!(m.is_chunked());
        assert_eq!((m.len(), m.byte_len()), (1, 5));
        let joined = m.into_contiguous();
        assert_eq!(joined, Multipart::single(Bytes::from_static(b"abcde")));
        // One chunk is just a frame: nothing to join, nothing copied.
        let one = Multipart::chunked(chunks[..1].to_vec());
        assert_eq!(one, Multipart::single(chunks[0].clone()));
        assert_eq!(
            one.into_contiguous().frames()[0].as_ptr(),
            chunks[0].as_ptr()
        );
        // No chunks at all is one empty frame.
        let none = Multipart::chunked(Vec::new());
        assert_eq!(none.len(), 1);
        assert_eq!(none.into_contiguous(), Multipart::single(Bytes::new()));
    }

    #[test]
    fn conversions() {
        let m: Multipart = vec![1u8, 2].into();
        assert_eq!(m.len(), 1);
        let m2: Multipart = Bytes::from_static(b"x").into();
        assert_eq!(m2.byte_len(), 1);
    }
}
