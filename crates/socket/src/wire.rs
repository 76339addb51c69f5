//! Length-prefixed multipart wire framing for `ipc://` and `tcp://`
//! endpoints.
//!
//! Every message on a stream is
//!
//! ```text
//! [kind: u8] [nframes: u32le] ( [len: u32le] [bytes...] )*
//! ```
//!
//! Frame boundaries are preserved exactly — a [`crate::Multipart`] arrives
//! with the same frame count it was sent with, like ZeroMQ multipart
//! messages. The `kind` byte multiplexes data and subscription control on
//! one connection:
//!
//! * [`KIND_DATA`] — a payload message. On PUB/SUB connections frame 0 is
//!   the topic; on PUSH/PULL connections all frames are payload.
//! * [`KIND_SUB`] / [`KIND_UNSUB`] — subscriber → publisher prefix
//!   (un)registration. `SUB` carries `[prefix, req_id: u64le]` and is
//!   acknowledged.
//! * [`KIND_SUBACK`] — publisher → subscriber: `[req_id: u64le]`, sent
//!   once the prefix is registered. `SubSocket::subscribe` blocks on this
//!   so a subsequent control-plane message (e.g. TensorSocket's `Ready`)
//!   can never overtake the subscription it depends on.
//!
//! Large frame bytes are moved by the kernel only. A message is written
//! as one gather write: `kind`, the frame count, the length prefixes and
//! any frame bytes shorter than a page come out of one small staging
//! buffer, everything larger from wherever it already is (so a message of
//! small frames is one plain `write`). The chunks of a
//! [`Multipart::chunked`] frame share **one** length prefix — their total
//! — so the stream carries, and the receiver sees, one contiguous frame
//! exactly as if the sender had concatenated them. Each frame is read
//! into a buffer of exactly its length, which [`Bytes::from`] keeps as
//! the frame (a page or more) or folds into one small allocation.

use crate::frame::Multipart;
use bytes::Bytes;
use std::io::{self, IoSlice, Read, Write};

/// Payload message.
pub const KIND_DATA: u8 = 0;
/// Subscribe request (prefix + request id).
pub const KIND_SUB: u8 = 1;
/// Unsubscribe request (prefix).
pub const KIND_UNSUB: u8 = 2;
/// Subscribe acknowledgement (request id).
pub const KIND_SUBACK: u8 = 3;

/// Upper bound on a single frame. It protects a reader from a corrupt or
/// hostile length prefix, and it is the largest frame a sender may hand to
/// a stream transport: announces are tiny, but a streamed batch travels
/// as one frame, so this also bounds the batch a stream-mode consumer can
/// be sent.
pub const MAX_FRAME_BYTES: u32 = 256 << 20;

/// Frame bytes shorter than this are copied next to their length prefix
/// instead of getting a gather entry of their own: below a page the copy
/// costs less than one more segment for the kernel to walk, and a message
/// of small frames stays one `write` of one buffer.
const GATHER_MIN: usize = 4096;

/// Upper bound on frames per message.
pub const MAX_FRAMES: u32 = 4096;

/// A message as read off a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMessage {
    /// Message kind ([`KIND_DATA`], [`KIND_SUB`], ...).
    pub kind: u8,
    /// The frames, boundaries preserved.
    pub frames: Vec<Bytes>,
}

impl WireMessage {
    /// Interprets a PUB/SUB data message as `(topic, payload frames)`.
    pub fn into_topic_and_payload(self) -> Option<(Bytes, Multipart)> {
        if self.kind != KIND_DATA || self.frames.is_empty() {
            return None;
        }
        let mut frames = self.frames;
        let topic = frames.remove(0);
        Some((topic, Multipart::from_frames(frames)))
    }

    /// Interprets a PUSH/PULL data message as payload frames.
    pub fn into_payload(self) -> Option<Multipart> {
        if self.kind != KIND_DATA {
            return None;
        }
        Some(Multipart::from_frames(self.frames))
    }
}

fn too_large(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, what)
}

/// One message laid out for the wire: `bytes` holds everything small
/// (kind, frame count, length prefixes, and frame bytes below
/// [`GATHER_MIN`]) in stream order; `lent` the larger frame bytes, each
/// with the length of `bytes` at the point in the stream where it belongs.
struct Staged<'a> {
    bytes: Vec<u8>,
    lent: Vec<(usize, &'a [u8])>,
}

/// Lays out one message — `topic` as a frame of its own when given, then
/// `parts` as one frame each, or as the chunks of a single frame when
/// `joined`. Refuses a message over a limit before anything is written.
fn stage<'a, B: AsRef<[u8]>>(
    kind: u8,
    topic: Option<&'a [u8]>,
    parts: &'a [B],
    joined: bool,
) -> io::Result<Staged<'a>> {
    let nframes = usize::from(topic.is_some()) + if joined { 1 } else { parts.len() };
    if nframes > MAX_FRAMES as usize {
        return Err(too_large(format!("frame count {nframes} exceeds limit")));
    }
    let mut staged = Vec::with_capacity(64);
    let mut lent: Vec<(usize, &[u8])> = Vec::new();
    staged.push(kind);
    staged.extend_from_slice(&(nframes as u32).to_le_bytes());
    let prefix = |staged: &mut Vec<u8>, len: usize| {
        if len > MAX_FRAME_BYTES as usize {
            return Err(too_large(format!("frame of {len} bytes exceeds limit")));
        }
        staged.extend_from_slice(&(len as u32).to_le_bytes());
        Ok(())
    };
    fn body<'a>(staged: &mut Vec<u8>, lent: &mut Vec<(usize, &'a [u8])>, bytes: &'a [u8]) {
        if bytes.len() < GATHER_MIN {
            staged.extend_from_slice(bytes);
        } else {
            lent.push((staged.len(), bytes));
        }
    }
    if let Some(topic) = topic {
        prefix(&mut staged, topic.len())?;
        body(&mut staged, &mut lent, topic);
    }
    if joined {
        prefix(&mut staged, parts.iter().map(|p| p.as_ref().len()).sum())?;
    }
    for part in parts {
        if !joined {
            prefix(&mut staged, part.as_ref().len())?;
        }
        body(&mut staged, &mut lent, part.as_ref());
    }
    Ok(Staged {
        bytes: staged,
        lent,
    })
}

/// The message as the bytes that go on the wire, when it stages whole —
/// every frame below [`GATHER_MIN`], which is every announce, ack,
/// heartbeat, JOIN and cursor. `None` for a message that lends frame bytes
/// to a gather write (or that [`write_gathered`] would refuse): those take
/// the writer thread's path.
///
/// This is the line between the two send paths of the stream transports:
/// what comes back here may be put on the wire by the thread that sends it.
pub(crate) fn staged_whole<B: AsRef<[u8]>>(
    kind: u8,
    topic: Option<&[u8]>,
    parts: &[B],
    joined: bool,
) -> Option<Vec<u8>> {
    let staged = stage(kind, topic, parts, joined).ok()?;
    staged.lent.is_empty().then_some(staged.bytes)
}

/// Writes one message (see [`stage`]) and flushes: the staged bytes in
/// one plain `write` when nothing was lent, otherwise one gather write
/// with the staged runs between the lent frame bytes. Nothing is written
/// when a limit is exceeded.
fn write_gathered<B: AsRef<[u8]>>(
    w: &mut impl Write,
    kind: u8,
    topic: Option<&[u8]>,
    parts: &[B],
    joined: bool,
) -> io::Result<()> {
    let Staged { bytes, lent } = stage(kind, topic, parts, joined)?;
    if lent.is_empty() {
        w.write_all(&bytes)?;
    } else {
        let mut gather = Vec::with_capacity(2 * lent.len() + 1);
        let mut from = 0;
        for &(at, lent) in &lent {
            gather.push(IoSlice::new(&bytes[from..at]));
            gather.push(IoSlice::new(lent));
            from = at;
        }
        gather.push(IoSlice::new(&bytes[from..]));
        write_all_vectored(w, &mut gather)?;
    }
    w.flush()
}

/// `Write::write_all` for a gather list: short writes resume where they
/// stopped, so the message reaches the stream whole and in order.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0); // drops leading empty slices
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole message",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes one message of whole frames to `w` (flushes).
pub fn write_message(w: &mut impl Write, kind: u8, frames: &[&[u8]]) -> io::Result<()> {
    write_gathered(w, kind, None, frames, false)
}

/// Writes a PUB/SUB data message: topic frame + payload frames.
pub fn write_topic_data(w: &mut impl Write, topic: &[u8], msg: &Multipart) -> io::Result<()> {
    write_gathered(w, KIND_DATA, Some(topic), msg.frames(), msg.is_chunked())
}

/// Writes a PUSH/PULL data message: payload frames only.
pub fn write_data(w: &mut impl Write, msg: &Multipart) -> io::Result<()> {
    write_gathered(w, KIND_DATA, None, msg.frames(), msg.is_chunked())
}

fn read_exact_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads one message from `r`. `Err(UnexpectedEof)` on a cleanly closed
/// peer (between messages) and `Err(InvalidData)` on malformed framing.
pub fn read_message(r: &mut impl Read) -> io::Result<WireMessage> {
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let nframes = read_exact_u32(r)?;
    if nframes > MAX_FRAMES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame count {nframes} exceeds limit"),
        ));
    }
    let mut frames = Vec::with_capacity(nframes as usize);
    for _ in 0..nframes {
        let len = read_exact_u32(r)?;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit"),
            ));
        }
        // Read straight into the buffer the frame keeps: reserved once at
        // its exact length, never initialised, never reallocated.
        let mut frame = Vec::with_capacity(len as usize);
        r.by_ref().take(u64::from(len)).read_to_end(&mut frame)?;
        if frame.len() != len as usize {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        frames.push(Bytes::from(frame));
    }
    Ok(WireMessage {
        kind: kind[0],
        frames,
    })
}

/// What a [`Decoder`] reads at a time when nothing tells it to ask for
/// more: several hundred acks, or a fraction of a frame that says how much
/// is still to come.
const DECODER_CHUNK: usize = 16 << 10;

/// Frame bodies this long or longer skip the [`Decoder`]'s buffer: they
/// are read into a buffer of their own, reserved once at exactly their
/// length, which the frame then keeps — a streamed batch is copied once,
/// by the kernel. Anything shorter is one copy out of the buffer, cheaper
/// than a read of its own.
pub(crate) const OWN_BUFFER_MIN: usize = 64 << 10;

/// Where a [`Decoder`] gets its bytes: reads that never wait.
pub(crate) trait Source: Read {
    /// One read of at most `max` bytes appended to `into`, whose capacity
    /// the caller reserved: `Ok(0)` is end of stream, `Err(WouldBlock)`
    /// nothing to read right now. This default reads through a small
    /// buffer of its own; a socket has the kernel write into the spare
    /// capacity instead.
    fn read_append(&mut self, into: &mut Vec<u8>, max: usize) -> io::Result<usize> {
        let mut chunk = [0u8; 1024];
        let n = self.read(&mut chunk[..max.min(1024)])?;
        into.extend_from_slice(&chunk[..n]);
        Ok(n)
    }
}

/// [`read_message`] for a stream that must not be waited on: bytes are
/// taken as they come ([`Decoder::fill`], one `read` whatever it returns)
/// and messages handed out once they are whole ([`Decoder::next`]). A
/// peer that stops halfway through a message costs its owner nothing but
/// the bytes buffered so far; the buffer never holds more than a chunk
/// beyond one frame under [`OWN_BUFFER_MIN`].
pub(crate) struct Decoder {
    /// Initialised over its whole length; `buf[head..filled]` is unread.
    buf: Vec<u8>,
    head: usize,
    filled: usize,
    /// Bytes the next step of the message under way needs buffered.
    want: usize,
    /// The message under way, once its head is read.
    open: Option<Open>,
}

/// A message whose frames are arriving.
struct Open {
    kind: u8,
    /// Frames still to come, a `body` being read included.
    left: u32,
    frames: Vec<Bytes>,
    /// A frame of [`OWN_BUFFER_MIN`] or more, read into its own buffer:
    /// the bytes so far and the frame's length.
    body: Option<(Vec<u8>, usize)>,
}

impl Decoder {
    pub(crate) fn new() -> Self {
        Self {
            buf: vec![0; DECODER_CHUNK],
            head: 0,
            filled: 0,
            want: 0,
            open: None,
        }
    }

    /// One read from `r`: into the large frame being assembled, up to its
    /// end, or else into the free end of the buffer. `Ok(0)` is end of
    /// stream, `Err(WouldBlock)` nothing to read right now.
    pub(crate) fn fill(&mut self, r: &mut impl Source) -> io::Result<usize> {
        if let Some((body, len)) = self.open.as_mut().and_then(|o| o.body.as_mut()) {
            let max = *len - body.len();
            return r.read_append(body, max);
        }
        if self.head == self.filled {
            (self.head, self.filled) = (0, 0);
        }
        let pending = self.filled - self.head;
        let room = self.want.saturating_sub(pending).max(DECODER_CHUNK);
        if self.buf.len() - self.filled < room {
            self.buf.copy_within(self.head..self.filled, 0);
            (self.head, self.filled) = (0, pending);
            if self.buf.len() < pending + room {
                self.buf.resize(pending + room, 0);
            }
        }
        let n = r.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// The next whole message, `Ok(None)` when the rest of it is still to
    /// come, `Err(InvalidData)` on malformed framing (the limits
    /// [`read_message`] enforces). Frames are taken out of the buffer as
    /// each one completes.
    pub(crate) fn next(&mut self) -> io::Result<Option<WireMessage>> {
        let mut msg = match self.open.take() {
            Some(msg) => msg,
            None => match self.open_next()? {
                Some(msg) => msg,
                None => return Ok(None),
            },
        };
        if !self.take_frames(&mut msg)? {
            self.open = Some(msg);
            return Ok(None);
        }
        self.want = 0;
        let Open { kind, frames, .. } = msg;
        Ok(Some(WireMessage { kind, frames }))
    }

    fn unread(&self) -> &[u8] {
        &self.buf[self.head..self.filled]
    }

    /// Takes the head of the next message — kind and frame count — once it
    /// is buffered.
    fn open_next(&mut self) -> io::Result<Option<Open>> {
        let Some(nframes) = le_u32(self.unread(), 1) else {
            self.want = 5;
            return Ok(None);
        };
        if nframes > MAX_FRAMES {
            return Err(invalid(format!("frame count {nframes} exceeds limit")));
        }
        let kind = self.unread()[0];
        self.head += 5;
        Ok(Some(Open {
            kind,
            left: nframes,
            frames: Vec::with_capacity(nframes as usize),
            body: None,
        }))
    }

    /// Takes every frame of `msg` that is complete; true once all are.
    fn take_frames(&mut self, msg: &mut Open) -> io::Result<bool> {
        loop {
            if let Some((body, len)) = msg.body.take() {
                if body.len() < len {
                    msg.body = Some((body, len));
                    return Ok(false);
                }
                msg.frames.push(Bytes::from(body));
                msg.left -= 1;
            }
            if msg.left == 0 {
                return Ok(true);
            }
            let bytes = self.unread();
            let Some(len) = le_u32(bytes, 0) else {
                self.want = 4;
                return Ok(false);
            };
            if len > MAX_FRAME_BYTES {
                return Err(invalid(format!("frame of {len} bytes exceeds limit")));
            }
            let len = len as usize;
            if len >= OWN_BUFFER_MIN {
                // Whatever of it came with the last read moves over; the
                // rest is read into place.
                let here = len.min(bytes.len() - 4);
                let mut body = Vec::with_capacity(len);
                body.extend_from_slice(&bytes[4..4 + here]);
                self.head += 4 + here;
                msg.body = Some((body, len));
                continue;
            }
            if bytes.len() < 4 + len {
                self.want = 4 + len;
                return Ok(false);
            }
            msg.frames.push(Bytes::copy_from_slice(&bytes[4..4 + len]));
            self.head += 4 + len;
            msg.left -= 1;
        }
    }
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The little-endian `u32` at `at`, if `bytes` reach that far.
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let word: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(word))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Source for &[u8] {}

    #[test]
    fn round_trip_preserves_frame_boundaries() {
        let msg = Multipart::from_frames(vec![
            Bytes::from_static(b"alpha"),
            Bytes::new(),
            Bytes::from_static(b"c"),
        ]);
        let mut buf = Vec::new();
        write_topic_data(&mut buf, b"topic/1", &msg).unwrap();
        let mut cursor: &[u8] = &buf;
        let wire = read_message(&mut cursor).unwrap();
        assert_eq!(wire.kind, KIND_DATA);
        let (topic, got) = wire.into_topic_and_payload().unwrap();
        assert_eq!(&topic[..], b"topic/1");
        assert_eq!(got.len(), 3);
        assert_eq!(&got.frames()[0][..], b"alpha");
        assert!(got.frames()[1].is_empty());
        assert_eq!(&got.frames()[2][..], b"c");
        assert!(cursor.is_empty());
    }

    #[test]
    fn back_to_back_messages() {
        let mut buf = Vec::new();
        write_message(&mut buf, KIND_SUB, &[b"prefix", &7u64.to_le_bytes()]).unwrap();
        write_data(&mut buf, &Multipart::single(Bytes::from_static(b"x"))).unwrap();
        let mut cursor: &[u8] = &buf;
        let first = read_message(&mut cursor).unwrap();
        assert_eq!(first.kind, KIND_SUB);
        assert_eq!(&first.frames[0][..], b"prefix");
        let second = read_message(&mut cursor).unwrap();
        assert_eq!(second.into_payload().unwrap().byte_len(), 1);
    }

    #[test]
    fn truncation_is_eof() {
        let mut buf = Vec::new();
        write_data(&mut buf, &Multipart::single(Bytes::from_static(b"hello"))).unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor: &[u8] = &buf;
        assert_eq!(
            read_message(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// A writer that accepts a few bytes per call and no gather list, the
    /// way a congested socket does.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn chunked_frame_is_the_same_bytes_as_its_concatenation() {
        let chunks = vec![
            Bytes::from_static(b"head"),
            Bytes::from(vec![7u8; 9000]),
            Bytes::new(),
            Bytes::from_static(b"tail"),
        ];
        let whole = Multipart::single(Bytes::from(chunks.concat()));
        let mut expect = Vec::new();
        write_topic_data(&mut expect, b"cons/1", &whole).unwrap();
        let chunked = Multipart::chunked(chunks);
        let mut got = Vec::new();
        write_topic_data(&mut got, b"cons/1", &chunked).unwrap();
        assert_eq!(got, expect, "one length prefix, same stream");
        // Short writes resume mid-slice without losing or repeating bytes.
        let mut trickled = Trickle(Vec::new());
        write_topic_data(&mut trickled, b"cons/1", &chunked).unwrap();
        assert_eq!(trickled.0, expect);
        // The receiver sees topic + ONE frame.
        let (_, payload) = read_message(&mut &got[..])
            .unwrap()
            .into_topic_and_payload()
            .unwrap();
        assert_eq!(payload, whole);
        // PUSH/PULL framing chunks the same way.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_data(&mut a, &whole).unwrap();
        write_data(&mut b, &chunked).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_message_of_no_frames_is_five_bytes() {
        let mut buf = Vec::new();
        write_data(&mut buf, &Multipart::new()).unwrap();
        assert_eq!(buf, [KIND_DATA, 0, 0, 0, 0]);
        assert!(read_message(&mut &buf[..]).unwrap().frames.is_empty());
    }

    #[test]
    fn oversize_frames_are_refused_before_anything_is_written() {
        // A stand-in for 256 MiB + 1 without touching that much memory:
        // `from_owner` lends a length, the bytes are never read.
        struct Huge;
        impl AsRef<[u8]> for Huge {
            fn as_ref(&self) -> &[u8] {
                static ZEROS: [u8; 1 << 20] = [0; 1 << 20];
                &ZEROS
            }
        }
        let mib = Bytes::from_owner(Huge);
        let chunked = Multipart::chunked(vec![mib; 257]);
        let mut buf = Vec::new();
        let err = write_topic_data(&mut buf, b"t", &chunked).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty());
        // The same chunks as separate frames are each within the limit.
        let frames = Multipart::from_frames(chunked.frames().to_vec());
        write_topic_data(&mut io::sink(), b"t", &frames).unwrap();
        // Too many frames for the peer's reader is refused the same way.
        let many = Multipart::from_frames(vec![Bytes::new(); MAX_FRAMES as usize + 1]);
        assert_eq!(
            write_data(&mut buf, &many).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn frames_arrive_whole_through_any_reader() {
        let frame = Bytes::from(vec![3u8; 100_000]);
        let mut buf = Vec::new();
        write_data(&mut buf, &Multipart::single(frame.clone())).unwrap();
        // Through a `BufReader` and byte-at-a-time underneath: the frame
        // still arrives whole.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(self.0.len()).min(1);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        for got in [
            read_message(&mut &buf[..]).unwrap(),
            read_message(&mut io::BufReader::new(OneByte(&buf))).unwrap(),
        ] {
            assert_eq!(got.frames, vec![frame.clone()]);
        }
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut buf = vec![KIND_DATA];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let mut cursor: &[u8] = &buf;
        assert_eq!(
            read_message(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
    #[test]
    fn the_decoder_hands_out_whole_messages_however_the_bytes_arrive() {
        let big = Bytes::from((0..300_000u32).map(|i| i as u8).collect::<Vec<u8>>());
        let sent = [
            Multipart::single(Bytes::from_static(b"ack")),
            Multipart::new(),
            Multipart::from_frames(vec![Bytes::new(), big.clone(), Bytes::from_static(b"z")]),
            Multipart::single(Bytes::from_static(b"last")),
        ];
        let mut stream = Vec::new();
        for msg in &sent {
            write_data(&mut stream, msg).unwrap();
        }
        /// Hands out at most `step` bytes a read, then `WouldBlock` once,
        /// the way a non-blocking socket does between two segments.
        struct Bursts<'a>(&'a [u8], usize, bool);
        impl Source for Bursts<'_> {}
        impl Read for Bursts<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.2 = !self.2;
                if self.2 && !self.0.is_empty() {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.0.len()).min(self.1);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        for step in [1, 7, 4096, usize::MAX] {
            // Byte-at-a-time over the 300 kB frame is slow and proves
            // nothing the small messages do not.
            let stream = if step == 1 {
                &stream[..64]
            } else {
                &stream[..]
            };
            let mut reader = Bursts(stream, step, false);
            let mut decoder = Decoder::new();
            let mut got = Vec::new();
            loop {
                match decoder.fill(&mut reader) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                    Err(e) => panic!("{e}"),
                }
                while let Some(msg) = decoder.next().unwrap() {
                    got.push(msg.into_payload().unwrap());
                }
            }
            let whole = if step == 1 { 2 } else { sent.len() };
            assert_eq!(got[..], sent[..whole], "step {step}");
        }
        // The limits are `read_message`'s.
        let mut decoder = Decoder::new();
        let mut hostile = vec![KIND_DATA];
        hostile.extend_from_slice(&1u32.to_le_bytes());
        hostile.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        decoder.fill(&mut &hostile[..]).unwrap();
        assert_eq!(
            decoder.next().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn a_large_frame_is_read_into_the_one_buffer_it_keeps() {
        // A streamed 1.5 MiB batch behind a topic, then a small message.
        let frame = Bytes::from(
            (0..3 << 19)
                .map(|i: u32| (i * 7) as u8)
                .collect::<Vec<u8>>(),
        );
        let mut stream = Vec::new();
        write_topic_data(&mut stream, b"cons/7", &Multipart::single(frame.clone())).unwrap();
        write_data(&mut stream, &Multipart::single(Bytes::from_static(b"next"))).unwrap();
        /// 4 KiB a read, as from a peer whose bytes trickle in by the page.
        struct Pages<'a>(&'a [u8]);
        impl Read for Pages<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(self.0.len()).min(4096);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        impl Source for Pages<'_> {}
        let (mut reader, mut decoder) = (Pages(&stream), Decoder::new());
        let (mut body_at, mut got) = (None, Vec::new());
        while got.len() < 2 {
            assert!(decoder.fill(&mut reader).unwrap() > 0, "ran dry");
            let open = decoder.open.as_ref().and_then(|o| o.body.as_ref());
            if let Some((body, len)) = open {
                assert_eq!((body.capacity(), *len), (frame.len(), frame.len()));
                let at = *body_at.get_or_insert(body.as_ptr());
                assert_eq!(at, body.as_ptr(), "the body's buffer moved");
            }
            assert_eq!(
                decoder.buf.len(),
                DECODER_CHUNK,
                "the decoder's buffer grew"
            );
            while let Some(msg) = decoder.next().unwrap() {
                got.push(msg);
            }
        }
        let (topic, payload) = got.remove(0).into_topic_and_payload().unwrap();
        assert_eq!((&topic[..], payload.len()), (&b"cons/7"[..], 1));
        assert_eq!(payload.frames()[0], frame);
        let kept = payload.frames()[0].as_ptr();
        assert_eq!(Some(kept), body_at, "one allocation, kept as the frame");
        assert_eq!(got[0].frames, [Bytes::from_static(b"next")]);
    }

    #[test]
    fn what_stages_whole_is_what_write_data_writes() {
        let small = Multipart::from_frames(vec![
            Bytes::from_static(b"a"),
            Bytes::from(vec![1u8; GATHER_MIN - 1]),
        ]);
        let mut written = Vec::new();
        write_topic_data(&mut written, b"t", &small).unwrap();
        let staged = staged_whole(KIND_DATA, Some(b"t"), small.frames(), false);
        assert_eq!(staged.as_deref(), Some(&written[..]));
        // One frame at the gather threshold, or a refused message, is the
        // writer thread's.
        let bulk = Multipart::single(Bytes::from(vec![1u8; GATHER_MIN]));
        assert!(staged_whole(KIND_DATA, None, bulk.frames(), false).is_none());
        let many = vec![Bytes::new(); MAX_FRAMES as usize + 1];
        assert!(staged_whole(KIND_DATA, None, &many, false).is_none());
    }
}
