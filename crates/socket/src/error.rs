//! Socket errors.

/// Errors from send operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The endpoint name is already bound by another socket.
    AddrInUse(String),
    /// The receiving side of a PUSH/PULL endpoint is gone.
    Disconnected,
    /// A non-blocking send found the peer queue full.
    Full,
    /// The endpoint URI is malformed (bad scheme syntax, missing port...).
    InvalidEndpoint(String),
    /// An OS-level socket error.
    Io(String),
    /// A frame is longer than a peer accepts
    /// ([`crate::wire::MAX_FRAME_BYTES`]). Nothing was queued or sent; the
    /// connection is unaffected.
    FrameTooLarge {
        /// Length of the offending frame in bytes.
        len: usize,
        /// The largest frame a stream transport carries.
        max: usize,
    },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::AddrInUse(ep) => write!(f, "endpoint already bound: {ep}"),
            SendError::Disconnected => write!(f, "peer disconnected"),
            SendError::Full => write!(f, "peer queue full"),
            SendError::InvalidEndpoint(ep) => write!(f, "invalid endpoint: {ep}"),
            SendError::Io(e) => write!(f, "socket io: {e}"),
            SendError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// Errors from receive operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// All senders are gone and the queue is drained.
    Closed,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Closed => write!(f, "channel closed"),
        }
    }
}

impl std::error::Error for RecvError {}
