//! The parsed, typed endpoint URI.
//!
//! Historically every public API took endpoints as raw `&str` URIs and
//! validated them only at bind/connect time, deep inside the transport
//! layer. [`Endpoint`] moves that validation to the API boundary: it
//! parses once (scheme, host/path/name, port), rejects malformed URIs
//! with a typed [`EndpointError`], and round-trips through [`Display`]
//! to the exact canonical string the transports expect. Builders and
//! connect/scrape entry points accept `impl TryInto<Endpoint>`, so the
//! legacy `&str` call sites keep compiling — the string is simply parsed
//! (and rejected) up front instead of failing later with an opaque
//! socket error.
//!
//! [`Display`]: std::fmt::Display

use std::fmt;
use std::str::FromStr;

/// The transport scheme of an [`Endpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// `inproc://name` — a Unix socket private to one socket context.
    Inproc,
    /// `ipc:///path/to.sock` — a Unix domain socket.
    Ipc,
    /// `tcp://host:port`.
    Tcp,
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scheme::Inproc => "inproc",
            Scheme::Ipc => "ipc",
            Scheme::Tcp => "tcp",
        })
    }
}

/// A malformed endpoint URI, with the offending string and why it was
/// rejected. Surfaced as `TsError::Endpoint` by the runtime crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointError {
    /// The URI as given.
    pub uri: String,
    /// Human-readable rejection reason.
    pub reason: String,
}

impl fmt::Display for EndpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid endpoint `{}`: {}", self.uri, self.reason)
    }
}

impl std::error::Error for EndpointError {}

/// A parsed endpoint URI: scheme + host (or path, or in-process name) +
/// port (tcp only).
///
/// Construct with [`FromStr`]/`TryFrom<&str>` (`"tcp://host:port"`,
/// `"ipc:///path.sock"`, `"inproc://name"` — bare names are in-process
/// names, preserving the historical behaviour) or the typed
/// constructors. [`Display`] renders the canonical URI string, which is
/// what the transport layer binds/connects.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    scheme: Scheme,
    /// tcp host, ipc path, or inproc name (without the scheme).
    host: String,
    /// Port, `Some` only for tcp.
    port: Option<u16>,
}

impl Endpoint {
    /// A `tcp://host:port` endpoint.
    pub fn tcp(host: impl Into<String>, port: u16) -> Self {
        Self {
            scheme: Scheme::Tcp,
            host: host.into(),
            port: Some(port),
        }
    }

    /// An `ipc://<path>` endpoint.
    pub fn ipc(path: impl Into<String>) -> Self {
        Self {
            scheme: Scheme::Ipc,
            host: path.into(),
            port: None,
        }
    }

    /// An `inproc://<name>` endpoint.
    pub fn inproc(name: impl Into<String>) -> Self {
        Self {
            scheme: Scheme::Inproc,
            host: name.into(),
            port: None,
        }
    }

    /// The transport scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The host (tcp), filesystem path (ipc) or in-process name (inproc).
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The port; `Some` only for tcp endpoints.
    pub fn port(&self) -> Option<u16> {
        self.port
    }
}

impl FromStr for Endpoint {
    type Err = EndpointError;

    fn from_str(uri: &str) -> Result<Self, EndpointError> {
        let err = |reason: &str| EndpointError {
            uri: uri.to_string(),
            reason: reason.to_string(),
        };
        if let Some(path) = uri.strip_prefix("ipc://") {
            if path.is_empty() {
                return Err(err("ipc endpoint needs a socket path"));
            }
            return Ok(Endpoint::ipc(path));
        }
        if let Some(hostport) = uri.strip_prefix("tcp://") {
            let Some((host, port)) = hostport.rsplit_once(':') else {
                return Err(err("tcp endpoint needs host:port"));
            };
            if host.is_empty() {
                return Err(err("tcp endpoint needs a host"));
            }
            let port: u16 = port
                .parse()
                .map_err(|_| err("tcp port must be an integer in 0..=65535"))?;
            return Ok(Endpoint::tcp(host, port));
        }
        // Unknown or missing scheme: an in-process name, like the
        // transport layer has always treated it. Strip an explicit
        // inproc:// prefix so Display round-trips canonically.
        let name = uri.strip_prefix("inproc://").unwrap_or(uri);
        if name.is_empty() {
            return Err(err("endpoint must not be empty"));
        }
        Ok(Endpoint::inproc(name))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.scheme, self.port) {
            (Scheme::Tcp, Some(p)) => write!(f, "tcp://{}:{p}", self.host),
            (Scheme::Tcp, None) => write!(f, "tcp://{}", self.host),
            (Scheme::Ipc, _) => write!(f, "ipc://{}", self.host),
            (Scheme::Inproc, _) => write!(f, "inproc://{}", self.host),
        }
    }
}

impl TryFrom<&str> for Endpoint {
    type Error = EndpointError;

    fn try_from(uri: &str) -> Result<Self, EndpointError> {
        uri.parse()
    }
}

impl TryFrom<&String> for Endpoint {
    type Error = EndpointError;

    fn try_from(uri: &String) -> Result<Self, EndpointError> {
        uri.parse()
    }
}

impl TryFrom<String> for Endpoint {
    type Error = EndpointError;

    fn try_from(uri: String) -> Result<Self, EndpointError> {
        uri.parse()
    }
}

impl From<&Endpoint> for Endpoint {
    fn from(e: &Endpoint) -> Endpoint {
        e.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_round_trips_every_scheme() {
        for uri in [
            "tcp://127.0.0.1:5555",
            "ipc:///tmp/ts.sock",
            "inproc://tensorsocket",
        ] {
            let ep: Endpoint = uri.parse().unwrap();
            assert_eq!(ep.to_string(), uri, "Display must round-trip");
        }
        let ep: Endpoint = "tcp://example.org:80".parse().unwrap();
        assert_eq!(ep.scheme(), Scheme::Tcp);
        assert_eq!(ep.host(), "example.org");
        assert_eq!(ep.port(), Some(80));
        // Bare names are in-process names; they canonicalise to inproc://.
        let ep: Endpoint = "just-a-name".parse().unwrap();
        assert_eq!(ep.scheme(), Scheme::Inproc);
        assert_eq!(ep.to_string(), "inproc://just-a-name");
    }

    #[test]
    fn rejects_malformed_uris_with_the_offending_string() {
        for bad in [
            "tcp://nohostport",
            "tcp://host:notaport",
            "tcp://host:65536",
            "tcp://:5555",
            "ipc://",
            "",
        ] {
            let e = bad.parse::<Endpoint>().unwrap_err();
            assert_eq!(e.uri, bad);
            assert!(!e.reason.is_empty());
        }
    }

    #[test]
    fn typed_constructors_match_parsed_form() {
        assert_eq!(
            Endpoint::tcp("127.0.0.1", 7000),
            "tcp://127.0.0.1:7000".parse().unwrap()
        );
        assert_eq!(
            Endpoint::ipc("/tmp/a.sock"),
            "ipc:///tmp/a.sock".parse().unwrap()
        );
        assert_eq!(Endpoint::inproc("x"), "inproc://x".parse().unwrap());
    }
}
