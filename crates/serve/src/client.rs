//! A small blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues one request at a
//! time (the protocol allows one job in flight per connection; open more
//! connections for concurrency). Responses are returned as parsed
//! [`JsonValue`] objects so callers read fields with the typed getters —
//! the same hand-rolled JSON both ends of the wire use.
//!
//! `repro --serve-addr` deliberately does *not* use this type: the
//! client side of the protocol is re-implemented there from `PROTOCOL.md`
//! alone, proving the document — not this crate — is the contract.
//!
//! # Examples
//!
//! ```
//! use tm_serve::{Client, JobServer, ServerConfig};
//! use tm_obs::TelemetryHub;
//!
//! let server = JobServer::bind("127.0.0.1:0", ServerConfig::default(),
//!     TelemetryHub::new()).unwrap();
//! let mut client = Client::connect(&server.addr().to_string()).unwrap();
//! client.ping().unwrap();
//! let result = client
//!     .request(r#"{"v":1,"type":"launch","id":"1","kernel":"sobel","scale":"test"}"#)
//!     .unwrap();
//! assert_eq!(result.get_str("type"), Some("result"));
//! assert_eq!(result.get_bool("passed"), Some(true));
//! server.stop();
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use tm_obs::JsonValue;

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server's response line was not valid JSON.
    BadResponse(tm_obs::JsonError),
    /// The server answered with a `{"type":"error"}` response.
    Server {
        /// The machine-readable error code (e.g. `queue_full`).
        code: String,
        /// The human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::BadResponse(e) => write!(f, "unparseable response: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One blocking protocol connection. See the [module docs](self).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server at `addr` (e.g. `"127.0.0.1:7070"`).
    ///
    /// # Errors
    /// Propagates the connect/configure error.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Campaigns at paper scale take a while; reads stay blocking with
        // a generous timeout instead of polling.
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        // One frame per turn: coalescing small writes can only delay it.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self { reader: BufReader::new(stream), writer })
    }

    /// Sends one raw request line and returns the parsed response.
    ///
    /// `line` must be a complete JSON object without the trailing
    /// newline (the client adds the NDJSON framing).
    ///
    /// # Errors
    /// [`ClientError::Io`] on socket failure, [`ClientError::BadResponse`]
    /// if the response does not parse, and [`ClientError::Server`] if the
    /// server answered with an `error` response.
    pub fn request(&mut self, line: &str) -> Result<JsonValue, ClientError> {
        // One write per frame: a separate write of the `\n` waits on
        // Nagle's algorithm for the server's delayed ACK.
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let v = JsonValue::parse(response.trim_end()).map_err(ClientError::BadResponse)?;
        if v.get_str("type") == Some("error") {
            return Err(ClientError::Server {
                code: v.get_str("code").unwrap_or("unknown").to_string(),
                message: v.get_str("message").unwrap_or("").to_string(),
            });
        }
        Ok(v)
    }

    /// Sends a `ping`, expecting a `pong`.
    ///
    /// # Errors
    /// As [`Client::request`], plus a synthetic error if the response is
    /// not a `pong`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let v = self.request(r#"{"v":1,"type":"ping","id":"ping"}"#)?;
        if v.get_str("type") == Some("pong") {
            Ok(())
        } else {
            Err(ClientError::Server {
                code: "unexpected".to_string(),
                message: format!("expected pong, got {v:?}"),
            })
        }
    }

    /// Fetches the server's counters via a `stats` request.
    ///
    /// # Errors
    /// As [`Client::request`].
    pub fn stats(&mut self) -> Result<JsonValue, ClientError> {
        self.request(r#"{"v":1,"type":"stats","id":"stats"}"#)
    }
}
