//! # spdyier-http
//!
//! HTTP/1.1 for the SPDY'ier reproduction testbed: message types with real
//! wire encoding, incremental parsers (bytes arrive in TCP-segment-sized
//! chunks), persistent-connection state machines with optional pipelining,
//! and the Chrome-23 connection-pool policy (6 per domain / 32 total) the
//! paper's browser used.
//!
//! ```
//! use spdyier_http::{Request, HttpClientConn, HttpServerConn, Response};
//! use spdyier_bytes::Payload;
//!
//! let mut client = HttpClientConn::new();
//! let mut server = HttpServerConn::new();
//! let wire = client.send_request(1, &Request::get("news.example", "/"));
//! let reqs = server.on_bytes(wire).unwrap();
//! assert_eq!(reqs[0].host, "news.example");
//! let resp = server.encode_response(&Response::ok(Payload::from("<html>")));
//! let done = client.on_bytes(resp).unwrap();
//! assert_eq!(done[0].1.body.len(), 6);
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod codec;
pub mod conn;
pub mod message;
pub mod pool;

pub use codec::{ParseError, RequestParser, ResponseParser};
pub use conn::{HttpClientConn, HttpServerConn};
pub use message::{Request, Response};
pub use pool::{Acquire, ConnectionPool, PoolConfig, PoolConnId, Wake};
