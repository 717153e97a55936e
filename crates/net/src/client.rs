//! A blocking, reconnect-aware client for the `msocd` protocol.
//!
//! One [`Client`] owns one connection and retries each call once
//! through a fresh connection when the transport drops mid-exchange —
//! enough for a daemon restart between requests. Requests that already
//! reached the server are **not** replayed blindly: only transport
//! errors before a full response trigger the reconnect, and the retried
//! request is idempotent from the service's point of view (planning is
//! cache-keyed, registration mints a fresh id).

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};

use msoc_core::{CoreEdit, MixedSignalSoc};

use crate::wire::{
    read_response, write_request, Request, Response, WireError, WireJob, WireOutcome, WireStats,
};

/// A blocking protocol client bound to one server address.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    tenant: String,
    conn: Option<Conn>,
    /// Reconnections performed across the client's lifetime.
    reconnects: u64,
}

#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(WireError::from)?;
        let reader = BufReader::new(stream.try_clone().map_err(WireError::from)?);
        Ok(Conn { reader, writer: BufWriter::new(stream) })
    }

    fn exchange(&mut self, request: &Request) -> Result<Response, WireError> {
        write_request(&mut self.writer, request).map_err(WireError::from)?;
        read_response(&mut self.reader)
    }
}

impl Client {
    /// Connects to `addr`, serving as `tenant` (the shard key).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the server is unreachable.
    pub fn connect(addr: SocketAddr, tenant: impl Into<String>) -> Result<Self, WireError> {
        let conn = Conn::open(addr)?;
        Ok(Client { addr, tenant: tenant.into(), conn: Some(conn), reconnects: 0 })
    }

    /// The tenant this client submits as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Reconnections performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// One request/response exchange with a single reconnect retry on
    /// transport failure.
    fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(self.addr)?);
            self.reconnects += 1;
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        match conn.exchange(request) {
            Ok(response) => Ok(response),
            Err(WireError::Io(_)) | Err(WireError::Truncated) => {
                // The transport died; try once more on a fresh
                // connection, then report honestly.
                self.conn = Some(Conn::open(self.addr)?);
                self.reconnects += 1;
                self.conn.as_mut().expect("fresh connection").exchange(request)
            }
            Err(e) => {
                // Protocol-level failures leave the stream position
                // untrustworthy — drop the connection but surface the
                // error unchanged.
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Registers a SOC, returning its server-side id.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Corrupt`] when the server
    /// answers with anything but a registration.
    pub fn register(&mut self, soc: MixedSignalSoc) -> Result<u64, WireError> {
        match self.call(&Request::Register { tenant: self.tenant.clone(), soc })? {
            Response::Registered { soc_id } => Ok(soc_id),
            other => Err(unexpected(other)),
        }
    }

    /// Submits a batch, returning one outcome per job in input order.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Corrupt`] on a non-outcome
    /// reply.
    pub fn submit(&mut self, jobs: Vec<WireJob>) -> Result<Vec<WireOutcome>, WireError> {
        match self.call(&Request::Submit { tenant: self.tenant.clone(), jobs })? {
            Response::Outcomes(outcomes) => Ok(outcomes),
            other => Err(unexpected(other)),
        }
    }

    /// Applies edits to a registered SOC, returning its new revision.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Corrupt`] on a non-revision
    /// reply.
    pub fn revise(&mut self, soc_id: u64, edits: Vec<CoreEdit>) -> Result<u64, WireError> {
        match self.call(&Request::Revise { tenant: self.tenant.clone(), soc_id, edits })? {
            Response::Revised { revision, .. } => Ok(revision),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the tenant's shard statistics.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Corrupt`] on a non-stats
    /// reply.
    pub fn stats(&mut self) -> Result<WireStats, WireError> {
        match self.call(&Request::Stats { tenant: self.tenant.clone() })? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Forces a snapshot of every shard, returning how many persisted a
    /// new generation.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Corrupt`] on an unexpected
    /// reply.
    pub fn snapshot_now(&mut self) -> Result<u64, WireError> {
        match self.call(&Request::SnapshotNow)? {
            Response::SnapshotDone { persisted } => Ok(persisted),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Corrupt`] on an unexpected
    /// reply.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => {
                self.conn = None;
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(response: Response) -> WireError {
    match response {
        Response::Error { message } => WireError::Corrupt(format!("server error: {message}")),
        other => WireError::Corrupt(format!("unexpected response {other:?}")),
    }
}
