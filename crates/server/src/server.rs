//! The TCP listener: accept loop, admission, and clean shutdown.
//!
//! [`Server`] is generic over the request [`Handler`] it serves — the
//! default [`Engine`] (single node or shard worker) or the distributed
//! `CoordinatorEngine` — so every deployment shape shares one listener,
//! admission queue, and shutdown path.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use coconut_storage::{Error, Result};

use crate::engine::{Engine, Handler};
use crate::pool::Pool;

/// How the server binds and sizes its worker pool.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Admission-queue depth beyond the connections being served.
    pub queue: usize,
    /// Default per-query deadline (ms) when a request sets none.
    pub default_deadline_ms: Option<u64>,
    /// Close connections that send nothing for this long (ms); `None`
    /// keeps idle connections open indefinitely. Disconnects are counted
    /// by `coconut_idle_disconnect_total`.
    pub idle_timeout_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue: 64,
            default_deadline_ms: None,
            idle_timeout_ms: None,
        }
    }
}

/// A running query server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop, drains the workers, and joins every thread.
pub struct Server<H: Handler = Engine> {
    engine: Arc<H>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pool: Arc<Pool<H>>,
}

impl<H: Handler> Server<H> {
    /// Bind the listener and start the accept loop and worker pool.
    pub fn start(engine: Arc<H>, config: &ServerConfig) -> Result<Server<H>> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::invalid(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::invalid(format!("cannot read bound address: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(Pool::new(
            Arc::clone(&engine),
            config.workers,
            config.queue,
            config.idle_timeout_ms.map(Duration::from_millis),
            Arc::clone(&shutdown),
        ));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("coconut-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Ok(stream) = conn {
                            pool.dispatch(stream);
                        }
                    }
                })
                .map_err(|e| Error::invalid(format!("cannot spawn accept thread: {e}")))?
        };
        Ok(Server {
            engine,
            addr,
            shutdown,
            accept: Some(accept),
            pool,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handler this server executes requests with.
    pub fn engine(&self) -> &Arc<H> {
        &self.engine
    }

    /// Stop accepting, drain the workers, and join every thread.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop: it only re-checks the flag after a
        // connection arrives, so make one.
        if let Ok(stream) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)) {
            drop(stream);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.pool.join();
    }
}

impl<H: Handler> Drop for Server<H> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
