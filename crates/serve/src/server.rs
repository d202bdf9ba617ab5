//! The listener front end: binds the socket, starts the serving core,
//! and owns graceful shutdown.
//!
//! [`event_loop`](crate::event_loop) takes the listener: one
//! `poll(2)`-driven thread owns every socket — the listener is part of
//! the poll set, so there is no sleep-polling anywhere — and per-shard
//! worker threads run the router. Keep-alive, pipelining, and
//! per-connection deadlines live there.
//!
//! [`ServerHandle::shutdown`] flips the stop flag and writes a wake
//! byte so a sleeping poll notices immediately: new connects are
//! refused at the OS level, idle keep-alive connections close,
//! in-flight requests finish, and finally the warm cache is flushed to
//! disk.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use webssari_engine::Engine;

#[cfg(unix)]
use crate::event_loop::spawn;
use crate::{AppState, ServerConfig};

/// Builds and starts daemon instances.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts the serving core. Returns once
    /// the socket is listening; serving continues on background
    /// threads until [`ServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures. Off unix, where there
    /// is no `poll(2)`, returns [`io::ErrorKind::Unsupported`].
    pub fn start(config: ServerConfig, engine: Engine) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(AppState::new(config, engine));
        let stop = Arc::new(AtomicBool::new(false));
        let (threads, wake) = spawn(listener, Arc::clone(&state), Arc::clone(&stop))?;
        Ok(ServerHandle {
            addr,
            state,
            stop,
            threads,
            wake,
        })
    }
}

/// The serving core needs `poll(2)`; off unix the daemon does not run.
#[cfg(not(unix))]
fn spawn(
    _listener: TcpListener,
    _state: Arc<AppState>,
    _stop: Arc<AtomicBool>,
) -> io::Result<(Vec<JoinHandle<()>>, TcpStream)> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "webssari serve needs poll(2) and runs on unix only",
    ))
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (the process keeps
/// serving); tests and the CLI should shut down explicitly.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Wake writer to interrupt a sleeping poll.
    wake: TcpStream,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state — tests and embedders can inspect
    /// metrics and the engine snapshot through it.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, close idle connections,
    /// finish in-flight requests, join every thread, then flush the
    /// warm cache. Returns the cache file path when persistence is
    /// configured.
    ///
    /// # Errors
    ///
    /// Propagates cache-flush I/O errors (the drain itself cannot
    /// fail).
    pub fn shutdown(self) -> io::Result<Option<PathBuf>> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&self.wake).write(&[1u8]);
        for t in self.threads {
            let _ = t.join();
        }
        self.state.engine.flush_cache()
    }
}
