//! Deterministic fault injection: a TCP proxy that sits between a
//! client and the server and breaks the connection the way real edge
//! links do — added latency, resets at frame boundaries, cuts in the
//! middle of a frame — from a seed, reproducibly.
//!
//! The proxy understands the wire framing just enough to count frames
//! on the client→server direction (magic + version + kind + length
//! prefix), so faults land at *meaningful* places: `CutAtFrame` drops
//! the connection exactly on a frame boundary (the server sees a clean
//! truncation between requests), `CutMidFrame` forwards the header and
//! half the payload before cutting (the server sees a torn frame),
//! `Delay` stalls delivery of one frame. The server→client direction is
//! relayed verbatim.
//!
//! Two construction modes:
//!
//! - [`ChaosProxy::scripted`] — an explicit per-connection fault list,
//!   for tests that need one precise failure;
//! - [`ChaosProxy::seeded`] — a deterministic schedule derived from a
//!   seed and the connection index, for matrix tests that want *many*
//!   reproducible failure patterns. Frame 0 (the `Hello`/`Resume`
//!   handshake) is never cut, so every connection at least identifies
//!   itself — cutting earlier would only test the client's connect
//!   retry, which `examples/serve_resilient.rs` covers separately.
//!
//! Determinism caveat: the schedule is deterministic per `(seed,
//! connection index)`; the *interleaving* of concurrent connections is
//! still the OS scheduler's. Byte-equality of served results holds
//! regardless (that is the point of the suite in
//! `tests/server_chaos.rs`).

use crate::wire::FRAME_HEADER_LEN;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One injected fault, anchored to a client→server frame index
/// (0-based, counted per connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Hold frame `frame` for `millis` before forwarding it.
    Delay { frame: u64, millis: u64 },
    /// Drop the connection cleanly *before* forwarding frame `frame`
    /// (a reset on a frame boundary).
    CutAtFrame { frame: u64 },
    /// Forward frame `frame`'s header and half its payload, then drop
    /// the connection (a torn frame mid-flight).
    CutMidFrame { frame: u64 },
}

impl Fault {
    fn frame(&self) -> u64 {
        match *self {
            Fault::Delay { frame, .. }
            | Fault::CutAtFrame { frame }
            | Fault::CutMidFrame { frame } => frame,
        }
    }
}

/// How a proxied connection gets its fault schedule.
enum Schedule {
    /// Derived per connection index from the seed.
    Seeded(u64),
    /// Explicit per-connection scripts; connections past the end of the
    /// list run clean.
    Scripted(Vec<Vec<Fault>>),
}

/// A fault-injecting TCP proxy in front of `upstream`. Point a client
/// at [`ChaosProxy::addr`] instead of the server.
pub struct ChaosProxy {
    addr: SocketAddr,
    connections: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ChaosProxy {
    /// Proxy to `upstream` with a deterministic per-connection fault
    /// schedule derived from `seed`.
    pub fn seeded(upstream: SocketAddr, seed: u64) -> std::io::Result<ChaosProxy> {
        ChaosProxy::start(upstream, Schedule::Seeded(seed))
    }

    /// Proxy to `upstream` with explicit fault scripts: connection `i`
    /// suffers `scripts[i]`; connections beyond the list run clean.
    pub fn scripted(upstream: SocketAddr, scripts: Vec<Vec<Fault>>) -> std::io::Result<ChaosProxy> {
        ChaosProxy::start(upstream, Schedule::Scripted(scripts))
    }

    fn start(upstream: SocketAddr, schedule: Schedule) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let connections = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let conn_counter = connections.clone();
        let stop_flag = stop.clone();
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = stream else { continue };
                let index = conn_counter.fetch_add(1, Ordering::SeqCst);
                let faults = match &schedule {
                    Schedule::Seeded(seed) => seeded_faults(*seed, index as u64),
                    Schedule::Scripted(scripts) => scripts.get(index).cloned().unwrap_or_default(),
                };
                std::thread::spawn(move || proxy_connection(client, upstream, faults));
            }
        });
        Ok(ChaosProxy {
            addr,
            connections,
            stop,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many connections have been accepted so far (== how many
    /// fault schedules were consumed).
    pub fn connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }

    /// Stop accepting. In-flight proxied connections run to completion.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self
            .accept
            .lock()
            .expect("chaos accept handle poisoned")
            .take()
        {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// The seeded per-connection fault profile. Deterministic in
/// `(seed, index)`: index is mixed in with an odd multiplier so nearby
/// connections get unrelated schedules. Roughly: a few chances of a
/// small delay on an early frame, then a 60% chance the connection dies
/// — half the time cleanly between frames, half mid-frame — somewhere
/// in its first several frames (but never frame 0: the handshake always
/// completes).
fn seeded_faults(seed: u64, index: u64) -> Vec<Fault> {
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut faults = Vec::new();
    for frame in 1..=3u64 {
        if rng.gen_bool(0.35) {
            faults.push(Fault::Delay {
                frame,
                millis: rng.gen_range(1..20u64),
            });
        }
    }
    if rng.gen_bool(0.6) {
        let frame = rng.gen_range(1..8u64);
        if rng.gen_bool(0.5) {
            faults.push(Fault::CutAtFrame { frame });
        } else {
            faults.push(Fault::CutMidFrame { frame });
        }
    }
    faults
}

/// Pump one proxied connection: frame-parse client→server applying the
/// faults, raw-copy server→client, and tear both directions down when
/// either side ends or a cut fires.
fn proxy_connection(client: TcpStream, upstream: SocketAddr, faults: Vec<Fault>) {
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    // Both legs forward without Nagle delay, like the endpoints they
    // stand between; only the scripted faults may add latency.
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    // Server→client: verbatim relay.
    let client_w = client;
    let back = std::thread::spawn(move || {
        copy_until_eof(server_r, &client_w);
        let _ = client_w.shutdown(Shutdown::Both);
    });
    // Client→server: frame-by-frame with faults.
    pump_frames(client_r, &server, &faults);
    let _ = server.shutdown(Shutdown::Both);
    let _ = back.join();
}

fn copy_until_eof(mut from: TcpStream, mut to: &TcpStream) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                if to.write_all(&buf[..n]).and_then(|_| to.flush()).is_err() {
                    return;
                }
            }
        }
    }
}

/// Forward whole frames from `client` to `server`, applying each fault
/// at its frame index. Each frame (or torn half-frame) is read into one
/// buffer and forwarded with one write. Returns when the client closes,
/// a cut fires, or the server stops accepting bytes.
fn pump_frames(mut client: TcpStream, mut server: &TcpStream, faults: &[Fault]) {
    let mut frame_index = 0u64;
    let mut header = [0u8; FRAME_HEADER_LEN];
    loop {
        if client.read_exact(&mut header).is_err() {
            return;
        }
        let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
        let mut frame = vec![0u8; FRAME_HEADER_LEN + len];
        frame[..FRAME_HEADER_LEN].copy_from_slice(&header);
        if client.read_exact(&mut frame[FRAME_HEADER_LEN..]).is_err() {
            return;
        }
        for fault in faults.iter().filter(|f| f.frame() == frame_index) {
            match *fault {
                Fault::Delay { millis, .. } => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                Fault::CutAtFrame { .. } => {
                    let _ = client.shutdown(Shutdown::Both);
                    return;
                }
                Fault::CutMidFrame { .. } => {
                    let _ = server.write_all(&frame[..FRAME_HEADER_LEN + len / 2]);
                    let _ = client.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
        if server.write_all(&frame).is_err() {
            return;
        }
        frame_index += 1;
    }
}
