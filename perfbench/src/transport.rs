//! `nanompi` transport microbenchmarks in a 2-rank world: ping-pong
//! round trips, one-way streaming bandwidth and `allreduce_sum` latency,
//! over the in-process local transport and over Unix-domain sockets.

use std::path::Path;
use std::time::Instant;

use vpic::nanompi::{self, Comm, CommError, SocketAddrSpec, TransportKind};

use crate::ranks2::check_socket_dir;
use crate::report::Outcome;
use crate::stats::median;

/// Ping-pong payload sizes and their metric suffixes.
const SIZES: [(usize, &str); 3] = [(64, "64B"), (64 << 10, "64KiB"), (1 << 20, "1MiB")];
const WARMUP: usize = 10;
/// Messages of 1 MiB streamed for the bandwidth figure.
const STREAM: usize = 32;
const TAG: u64 = 0x7e57_0000;

struct Micro {
    pingpong_us: [f64; 3],
    bandwidth_mbps: f64,
    allreduce_us: f64,
}

fn rank_body(comm: &mut Comm) -> Result<Option<Micro>, CommError> {
    let me = comm.rank();
    let peer = 1 - me;
    let mut pingpong_us = [0.0; 3];
    for (k, (size, _)) in SIZES.iter().enumerate() {
        let tag = TAG + k as u64;
        let iters = if *size >= 1 << 20 { 30 } else { 200 };
        if me == 0 {
            let mut buf = vec![0u8; *size];
            let mut rtt = Vec::with_capacity(iters);
            for i in 0..WARMUP + iters {
                let t = Instant::now();
                comm.send_vec(peer, tag, buf)?;
                buf = comm.recv(peer, tag)?;
                if i >= WARMUP {
                    rtt.push(t.elapsed().as_secs_f64());
                }
            }
            pingpong_us[k] = median(&rtt) * 1e6;
        } else {
            for _ in 0..WARMUP + iters {
                let echo: Vec<u8> = comm.recv(peer, tag)?;
                comm.send_vec(peer, tag, echo)?;
            }
        }
    }

    let tag = TAG + 16;
    comm.barrier()?;
    let mut bandwidth_mbps = 0.0;
    if me == 0 {
        let msgs: Vec<Vec<u8>> = (0..STREAM).map(|_| vec![1u8; 1 << 20]).collect();
        let t = Instant::now();
        for m in msgs {
            comm.send_vec(peer, tag, m)?;
        }
        let _ack: u8 = comm.recv(peer, tag + 1)?;
        bandwidth_mbps = (STREAM << 20) as f64 / t.elapsed().as_secs_f64() / 1e6;
    } else {
        for _ in 0..STREAM {
            let _: Vec<u8> = comm.recv(peer, tag)?;
        }
        comm.send(peer, tag + 1, 1u8)?;
    }

    let mut lat = Vec::new();
    for i in 0..WARMUP + 200 {
        let t = Instant::now();
        comm.allreduce_sum(1.0)?;
        if i >= WARMUP {
            lat.push(t.elapsed().as_secs_f64());
        }
    }
    Ok((me == 0).then(|| Micro {
        pingpong_us,
        bandwidth_mbps,
        allreduce_us: median(&lat) * 1e6,
    }))
}

fn measure(kind: TransportKind, sock: &Path) -> Result<Micro, String> {
    let (results, _) = match kind {
        TransportKind::Local => nanompi::run(2, rank_body),
        TransportKind::Socket => {
            check_socket_dir(sock, 2)?;
            std::fs::create_dir_all(sock).map_err(|e| e.to_string())?;
            nanompi::run_socket_world(2, SocketAddrSpec::unix(sock), None, rank_body)
        }
    };
    let mut micro = None;
    for r in results {
        match r {
            Ok(Ok(m)) => micro = micro.or(m),
            Ok(Err(e)) => return Err(format!("{} microbenchmark: {e}", kind.as_str())),
            Err(p) => return Err(format!("{} microbenchmark: {p}", kind.as_str())),
        }
    }
    micro.ok_or_else(|| "rank 0 returned no measurement".into())
}

/// Set every `nanompi.*` transport metric.
pub fn run(scratch: &Path, out: &mut Outcome) -> Result<(), String> {
    for kind in [TransportKind::Local, TransportKind::Socket] {
        let m = measure(kind, &scratch.join("nm"))?;
        let name = kind.as_str();
        for (k, (_, suffix)) in SIZES.iter().enumerate() {
            out.set(
                &format!("nanompi.pingpong_us.{name}.{suffix}"),
                m.pingpong_us[k],
            );
        }
        out.set(&format!("nanompi.bandwidth_MBps.{name}"), m.bandwidth_mbps);
        out.set(&format!("nanompi.allreduce_us.{name}"), m.allreduce_us);
    }
    let _ = std::fs::remove_dir_all(scratch.join("nm"));
    Ok(())
}
