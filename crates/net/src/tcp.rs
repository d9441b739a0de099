//! TCP transport — the paper's same-machine and cross-machine TCP/IP
//! rows of Figure 5.1.
//!
//! The cross-machine rows run over the simulated WAN: loopback TCP with
//! both ends wrapped in a [`FaultPlan`] whose only setting is
//! [`latency`](FaultPlan::latency), so every frame sent in either
//! direction is held for the one-way latency and a round trip pays two.

use crate::channel::{Channel, MsgReader, MsgWriter};
use crate::endpoint::Endpoint;
use crate::error::NetResult;
use crate::fault::{FaultPlan, FaultyChannel};
use crate::frame::{read_frame_pooled, Frame};
use crate::Listener;
use clam_xdr::BufferPool;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

struct TcpWriter {
    stream: TcpStream,
    pool: Option<BufferPool>,
}

impl MsgWriter for TcpWriter {
    fn send(&mut self, frame: Frame) -> NetResult<()> {
        // The frame already is its wire image: one write_all, no copy.
        self.stream.write_all(frame.wire())?;
        if let Some(pool) = &self.pool {
            pool.recycle(frame.into_wire());
        }
        Ok(())
    }

    fn attach_pool(&mut self, pool: &BufferPool) {
        self.pool = Some(pool.clone());
    }
}

struct TcpMsgReader {
    stream: BufReader<TcpStream>,
    pool: Option<BufferPool>,
}

impl MsgReader for TcpMsgReader {
    fn recv(&mut self) -> NetResult<Frame> {
        read_frame_pooled(&mut self.stream, self.pool.as_ref())
    }

    fn attach_pool(&mut self, pool: &BufferPool) {
        self.pool = Some(pool.clone());
    }
}

pub(crate) fn channel_from_stream(label: &str, stream: TcpStream) -> NetResult<Channel> {
    // An RPC round trip is a small write each way; Nagle would add 40 ms
    // class delays, drowning the measurement the benches exist to take.
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    Ok(Channel::from_halves(
        label,
        Box::new(TcpWriter { stream, pool: None }),
        Box::new(TcpMsgReader {
            stream: BufReader::new(read_half),
            pool: None,
        }),
    ))
}

/// Wrap `channel` as one end of the simulated WAN when `wan_latency` is
/// set. The label head becomes `wan`, so the link meters as its own
/// transport kind (`net.*.wan`) on top of the TCP layer underneath.
fn wan_end(channel: Channel, wan_latency: Option<Duration>) -> Channel {
    let Some(latency) = wan_latency else {
        return channel;
    };
    let label = format!("wan-{}", channel.label());
    let (writer, reader) = channel.split();
    let plan = FaultPlan {
        latency,
        ..FaultPlan::default()
    };
    let (writer, _) = FaultyChannel::wrap_writer(writer, plan);
    Channel::from_halves(label, writer, reader)
}

struct TcpChannelListener {
    listener: TcpListener,
    addr: String,
    /// `Some` for a simulated-WAN listener (see [`wan_end`]).
    wan_latency: Option<Duration>,
}

impl Listener for TcpChannelListener {
    fn accept(&self) -> NetResult<Channel> {
        let (stream, _) = self.listener.accept()?;
        let channel = channel_from_stream("tcp-server", stream)?;
        Ok(wan_end(channel, self.wan_latency))
    }

    fn endpoint(&self) -> Endpoint {
        let addr = self.addr.clone();
        match self.wan_latency {
            None => Endpoint::Tcp(addr),
            Some(one_way_latency) => Endpoint::Wan {
                addr,
                one_way_latency,
            },
        }
    }
}

/// Listen on `addr`; with `wan_latency`, as the simulated WAN.
pub(crate) fn listen(addr: &str, wan_latency: Option<Duration>) -> NetResult<Arc<dyn Listener>> {
    let listener = TcpListener::bind(addr)?;
    let actual = listener.local_addr()?;
    Ok(Arc::new(TcpChannelListener {
        listener,
        addr: actual.to_string(),
        wan_latency,
    }))
}

/// Connect to `addr`; with `wan_latency`, as the simulated WAN.
pub(crate) fn connect(addr: &str, wan_latency: Option<Duration>) -> NetResult<Channel> {
    let stream = TcpStream::connect(addr)?;
    Ok(wan_end(
        channel_from_stream("tcp-client", stream)?,
        wan_latency,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connect as net_connect, listen as net_listen};

    #[test]
    fn tcp_round_trip_with_ephemeral_port() {
        let l = net_listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
        let ep = l.endpoint();
        assert_ne!(ep.to_string(), "tcp://127.0.0.1:0", "port was resolved");
        let mut c = net_connect(&ep).unwrap();
        let mut s = l.accept().unwrap();
        c.send(b"over tcp").unwrap();
        assert_eq!(s.recv().unwrap(), b"over tcp");
        s.send(b"back").unwrap();
        assert_eq!(c.recv().unwrap(), b"back");
    }

    #[test]
    fn large_frames_cross_tcp() {
        let l = net_listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
        let mut c = net_connect(&l.endpoint()).unwrap();
        let mut s = l.accept().unwrap();
        let big = vec![0x5au8; 1 << 20];
        c.send(&big).unwrap();
        assert_eq!(s.recv().unwrap(), big);
    }

    #[test]
    fn wan_round_trip_pays_two_one_way_latencies() {
        let ep = Endpoint::Wan {
            addr: "127.0.0.1:0".to_string(),
            one_way_latency: Duration::from_millis(5),
        };
        let l = net_listen(&ep).unwrap();
        let mut c = net_connect(&l.endpoint()).unwrap();
        let mut s = l.accept().unwrap();
        assert!(c.label().starts_with("wan-") && s.label().starts_with("wan-"));

        let start = std::time::Instant::now();
        c.send(b"req").unwrap();
        assert_eq!(s.recv().unwrap(), b"req");
        s.send(b"resp").unwrap();
        assert_eq!(c.recv().unwrap(), b"resp");
        let rtt = start.elapsed();
        assert!(
            rtt >= Duration::from_millis(10),
            "round trip {rtt:?} must include both one-way delays"
        );
    }

    #[test]
    fn wan_endpoint_carries_resolved_port_and_latency() {
        let latency = Duration::from_micros(100);
        let l = net_listen(&Endpoint::Wan {
            addr: "127.0.0.1:0".to_string(),
            one_way_latency: latency,
        })
        .unwrap();
        match l.endpoint() {
            Endpoint::Wan {
                addr,
                one_way_latency,
            } => {
                assert!(!addr.ends_with(":0"));
                assert_eq!(one_way_latency, latency);
            }
            other => panic!("unexpected endpoint {other}"),
        }
    }

    #[test]
    fn connection_refused_is_io_error() {
        // Port 1 on localhost is essentially never listening.
        let err = net_connect(&Endpoint::tcp("127.0.0.1:1")).unwrap_err();
        assert!(!err.is_closed());
    }
}
