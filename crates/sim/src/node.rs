//! Nodes: hosts (running pluggable endpoint logic), switches, and custom
//! switches (pluggable forwarding logic, e.g. the RDCN VOQ ToR).
//!
//! The event engine owns all nodes; endpoint and custom-switch logic are
//! the only dynamically-dispatched parts. An endpoint drives its host's
//! NIC and the event queue directly through [`EndpointCtx`], custom-switch
//! logic its node's ports through [`CustomCtx`] — no callbacks into the
//! engine, no shared mutability, fully deterministic replay.

use crate::engine::Scheduler;
use crate::event::Event;
use crate::ids::{NodeId, PortId};
use crate::link::{Egress, Link};
use crate::packet::Packet;
use crate::switch::Switch;
use powertcp_core::{Bandwidth, Tick};
use std::collections::VecDeque;

/// Context handed to endpoint callbacks: the host's NIC and the engine's
/// event queue and packet pool. Every method acts at once, so the order
/// an endpoint calls them in is the order their events are scheduled in.
pub struct EndpointCtx<'a> {
    /// Current simulation time.
    pub now: Tick,
    /// The host this endpoint runs on.
    pub node: NodeId,
    /// Bandwidth of the host NIC link.
    pub nic_bw: Bandwidth,
    pub(crate) nic: &'a mut Nic,
    pub(crate) sched: &'a mut Scheduler,
}

impl EndpointCtx<'_> {
    /// Send a packet on the host NIC, in a box drawn from the
    /// simulator's pool: onto the wire at once if the NIC is idle, else
    /// behind what it has queued.
    pub fn send(&mut self, pkt: Packet) {
        let boxed = self.sched.pool.boxed(pkt);
        self.send_boxed(boxed);
    }

    /// Send an already-boxed packet as [`EndpointCtx::send`] does — the
    /// zero-copy path for endpoints that transform a delivered packet in place
    /// (e.g. [`crate::packet::Packet::into_ack`]) and send the same box
    /// back instead of recycling it and building a fresh packet.
    pub fn send_boxed(&mut self, pkt: Box<Packet>) {
        let nic = &mut *self.nic;
        if nic.tx.busy || nic.paused {
            nic.txq_bytes += pkt.size as u64;
            nic.txq.push_back(pkt);
        } else {
            // An idle, unpaused NIC holds no queue (`Simulator::audit`).
            debug_assert!(nic.txq.is_empty(), "{}: idle NIC with a queue", self.node);
            nic.start(self.node, pkt, self.sched);
        }
    }

    /// Return a consumed packet's box to the simulator's pool. Endpoints
    /// call this for every delivered packet they are done with.
    pub fn recycle(&mut self, pkt: Box<Packet>) {
        self.sched.pool.recycle(pkt);
    }

    /// Schedule a timer callback at absolute time `at` (no earlier than
    /// now) with an opaque key. Timers cannot be cancelled; stale timers
    /// should be recognized by key and ignored by the endpoint (lazy
    /// cancellation).
    pub fn set_timer(&mut self, at: Tick, key: u64) {
        let node = self.node;
        self.sched
            .schedule(at.max(self.now), Event::HostTimer { node, key });
    }
}

/// One per-flow congestion-control observation, as exposed by a host
/// endpoint to telemetry probes (see [`crate::trace::cc_probe`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CcFlowSample {
    /// The flow.
    pub flow: crate::ids::FlowId,
    /// Current congestion window in bytes.
    pub cwnd_bytes: f64,
    /// Current pacing rate.
    pub pacing: Bandwidth,
    /// Smoothed normalized power Γ, for power-based algorithms.
    pub norm_power: Option<f64>,
}

/// Host-resident logic (the transport layer lives behind this trait).
pub trait Endpoint {
    /// Called once before the simulation starts (schedule initial flows).
    fn on_start(&mut self, _ctx: &mut EndpointCtx<'_>) {}

    /// A packet arrived at this host. Implementations should hand the box
    /// back via [`EndpointCtx::recycle`] once they are done with it so the
    /// simulator's packet pool can reuse it (dropping it instead is
    /// correct but costs an allocator round-trip per packet).
    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>);

    /// A previously-set timer fired.
    fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>);

    /// Probe hook: append one [`CcFlowSample`] per *active* sender flow
    /// (started, not yet complete), in flow start order. Default: none —
    /// transports without per-flow windows (receiver-driven HOMA, test
    /// sinks) stay silent.
    fn cc_samples(&self, _out: &mut Vec<CcFlowSample>) {}
}

/// A no-op endpoint for hosts that only sink traffic in tests.
#[derive(Default)]
pub struct NullEndpoint;

impl Endpoint for NullEndpoint {
    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        ctx.recycle(pkt);
    }
    fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
}

/// A host's NIC: one egress port behind a FIFO.
pub struct Nic {
    /// The port and its uplink to the ToR.
    pub tx: Egress,
    /// Transmit queue (FIFO; the transport self-limits its depth through
    /// windows and pacing, mirroring real NIC behaviour).
    pub txq: VecDeque<Box<Packet>>,
    /// Bytes currently queued in the NIC.
    pub txq_bytes: u64,
    /// Paused by PFC from the ToR.
    pub paused: bool,
}

impl Nic {
    /// Start transmitting on `node`'s NIC if it is idle, unpaused, and
    /// has queued packets.
    pub(crate) fn kick(&mut self, node: NodeId, sched: &mut Scheduler) {
        if self.tx.busy || self.paused {
            return;
        }
        let Some(pkt) = self.txq.pop_front() else {
            return;
        };
        self.txq_bytes -= pkt.size as u64;
        self.start(node, pkt, sched);
    }

    /// Put `pkt` on the idle NIC's wire.
    fn start(&mut self, node: NodeId, mut pkt: Box<Packet>, sched: &mut Scheduler) {
        let ser = self.tx.begin(&mut pkt, node, PortId(0), sched.now(), None);
        sched.put_on_wire(node, PortId(0), pkt, ser, self.tx.wire());
    }
}

/// A host: one NIC plus endpoint logic.
pub struct Host {
    /// This host's id.
    pub id: NodeId,
    /// The NIC.
    pub nic: Nic,
    /// Endpoint logic.
    pub app: Box<dyn Endpoint>,
}

impl Host {
    /// Create a host whose NIC is not cabled yet: its wire loops back to
    /// the host itself until [`crate::engine::NetworkBuilder::connect`]
    /// replaces it.
    pub fn new(id: NodeId, app: Box<dyn Endpoint>) -> Self {
        let loopback = Link {
            bandwidth: Bandwidth::ZERO,
            delay: Tick::ZERO,
            dst: id,
            dst_port: PortId(0),
        };
        Host {
            id,
            nic: Nic {
                tx: Egress::new(loopback),
                txq: VecDeque::new(),
                txq_bytes: 0,
                paused: false,
            },
            app,
        }
    }

    /// Has the NIC been connected to a peer?
    pub(crate) fn is_cabled(&self) -> bool {
        self.nic.tx.wire().dst != self.id
    }
}

/// Context handed to custom-switch callbacks: the node's ports and drop
/// counter and the engine's event queue and packet pool. Like
/// [`EndpointCtx`], every method acts at once, so the order the logic
/// calls them in is the order their events are scheduled in.
pub struct CustomCtx<'a> {
    /// Current simulation time.
    pub now: Tick,
    /// This node.
    pub node: NodeId,
    pub(crate) ports: &'a mut [Egress],
    pub(crate) drops: &'a mut u64,
    pub(crate) sched: &'a mut Scheduler,
}

impl CustomCtx<'_> {
    /// Per-port state: the wire (bandwidth, delay, peer) and whether the
    /// port is serializing.
    pub fn ports(&self) -> &[Egress] {
        self.ports
    }

    /// Begin serializing `pkt` on `port`, which must be idle —
    /// transmitting on a busy port is a logic error in the switch
    /// implementation, not a runtime condition. If `int_qlen` is
    /// `Some(qlen)`, INT metadata is appended with this queue length
    /// (custom switches own their queues, so they report occupancy).
    pub fn start_tx(&mut self, port: PortId, mut pkt: Box<Packet>, int_qlen: Option<u64>) {
        let node = self.node;
        let tx = &mut self.ports[port.index()];
        assert!(!tx.busy, "start_tx on busy port {port} of {node}");
        let ser = tx.begin(&mut pkt, node, port, self.now, int_qlen);
        self.sched.put_on_wire(node, port, pkt, ser, tx.wire());
    }

    /// Request a [`crate::event::Event::NodeTimer`] callback at absolute
    /// time `at` (no earlier than now) with an opaque key.
    pub fn set_timer(&mut self, at: Tick, key: u64) {
        let node = self.node;
        self.sched
            .schedule(at.max(self.now), Event::NodeTimer { node, key });
    }

    /// Count a packet as dropped (for statistics) and recycle its box
    /// into the simulator's packet pool.
    pub fn drop_packet(&mut self, pkt: Box<Packet>) {
        *self.drops += 1;
        self.sched.pool.recycle(pkt);
    }
}

/// Pluggable forwarding logic for nodes the stock [`Switch`] cannot model
/// (e.g. VOQ ToRs with circuit-schedule awareness, or the optical circuit
/// switch itself).
pub trait CustomSwitch {
    /// Called once before the simulation starts.
    fn on_start(&mut self, _ctx: &mut CustomCtx<'_>) {}

    /// A packet arrived on `port`.
    fn on_packet(&mut self, port: PortId, pkt: Box<Packet>, ctx: &mut CustomCtx<'_>);

    /// A transmission started earlier on `port` completed; the port is idle
    /// again and more work may be started.
    fn on_tx_done(&mut self, port: PortId, ctx: &mut CustomCtx<'_>);

    /// A previously-set timer fired.
    fn on_timer(&mut self, key: u64, ctx: &mut CustomCtx<'_>);
}

/// Engine-owned wrapper around custom switch logic.
pub struct CustomNode {
    /// This node's id.
    pub id: NodeId,
    /// Egress ports (serialization state only; queueing is the custom
    /// logic's business).
    pub ports: Vec<Egress>,
    /// The logic.
    pub logic: Box<dyn CustomSwitch>,
    /// Packets dropped by the logic.
    pub drops: u64,
}

/// A node in the network.
pub enum Node {
    /// Stock output-queued shared-buffer switch.
    Switch(Switch),
    /// Host with endpoint logic.
    Host(Host),
    /// Custom forwarding logic.
    Custom(CustomNode),
}

impl Node {
    /// The node's id.
    pub fn id(&self) -> NodeId {
        match self {
            Node::Switch(s) => s.id,
            Node::Host(h) => h.id,
            Node::Custom(c) => c.id,
        }
    }

    /// The id [`Node::attach`] will give this node's next port. A host
    /// has one NIC: asking for a second port panics.
    pub(crate) fn next_port(&self) -> PortId {
        match self {
            Node::Switch(s) => PortId::next(s.id, s.num_ports()),
            Node::Custom(c) => PortId::next(c.id, c.ports.len()),
            Node::Host(h) => {
                let peer = h.nic.tx.wire().dst;
                assert!(
                    !h.is_cabled(),
                    "host {} is already connected to {peer}: a host has one NIC",
                    h.id
                );
                PortId(0)
            }
        }
    }

    /// Cable this node's next port onto `wire`: a switch or a custom node
    /// grows a port, a host plugs in its NIC. Returns the port's id.
    pub(crate) fn attach(&mut self, wire: Link) -> PortId {
        let port = self.next_port();
        match self {
            Node::Switch(s) => assert_eq!(s.add_port(wire), port),
            Node::Custom(c) => c.ports.push(Egress::new(wire)),
            // A fresh port: the loopback one never transmitted.
            Node::Host(h) => h.nic.tx = Egress::new(wire),
        }
        port
    }
}
