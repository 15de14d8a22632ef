//! The simulation engine: owns the network and the event queue, dispatches
//! events, and applies node actions.
//!
//! Single-threaded and fully deterministic: identical inputs produce
//! bit-identical runs (guide idiom — CPU-bound simulation wants an event
//! loop, not an async runtime or thread pool).

use crate::event::{Event, EventQueue};
use crate::ids::{FlowId, NodeId, PortId};
use crate::link::{Link, Links};
use crate::node::{
    CustomAction, CustomCtx, CustomNode, CustomSwitch, Endpoint, EndpointAction, EndpointCtx, Host,
    Node, PortView,
};
use crate::packet::{Packet, PacketKind, CTRL_PKT_BYTES};
use crate::pool::{PacketPool, PoolStats};
use crate::stats::SimStats;
use crate::switch::{Sink, Switch};
use powertcp_core::{IntHeader, IntHopMetadata, Tick};
use std::time::Instant;

/// The static network: nodes and links.
#[derive(Default)]
pub struct Network {
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// All simplex links.
    pub links: Links,
}

impl Network {
    /// Add a node, asserting id/index agreement.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        assert_eq!(node.id(), id, "node id must equal its index");
        self.nodes.push(node);
        id
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Shorthand: the switch at `id` (panics otherwise).
    pub fn switch(&self, id: NodeId) -> &Switch {
        self.node(id).as_switch()
    }

    /// Shorthand: the host at `id` (panics otherwise).
    pub fn host(&self, id: NodeId) -> &Host {
        self.node(id).as_host()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Boxed periodic-observer callback (see [`Simulator::add_tracer`]).
type TracerFn = Box<dyn FnMut(&Network, Tick)>;

/// Periodic observer of network state.
struct Tracer {
    every: Tick,
    f: TracerFn,
}

/// The simulator.
pub struct Simulator {
    /// The network (public: tests and tracers inspect it freely).
    pub net: Network,
    sched: Scheduler,
    tracers: Vec<Tracer>,
    started: bool,
    scratch_endpoint: Vec<EndpointAction>,
    scratch_custom: Vec<CustomAction>,
    /// Reused per-custom-event port-view buffer: rebuilding the views is
    /// cheap, but a fresh `Vec` per event was the last per-event
    /// allocation on the rdcn hot path.
    scratch_views: Vec<PortView>,
    /// Total packets delivered to hosts.
    pub delivered: u64,
    /// Events dispatched so far (all kinds, tracer samples included).
    events_processed: u64,
    /// Wall-clock anchor for [`Simulator::stats`]; set at construction.
    t0: Instant,
}

/// Everything handling an event writes to, apart from the node handling
/// it — one struct, so it can be borrowed whole beside that node.
struct Scheduler {
    queue: EventQueue,
    /// Pending events that are not tracer samples; lets
    /// [`Simulator::run_until_idle`] terminate while tracers self-renew.
    live_events: u64,
    /// Recycled packet boxes (see [`crate::pool`]): endpoint sends draw
    /// from here, and every packet-consuming site returns boxes instead
    /// of freeing them, so the steady-state hot loop allocates nothing.
    pool: PacketPool,
    /// PFC pause/resume frames emitted by switches.
    pfc_frames: u64,
}

impl Scheduler {
    /// Schedule a live (non-tracer) event.
    #[inline]
    fn schedule(&mut self, at: Tick, ev: Event) {
        self.live_events += 1;
        self.queue.schedule(at, ev);
    }

    /// `pkt` starts serializing out of `node`'s `port` now: the port is
    /// free again after `ser`, and the packet lands at the far end of
    /// `wire` one propagation delay later.
    #[inline]
    fn put_on_wire(
        &mut self,
        node: NodeId,
        port: PortId,
        pkt: Box<Packet>,
        ser: Tick,
        wire: &Link,
    ) {
        let done = self.queue.now() + ser;
        self.schedule(done, Event::TxDone { node, port });
        let arrival = Event::Arrival {
            node: wire.dst,
            port: wire.dst_port,
            pkt,
        };
        self.schedule(done + wire.delay, arrival);
    }
}

/// The engine's [`Sink`]: what switch `node` decides while handling the
/// event just popped is scheduled the moment it is decided.
struct SwitchSink<'a> {
    node: NodeId,
    sched: &'a mut Scheduler,
}

impl Sink for SwitchSink<'_> {
    #[inline]
    fn transmit(&mut self, port: PortId, pkt: Box<Packet>, ser: Tick, wire: &Link) {
        self.sched.put_on_wire(self.node, port, pkt, ser, wire);
    }

    fn pfc(&mut self, _port: PortId, wire: &Link, pause: bool) {
        let sched = &mut *self.sched;
        sched.pfc_frames += 1;
        let now = sched.queue.now();
        // PFC frames preempt data on real hardware: model as
        // propagation-only delivery, no serialization queueing.
        let pkt = sched.pool.boxed(Packet {
            flow: FlowId(0),
            src: self.node,
            dst: wire.dst,
            size: CTRL_PKT_BYTES,
            priority: 0,
            ecn_capable: false,
            ecn_ce: false,
            int_enable: false,
            int: IntHeader::new(),
            sent_at: now,
            kind: PacketKind::Pfc { pause },
        });
        let arrival = Event::Arrival {
            node: wire.dst,
            port: wire.dst_port,
            pkt,
        };
        sched.schedule(now + wire.delay, arrival);
    }

    #[inline]
    fn recycle(&mut self, pkt: Box<Packet>) {
        self.sched.pool.recycle(pkt);
    }
}

/// Start transmitting on a host NIC (uplink `wire`) if it is idle,
/// unpaused, and has queued packets.
fn host_kick(h: &mut Host, wire: &Link, sched: &mut Scheduler) {
    if h.busy || h.paused {
        return;
    }
    let Some(pkt) = h.txq.pop_front() else {
        return;
    };
    let size = pkt.size as u64;
    h.txq_bytes -= size;
    h.busy = true;
    h.tx_bytes += size;
    sched.put_on_wire(h.id, PortId(0), pkt, wire.bandwidth.tx_time(size), wire);
}

impl Simulator {
    /// Wrap a built network.
    pub fn new(net: Network) -> Self {
        Simulator {
            net,
            sched: Scheduler {
                queue: EventQueue::new(),
                live_events: 0,
                pool: PacketPool::new(),
                pfc_frames: 0,
            },
            tracers: Vec::new(),
            started: false,
            scratch_endpoint: Vec::new(),
            scratch_custom: Vec::new(),
            scratch_views: Vec::new(),
            delivered: 0,
            events_processed: 0,
            #[expect(
                clippy::disallowed_methods,
                reason = "SimStats wall-clock anchor — observability only, never report bytes"
            )]
            t0: Instant::now(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Tick {
        self.sched.queue.now()
    }

    /// Packet-pool counters (fresh allocations vs reuses) — the
    /// steady-state contract is that reuses dominate.
    pub fn pool_stats(&self) -> PoolStats {
        self.sched.pool.stats()
    }

    /// Register a periodic tracer sampling every `every`.
    pub fn add_tracer(&mut self, every: Tick, f: impl FnMut(&Network, Tick) + 'static) {
        assert!(!every.is_zero(), "tracer interval must be positive");
        let idx = self.tracers.len() as u32;
        self.tracers.push(Tracer {
            every,
            f: Box::new(f),
        });
        self.sched
            .queue
            .schedule(every, Event::Sample { tracer: idx });
    }

    /// Call every endpoint's / custom switch's `on_start` exactly once.
    ///
    /// Every registered tracer also takes a baseline sample at prime time
    /// (before any `on_start` action runs), so gauge traces include a t=0
    /// initial-state row instead of starting one interval late. Tracers
    /// registered after priming miss the baseline. Note that per-flow
    /// probes ([`crate::trace::cc_probe`]) report nothing at the baseline
    /// by construction: transports start flows from t=0 *timers*, which
    /// dispatch after priming, so no flow is active yet — sampling after
    /// `on_start` would not change that, but would let first-packet
    /// transmissions leak into the "initial" gauge readings.
    pub fn prime(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let now = self.sched.queue.now();
        for t in &mut self.tracers {
            (t.f)(&self.net, now);
        }
        for i in 0..self.net.nodes.len() {
            let id = NodeId(i as u32);
            match &self.net.nodes[i] {
                Node::Host(_) => self.host_visit(id, |app, ctx| app.on_start(ctx)),
                Node::Custom(_) => self.custom_visit(id, |logic, ctx| logic.on_start(ctx)),
                Node::Switch(_) => {}
            }
        }
    }

    /// Run until the event at or before `end` (inclusive); primes first.
    pub fn run_until(&mut self, end: Tick) {
        self.prime();
        while let Some((_, ev)) = self.sched.queue.pop_until(end) {
            self.dispatch(ev);
        }
    }

    /// Run until no non-tracer events remain; primes first.
    pub fn run_until_idle(&mut self) {
        self.prime();
        while self.sched.live_events > 0 {
            let (_, ev) = self.sched.queue.pop().expect("live events pending");
            self.dispatch(ev);
        }
    }

    /// Snapshot the engine's run counters (see [`SimStats`]): the two
    /// hot-path counters plus everything the switches, queue, and pool
    /// already track, gathered lazily — calling this is the only cost.
    ///
    /// The snapshot includes wall-clock time, so it is **not**
    /// deterministic; keep it out of report payloads and cache entries.
    pub fn stats(&self) -> SimStats {
        let mut forwarded = 0;
        let mut drops_no_route = 0;
        let mut drops_buffer = 0;
        let mut drops_custom = 0;
        for node in &self.net.nodes {
            match node {
                Node::Switch(sw) => {
                    forwarded += sw.forwarded();
                    drops_no_route += sw.no_route_drops;
                    drops_buffer += sw.total_drops() - sw.no_route_drops;
                }
                Node::Custom(c) => drops_custom += c.drops,
                Node::Host(_) => {}
            }
        }
        let pool = self.sched.pool.stats();
        SimStats {
            events_processed: self.events_processed,
            events_scheduled: self.sched.queue.scheduled(),
            overflow_scheduled: self.sched.queue.overflow_scheduled(),
            batched_visits: 0,
            batched_events: 0,
            delivered: self.delivered,
            forwarded,
            drops_no_route,
            drops_buffer,
            drops_custom,
            pfc_frames: self.sched.pfc_frames,
            pool_fresh: pool.fresh,
            pool_reused: pool.reused,
            wall_ms: self.t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Conservation audit: every byte counter the hot path maintains
    /// incrementally is recomputed from the packets it summarizes, and a
    /// simulation with no event pending must have nothing in flight. Far
    /// too slow for the event loop — tests call it when a run ends.
    ///
    /// Per switch: shared-buffer occupancy = Σ port `queued_bytes` = Σ
    /// sizes of queued packets; a port's class mask marks exactly its
    /// non-empty classes; no packet waits on a port that is neither busy
    /// nor paused; under PFC, per-ingress accounting matches the queued
    /// packets' ingress ports and XOFF is asserted only at or above the
    /// XON level. Per host: `txq_bytes` = Σ queued sizes, nothing waiting
    /// on an idle NIC. With no live event pending (the state
    /// [`Simulator::run_until_idle`] ends in): nothing busy or paused, no
    /// XOFF outstanding. The pool's free list never outgrows the boxes it
    /// allocated (and holds exactly those at idle when every endpoint
    /// recycles what it is delivered — see [`Simulator::pool_stats`]).
    pub fn audit(&self) -> Result<(), String> {
        let idle = self.sched.live_events == 0;
        for node in &self.net.nodes {
            match node {
                Node::Switch(sw) => sw.audit(idle)?,
                Node::Host(h) => {
                    let id = h.id;
                    let bytes: u64 = h.txq.iter().map(|p| p.size as u64).sum();
                    if bytes != h.txq_bytes {
                        return Err(format!(
                            "host {id}: txq_bytes {} but {bytes} B are queued",
                            h.txq_bytes
                        ));
                    }
                    if bytes > 0 && !h.busy && !h.paused {
                        return Err(format!(
                            "host {id}: {bytes} B queued on an idle, unpaused NIC"
                        ));
                    }
                    if idle && (h.busy || h.paused) {
                        return Err(format!(
                            "host {id}: busy = {}, paused = {} with no event pending",
                            h.busy, h.paused
                        ));
                    }
                }
                Node::Custom(c) => {
                    if let Some(p) = c.ports.iter().position(|p| idle && p.busy) {
                        return Err(format!(
                            "custom node {} port {p}: busy with no event pending",
                            c.id
                        ));
                    }
                }
            }
        }
        let pool = self.sched.pool.stats();
        if pool.free as u64 > pool.fresh {
            return Err(format!(
                "packet pool: {} boxes on the free list, {} ever allocated",
                pool.free, pool.fresh
            ));
        }
        Ok(())
    }

    fn dispatch(&mut self, ev: Event) {
        self.events_processed += 1;
        let sched = &mut self.sched;
        let now = sched.queue.now();
        match ev {
            Event::Arrival { node, port, pkt } => {
                sched.live_events -= 1;
                match &mut self.net.nodes[node.index()] {
                    Node::Switch(sw) => sw.receive(port, pkt, now, &mut SwitchSink { node, sched }),
                    Node::Host(h) => {
                        if let PacketKind::Pfc { pause } = pkt.kind {
                            sched.pool.recycle(pkt);
                            h.paused = pause;
                            host_kick(h, self.net.links.get(h.link), sched);
                        } else {
                            self.delivered += 1;
                            self.host_visit(node, |app, ctx| app.on_packet(pkt, ctx));
                        }
                    }
                    Node::Custom(_) => {
                        self.custom_visit(node, |logic, ctx| logic.on_packet(port, pkt, ctx))
                    }
                }
            }
            Event::TxDone { node, port } => {
                sched.live_events -= 1;
                match &mut self.net.nodes[node.index()] {
                    Node::Switch(sw) => sw.tx_done(port, now, &mut SwitchSink { node, sched }),
                    Node::Host(h) => {
                        h.busy = false;
                        host_kick(h, self.net.links.get(h.link), sched);
                    }
                    Node::Custom(c) => {
                        c.ports[port.index()].busy = false;
                        self.custom_visit(node, |logic, ctx| logic.on_tx_done(port, ctx));
                    }
                }
            }
            Event::HostTimer { node, key } => {
                sched.live_events -= 1;
                self.host_visit(node, |app, ctx| app.on_timer(key, ctx));
            }
            Event::NodeTimer { node, key } => {
                sched.live_events -= 1;
                self.custom_visit(node, |logic, ctx| logic.on_timer(key, ctx));
            }
            Event::Sample { tracer } => {
                let t = &mut self.tracers[tracer as usize];
                (t.f)(&self.net, now);
                sched
                    .queue
                    .schedule(now + t.every, Event::Sample { tracer });
            }
        }
    }

    /// Run one endpoint callback on host `node`, then apply the actions
    /// it asked for, in the order it asked.
    fn host_visit(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn Endpoint, &mut EndpointCtx<'_>),
    ) {
        let Node::Host(h) = &mut self.net.nodes[node.index()] else {
            panic!("{node} is not a host");
        };
        let (sched, actions) = (&mut self.sched, &mut self.scratch_endpoint);
        let now = sched.queue.now();
        let wire = self.net.links.get(h.link);
        let mut ctx = EndpointCtx::with_pool(now, node, wire.bandwidth, actions, &mut sched.pool);
        f(h.app.as_mut(), &mut ctx);
        for a in actions.drain(..) {
            match a {
                EndpointAction::Send(pkt) => {
                    h.txq_bytes += pkt.size as u64;
                    h.txq.push_back(pkt);
                    host_kick(h, wire, sched);
                }
                EndpointAction::Timer { at, key } => {
                    sched.schedule(at.max(now), Event::HostTimer { node, key });
                }
            }
        }
    }

    /// Run one callback of custom node `node`'s logic over a fresh view
    /// of its ports, then apply the actions it asked for, in order.
    fn custom_visit(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn CustomSwitch, &mut CustomCtx<'_>),
    ) {
        let Node::Custom(c) = &mut self.net.nodes[node.index()] else {
            panic!("{node} is not a custom node");
        };
        let (sched, links) = (&mut self.sched, &self.net.links);
        let (views, actions) = (&mut self.scratch_views, &mut self.scratch_custom);
        let now = sched.queue.now();
        views.clear();
        views.extend(c.ports.iter().map(|p| {
            let l = links.get(p.link);
            PortView {
                bandwidth: l.bandwidth,
                delay: l.delay,
                busy: p.busy,
                peer: l.dst,
            }
        }));
        f(
            c.logic.as_mut(),
            &mut CustomCtx::new(now, node, views, actions),
        );
        for a in actions.drain(..) {
            match a {
                CustomAction::StartTx {
                    port,
                    mut pkt,
                    int_qlen,
                } => {
                    let raw = &mut c.ports[port.index()];
                    assert!(!raw.busy, "StartTx on busy port {port} of {node}");
                    raw.busy = true;
                    let size = pkt.size as u64;
                    raw.tx_bytes += size;
                    let wire = links.get(raw.link);
                    if let Some(qlen) = int_qlen {
                        if pkt.int_enable && pkt.kind.collects_int() {
                            pkt.int.push(IntHopMetadata {
                                node: node.0,
                                port: port.0,
                                qlen_bytes: qlen,
                                ts: now,
                                tx_bytes: raw.tx_bytes,
                                bandwidth: wire.bandwidth,
                            });
                        }
                    }
                    sched.put_on_wire(node, port, pkt, wire.bandwidth.tx_time(size), wire);
                }
                CustomAction::Timer { at, key } => {
                    sched.schedule(at.max(now), Event::NodeTimer { node, key });
                }
                CustomAction::Drop { pkt } => {
                    c.drops += 1;
                    sched.pool.recycle(pkt);
                }
            }
        }
    }
}

/// Convenience builder for wiring nodes together with paired ports.
pub struct NetworkBuilder {
    net: Network,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkBuilder {
    /// Start an empty network.
    pub fn new() -> Self {
        NetworkBuilder {
            net: Network::default(),
        }
    }

    /// Number of nodes added so far (== the id the next node receives).
    pub fn next_node_id(&self) -> NodeId {
        NodeId(self.net.nodes.len() as u32)
    }

    /// Add a switch with the given config.
    pub fn add_switch(&mut self, cfg: crate::switch::SwitchConfig) -> NodeId {
        let id = self.next_node_id();
        self.net.add_node(Node::Switch(Switch::new(id, cfg)))
    }

    /// Add a host running `app`. The host's NIC link is created by
    /// [`NetworkBuilder::connect_host`]; until then it has a placeholder.
    pub fn add_host(&mut self, app: Box<dyn Endpoint>) -> NodeId {
        let id = self.next_node_id();
        self.net
            .add_node(Node::Host(Host::new(id, crate::ids::LinkId(u32::MAX), app)))
    }

    /// Add a custom node with `n_ports` unconnected ports.
    pub fn add_custom(&mut self, logic: Box<dyn crate::node::CustomSwitch>) -> NodeId {
        let id = self.next_node_id();
        self.net.add_node(Node::Custom(CustomNode {
            id,
            ports: Vec::new(),
            logic,
            drops: 0,
        }))
    }

    /// Register `link` and hang it off switch `sw` as its next egress port.
    fn add_switch_port(&mut self, sw: NodeId, link: Link) -> PortId {
        let id = self.net.links.add(link);
        match &mut self.net.nodes[sw.index()] {
            Node::Switch(s) => s.add_port(id, link),
            _ => panic!("{sw} is not a switch"),
        }
    }

    /// Connect a host to a switch port pair with symmetric bandwidth/delay.
    /// Returns the switch-side port id.
    pub fn connect_host(
        &mut self,
        host: NodeId,
        sw: NodeId,
        bw: powertcp_core::Bandwidth,
        delay: Tick,
    ) -> PortId {
        // Determine the switch port index first (ports pair up).
        let sw_port = PortId(self.net.nodes[sw.index()].as_switch().num_ports() as u16);
        let up = self.net.links.add(Link {
            bandwidth: bw,
            delay,
            dst: sw,
            dst_port: sw_port,
        });
        match &mut self.net.nodes[host.index()] {
            Node::Host(h) => h.link = up,
            _ => panic!("{host} is not a host"),
        }
        let down = Link {
            bandwidth: bw,
            delay,
            dst: host,
            dst_port: PortId(0),
        };
        let p = self.add_switch_port(sw, down);
        debug_assert_eq!(p, sw_port);
        sw_port
    }

    /// Connect two switches with a symmetric link pair; returns
    /// (port at `a`, port at `b`).
    pub fn connect_switches(
        &mut self,
        a: NodeId,
        b: NodeId,
        bw: powertcp_core::Bandwidth,
        delay: Tick,
    ) -> (PortId, PortId) {
        let pa = PortId(self.net.nodes[a.index()].as_switch().num_ports() as u16);
        let pb = PortId(self.net.nodes[b.index()].as_switch().num_ports() as u16);
        for (from, at, to, to_port) in [(a, pa, b, pb), (b, pb, a, pa)] {
            let link = Link {
                bandwidth: bw,
                delay,
                dst: to,
                dst_port: to_port,
            };
            let p = self.add_switch_port(from, link);
            debug_assert_eq!(p, at);
        }
        (pa, pb)
    }

    /// Connect a custom node's next port to a switch; returns
    /// (custom port, switch port).
    pub fn connect_custom_to_switch(
        &mut self,
        custom: NodeId,
        sw: NodeId,
        bw: powertcp_core::Bandwidth,
        delay: Tick,
    ) -> (PortId, PortId) {
        let pc = PortId(match &self.net.nodes[custom.index()] {
            Node::Custom(c) => c.ports.len() as u16,
            _ => panic!("{custom} is not a custom node"),
        });
        let ps = PortId(self.net.nodes[sw.index()].as_switch().num_ports() as u16);
        let c2s = self.net.links.add(Link {
            bandwidth: bw,
            delay,
            dst: sw,
            dst_port: ps,
        });
        let s2c = Link {
            bandwidth: bw,
            delay,
            dst: custom,
            dst_port: pc,
        };
        let p = self.add_switch_port(sw, s2c);
        debug_assert_eq!(p, ps);
        match &mut self.net.nodes[custom.index()] {
            Node::Custom(c) => c.ports.push(crate::node::RawPort {
                link: c2s,
                busy: false,
                tx_bytes: 0,
            }),
            _ => unreachable!(),
        }
        (pc, ps)
    }

    /// Connect two custom nodes; returns (port at `a`, port at `b`).
    pub fn connect_customs(
        &mut self,
        a: NodeId,
        b: NodeId,
        bw: powertcp_core::Bandwidth,
        delay: Tick,
    ) -> (PortId, PortId) {
        let pa = PortId(match &self.net.nodes[a.index()] {
            Node::Custom(c) => c.ports.len() as u16,
            _ => panic!("{a} is not a custom node"),
        });
        let pb = PortId(match &self.net.nodes[b.index()] {
            Node::Custom(c) => c.ports.len() as u16,
            _ => panic!("{b} is not a custom node"),
        });
        let ab = self.net.links.add(Link {
            bandwidth: bw,
            delay,
            dst: b,
            dst_port: pb,
        });
        let ba = self.net.links.add(Link {
            bandwidth: bw,
            delay,
            dst: a,
            dst_port: pa,
        });
        for (n, l) in [(a, ab), (b, ba)] {
            match &mut self.net.nodes[n.index()] {
                Node::Custom(c) => c.ports.push(crate::node::RawPort {
                    link: l,
                    busy: false,
                    tx_bytes: 0,
                }),
                _ => unreachable!(),
            }
        }
        (pa, pb)
    }

    /// Connect a host directly to a custom node (RDCN topologies attach
    /// hosts to VOQ ToRs). Returns the custom-side port.
    pub fn connect_host_to_custom(
        &mut self,
        host: NodeId,
        custom: NodeId,
        bw: powertcp_core::Bandwidth,
        delay: Tick,
    ) -> PortId {
        let pc = PortId(match &self.net.nodes[custom.index()] {
            Node::Custom(c) => c.ports.len() as u16,
            _ => panic!("{custom} is not a custom node"),
        });
        let up = self.net.links.add(Link {
            bandwidth: bw,
            delay,
            dst: custom,
            dst_port: pc,
        });
        let down = self.net.links.add(Link {
            bandwidth: bw,
            delay,
            dst: host,
            dst_port: PortId(0),
        });
        match &mut self.net.nodes[host.index()] {
            Node::Host(h) => h.link = up,
            _ => panic!("{host} is not a host"),
        }
        match &mut self.net.nodes[custom.index()] {
            Node::Custom(c) => c.ports.push(crate::node::RawPort {
                link: down,
                busy: false,
                tx_bytes: 0,
            }),
            _ => unreachable!(),
        }
        pc
    }

    /// Finish building: every switch's route table is arena-built here,
    /// sized to the final node count, so `set_route` is a checked store
    /// and `route_for` a plain index — no incremental `resize_with`
    /// growth on any path after construction.
    pub fn build(self) -> Network {
        let mut net = self.net;
        let n = net.nodes.len();
        for node in &mut net.nodes {
            if let Node::Switch(s) = node {
                s.init_routes(n);
            }
        }
        net
    }
}
