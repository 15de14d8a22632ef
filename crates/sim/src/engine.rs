//! The simulation engine: owns the network and the event queue, and
//! dispatches events to the nodes.
//!
//! Single-threaded and fully deterministic: identical inputs produce
//! bit-identical runs (guide idiom — CPU-bound simulation wants an event
//! loop, not an async runtime or thread pool).

use crate::event::{Event, EventQueue};
use crate::ids::{FlowId, NodeId, PortId};
use crate::link::Link;
use crate::node::{CustomCtx, CustomNode, CustomSwitch, Endpoint, EndpointCtx, Host, Node};
use crate::packet::{Packet, PacketKind, CTRL_PKT_BYTES};
use crate::pool::{PacketPool, PoolStats};
use crate::stats::SimStats;
use crate::switch::{Sink, Switch, SwitchConfig};
use powertcp_core::{Bandwidth, IntHeader, Tick};
use std::time::Instant;

/// The static network: the nodes, each owning the wires it transmits on.
#[derive(Default)]
pub struct Network {
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
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
        match self.node(id) {
            Node::Switch(s) => s,
            _ => panic!("node {id} is not a switch"),
        }
    }

    /// Shorthand: the switch at `id`, mutably (panics otherwise).
    pub fn switch_mut(&mut self, id: NodeId) -> &mut Switch {
        match self.node_mut(id) {
            Node::Switch(s) => s,
            _ => panic!("node {id} is not a switch"),
        }
    }

    /// Shorthand: the host at `id` (panics otherwise).
    pub fn host(&self, id: NodeId) -> &Host {
        match self.node(id) {
            Node::Host(h) => h,
            _ => panic!("node {id} is not a host"),
        }
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
    /// Total packets delivered to hosts.
    pub delivered: u64,
    /// Events dispatched so far (all kinds, tracer samples included).
    events_processed: u64,
    /// Wall-clock anchor for [`Simulator::stats`]; set at construction.
    t0: Instant,
}

/// Everything handling an event writes to, apart from the node handling
/// it — one struct, so it can be borrowed whole beside that node (and
/// lent to the logic running on it: [`EndpointCtx`], [`CustomCtx`]).
pub(crate) struct Scheduler {
    queue: EventQueue,
    /// Pending events that are not tracer samples; lets
    /// [`Simulator::run_until_idle`] terminate while tracers self-renew.
    live_events: u64,
    /// Recycled packet boxes (see [`crate::pool`]): endpoint sends draw
    /// from here, and every packet-consuming site returns boxes instead
    /// of freeing them, so the steady-state hot loop allocates nothing.
    pub(crate) pool: PacketPool,
    /// PFC pause/resume frames emitted by switches.
    pfc_frames: u64,
    /// Packets in flight on a wire: raised where one goes on
    /// ([`Scheduler::land`]), lowered where one comes off (the `Arrival`
    /// arm of `dispatch`). Read only by [`Simulator::audit`].
    on_wire: u64,
}

impl Scheduler {
    /// Current simulation time.
    #[inline]
    pub(crate) fn now(&self) -> Tick {
        self.queue.now()
    }

    /// Schedule a live (non-tracer) event.
    #[inline]
    pub(crate) fn schedule(&mut self, at: Tick, ev: Event) {
        self.live_events += 1;
        self.queue.schedule(at, ev);
    }

    /// `pkt` starts serializing out of `node`'s `port` now: the port is
    /// free again after `ser`, and the packet lands at the far end of
    /// `wire` one propagation delay later.
    #[inline]
    pub(crate) fn put_on_wire(
        &mut self,
        node: NodeId,
        port: PortId,
        pkt: Box<Packet>,
        ser: Tick,
        wire: &Link,
    ) {
        let done = self.queue.now() + ser;
        self.schedule(done, Event::TxDone { node, port });
        self.land(done + wire.delay, wire, pkt);
    }

    /// `pkt` reaches the far end of `wire` at `at`: the one place a
    /// packet goes on a wire.
    #[inline]
    fn land(&mut self, at: Tick, wire: &Link, pkt: Box<Packet>) {
        self.on_wire += 1;
        let (node, port) = (wire.dst, wire.dst_port);
        self.schedule(at, Event::Arrival { node, port, pkt });
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
        sched.land(now + wire.delay, wire, pkt);
    }

    #[inline]
    fn recycle(&mut self, pkt: Box<Packet>) {
        self.sched.pool.recycle(pkt);
    }
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
                on_wire: 0,
            },
            tracers: Vec::new(),
            started: false,
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

    /// Register a periodic tracer sampling every `every`, first one
    /// interval from now. A tracer registered before the run starts also
    /// gets a baseline row (see [`Simulator::prime`]); one registered
    /// later gets none and starts one interval on.
    pub fn add_tracer(&mut self, every: Tick, f: impl FnMut(&Network, Tick) + 'static) {
        assert!(!every.is_zero(), "tracer interval must be positive");
        let idx = self.tracers.len() as u32;
        self.tracers.push(Tracer {
            every,
            f: Box::new(f),
        });
        let first = self.now() + every;
        self.sched
            .queue
            .schedule(first, Event::Sample { tracer: idx });
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
    /// XOFF outstanding, nothing on a wire.
    ///
    /// Packets: every box in the engine's sight — in a switch queue, in a
    /// NIC queue, on a wire — came out of the pool and has not gone back,
    /// so they number at most `fresh − free`. The rest are where the
    /// engine cannot look: inside a custom node's own queues, held or
    /// dropped by an endpoint. [`Simulator::audit_closed`] is for runs
    /// with no such place.
    pub fn audit(&self) -> Result<(), String> {
        self.audit_boxes(false)
    }

    /// [`Simulator::audit`] for a simulation where every endpoint
    /// recycles what it is delivered, between callbacks holds no box of
    /// its own, and no custom node queues packets: the boxes the pool has
    /// out are exactly the ones queued or on a wire.
    pub fn audit_closed(&self) -> Result<(), String> {
        self.audit_boxes(true)
    }

    fn audit_boxes(&self, closed: bool) -> Result<(), String> {
        let idle = self.sched.live_events == 0;
        let on_wire = self.sched.on_wire;
        if idle && on_wire != 0 {
            return Err(format!("{on_wire} packets on a wire with no event pending"));
        }
        let mut queued = 0;
        for node in &self.net.nodes {
            match node {
                Node::Switch(sw) => {
                    sw.audit(idle)?;
                    queued += sw.queued_packets();
                }
                Node::Host(Host { id, nic, .. }) => {
                    let bytes: u64 = nic.txq.iter().map(|p| p.size as u64).sum();
                    nic.tx
                        .audit(nic.paused, nic.txq_bytes, bytes, idle)
                        .map_err(|e| format!("host {id}: {e}"))?;
                    queued += nic.txq.len();
                }
                // Its queues are the logic's own: only the ports show.
                Node::Custom(c) => {
                    for (p, tx) in c.ports.iter().enumerate() {
                        tx.audit(false, 0, 0, idle)
                            .map_err(|e| format!("custom node {} port {p}: {e}", c.id))?;
                    }
                }
            }
        }
        let pool = self.sched.pool.stats();
        let in_sight = queued as u64 + on_wire;
        match pool.fresh.checked_sub(pool.free as u64) {
            None => Err(format!(
                "packet pool: {} boxes on the free list, {} ever allocated",
                pool.free, pool.fresh
            )),
            Some(out) if out < in_sight || (closed && out != in_sight) => Err(format!(
                "packet pool: {out} boxes out, but {queued} are queued and {on_wire} on a wire"
            )),
            Some(_) => Ok(()),
        }
    }

    fn dispatch(&mut self, ev: Event) {
        self.events_processed += 1;
        let sched = &mut self.sched;
        let now = sched.queue.now();
        match ev {
            Event::Arrival { node, port, pkt } => {
                sched.live_events -= 1;
                sched.on_wire -= 1;
                match &mut self.net.nodes[node.index()] {
                    Node::Switch(sw) => sw.receive(port, pkt, now, &mut SwitchSink { node, sched }),
                    Node::Host(h) => {
                        if let PacketKind::Pfc { pause } = pkt.kind {
                            sched.pool.recycle(pkt);
                            h.nic.paused = pause;
                            h.nic.kick(node, sched);
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
                        h.nic.tx.busy = false;
                        h.nic.kick(node, sched);
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

    /// Run one endpoint callback on host `node`, with its NIC and the
    /// scheduler in hand: what it sends and sets happens as it asks.
    fn host_visit(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn Endpoint, &mut EndpointCtx<'_>),
    ) {
        let Node::Host(h) = &mut self.net.nodes[node.index()] else {
            panic!("{node} is not a host");
        };
        let mut ctx = EndpointCtx {
            now: self.sched.now(),
            node,
            nic_bw: h.nic.tx.wire().bandwidth,
            nic: &mut h.nic,
            sched: &mut self.sched,
        };
        f(h.app.as_mut(), &mut ctx);
    }

    /// Run one callback of custom node `node`'s logic, with its ports,
    /// its drop counter and the scheduler in hand: what it transmits,
    /// sets and drops happens as it asks.
    fn custom_visit(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn CustomSwitch, &mut CustomCtx<'_>),
    ) {
        let Node::Custom(c) = &mut self.net.nodes[node.index()] else {
            panic!("{node} is not a custom node");
        };
        let mut ctx = CustomCtx {
            now: self.sched.now(),
            node,
            ports: &mut c.ports,
            drops: &mut c.drops,
            sched: &mut self.sched,
        };
        f(c.logic.as_mut(), &mut ctx);
    }
}

/// Convenience builder for wiring nodes together with paired ports.
#[derive(Default)]
pub struct NetworkBuilder {
    net: Network,
}

impl NetworkBuilder {
    /// Start an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes added so far (== the id the next node receives).
    pub fn next_node_id(&self) -> NodeId {
        NodeId(self.net.nodes.len() as u32)
    }

    /// Add a switch with the given config.
    pub fn add_switch(&mut self, cfg: SwitchConfig) -> NodeId {
        let id = self.next_node_id();
        self.net.add_node(Node::Switch(Switch::new(id, cfg)))
    }

    /// Add a host running `app`; [`NetworkBuilder::connect`] it to its
    /// ToR before [`NetworkBuilder::build`].
    pub fn add_host(&mut self, app: Box<dyn Endpoint>) -> NodeId {
        let id = self.next_node_id();
        self.net.add_node(Node::Host(Host::new(id, app)))
    }

    /// Add a custom node; its ports come from [`NetworkBuilder::connect`].
    pub fn add_custom(&mut self, logic: Box<dyn CustomSwitch>) -> NodeId {
        let id = self.next_node_id();
        self.net.add_node(Node::Custom(CustomNode {
            id,
            ports: Vec::new(),
            logic,
            drops: 0,
        }))
    }

    /// Cable any two nodes with a symmetric pair of wires: each end gets
    /// its next port (a host, its one NIC — port 0), and each wire lands
    /// on the other end's. Returns (port at `a`, port at `b`).
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        bw: Bandwidth,
        delay: Tick,
    ) -> (PortId, PortId) {
        assert_ne!(a, b, "cannot connect {a} to itself");
        let wire = |dst, dst_port| Link {
            bandwidth: bw,
            delay,
            dst,
            dst_port,
        };
        // `a`'s wire has to name the port `b` is about to get.
        let pb = self.net.node(b).next_port();
        let pa = self.net.node_mut(a).attach(wire(b, pb));
        let at_b = self.net.node_mut(b).attach(wire(a, pa));
        assert_eq!(at_b, pb, "{b} grew a port between the two ends of a cable");
        (pa, pb)
    }

    /// Finish building. Every switch's route table is arena-built here,
    /// sized to the final node count, so `set_route` is a checked store
    /// and `route_for` a plain index — no incremental `resize_with`
    /// growth on any path after construction. Panics on a host that was
    /// never connected: its first send would go nowhere.
    pub fn build(self) -> Network {
        let mut net = self.net;
        let n = net.nodes.len();
        for node in &mut net.nodes {
            match node {
                Node::Switch(s) => s.init_routes(n),
                Node::Host(h) => assert!(h.is_cabled(), "host {} was never connected", h.id),
                Node::Custom(_) => {}
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Egress;
    use crate::node::NullEndpoint;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Inert;

    impl CustomSwitch for Inert {
        fn on_packet(&mut self, _port: PortId, _pkt: Box<Packet>, _ctx: &mut CustomCtx<'_>) {}
        fn on_tx_done(&mut self, _port: PortId, _ctx: &mut CustomCtx<'_>) {}
        fn on_timer(&mut self, _key: u64, _ctx: &mut CustomCtx<'_>) {}
    }

    const BW: Bandwidth = Bandwidth::gbps(25);
    const DELAY: Tick = Tick::from_micros(1);

    /// Bounces the packet it is sent back out of port 0 and sets timer 7
    /// for the tick the `TxDone` falls on, `timer_first` deciding which of
    /// the two it asks for first (and then, if `twice`, transmits again
    /// on the port it has just made busy). Logs the callbacks it gets.
    struct Ordered {
        timer_first: bool,
        twice: bool,
        log: Rc<RefCell<Vec<&'static str>>>,
    }

    impl CustomSwitch for Ordered {
        fn on_packet(&mut self, port: PortId, pkt: Box<Packet>, ctx: &mut CustomCtx<'_>) {
            let again = pkt.clone();
            let done = ctx.now + ctx.ports()[0].ser_time(pkt.size as u64);
            if self.timer_first {
                ctx.set_timer(done, 7);
            }
            ctx.start_tx(port, pkt, None);
            assert!(ctx.ports()[0].busy, "the port is busy as of the call");
            if !self.timer_first {
                ctx.set_timer(done, 7);
            }
            if self.twice {
                ctx.start_tx(port, again, None);
            }
        }
        fn on_tx_done(&mut self, _port: PortId, _ctx: &mut CustomCtx<'_>) {
            self.log.borrow_mut().push("tx_done");
        }
        fn on_timer(&mut self, key: u64, _ctx: &mut CustomCtx<'_>) {
            assert_eq!(key, 7);
            self.log.borrow_mut().push("timer");
        }
    }

    /// Sends one packet to node 0 on start, sinks what comes back.
    struct Once;

    impl Endpoint for Once {
        fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
            let (src, dst) = (ctx.node, NodeId(0));
            ctx.send(Packet::data(FlowId(1), src, dst, 0, 1000, false, ctx.now));
        }
        fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
            ctx.recycle(pkt);
        }
        fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
    }

    /// Run an [`Ordered`] node cabled to one [`Once`] host; returns its log.
    fn run_ordered(timer_first: bool, twice: bool) -> Vec<&'static str> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut b = NetworkBuilder::new();
        let node = b.add_custom(Box::new(Ordered {
            timer_first,
            twice,
            log: log.clone(),
        }));
        let host = b.add_host(Box::new(Once));
        b.connect(node, host, BW, DELAY);
        let mut sim = Simulator::new(b.build());
        sim.run_until_idle();
        assert_eq!(sim.audit_closed(), Ok(()));
        assert_eq!(sim.delivered, 1);
        log.take()
    }

    /// What the deleted action list's drain order provided: a custom
    /// node's same-tick events fire in the order it asked for them.
    #[test]
    fn custom_node_same_tick_events_fire_in_call_order() {
        assert_eq!(run_ordered(true, false), ["timer", "tx_done"]);
        assert_eq!(run_ordered(false, false), ["tx_done", "timer"]);
    }

    #[test]
    #[should_panic(expected = "start_tx on busy port p0 of n0")]
    fn custom_start_tx_on_a_busy_port_panics_at_the_call() {
        run_ordered(true, true);
    }

    fn add(b: &mut NetworkBuilder, kind: u8) -> NodeId {
        match kind {
            0 => b.add_switch(SwitchConfig::default()),
            1 => b.add_custom(Box::new(Inert)),
            _ => b.add_host(Box::new(NullEndpoint)),
        }
    }

    fn egress(net: &Network, node: NodeId, port: PortId) -> &Egress {
        match net.node(node) {
            Node::Switch(s) => &s.port(port).tx,
            Node::Custom(c) => &c.ports[port.index()],
            Node::Host(h) => &h.nic.tx,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any `connect` sequence over a mixed bag of switches, custom
        /// nodes and hosts numbers each node's ports densely in call
        /// order, and the two wires of a cable land on each other's port.
        #[test]
        fn connect_numbers_ports_in_call_order_and_wires_reciprocally(
            kinds in prop::collection::vec(0u8..3, 2..10),
            cables in prop::collection::vec((0usize..10, 0usize..10), 0..40),
        ) {
            let mut b = NetworkBuilder::new();
            let ids: Vec<NodeId> = kinds.iter().map(|&k| add(&mut b, k)).collect();
            let mut ports = vec![0; ids.len()];
            let mut made = Vec::new();
            for (a, z) in cables {
                let (a, z) = (a % ids.len(), z % ids.len());
                // A host's second cable panics (its own test below).
                let full = |n: usize| kinds[n] == 2 && ports[n] == 1;
                if a == z || full(a) || full(z) {
                    continue;
                }
                let (pa, pz) = b.connect(ids[a], ids[z], BW, DELAY);
                prop_assert_eq!((pa.index(), pz.index()), (ports[a], ports[z]));
                ports[a] += 1;
                ports[z] += 1;
                made.push((ids[a], pa, ids[z], pz));
            }
            for (a, pa, z, pz) in made {
                for (from, port, to, to_port) in [(a, pa, z, pz), (z, pz, a, pa)] {
                    let wire = egress(&b.net, from, port).wire();
                    prop_assert_eq!((wire.dst, wire.dst_port), (to, to_port));
                    prop_assert_eq!((wire.bandwidth, wire.delay), (BW, DELAY));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "host n1 is already connected to n0: a host has one NIC")]
    fn a_host_takes_one_cable() {
        let mut b = NetworkBuilder::new();
        let ids = [0, 2, 0].map(|k| add(&mut b, k));
        b.connect(ids[0], ids[1], BW, DELAY);
        b.connect(ids[1], ids[2], BW, DELAY);
    }

    #[test]
    #[should_panic(expected = "host n1 was never connected")]
    fn build_refuses_a_host_left_unconnected() {
        let mut b = NetworkBuilder::new();
        add(&mut b, 0);
        add(&mut b, 2);
        b.build();
    }

    /// Port ids used to wrap here: host 65,539's downlink became port 3,
    /// and its packets were delivered to host 3 with no drop counted.
    #[test]
    #[should_panic(expected = "n0 already has 65535 ports and cannot take another")]
    fn a_switch_cannot_outgrow_its_port_ids() {
        let mut b = NetworkBuilder::new();
        let sw = add(&mut b, 0);
        for _ in 0..=PortId::MAX_PORTS {
            let h = add(&mut b, 2);
            b.connect(sw, h, BW, DELAY);
        }
    }
}
