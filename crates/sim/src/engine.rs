//! The simulation engine: owns the network and the event queue, dispatches
//! events, and applies node actions.
//!
//! Single-threaded and fully deterministic: identical inputs produce
//! bit-identical runs (guide idiom — CPU-bound simulation wants an event
//! loop, not an async runtime or thread pool).

use crate::event::{Event, EventQueue};
use crate::ids::{NodeId, PortId};
use crate::link::{Link, Links};
use crate::node::{
    CustomAction, CustomCtx, CustomNode, Endpoint, EndpointAction, EndpointCtx, Host, Node,
    PortView,
};
use crate::packet::{Packet, PacketKind, CTRL_PKT_BYTES};
use crate::pool::{PacketPool, PoolStats};
use crate::stats::SimStats;
use crate::switch::{Switch, SwitchEmit};
use powertcp_core::Tick;
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

/// Discriminant used to route dispatch without holding a borrow.
enum NodeKind {
    Switch,
    Host,
    Custom,
}

/// One unit of work for a host visit: the payload of an `Arrival` or
/// `HostTimer` event bound for that host (see [`Simulator::host_visit`]).
enum HostWork {
    Packet(Box<Packet>),
    Timer(u64),
}

/// One unit of work for a switch visit: the payload of an `Arrival` or
/// `TxDone` event bound for that switch (see [`Simulator::switch_visit`]).
enum SwitchWork {
    Recv(PortId, Box<Packet>),
    TxDone(PortId),
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
    queue: EventQueue,
    tracers: Vec<Tracer>,
    /// Pending events that are not tracer samples; lets
    /// [`Simulator::run_until_idle`] terminate while tracers self-renew.
    live_events: u64,
    started: bool,
    scratch_endpoint: Vec<EndpointAction>,
    scratch_switch: Vec<SwitchEmit>,
    scratch_custom: Vec<CustomAction>,
    /// Reused per-custom-event port-view buffer: rebuilding the views is
    /// cheap, but a fresh `Vec` per event was the last per-event
    /// allocation on the rdcn hot path.
    scratch_views: Vec<PortView>,
    /// Recycled packet boxes (see [`crate::pool`]): endpoint sends draw
    /// from here, and every packet-consuming site returns boxes instead
    /// of freeing them, so the steady-state hot loop allocates nothing.
    pool: PacketPool,
    /// Total packets delivered to hosts.
    pub delivered: u64,
    /// Events dispatched so far (all kinds, tracer samples included).
    events_processed: u64,
    /// Same-tick same-node batching enabled (see [`Simulator::set_batching`]).
    batching: bool,
    /// Node visits that drained more than one same-tick event.
    batched_visits: u64,
    /// Events beyond the first drained by batched visits.
    batched_events: u64,
    /// PFC pause/resume frames emitted by switches.
    pfc_frames: u64,
    /// Wall-clock anchor for [`Simulator::stats`]; set at construction.
    t0: Instant,
}

impl Simulator {
    /// Wrap a built network.
    #[allow(clippy::disallowed_methods)] // SimStats wall-clock anchor; never in report bytes
    pub fn new(net: Network) -> Self {
        Simulator {
            net,
            queue: EventQueue::new(),
            tracers: Vec::new(),
            live_events: 0,
            started: false,
            scratch_endpoint: Vec::new(),
            scratch_switch: Vec::new(),
            scratch_custom: Vec::new(),
            scratch_views: Vec::new(),
            pool: PacketPool::new(),
            delivered: 0,
            events_processed: 0,
            batching: true,
            batched_visits: 0,
            batched_events: 0,
            pfc_frames: 0,
            // lint:allow(R2): SimStats wall-clock anchor — observability only, never report bytes
            t0: Instant::now(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Tick {
        self.queue.now()
    }

    /// Packet-pool counters (fresh allocations vs reuses) — the
    /// steady-state contract is that reuses dominate.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Enable or disable same-tick node batching (on by default).
    ///
    /// Batching drains every consecutive same-tick event bound for the
    /// node already being visited in one pass, amortizing dispatch,
    /// node borrow, scratch-buffer setup, and link lookups. It is a
    /// pure perf optimization: only the *global head* of the event
    /// queue is ever taken (see [`EventQueue::pop_now_if`]), so the
    /// `(time, insertion-seq)` FIFO event order — and therefore every
    /// output byte — is identical with batching off. The switch exists
    /// so the property test (`crates/sim/tests/batch_props.rs`) can
    /// prove exactly that against the unbatched dispatcher.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
    }

    /// Register a periodic tracer sampling every `every`.
    pub fn add_tracer(&mut self, every: Tick, f: impl FnMut(&Network, Tick) + 'static) {
        assert!(!every.is_zero(), "tracer interval must be positive");
        let idx = self.tracers.len() as u32;
        self.tracers.push(Tracer {
            every,
            f: Box::new(f),
        });
        self.queue.schedule(every, Event::Sample { tracer: idx });
    }

    fn schedule(&mut self, at: Tick, ev: Event) {
        if !matches!(ev, Event::Sample { .. }) {
            self.live_events += 1;
        }
        self.queue.schedule(at, ev);
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
        let now = self.queue.now();
        for t in &mut self.tracers {
            (t.f)(&self.net, now);
        }
        for i in 0..self.net.nodes.len() {
            let id = NodeId(i as u32);
            match self.node_kind(id) {
                NodeKind::Host => {
                    let mut actions = std::mem::take(&mut self.scratch_endpoint);
                    let now = self.queue.now();
                    if let Node::Host(h) = &mut self.net.nodes[i] {
                        let nic_bw = self.net.links.get(h.link).bandwidth;
                        let mut ctx =
                            EndpointCtx::with_pool(now, id, nic_bw, &mut actions, &mut self.pool);
                        h.app.on_start(&mut ctx);
                    }
                    self.apply_endpoint_actions(id, &mut actions);
                    self.scratch_endpoint = actions;
                }
                NodeKind::Custom => {
                    let mut actions = std::mem::take(&mut self.scratch_custom);
                    let mut views = std::mem::take(&mut self.scratch_views);
                    let now = self.queue.now();
                    if let Node::Custom(c) = &mut self.net.nodes[i] {
                        Self::fill_port_views(&self.net.links, c, &mut views);
                        let mut ctx = CustomCtx::new(now, id, &views, &mut actions);
                        c.logic.on_start(&mut ctx);
                    }
                    self.apply_custom_actions(id, &mut actions);
                    self.scratch_custom = actions;
                    self.scratch_views = views;
                }
                NodeKind::Switch => {}
            }
        }
    }

    /// Run until the event at or before `end` (inclusive); primes first.
    pub fn run_until(&mut self, end: Tick) {
        self.prime();
        while let Some((_, ev)) = self.queue.pop_until(end) {
            self.dispatch(ev);
        }
    }

    /// Run until no non-tracer events remain; primes first.
    pub fn run_until_idle(&mut self) {
        self.prime();
        while self.live_events > 0 {
            let (_, ev) = self.queue.pop().expect("live events pending");
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
        let pool = self.pool.stats();
        SimStats {
            events_processed: self.events_processed,
            events_scheduled: self.queue.scheduled(),
            overflow_scheduled: self.queue.overflow_scheduled(),
            batched_visits: self.batched_visits,
            batched_events: self.batched_events,
            delivered: self.delivered,
            forwarded,
            drops_no_route,
            drops_buffer,
            drops_custom,
            pfc_frames: self.pfc_frames,
            pool_fresh: pool.fresh,
            pool_reused: pool.reused,
            wall_ms: self.t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    fn dispatch(&mut self, ev: Event) {
        self.events_processed += 1;
        match ev {
            Event::Arrival { node, port, pkt } => {
                self.live_events -= 1;
                self.arrival(node, port, pkt);
            }
            Event::TxDone { node, port } => {
                self.live_events -= 1;
                self.tx_done(node, port);
            }
            Event::HostTimer { node, key } => {
                self.live_events -= 1;
                self.host_visit(node, HostWork::Timer(key));
            }
            Event::NodeTimer { node, key } => {
                self.live_events -= 1;
                let mut actions = std::mem::take(&mut self.scratch_custom);
                let mut views = std::mem::take(&mut self.scratch_views);
                let now = self.queue.now();
                if let Node::Custom(c) = &mut self.net.nodes[node.index()] {
                    Self::fill_port_views(&self.net.links, c, &mut views);
                    let mut ctx = CustomCtx::new(now, node, &views, &mut actions);
                    c.logic.on_timer(key, &mut ctx);
                }
                self.apply_custom_actions(node, &mut actions);
                self.scratch_custom = actions;
                self.scratch_views = views;
            }
            Event::Sample { tracer } => {
                let now = self.queue.now();
                let t = &mut self.tracers[tracer as usize];
                (t.f)(&self.net, now);
                let next = now + t.every;
                self.queue.schedule(next, Event::Sample { tracer });
            }
        }
    }

    fn node_kind(&self, node: NodeId) -> NodeKind {
        match &self.net.nodes[node.index()] {
            Node::Switch(_) => NodeKind::Switch,
            Node::Host(_) => NodeKind::Host,
            Node::Custom(_) => NodeKind::Custom,
        }
    }

    /// Visit a host for `first` plus every consecutive same-tick event
    /// bound for the same host (non-PFC arrivals and endpoint timers),
    /// amortizing the node borrow, the NIC link lookup, and the scratch
    /// swap across the batch.
    ///
    /// Deferring `apply_endpoint_actions` to the end of the visit is
    /// byte-exact: endpoint callbacks only *append* actions (they never
    /// schedule directly), applying actions touches neither the packet
    /// pool nor any state an endpoint can observe, and the actions are
    /// applied in the same order as unbatched dispatch — so the
    /// `schedule` call sequence, and with it every insertion seq, is
    /// identical. PFC arrivals and host `TxDone`s are excluded because
    /// their engine-side handling (pause flags, NIC kicks) must
    /// interleave with the applies in event order; hitting one simply
    /// ends the batch.
    fn host_visit(&mut self, node: NodeId, first: HostWork) {
        let mut actions = std::mem::take(&mut self.scratch_endpoint);
        let now = self.queue.now();
        let mut extra = 0u64;
        if let Node::Host(h) = &mut self.net.nodes[node.index()] {
            let nic_bw = self.net.links.get(h.link).bandwidth;
            let mut work = first;
            loop {
                {
                    let mut ctx =
                        EndpointCtx::with_pool(now, node, nic_bw, &mut actions, &mut self.pool);
                    match work {
                        HostWork::Packet(pkt) => h.app.on_packet(pkt, &mut ctx),
                        HostWork::Timer(key) => h.app.on_timer(key, &mut ctx),
                    }
                }
                if !self.batching {
                    break;
                }
                let Some(ev) = self.queue.pop_now_if(|ev| match ev {
                    Event::Arrival { node: n, pkt, .. } => *n == node && !pkt.is_pfc(),
                    Event::HostTimer { node: n, .. } => *n == node,
                    _ => false,
                }) else {
                    break;
                };
                self.events_processed += 1;
                self.live_events -= 1;
                extra += 1;
                work = match ev {
                    Event::Arrival { pkt, .. } => {
                        self.delivered += 1;
                        HostWork::Packet(pkt)
                    }
                    Event::HostTimer { key, .. } => HostWork::Timer(key),
                    _ => unreachable!("predicate admits only arrivals and host timers"),
                };
            }
        }
        if extra > 0 {
            self.batched_visits += 1;
            self.batched_events += extra;
        }
        self.apply_endpoint_actions(node, &mut actions);
        self.scratch_endpoint = actions;
    }

    /// Visit a switch for `first` plus every consecutive same-tick event
    /// bound for the same switch (arrivals — PFC included, the switch
    /// handles those inside `receive` — and port `TxDone`s), amortizing
    /// dispatch and the scratch swap. Unlike the host visit, emissions
    /// apply after *every* `receive`/`tx_done`: INT records read live
    /// queue occupancy at emit time, so deferral would change bytes.
    fn switch_visit(&mut self, node: NodeId, first: SwitchWork) {
        let mut emits = std::mem::take(&mut self.scratch_switch);
        let now = self.queue.now();
        let mut extra = 0u64;
        let mut work = first;
        loop {
            if let Node::Switch(sw) = &mut self.net.nodes[node.index()] {
                match work {
                    SwitchWork::Recv(port, pkt) => {
                        sw.receive(port, pkt, now, &mut emits, &mut self.pool)
                    }
                    SwitchWork::TxDone(port) => sw.tx_done(port, &mut emits),
                }
            }
            self.apply_switch_emits(node, &mut emits);
            if !self.batching {
                break;
            }
            let Some(ev) = self.queue.pop_now_if(|ev| {
                matches!(ev,
                    Event::Arrival { node: n, .. } | Event::TxDone { node: n, .. } if *n == node)
            }) else {
                break;
            };
            self.events_processed += 1;
            self.live_events -= 1;
            extra += 1;
            work = match ev {
                Event::Arrival { port, pkt, .. } => SwitchWork::Recv(port, pkt),
                Event::TxDone { port, .. } => SwitchWork::TxDone(port),
                _ => unreachable!("predicate admits only arrivals and tx-dones"),
            };
        }
        if extra > 0 {
            self.batched_visits += 1;
            self.batched_events += extra;
        }
        self.scratch_switch = emits;
    }

    fn arrival(&mut self, node: NodeId, port: PortId, pkt: Box<Packet>) {
        match self.node_kind(node) {
            NodeKind::Switch => self.switch_visit(node, SwitchWork::Recv(port, pkt)),
            NodeKind::Host => {
                if pkt.is_pfc() {
                    let pause = matches!(pkt.kind, PacketKind::Pfc { pause: true });
                    self.pool.recycle(pkt);
                    if let Node::Host(h) = &mut self.net.nodes[node.index()] {
                        h.paused = pause;
                    }
                    if !pause {
                        Self::host_kick(
                            &mut self.net,
                            &mut self.queue,
                            &mut self.live_events,
                            node,
                        );
                    }
                    return;
                }
                self.delivered += 1;
                self.host_visit(node, HostWork::Packet(pkt));
            }
            NodeKind::Custom => {
                let mut actions = std::mem::take(&mut self.scratch_custom);
                let mut views = std::mem::take(&mut self.scratch_views);
                let now = self.queue.now();
                if let Node::Custom(c) = &mut self.net.nodes[node.index()] {
                    Self::fill_port_views(&self.net.links, c, &mut views);
                    let mut ctx = CustomCtx::new(now, node, &views, &mut actions);
                    c.logic.on_packet(port, pkt, &mut ctx);
                }
                self.apply_custom_actions(node, &mut actions);
                self.scratch_custom = actions;
                self.scratch_views = views;
            }
        }
    }

    fn tx_done(&mut self, node: NodeId, port: PortId) {
        match self.node_kind(node) {
            NodeKind::Switch => self.switch_visit(node, SwitchWork::TxDone(port)),
            NodeKind::Host => {
                if let Node::Host(h) = &mut self.net.nodes[node.index()] {
                    h.busy = false;
                }
                Self::host_kick(&mut self.net, &mut self.queue, &mut self.live_events, node);
            }
            NodeKind::Custom => {
                if let Node::Custom(c) = &mut self.net.nodes[node.index()] {
                    c.ports[port.index()].busy = false;
                }
                let mut actions = std::mem::take(&mut self.scratch_custom);
                let mut views = std::mem::take(&mut self.scratch_views);
                let now = self.queue.now();
                if let Node::Custom(c) = &mut self.net.nodes[node.index()] {
                    Self::fill_port_views(&self.net.links, c, &mut views);
                    let mut ctx = CustomCtx::new(now, node, &views, &mut actions);
                    c.logic.on_tx_done(port, &mut ctx);
                }
                self.apply_custom_actions(node, &mut actions);
                self.scratch_custom = actions;
                self.scratch_views = views;
            }
        }
    }

    /// Apply switch emissions: serialize transmissions onto links (with
    /// INT append) and fire PFC frames.
    fn apply_switch_emits(&mut self, node: NodeId, emits: &mut Vec<SwitchEmit>) {
        let now = self.queue.now();
        for emit in emits.drain(..) {
            match emit {
                SwitchEmit::Transmit { port, mut pkt } => {
                    let (link_id, int_enabled) = {
                        let sw = self.net.nodes[node.index()].as_switch();
                        (sw.port(port).link(), sw.config().int_enabled)
                    };
                    let link = *self.net.links.get(link_id);
                    if int_enabled && pkt.int_enable && pkt.kind.collects_int() {
                        let sw = self.net.nodes[node.index()].as_switch();
                        let rec = sw.int_record(port, now, link.bandwidth);
                        pkt.int.push(rec);
                    }
                    let ser = link.bandwidth.tx_time(pkt.size as u64);
                    self.schedule(now + ser, Event::TxDone { node, port });
                    self.schedule(
                        now + ser + link.delay,
                        Event::Arrival {
                            node: link.dst,
                            port: link.dst_port,
                            pkt,
                        },
                    );
                }
                SwitchEmit::Pfc { port, pause } => {
                    self.pfc_frames += 1;
                    let link_id = self.net.nodes[node.index()].as_switch().port(port).link();
                    let link = *self.net.links.get(link_id);
                    // PFC frames preempt data on real hardware: model as
                    // propagation-only delivery, no serialization queueing.
                    let pkt = self.pool.boxed(Packet {
                        flow: crate::ids::FlowId(0),
                        src: node,
                        dst: link.dst,
                        size: CTRL_PKT_BYTES,
                        priority: 0,
                        ecn_capable: false,
                        ecn_ce: false,
                        int_enable: false,
                        int: powertcp_core::IntHeader::new(),
                        sent_at: now,
                        kind: PacketKind::Pfc { pause },
                    });
                    self.schedule(
                        now + link.delay,
                        Event::Arrival {
                            node: link.dst,
                            port: link.dst_port,
                            pkt,
                        },
                    );
                }
            }
        }
    }

    fn apply_endpoint_actions(&mut self, node: NodeId, actions: &mut Vec<EndpointAction>) {
        for a in actions.drain(..) {
            match a {
                EndpointAction::Send(pkt) => {
                    Self::host_enqueue(
                        &mut self.net,
                        &mut self.queue,
                        &mut self.live_events,
                        node,
                        pkt,
                    );
                }
                EndpointAction::Timer { at, key } => {
                    self.schedule(at.max(self.queue.now()), Event::HostTimer { node, key });
                }
            }
        }
    }

    fn apply_custom_actions(&mut self, node: NodeId, actions: &mut Vec<CustomAction>) {
        let now = self.queue.now();
        for a in actions.drain(..) {
            match a {
                CustomAction::StartTx {
                    port,
                    mut pkt,
                    int_qlen,
                } => {
                    let Node::Custom(c) = &mut self.net.nodes[node.index()] else {
                        panic!("custom action on non-custom node");
                    };
                    let raw = &mut c.ports[port.index()];
                    assert!(!raw.busy, "StartTx on busy port {port} of {node}");
                    raw.busy = true;
                    raw.tx_bytes += pkt.size as u64;
                    let tx_bytes = raw.tx_bytes;
                    let link = *self.net.links.get(raw.link);
                    if let Some(qlen) = int_qlen {
                        if pkt.int_enable && pkt.kind.collects_int() {
                            pkt.int.push(powertcp_core::IntHopMetadata {
                                node: node.0,
                                port: port.0,
                                qlen_bytes: qlen,
                                ts: now,
                                tx_bytes,
                                bandwidth: link.bandwidth,
                            });
                        }
                    }
                    let ser = link.bandwidth.tx_time(pkt.size as u64);
                    self.schedule(now + ser, Event::TxDone { node, port });
                    self.schedule(
                        now + ser + link.delay,
                        Event::Arrival {
                            node: link.dst,
                            port: link.dst_port,
                            pkt,
                        },
                    );
                }
                CustomAction::Timer { at, key } => {
                    self.schedule(at.max(now), Event::NodeTimer { node, key });
                }
                CustomAction::Drop { pkt } => {
                    if let Node::Custom(c) = &mut self.net.nodes[node.index()] {
                        c.drops += 1;
                    }
                    self.pool.recycle(pkt);
                }
            }
        }
    }

    /// Enqueue a packet on a host NIC and start transmitting if idle.
    fn host_enqueue(
        net: &mut Network,
        queue: &mut EventQueue,
        live: &mut u64,
        node: NodeId,
        pkt: Box<Packet>,
    ) {
        let Node::Host(h) = &mut net.nodes[node.index()] else {
            panic!("host_enqueue on non-host {node}");
        };
        h.txq_bytes += pkt.size as u64;
        h.txq.push_back(pkt);
        Self::host_kick(net, queue, live, node);
    }

    /// Start transmitting on the host NIC if it is idle, unpaused, and has
    /// queued packets.
    fn host_kick(net: &mut Network, queue: &mut EventQueue, live: &mut u64, node: NodeId) {
        let Node::Host(h) = &mut net.nodes[node.index()] else {
            return;
        };
        if h.busy || h.paused {
            return;
        }
        let Some(pkt) = h.txq.pop_front() else {
            return;
        };
        h.txq_bytes -= pkt.size as u64;
        h.busy = true;
        h.tx_bytes += pkt.size as u64;
        let link = *net.links.get(h.link);
        let now = queue.now();
        let ser = link.bandwidth.tx_time(pkt.size as u64);
        *live += 2;
        queue.schedule(
            now + ser,
            Event::TxDone {
                node,
                port: PortId(0),
            },
        );
        queue.schedule(
            now + ser + link.delay,
            Event::Arrival {
                node: link.dst,
                port: link.dst_port,
                pkt,
            },
        );
    }

    fn fill_port_views(links: &Links, c: &CustomNode, out: &mut Vec<PortView>) {
        out.clear();
        out.extend(c.ports.iter().map(|p| {
            let l = links.get(p.link);
            PortView {
                bandwidth: l.bandwidth,
                delay: l.delay,
                busy: p.busy,
                peer: l.dst,
            }
        }));
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
        match &mut self.net.nodes[sw.index()] {
            Node::Switch(s) => {
                let p = s.add_port(down);
                debug_assert_eq!(p, sw_port);
            }
            _ => panic!("{sw} is not a switch"),
        }
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
        match &mut self.net.nodes[a.index()] {
            Node::Switch(s) => {
                let p = s.add_port(ab);
                debug_assert_eq!(p, pa);
            }
            _ => panic!("{a} is not a switch"),
        }
        match &mut self.net.nodes[b.index()] {
            Node::Switch(s) => {
                let p = s.add_port(ba);
                debug_assert_eq!(p, pb);
            }
            _ => panic!("{b} is not a switch"),
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
        let s2c = self.net.links.add(Link {
            bandwidth: bw,
            delay,
            dst: custom,
            dst_port: pc,
        });
        match &mut self.net.nodes[custom.index()] {
            Node::Custom(c) => c.ports.push(crate::node::RawPort {
                link: c2s,
                busy: false,
                tx_bytes: 0,
            }),
            _ => unreachable!(),
        }
        match &mut self.net.nodes[sw.index()] {
            Node::Switch(s) => {
                let p = s.add_port(s2c);
                debug_assert_eq!(p, ps);
            }
            _ => panic!("{sw} is not a switch"),
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
