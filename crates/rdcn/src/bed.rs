//! Test bed for this crate's [`CustomSwitch`] logic: the logic under test
//! is node 0 of a real [`Simulator`], every one of its ports is cabled to
//! a scripted host (port `i` faces node `i + 1`), and a test reads what
//! the run *did* — `ports[i].tx_bytes` and `drops` of the custom node,
//! and what each host was delivered, INT stack included.

use dcn_sim::{
    CustomNode, CustomSwitch, Endpoint, EndpointCtx, NetworkBuilder, Node, NodeId, Packet,
    Simulator,
};
use powertcp_core::{Bandwidth, Tick};
use std::cell::RefCell;
use std::rc::Rc;

/// Propagation delay of every cable on the bed.
pub(crate) const DELAY: Tick = Tick::from_nanos(100);

/// One delivery to a bed host: the logic's port it hangs off, when, what.
pub(crate) type Delivery = (usize, Tick, Packet);

/// Sends each scripted packet so that it reaches the logic at the given
/// time, and records everything the logic sends back.
struct Scripted {
    port: usize,
    sends: Vec<(Tick, Packet)>,
    got: Rc<RefCell<Vec<Delivery>>>,
}

impl Endpoint for Scripted {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        for (i, (arrive, pkt)) in self.sends.iter().enumerate() {
            let lead = ctx.nic_bw.tx_time(pkt.size as u64) + DELAY;
            ctx.set_timer(*arrive - lead, i as u64);
        }
    }

    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        self.got
            .borrow_mut()
            .push((self.port, ctx.now, (*pkt).clone()));
        ctx.recycle(pkt);
    }

    fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>) {
        ctx.send(self.sends[key as usize].1.clone());
    }
}

/// A finished bed run.
pub(crate) struct Bed {
    sim: Simulator,
    /// Every delivery to a bed host, in global order.
    pub got: Vec<Delivery>,
}

impl Bed {
    /// The custom node under test: its ports' `tx_bytes`, its `drops`.
    pub fn node(&self) -> &CustomNode {
        match self.sim.net.node(NodeId(0)) {
            Node::Custom(c) => c,
            _ => unreachable!("node 0 of the bed is the logic"),
        }
    }

    /// `(port, tx_bytes)` of every port that transmitted anything.
    pub fn tx_bytes(&self) -> Vec<(usize, u64)> {
        let ports = self.node().ports.iter().enumerate();
        ports
            .filter(|(_, p)| p.tx_bytes > 0)
            .map(|(i, p)| (i, p.tx_bytes))
            .collect()
    }
}

/// Run `logic` behind one port per entry of `ports` until `until`;
/// `arrivals` are `(port, time, packet)`: the packet reaches the logic on
/// that port at that time (back-to-back on one port: as soon after as the
/// host's NIC serializes it).
pub(crate) fn run(
    logic: impl CustomSwitch + 'static,
    ports: &[Bandwidth],
    arrivals: &[Delivery],
    until: Tick,
) -> Bed {
    let got = Rc::new(RefCell::new(Vec::new()));
    let mut b = NetworkBuilder::new();
    let node = b.add_custom(Box::new(logic));
    for (port, &bw) in ports.iter().enumerate() {
        let sends = arrivals.iter().filter(|a| a.0 == port);
        let host = b.add_host(Box::new(Scripted {
            port,
            sends: sends.map(|(_, at, pkt)| (*at, pkt.clone())).collect(),
            got: got.clone(),
        }));
        b.connect(node, host, bw, DELAY);
    }
    let mut sim = Simulator::new(b.build());
    sim.run_until(until);
    sim.audit().expect("conservation audit");
    let got = got.take();
    Bed { sim, got }
}
