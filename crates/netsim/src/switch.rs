//! An L2 learning switch — the IXP fabric.
//!
//! PEERING PoPs at IXPs hang off a shared switch with hundreds of members
//! (paper §4.2). The switch learns source MACs, forwards unicast to the
//! learned port, and floods unknown unicast / broadcast to all other ports.
//! Entries age out so topology changes converge.

use crate::fasthash::FastHashMap;
use crate::frame::EtherFrame;
use crate::mac::MacAddr;
use crate::sim::{Ctx, Node, PortId};
use crate::time::{SimDuration, SimTime};

/// Default MAC-table entry lifetime (typical switch default: 300 s).
pub const MAC_AGING_TIME: SimDuration = SimDuration::from_secs(300);

#[derive(Clone, Copy, Debug)]
struct TableEntry {
    port: PortId,
    last_seen: SimTime,
}

/// A learning switch with a fixed number of ports.
pub struct LearningSwitch {
    ports: u16,
    table: FastHashMap<MacAddr, TableEntry>,
    aging: SimDuration,
    /// Frames forwarded to a single learned port.
    pub forwarded: u64,
    /// Frames flooded to all other ports.
    pub flooded: u64,
    label: String,
}

impl LearningSwitch {
    /// A switch with `ports` ports and default aging.
    pub fn new(ports: u16) -> Self {
        LearningSwitch {
            ports,
            table: FastHashMap::default(),
            aging: MAC_AGING_TIME,
            forwarded: 0,
            flooded: 0,
            label: "switch".to_string(),
        }
    }

    /// Override the label shown in traces.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Override the MAC aging time.
    pub fn with_aging(mut self, aging: SimDuration) -> Self {
        self.aging = aging;
        self
    }

    /// Number of learned (possibly stale) MAC entries.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// The port a MAC was last learned on, if fresh.
    pub fn lookup(&self, mac: MacAddr, now: SimTime) -> Option<PortId> {
        self.table
            .get(&mac)
            .filter(|e| now.saturating_since(e.last_seen) < self.aging)
            .map(|e| e.port)
    }
}

impl Node for LearningSwitch {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
        let now = ctx.now();
        // Learn the source (unicast sources only).
        if frame.src.is_unicast() {
            self.table.insert(
                frame.src,
                TableEntry {
                    port,
                    last_seen: now,
                },
            );
        }
        // Forward.
        let learned = if frame.dst.is_unicast() {
            self.lookup(frame.dst, now)
        } else {
            None
        };
        match learned {
            Some(out) if out != port => {
                self.forwarded += 1;
                ctx.send_frame(out, frame);
            }
            Some(_) => {
                // Destination hangs off the ingress port: filter (drop).
            }
            None => {
                self.flooded += 1;
                for p in 0..self.ports {
                    let out = PortId(p);
                    if out != port {
                        ctx.send_frame(out, frame.clone());
                    }
                }
            }
        }
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;
    use crate::frame::EtherType;
    use crate::link::LinkConfig;
    use crate::sim::{NodeId, Simulator};

    /// Records every received frame.
    struct Sink {
        frames: Vec<EtherFrame>,
    }

    impl Node for Sink {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, frame: EtherFrame) {
            self.frames.push(frame);
        }
    }

    fn build(ports: u16) -> (Simulator, NodeId, Vec<NodeId>) {
        let mut sim = Simulator::new(3);
        let sw = sim.add_node(Box::new(LearningSwitch::new(ports)));
        let hosts: Vec<NodeId> = (0..ports)
            .map(|p| {
                let h = sim.add_node(Box::new(Sink { frames: Vec::new() }));
                sim.connect(sw, PortId(p), h, PortId(0), LinkConfig::default());
                h
            })
            .collect();
        (sim, sw, hosts)
    }

    fn frame(src: u32, dst: MacAddr) -> EtherFrame {
        EtherFrame::new(
            dst,
            MacAddr::from_id(src),
            EtherType::Ipv4,
            Bytes::from_static(b"x"),
        )
    }

    #[test]
    fn floods_unknown_unicast_then_forwards() {
        let (mut sim, sw, hosts) = build(4);
        // Host 0 sends to unknown MAC of host 3: flood to ports 1,2,3.
        sim.send_from(hosts[0], PortId(0), frame(100, MacAddr::from_id(103)));
        sim.run_until_idle(100);
        for h in &hosts[1..] {
            assert_eq!(sim.node::<Sink>(*h).unwrap().frames.len(), 1);
        }
        // Host 3 replies: switch learned 100 on port 0, so only host 0 gets it.
        sim.send_from(hosts[3], PortId(0), frame(103, MacAddr::from_id(100)));
        sim.run_until_idle(100);
        assert_eq!(sim.node::<Sink>(hosts[0]).unwrap().frames.len(), 1);
        assert_eq!(sim.node::<Sink>(hosts[1]).unwrap().frames.len(), 1);
        assert_eq!(sim.node::<Sink>(hosts[2]).unwrap().frames.len(), 1);
        let sw_ref = sim.node::<LearningSwitch>(sw).unwrap();
        assert_eq!(sw_ref.flooded, 1);
        assert_eq!(sw_ref.forwarded, 1);
    }

    #[test]
    fn broadcast_always_floods() {
        let (mut sim, _sw, hosts) = build(3);
        sim.send_from(hosts[0], PortId(0), frame(100, MacAddr::BROADCAST));
        sim.run_until_idle(100);
        assert_eq!(sim.node::<Sink>(hosts[1]).unwrap().frames.len(), 1);
        assert_eq!(sim.node::<Sink>(hosts[2]).unwrap().frames.len(), 1);
        assert_eq!(sim.node::<Sink>(hosts[0]).unwrap().frames.len(), 0);
    }

    #[test]
    fn same_port_destination_is_filtered() {
        let (mut sim, sw, hosts) = build(2);
        // Teach the switch that 100 lives on port 0.
        sim.send_from(hosts[0], PortId(0), frame(100, MacAddr::BROADCAST));
        sim.run_until_idle(100);
        // Now host 0 sends to itself (e.g. a hairpin): the switch drops it.
        sim.send_from(hosts[0], PortId(0), frame(101, MacAddr::from_id(100)));
        sim.run_until_idle(100);
        assert_eq!(sim.node::<Sink>(hosts[0]).unwrap().frames.len(), 0);
        assert_eq!(sim.node::<Sink>(hosts[1]).unwrap().frames.len(), 1); // only the broadcast
        assert_eq!(sim.node::<LearningSwitch>(sw).unwrap().forwarded, 0);
    }

    #[test]
    fn entries_age_out() {
        let mut sw = LearningSwitch::new(2).with_aging(SimDuration::from_secs(10));
        sw.table.insert(
            MacAddr::from_id(1),
            TableEntry {
                port: PortId(1),
                last_seen: SimTime::ZERO,
            },
        );
        assert_eq!(
            sw.lookup(MacAddr::from_id(1), SimTime::from_nanos(5_000_000_000)),
            Some(PortId(1))
        );
        assert_eq!(
            sw.lookup(MacAddr::from_id(1), SimTime::from_nanos(11_000_000_000)),
            None
        );
    }
}
