//! The Table 1 toolkit API.
//!
//! | Category | Functionality (paper Table 1) | Here |
//! |---|---|---|
//! | OpenVPN | open/close/check status of tunnels | [`Toolkit::open_tunnel`], [`Toolkit::close_tunnel`], [`Toolkit::tunnel_status`] |
//! | BGP/BIRD | start/stop v4+v6 sessions, status, CLI | [`Toolkit::start_bgp`], [`Toolkit::stop_bgp`], [`Toolkit::session_status`], [`crate::cli`] |
//! | Prefix management | announce/withdraw, community & AS-path manipulation | [`Toolkit::announce`], [`Toolkit::withdraw`], [`AnnounceOptions`] |
//!
//! One session per PoP carries both IPv4 and IPv6 (multiprotocol), matching
//! how the real toolkit runs one BIRD per family over one tunnel — status
//! reports cover both families.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use peering_bgp::fsm::FsmState;
use peering_bgp::rib::{PeerId, Route};
use peering_bgp::types::{Asn, Community, Prefix};
use peering_netsim::{LinkConfig, LinkId, MacAddr, NodeId, PortId, SimDuration, Simulator};
use peering_vbgp::communities::ControlCommunities;
use peering_vbgp::ids::NeighborId;

use crate::node::ExperimentNode;

/// Tunnel state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunnelStatus {
    /// VPN up (link connected).
    Open,
    /// VPN down.
    Closed,
}

/// BGP session state as reported to the experimenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Session is Established (v4+v6 NLRI flowing).
    Established,
    /// Session is negotiating.
    Connecting,
    /// Session is down.
    Down,
}

/// Announcement options: the AS-path and community manipulations of
/// Table 1 plus the §3.2.1 steering communities.
#[derive(Debug, Clone, Default)]
pub struct AnnounceOptions {
    /// Prepend own ASN this many extra times.
    pub prepend: usize,
    /// ASNs to poison (inserted into the path so they drop the route).
    pub poison: Vec<Asn>,
    /// Arbitrary communities to attach (requires the capability).
    pub communities: Vec<Community>,
    /// Whitelist: announce only to these neighbors.
    pub announce_to: Vec<NeighborId>,
    /// Blacklist: announce to everyone except these.
    pub do_not_announce_to: Vec<NeighborId>,
}

/// Provisioning data the platform hands the experimenter for one PoP
/// attachment (the credentials + endpoint info of §4.6).
#[derive(Debug, Clone)]
pub struct PopAttachment {
    /// Human name ("amsterdam01", …).
    pub name: String,
    /// The vBGP router node.
    pub router: NodeId,
    /// The router's tunnel port for this experiment.
    pub router_port: PortId,
    /// Our port toward this PoP.
    pub local_port: PortId,
    /// The BGP session id on the experiment node.
    pub session: PeerId,
    /// Tunnel link characteristics (the OpenVPN overlay path).
    pub link: LinkConfig,
}

struct Attachment {
    info: PopAttachment,
    link: Option<LinkId>,
}

/// Errors surfaced by the toolkit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolkitError {
    /// No attachment with this PoP name.
    UnknownPop(String),
    /// The tunnel is not open.
    TunnelClosed(String),
    /// The tunnel is already open.
    TunnelAlreadyOpen(String),
}

impl std::fmt::Display for ToolkitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolkitError::UnknownPop(p) => write!(f, "unknown PoP {p}"),
            ToolkitError::TunnelClosed(p) => write!(f, "tunnel to {p} is closed"),
            ToolkitError::TunnelAlreadyOpen(p) => write!(f, "tunnel to {p} is already open"),
        }
    }
}

impl std::error::Error for ToolkitError {}

/// The experimenter's handle: drives an [`ExperimentNode`] inside a
/// simulator through the Table 1 operations.
pub struct Toolkit {
    node: NodeId,
    platform_asn: Asn,
    announce_src: Ipv4Addr,
    pops: BTreeMap<String, Attachment>,
}

impl Toolkit {
    /// Wrap an experiment node. `announce_src` is the next-hop address
    /// placed in announcements (the experiment's tunnel address).
    pub fn new(node: NodeId, platform_asn: Asn, announce_src: Ipv4Addr) -> Self {
        Toolkit {
            node,
            platform_asn,
            announce_src,
            pops: BTreeMap::new(),
        }
    }

    /// Register the provisioning info for a PoP (tunnel starts closed).
    pub fn register_pop(&mut self, info: PopAttachment) {
        self.pops
            .insert(info.name.clone(), Attachment { info, link: None });
    }

    /// PoP names in order.
    pub fn pop_names(&self) -> Vec<String> {
        self.pops.keys().cloned().collect()
    }

    fn attachment(&self, pop: &str) -> Result<&Attachment, ToolkitError> {
        self.pops
            .get(pop)
            .ok_or_else(|| ToolkitError::UnknownPop(pop.to_string()))
    }

    /// Open the VPN tunnel to a PoP (connects the overlay link).
    pub fn open_tunnel(&mut self, sim: &mut Simulator, pop: &str) -> Result<(), ToolkitError> {
        let att = self
            .pops
            .get_mut(pop)
            .ok_or_else(|| ToolkitError::UnknownPop(pop.to_string()))?;
        if att.link.is_some() {
            return Err(ToolkitError::TunnelAlreadyOpen(pop.to_string()));
        }
        let link = sim.connect(
            self.node,
            att.info.local_port,
            att.info.router,
            att.info.router_port,
            att.info.link,
        );
        att.link = Some(link);
        Ok(())
    }

    /// Close the VPN tunnel (sessions drop when their hold timers notice).
    pub fn close_tunnel(&mut self, sim: &mut Simulator, pop: &str) -> Result<(), ToolkitError> {
        let att = self
            .pops
            .get_mut(pop)
            .ok_or_else(|| ToolkitError::UnknownPop(pop.to_string()))?;
        match att.link.take() {
            Some(link) => {
                sim.disconnect(link);
                Ok(())
            }
            None => Err(ToolkitError::TunnelClosed(pop.to_string())),
        }
    }

    /// Tunnel status.
    pub fn tunnel_status(&self, pop: &str) -> Result<TunnelStatus, ToolkitError> {
        Ok(if self.attachment(pop)?.link.is_some() {
            TunnelStatus::Open
        } else {
            TunnelStatus::Closed
        })
    }

    /// Start the BGP session(s) toward a PoP.
    pub fn start_bgp(&mut self, sim: &mut Simulator, pop: &str) -> Result<(), ToolkitError> {
        let att = self.attachment(pop)?;
        if att.link.is_none() {
            return Err(ToolkitError::TunnelClosed(pop.to_string()));
        }
        let session = att.info.session;
        let node = self.node;
        sim.with_node_ctx::<ExperimentNode, _>(node, |n, ctx| n.start_session(ctx, session));
        Ok(())
    }

    /// Stop the BGP session(s) toward a PoP.
    pub fn stop_bgp(&mut self, sim: &mut Simulator, pop: &str) -> Result<(), ToolkitError> {
        let att = self.attachment(pop)?;
        let session = att.info.session;
        let node = self.node;
        sim.with_node_ctx::<ExperimentNode, _>(node, |n, ctx| n.stop_session(ctx, session));
        Ok(())
    }

    /// Session status for a PoP.
    pub fn session_status(
        &self,
        sim: &Simulator,
        pop: &str,
    ) -> Result<SessionStatus, ToolkitError> {
        let att = self.attachment(pop)?;
        let node = sim
            .node::<ExperimentNode>(self.node)
            .expect("toolkit node missing");
        Ok(match node.host.speaker.session_state(att.info.session) {
            Some(FsmState::Established) => SessionStatus::Established,
            Some(FsmState::Idle) | None => SessionStatus::Down,
            Some(_) => SessionStatus::Connecting,
        })
    }

    /// Build the community set for the steering options.
    fn steering_communities(&self, opts: &AnnounceOptions) -> Vec<Community> {
        let cc = ControlCommunities::new(self.platform_asn.0 as u16);
        let mut communities = opts.communities.clone();
        for n in &opts.announce_to {
            communities.push(cc.announce_to(*n));
        }
        for n in &opts.do_not_announce_to {
            communities.push(cc.do_not_announce_to(*n));
        }
        communities
    }

    /// Announce a prefix at one PoP with the given manipulations.
    pub fn announce(
        &mut self,
        sim: &mut Simulator,
        pop: &str,
        prefix: Prefix,
        opts: &AnnounceOptions,
    ) -> Result<(), ToolkitError> {
        let att = self.attachment(pop)?;
        if att.link.is_none() {
            return Err(ToolkitError::TunnelClosed(pop.to_string()));
        }
        let session = att.info.session;
        let communities = self.steering_communities(opts);
        let node = self.node;
        let announce_src = self.announce_src;
        let prepend = opts.prepend;
        let poison = opts.poison.clone();
        sim.with_node_ctx::<ExperimentNode, _>(node, |n, ctx| {
            let attrs = n.build_attrs(announce_src, prepend, &poison, &communities);
            n.announce_via(ctx, session, prefix, attrs);
        });
        Ok(())
    }

    /// Announce at every PoP with an open tunnel.
    pub fn announce_everywhere(
        &mut self,
        sim: &mut Simulator,
        prefix: Prefix,
        opts: &AnnounceOptions,
    ) -> Result<(), ToolkitError> {
        let pops: Vec<String> = self
            .pops
            .iter()
            .filter(|(_, a)| a.link.is_some())
            .map(|(n, _)| n.clone())
            .collect();
        for pop in pops {
            self.announce(sim, &pop, prefix, opts)?;
        }
        Ok(())
    }

    /// Withdraw a prefix at one PoP.
    pub fn withdraw(
        &mut self,
        sim: &mut Simulator,
        pop: &str,
        prefix: Prefix,
    ) -> Result<(), ToolkitError> {
        let att = self.attachment(pop)?;
        let session = att.info.session;
        let node = self.node;
        sim.with_node_ctx::<ExperimentNode, _>(node, |n, ctx| {
            n.withdraw_via(ctx, session, prefix);
        });
        Ok(())
    }

    /// All routes the experiment currently knows for a prefix (the
    /// "Access BIRD CLI / show route" workflow).
    pub fn routes(&self, sim: &Simulator, prefix: &Prefix) -> Vec<Route> {
        sim.node::<ExperimentNode>(self.node)
            .map(|n| n.routes_for(prefix))
            .unwrap_or_default()
    }

    /// Run the simulation forward (experiments interleave toolkit calls
    /// with waiting for convergence).
    pub fn wait(&self, sim: &mut Simulator, duration: SimDuration) {
        sim.run_for(duration);
    }

    /// The experiment-side tunnel port toward `pop`. Delivered-packet
    /// counters on the experiment node are keyed by this port, so it is
    /// the join key for per-PoP catchment accounting.
    pub fn local_port(&self, pop: &str) -> Option<PortId> {
        self.pops.get(pop).map(|a| a.info.local_port)
    }

    /// The experiment node id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }
}

/// Helper: default tunnel link config (OpenVPN over the Internet: tens of
/// ms, not bandwidth-limited in the control plane).
pub fn default_tunnel_link() -> LinkConfig {
    LinkConfig::with_latency(SimDuration::from_millis(20))
}

/// Helper: deterministic MAC for an experiment's tunnel endpoint.
pub fn experiment_mac(exp: u32, port: u16) -> MacAddr {
    MacAddr::from_id(0x7700_0000 | (exp << 8) | port as u32)
}
