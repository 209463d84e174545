//! Control-plane enforcement (paper §3.3 "Control plane enforcement" and
//! §4.7 "Policing rate" / "Policing content" / "Capability framework").
//!
//! The engine receives every route announced by an experiment, evaluates it
//! against the experiment's allocations and capabilities plus the
//! platform-wide rate limits, and passes only compliant routes onward. It
//! keeps persistent state (the update-rate ledger) and can be shared across
//! PoPs to enforce AS-wide policies (§3.3's "state can be synchronized
//! among vBGP instances"). When overloaded it fails closed, blocking all
//! experimental announcements rather than risking the Internet (§4.7).

use std::collections::HashMap;
use std::sync::Arc;

use peering_bgp::attrs::PathAttributes;
use peering_bgp::message::UpdateMsg;
use peering_bgp::types::{Asn, Prefix};
use peering_netsim::SimTime;
use peering_obs::{counter_keys, Counters, EventKind, Obs};
use std::sync::Mutex;

use crate::capability::{CapabilityKind, CapabilitySet};
use crate::communities::ControlCommunities;
use crate::ids::{ExperimentId, PopId};

/// PEERING's published update-rate limit: 144 updates/day per prefix and
/// PoP pair — one every 10 minutes on average (§4.7).
pub const UPDATES_PER_DAY_LIMIT: u32 = 144;

const SECS_PER_DAY: u64 = 86_400;

/// Length of one data-plane flood-budget window. Long relative to the
/// 60 s gossip period on purpose: a concentration attack spread across
/// PoPs only becomes visible when several gossip rounds land inside one
/// window, so the window must span many rounds.
pub const FLOOD_WINDOW_SECS: u64 = 600;

counter_keys! {
    /// Why an announcement (or part of one) was rejected, named by a
    /// stable kebab-case reason code (journal events, metric labels).
    pub enum Rejection {
        /// The engine is overloaded / unconfigured for this experiment:
        /// fail closed.
        FailClosed = "fail-closed",
        /// Prefix is not part of the experiment's allocation (hijack
        /// prevention).
        NotAllocated = "not-allocated",
        /// The route does not originate from one of the experiment's ASNs.
        BadOriginAsn = "bad-origin-asn",
        /// Empty AS path (cannot attribute the announcement).
        EmptyAsPath = "empty-as-path",
        /// Foreign ASNs in the path without the poisoning capability, or
        /// more than the granted limit.
        PoisoningNotAllowed = "poisoning-not-allowed",
        /// Providing transit (re-announcing learned routes) without the
        /// capability.
        TransitNotAllowed = "transit-not-allowed",
        /// Non-control communities attached without (or beyond) the
        /// communities capability.
        CommunitiesNotAllowed = "communities-not-allowed",
        /// Unknown/optional-transitive attributes without the capability.
        TransitiveAttrsNotAllowed = "transitive-attrs-not-allowed",
        /// 6to4 space without the 6to4 capability.
        SixToFourNotAllowed = "6to4-not-allowed",
        /// Per-(prefix, PoP) update budget exhausted.
        RateLimited = "rate-limited",
    }
}

/// What the platform knows about one approved experiment.
#[derive(Debug, Clone, Default)]
pub struct ExperimentPolicy {
    /// Prefixes allocated to the experiment (announcements must fall within
    /// one of them).
    pub allocations: Vec<Prefix>,
    /// ASNs the experiment is authorized to originate from.
    pub asns: Vec<Asn>,
    /// Granted capabilities.
    pub caps: CapabilitySet,
}

/// Per-PoP update tally for one (experiment, prefix, day) bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopCount {
    /// Updates charged through this ledger instance for the PoP.
    pub local: u32,
    /// Highest count learned for the PoP via backbone gossip. Gossip only
    /// carries a PoP's own local tally, so `remote` for PoP *p* is a
    /// monotone lower bound of *p*'s ledger's `local` — never an
    /// overestimate (the oracle checks exactly this).
    pub remote: u32,
}

impl PopCount {
    /// Best known count for the PoP: what this ledger charged itself or
    /// the highest figure gossip delivered, whichever is larger.
    pub fn best(self) -> u32 {
        self.local.max(self.remote)
    }
}

/// The update-rate ledger: per-(experiment, prefix, day) tallies broken
/// out by PoP.
///
/// Deployment modes, both exercised in tests:
///
/// * **Shared** — one `Arc<Mutex<RateLedger>>` handed to several
///   enforcers (the pre-distributed design, still what
///   [`ControlEnforcer::standalone`] builds). Every charge lands in
///   `local` under the charging PoP's key and AS-wide sums are exact.
/// * **Distributed** — one ledger per PoP; each PoP charges only its own
///   `local` tally and learns the other PoPs' tallies asynchronously via
///   backbone gossip frames (merged by [`RateLedger::observe_remote`],
///   a max-merge, so replayed or reordered frames are harmless). The
///   AS-wide sum is then eventually consistent: during a backbone
///   partition each side may overshoot the AS-wide budget by what the
///   unseen side spends (worst case `(pops - 1) × limit` for a full-day
///   partition), and reconverges to the true sum after heal within one
///   gossip period.
///
/// The per-PoP 144/day limit needs no synchronization in either mode and
/// is always exact.
#[derive(Debug, Default)]
pub struct RateLedger {
    days: HashMap<(ExperimentId, Prefix, u64), HashMap<PopId, PopCount>>,
    /// Data-plane flood tallies: packets per (experiment, source bucket,
    /// flood window), broken out by PoP exactly like `days`. The same
    /// `{local, remote}` max-merge CRDT applies, so the AS-wide flood
    /// budget inherits the update ledger's partition/overshoot story.
    floods: HashMap<(ExperimentId, Prefix, u64), HashMap<PopId, PopCount>>,
    /// Optional AS-wide (summed over PoPs) daily update budget per
    /// (experiment, prefix).
    as_wide_limit: Option<u32>,
}

impl RateLedger {
    /// The day bucket `now` falls in.
    pub fn day_index(now: SimTime) -> u64 {
        now.as_secs() / SECS_PER_DAY
    }

    /// Record one update; returns `false` if the per-PoP daily budget (or
    /// the AS-wide budget, when configured) is exhausted.
    fn charge(&mut self, exp: ExperimentId, prefix: Prefix, pop: PopId, now: SimTime) -> bool {
        let day = Self::day_index(now);
        let pops = self.days.entry((exp, prefix, day)).or_default();
        let mine = pops.get(&pop).copied().unwrap_or_default();
        if mine.best() >= UPDATES_PER_DAY_LIMIT {
            return false;
        }
        if let Some(limit) = self.as_wide_limit {
            let wide: u32 = pops.values().map(|c| c.best()).sum();
            if wide >= limit {
                return false;
            }
        }
        pops.entry(pop).or_default().local += 1;
        true
    }

    /// Configure (or clear) the AS-wide daily update budget.
    pub fn set_as_wide_limit(&mut self, limit: Option<u32>) {
        self.as_wide_limit = limit;
    }

    /// The configured AS-wide daily update budget, if any.
    pub fn as_wide_limit(&self) -> Option<u32> {
        self.as_wide_limit
    }

    /// The flood window `now` falls in (see [`FLOOD_WINDOW_SECS`]).
    pub fn flood_window(now: SimTime) -> u64 {
        now.as_secs() / FLOOD_WINDOW_SECS
    }

    /// Charge one delivered packet against a flood bucket (experiment ×
    /// aggregated source prefix × current window). Returns `false` when
    /// the budget is gone: either this PoP alone exceeded
    /// `per_pop_limit`, or — with `as_wide_limit` set — the best-known
    /// platform-wide total (local spend plus gossiped remote tallies)
    /// reached the AS-wide cap. Limits live in the experiment's data
    /// policy, not the ledger, so different experiments can share one
    /// ledger with different budgets.
    pub fn charge_flood(
        &mut self,
        exp: ExperimentId,
        bucket: Prefix,
        pop: PopId,
        now: SimTime,
        per_pop_limit: u32,
        as_wide_limit: Option<u32>,
    ) -> bool {
        let window = Self::flood_window(now);
        let pops = self.floods.entry((exp, bucket, window)).or_default();
        let mine = pops.get(&pop).copied().unwrap_or_default();
        if mine.best() >= per_pop_limit {
            return false;
        }
        if let Some(limit) = as_wide_limit {
            let wide: u32 = pops.values().map(|c| c.best()).sum();
            if wide >= limit {
                return false;
            }
        }
        pops.entry(pop).or_default().local += 1;
        true
    }

    /// This PoP's own current-window flood tallies, for gossip — same
    /// sorted-for-byte-determinism contract as
    /// [`RateLedger::gossip_entries`].
    pub fn flood_gossip_entries(
        &self,
        pop: PopId,
        now: SimTime,
    ) -> Vec<(ExperimentId, Prefix, u32)> {
        let window = Self::flood_window(now);
        let mut out: Vec<(ExperimentId, Prefix, u32)> = self
            .floods
            .iter()
            .filter(|((_, _, w), _)| *w == window)
            .filter_map(|((exp, bucket, _), pops)| {
                let local = pops.get(&pop)?.local;
                (local > 0).then_some((*exp, *bucket, local))
            })
            .collect();
        out.sort_unstable_by_key(|(exp, bucket, _)| (*exp, *bucket));
        out
    }

    /// Merge a flood gossip section from `origin`: max-merge into the
    /// origin PoP's `remote` tallies, exactly like
    /// [`RateLedger::observe_remote`].
    pub fn observe_remote_flood(
        &mut self,
        origin: PopId,
        window: u64,
        entries: &[(ExperimentId, Prefix, u32)],
    ) {
        for (exp, bucket, count) in entries {
            let c = self
                .floods
                .entry((*exp, *bucket, window))
                .or_default()
                .entry(origin)
                .or_default();
            c.remote = c.remote.max(*count);
        }
    }

    /// Drop update buckets older than the current day and flood buckets
    /// older than the current window (housekeeping). Returns how many
    /// buckets were removed in total.
    pub fn prune(&mut self, now: SimTime) -> usize {
        let day = Self::day_index(now);
        let window = Self::flood_window(now);
        let before = self.days.len() + self.floods.len();
        self.days.retain(|(_, _, d), _| *d >= day);
        self.floods.retain(|(_, _, w), _| *w >= window);
        before - self.days.len() - self.floods.len()
    }

    /// Retained buckets (update days + flood windows) — bounded by
    /// [`RateLedger::prune`] in a long run.
    pub fn len(&self) -> usize {
        self.days.len() + self.floods.len()
    }

    /// Whether the ledger holds no buckets at all.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty() && self.floods.is_empty()
    }

    /// Best-known updates consumed today for a (prefix, PoP) pair.
    pub fn used_today(&self, exp: ExperimentId, prefix: Prefix, pop: PopId, now: SimTime) -> u32 {
        let day = Self::day_index(now);
        self.days
            .get(&(exp, prefix, day))
            .and_then(|pops| pops.get(&pop))
            .map(|c| c.best())
            .unwrap_or(0)
    }

    /// Best-known AS-wide (summed over PoPs) updates consumed today for a
    /// prefix.
    pub fn wide_today(&self, exp: ExperimentId, prefix: Prefix, now: SimTime) -> u32 {
        let day = Self::day_index(now);
        self.days
            .get(&(exp, prefix, day))
            .map(|pops| pops.values().map(|c| c.best()).sum())
            .unwrap_or(0)
    }

    /// This PoP's own current-day tallies, for gossiping to backbone
    /// peers. Sorted by (experiment, prefix) so the encoded frame payload
    /// is byte-identical regardless of map iteration order — a
    /// requirement for sharded-run determinism.
    pub fn gossip_entries(&self, pop: PopId, now: SimTime) -> Vec<(ExperimentId, Prefix, u32)> {
        let day = Self::day_index(now);
        let mut out: Vec<(ExperimentId, Prefix, u32)> = self
            .days
            .iter()
            .filter(|((_, _, d), _)| *d == day)
            .filter_map(|((exp, prefix, _), pops)| {
                let local = pops.get(&pop)?.local;
                (local > 0).then_some((*exp, *prefix, local))
            })
            .collect();
        out.sort_unstable_by_key(|(exp, prefix, _)| (*exp, *prefix));
        out
    }

    /// Merge a gossip frame from `origin`: max-merge each entry into the
    /// origin PoP's `remote` tally. Idempotent and order-independent, so
    /// duplicated or reordered frames cannot inflate counts.
    pub fn observe_remote(
        &mut self,
        origin: PopId,
        day: u64,
        entries: &[(ExperimentId, Prefix, u32)],
    ) {
        for (exp, prefix, count) in entries {
            let c = self
                .days
                .entry((*exp, *prefix, day))
                .or_default()
                .entry(origin)
                .or_default();
            c.remote = c.remote.max(*count);
        }
    }

    /// Current-day view for invariant checks: every (experiment, prefix,
    /// PoP) tally, sorted.
    pub fn entries_today(&self, now: SimTime) -> Vec<(ExperimentId, Prefix, PopId, PopCount)> {
        let day = Self::day_index(now);
        let mut out: Vec<(ExperimentId, Prefix, PopId, PopCount)> = self
            .days
            .iter()
            .filter(|((_, _, d), _)| *d == day)
            .flat_map(|((exp, prefix, _), pops)| {
                pops.iter().map(|(pop, c)| (*exp, *prefix, *pop, *c))
            })
            .collect();
        out.sort_unstable_by_key(|(exp, prefix, pop, _)| (*exp, *prefix, *pop));
        out
    }
}

counter_keys! {
    /// Counters for the enforcement pipeline.
    pub enum ControlCounter {
        /// NLRI entries evaluated (announcements + withdrawals).
        Evaluated = "control.evaluated",
        /// Entries accepted.
        Accepted = "control.accepted",
        /// 1 while the engine fails closed, else 0.
        FailClosed = level "control.fail_closed",
    }
}

/// The control-plane enforcement engine for one PoP.
pub struct ControlEnforcer {
    pop: PopId,
    control: ControlCommunities,
    experiments: HashMap<ExperimentId, ExperimentPolicy>,
    ledger: Arc<Mutex<RateLedger>>,
    /// When set, every announcement is rejected (overload → fail closed).
    /// Private so transitions always go through
    /// [`ControlEnforcer::set_fail_closed`] and are journaled — the paper's
    /// overload semantics (§4.7) are an observable platform state, not a
    /// silent flag.
    fail_closed: bool,
    /// Journal handle (fail-closed transitions).
    obs: Obs,
    /// Pipeline counters.
    pub stats: Counters<ControlCounter>,
    /// Rejections by reason (`control.rejected{reason=…}`).
    pub rejected: Counters<Rejection>,
}

/// 6to4 space: 2002::/16.
fn is_6to4(prefix: &Prefix) -> bool {
    match prefix {
        Prefix::V6 { addr, .. } => addr.octets()[0] == 0x20 && addr.octets()[1] == 0x02,
        Prefix::V4 { .. } => false,
    }
}

impl ControlEnforcer {
    /// Build an enforcer for a PoP, sharing the platform-wide rate ledger.
    pub fn new(pop: PopId, control: ControlCommunities, ledger: Arc<Mutex<RateLedger>>) -> Self {
        let obs = Obs::new();
        ControlEnforcer {
            pop,
            control,
            experiments: HashMap::new(),
            ledger,
            fail_closed: false,
            stats: Counters::new(&obs),
            rejected: Counters::family(&obs, "control.rejected", "reason"),
            obs,
        }
    }

    /// Attach a shared observability handle and move the counters into
    /// its registry, values included.
    pub fn set_obs(&mut self, obs: Obs) {
        self.stats.set_obs(&obs);
        self.rejected.set_obs(&obs);
        self.obs = obs;
    }

    /// Whether the engine is currently failing closed.
    pub fn fail_closed(&self) -> bool {
        self.fail_closed
    }

    /// The PoP this enforcer belongs to.
    pub fn pop_id(&self) -> PopId {
        self.pop
    }

    /// Enter or leave fail-closed mode. Transitions are journaled and
    /// set the `control.fail_closed` level so the oracle and tests can
    /// see overload come and go (§4.7); a no-op set is silent.
    pub fn set_fail_closed(&mut self, on: bool) {
        if self.fail_closed == on {
            return;
        }
        self.fail_closed = on;
        self.stats.set(ControlCounter::FailClosed, on as u64);
        self.obs.record(EventKind::FailClosed {
            pop: self.pop.0,
            entered: on,
        });
    }

    /// Convenience: an enforcer with its own private ledger (single-PoP
    /// deployments and tests).
    pub fn standalone(pop: PopId, control: ControlCommunities) -> Self {
        Self::new(pop, control, Arc::new(Mutex::new(RateLedger::default())))
    }

    /// Register (or update) an experiment's policy.
    pub fn set_experiment(&mut self, exp: ExperimentId, policy: ExperimentPolicy) {
        self.experiments.insert(exp, policy);
    }

    /// Remove an experiment (end of its allocation).
    pub fn remove_experiment(&mut self, exp: ExperimentId) {
        self.experiments.remove(&exp);
    }

    /// Whether an experiment has a registered policy.
    pub fn has_experiment(&self, exp: ExperimentId) -> bool {
        self.experiments.contains_key(&exp)
    }

    /// Access the shared ledger (for inspection / pruning).
    pub fn ledger(&self) -> Arc<Mutex<RateLedger>> {
        Arc::clone(&self.ledger)
    }

    fn check_prefix_ownership(policy: &ExperimentPolicy, prefix: &Prefix) -> Result<(), Rejection> {
        if policy.allocations.iter().any(|a| a.contains(prefix)) {
            return Ok(());
        }
        if is_6to4(prefix) {
            if policy.caps.allows(CapabilityKind::Announce6to4) {
                return Ok(());
            }
            return Err(Rejection::SixToFourNotAllowed);
        }
        Err(Rejection::NotAllocated)
    }

    fn check_attrs(
        &self,
        policy: &ExperimentPolicy,
        attrs: &PathAttributes,
    ) -> Result<(), Rejection> {
        // Origin attribution.
        let Some(origin) = attrs.as_path.origin_as() else {
            return Err(Rejection::EmptyAsPath);
        };
        let origin_owned = policy.asns.contains(&origin);
        let transit = policy.caps.allows(CapabilityKind::ProvideTransit);
        if !origin_owned && !transit {
            return Err(Rejection::BadOriginAsn);
        }
        // Foreign ASNs in the path = poisoning (unless providing transit).
        if !transit {
            let mut foreign: Vec<Asn> = attrs
                .as_path
                .asns()
                .into_iter()
                .filter(|a| !policy.asns.contains(a))
                .collect();
            foreign.sort_unstable_by_key(|a| a.0);
            foreign.dedup();
            if !foreign.is_empty() {
                let limit = if policy.caps.allows(CapabilityKind::AsPathPoisoning) {
                    policy.caps.limit(CapabilityKind::AsPathPoisoning) as usize
                } else {
                    0
                };
                if foreign.len() > limit {
                    return Err(Rejection::PoisoningNotAllowed);
                }
            }
        }
        // Communities: control communities are the steering interface and
        // always allowed; everything else needs the capability.
        let non_control = attrs
            .communities
            .iter()
            .filter(|c| !self.control.is_control(**c))
            .count()
            + attrs.large_communities.len();
        if non_control > 0 {
            let limit = if policy.caps.allows(CapabilityKind::AttachCommunities) {
                policy.caps.limit(CapabilityKind::AttachCommunities) as usize
            } else {
                0
            };
            if non_control > limit {
                return Err(Rejection::CommunitiesNotAllowed);
            }
        }
        // Unknown / optional transitive attributes.
        if !attrs.unknown.is_empty() && !policy.caps.allows(CapabilityKind::TransitiveAttributes) {
            return Err(Rejection::TransitiveAttrsNotAllowed);
        }
        Ok(())
    }

    /// Evaluate one UPDATE from an experiment. Returns the compliant subset
    /// (possibly empty) and the per-prefix rejections.
    pub fn check_update(
        &mut self,
        exp: ExperimentId,
        update: &UpdateMsg,
        now: SimTime,
    ) -> (UpdateMsg, Vec<(Prefix, Rejection)>) {
        let mut rejections = Vec::new();
        let mut out = UpdateMsg {
            withdrawn: Vec::new(),
            attrs: update.attrs.clone(),
            announce: Vec::new(),
        };

        let policy = match self.experiments.get(&exp) {
            Some(p) if !self.fail_closed => p.clone(),
            _ => {
                // Unknown experiment or overloaded engine: fail closed.
                for (p, _) in update.announce.iter().chain(update.withdrawn.iter()) {
                    rejections.push((*p, Rejection::FailClosed));
                }
                out.attrs = None;
                self.tally(&out, &rejections);
                return (out, rejections);
            }
        };

        for entry in &update.withdrawn {
            let (prefix, _) = entry;
            if let Err(r) = Self::check_prefix_ownership(&policy, prefix) {
                rejections.push((*prefix, r));
                continue;
            }
            if !self
                .ledger
                .lock()
                .unwrap()
                .charge(exp, *prefix, self.pop, now)
            {
                rejections.push((*prefix, Rejection::RateLimited));
                continue;
            }
            out.withdrawn.push(*entry);
        }

        if let Some(attrs) = &update.attrs {
            let attr_check = self.check_attrs(&policy, attrs);
            for entry in &update.announce {
                let (prefix, _) = entry;
                if let Err(r) = attr_check {
                    rejections.push((*prefix, r));
                    continue;
                }
                if let Err(r) = Self::check_prefix_ownership(&policy, prefix) {
                    rejections.push((*prefix, r));
                    continue;
                }
                if !self
                    .ledger
                    .lock()
                    .unwrap()
                    .charge(exp, *prefix, self.pop, now)
                {
                    rejections.push((*prefix, Rejection::RateLimited));
                    continue;
                }
                out.announce.push(*entry);
            }
        }
        if out.announce.is_empty() {
            out.attrs = None;
        }
        self.tally(&out, &rejections);
        (out, rejections)
    }

    /// Count an evaluated UPDATE: its entries, the accepted ones, and each
    /// rejection by reason.
    fn tally(&mut self, out: &UpdateMsg, rejections: &[(Prefix, Rejection)]) {
        let accepted = (out.withdrawn.len() + out.announce.len()) as u64;
        let evaluated = accepted + rejections.len() as u64;
        self.stats.add(ControlCounter::Evaluated, evaluated);
        self.stats.add(ControlCounter::Accepted, accepted);
        for (_, r) in rejections {
            self.rejected.inc(*r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_bgp::attrs::{AsPath, UnknownAttr};
    use peering_bgp::types::{prefix, Community};

    use crate::capability::Grant;

    const EXP: ExperimentId = ExperimentId(1);

    fn enforcer() -> ControlEnforcer {
        let mut e = ControlEnforcer::standalone(PopId(0), ControlCommunities::new(47065));
        e.set_experiment(
            EXP,
            ExperimentPolicy {
                allocations: vec![prefix("184.164.224.0/23"), prefix("2804:269c::/32")],
                asns: vec![Asn(61574)],
                caps: CapabilitySet::basic(),
            },
        );
        e
    }

    fn announce(p: &str, asns: &[u32]) -> UpdateMsg {
        let attrs = PathAttributes {
            as_path: AsPath::from_asns(&asns.iter().map(|&a| Asn(a)).collect::<Vec<_>>()),
            next_hop: Some("10.0.0.1".parse().unwrap()),
            ..Default::default()
        };
        UpdateMsg::announce(vec![(prefix(p), None)], attrs)
    }

    fn check(e: &mut ControlEnforcer, u: &UpdateMsg) -> (UpdateMsg, Vec<(Prefix, Rejection)>) {
        e.check_update(EXP, u, SimTime::ZERO)
    }

    #[test]
    fn allocated_prefix_accepted() {
        let mut e = enforcer();
        let (out, rej) = check(&mut e, &announce("184.164.224.0/24", &[61574]));
        assert!(rej.is_empty());
        assert_eq!(out.announce.len(), 1);
        assert_eq!(e.stats.get(ControlCounter::Accepted), 1);
    }

    #[test]
    fn hijack_rejected() {
        let mut e = enforcer();
        let (out, rej) = check(&mut e, &announce("8.8.8.0/24", &[61574]));
        assert!(out.announce.is_empty());
        assert!(out.attrs.is_none());
        assert_eq!(rej, vec![(prefix("8.8.8.0/24"), Rejection::NotAllocated)]);
    }

    #[test]
    fn wrong_origin_asn_rejected() {
        let mut e = enforcer();
        let (_, rej) = check(&mut e, &announce("184.164.224.0/24", &[666]));
        // AS666 is both the origin and a foreign ASN; origin check fires.
        assert_eq!(rej[0].1, Rejection::BadOriginAsn);
    }

    #[test]
    fn empty_as_path_rejected() {
        let mut e = enforcer();
        let u = UpdateMsg::announce(
            vec![(prefix("184.164.224.0/24"), None)],
            PathAttributes::originated("10.0.0.1".parse().unwrap()),
        );
        let (_, rej) = check(&mut e, &u);
        assert_eq!(rej[0].1, Rejection::EmptyAsPath);
    }

    #[test]
    fn poisoning_requires_capability() {
        let mut e = enforcer();
        // Path 61574 3356 61574: poisons AS3356.
        let (_, rej) = check(&mut e, &announce("184.164.224.0/24", &[61574, 3356, 61574]));
        assert_eq!(rej[0].1, Rejection::PoisoningNotAllowed);

        // Grant poisoning of up to 2 ASes.
        e.experiments
            .get_mut(&EXP)
            .unwrap()
            .caps
            .grant(Grant::limited(CapabilityKind::AsPathPoisoning, 2));
        let (out, rej) = check(&mut e, &announce("184.164.224.0/24", &[61574, 3356, 61574]));
        assert!(rej.is_empty());
        assert_eq!(out.announce.len(), 1);
        // Three distinct poisoned ASes exceeds the limit of 2.
        let (_, rej) = check(
            &mut e,
            &announce("184.164.224.0/24", &[61574, 1, 2, 3, 61574]),
        );
        assert_eq!(rej[0].1, Rejection::PoisoningNotAllowed);
    }

    #[test]
    fn transit_capability_allows_foreign_paths() {
        let mut e = enforcer();
        e.experiments
            .get_mut(&EXP)
            .unwrap()
            .caps
            .grant(Grant::unlimited(CapabilityKind::ProvideTransit));
        // Re-announcing a route learned from AS174 (origin not owned).
        let (out, rej) = check(&mut e, &announce("184.164.225.0/24", &[61574, 174]));
        assert!(rej.is_empty());
        assert_eq!(out.announce.len(), 1);
    }

    #[test]
    fn communities_require_capability_but_control_ones_are_free() {
        let mut e = enforcer();
        let cc = ControlCommunities::new(47065);
        let mut u = announce("184.164.224.0/24", &[61574]);
        u.attrs
            .as_mut()
            .unwrap()
            .add_community(cc.announce_to(crate::ids::NeighborId(3)));
        let (out, rej) = check(&mut e, &u);
        assert!(rej.is_empty(), "control communities always allowed");
        assert_eq!(out.announce.len(), 1);

        u.attrs
            .as_mut()
            .unwrap()
            .add_community(Community::new(3356, 70)); // action community at a transit
        let (_, rej) = check(&mut e, &u);
        assert_eq!(rej[0].1, Rejection::CommunitiesNotAllowed);

        e.experiments
            .get_mut(&EXP)
            .unwrap()
            .caps
            .grant(Grant::limited(CapabilityKind::AttachCommunities, 4));
        let (out, rej) = check(&mut e, &u);
        assert!(rej.is_empty());
        assert_eq!(out.announce.len(), 1);
    }

    #[test]
    fn transitive_attrs_require_capability() {
        let mut e = enforcer();
        let mut u = announce("184.164.224.0/24", &[61574]);
        u.attrs.as_mut().unwrap().unknown.push(UnknownAttr {
            flags: 0xC0,
            type_code: 99,
            value: vec![1, 2],
        });
        let (_, rej) = check(&mut e, &u);
        assert_eq!(rej[0].1, Rejection::TransitiveAttrsNotAllowed);
        e.experiments
            .get_mut(&EXP)
            .unwrap()
            .caps
            .grant(Grant::unlimited(CapabilityKind::TransitiveAttributes));
        let (_, rej) = check(&mut e, &u);
        assert!(rej.is_empty());
    }

    #[test]
    fn six_to_four_requires_capability() {
        let mut e = enforcer();
        let mut u = announce("184.164.224.0/24", &[61574]);
        u.announce = vec![(prefix("2002:b8a4::/32"), None)];
        let (_, rej) = check(&mut e, &u);
        assert_eq!(rej[0].1, Rejection::SixToFourNotAllowed);
        e.experiments
            .get_mut(&EXP)
            .unwrap()
            .caps
            .grant(Grant::unlimited(CapabilityKind::Announce6to4));
        let (out, rej) = check(&mut e, &u);
        assert!(rej.is_empty());
        assert_eq!(out.announce.len(), 1);
    }

    #[test]
    fn allocated_v6_accepted() {
        let mut e = enforcer();
        let mut u = announce("184.164.224.0/24", &[61574]);
        u.announce = vec![(prefix("2804:269c:fe00::/40"), None)];
        let (out, rej) = check(&mut e, &u);
        assert!(rej.is_empty());
        assert_eq!(out.announce.len(), 1);
    }

    #[test]
    fn rate_limit_144_per_day_per_prefix_pop() {
        let mut e = enforcer();
        let u = announce("184.164.224.0/24", &[61574]);
        for i in 0..UPDATES_PER_DAY_LIMIT {
            let (out, rej) = e.check_update(EXP, &u, SimTime::from_nanos(i as u64));
            assert!(rej.is_empty(), "update {i} unexpectedly rejected");
            assert_eq!(out.announce.len(), 1);
        }
        let (_, rej) = e.check_update(EXP, &u, SimTime::ZERO);
        assert_eq!(rej[0].1, Rejection::RateLimited);
        // A different prefix still has budget.
        let (out, rej) = check(&mut e, &announce("184.164.225.0/24", &[61574]));
        assert!(rej.is_empty());
        assert_eq!(out.announce.len(), 1);
        // The next simulated day resets the budget.
        let tomorrow = SimTime::from_nanos(86_401 * 1_000_000_000);
        let (out, rej) = e.check_update(EXP, &u, tomorrow);
        assert!(rej.is_empty());
        assert_eq!(out.announce.len(), 1);
    }

    #[test]
    fn withdrawals_are_charged_and_checked() {
        let mut e = enforcer();
        let w = UpdateMsg::withdraw(vec![(prefix("184.164.224.0/24"), None)]);
        let (out, rej) = check(&mut e, &w);
        assert!(rej.is_empty());
        assert_eq!(out.withdrawn.len(), 1);
        // Withdrawing someone else's prefix is filtered.
        let w = UpdateMsg::withdraw(vec![(prefix("8.8.8.0/24"), None)]);
        let (out, rej) = check(&mut e, &w);
        assert!(out.withdrawn.is_empty());
        assert_eq!(rej[0].1, Rejection::NotAllocated);
    }

    #[test]
    fn shared_ledger_enforces_as_wide_budget() {
        // Two PoPs share the ledger: each has its own 144/day budget per
        // prefix (the pair key includes the PoP).
        let ledger = Arc::new(Mutex::new(RateLedger::default()));
        let cc = ControlCommunities::new(47065);
        let mut e0 = ControlEnforcer::new(PopId(0), cc, Arc::clone(&ledger));
        let mut e1 = ControlEnforcer::new(PopId(1), cc, Arc::clone(&ledger));
        let policy = ExperimentPolicy {
            allocations: vec![prefix("184.164.224.0/23")],
            asns: vec![Asn(61574)],
            caps: CapabilitySet::basic(),
        };
        e0.set_experiment(EXP, policy.clone());
        e1.set_experiment(EXP, policy);
        let u = announce("184.164.224.0/24", &[61574]);
        for _ in 0..UPDATES_PER_DAY_LIMIT {
            let (_, rej) = e0.check_update(EXP, &u, SimTime::ZERO);
            assert!(rej.is_empty());
        }
        let (_, rej) = e0.check_update(EXP, &u, SimTime::ZERO);
        assert_eq!(rej[0].1, Rejection::RateLimited);
        // PoP 1 has an independent per-PoP budget but shares the ledger
        // storage (and both are visible platform-wide).
        let (_, rej) = e1.check_update(EXP, &u, SimTime::ZERO);
        assert!(rej.is_empty());
        assert_eq!(
            ledger.lock().unwrap().used_today(
                EXP,
                prefix("184.164.224.0/24"),
                PopId(1),
                SimTime::ZERO
            ),
            1
        );
    }

    #[test]
    fn fail_closed_blocks_everything_and_is_journaled() {
        let mut e = enforcer();
        let obs = Obs::new();
        e.set_obs(obs.clone());
        e.set_fail_closed(true);
        assert!(e.fail_closed());
        assert_eq!(obs.snapshot().gauge("control.fail_closed"), Some(1));
        let (out, rej) = check(&mut e, &announce("184.164.224.0/24", &[61574]));
        assert!(out.announce.is_empty());
        assert_eq!(rej[0].1, Rejection::FailClosed);
        // Redundant sets are silent; real transitions are journaled both
        // ways and set the level.
        e.set_fail_closed(true);
        e.set_fail_closed(false);
        let events: Vec<EventKind> = obs.events().iter().map(|ev| ev.kind).collect();
        assert_eq!(
            events,
            vec![
                EventKind::FailClosed {
                    pop: 0,
                    entered: true
                },
                EventKind::FailClosed {
                    pop: 0,
                    entered: false
                },
            ]
        );
        assert_eq!(obs.snapshot().gauge("control.fail_closed"), Some(0));
    }

    #[test]
    fn unknown_experiment_fails_closed() {
        let mut e = enforcer();
        let u = announce("184.164.224.0/24", &[61574]);
        let (out, rej) = e.check_update(ExperimentId(99), &u, SimTime::ZERO);
        assert!(out.announce.is_empty());
        assert_eq!(rej[0].1, Rejection::FailClosed);
    }

    #[test]
    fn ledger_prune_drops_old_days() {
        let mut ledger = RateLedger::default();
        ledger.charge(EXP, prefix("184.164.224.0/24"), PopId(0), SimTime::ZERO);
        let tomorrow = SimTime::from_nanos(90_000 * 1_000_000_000);
        ledger.charge(EXP, prefix("184.164.224.0/24"), PopId(0), tomorrow);
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.prune(tomorrow), 1);
        assert_eq!(ledger.len(), 1);
        // Pruning again is a no-op.
        assert_eq!(ledger.prune(tomorrow), 0);
    }

    #[test]
    fn as_wide_limit_spans_pops() {
        // Shared-ledger mode: the AS-wide budget sums exactly across PoPs.
        let mut ledger = RateLedger::default();
        ledger.set_as_wide_limit(Some(5));
        assert_eq!(ledger.as_wide_limit(), Some(5));
        let p = prefix("184.164.224.0/24");
        for i in 0..3 {
            assert!(ledger.charge(EXP, p, PopId(0), SimTime::from_nanos(i)));
        }
        assert!(ledger.charge(EXP, p, PopId(1), SimTime::ZERO));
        assert!(ledger.charge(EXP, p, PopId(2), SimTime::ZERO));
        // 3 + 1 + 1 = 5: the budget is gone at every PoP.
        for pop in 0..3 {
            assert!(!ledger.charge(EXP, p, PopId(pop), SimTime::ZERO));
        }
        assert_eq!(ledger.wide_today(EXP, p, SimTime::ZERO), 5);
        // Other prefixes are unaffected.
        assert!(ledger.charge(EXP, prefix("184.164.225.0/24"), PopId(0), SimTime::ZERO));
        // A new day resets the AS-wide budget too.
        let tomorrow = SimTime::from_nanos(90_000 * 1_000_000_000);
        assert!(ledger.charge(EXP, p, PopId(0), tomorrow));
    }

    #[test]
    fn gossip_merge_is_idempotent_and_bounded_by_origin_truth() {
        // Distributed mode: two per-PoP ledgers, reconciled by gossip.
        let p = prefix("184.164.224.0/24");
        let mut at0 = RateLedger::default();
        let mut at1 = RateLedger::default();
        at0.set_as_wide_limit(Some(10));
        at1.set_as_wide_limit(Some(10));
        for i in 0..7 {
            assert!(at0.charge(EXP, p, PopId(0), SimTime::from_nanos(i)));
        }
        for i in 0..4 {
            assert!(at1.charge(EXP, p, PopId(1), SimTime::from_nanos(i)));
        }
        // Before gossip each side only sees its own spend.
        assert_eq!(at1.wide_today(EXP, p, SimTime::ZERO), 4);
        let frame = at0.gossip_entries(PopId(0), SimTime::ZERO);
        assert_eq!(frame, vec![(EXP, p, 7)]);
        at1.observe_remote(PopId(0), 0, &frame);
        assert_eq!(at1.wide_today(EXP, p, SimTime::ZERO), 11);
        assert_eq!(at1.used_today(EXP, p, PopId(0), SimTime::ZERO), 7);
        // Replayed and stale frames cannot inflate the tally (max-merge).
        at1.observe_remote(PopId(0), 0, &frame);
        at1.observe_remote(PopId(0), 0, &[(EXP, p, 3)]);
        assert_eq!(at1.wide_today(EXP, p, SimTime::ZERO), 11);
        // PoP 1 now refuses further charges: over the AS-wide budget.
        assert!(!at1.charge(EXP, p, PopId(1), SimTime::ZERO));
        // Remote tallies never exceed the origin's own local count.
        for (_, _, pop, c) in at1.entries_today(SimTime::ZERO) {
            if pop == PopId(0) {
                assert!(c.remote <= at0.used_today(EXP, p, PopId(0), SimTime::ZERO));
            }
        }
        // Gossip entries only carry the *local* tally — what PoP 1 heard
        // about PoP 0 is not re-gossiped as PoP 1's own spend.
        assert_eq!(
            at1.gossip_entries(PopId(1), SimTime::ZERO),
            vec![(EXP, p, 4)]
        );
        assert!(at1.gossip_entries(PopId(0), SimTime::ZERO).is_empty());
    }

    #[test]
    fn gossip_entries_are_sorted_deterministically() {
        let mut ledger = RateLedger::default();
        // Insert in scrambled order; HashMap iteration order must not leak.
        for s in ["184.164.227.0/24", "184.164.224.0/24", "184.164.226.0/24"] {
            ledger.charge(ExperimentId(2), prefix(s), PopId(0), SimTime::ZERO);
            ledger.charge(ExperimentId(1), prefix(s), PopId(0), SimTime::ZERO);
        }
        let entries = ledger.gossip_entries(PopId(0), SimTime::ZERO);
        let mut sorted = entries.clone();
        sorted.sort_unstable_by_key(|(exp, prefix, _)| (*exp, *prefix));
        assert_eq!(entries, sorted);
        assert_eq!(entries.len(), 6);
        assert!(entries[0].0 < entries[5].0);
    }

    #[test]
    fn per_pop_limit_still_applies_with_remote_knowledge() {
        // A PoP that learns (via gossip) it already spent its per-PoP
        // budget elsewhere must refuse local charges, even with no local
        // spend — `best()` feeds the per-PoP check.
        let p = prefix("184.164.224.0/24");
        let mut ledger = RateLedger::default();
        ledger.observe_remote(PopId(0), 0, &[(EXP, p, UPDATES_PER_DAY_LIMIT)]);
        assert!(!ledger.charge(EXP, p, PopId(0), SimTime::ZERO));
    }
}
