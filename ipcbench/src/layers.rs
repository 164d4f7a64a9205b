//! Per-layer counters, read from the public stats getters of every layer:
//! `Sim::link_stats` (sim), `Ipcp::stats` / `route_stats` /
//! `conn_stats_sum` (ipcp, routing, efcp), `Node::rmt_lane_stats` (rmt),
//! the RIB of each member (rib) and the churn/ping apps (apps).
//!
//! A snapshot is a flat map of cumulative integer counters, so the
//! measured phase is the difference of two snapshots and the determinism
//! check is a plain equality of maps.

use crate::workload::{Handles, Traffic};
use rina::ipcp::Ipcp;
use rina::rmt::{LaneStats, LANES};
use rina::Net;
use std::collections::BTreeMap;

/// Cumulative integer counters by name.
pub type Counters = BTreeMap<String, u64>;

/// The ranks relay counters are split by: shim IPC processes (one per
/// link end), members of lower DIFs, and members of the DIF the traffic
/// uses.
pub const RANKS: [&str; 3] = ["shim", "lower", "top"];

/// RMT lanes by role: the lane is the QoS cube id of the standard cube
/// set (lane 0 is management). The reliable-bulk lane.
pub const LANE_RELIABLE: usize = 1;
/// The interactive lane.
pub const LANE_INTERACTIVE: usize = 2;
/// The datagram-bulk lane.
pub const LANE_DATAGRAM: usize = 3;

fn rank_of(ip: &Ipcp, top: &Ipcp) -> &'static str {
    if ip.is_shim {
        RANKS[0]
    } else if ip.cfg.name == top.cfg.name {
        RANKS[2]
    } else {
        RANKS[1]
    }
}

/// Every IPC process of the network with its rank.
fn ipcps<'a>(net: &'a Net, h: &Handles) -> Vec<(&'static str, &'a Ipcp)> {
    let top = net.ipcp(h.hub);
    let mut v = Vec::new();
    for &n in &h.nodes {
        let node = net.node(n);
        for i in 0..node.ipcp_count() {
            let ip = node.ipcp(i);
            v.push((rank_of(ip, top), ip));
        }
    }
    v
}

/// RMT lane counters merged over every node.
pub fn lanes(net: &Net, h: &Handles) -> [LaneStats; LANES] {
    let mut lane = [LaneStats::default(); LANES];
    for &n in &h.nodes {
        for (l, s) in net.node(n).rmt_lane_stats().iter().enumerate() {
            lane[l].merge(s);
        }
    }
    lane
}

/// Read every cumulative counter.
pub fn counters(net: &Net, h: &Handles) -> Counters {
    let mut c = Counters::new();
    let mut add = |k: String, v: u64| *c.entry(k).or_default() += v;

    for &l in &h.links {
        let s = net.sim.link_stats(net.link_id(l));
        add("sim.link_frames".into(), s.delivered);
        add("sim.link_bytes".into(), s.delivered_bytes);
        add("sim.link_drops_overflow".into(), s.drops_overflow);
        add("sim.link_drops_loss".into(), s.drops_loss);
    }

    for (rank, ip) in ipcps(net, h) {
        let st = &ip.stats;
        for (k, v) in [
            ("relayed", st.relayed),
            ("relay_fast", st.relay_fast),
            ("relay_slow", st.relay_slow),
            ("no_route", st.no_route),
            ("ttl_drops", st.ttl_drops),
            ("decode_errors", st.decode_errors),
        ] {
            add(format!("ipcp.{k}"), v);
            add(format!("ipcp.{k}.{rank}"), v);
        }
        let cs = ip.conn_stats_sum();
        for (k, v) in [
            ("sdus_sent", cs.sdus_sent),
            ("pdus_sent", cs.pdus_sent),
            ("acks_sent", cs.acks_sent),
            ("rtx", cs.retransmissions),
            ("timeouts", cs.timeouts),
            ("dup_pdus", cs.dup_pdus),
            ("ooo_pdus", cs.ooo_pdus),
            ("rcv_dropped", cs.rcv_dropped),
            ("cong_backoffs", cs.cong_backoffs),
        ] {
            add(format!("efcp.{k}"), v);
        }
        add("efcp.flows_open".into(), ip.flow_count() as u64);
        if ip.is_shim {
            add("rmt.queue_cap_bytes".into(), ip.cfg.rmt_queue_cap_bytes as u64);
            continue;
        }
        let rs = ip.route_stats();
        for (k, v) in [
            ("ipcp.members", 1),
            ("ipcp.enrolled", ip.is_enrolled() as u64),
            ("ipcp.mgmt_tx", st.mgmt_tx),
            ("ipcp.enroll_sponsored", st.enrollments_sponsored),
            ("ipcp.enroll_deferred", st.enrollments_deferred),
            ("ipcp.flow_reqs_in", st.flow_reqs_in),
            ("ipcp.dir_lookups_sent", st.dir_lookups_sent),
            ("ipcp.dir_cache_hits", st.dir_cache_hits),
            ("ipcp.dir_cache_misses", st.dir_cache_misses),
            ("rib.tx", st.rib_tx),
            ("rib.flood_suppressed", st.flood_suppressed),
            ("rib.delta_requests", st.delta_requests),
            ("routing.spf_full", rs.spf_full),
            ("routing.spf_incremental", rs.spf_incremental),
            ("routing.ft_delta", rs.ft_delta),
        ] {
            add(k.into(), v);
        }
    }

    for (l, s) in lanes(net, h).iter().enumerate() {
        for (k, v) in [
            ("enq", s.enq),
            ("deq", s.deq),
            ("drops", s.drops),
            ("evict", s.evict),
            ("enq_bytes", s.enq_bytes),
            ("deq_bytes", s.deq_bytes),
            ("drop_bytes", s.drop_bytes),
            ("evict_bytes", s.evict_bytes),
            ("lat_ns_sum", s.lat_ns_sum),
        ] {
            add(format!("rmt.lane{l}.{k}"), v);
        }
    }

    match &h.traffic {
        Traffic::Churn(ch) => {
            add("apps.allocs".into(), ch.allocs(net));
            add("apps.alloc_failures".into(), ch.alloc_failures(net));
            add("apps.flow_deaths".into(), ch.flow_deaths(net));
            add("apps.sdus_sent".into(), ch.sent(net));
            add("apps.sdus_received".into(), ch.received(net));
            for &s in &ch.sinks {
                let sink = net.app(s);
                add("apps.bytes_received".into(), sink.bytes);
                let n: usize = sink.latency_by_class.iter().map(|h| h.count()).sum();
                add("apps.latency_samples".into(), n as u64);
            }
            for &d in &ch.drivers {
                add("apps.latency_samples".into(), net.app(d).alloc_latency.count() as u64);
            }
        }
        Traffic::Ping(m) => {
            for &(_, _, p) in &m.pings {
                let ping = net.app(p);
                add("apps.allocs".into(), ping.alloc_done.is_some() as u64);
                add("apps.alloc_failures".into(), ping.alloc_failures);
                add("apps.sdus_sent".into(), ping.alloc_done.is_some() as u64);
                add("apps.sdus_received".into(), ping.rtts.len() as u64);
                add("apps.bytes_received".into(), (ping.rtts.len() * ping.size) as u64);
                add("apps.latency_samples".into(), ping.rtts.len() as u64);
            }
            for &e in &m.echoes {
                add("apps.bytes_received".into(), net.app(e).bytes);
            }
        }
    }
    c
}

/// `b - a` for every counter (`a` is the earlier snapshot).
pub fn delta(a: &Counters, b: &Counters) -> Counters {
    b.iter().map(|(k, &v)| (k.clone(), v - a.get(k).copied().unwrap_or(0))).collect()
}

/// Read a counter (0 if absent).
pub fn get(c: &Counters, k: &str) -> u64 {
    c.get(k).copied().unwrap_or(0)
}

/// `num / den`, 0 when the base is empty.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
