//! The three workloads: how each network is built from the public
//! `rina::scenario` generators, how it is set up (assembly, ramp), and how
//! its measured phase is stepped in fixed virtual windows.

use rina::prelude::*;
use rina::scenario::{FlowChurn, PingMesh};

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Cold assembly of a scale-free DIF plus an O(n) ping ring (E10 shape).
    Assemble,
    /// Congested flow churn on one scale-free DIF with priority RMT (E13 shape).
    Churn,
    /// Uncongested small-SDU flow churn over a three-rank layered internetwork.
    Stack,
}

impl Kind {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Kind; 3] = [Kind::Assemble, Kind::Churn, Kind::Stack];

    /// Parse a `--workload` argument.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Windows in the measured phase of `churn` and `stack`. `stack`'s
    /// per-window work is small, and a longer phase averages out more of
    /// the host's noise.
    pub fn measure_windows(self) -> usize {
        match self {
            Kind::Stack => 16,
            _ => 8,
        }
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Assemble => "assemble",
            Kind::Churn => "churn",
            Kind::Stack => "stack",
        }
    }
}

/// Members of the `assemble` DIF (Barabási–Albert, two edges per arrival).
/// E10 uses 500; at 300 two networks per round fit the run's time budget.
pub const ASSEMBLE_MEMBERS: usize = 300;
/// Members of the `churn` DIF.
pub const CHURN_MEMBERS: usize = 200;
/// Churn drivers per non-sink member.
pub const CHURN_DRIVERS_PER_NODE: usize = 5;
/// Leaf sinks the churn population converges on.
pub const CHURN_SINKS: usize = 8;
/// Access-link bandwidth of the `churn` DIF: the sink links congest.
pub const CHURN_BW_BPS: u64 = 12_000_000;
/// Per-port RMT queue capacity on `churn` (bytes).
pub const CHURN_QUEUE_CAP: usize = 128 * 1024;
/// Region routers of the `stack` backbone.
pub const STACK_REGIONS: usize = 16;
/// Hosts behind each `stack` region router.
pub const STACK_HOSTS_PER_REGION: usize = 4;
/// Churn drivers per non-sink `stack` host.
pub const STACK_DRIVERS_PER_HOST: usize = 3;
/// Sink hosts on `stack` (host 0 of evenly spaced regions).
pub const STACK_SINKS: usize = 8;
/// Networks a round builds and runs, each from its own sub-seed. Host
/// times sum over them and every other metric is their mean, so a run
/// reflects more than one topology.
pub const NETWORKS: u64 = 2;
/// Virtual length of one measured window.
pub const WINDOW: Dur = Dur::from_millis(500);
/// Ramp after assembly on `churn` and `stack`, before measuring.
pub const RAMP: Dur = Dur::from_secs(4);
/// Windows the `assemble` ping ring may take before it counts as failed.
pub const PING_WINDOW_LIMIT: usize = 120;
/// Virtual-time bound on assembly before it counts as failed.
pub const ASSEMBLE_LIMIT: Dur = Dur::from_secs(1200);

/// The application traffic a workload placed.
pub enum Traffic {
    /// The sampled ping ring of `assemble`.
    Ping(PingMesh),
    /// The churn drivers and sinks of `churn` and `stack`.
    Churn(FlowChurn),
}

/// A built network and the handles the benchmark reads it through.
pub struct Instance {
    /// The network.
    pub net: Net,
    /// Handles into it.
    pub h: Handles,
}

/// The handles of a built workload network.
pub struct Handles {
    /// Which workload this is.
    pub kind: Kind,
    /// Every machine.
    pub nodes: Vec<NodeH>,
    /// Every physical link.
    pub links: Vec<LinkH>,
    /// Members of the DIF the traffic runs in (the top rank).
    pub top: Vec<IpcpH>,
    /// The top-rank member on the highest-degree vertex.
    pub hub: IpcpH,
    /// Placed traffic.
    pub traffic: Traffic,
    /// SDU payload size of the traffic.
    pub sdu_size: usize,
    /// QoS-class mix of the traffic: `(spec, weight)`, index = class byte.
    pub mix: Vec<(QosSpec, u32)>,
    /// Per-port RMT queue capacity of the traffic's shims (bytes).
    pub queue_cap: usize,
}

/// The interactive / reliable / datagram mix both churn workloads use.
fn churn_mix() -> Vec<(QosSpec, u32)> {
    vec![(QosSpec::interactive(), 1), (QosSpec::reliable(), 1), (QosSpec::datagram(), 2)]
}

/// Build (but do not run) the network of `kind` under `seed`.
pub fn build(kind: Kind, seed: u64) -> Instance {
    match kind {
        Kind::Assemble => build_assemble(seed),
        Kind::Churn => build_churn(seed),
        Kind::Stack => build_stack(seed),
    }
}

fn build_assemble(seed: u64) -> Instance {
    let mut b = NetBuilder::new(seed);
    let fab =
        Topology::barabasi_albert(ASSEMBLE_MEMBERS, 2, seed).with_prefix("as").materialize(&mut b);
    let mesh = Workload::ping_sampled(&mut b, fab.dif, &fab.nodes, 0, seed, 1, 64);
    let top = fab.member_ipcps(&b);
    let hub = b.ipcp_of(fab.dif, fab.hub());
    let h = Handles {
        kind: Kind::Assemble,
        nodes: fab.nodes.clone(),
        links: fab.links.clone(),
        top,
        hub,
        traffic: Traffic::Ping(mesh),
        sdu_size: 64,
        mix: vec![(QosSpec::reliable(), 1)],
        queue_cap: DifConfig::new("default").rmt_queue_cap_bytes,
    };
    Instance { net: b.build(), h }
}

fn build_churn(seed: u64) -> Instance {
    let mut b = NetBuilder::new(seed);
    b.set_shim_sched(SchedPolicy::Priority);
    b.set_shim_queue_cap(CHURN_QUEUE_CAP);
    let link = LinkCfg::wired().with_bandwidth(CHURN_BW_BPS).with_delay(Dur::from_millis(2));
    let dif = DifConfig::new("flows")
        .with_cube_set(CubeSet::Standard)
        .with_sched(SchedPolicy::Priority)
        .with_rmt_queue_cap_bytes(CHURN_QUEUE_CAP);
    let fab = Topology::barabasi_albert(CHURN_MEMBERS, 2, seed)
        .with_link(link)
        .with_dif(dif)
        .with_prefix("fl")
        .materialize(&mut b);
    // The lowest-degree vertices (ties by index) take the sinks, so the
    // sink access links — not the hubs — congest.
    let deg = fab.degrees();
    let mut order: Vec<usize> = (0..fab.len()).collect();
    order.sort_by_key(|&i| (deg[i], i));
    let sinks: Vec<NodeH> = order.iter().take(CHURN_SINKS).map(|&i| fab.node(i)).collect();
    let mix = churn_mix();
    let cfg = FlowChurnCfg::new(seed ^ 0x00f1)
        .with_drivers_per_node(CHURN_DRIVERS_PER_NODE)
        // Holds of 2-6 s (E13 uses 8-16 s over a 25 s window) so that flows
        // turn over inside the short measured phase.
        .with_pacing(
            (Dur::from_secs(2), Dur::from_secs(6)),
            (Dur::from_millis(300), Dur::from_millis(1_200)),
        )
        .with_traffic(360, Dur::from_millis(25))
        .with_mix(mix.clone());
    let churn = Workload::flow_churn(&mut b, fab.dif, &fab.all(), &sinks, &cfg);
    let top = fab.member_ipcps(&b);
    let hub = b.ipcp_of(fab.dif, fab.hub());
    let h = Handles {
        kind: Kind::Churn,
        nodes: fab.nodes.clone(),
        links: fab.links.clone(),
        top,
        hub,
        traffic: Traffic::Churn(churn),
        sdu_size: cfg.size,
        mix,
        queue_cap: CHURN_QUEUE_CAP,
    };
    Instance { net: b.build(), h }
}

fn build_stack(seed: u64) -> Instance {
    let mut b = NetBuilder::new(seed);
    let lf = Topology::barabasi_albert(STACK_REGIONS, 2, seed)
        .with_prefix("st")
        .layered(STACK_HOSTS_PER_REGION)
        .materialize(&mut b);
    let stride = (STACK_REGIONS / STACK_SINKS).max(1);
    let sinks: Vec<NodeH> =
        (0..STACK_REGIONS).step_by(stride).take(STACK_SINKS).map(|r| lf.host(r, 0)).collect();
    let mix = churn_mix();
    // Holds outlast the measured phase, so the measured windows see long
    // flows carrying the smallest SDUs, not the allocator.
    let cfg = FlowChurnCfg::new(seed ^ 0x57ac)
        .with_drivers_per_node(STACK_DRIVERS_PER_HOST)
        .with_pacing(
            (Dur::from_secs(20), Dur::from_secs(40)),
            (Dur::from_millis(300), Dur::from_millis(1_200)),
        )
        .with_traffic(64, Dur::from_millis(10))
        .with_mix(mix.clone());
    let churn = Workload::flow_churn(&mut b, lf.inet, &lf.all_hosts(), &sinks, &cfg);
    let top: Vec<IpcpH> = lf.inet_members().iter().map(|&n| b.ipcp_of(lf.inet, n)).collect();
    let hub = b.ipcp_of(lf.inet, lf.backbone.hub());
    let mut links = lf.backbone.links.clone();
    links.extend(lf.host_links.iter().flatten().copied());
    let h = Handles {
        kind: Kind::Stack,
        nodes: lf.inet_members(),
        links,
        top,
        hub,
        traffic: Traffic::Churn(churn),
        sdu_size: cfg.size,
        mix,
        queue_cap: DifConfig::new("default").rmt_queue_cap_bytes,
    };
    Instance { net: b.build(), h }
}

/// Step `net` in 50 ms increments until every machine's stack has
/// assembled — the same stepping as `Net::run_until_assembled`, without its
/// panic, so a failed assembly is a counted check failure. `window` is
/// called once per [`WINDOW`] of virtual time stepped and once at the
/// assembly instant. Returns the virtual time assembly held, or `None` past
/// [`ASSEMBLE_LIMIT`].
pub fn run_until_assembled(net: &mut Net, mut window: impl FnMut(&Net)) -> Option<Time> {
    let step = Dur::from_millis(50);
    let per_window = WINDOW.nanos() / step.nanos();
    let deadline = net.sim.now() + ASSEMBLE_LIMIT;
    let mut steps = 0u64;
    loop {
        net.run_for(step);
        steps += 1;
        if net.assembled() {
            window(net);
            return Some(net.sim.now());
        }
        if steps.is_multiple_of(per_window) {
            window(net);
        }
        if net.sim.now() >= deadline {
            return None;
        }
    }
}
