//! One repetition of a workload: build, set up, run the measured phase in
//! fixed virtual windows, then derive every deterministic metric and run
//! the output checks.

use crate::layers::{
    self, counters, delta, get, ratio, Counters, LANE_DATAGRAM, LANE_INTERACTIVE, LANE_RELIABLE,
    RANKS,
};
use crate::trace::Tracer;
use crate::workload::{self, Handles, Instance, Kind, Traffic, PING_WINDOW_LIMIT, RAMP, WINDOW};
use crate::Checks;
use rina::prelude::*;
use rina::rmt::LANES;
use rina_sim::Histogram;
use std::time::Instant;

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The outcome of one repetition.
pub struct Rep {
    /// Host seconds to build, assemble and (churn, stack) ramp.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub run_s: f64,
    /// Host seconds of each measured window.
    pub window_s: Vec<f64>,
    /// Host seconds the measured phase spent reading counters and
    /// recording spans for the trace (0 untraced).
    pub trace_s: f64,
    /// Virtual-time end-to-end metrics and every per-layer count: a pure
    /// function of the seed, compared exactly across repetitions.
    pub exact: Vec<Metric>,
}

/// Reads counters at window boundaries: the trace samples, the engine's
/// pending-event peak, host time per measured window, and the churn
/// concurrency samples.
struct Sampler<'a> {
    tr: &'a mut Tracer,
    h: &'a Handles,
    last: Instant,
    measuring: bool,
    window_s: Vec<f64>,
    pending_peak: usize,
    concurrent: Vec<usize>,
    trace_s: f64,
}

impl Sampler<'_> {
    fn window(&mut self, net: &Net, phase: &'static str) {
        let start = self.last;
        let host = start.elapsed().as_secs_f64();
        self.pending_peak = self.pending_peak.max(net.sim.pending());
        if self.measuring {
            self.window_s.push(host);
            if let Traffic::Churn(ch) = &self.h.traffic {
                self.concurrent.push(ch.concurrent(net));
            }
        }
        if self.tr.on() {
            let t = Instant::now();
            let c = counters(net, self.h);
            self.tr.window(start, phase, net.sim.now().as_secs_f64(), c);
            if self.measuring {
                self.trace_s += t.elapsed().as_secs_f64();
            }
        }
        // Reading counters for the trace is not part of the next window.
        self.last = Instant::now();
    }

    /// Run `n` windows of `phase`.
    fn run(&mut self, net: &mut Net, phase: &'static str, n: usize) {
        self.last = Instant::now();
        for _ in 0..n {
            net.run_for(WINDOW);
            self.window(net, phase);
        }
    }
}

/// Per-driver and per-sink sample counts at the start of the measured
/// phase, so latency quantiles cover the measured phase only.
struct Marks {
    alloc: Vec<usize>,
    class: Vec<[usize; rina::apps::CHURN_CLASSES]>,
}

fn marks(net: &Net, h: &Handles) -> Marks {
    match &h.traffic {
        Traffic::Churn(ch) => Marks {
            alloc: ch.drivers.iter().map(|&d| net.app(d).alloc_latency.count()).collect(),
            class: ch
                .sinks
                .iter()
                .map(|&s| std::array::from_fn(|c| net.app(s).latency_by_class[c].count()))
                .collect(),
        },
        Traffic::Ping(_) => Marks { alloc: Vec::new(), class: Vec::new() },
    }
}

/// Run one repetition of `kind` under `seed`; also returns the network as
/// the measured phase left it (for the kernel replays).
pub fn run(kind: Kind, seed: u64, tr: &mut Tracer, ck: &mut Checks) -> (Rep, Instance) {
    let t0 = Instant::now();
    tr.open("build");
    let Instance { mut net, h } = workload::build(kind, seed);
    tr.close();
    let mut s = Sampler {
        tr,
        h: &h,
        last: Instant::now(),
        measuring: false,
        window_s: Vec::new(),
        pending_peak: 0,
        concurrent: Vec::new(),
        trace_s: 0.0,
    };

    // `assemble` measures assembly itself; the others assemble, settle and
    // ramp during set-up and measure a fixed number of windows.
    let (setup_s, run_s, assembled_at, c_asm, c_start, m);
    if kind == Kind::Assemble {
        setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        c_start = counters(&net, &h);
        m = marks(&net, &h);
        s.measuring = true;
        s.tr.open("ipcp.assemble");
        s.last = Instant::now();
        assembled_at = workload::run_until_assembled(&mut net, |n| s.window(n, "assemble"));
        s.tr.close();
        c_asm = counters(&net, &h);
        s.run(&mut net, "pings", 2);
        let mut left = PING_WINDOW_LIMIT;
        while !pings_done(&net, &h) && left > 0 {
            s.run(&mut net, "pings", 1);
            left -= 1;
        }
        run_s = t1.elapsed().as_secs_f64();
    } else {
        s.tr.open("ipcp.assemble");
        s.last = Instant::now();
        assembled_at = workload::run_until_assembled(&mut net, |n| s.window(n, "assemble"));
        c_asm = counters(&net, &h);
        net.run_for(WINDOW);
        s.tr.close();
        s.tr.open("ramp");
        s.run(&mut net, "ramp", (RAMP.nanos() / WINDOW.nanos()) as usize);
        s.tr.close();
        setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        c_start = counters(&net, &h);
        m = marks(&net, &h);
        s.measuring = true;
        s.run(&mut net, "measure", kind.measure_windows());
        run_s = t1.elapsed().as_secs_f64();
    }
    let c_end = counters(&net, &h);
    let measured_virt_s = if kind == Kind::Assemble {
        net.sim.now().as_secs_f64()
    } else {
        (kind.measure_windows() as u64 * WINDOW.nanos()) as f64 / 1e9
    };
    let (window_s, pending_peak, concurrent, trace_s) =
        (s.window_s, s.pending_peak, s.concurrent, s.trace_s);

    check(ck, &net, &h, assembled_at, &c_start, &c_end);
    let mut exact = derive(&net, &h, assembled_at, &c_asm, &c_start, &c_end, &m, measured_virt_s);
    let windows = window_s.len();
    let second_half = &concurrent[concurrent.len() / 2..];
    exact.extend([
        ("sim.pending_peak".to_string(), pending_peak as f64, "count"),
        ("sim.windows".to_string(), windows as f64, "count"),
        (
            "ipcp.concurrent_sustained".to_string(),
            second_half.iter().copied().min().unwrap_or(0) as f64,
            "count",
        ),
    ]);
    (Rep { setup_s, run_s, window_s, trace_s, exact }, Instance { net, h })
}

fn pings_done(net: &Net, h: &Handles) -> bool {
    match &h.traffic {
        Traffic::Ping(m) => m.all_done(net),
        Traffic::Churn(_) => true,
    }
}

/// The output checks of one repetition.
fn check(
    ck: &mut Checks,
    net: &Net,
    h: &Handles,
    assembled_at: Option<Time>,
    c0: &Counters,
    c1: &Counters,
) {
    let kind = h.kind;
    ck.check(assembled_at.is_some(), || format!("{}: the network did not assemble", kind.name()));
    let (members, enrolled) = (get(c1, "ipcp.members"), get(c1, "ipcp.enrolled"));
    ck.check(members == enrolled, || format!("{} of {members} members enrolled", enrolled));
    if kind == Kind::Assemble {
        ck.check(pings_done(net, h), || "a sampled ping did not complete".into());
    }
    // RMT byte conservation per lane. Tail drops never enter a lane, so
    // offered = enq + drop = deq + drop + evict + backlog, i.e. the backlog
    // the counters imply (enq - deq - evict) must be non-negative and fit
    // in the queues.
    let mut backlog = 0u64;
    for l in 0..LANES {
        let k = |f: &str| get(c1, &format!("rmt.lane{l}.{f}"));
        let out = k("deq_bytes") + k("evict_bytes");
        ck.check(k("enq_bytes") >= out, || format!("rmt lane {l}: more bytes left than entered"));
        backlog += k("enq_bytes").saturating_sub(out);
    }
    let cap = get(c1, "rmt.queue_cap_bytes");
    ck.check(backlog <= cap, || {
        format!("rmt: {backlog} B implied backlog exceeds {cap} B of queues")
    });
    let (sent, recv) = (get(c1, "apps.sdus_sent"), get(c1, "apps.sdus_received"));
    ck.check(recv <= sent, || format!("apps: {recv} SDUs received of {sent} sent"));
    if kind != Kind::Assemble {
        let d = delta(c0, c1);
        ck.check(get(&d, "apps.sdus_received") > 0, || {
            "no SDU delivered in the measured phase".into()
        });
        ck.check(get(&d, "ipcp.relayed") > 0, || "nothing relayed in the measured phase".into());
        let slow = get(&d, "ipcp.relay_slow");
        ck.check(slow == 0, || format!("{slow} PDUs took the slow relay path"));
    }
    if kind == Kind::Stack {
        let shed: u64 = (0..LANES)
            .map(|l| {
                get(c1, &format!("rmt.lane{l}.drops")) + get(c1, &format!("rmt.lane{l}.evict"))
            })
            .sum();
        ck.check(shed == 0, || format!("stack: the RMT shed {shed} frames"));
    }
}

fn ms_quantiles(hist: &Histogram) -> (f64, f64) {
    (hist.quantile(0.5) * 1e3, hist.quantile(0.99) * 1e3)
}

/// Every deterministic metric of one repetition.
#[allow(clippy::too_many_arguments)]
fn derive(
    net: &Net,
    h: &Handles,
    assembled_at: Option<Time>,
    c_asm: &Counters,
    c_start: &Counters,
    c_end: &Counters,
    m: &Marks,
    measured_virt_s: f64,
) -> Vec<Metric> {
    let d = delta(c_start, c_end);
    let g = |k: &str| get(&d, k);
    let mut v: Vec<Metric> = Vec::new();
    let mut put = |k: &str, val: f64, unit: &'static str| v.push((k.to_string(), val, unit));

    // Virtual-time metrics of the modelled network's users.
    put("ipcp.assemble_virt_s", assembled_at.map_or(f64::NAN, |t| t.as_secs_f64()), "virt_s");
    put(
        "mgmt_pdus_per_member",
        ratio(get(c_asm, "ipcp.mgmt_tx"), get(c_asm, "ipcp.members")),
        "pdus/member",
    );
    let mut alloc = Histogram::new();
    let mut inter = Histogram::new();
    let mut bulk = Histogram::new();
    match &h.traffic {
        Traffic::Churn(ch) => {
            for (&dr, &k) in ch.drivers.iter().zip(&m.alloc) {
                for &x in &net.app(dr).alloc_latency.samples()[k..] {
                    alloc.push(x);
                }
            }
            for (&sk, ks) in ch.sinks.iter().zip(&m.class) {
                let app = net.app(sk);
                for (c, &k) in ks.iter().enumerate() {
                    let into = if c == 0 { &mut inter } else { &mut bulk };
                    for &x in &app.latency_by_class[c].samples()[k..] {
                        into.push(x);
                    }
                }
            }
        }
        Traffic::Ping(mesh) => {
            for &(_, _, p) in &mesh.pings {
                let app = net.app(p);
                if let (Some(a), Some(b)) = (app.alloc_requested, app.alloc_done) {
                    alloc.push(b.since(a).as_secs_f64());
                }
            }
        }
    }
    let (p50, p99) = ms_quantiles(&alloc);
    put("apps.alloc_p50_ms", p50, "virt_ms");
    put("apps.alloc_p99_ms", p99, "virt_ms");
    put("apps.alloc_samples", alloc.count() as f64, "count");
    put("apps.allocs_per_s", g("apps.allocs") as f64 / measured_virt_s, "1/virt_s");
    let (p50, p99) = ms_quantiles(&inter);
    put("apps.inter_p50_ms", p50, "virt_ms");
    put("apps.inter_p99_ms", p99, "virt_ms");
    put("apps.inter_samples", inter.count() as f64, "count");
    let (p50, p99) = ms_quantiles(&bulk);
    put("apps.bulk_p50_ms", p50, "virt_ms");
    put("apps.bulk_p99_ms", p99, "virt_ms");
    put("apps.bulk_samples", bulk.count() as f64, "count");
    put(
        "apps.goodput_mbps",
        g("apps.bytes_received") as f64 * 8.0 / measured_virt_s / 1e6,
        "Mb/virt_s",
    );
    let (fails, base) = match &h.traffic {
        Traffic::Ping(mesh) => {
            let members = get(c_end, "ipcp.members");
            let unenrolled = members - get(c_end, "ipcp.enrolled");
            let unpinged =
                mesh.pings.iter().filter(|&&(_, _, p)| !net.app(p).done()).count() as u64;
            (unenrolled + unpinged, members)
        }
        Traffic::Churn(_) => (
            g("apps.alloc_failures") + g("apps.flow_deaths"),
            g("apps.allocs") + g("apps.alloc_failures"),
        ),
    };
    put("apps.fail_ratio", ratio(fails, base), "ratio");
    put("apps.fail_base", base as f64, "count");
    put("apps.sdus_sent", g("apps.sdus_sent") as f64, "count");
    put("apps.sdus_received", g("apps.sdus_received") as f64, "count");
    put("apps.latency_samples", get(c_end, "apps.latency_samples") as f64, "count");

    // sim
    for k in ["sim.link_frames", "sim.link_bytes", "sim.link_drops_overflow", "sim.link_drops_loss"]
    {
        put(k, g(k) as f64, if k == "sim.link_bytes" { "bytes" } else { "count" });
    }
    put("wire.frame_bytes_mean", ratio(g("sim.link_bytes"), g("sim.link_frames")), "bytes");

    // ipcp relay, total and by rank
    for rank in [None, Some(RANKS[0]), Some(RANKS[1]), Some(RANKS[2])] {
        let key = |k: &str| rank.map_or(format!("ipcp.{k}"), |r| format!("ipcp.{k}.{r}"));
        for k in ["relayed", "relay_fast", "relay_slow", "no_route", "ttl_drops", "decode_errors"] {
            put(&key(k), g(&key(k)) as f64, "count");
        }
        put(&key("relay_fast_share"), ratio(g(&key("relay_fast")), g(&key("relayed"))), "ratio");
    }

    // rmt
    let lane = |l: usize, f: &str| g(&format!("rmt.lane{l}.{f}"));
    let sum = |f: &str| (0..LANES).map(|l| lane(l, f)).sum::<u64>();
    let shed = |l: usize| lane(l, "drops") + lane(l, "evict");
    put("rmt.enq", sum("enq") as f64, "count");
    put("rmt.deq", sum("deq") as f64, "count");
    put("rmt.drops_inter", shed(LANE_INTERACTIVE) as f64, "count");
    put("rmt.drops_bulk", (shed(LANE_RELIABLE) + shed(LANE_DATAGRAM)) as f64, "count");
    put("rmt.evict", sum("evict") as f64, "count");
    put("rmt.shed_ratio", ratio(sum("drops") + sum("evict"), sum("enq") + sum("drops")), "ratio");
    put("rmt.wait_us_mean", ratio(sum("lat_ns_sum"), sum("deq")) / 1e3, "virt_us");
    let peak = layers::lanes(net, h).iter().map(|s| s.backlog_peak_bytes).max().unwrap_or(0);
    put("rmt.backlog_peak_kb", peak as f64 / 1024.0, "KiB");

    // efcp: conn_stats_sum covers only the flows open at the end
    // (`efcp.flows_open`), so these are end-of-run totals, not deltas.
    put("efcp.flows_open", get(c_end, "efcp.flows_open") as f64, "count");
    for k in [
        "sdus_sent",
        "pdus_sent",
        "acks_sent",
        "rtx",
        "timeouts",
        "dup_pdus",
        "ooo_pdus",
        "rcv_dropped",
        "cong_backoffs",
    ] {
        put(&format!("efcp.{k}"), get(c_end, &format!("efcp.{k}")) as f64, "count");
    }
    put("efcp.rtx_ratio", ratio(get(c_end, "efcp.rtx"), get(c_end, "efcp.pdus_sent")), "ratio");

    // ipcp flow allocation and directory
    put("ipcp.allocs", g("apps.allocs") as f64, "count");
    put("ipcp.alloc_attempts", (g("apps.allocs") + g("apps.alloc_failures")) as f64, "count");
    put("ipcp.alloc_failures", g("apps.alloc_failures") as f64, "count");
    // The first wave after assembly: to the end of the ramp (churn, stack)
    // or of the ping ring (assemble).
    let c_ramp_end = if h.kind == Kind::Assemble { c_end } else { c_start };
    let r = delta(c_asm, c_ramp_end);
    let ramp_attempts = get(&r, "apps.allocs") + get(&r, "apps.alloc_failures");
    put("ipcp.alloc_fail_ramp", ratio(get(&r, "apps.alloc_failures"), ramp_attempts), "ratio");
    put("ipcp.alloc_attempts_ramp", ramp_attempts as f64, "count");
    put("ipcp.flow_deaths", g("apps.flow_deaths") as f64, "count");
    put("ipcp.flow_reqs_in", g("ipcp.flow_reqs_in") as f64, "count");
    put("ipcp.dir_lookups_sent", g("ipcp.dir_lookups_sent") as f64, "count");
    let (hits, misses) = (g("ipcp.dir_cache_hits"), g("ipcp.dir_cache_misses"));
    put("ipcp.dir_cache_hit_ratio", ratio(hits, hits + misses), "ratio");

    // management, rib, routing
    for k in [
        "ipcp.mgmt_tx",
        "ipcp.enroll_sponsored",
        "ipcp.enroll_deferred",
        "rib.tx",
        "rib.flood_suppressed",
        "rib.delta_requests",
    ] {
        put(k, g(k) as f64, "count");
    }
    put(
        "rib.suppress_ratio",
        ratio(g("rib.flood_suppressed"), g("rib.tx") + g("rib.flood_suppressed")),
        "ratio",
    );
    let top = &h.top;
    let mean = |f: &dyn Fn(IpcpH) -> usize| {
        top.iter().map(|&i| f(i)).sum::<usize>() as f64 / top.len() as f64
    };
    put("rib.objects_mean", mean(&|i| net.ipcp(i).rib.object_count()), "count");
    for k in ["routing.spf_full", "routing.spf_incremental", "routing.ft_delta"] {
        put(k, g(k) as f64, "count");
    }
    put("routing.fwd_mean", mean(&|i| net.ipcp(i).fwd().len()), "count");
    put("routing.fwd_agg_mean", mean(&|i| net.ipcp(i).fwd().aggregated_len()), "count");
    v
}
