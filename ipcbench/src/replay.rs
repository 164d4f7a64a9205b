//! Layer-kernel replays for the traced run: each times one public function
//! of one layer on inputs shaped like the workload's own traffic (its SDU
//! size, class mix, addresses, RIB and LSDB), and checks what it can of the
//! kernel's output on the way.

use crate::trace::Tracer;
use crate::workload::{Instance, Kind, Traffic};
use crate::Checks;
use bytes::Bytes;
use rina::qos::{match_cube, CubeSet, QosCube};
use rina::rmt::{RmtQueue, TxClass, LANES};
use rina::SchedPolicy;
use rina_efcp::{ConnId, Connection};
use rina_rib::Rib;
use rina_routing::{compute_routes, Lsa, LSA_PREFIX};
use rina_sim::Histogram;
use rina_wire::cdap::{CdapMsg, OpCode};
use rina_wire::crc::{crc32, crc32_patch};
use rina_wire::{DataPdu, MgmtPdu, Pdu, PduView};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per kernel; the reported figure is their median.
const BATCHES: usize = 7;
/// Frames in the replayed wire/RMT corpus.
const CORPUS: usize = 512;

/// Median host nanoseconds per unit of `f`, which returns the units it
/// processed in one batch.
fn per_unit(mut f: impl FnMut() -> u64) -> f64 {
    let mut v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let units = f().max(1);
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A deterministic class sequence following the workload's weighted mix.
fn class_sequence(inst: &Instance, n: usize) -> Vec<usize> {
    let wheel: Vec<usize> = inst
        .h
        .mix
        .iter()
        .enumerate()
        .flat_map(|(i, &(_, w))| std::iter::repeat_n(i, w.max(1) as usize))
        .collect();
    (0..n).map(|i| wheel[i % wheel.len()]).collect()
}

/// The standard cube a class of the mix rides.
fn cube_of<'a>(cubes: &'a [QosCube], inst: &Instance, class: usize) -> &'a QosCube {
    match_cube(cubes, &inst.h.mix[class].0).expect("the standard cube set serves every spec")
}

/// The hub's RIB objects as CDAP writes — the management traffic shape.
fn cdap_corpus(inst: &Instance) -> Vec<Bytes> {
    let rib = &inst.net.ipcp(inst.h.hub).rib;
    rib.snapshot()
        .iter()
        .enumerate()
        .map(|(i, o)| {
            CdapMsg::request(OpCode::Write, i as u32, &o.class, &o.name, o.encode()).encode()
        })
        .collect()
}

/// PDUs shaped like the workload's frames: data PDUs at its SDU size and
/// class mix between real member addresses, or (on `assemble`, whose
/// traffic is management) management PDUs carrying its CDAP writes.
fn pdu_corpus(inst: &Instance, cdap: &[Bytes]) -> Vec<Pdu> {
    let net = &inst.net;
    let addrs: Vec<u64> = inst.h.top.iter().map(|&h| net.ipcp(h).addr).collect();
    let cubes = CubeSet::Standard.cubes();
    let classes = class_sequence(inst, CORPUS);
    (0..CORPUS)
        .map(|i| {
            let (dst, src) = (addrs[(i * 7) % addrs.len()], addrs[(i * 13 + 1) % addrs.len()]);
            if inst.h.kind == Kind::Assemble && !cdap.is_empty() {
                Pdu::Mgmt(MgmtPdu {
                    dest_addr: dst,
                    src_addr: src,
                    ttl: 16,
                    payload: cdap[i % cdap.len()].clone(),
                })
            } else {
                Pdu::Data(DataPdu {
                    dest_addr: dst,
                    src_addr: src,
                    qos_id: cube_of(&cubes, inst, classes[i]).id,
                    dest_cep: (i % 64) as u32,
                    src_cep: (i % 61) as u32,
                    seq: i as u64,
                    flags: 0x08,
                    ttl: 16,
                    payload: Bytes::from(vec![0xA5u8; inst.h.sdu_size]),
                })
            }
        })
        .collect()
}

/// Run every kernel replay, one span each, and return its metrics.
pub fn run(inst: &Instance, tr: &mut Tracer, ck: &mut Checks) -> Timings {
    let mut out = Timings::new();
    let cdap = cdap_corpus(inst);
    let pdus = pdu_corpus(inst, &cdap);
    let frames: Vec<Bytes> = pdus.iter().map(Pdu::encode).collect();

    tr.open("replay.wire.peek");
    ck.check(frames.iter().all(|f| PduView::peek(f).is_some()), || {
        "wire: an encoded frame failed to peek".into()
    });
    let ns = per_unit(|| {
        for f in &frames {
            black_box(PduView::peek(black_box(f)));
        }
        frames.len() as u64
    });
    out.insert("wire.peek_ns", ns);
    tr.close();

    tr.open("replay.wire.decode");
    ck.check(frames.iter().zip(&pdus).all(|(f, p)| Pdu::decode(f).as_ref() == Ok(p)), || {
        "wire: decode(encode(p)) != p".into()
    });
    let ns = per_unit(|| {
        for f in &frames {
            black_box(Pdu::decode(black_box(f)).is_ok());
        }
        frames.len() as u64
    });
    out.insert("wire.decode_ns", ns);
    tr.close();

    tr.open("replay.wire.encode");
    let ns = per_unit(|| {
        for p in &pdus {
            black_box(black_box(p).encode());
        }
        pdus.len() as u64
    });
    out.insert("wire.encode_ns", ns);
    tr.close();

    tr.open("replay.wire.crc");
    let bytes: usize = frames.iter().map(|f| f.len() - 4).sum();
    let ns = per_unit(|| {
        for f in &frames {
            black_box(crc32(black_box(&f[..f.len() - 4])));
        }
        1
    });
    out.insert("wire.crc_ns_per_kb", ns * 1024.0 / bytes as f64);
    tr.close();

    tr.open("replay.wire.crc_patch");
    let patches: Vec<(u32, usize)> = frames
        .iter()
        .map(|f| {
            let body = f.len() - 4;
            let v = PduView::peek(f).expect("corpus frames peek");
            let crc = u32::from_be_bytes([f[body], f[body + 1], f[body + 2], f[body + 3]]);
            (crc, body - 1 - v.ttl_offset)
        })
        .collect();
    let patched_ok = frames.iter().zip(&patches).all(|(f, &(crc, dist))| {
        let mut g = f.to_vec();
        let off = PduView::peek(f).expect("corpus frames peek").ttl_offset;
        g[off] -= 1;
        let body = g.len() - 4;
        crc32_patch(crc, dist, f[off], g[off]) == crc32(&g[..body])
    });
    ck.check(patched_ok, || "wire: patched CRC differs from a full re-sum".into());
    let ns = per_unit(|| {
        for &(crc, dist) in &patches {
            black_box(crc32_patch(black_box(crc), black_box(dist), 16, 15));
        }
        patches.len() as u64
    });
    out.insert("wire.crc_patch_ns", ns);
    tr.close();

    tr.open("replay.wire.cdap_decode");
    ck.check(cdap.iter().all(|m| CdapMsg::decode(m).is_ok()), || {
        "wire: CDAP message failed to decode".into()
    });
    let ns = per_unit(|| {
        for m in &cdap {
            black_box(CdapMsg::decode(black_box(m)).is_ok());
        }
        cdap.len() as u64
    });
    out.insert("wire.cdap_decode_ns", ns);
    tr.close();

    tr.open("replay.rmt.push_pop");
    out.insert("rmt.push_pop_ns", rmt_push_pop(inst, &frames, &pdus, ck));
    tr.close();

    tr.open("replay.efcp.loopback");
    out.insert("efcp.ns_per_sdu", efcp_loopback(inst, ck));
    tr.close();

    tr.open("replay.rib.apply");
    let snap = inst.net.ipcp(inst.h.hub).rib.snapshot();
    let mut kept = true;
    let mut per_obj: Vec<f64> = (0..BATCHES)
        .map(|_| {
            // The clone is set-up; only the applies are timed.
            let objs = snap.clone();
            let t = Instant::now();
            let mut rib = Rib::new(u64::MAX);
            for o in objs {
                rib.apply_remote(o);
            }
            let ns = t.elapsed().as_nanos() as f64 / snap.len().max(1) as f64;
            kept &= rib.object_count() == snap.len();
            ns
        })
        .collect();
    ck.check(kept, || "rib: replayed RIB lost objects".into());
    per_obj.sort_by(f64::total_cmp);
    let ns = per_obj[BATCHES / 2];
    out.insert("rib.apply_ns", ns);
    tr.close();

    tr.open("replay.rib.digest");
    let rib = &inst.net.ipcp(inst.h.hub).rib;
    let ns = per_unit(|| {
        for _ in 0..64 {
            black_box(black_box(rib).digest_table());
        }
        64
    });
    out.insert("rib.digest_ns", ns);
    tr.close();

    tr.open("replay.routing.spf");
    let hub = inst.net.ipcp(inst.h.hub);
    let lsdb: BTreeMap<u64, Lsa> = rib
        .iter_prefix(LSA_PREFIX)
        .filter(|o| !o.deleted)
        .filter_map(|o| Some((Lsa::addr_of_name(&o.name)?, Lsa::decode(&o.value).ok()?)))
        .collect();
    let table = compute_routes(hub.addr, &lsdb);
    ck.check(table.len() == hub.fwd().len(), || {
        format!(
            "routing: SPF over the hub's LSDB reaches {} members, its table {}",
            table.len(),
            hub.fwd().len()
        )
    });
    let ns = per_unit(|| {
        for _ in 0..4 {
            black_box(compute_routes(black_box(hub.addr), &lsdb));
        }
        4
    });
    out.insert("routing.spf_ns", ns);
    tr.close();

    tr.open("replay.apps.quantile");
    let h = latency_samples(inst);
    let ns = per_unit(|| {
        for _ in 0..4 {
            black_box(black_box(&h).quantile(0.99));
        }
        4
    });
    out.insert("apps.quantile_ns", ns);
    tr.close();
    out
}

/// Replayed-kernel timings (host ns) by metric name.
pub type Timings = BTreeMap<&'static str, f64>;

/// Every latency sample the run's apps hold, pooled.
fn latency_samples(inst: &Instance) -> Histogram {
    let net = &inst.net;
    let mut h = Histogram::new();
    match &inst.h.traffic {
        Traffic::Churn(ch) => {
            for &s in &ch.sinks {
                for c in &net.app(s).latency_by_class {
                    for &v in c.samples() {
                        h.push(v);
                    }
                }
            }
        }
        Traffic::Ping(m) => {
            for v in m.rtts(net) {
                h.push(v);
            }
        }
    }
    h
}

/// `RmtQueue::for_cubes` + `push`/`pop` in bursts of the corpus, under the
/// priority policy at the workload's queue cap; checks per-lane byte
/// conservation exactly after every batch.
fn rmt_push_pop(inst: &Instance, frames: &[Bytes], pdus: &[Pdu], ck: &mut Checks) -> f64 {
    let cubes = CubeSet::Standard.cubes();
    let classes: Vec<TxClass> = pdus
        .iter()
        .map(|p| {
            let c = cubes.iter().find(|c| c.id == p.qos_id()).expect("corpus cubes are standard");
            TxClass::new(c.id, c.priority)
        })
        .collect();
    let mut q = RmtQueue::for_cubes(SchedPolicy::Priority, inst.h.queue_cap, &cubes);
    let mut now = 0u64;
    let mut conserved = true;
    let ns = per_unit(|| {
        for (f, &c) in frames.iter().zip(&classes) {
            q.push(c, f.clone(), now);
            now += 1_000;
        }
        while q.pop(now).is_some() {
            now += 1_000;
        }
        conserved &= (0..LANES).all(|l| {
            let s = q.lane_stats()[l];
            s.enq_bytes == s.deq_bytes + s.evict_bytes + q.lane_backlog_bytes(l)
        });
        frames.len() as u64
    });
    ck.check(conserved, || {
        "rmt replay: enq_bytes != deq_bytes + evict_bytes + backlog in a lane".into()
    });
    ns
}

/// Two `Connection`s looped back to each other with each class's cube
/// parameters, carrying SDUs of the workload's size; ns per delivered SDU,
/// weighted by the class mix. Every SDU must be delivered.
fn efcp_loopback(inst: &Instance, ck: &mut Checks) -> f64 {
    const SDUS: u64 = 2_000;
    let cubes = CubeSet::Standard.cubes();
    let (mut total, mut weight) = (0.0, 0.0);
    let (mut refused, mut lost) = (0u64, 0u64);
    for (class, &(_, w)) in inst.h.mix.iter().enumerate() {
        let cube = cube_of(&cubes, inst, class);
        let ns = per_unit(|| {
            let id = |l: u32, r: u32| ConnId {
                local_addr: l.into(),
                remote_addr: r.into(),
                local_cep: l,
                remote_cep: r,
                qos_id: cube.id,
            };
            let mut a = Connection::new(id(1, 2), cube.params.clone());
            let mut b = Connection::new(id(2, 1), cube.params.clone());
            let sdu = Bytes::from(vec![0x5Au8; inst.h.sdu_size]);
            let mut now = 0u64;
            let mut delivered = 0u64;
            for _ in 0..SDUS {
                refused += a.send_sdu(sdu.clone(), now).is_err() as u64;
                for _ in 0..4 {
                    while let Some(p) = a.poll_transmit() {
                        b.on_pdu(&p, now);
                    }
                    while b.poll_deliver().is_some() {
                        delivered += 1;
                    }
                    while let Some(p) = b.poll_transmit() {
                        a.on_pdu(&p, now);
                    }
                    now += 10_000;
                    for c in [&mut a, &mut b] {
                        if c.poll_timeout().is_some_and(|t| t <= now) {
                            c.on_timeout(now);
                        }
                    }
                }
            }
            lost += SDUS - delivered;
            SDUS
        });
        total += ns * w as f64;
        weight += w as f64;
    }
    ck.check(refused == 0 && lost == 0, || {
        format!("efcp replay: {refused} SDUs refused, {lost} not delivered")
    });
    total / weight
}
