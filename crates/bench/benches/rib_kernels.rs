//! Microbenchmarks for the RIB receive kernels on a 1,500-object hub
//! RIB (500 members, each with a member record, a block and an LSA):
//! applying a batch of fresh objects (into an empty RIB, as an
//! enrollment sync does), applying the same batch again when every
//! object is stale, and answering a delta request. The view-based apply
//! is timed against decoding each object first, and the merge-walk
//! `delta_for` against the unsorted-summary fallback.
use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rina_rib::{Rib, RibObject, RibObjectView};

const MEMBERS: u64 = 500;

/// The encoded objects of a `MEMBERS`-member hub RIB, in arrival order.
fn hub_objects() -> Vec<Bytes> {
    let mut out = Vec::new();
    for a in 1..=MEMBERS {
        let mut lsa = Vec::new();
        for n in [a.saturating_sub(1).max(1), a + 1, a * 7 % MEMBERS + 1] {
            lsa.extend_from_slice(&n.to_be_bytes());
        }
        for (name, class, value) in [
            (format!("/members/net.n{a}"), "member", a.to_be_bytes().to_vec()),
            (format!("/blocks/{a}"), "block", [a, a].map(u64::to_be_bytes).concat()),
            (format!("/lsa/{a}"), "lsa", lsa),
        ] {
            let o = RibObject {
                name,
                class: class.into(),
                value: Bytes::from(value),
                version: 1,
                origin: a,
                deleted: false,
            };
            out.push(o.encode());
        }
    }
    out
}

fn apply_views(rib: &mut Rib, encs: &[Bytes]) -> usize {
    let mut fresh = 0;
    for e in encs {
        let Ok(v) = RibObjectView::peek(e) else { continue };
        fresh += rib.apply_remote_view(&v) as usize;
    }
    fresh
}

fn apply_decoded(rib: &mut Rib, encs: &[Bytes]) -> usize {
    let mut fresh = 0;
    for e in encs {
        let Ok(o) = RibObject::decode(e) else { continue };
        fresh += rib.apply_remote_silent(o) as usize;
    }
    fresh
}

fn bench(c: &mut Criterion) {
    let encs = hub_objects();
    let n = encs.len();
    let mut hub = Rib::new(u64::MAX);
    hub.watch_prefix("/lsa/");
    assert_eq!(apply_views(&mut hub, &encs), n);
    while hub.poll_watch().is_some() {}

    let mut g = c.benchmark_group("rib_kernels");
    g.sample_size(30);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.bench_function(format!("fresh_apply_view/{n}"), |b| {
        b.iter(|| {
            let mut rib = Rib::new(u64::MAX);
            assert_eq!(apply_views(&mut rib, black_box(&encs)), n);
            rib
        });
    });
    g.bench_function(format!("fresh_apply_decoded/{n}"), |b| {
        b.iter(|| {
            let mut rib = Rib::new(u64::MAX);
            assert_eq!(apply_decoded(&mut rib, black_box(&encs)), n);
            rib
        });
    });
    g.bench_function(format!("stale_apply_view/{n}"), |b| {
        b.iter(|| assert_eq!(apply_views(&mut hub, black_box(&encs)), 0));
    });
    g.bench_function(format!("stale_apply_decoded/{n}"), |b| {
        b.iter(|| assert_eq!(apply_decoded(&mut hub, black_box(&encs)), 0));
    });
    // A peer missing every tenth LSA asks for the subtree.
    let mut summary = hub.summary("/lsa");
    let mut i = 0;
    summary.retain(|_| {
        i += 1;
        i % 10 != 0
    });
    let want = MEMBERS as usize - summary.len();
    g.bench_function(format!("delta_for_sorted/{n}"), |b| {
        b.iter(|| assert_eq!(hub.delta_for("/lsa", "", "", black_box(&summary)).0.len(), want));
    });
    summary.reverse();
    g.bench_function(format!("delta_for_unsorted/{n}"), |b| {
        b.iter(|| assert_eq!(hub.delta_for("/lsa", "", "", black_box(&summary)).0.len(), want));
    });
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
