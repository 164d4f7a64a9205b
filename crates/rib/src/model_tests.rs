//! Model-based check of the compact store: random operation sequences run
//! against a [`Rib`] and against a reference model that keeps every object
//! as a [`RibObject`] in a `BTreeMap<String, _>`, with the store semantics
//! written out plainly. After every operation each read surface, each
//! digest and each queue of the two must agree.

use super::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference: names as `String` keys, objects whole.
#[derive(Default)]
struct Model {
    origin: u64,
    objects: BTreeMap<String, RibObject>,
    watch: Vec<String>,
    local: Vec<String>,
    watch_q: Vec<RibObject>,
    events: Vec<RibEvent>,
    outbox: Vec<RibObject>,
}

impl Model {
    fn store(&mut self, o: &RibObject) -> bool {
        if let Some(cur) = self.objects.get(&o.name) {
            if (o.version, o.origin) <= (cur.version, cur.origin) {
                return false;
            }
        }
        if self.watch.iter().any(|p| o.name.starts_with(p.as_str())) {
            self.watch_q.push(o.clone());
        }
        self.objects.insert(o.name.clone(), o.clone());
        true
    }

    fn get(&self, name: &str) -> Option<&RibObject> {
        self.objects.get(name).filter(|o| !o.deleted)
    }

    fn is_local(&self, subtree: &str) -> bool {
        self.local.iter().any(|s| s == subtree)
    }

    fn write_local(&mut self, name: &str, class: &str, value: &[u8]) {
        let o = RibObject {
            name: name.into(),
            class: class.into(),
            value: Bytes::copy_from_slice(value),
            version: self.objects.get(name).map_or(1, |o| o.version + 1),
            origin: self.origin,
            deleted: false,
        };
        self.store(&o);
        self.events.push(RibEvent::Upserted(o.clone()));
        if !self.is_local(subtree_of(name)) {
            self.outbox.push(o);
        }
    }

    fn write_local_if_changed(&mut self, name: &str, class: &str, value: &[u8]) -> bool {
        if self.get(name).is_some_and(|o| o.class == class && o.value.as_ref() == value) {
            return false;
        }
        self.write_local(name, class, value);
        true
    }

    fn delete_local(&mut self, name: &str) {
        let Some(cur) = self.get(name) else { return };
        let o = RibObject {
            name: cur.name.clone(),
            class: cur.class.clone(),
            value: Bytes::new(),
            version: cur.version + 1,
            origin: self.origin,
            deleted: true,
        };
        self.store(&o);
        self.events.push(RibEvent::Deleted(o.clone()));
        self.outbox.push(o);
    }

    fn apply_remote(&mut self, o: &RibObject, event: bool) -> bool {
        let fresh = self.store(o);
        if fresh && event {
            let o = o.clone();
            self.events.push(if o.deleted { RibEvent::Deleted(o) } else { RibEvent::Upserted(o) });
        }
        fresh
    }

    fn digests(&self) -> (u64, DigestTable) {
        let mut digest = 0;
        let mut per: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for o in self.objects.values() {
            let f = fingerprint(name_hash(&o.name), o.version, o.origin, o.deleted);
            digest ^= f;
            let e = per.entry(subtree_of(&o.name)).or_default();
            e.0 += 1;
            e.1 ^= f;
        }
        let table = per
            .into_iter()
            .filter(|(s, _)| !self.is_local(s))
            .map(|(s, (c, d))| (s.to_string(), c, d))
            .collect();
        (digest, DigestTable::from_entries(table))
    }

    fn in_subtree<'a>(&'a self, subtree: &'a str) -> impl Iterator<Item = &'a RibObject> + 'a {
        self.objects.values().filter(move |o| subtree_of(&o.name) == subtree)
    }

    fn summary(&self, subtree: &str) -> Vec<ObjVer> {
        if self.is_local(subtree) {
            return Vec::new();
        }
        self.in_subtree(subtree)
            .map(|o| ObjVer { name: o.name.clone(), version: o.version, origin: o.origin })
            .collect()
    }

    fn delta_for(
        &self,
        subtree: &str,
        from: &str,
        upto: &str,
        summary: &[ObjVer],
    ) -> (Vec<RibObject>, bool) {
        if self.is_local(subtree) {
            return (Vec::new(), false);
        }
        let theirs = |name: &str| {
            summary.iter().rev().find(|v| v.name == name).map(|v| (v.version, v.origin))
        };
        let send = self
            .in_subtree(subtree)
            .filter(|o| in_range(&o.name, from, upto))
            .filter(|o| theirs(&o.name).is_none_or(|t| t < (o.version, o.origin)))
            .cloned()
            .collect();
        let behind = summary.iter().filter(|v| in_range(&v.name, from, upto)).any(|v| {
            self.objects.get(&v.name).is_none_or(|o| (v.version, v.origin) > (o.version, o.origin))
        });
        (send, behind)
    }
}

/// `len` bytes of name: `prefix`, padded with `x`, then `tail`.
fn sized(prefix: &str, len: usize, tail: &str) -> String {
    format!("{prefix}{}{tail}", "x".repeat(len - prefix.len() - tail.len()))
}

/// Names around the inline limit and across UTF-8 widths, in a few
/// subtrees (`/loc` has local replication scope).
fn names() -> Vec<String> {
    let mut v: Vec<String> =
        ["/lsa/1", "/lsa/2", "/dir/a", "/m", "/loc/a", "/é/1", "/é", "/日本/x"]
            .map(String::from)
            .to_vec();
    for len in [NAME_INLINE - 1, NAME_INLINE, NAME_INLINE + 1, 3 * NAME_INLINE] {
        v.push(sized("/lsa/", len, ""));
        v.push(sized("/dir/", len, ""));
    }
    // Multi-byte characters ending exactly at the limit, straddling it,
    // and of every width, whose byte order must equal their char order.
    v.push(sized("/dir/", NAME_INLINE, "é"));
    v.push(sized("/dir/", NAME_INLINE + 1, "é"));
    v.push(sized("/dir/", NAME_INLINE + 2, "日"));
    for c in ['\u{7f}', '\u{80}', '\u{7ff}', '\u{800}', '\u{ffff}', '\u{10000}', '\u{10ffff}'] {
        v.push(format!("/dir/{c}"));
    }
    v
}

/// Prefixes [`Rib::iter_prefix`] is checked under.
const PREFIXES: [&str; 7] = ["", "/", "/dir/", "/dir/x", "/lsa/", "/é", "/loc/"];
/// Subtrees summaries and deltas are checked on.
const SUBTREES: [&str; 5] = ["/dir", "/lsa", "/é", "/loc", "/m"];

proptest! {
    /// The compact store behaves exactly like the `String`-keyed store it
    /// replaced: same reads in the same order, same snapshot, summaries,
    /// deltas and digests, and the same watch, event and dissemination
    /// queues, through local writes, tombstones, every remote apply, and
    /// classes the RIB has not seen before.
    #[test]
    fn prop_store_matches_string_keyed_model(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let names = names();
        let mut rib = Rib::new(7);
        let mut model = Model { origin: 7, ..Default::default() };
        for p in ["/lsa/", "/dir/x", "/é"] {
            rib.watch_prefix(p);
            model.watch.push(p.to_string());
        }
        rib.set_local_subtree("/loc");
        model.local.push("/loc".to_string());
        for step in 0..64 {
            let name = names[rng.gen_range(0..names.len())].as_str();
            let fresh_class = format!("c{step}");
            let long_class = "c".repeat(NAME_INLINE + 1);
            let class = match rng.gen_range(0..6u32) {
                0 => fresh_class.as_str(),
                1 => long_class.as_str(),
                2 => "é-class",
                k => ["lsa", "dir", "member"][k as usize - 3],
            };
            let lens = [0, 1, VALUE_INLINE - 1, VALUE_INLINE, VALUE_INLINE + 1, 40];
            let value: Vec<u8> = (0..lens[rng.gen_range(0..6usize)]).map(|_| rng.gen()).collect();
            let (mut class, mut value_ref) = (class, value.as_slice());
            // Often rewrite what is stored, so the unchanged-write no-op runs.
            let cur = model.get(name).cloned();
            if let Some(cur) = cur.as_ref().filter(|_| rng.gen_range(0..2u32) == 0) {
                class = &cur.class;
                value_ref = &cur.value;
            }
            let remote = RibObject {
                name: name.into(),
                class: class.into(),
                value: Bytes::copy_from_slice(value_ref),
                version: rng.gen_range(1..6u64),
                origin: rng.gen_range(1..4u64),
                deleted: rng.gen_range(0..4u32) == 0,
            };
            match rng.gen_range(0..6u32) {
                0 => {
                    rib.write_local(name, class, Bytes::copy_from_slice(value_ref));
                    model.write_local(name, class, value_ref);
                }
                1 => prop_assert_eq!(
                    rib.write_local_if_changed(name, class, Bytes::copy_from_slice(value_ref)),
                    model.write_local_if_changed(name, class, value_ref)
                ),
                2 => {
                    rib.delete_local(name);
                    model.delete_local(name);
                }
                3 => prop_assert_eq!(
                    rib.apply_remote(remote.clone()),
                    model.apply_remote(&remote, true)
                ),
                4 => prop_assert_eq!(
                    rib.apply_remote_silent(remote.clone()),
                    model.apply_remote(&remote, false)
                ),
                _ => {
                    let enc = remote.encode();
                    let view = RibObjectView::decode(&enc).expect("encoder output peeks");
                    prop_assert_eq!(
                        rib.apply_remote_view(&view),
                        model.apply_remote(&remote, false)
                    );
                }
            }

            for n in names.iter().map(String::as_str).chain(["/absent", ""]) {
                let got = rib.get(n).map(|v| v.to_object());
                prop_assert_eq!(got, model.get(n).cloned(), "get {}", n);
            }
            for p in PREFIXES {
                let got: Vec<RibObject> = rib.iter_prefix(p).map(|v| v.to_object()).collect();
                let want: Vec<RibObject> = model
                    .objects
                    .values()
                    .filter(|o| o.name.starts_with(p) && !o.deleted)
                    .cloned()
                    .collect();
                prop_assert_eq!(got, want, "iter_prefix {}", p);
            }
            let all: Vec<RibObject> = rib.iter_all().map(|v| v.to_object()).collect();
            prop_assert!(all.iter().eq(model.objects.values()), "iter_all order");
            let want_snapshot: Vec<RibObject> = model
                .objects
                .values()
                .filter(|o| !model.is_local(subtree_of(&o.name)))
                .cloned()
                .collect();
            prop_assert_eq!(rib.snapshot(), want_snapshot);
            prop_assert_eq!((rib.len(), rib.object_count()), (
                model.objects.values().filter(|o| !o.deleted).count(),
                model.objects.len(),
            ));
            let (digest, table) = model.digests();
            prop_assert_eq!(rib.digest(), digest);
            prop_assert_eq!(rib.digest_table(), table);
            for st in SUBTREES {
                prop_assert_eq!(rib.summary(st), model.summary(st), "summary {}", st);
                // A peer's summary: ours with entries dropped and
                // versions moved, in name order or reversed.
                let mut theirs = model.summary(st);
                theirs.retain(|_| rng.gen_range(0..3u32) > 0);
                for v in &mut theirs {
                    v.version = v.version + 1 - rng.gen_range(0..3u64).min(v.version);
                }
                if rng.gen_range(0..2u32) == 0 {
                    theirs.reverse();
                }
                let bound = |rng: &mut SmallRng| match rng.gen_range(0..2u32) {
                    0 => "",
                    _ => names[rng.gen_range(0..names.len())].as_str(),
                };
                let (from, upto) = (bound(&mut rng), bound(&mut rng));
                prop_assert_eq!(
                    rib.delta_for(st, from, upto, &theirs),
                    model.delta_for(st, from, upto, &theirs),
                    "delta_for {} [{:?}, {:?})", st, from, upto
                );
            }
            let watched: Vec<RibObject> = std::iter::from_fn(|| rib.poll_watch()).collect();
            prop_assert_eq!(watched, std::mem::take(&mut model.watch_q));
            let events: Vec<RibEvent> = std::iter::from_fn(|| rib.poll_event()).collect();
            prop_assert_eq!(events, std::mem::take(&mut model.events));
            let sent: Vec<RibObject> = std::iter::from_fn(|| rib.poll_dissemination()).collect();
            prop_assert_eq!(sent, std::mem::take(&mut model.outbox));
        }
    }
}
