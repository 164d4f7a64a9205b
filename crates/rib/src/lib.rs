//! # rina-rib — the Resource Information Base and RIEP
//!
//! Every IPC process keeps a Resource Information Base: the shared state
//! that the paper's *IPC Management* task maintains via the Resource
//! Information Exchange Protocol (RIEP) — "application names, addresses,
//! and performance capabilities, used by various DIF coordination tasks,
//! such as routing, connection management, etc." (§3.1).
//!
//! The RIB here is a path-named object store with per-object versions and
//! single-writer semantics (each object is owned by the member that
//! originates it — e.g. `/lsa/<addr>` by the member at `<addr>`). RIEP is
//! realized as version-guarded flooding: an update is applied if strictly
//! newer and then re-disseminated, so updates reach every member of the DIF
//! exactly once per version regardless of topology. Deletions are
//! tombstones so they win over stale resurrections.
//!
//! Because dissemination is unreliable, every RIB also maintains an
//! incremental **per-subtree digest table** ([`DigestTable`]): one
//! `(object_count, digest)` pair per first path component (`/members`,
//! `/lsa`, …), where the digest XOR-aggregates collision-resistant
//! per-object fingerprints. Two members compare tables (carried in
//! hellos and enrollment requests) to localize divergence to subtrees,
//! then exchange **deltas**: a version [`Rib::summary`] of the diverged
//! subtree one way, the missing/newer objects ([`Rib::delta_for`]) the
//! other. The repair cost of any divergence therefore tracks the
//! divergence, not the RIB — the basis of digest-driven anti-entropy
//! and of O(missing) re-enrollment sync (DESIGN.md §6).
//!
//! The crate is sans-IO: [`Rib`] produces [`RibEvent`]s for the local IPC
//! process (routing recomputation, directory changes) and dissemination
//! items for the management task to forward; the `rina` crate moves them.
//! Hot paths that react to freshness directly can apply without event
//! bookkeeping via [`Rib::apply_remote_silent`], or straight from a
//! receive buffer via [`Rib::apply_remote_view`] on a [`RibObjectView`],
//! which drops a stale version before allocating anything.
//!
//! Every member of a DIF holds a replica of its RIB, so the store is
//! compact: one 64-byte entry per object, holding the name inline (up to
//! 22 bytes), the class as a per-RIB interned id and the value inline (up
//! to 16 bytes), with a heap allocation only for a longer name or value.
//! Reads return [`RibObjectView`]s borrowed from it; [`RibObject`] is the
//! owned form that travels (DESIGN.md §6, *Storage layout*).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

use bytes::Bytes;
use rina_wire::codec::{Reader, Writer};
use rina_wire::WireError;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;

/// One replicated object. Ordering of versions: `(version, origin)`
/// lexicographic, so concurrent writes by different members resolve
/// deterministically (higher origin wins ties — origins are DIF-internal
/// addresses, so this is arbitrary but consistent everywhere).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RibObject {
    /// Path-style instance name, e.g. `/dir/video-server`.
    pub name: String,
    /// Object class, e.g. `"dir"`, `"lsa"`.
    pub class: String,
    /// Encoded value (empty for tombstones).
    pub value: Bytes,
    /// Monotonic per-name version.
    pub version: u64,
    /// DIF-internal address of the writing member.
    pub origin: u64,
    /// True if this version deletes the object.
    pub deleted: bool,
}

impl RibObject {
    /// Encode for carriage inside a CDAP value.
    pub fn encode(&self) -> Bytes {
        self.view().encode()
    }

    /// Decode from a CDAP value.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        RibObjectView::decode(buf).map(|v| v.to_object())
    }

    /// Borrow as a view.
    fn view(&self) -> RibObjectView<'_> {
        RibObjectView::new(
            &self.name,
            &self.class,
            &self.value,
            self.version,
            self.origin,
            self.deleted,
        )
    }
}

/// Borrowed, read-only view of one object version, with the fields of
/// [`RibObject`]. It is what the RIB's reads ([`Rib::get`],
/// [`Rib::iter_prefix`], [`Rib::iter_all`]) return, and the receive
/// path's peek: [`RibObjectView::decode`] reads every field of an
/// encoding in place, so a received object can be checked for freshness,
/// and a stale one dropped, before anything is allocated.
/// [`RibObjectView::to_object`] is the one copy a fresh object pays.
/// Its `decode`/`encode` pair is the one reader and the one writer of the
/// object wire format; [`RibObject`]'s codec goes through them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RibObjectView<'a> {
    /// Path-style instance name.
    pub name: &'a str,
    /// Object class.
    pub class: &'a str,
    /// Encoded value (empty for tombstones).
    pub value: &'a [u8],
    /// Monotonic per-name version.
    pub version: u64,
    /// DIF-internal address of the writing member.
    pub origin: u64,
    /// True if this version deletes the object.
    pub deleted: bool,
    /// Length of the encoding this view was peeked from; `None` for a
    /// view of stored or owned fields, which encodes canonically.
    wire_len: Option<usize>,
}

impl<'a> RibObjectView<'a> {
    /// A view of borrowed fields, encoding canonically.
    fn new(
        name: &'a str,
        class: &'a str,
        value: &'a [u8],
        version: u64,
        origin: u64,
        deleted: bool,
    ) -> Self {
        RibObjectView { name, class, value, version, origin, deleted, wire_len: None }
    }

    /// Peek an encoded object: decode it in place, borrowing every field
    /// from `buf`. Never panics on arbitrary bytes.
    pub fn decode(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let name = r.string()?;
        let class = r.string()?;
        let value = r.bytes()?;
        let version = r.varint()?;
        let origin = r.varint()?;
        let deleted = r.boolean()?;
        r.expect_end()?;
        Ok(RibObjectView {
            name,
            class,
            value,
            version,
            origin,
            deleted,
            wire_len: Some(buf.len()),
        })
    }

    /// Copy out into an owned object. The value is copied, so an owned
    /// object never pins the buffer it was received in.
    pub fn to_object(&self) -> RibObject {
        RibObject {
            name: self.name.to_string(),
            class: self.class.to_string(),
            value: Bytes::copy_from_slice(self.value),
            version: self.version,
            origin: self.origin,
            deleted: self.deleted,
        }
    }

    /// Encode for carriage inside a CDAP value: the canonical encoding.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(self.canonical_len());
        w.string(self.name)
            .string(self.class)
            .bytes(self.value)
            .varint(self.version)
            .varint(self.origin)
            .boolean(self.deleted);
        w.finish()
    }

    /// Whether the peeked bytes are exactly what [`RibObject::encode`]
    /// writes for this object, so they may be forwarded verbatim. The
    /// reader accepts padded varints, which only ever lengthen an
    /// encoding: equal length to the canonical form means equal bytes.
    /// A view that was not peeked is canonical.
    pub fn is_canonical(&self) -> bool {
        self.wire_len.is_none_or(|n| n == self.canonical_len())
    }

    /// Length of the canonical encoding.
    fn canonical_len(&self) -> usize {
        let field = |n: usize| varint_len(n as u64) + n;
        field(self.name.len())
            + field(self.class.len())
            + field(self.value.len())
            + varint_len(self.version)
            + varint_len(self.origin)
            + 1
    }
}

/// Bytes [`Writer::varint`] takes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Longest name a [`Name`] holds inline.
const NAME_INLINE: usize = 22;
/// Longest value a [`Body`] holds inline.
const VALUE_INLINE: usize = 16;

/// `bytes` copied into a zero-padded inline buffer with its length, if
/// it fits.
fn inline<const N: usize>(bytes: &[u8]) -> Option<(u8, [u8; N])> {
    let mut buf = [0; N];
    buf.get_mut(..bytes.len())?.copy_from_slice(bytes);
    Some((bytes.len() as u8, buf))
}

/// A stored object's name, the key of the RIB's object map: inline up
/// to [`NAME_INLINE`] bytes, one heap allocation beyond. Names order and
/// compare as bytes, which for UTF-8 is exactly `str` order, so the map
/// walks names in the same order a `String` key would.
#[derive(Debug)]
enum Name {
    Inline { len: u8, buf: [u8; NAME_INLINE] },
    Heap(Box<str>),
}

impl Name {
    fn new(name: &str) -> Self {
        match inline(name.as_bytes()) {
            Some((len, buf)) => Name::Inline { len, buf },
            None => Name::Heap(name.into()),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Name::Inline { len, buf } => &buf[..*len as usize],
            Name::Heap(s) => s.as_bytes(),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Name::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("an inline name is a whole str")
            }
            Name::Heap(s) => s,
        }
    }
}

impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// A stored object's interned class id, tombstone flag and value, packed
/// into the bytes the variant tag leaves free: the value is inline up to
/// [`VALUE_INLINE`] bytes, one heap allocation beyond.
#[derive(Debug)]
enum Body {
    Inline { class: u32, deleted: bool, len: u8, buf: [u8; VALUE_INLINE] },
    Heap { class: u32, deleted: bool, buf: Box<[u8]> },
}

impl Body {
    fn new(class: u32, deleted: bool, value: &[u8]) -> Self {
        match inline(value) {
            Some((len, buf)) => Body::Inline { class, deleted, len, buf },
            None => Body::Heap { class, deleted, buf: value.into() },
        }
    }

    fn class(&self) -> u32 {
        match self {
            Body::Inline { class, .. } | Body::Heap { class, .. } => *class,
        }
    }

    fn deleted(&self) -> bool {
        match self {
            Body::Inline { deleted, .. } | Body::Heap { deleted, .. } => *deleted,
        }
    }

    fn value(&self) -> &[u8] {
        match self {
            Body::Inline { len, buf, .. } => &buf[..*len as usize],
            Body::Heap { buf, .. } => buf,
        }
    }
}

/// The stored version of one name (the name is the map key).
#[derive(Debug)]
struct Entry {
    version: u64,
    origin: u64,
    body: Body,
}

impl Entry {
    fn new(obj: &RibObjectView<'_>, class: u32) -> Self {
        Entry {
            version: obj.version,
            origin: obj.origin,
            body: Body::new(class, obj.deleted, obj.value),
        }
    }
}

/// Bytes of one stored object outside the heap spills: its map key and
/// entry. The map's nodes add their slack on top.
const STORED_BYTES: usize = 64;
const _: () = assert!(
    std::mem::size_of::<Name>() + std::mem::size_of::<Entry>() <= STORED_BYTES,
    "a stored object outgrew its documented size"
);

/// A RIB's interned object classes, reference-counted by the stored
/// objects: an id indexes `names`, and `by_name` holds the live ids
/// sorted by class name for lookup. A class no stored object uses any
/// more is dropped and its id reused, so the table never outgrows the
/// objects, whatever classes a peer sends over time.
#[derive(Debug, Default)]
struct Classes {
    /// Class name and the number of stored objects of it, by id; a free
    /// id holds an empty name and a zero count.
    names: Vec<(Box<str>, usize)>,
    by_name: Vec<u32>,
    /// Ids of dropped classes, for reuse.
    free: Vec<u32>,
}

impl Classes {
    /// Where `class` is, or would be, in `by_name`.
    fn find(&self, class: &str) -> Result<usize, usize> {
        self.by_name.binary_search_by(|&id| (*self.names[id as usize].0).cmp(class))
    }

    /// The id of `class` for one more object of it, interning it if new.
    fn acquire(&mut self, class: &str) -> u32 {
        let id = match self.find(class) {
            Ok(i) => self.by_name[i],
            Err(i) => {
                let id = match self.free.pop() {
                    Some(id) => id,
                    None => {
                        self.names.push(Default::default());
                        u32::try_from(self.names.len() - 1).expect("fewer than 2^32 classes")
                    }
                };
                self.names[id as usize].0 = class.into();
                self.by_name.insert(i, id);
                id
            }
        };
        self.names[id as usize].1 += 1;
        id
    }

    /// One object fewer of class `id`; the last one drops the class.
    fn release(&mut self, id: u32) {
        let count = &mut self.names[id as usize].1;
        *count -= 1;
        if *count == 0 {
            let i = self.find(self.name(id)).expect("a live class is indexed");
            self.by_name.remove(i);
            self.names[id as usize].0 = Box::default();
            self.free.push(id);
        }
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize].0
    }
}

/// A change the local IPC process should react to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RibEvent {
    /// An object appeared or changed value.
    Upserted(RibObject),
    /// An object was deleted (tombstoned).
    Deleted(RibObject),
}

impl RibEvent {
    /// The object the event concerns.
    pub fn object(&self) -> &RibObject {
        match self {
            RibEvent::Upserted(o) | RibEvent::Deleted(o) => o,
        }
    }
}

/// The name-space subtree an object belongs to: the first path component
/// of its name (`/lsa/7` → `/lsa`, `/dir/echo` → `/dir`). Names without a
/// second separator are their own subtree. Digest tables, delta requests,
/// and flood suppression all work at this granularity.
pub fn subtree_of(name: &str) -> &str {
    &name[..subtree_len(name.as_bytes())]
}

/// Length of [`subtree_of`]`(name)`: up to the second `/`, if the name
/// starts with one.
fn subtree_len(name: &[u8]) -> usize {
    match name.split_first() {
        Some((b'/', rest)) => rest.iter().position(|&b| b == b'/').map_or(name.len(), |i| i + 1),
        _ => name.len(),
    }
}

/// One object's version coordinates, without its value — the unit of a
/// delta-request summary. Two members exchange these (cheap) to discover
/// which full objects (expensive) actually need to move.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjVer {
    /// Full object name.
    pub name: String,
    /// Version counter.
    pub version: u64,
    /// Writing member's address (the version tie-breaker).
    pub origin: u64,
}

impl ObjVer {
    /// Encode into an in-progress wire value.
    pub fn encode_into(&self, w: &mut Writer) {
        w.string(&self.name).varint(self.version).varint(self.origin);
    }

    /// Decode from an in-progress wire value.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = r.string()?.to_string();
        let version = r.varint()?;
        let origin = r.varint()?;
        Ok(ObjVer { name, version, origin })
    }
}

/// Per-subtree `(object_count, digest)` summary of a RIB — the Merkle-ish
/// table hellos and enrollment requests carry. Comparing two tables
/// localizes a mismatch to the subtrees that actually diverged, so
/// anti-entropy exchanges per-subtree deltas instead of whole RIBs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DigestTable {
    /// `(subtree, object_count, digest)`, sorted by subtree name.
    entries: Vec<(String, u64, u64)>,
}

impl DigestTable {
    /// Build from `(subtree, count, digest)` triples (sorted internally).
    pub fn from_entries(mut entries: Vec<(String, u64, u64)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        DigestTable { entries }
    }

    /// The sorted `(subtree, count, digest)` triples.
    pub fn entries(&self) -> &[(String, u64, u64)] {
        &self.entries
    }

    /// This table's `(count, digest)` for one subtree.
    pub fn get(&self, subtree: &str) -> Option<(u64, u64)> {
        self.entries
            .binary_search_by(|e| e.0.as_str().cmp(subtree))
            .ok()
            .map(|i| (self.entries[i].1, self.entries[i].2))
    }

    /// Total stored objects (tombstones included) across subtrees.
    pub fn total_count(&self) -> u64 {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// Whole-RIB digest: XOR over the subtree digests.
    pub fn total_digest(&self) -> u64 {
        self.entries.iter().fold(0, |d, e| d ^ e.2)
    }

    /// Subtrees whose `(count, digest)` differ between the two tables —
    /// the union, so a subtree present on only one side counts.
    pub fn mismatched(&self, other: &DigestTable) -> Vec<String> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() || j < other.entries.len() {
            let a = self.entries.get(i);
            let b = other.entries.get(j);
            match (a, b) {
                (Some(a), Some(b)) if a.0 == b.0 => {
                    if (a.1, a.2) != (b.1, b.2) {
                        out.push(a.0.clone());
                    }
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a.0 < b.0 => {
                    out.push(a.0.clone());
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    out.push(b.0.clone());
                    j += 1;
                }
                (Some(a), None) => {
                    out.push(a.0.clone());
                    i += 1;
                }
                (None, Some(b)) => {
                    out.push(b.0.clone());
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        out
    }

    /// Encode into an in-progress wire value.
    pub fn encode_into(&self, w: &mut Writer) {
        w.varint(self.entries.len() as u64);
        for (s, c, d) in &self.entries {
            w.string(s).varint(*c).varint(*d);
        }
    }

    /// Decode from an in-progress wire value.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.varint()? as usize;
        let mut entries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let s = r.string()?.to_string();
            let c = r.varint()?;
            let d = r.varint()?;
            entries.push((s, c, d));
        }
        Ok(DigestTable::from_entries(entries))
    }
}

/// FNV-1a of an object name: the name part of [`fingerprint`], hashed
/// once per store and shared by the old and the new version.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Order-independent fingerprint of one object version (its name's
/// [`name_hash`] and version coordinates), XOR-aggregated into
/// [`Rib::digest`]. Any version change changes it (versions are
/// monotonic per name), so two RIBs with equal `(object_count, digest)`
/// hold the same object versions with overwhelming probability — the
/// basis of hello-driven anti-entropy.
fn fingerprint(name_h: u64, version: u64, origin: u64, deleted: bool) -> u64 {
    // Nonlinear mixing (splitmix64 finalizer) entangles version and
    // origin with the name hash. A plain XOR of `version × constant`
    // would make the digest *difference* of a version bump independent
    // of the name — two objects each one version stale then cancel in
    // the XOR aggregate, and anti-entropy would declare two diverged
    // RIBs in sync (seen in practice on lossy 22-member lines).
    let mut h = mix(name_h ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = mix(h ^ origin.rotate_left(32));
    if deleted {
        h = !h;
    }
    h
}

/// splitmix64's avalanche finalizer: every input bit affects every
/// output bit, making XOR-aggregated fingerprints collision-resistant
/// under correlated version bumps.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `name` lies in the delta-request chunk `[from, upto)`, where
/// an empty bound is unbounded.
fn in_range(name: &str, from: &str, upto: &str) -> bool {
    (from.is_empty() || name >= from) && (upto.is_empty() || name < upto)
}

/// The Resource Information Base of one IPC process.
#[derive(Debug, Default)]
pub struct Rib {
    /// The member's own DIF-internal address (0 until enrolled).
    origin: u64,
    /// Every stored object version, tombstones included, in name order.
    objects: BTreeMap<Name, Entry>,
    /// The classes `objects` refer to by id.
    classes: Classes,
    events: VecDeque<RibEvent>,
    /// Objects (new versions) to disseminate to neighbors.
    outbox: VecDeque<RibObject>,
    /// XOR of [`fingerprint`] over every stored object (tombstones
    /// included), maintained incrementally.
    digest: u64,
    /// Per-subtree `(count, digest)`, maintained incrementally alongside
    /// the whole-RIB digest (keys are [`subtree_of`] results).
    subtrees: BTreeMap<String, (u64, u64)>,
    /// Name prefixes with a change subscription (see [`Rib::watch_prefix`]).
    watch_prefixes: Vec<String>,
    /// Stored objects matching a watched prefix, in application order.
    watch_q: VecDeque<RibObject>,
    /// Subtrees with **local replication scope** (sorted): their objects
    /// are owner-held instead of DIF-wide. A local subtree is excluded
    /// from the digest table, the enrollment snapshot, and delta
    /// serving, and its live writes are not queued for dissemination —
    /// only its tombstones flood, so remote caches still hear deletions.
    local_subtrees: Vec<String>,
}

impl Rib {
    /// An empty RIB for a member that will write with address `origin`.
    pub fn new(origin: u64) -> Self {
        Rib { origin, ..Default::default() }
    }

    /// Update the origin address (set when enrollment assigns one).
    pub fn set_origin(&mut self, origin: u64) {
        self.origin = origin;
    }

    /// This member's origin address.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Give `subtree` (a [`subtree_of`] result, e.g. `"/dir"`) **local
    /// replication scope**: its objects stay owner-held instead of
    /// replicating DIF-wide. From this call on the subtree disappears
    /// from [`Rib::digest_table`] (so hellos stop advertising it),
    /// [`Rib::snapshot`] (so enrollment stops copying it), and
    /// [`Rib::delta_for`]/[`Rib::summary`] (so anti-entropy never pulls
    /// it), and live writes under it skip the dissemination outbox.
    /// Tombstones still disseminate — deletion floods are how remote
    /// lookup caches hear invalidations. Watchers registered for a
    /// prefix inside the subtree are torn down: a watcher must not fire
    /// on entries that are no longer part of the replicated RIB.
    pub fn set_local_subtree(&mut self, subtree: &str) {
        if let Err(i) = self.local_subtrees.binary_search_by(|s| s.as_str().cmp(subtree)) {
            self.local_subtrees.insert(i, subtree.to_string());
        }
        self.watch_prefixes.retain(|p| subtree_of(p) != subtree);
        self.watch_q.retain(|o| subtree_of(&o.name) != subtree);
    }

    /// Whether `subtree` has local replication scope.
    pub fn is_local_subtree(&self, subtree: &str) -> bool {
        self.local_subtrees.binary_search_by(|s| s.as_str().cmp(subtree)).is_ok()
    }

    /// The subtrees with local replication scope, sorted.
    pub fn local_subtrees(&self) -> &[String] {
        &self.local_subtrees
    }

    /// Write (create or update) an object authored locally. The new version
    /// supersedes any existing one and is queued for dissemination.
    pub fn write_local(&mut self, name: &str, class: &str, value: Bytes) {
        let version = self.objects.get(name.as_bytes()).map_or(1, |e| e.version + 1);
        let obj = RibObject {
            name: name.to_string(),
            class: class.to_string(),
            value,
            version,
            origin: self.origin,
            deleted: false,
        };
        // A bumped version is always newer, so the store never declines.
        self.store(&obj.view());
        self.events.push_back(RibEvent::Upserted(obj.clone()));
        if !self.is_local_subtree(subtree_of(&obj.name)) {
            self.outbox.push_back(obj);
        }
    }

    /// Subscribe to object-level changes under `prefix`: every stored
    /// version (local write, remote apply, tombstone — *any* path into
    /// the RIB) whose name starts with `prefix` is queued for
    /// [`Rib::poll_watch`]. This is the delta hook consumers like the
    /// routing engine use to mirror a subtree incrementally instead of
    /// re-decoding it: because it sits on the single store choke point,
    /// deletions propagate exactly like upserts, whichever protocol path
    /// delivered them.
    pub fn watch_prefix(&mut self, prefix: &str) {
        if !self.watch_prefixes.iter().any(|p| p == prefix) {
            self.watch_prefixes.push(prefix.to_string());
        }
    }

    /// Drain the next watched change (in application order).
    pub fn poll_watch(&mut self) -> Option<RibObject> {
        self.watch_q.pop_front()
    }

    /// Tear down the subscription registered by [`Rib::watch_prefix`]
    /// for exactly `prefix`, dropping any of its queued-but-undrained
    /// changes. No-op if the prefix was never watched (or was already
    /// torn down by [`Rib::set_local_subtree`]).
    pub fn unwatch_prefix(&mut self, prefix: &str) {
        if !self.watch_prefixes.iter().any(|p| p == prefix) {
            return;
        }
        self.watch_prefixes.retain(|p| p != prefix);
        // Keep queued changes still covered by another live watcher.
        let live = self.watch_prefixes.clone();
        self.watch_q.retain(|o| live.iter().any(|p| o.name.starts_with(p.as_str())));
    }

    /// The single store choke point. Stores `obj` if it is newer than
    /// the stored version of its name (or the name is new), keeping the
    /// incremental digests (whole-RIB and per-subtree) and the watch
    /// queue in sync, and returns whether it did; a stale `obj` changes
    /// nothing. One object-map lookup decides freshness, and a known name
    /// is updated in place: this runs once per received object, millions
    /// of times in a big assembly. Beyond the map's own node growth, a
    /// fresh object allocates only for a name or value too long to store
    /// inline, and for the owned copy a watched name queues.
    fn store(&mut self, obj: &RibObjectView<'_>) -> bool {
        let name_h = name_hash(obj.name);
        let mut xor = fingerprint(name_h, obj.version, obj.origin, obj.deleted);
        let is_new = match self.objects.get_mut(obj.name.as_bytes()) {
            Some(cur) => {
                if (obj.version, obj.origin) <= (cur.version, cur.origin) {
                    return false;
                }
                xor ^= fingerprint(name_h, cur.version, cur.origin, cur.body.deleted());
                let mut class = cur.body.class();
                if self.classes.name(class) != obj.class {
                    self.classes.release(class);
                    class = self.classes.acquire(obj.class);
                }
                *cur = Entry::new(obj, class);
                false
            }
            None => {
                let class = self.classes.acquire(obj.class);
                self.objects.insert(Name::new(obj.name), Entry::new(obj, class));
                true
            }
        };
        self.digest ^= xor;
        let st = subtree_of(obj.name);
        // get_mut before insert: the common case (subtree exists) must
        // not allocate an owned key per store.
        match self.subtrees.get_mut(st) {
            Some(e) => {
                e.0 += is_new as u64;
                e.1 ^= xor;
            }
            None => {
                self.subtrees.insert(st.to_string(), (1, xor));
            }
        }
        if self.watch_prefixes.iter().any(|p| obj.name.starts_with(p.as_str())) {
            self.watch_q.push_back(obj.to_object());
        }
        true
    }

    /// The view of one stored object.
    fn view<'a>(&'a self, name: &'a Name, e: &'a Entry) -> RibObjectView<'a> {
        RibObjectView::new(
            name.as_str(),
            self.classes.name(e.body.class()),
            e.body.value(),
            e.version,
            e.origin,
            e.body.deleted(),
        )
    }

    /// All stored objects (tombstones included) in `subtree` with names
    /// in the chunk `[from, upto)` (see [`in_range`]), name order.
    fn subtree_objects<'a>(
        &'a self,
        subtree: &'a str,
        from: &'a str,
        upto: &'a str,
    ) -> impl Iterator<Item = (&'a Name, &'a Entry)> + 'a {
        // A subtree's names are one contiguous run of the name order.
        self.objects
            .range::<[u8], _>((Bound::Included(subtree.max(from).as_bytes()), Bound::Unbounded))
            .take_while(move |(k, _)| {
                k.as_bytes().starts_with(subtree.as_bytes())
                    && (upto.is_empty() || k.as_bytes() < upto.as_bytes())
            })
            .filter(move |(k, _)| subtree_len(k.as_bytes()) == subtree.len())
    }

    /// [`Rib::write_local`], but a no-op when the object already holds
    /// exactly `value` (live, same class). Keeps idempotent re-writes —
    /// enrollment re-grants, repeated registrations — from bumping
    /// versions, which would re-flood an unchanged object DIF-wide.
    /// Returns whether a write happened.
    pub fn write_local_if_changed(&mut self, name: &str, class: &str, value: Bytes) -> bool {
        match self.get(name) {
            Some(o) if o.class == class && o.value == &value[..] => false,
            _ => {
                self.write_local(name, class, value);
                true
            }
        }
    }

    /// Tombstone an object authored locally. No-op if absent or already
    /// deleted.
    pub fn delete_local(&mut self, name: &str) {
        let Some(cur) = self.get(name) else { return };
        let obj = RibObject {
            name: cur.name.to_string(),
            class: cur.class.to_string(),
            value: Bytes::new(),
            version: cur.version + 1,
            origin: self.origin,
            deleted: true,
        };
        self.store(&obj.view());
        self.events.push_back(RibEvent::Deleted(obj.clone()));
        self.outbox.push_back(obj);
    }

    /// Apply an object received from a peer. Returns `true` if it was newer
    /// than local state (caller should then re-flood it to other
    /// neighbors); `false` if stale or identical.
    pub fn apply_remote(&mut self, obj: RibObject) -> bool {
        if !self.store(&obj.view()) {
            return false;
        }
        let ev = if obj.deleted { RibEvent::Deleted(obj) } else { RibEvent::Upserted(obj) };
        self.events.push_back(ev);
        true
    }

    /// [`Rib::apply_remote`] without queueing a [`RibEvent`] — for
    /// callers that react to the returned freshness directly and would
    /// only drain-and-discard the event.
    pub fn apply_remote_silent(&mut self, obj: RibObject) -> bool {
        self.store(&obj.view())
    }

    /// [`Rib::apply_remote_silent`] straight from a receive buffer: one
    /// lookup decides freshness, a stale version is dropped without
    /// allocating, and a fresh one is copied out of the buffer into the
    /// store (in place when the name is already stored).
    pub fn apply_remote_view(&mut self, view: &RibObjectView<'_>) -> bool {
        self.store(view)
    }

    /// Current value of a live (non-deleted) object.
    pub fn get(&self, name: &str) -> Option<RibObjectView<'_>> {
        let (k, e) = self.objects.get_key_value(name.as_bytes())?;
        (!e.body.deleted()).then(|| self.view(k, e))
    }

    /// All live objects whose names start with `prefix`, in name order.
    pub fn iter_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = RibObjectView<'a>> + 'a {
        self.objects
            .range::<[u8], _>((Bound::Included(prefix.as_bytes()), Bound::Unbounded))
            .take_while(move |(k, _)| k.as_bytes().starts_with(prefix.as_bytes()))
            .filter(|(_, e)| !e.body.deleted())
            .map(|(k, e)| self.view(k, e))
    }

    /// Names of every live object whose last write came from `origin` —
    /// what a departed member left behind (its LSA, its directory
    /// registrations). Garbage collection tombstones each name via
    /// [`Rib::delete_local`], so the deletions flood and the digests
    /// converge like any other write.
    pub fn live_of_origin(&self, origin: u64) -> Vec<String> {
        self.objects
            .iter()
            .filter(|(_, e)| !e.body.deleted() && e.origin == origin)
            .map(|(k, _)| k.as_str().to_string())
            .collect()
    }

    /// Every object including tombstones — the enrollment sync set a new
    /// member receives (§5.2). Local-scope subtrees are excluded: their
    /// objects are owner-held, so a joiner never receives them.
    pub fn snapshot(&self) -> Vec<RibObject> {
        self.iter_all()
            .filter(|o| !self.is_local_subtree(subtree_of(o.name)))
            .map(|o| o.to_object())
            .collect()
    }

    /// Borrowing iterator over every stored object, tombstones included,
    /// in name order — for callers that filter before copying (periodic
    /// re-advertisement copies 3 own objects, not a 3000-object RIB).
    pub fn iter_all(&self) -> impl Iterator<Item = RibObjectView<'_>> + '_ {
        self.objects.iter().map(|(k, e)| self.view(k, e))
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.values().filter(|e| !e.body.deleted()).count()
    }

    /// Number of stored objects, tombstones included (pairs with
    /// [`Rib::digest`] for anti-entropy comparisons).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Order-independent fingerprint of the stored object versions. Two
    /// RIBs with equal `(object_count, digest)` are in sync; a mismatch
    /// means someone missed an update.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Per-subtree digest table (see [`DigestTable`]): comparing two
    /// tables localizes divergence to the subtrees that actually differ.
    /// Local-scope subtrees are omitted — hellos must not advertise
    /// owner-held state, or every peer would try to pull it.
    pub fn digest_table(&self) -> DigestTable {
        DigestTable::from_entries(
            self.subtrees
                .iter()
                .filter(|(s, _)| !self.is_local_subtree(s))
                .map(|(s, &(c, d))| (s.clone(), c, d))
                .collect(),
        )
    }

    /// This RIB's `(count, digest)` for one subtree, if any object of it
    /// is stored.
    pub fn subtree_digest(&self, subtree: &str) -> Option<(u64, u64)> {
        self.subtrees.get(subtree).copied()
    }

    /// Version summary of every stored object (tombstones included) in
    /// `subtree`, in name order — what a delta request carries instead of
    /// the objects themselves. Empty for local-scope subtrees: they are
    /// never offered for anti-entropy.
    pub fn summary(&self, subtree: &str) -> Vec<ObjVer> {
        if self.is_local_subtree(subtree) {
            return Vec::new();
        }
        self.subtree_objects(subtree, "", "")
            .map(|(k, e)| ObjVer {
                name: k.as_str().to_string(),
                version: e.version,
                origin: e.origin,
            })
            .collect()
    }

    /// Answer a delta request: given a peer's version `summary` of
    /// `subtree` restricted to names in `[from, upto)` (empty bound =
    /// unbounded), return the objects *we* hold in that range which the
    /// peer lacks or holds older, plus `true` if the summary proves the
    /// peer holds versions newer than ours (so the caller should issue
    /// its own request for this subtree).
    pub fn delta_for(
        &self,
        subtree: &str,
        from: &str,
        upto: &str,
        summary: &[ObjVer],
    ) -> (Vec<RibObject>, bool) {
        if self.is_local_subtree(subtree) {
            // Owner-held state is never served by anti-entropy, and a
            // peer's summary of it proves nothing we should pull.
            return (Vec::new(), false);
        }
        // Summaries are built in name order; anything else (a malformed
        // or hostile peer) takes the general path.
        if summary.windows(2).all(|w| w[0].name < w[1].name) {
            self.delta_merge(subtree, from, upto, summary)
        } else {
            self.delta_by_map(subtree, from, upto, summary)
        }
    }

    /// [`Rib::delta_for`] for a strictly name-ordered summary: one merge
    /// walk of the summary against the subtree, no index built and no
    /// second lookup for names both sides hold.
    fn delta_merge(
        &self,
        subtree: &str,
        from: &str,
        upto: &str,
        summary: &[ObjVer],
    ) -> (Vec<RibObject>, bool) {
        let mut send = Vec::new();
        let mut behind = false;
        let mut theirs = summary.iter().filter(|v| in_range(&v.name, from, upto)).peekable();
        for (k, e) in self.subtree_objects(subtree, from, upto) {
            // Their names that sort before ours are names this subtree
            // walk does not hold.
            while let Some(v) = theirs.next_if(|v| v.name.as_bytes() < k.as_bytes()) {
                behind = behind || self.peer_newer(v);
            }
            match theirs.next_if(|v| v.name.as_bytes() == k.as_bytes()) {
                Some(v) => {
                    let (t, ours) = ((v.version, v.origin), (e.version, e.origin));
                    if t < ours {
                        send.push(self.view(k, e).to_object());
                    }
                    behind = behind || t > ours;
                }
                None => send.push(self.view(k, e).to_object()),
            }
        }
        for v in theirs {
            behind = behind || self.peer_newer(v);
        }
        (send, behind)
    }

    /// [`Rib::delta_for`] for any summary: index it by name (the last
    /// duplicate wins), then look each of its names up.
    fn delta_by_map(
        &self,
        subtree: &str,
        from: &str,
        upto: &str,
        summary: &[ObjVer],
    ) -> (Vec<RibObject>, bool) {
        let theirs: BTreeMap<&[u8], (u64, u64)> =
            summary.iter().map(|v| (v.name.as_bytes(), (v.version, v.origin))).collect();
        let mut send = Vec::new();
        for (k, e) in self.subtree_objects(subtree, from, upto) {
            match theirs.get(k.as_bytes()) {
                Some(&t) if t >= (e.version, e.origin) => {}
                _ => send.push(self.view(k, e).to_object()),
            }
        }
        let behind =
            summary.iter().filter(|v| in_range(&v.name, from, upto)).any(|v| self.peer_newer(v));
        (send, behind)
    }

    /// Whether a summary entry proves the peer holds a version of its
    /// name newer than ours (or one we lack altogether).
    fn peer_newer(&self, v: &ObjVer) -> bool {
        self.objects
            .get(v.name.as_bytes())
            .is_none_or(|e| (v.version, v.origin) > (e.version, e.origin))
    }

    /// True when no live objects exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain pending local events.
    pub fn poll_event(&mut self) -> Option<RibEvent> {
        self.events.pop_front()
    }

    /// Drain objects queued for dissemination to neighbors.
    pub fn poll_dissemination(&mut self) -> Option<RibObject> {
        self.outbox.pop_front()
    }
}
#[cfg(test)]
mod model_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain_events(r: &mut Rib) -> Vec<RibEvent> {
        std::iter::from_fn(|| r.poll_event()).collect()
    }

    #[test]
    fn local_write_and_get() {
        let mut rib = Rib::new(5);
        rib.write_local("/dir/app-a", "dir", Bytes::from_static(b"\x2a"));
        let o = rib.get("/dir/app-a").unwrap();
        assert_eq!(o.version, 1);
        assert_eq!(o.origin, 5);
        assert_eq!(o.value, b"\x2a");
        let evs = drain_events(&mut rib);
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0], RibEvent::Upserted(_)));
        assert!(rib.poll_dissemination().is_some());
        assert!(rib.poll_dissemination().is_none());
    }

    #[test]
    fn rewrite_bumps_version() {
        let mut rib = Rib::new(1);
        rib.write_local("/x", "c", Bytes::from_static(b"1"));
        rib.write_local("/x", "c", Bytes::from_static(b"2"));
        assert_eq!(rib.get("/x").unwrap().version, 2);
        assert_eq!(rib.get("/x").unwrap().value, b"2");
    }

    #[test]
    fn write_if_changed_skips_identical_values() {
        let mut rib = Rib::new(1);
        assert!(rib.write_local_if_changed("/x", "c", Bytes::from_static(b"1")));
        assert!(!rib.write_local_if_changed("/x", "c", Bytes::from_static(b"1")));
        assert_eq!(rib.get("/x").unwrap().version, 1, "no version churn");
        assert!(rib.poll_dissemination().is_some());
        assert!(rib.poll_dissemination().is_none(), "no re-flood queued");
        assert!(rib.write_local_if_changed("/x", "c", Bytes::from_static(b"2")));
        // A tombstoned object counts as changed: it must resurrect.
        rib.delete_local("/x");
        assert!(rib.write_local_if_changed("/x", "c", Bytes::from_static(b"2")));
        assert_eq!(rib.get("/x").unwrap().value, b"2");
    }

    #[test]
    fn remote_newer_applies_and_floods_stale_does_not() {
        let mut a = Rib::new(1);
        let mut b = Rib::new(2);
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"v1"));
        let o1 = a.poll_dissemination().unwrap();
        assert!(b.apply_remote(o1.clone()));
        assert!(!b.apply_remote(o1.clone()), "duplicate is stale");
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"v2"));
        let o2 = a.poll_dissemination().unwrap();
        assert!(b.apply_remote(o2));
        assert!(!b.apply_remote(o1), "old version rejected");
        assert_eq!(b.get("/lsa/1").unwrap().value, b"v2");
    }

    #[test]
    fn delete_tombstones_and_wins() {
        let mut a = Rib::new(1);
        a.write_local("/dir/app", "dir", Bytes::from_static(b"7"));
        let create = a.poll_dissemination().unwrap();
        a.delete_local("/dir/app");
        let tomb = a.poll_dissemination().unwrap();
        assert!(a.get("/dir/app").is_none());
        assert_eq!(a.len(), 0);

        // A peer that sees the delete after the create ends deleted…
        let mut b = Rib::new(2);
        assert!(b.apply_remote(create.clone()));
        assert!(b.apply_remote(tomb.clone()));
        assert!(b.get("/dir/app").is_none());
        // …and a peer that sees them reordered also ends deleted.
        let mut c = Rib::new(3);
        assert!(c.apply_remote(tomb));
        assert!(!c.apply_remote(create));
        assert!(c.get("/dir/app").is_none());
    }

    #[test]
    fn delete_absent_is_noop() {
        let mut a = Rib::new(1);
        a.delete_local("/nope");
        assert!(drain_events(&mut a).is_empty());
        assert!(a.poll_dissemination().is_none());
    }

    #[test]
    fn live_of_origin_filters_tombstones_and_other_members() {
        let mut a = Rib::new(7);
        a.write_local("/lsa/7", "lsa", Bytes::from_static(b"me"));
        a.write_local("/dir/app7", "dir", Bytes::from_static(b"7"));
        a.write_local("/blocks/7", "block", Bytes::from_static(b"b"));
        a.delete_local("/dir/app7");
        // Another member's object arrives via dissemination.
        let mut b = Rib::new(9);
        b.write_local("/lsa/9", "lsa", Bytes::from_static(b"peer"));
        let obj = b.poll_dissemination().unwrap();
        assert!(a.apply_remote(obj));

        let mut live = a.live_of_origin(7);
        live.sort();
        assert_eq!(live, vec!["/blocks/7".to_string(), "/lsa/7".to_string()]);
        assert_eq!(a.live_of_origin(9), vec!["/lsa/9".to_string()]);
        assert!(a.live_of_origin(3).is_empty());
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two members write the same name at the same version.
        let mut a = Rib::new(1);
        let mut b = Rib::new(9);
        a.write_local("/contested", "c", Bytes::from_static(b"low"));
        b.write_local("/contested", "c", Bytes::from_static(b"high"));
        let oa = a.poll_dissemination().unwrap();
        let ob = b.poll_dissemination().unwrap();
        // Cross-apply in both orders: both converge on origin 9's value.
        let mut x = Rib::new(50);
        assert!(x.apply_remote(oa.clone()));
        assert!(x.apply_remote(ob.clone()));
        let mut y = Rib::new(51);
        assert!(y.apply_remote(ob));
        assert!(!y.apply_remote(oa));
        assert_eq!(x.get("/contested").unwrap().value, y.get("/contested").unwrap().value);
        assert_eq!(x.get("/contested").unwrap().value, b"high");
    }

    #[test]
    fn prefix_iteration_ordered_and_filtered() {
        let mut rib = Rib::new(1);
        rib.write_local("/dir/b", "dir", Bytes::new());
        rib.write_local("/dir/a", "dir", Bytes::new());
        rib.write_local("/lsa/1", "lsa", Bytes::new());
        rib.write_local("/dir/c", "dir", Bytes::new());
        rib.delete_local("/dir/b");
        let names: Vec<_> = rib.iter_prefix("/dir/").map(|o| o.name).collect();
        assert_eq!(names, vec!["/dir/a", "/dir/c"]);
    }

    #[test]
    fn snapshot_includes_tombstones() {
        let mut rib = Rib::new(1);
        rib.write_local("/a", "c", Bytes::new());
        rib.delete_local("/a");
        rib.write_local("/b", "c", Bytes::new());
        let snap = rib.snapshot();
        assert_eq!(snap.len(), 2);
        // A fresh member applying the snapshot converges.
        let mut n = Rib::new(7);
        for o in snap {
            n.apply_remote(o);
        }
        assert!(n.get("/a").is_none());
        assert!(n.get("/b").is_some());
    }

    #[test]
    fn digest_tracks_state_not_history() {
        // Two RIBs reaching the same object versions by different routes
        // end with the same digest; divergent state differs.
        let mut a = Rib::new(1);
        a.write_local("/x", "c", Bytes::from_static(b"1"));
        a.write_local("/y", "c", Bytes::from_static(b"2"));
        let (ox, oy) = (a.poll_dissemination().unwrap(), a.poll_dissemination().unwrap());
        let mut b = Rib::new(2);
        assert_ne!((a.object_count(), a.digest()), (b.object_count(), b.digest()));
        b.apply_remote(oy); // reversed arrival order
        b.apply_remote(ox);
        assert_eq!((a.object_count(), a.digest()), (b.object_count(), b.digest()));
        // A new version moves the digest; syncing restores it.
        a.write_local("/x", "c", Bytes::from_static(b"3"));
        let o = a.poll_dissemination().unwrap();
        assert_ne!(a.digest(), b.digest());
        b.apply_remote(o);
        assert_eq!(a.digest(), b.digest());
        // Tombstones count too.
        a.delete_local("/y");
        assert_ne!(a.digest(), b.digest());
        b.apply_remote(a.poll_dissemination().unwrap());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.object_count(), 2, "tombstone still stored");
    }

    #[test]
    fn object_encode_roundtrip() {
        let o = RibObject {
            name: "/dir/x".into(),
            class: "dir".into(),
            value: Bytes::from_static(b"\x01\x02"),
            version: 42,
            origin: 7,
            deleted: true,
        };
        assert_eq!(RibObject::decode(&o.encode()).unwrap(), o);
    }

    #[test]
    fn flooding_converges_on_a_line_of_members() {
        // a - b - c: a's write reaches c through b's re-flood decision.
        let mut ribs = vec![Rib::new(1), Rib::new(2), Rib::new(3)];
        ribs[0].write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        // Simulate flooding: each dissemination is offered to neighbors,
        // re-offered while apply_remote returns true.
        let mut pending: Vec<(usize, RibObject)> = vec![];
        while let Some(o) = ribs[0].poll_dissemination() {
            pending.push((0, o));
        }
        while let Some((from, obj)) = pending.pop() {
            let neighbors: &[usize] = match from {
                0 => &[1],
                1 => &[0, 2],
                _ => &[1],
            };
            for &n in neighbors {
                if ribs[n].apply_remote(obj.clone()) {
                    pending.push((n, obj.clone()));
                }
            }
        }
        for rib in &ribs {
            assert_eq!(rib.get("/lsa/1").unwrap().value, b"x");
        }
    }

    #[test]
    fn subtree_of_splits_on_second_separator() {
        assert_eq!(subtree_of("/lsa/17"), "/lsa");
        assert_eq!(subtree_of("/dir/echo.h1"), "/dir");
        assert_eq!(subtree_of("/members/net.a/b"), "/members");
        assert_eq!(subtree_of("/flat"), "/flat");
        assert_eq!(subtree_of("bare"), "bare");
        assert_eq!(subtree_of(""), "");
    }

    #[test]
    fn digest_table_localizes_divergence_to_subtrees() {
        let mut a = Rib::new(1);
        a.write_local("/dir/x", "dir", Bytes::from_static(b"1"));
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"2"));
        let mut b = Rib::new(2);
        while let Some(o) = a.poll_dissemination() {
            b.apply_remote(o);
        }
        assert_eq!(a.digest_table(), b.digest_table());
        assert!(a.digest_table().mismatched(&b.digest_table()).is_empty());
        // A /lsa-only change must not implicate /dir.
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"3"));
        let mm = a.digest_table().mismatched(&b.digest_table());
        assert_eq!(mm, vec!["/lsa".to_string()]);
        // The totals still match the whole-RIB digest machinery.
        assert_eq!(a.digest_table().total_digest(), a.digest());
        assert_eq!(a.digest_table().total_count(), a.object_count() as u64);
        // A subtree present on only one side is a mismatch too.
        b.write_local("/blocks/9", "block", Bytes::new());
        let mm = a.digest_table().mismatched(&b.digest_table());
        assert_eq!(mm, vec!["/blocks".to_string(), "/lsa".to_string()]);
    }

    #[test]
    fn delta_for_sends_exactly_what_the_peer_lacks() {
        let mut a = Rib::new(1);
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"v1"));
        a.write_local("/lsa/2", "lsa", Bytes::from_static(b"v1"));
        a.write_local("/lsa/3", "lsa", Bytes::from_static(b"v1"));
        a.write_local("/dir/x", "dir", Bytes::new());
        let mut b = Rib::new(2);
        // b holds /lsa/2 at the same version and /lsa/3 newer.
        b.apply_remote(a.get("/lsa/2").unwrap().to_object());
        let mut newer = a.get("/lsa/3").unwrap().to_object();
        newer.version += 1;
        newer.origin = 2;
        b.apply_remote(newer);
        let (send, behind) = a.delta_for("/lsa", "", "", &b.summary("/lsa"));
        let names: Vec<_> = send.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["/lsa/1"], "equal version skipped, newer-at-peer skipped");
        assert!(behind, "the summary proves the peer has a newer /lsa/3");
        // Range bounds restrict the exchange.
        let (send, behind) = a.delta_for("/lsa", "/lsa/2", "", &b.summary("/lsa"));
        assert!(send.is_empty() && behind);
        let (send, behind) = a.delta_for("/lsa", "", "/lsa/2", &b.summary("/lsa"));
        assert_eq!(send.len(), 1);
        assert!(!behind, "peer's newer /lsa/3 is outside [., /lsa/2)");
        // An empty summary (fresh joiner) pulls the whole subtree.
        let (send, behind) = a.delta_for("/lsa", "", "", &[]);
        assert_eq!(send.len(), 3);
        assert!(!behind);
    }

    /// The watch hook fires on every path into the store — local
    /// writes, remote applies (silent or not), and deletions — and only
    /// for matching prefixes.
    #[test]
    fn watch_prefix_sees_every_store_path() {
        let mut a = Rib::new(1);
        a.watch_prefix("/lsa/");
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        a.write_local("/dir/app", "dir", Bytes::from_static(b"7"));
        let remote = RibObject {
            name: "/lsa/9".into(),
            class: "lsa".into(),
            value: Bytes::from_static(b"y"),
            version: 3,
            origin: 9,
            deleted: false,
        };
        assert!(a.apply_remote_silent(remote.clone()));
        assert!(!a.apply_remote_silent(remote), "stale apply must not re-notify");
        a.delete_local("/lsa/1");
        let seen: Vec<(String, bool)> =
            std::iter::from_fn(|| a.poll_watch()).map(|o| (o.name, o.deleted)).collect();
        assert_eq!(
            seen,
            vec![
                ("/lsa/1".to_string(), false),
                ("/lsa/9".to_string(), false),
                ("/lsa/1".to_string(), true),
            ],
            "application order, deletions included, /dir ignored"
        );
    }

    /// A local-scope subtree leaves the replication surface: no digest
    /// advertisement, no snapshot copy, no delta serving, no
    /// dissemination of live writes — but tombstones still flood.
    #[test]
    fn local_subtree_leaves_the_replication_surface() {
        let mut a = Rib::new(1);
        a.set_local_subtree("/dir");
        assert!(a.is_local_subtree("/dir"));
        assert!(!a.is_local_subtree("/lsa"));
        a.write_local("/dir/echo", "dir", Bytes::from_static(b"\x01"));
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        // Only the /lsa write disseminates.
        let out: Vec<RibObject> = std::iter::from_fn(|| a.poll_dissemination()).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "/lsa/1");
        // The owner still reads its own entry; events still fire.
        assert!(a.get("/dir/echo").is_some());
        assert_eq!(drain_events(&mut a).len(), 2);
        // Digest table, snapshot, summary, delta all exclude /dir.
        let table = a.digest_table();
        let subs: Vec<&str> = table.entries().iter().map(|e| e.0.as_str()).collect();
        assert_eq!(subs, vec!["/lsa"]);
        assert!(a.snapshot().iter().all(|o| !o.name.starts_with("/dir")));
        assert!(a.summary("/dir").is_empty());
        assert_eq!(a.delta_for("/dir", "", "", &[]), (vec![], false));
        // Tombstones still flood — remote caches must hear deletions.
        a.delete_local("/dir/echo");
        let tomb = a.poll_dissemination().expect("tombstone disseminates");
        assert!(tomb.deleted && tomb.name == "/dir/echo");
        assert!(a.poll_dissemination().is_none());
    }

    /// Two RIBs that agree on every replicated subtree compare in sync
    /// even when their owner-held /dir contents differ completely.
    #[test]
    fn scoped_ribs_compare_in_sync_despite_divergent_dir() {
        let mut a = Rib::new(1);
        let mut b = Rib::new(2);
        for r in [&mut a, &mut b] {
            r.set_local_subtree("/dir");
        }
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        a.write_local("/dir/app-a", "dir", Bytes::from_static(b"\x01"));
        b.write_local("/dir/app-b", "dir", Bytes::from_static(b"\x02"));
        while let Some(o) = a.poll_dissemination() {
            b.apply_remote(o);
        }
        assert!(a.digest_table().mismatched(&b.digest_table()).is_empty());
    }

    /// Satellite fix: a watcher registered for a prefix that later
    /// becomes non-replicated is torn down — it must not fire on
    /// entries that are now owner-held/cache-only.
    #[test]
    fn watcher_torn_down_when_prefix_becomes_local_scope() {
        let mut a = Rib::new(1);
        a.watch_prefix("/dir/");
        a.watch_prefix("/lsa/");
        a.write_local("/dir/early", "dir", Bytes::from_static(b"\x01"));
        // The queued /dir change and the watcher itself both go.
        a.set_local_subtree("/dir");
        a.write_local("/dir/late", "dir", Bytes::from_static(b"\x02"));
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        let seen: Vec<String> = std::iter::from_fn(|| a.poll_watch()).map(|o| o.name).collect();
        assert_eq!(seen, vec!["/lsa/1".to_string()], "no /dir change fires, queued or new");
        // Re-registering after the scope change is also inert for /dir.
        a.watch_prefix("/lsa/");
        a.unwatch_prefix("/lsa/");
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"y"));
        assert!(a.poll_watch().is_none(), "unwatch stops deliveries");
    }

    /// `unwatch_prefix` drops only the torn-down watcher's queued
    /// changes — entries still covered by another watcher survive.
    #[test]
    fn unwatch_keeps_changes_of_other_watchers() {
        let mut a = Rib::new(1);
        a.watch_prefix("/lsa/");
        a.watch_prefix("/blocks/");
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        a.write_local("/blocks/1", "block", Bytes::from_static(b"b"));
        a.unwatch_prefix("/lsa/");
        let seen: Vec<String> = std::iter::from_fn(|| a.poll_watch()).map(|o| o.name).collect();
        assert_eq!(seen, vec!["/blocks/1".to_string()]);
    }

    /// Regression: with a linear fingerprint, the digest *difference* of
    /// a version bump was name-independent, so two objects each one
    /// version stale canceled in the XOR aggregate and two diverged RIBs
    /// compared equal — anti-entropy then never repaired them.
    #[test]
    fn correlated_version_skew_does_not_cancel_in_the_digest() {
        let mut a = Rib::new(1);
        a.write_local("/lsa/13", "lsa", Bytes::from_static(b"1"));
        a.write_local("/lsa/14", "lsa", Bytes::from_static(b"1"));
        let mut b = Rib::new(2);
        while let Some(o) = a.poll_dissemination() {
            b.apply_remote(o);
        }
        // a advances both objects by exactly one version; b hears neither.
        a.write_local("/lsa/13", "lsa", Bytes::from_static(b"22"));
        a.write_local("/lsa/14", "lsa", Bytes::from_static(b"22"));
        assert_ne!(a.digest(), b.digest(), "equal-count divergence must be visible");
        assert_eq!(a.digest_table().mismatched(&b.digest_table()), vec!["/lsa".to_string()]);
    }

    #[test]
    fn digest_table_roundtrips_on_the_wire() {
        let mut a = Rib::new(1);
        a.write_local("/dir/x", "dir", Bytes::from_static(b"1"));
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"2"));
        a.delete_local("/dir/x");
        let t = a.digest_table();
        let mut w = Writer::new();
        t.encode_into(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(DigestTable::decode_from(&mut r).unwrap(), t);
        assert!(r.expect_end().is_ok());
    }

    /// Run digest-driven delta sync between `a` (authoritative) and `b`
    /// until their tables agree, counting objects moved. Mirrors the
    /// ipcp exchange: per mismatched subtree, `b` summarizes, `a`
    /// answers with missing/newer objects.
    fn delta_sync(a: &mut Rib, b: &mut Rib) -> usize {
        let mut moved = 0;
        for _ in 0..64 {
            let mm = a.digest_table().mismatched(&b.digest_table());
            if mm.is_empty() {
                return moved;
            }
            for st in mm {
                let (objs, _) = a.delta_for(&st, "", "", &b.summary(&st));
                for o in objs {
                    moved += 1;
                    b.apply_remote(o);
                }
            }
        }
        panic!("delta sync did not converge");
    }

    #[test]
    fn class_table_never_outgrows_the_objects() {
        let mut rib = Rib::new(1);
        rib.write_local("/x/a", "shared", Bytes::new());
        for i in 0..1000 {
            rib.write_local("/x/b", &format!("fresh-{i}"), Bytes::new());
            assert_eq!(rib.classes.by_name.len(), 2);
        }
        assert!(rib.classes.names.len() <= 3, "{} class slots", rib.classes.names.len());
        assert_eq!(rib.get("/x/a").unwrap().class, "shared");
        assert_eq!(rib.get("/x/b").unwrap().class, "fresh-999");
        // Tombstones keep their class; a remote version may change it.
        rib.delete_local("/x/a");
        let tomb = rib.iter_all().find(|o| o.name == "/x/a").unwrap().to_object();
        assert_eq!(tomb.class, "shared");
        let obj = RibObject { class: "fresh-999".into(), version: tomb.version + 1, ..tomb };
        assert!(rib.apply_remote_silent(obj));
        assert_eq!(rib.classes.by_name.len(), 1);
        assert_eq!(rib.iter_all().find(|o| o.name == "/x/a").unwrap().class, "fresh-999");
    }

    #[test]
    fn freed_class_ids_are_reused_without_aliasing() {
        let mut rib = Rib::new(1);
        rib.write_local("/x/a", "x", Bytes::new());
        rib.write_local("/x/b", "x", Bytes::new());
        rib.write_local("/x/a", "y", Bytes::new());
        rib.write_local("/x/b", "z", Bytes::new()); // frees "x"
        rib.write_local("/x/a", "w", Bytes::new()); // takes its id, frees "y"
        rib.write_local("/x/c", "v", Bytes::new()); // takes "y"'s id
        let classes: Vec<_> = rib.iter_all().map(|o| (o.name, o.class)).collect();
        assert_eq!(classes, [("/x/a", "w"), ("/x/b", "z"), ("/x/c", "v")]);
        assert_eq!(rib.classes.names.len(), 3);
        assert!(rib.classes.free.is_empty());
    }

    #[test]
    fn stored_views_are_canonical() {
        let mut rib = Rib::new(300);
        rib.write_local("/dir/\u{e9}t\u{e9}", "dir", Bytes::from_static(&[7; 40]));
        let v = rib.get("/dir/\u{e9}t\u{e9}").unwrap();
        assert!(v.is_canonical());
        assert_eq!(
            RibObjectView::decode(&v.encode()).unwrap(),
            RibObjectView { wire_len: Some(v.canonical_len()), ..v }
        );
    }

    #[test]
    fn view_of_encoder_output_is_canonical() {
        let o = RibObject {
            name: "/lsa/300".into(),
            class: "lsa".into(),
            value: Bytes::from(vec![7u8; 200]),
            version: 1 << 40,
            origin: 300,
            deleted: false,
        };
        let enc = o.encode();
        let v = RibObjectView::decode(&enc).unwrap();
        assert!(v.is_canonical());
        assert_eq!(v.to_object(), o);
    }

    /// The reader accepts padded varints, in a length prefix or a
    /// number: such an encoding still peeks, but it is not the
    /// encoder's, so it must never be forwarded as received.
    #[test]
    fn padded_encodings_peek_but_are_not_canonical() {
        let o = RibObject {
            name: "/lsa/9".into(),
            class: "lsa".into(),
            value: Bytes::from_static(b"\x01\x02"),
            version: 5,
            origin: 9,
            deleted: false,
        };
        let padded_version = {
            let mut w = Writer::new();
            w.string(&o.name).string(&o.class).bytes(&o.value);
            w.raw(&[0x85, 0x00]).varint(o.origin).boolean(o.deleted);
            w.finish()
        };
        let padded_name_len = {
            let mut w = Writer::new();
            w.raw(&[0x80 | o.name.len() as u8, 0x00]).raw(o.name.as_bytes());
            w.string(&o.class).bytes(&o.value).varint(o.version).varint(o.origin);
            w.boolean(o.deleted);
            w.finish()
        };
        for enc in [padded_version, padded_name_len] {
            let v = RibObjectView::decode(&enc).unwrap();
            assert_eq!(v.to_object(), o);
            assert!(!v.is_canonical(), "{:?}", enc.as_ref());
            assert_ne!(enc.as_ref(), o.encode().as_ref());
        }
    }

    #[test]
    fn view_apply_updates_in_place_and_skips_stale() {
        let mut r = Rib::new(1);
        r.watch_prefix("/lsa/");
        let o = |version: u64, class: &str, value: &'static [u8]| RibObject {
            name: "/lsa/9".into(),
            class: class.into(),
            value: Bytes::from_static(value),
            version,
            origin: 9,
            deleted: false,
        };
        for (obj, fresh) in [
            (o(2, "lsa", b"a"), true),
            (o(2, "lsa", b"b"), false),
            (o(1, "lsa", b"c"), false),
            (o(3, "other", b"d"), true),
        ] {
            let enc = obj.encode();
            assert_eq!(r.apply_remote_view(&RibObjectView::decode(&enc).unwrap()), fresh);
        }
        assert_eq!(r.get("/lsa/9").map(|v| v.to_object()), Some(o(3, "other", b"d")));
        assert_eq!(r.object_count(), 1);
        let seen: Vec<u64> = std::iter::from_fn(|| r.poll_watch()).map(|o| o.version).collect();
        assert_eq!(seen, vec![2, 3], "stale versions never reach the watch queue");
    }

    /// From-scratch `(digest, table, count)` over `iter_all`.
    fn recompute(r: &Rib) -> (u64, DigestTable, usize) {
        let mut digest = 0;
        let mut per: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for o in r.iter_all() {
            let f = fingerprint(name_hash(o.name), o.version, o.origin, o.deleted);
            digest ^= f;
            let e = per.entry(subtree_of(o.name)).or_default();
            e.0 += 1;
            e.1 ^= f;
        }
        let table = DigestTable::from_entries(
            per.into_iter()
                .filter(|(s, _)| !r.is_local_subtree(s))
                .map(|(s, (c, d))| (s.to_string(), c, d))
                .collect(),
        );
        (digest, table, r.iter_all().count())
    }

    /// [`Rib::delta_for`] from its definition, by scanning every stored
    /// object (where the summary names one object twice, its last entry
    /// counts).
    fn delta_by_definition(
        rib: &Rib,
        subtree: &str,
        from: &str,
        upto: &str,
        summary: &[ObjVer],
    ) -> (Vec<RibObject>, bool) {
        let theirs = |name: &str| {
            summary.iter().rev().find(|v| v.name == name).map(|v| (v.version, v.origin))
        };
        let send = rib
            .iter_all()
            .filter(|o| subtree_of(o.name) == subtree && in_range(o.name, from, upto))
            .filter(|o| theirs(o.name).is_none_or(|t| t < (o.version, o.origin)))
            .map(|o| o.to_object())
            .collect();
        let behind = summary.iter().filter(|v| in_range(&v.name, from, upto)).any(|v| {
            rib.iter_all()
                .find(|o| o.name == v.name)
                .is_none_or(|o| (v.version, v.origin) > (o.version, o.origin))
        });
        (send, behind)
    }

    /// Names around the `/lsa` subtree's edges: the subtree root, names
    /// sorting just before and after its members, other subtrees.
    const EDGE_NAMES: [&str; 12] = [
        "/lsa",
        "/lsa/1",
        "/lsa/10",
        "/lsa/2",
        "/lsa/3",
        "/lsa/4/x",
        "/lsa-x",
        "/lsab/1",
        "/dir/a",
        "/blocks/1",
        "/m",
        "",
    ];

    proptest! {
        /// The borrowed decode never panics, agrees with the owned one
        /// and is canonical exactly when re-encoding reproduces the bytes:
        /// on random bytes, on truncated encoder output, and on encoder
        /// output with one byte changed.
        #[test]
        fn prop_view_peek_agrees_with_decode(
            noise in proptest::collection::vec(any::<u8>(), 0..48),
            name in "[a-z/]{0,12}",
            value in proptest::collection::vec(any::<u8>(), 0..16),
            version in any::<u64>(),
            deleted in any::<bool>(),
            cut in any::<usize>(),
            flip_at in any::<usize>(),
            flip_to in any::<u8>(),
        ) {
            let o = RibObject {
                name, class: "c".into(), value: Bytes::from(value), version, origin: 3, deleted,
            };
            let enc = o.encode().to_vec();
            let truncated = enc[..cut % (enc.len() + 1)].to_vec();
            let mut flipped = enc.clone();
            let i = flip_at % flipped.len();
            flipped[i] = flip_to;
            for buf in [noise, enc, truncated, flipped] {
                let peeked = RibObjectView::decode(&buf);
                prop_assert_eq!(peeked.map(|v| v.to_object()), RibObject::decode(&buf));
                if let Ok(v) = peeked {
                    // Canonical exactly when re-encoding reproduces the bytes.
                    prop_assert_eq!(v.is_canonical(), v.to_object().encode().as_ref() == &buf[..]);
                }
            }
        }

        /// The merge walk and the map path answer every summary alike:
        /// sorted, with duplicates, shuffled, with names outside the
        /// subtree, under any chunk bounds.
        #[test]
        fn prop_delta_merge_equals_map(seed in any::<u64>()) {
            use rand::seq::SliceRandom;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let pick = |rng: &mut rand::rngs::SmallRng| EDGE_NAMES[rng.gen_range(0..EDGE_NAMES.len())];
            let mut rib = Rib::new(1);
            for _ in 0..rng.gen_range(0..16usize) {
                let o = RibObject {
                    name: pick(&mut rng).into(),
                    class: "c".into(),
                    value: Bytes::new(),
                    version: rng.gen_range(1..4u64),
                    origin: rng.gen_range(1..4u64),
                    deleted: rng.gen_range(0..4u32) == 0,
                };
                rib.apply_remote(o);
            }
            let mut summary: Vec<ObjVer> = (0..rng.gen_range(0..12usize))
                .map(|_| ObjVer {
                    name: pick(&mut rng).into(),
                    version: rng.gen_range(0..5u64),
                    origin: rng.gen_range(0..5u64),
                })
                .collect();
            let subtree = ["/lsa", "/lsa", "/dir", "/m"][rng.gen_range(0..4usize)];
            let from = if rng.gen_range(0..2u32) == 0 { "" } else { pick(&mut rng) };
            let upto = if rng.gen_range(0..2u32) == 0 { "" } else { pick(&mut rng) };
            let map = |s: &[ObjVer]| rib.delta_by_map(subtree, from, upto, s);
            // Shuffled (usually unsorted, often with duplicates).
            summary.shuffle(&mut rng);
            prop_assert_eq!(map(&summary), delta_by_definition(&rib, subtree, from, upto, &summary));
            prop_assert_eq!(rib.delta_for(subtree, from, upto, &summary), map(&summary));
            // Sorted with duplicates kept.
            summary.sort_by(|a, b| a.name.cmp(&b.name));
            prop_assert_eq!(map(&summary), delta_by_definition(&rib, subtree, from, upto, &summary));
            prop_assert_eq!(rib.delta_for(subtree, from, upto, &summary), map(&summary));
            // Strictly sorted: the merge walk itself.
            summary.dedup_by(|a, b| a.name == b.name);
            prop_assert_eq!(map(&summary), delta_by_definition(&rib, subtree, from, upto, &summary));
            prop_assert_eq!(rib.delta_merge(subtree, from, upto, &summary), map(&summary));
            prop_assert_eq!(rib.delta_for(subtree, from, upto, &summary), map(&summary));
        }

        /// Every path into the store keeps the incremental digests equal
        /// to a from-scratch recomputation, the watch queue equal to the
        /// stored versions under watched prefixes in application order,
        /// and the view-based apply equal to the owned one.
        #[test]
        fn prop_store_paths_keep_digests_and_watch_exact(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let names = ["/lsa/1", "/lsa/2", "/blocks/1", "/dir/a", "/dir/b", "/m"];
            let watched = ["/lsa/", "/blocks/"];
            let (mut a, mut b) = (Rib::new(2), Rib::new(2));
            for p in watched {
                a.watch_prefix(p);
            }
            let mut expect_watch = Vec::new();
            for _ in 0..48 {
                let name = names[rng.gen_range(0..names.len())];
                let remote = RibObject {
                    name: name.into(),
                    class: ["c", "lsa"][rng.gen_range(0..2usize)].into(),
                    value: Bytes::from(vec![rng.gen_range(0..=255u8); rng.gen_range(0..3usize)]),
                    version: rng.gen_range(1..8u64),
                    origin: rng.gen_range(1..4u64),
                    deleted: rng.gen_range(0..4u32) == 0,
                };
                let stored = match rng.gen_range(0..5u32) {
                    0 => {
                        a.write_local(name, "c", remote.value.clone());
                        b.write_local(name, "c", remote.value.clone());
                        true
                    }
                    1 => {
                        let live = a.get(name).is_some();
                        a.delete_local(name);
                        b.delete_local(name);
                        live
                    }
                    k => {
                        let enc = remote.encode();
                        let fresh = match k {
                            2 => a.apply_remote(remote.clone()),
                            3 => a.apply_remote_silent(remote.clone()),
                            _ => a.apply_remote_view(&RibObjectView::decode(&enc).unwrap()),
                        };
                        prop_assert_eq!(fresh, b.apply_remote_silent(remote));
                        fresh
                    }
                };
                if stored && watched.iter().any(|p| name.starts_with(p)) {
                    let stored = a.iter_all().find(|o| o.name == name).unwrap();
                    expect_watch.push(stored.to_object());
                }
                let (digest, table, count) = recompute(&a);
                prop_assert_eq!(a.digest(), digest);
                prop_assert_eq!(a.digest_table(), table);
                prop_assert_eq!(a.object_count(), count);
            }
            prop_assert!(a.iter_all().eq(b.iter_all()), "view and owned applies diverged");
            let seen: Vec<RibObject> = std::iter::from_fn(|| a.poll_watch()).collect();
            prop_assert_eq!(seen, expect_watch);
        }

        #[test]
        fn prop_object_roundtrip(
            name in "[a-z/]{0,24}",
            class in "[a-z]{0,8}",
            value in proptest::collection::vec(any::<u8>(), 0..64),
            version in any::<u64>(),
            origin in any::<u64>(),
            deleted in any::<bool>(),
        ) {
            let o = RibObject { name, class, value: Bytes::from(value), version, origin, deleted };
            prop_assert_eq!(RibObject::decode(&o.encode()).unwrap(), o);
        }

        #[test]
        fn prop_convergence_any_order(seed in any::<u64>()) {
            // Generate updates from 3 writers, apply to a reader in a
            // seed-shuffled order; final state must equal the max-version
            // object per name.
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut updates = vec![];
            for origin in 1u64..=3 {
                let mut w = Rib::new(origin);
                for v in 0..4 {
                    w.write_local("/obj", "c", Bytes::from(vec![origin as u8, v]));
                    while let Some(o) = w.poll_dissemination() { updates.push(o); }
                }
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            updates.shuffle(&mut rng);
            let mut r = Rib::new(9);
            for o in updates.clone() { r.apply_remote(o); }
            let winner = updates.iter().max_by_key(|o| (o.version, o.origin)).unwrap();
            prop_assert_eq!(r.get("/obj").unwrap().value, &winner.value[..]);
        }

        /// The tentpole invariant: syncing a diverged replica via
        /// digest-table + per-subtree deltas reaches a RIB byte-identical
        /// to one synced by a full snapshot resync — and moves only the
        /// objects that actually differed.
        #[test]
        fn prop_delta_sync_equals_full_resync(seed in any::<u64>()) {
            use rand::Rng;
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let subtrees = ["/dir/", "/lsa/", "/members/", "/blocks/"];
            // An authoritative RIB with random writes and deletes.
            let mut a = Rib::new(1);
            for _ in 0..40 {
                let name = format!(
                    "{}o{}",
                    subtrees[rng.gen_range(0..subtrees.len())],
                    rng.gen_range(0..12u32)
                );
                if rng.gen_range(0..5u32) == 0 {
                    a.delete_local(&name);
                } else {
                    a.write_local(&name, "c", Bytes::from(vec![rng.gen_range(0..=255u8) as u8]));
                }
            }
            let updates: Vec<RibObject> =
                std::iter::from_fn(|| a.poll_dissemination()).collect();
            // A replica that saw a random subset of the updates.
            let mut behind = Rib::new(2);
            let mut missed = 0usize;
            for o in &updates {
                if rng.gen_range(0..3u32) > 0 {
                    behind.apply_remote(o.clone());
                } else {
                    missed += 1;
                }
            }
            let mut full = Rib::new(3);
            for o in behind.snapshot() {
                full.apply_remote(o);
            }
            // Arm one: full snapshot resync (the pre-digest behavior).
            for o in a.snapshot() {
                full.apply_remote(o);
            }
            // Arm two: digest-driven per-subtree delta sync.
            let moved = delta_sync(&mut a, &mut behind);
            prop_assert_eq!(behind.snapshot(), full.snapshot(), "delta ≠ full resync");
            prop_assert_eq!(
                (behind.object_count(), behind.digest()),
                (a.object_count(), a.digest())
            );
            // O(missing), not O(RIB): only stale/absent versions moved.
            prop_assert!(moved <= missed, "moved {} > missed {}", moved, missed);
        }
    }
}
