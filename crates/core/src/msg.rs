//! Typed layer-management messages, carried as CDAP over management PDUs.
//!
//! Everything the paper's *IPC Management* task says to a peer is one of
//! these: neighbor hellos, enrollment (§5.2), flow allocation (§5.3), and
//! RIEP object dissemination. [`MgmtBody`] gives each a typed form and maps
//! it onto the generic CDAP envelope from `rina-wire`.

use crate::naming::AppName;
use crate::qos::QosSpec;
use bytes::Bytes;
use rina_rib::{DigestTable, ObjVer, RibObject, RibObjectView};
use rina_wire::codec::{Reader, Writer};
use rina_wire::{Addr, CdapMsg, CepId, OpCode, WireError};
use std::ops::Range;

/// Object class names used on the wire.
mod class {
    pub const HELLO: &str = "hello";
    pub const ENROLL: &str = "enrollment";
    pub const FLOW: &str = "flow";
    pub const RIB: &str = "rib-object";
    pub const RIB_SYNC: &str = "rib-sync";
    pub const DIR: &str = "dir-lookup";
}

/// A typed management message body.
#[derive(Clone, Debug, PartialEq)]
pub enum MgmtBody {
    /// Periodic link-local announcement over an (N-1) port: who is on the
    /// other side. Also serves as keepalive, and carries the sender's
    /// per-subtree RIB [`DigestTable`] for anti-entropy: a neighbor whose
    /// table differs from ours missed an update (RIEP dissemination is
    /// unreliable) and the mismatched *subtrees* — not the whole RIB —
    /// get a targeted [`MgmtBody::RibDeltaRequest`] exchange.
    Hello {
        /// Sender's IPC-process application name.
        name: AppName,
        /// Sender's DIF-internal address (0 if not yet enrolled).
        addr: Addr,
        /// Per-subtree `(object_count, digest)` summary of the sender's
        /// RIB (tombstones included).
        digests: DigestTable,
    },
    /// Request to join the DIF (sent to a member over an (N-1) flow).
    EnrollRequest {
        /// Joiner's IPC-process application name.
        name: AppName,
        /// Credential for the DIF's [`crate::dif::AuthPolicy`].
        credential: String,
        /// Address the joiner proposes (0 = sponsor chooses). Statically
        /// planned networks propose to avoid races between concurrent
        /// sponsors; the sponsor still verifies uniqueness.
        proposed_addr: Addr,
        /// Address block `[lo, hi]` the joiner proposes to sponsor its own
        /// subtree from ((0, 0) = none; the planner derives blocks from
        /// spanning-subtree sizes so sibling blocks never overlap).
        proposed_block: (Addr, Addr),
        /// The joiner's RIB digest table. Empty for a fresh joiner; a
        /// retrying or re-enrolling joiner advertises what it already
        /// holds, and the sponsor syncs only the mismatched subtrees —
        /// O(missing) instead of O(RIB).
        digests: DigestTable,
    },
    /// Enrollment outcome. On success carries the assigned address and a
    /// full RIB synchronization set.
    EnrollResponse {
        /// Address assigned to the joiner (0 on failure).
        addr: Addr,
        /// Address block delegated to the joiner for sub-sponsorship
        /// ((0, 0) = singleton: just `addr`).
        block: (Addr, Addr),
        /// When the sponsor's admission window was full
        /// ([`crate::ipcp::R_ENROLL_BUSY`]), how soon the joiner should
        /// retry, in milliseconds (0 otherwise).
        retry_after_ms: u32,
        /// RIB snapshot to initialize the joiner.
        snapshot: Vec<RibObject>,
    },
    /// Ask the member hosting the destination application to create a flow
    /// (the request "continues to the identified IPC process to ensure that
    /// the application is really there and that the requester has access to
    /// it", §5.3).
    FlowRequest {
        /// Requesting application.
        src_app: AppName,
        /// Destination application.
        dst_app: AppName,
        /// Requested properties.
        spec: QosSpec,
        /// Requester's member address.
        src_addr: Addr,
        /// Requester's connection endpoint.
        src_cep: CepId,
    },
    /// Flow allocation outcome.
    FlowResponse {
        /// Responder's connection endpoint (0 on failure).
        dst_cep: CepId,
        /// QoS cube the flow was bound to.
        qos_id: u8,
    },
    /// Tear down a flow by its destination endpoint.
    FlowTeardown {
        /// The endpoint at the receiver of this message.
        cep: CepId,
    },
    /// RIEP dissemination of one RIB object version. Kept as accepted
    /// protocol surface (decode + apply) for single-object updates;
    /// the send paths now batch objects into
    /// [`MgmtBody::RibDeltaResponse`] PDUs instead.
    RibUpdate(RibObject),
    /// Anti-entropy pull: "here is the version summary of my `subtree`
    /// for names in `[from, upto)`; send me whatever I lack or hold
    /// older". Big subtrees are requested in several name-range chunks so
    /// each request fits one (N-1) MTU.
    RibDeltaRequest {
        /// Subtree being synchronized (a [`rina_rib::subtree_of`] value).
        subtree: String,
        /// Lower name bound of this chunk, inclusive (empty = start).
        from: String,
        /// Upper name bound of this chunk, exclusive (empty = end).
        upto: String,
        /// The requester's `(name, version, origin)` triples in range.
        summary: Vec<ObjVer>,
    },
    /// A batch of RIB objects (full values), under the MTU: the answer
    /// to a [`MgmtBody::RibDeltaRequest`], an enrollment sync stream, or
    /// an ordinary flood burst (flooding is batch-preserving — objects
    /// applied in one pass re-flood as one batch per port). Each object
    /// is version-guarded at the receiver, so batches are idempotent
    /// like any RIEP update.
    RibDeltaResponse {
        /// Subtree being synchronized (empty for mixed flood batches).
        subtree: String,
        /// Missing/newer objects for the requested range.
        objects: Vec<RibObject>,
    },
    /// On-demand resolution of an **owner-held** directory entry (one whose
    /// subtree has local replication scope, so it is not in every member's
    /// RIB). Forwarded along spanning-tree ports until it reaches the member
    /// authoritative for `name`; the tree is acyclic, so forwarding needs no
    /// duplicate-suppression state.
    DirLookupRequest {
        /// Full RIB name being resolved (e.g. `/dir/echo.h3`).
        name: String,
        /// Requester's member address — the authoritative owner unicasts
        /// its [`MgmtBody::DirLookupResponse`] back to this address.
        origin: Addr,
        /// Requester-chosen correlation id, echoed in the response.
        lookup_id: u64,
    },
    /// Authoritative answer to a [`MgmtBody::DirLookupRequest`], sent by
    /// the entry's owner straight to the requester. Carries the entry's
    /// version so stale answers in flight lose to newer tombstones.
    DirLookupResponse {
        /// The RIB name that was resolved.
        name: String,
        /// Member address the entry maps to (0 = the owner holds no such
        /// live entry — a negative answer).
        addr: Addr,
        /// Version of the entry at the owner (0 on negative answers).
        version: u64,
        /// Correlation id copied from the request.
        lookup_id: u64,
    },
}

impl MgmtBody {
    /// Wrap into a CDAP message with the given invoke id and result code.
    pub fn into_cdap(self, invoke_id: u32, result: i32) -> CdapMsg {
        let (op, cls, name, value) = match self {
            MgmtBody::Hello { name, addr, digests } => {
                let mut w = Writer::new();
                w.string(&name.key()).varint(addr);
                digests.encode_into(&mut w);
                (OpCode::Write, class::HELLO, "/neighbors/self".to_string(), w.finish())
            }
            MgmtBody::EnrollRequest {
                name,
                credential,
                proposed_addr,
                proposed_block,
                digests,
            } => {
                let mut w = Writer::new();
                w.string(&name.key()).string(&credential).varint(proposed_addr);
                w.varint(proposed_block.0).varint(proposed_block.1);
                digests.encode_into(&mut w);
                (OpCode::Connect, class::ENROLL, "/enrollment".to_string(), w.finish())
            }
            MgmtBody::EnrollResponse { addr, block, retry_after_ms, snapshot } => {
                let mut w = Writer::new();
                w.varint(addr).varint(block.0).varint(block.1).varint(retry_after_ms as u64);
                w.varint(snapshot.len() as u64);
                for o in &snapshot {
                    w.bytes(&o.encode());
                }
                (OpCode::ConnectR, class::ENROLL, "/enrollment".to_string(), w.finish())
            }
            MgmtBody::FlowRequest { src_app, dst_app, spec, src_addr, src_cep } => {
                let mut w = Writer::new();
                w.string(&src_app.key()).string(&dst_app.key());
                spec.encode_into(&mut w);
                w.varint(src_addr).varint(src_cep as u64);
                (OpCode::Create, class::FLOW, format!("/flows/{}", dst_app.key()), w.finish())
            }
            MgmtBody::FlowResponse { dst_cep, qos_id } => {
                let mut w = Writer::new();
                w.varint(dst_cep as u64).u8(qos_id);
                (OpCode::CreateR, class::FLOW, "/flows".to_string(), w.finish())
            }
            MgmtBody::FlowTeardown { cep } => {
                let mut w = Writer::new();
                w.varint(cep as u64);
                (OpCode::Delete, class::FLOW, "/flows".to_string(), w.finish())
            }
            MgmtBody::RibUpdate(obj) => {
                let name = obj.name.clone();
                (OpCode::Write, class::RIB, name, obj.encode())
            }
            MgmtBody::RibDeltaRequest { subtree, from, upto, summary } => {
                let mut w = Writer::new();
                w.string(&from).string(&upto).varint(summary.len() as u64);
                for v in &summary {
                    v.encode_into(&mut w);
                }
                (OpCode::Read, class::RIB_SYNC, subtree, w.finish())
            }
            MgmtBody::RibDeltaResponse { subtree, objects } => {
                let mut w = Writer::new();
                w.varint(objects.len() as u64);
                for o in &objects {
                    w.bytes(&o.encode());
                }
                (OpCode::ReadR, class::RIB_SYNC, subtree, w.finish())
            }
            MgmtBody::DirLookupRequest { name, origin, lookup_id } => {
                let mut w = Writer::new();
                w.varint(origin).varint(lookup_id);
                (OpCode::Read, class::DIR, name, w.finish())
            }
            MgmtBody::DirLookupResponse { name, addr, version, lookup_id } => {
                let mut w = Writer::new();
                w.varint(addr).varint(version).varint(lookup_id);
                (OpCode::ReadR, class::DIR, name, w.finish())
            }
        };
        CdapMsg { op, invoke_id, obj_class: cls.to_string(), obj_name: name, result, value }
    }

    /// Parse a CDAP message back into a typed body.
    pub fn from_cdap(m: &CdapMsg) -> Result<MgmtBody, WireError> {
        let mut r = Reader::new(&m.value);
        match (m.op, m.obj_class.as_str()) {
            (OpCode::Write, class::HELLO) => {
                let name = AppName::from_key(r.string()?);
                let addr = r.varint()?;
                let digests = DigestTable::decode_from(&mut r)?;
                r.expect_end()?;
                Ok(MgmtBody::Hello { name, addr, digests })
            }
            (OpCode::Connect, class::ENROLL) => {
                let name = AppName::from_key(r.string()?);
                let credential = r.string()?.to_string();
                let proposed_addr = r.varint()?;
                let proposed_block = (r.varint()?, r.varint()?);
                let digests = DigestTable::decode_from(&mut r)?;
                r.expect_end()?;
                Ok(MgmtBody::EnrollRequest {
                    name,
                    credential,
                    proposed_addr,
                    proposed_block,
                    digests,
                })
            }
            (OpCode::ConnectR, class::ENROLL) => {
                let addr = r.varint()?;
                let block = (r.varint()?, r.varint()?);
                let retry_after_ms =
                    u32::try_from(r.varint()?).map_err(|_| WireError::Invalid("retry_after_ms"))?;
                let n = r.varint()? as usize;
                let mut snapshot = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    snapshot.push(RibObject::decode(r.bytes()?)?);
                }
                r.expect_end()?;
                Ok(MgmtBody::EnrollResponse { addr, block, retry_after_ms, snapshot })
            }
            (OpCode::Create, class::FLOW) => {
                let src_app = AppName::from_key(r.string()?);
                let dst_app = AppName::from_key(r.string()?);
                let spec = QosSpec::decode_from(&mut r)?;
                let src_addr = r.varint()?;
                let src_cep = cep(r.varint()?)?;
                r.expect_end()?;
                Ok(MgmtBody::FlowRequest { src_app, dst_app, spec, src_addr, src_cep })
            }
            (OpCode::CreateR, class::FLOW) => {
                let dst_cep = cep(r.varint()?)?;
                let qos_id = r.u8()?;
                r.expect_end()?;
                Ok(MgmtBody::FlowResponse { dst_cep, qos_id })
            }
            (OpCode::Delete, class::FLOW) => {
                let c = cep(r.varint()?)?;
                r.expect_end()?;
                Ok(MgmtBody::FlowTeardown { cep: c })
            }
            (OpCode::Write, class::RIB) => Ok(MgmtBody::RibUpdate(RibObject::decode(&m.value)?)),
            (OpCode::Read, class::RIB_SYNC) => {
                let from = r.string()?.to_string();
                let upto = r.string()?.to_string();
                let n = r.varint()? as usize;
                let mut summary = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    summary.push(ObjVer::decode_from(&mut r)?);
                }
                r.expect_end()?;
                Ok(MgmtBody::RibDeltaRequest { subtree: m.obj_name.clone(), from, upto, summary })
            }
            (OpCode::ReadR, class::RIB_SYNC) => {
                let n = r.varint()? as usize;
                let mut objects = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    objects.push(RibObject::decode(r.bytes()?)?);
                }
                r.expect_end()?;
                Ok(MgmtBody::RibDeltaResponse { subtree: m.obj_name.clone(), objects })
            }
            (OpCode::Read, class::DIR) => {
                let origin = r.varint()?;
                let lookup_id = r.varint()?;
                r.expect_end()?;
                Ok(MgmtBody::DirLookupRequest { name: m.obj_name.clone(), origin, lookup_id })
            }
            (OpCode::ReadR, class::DIR) => {
                let addr = r.varint()?;
                let version = r.varint()?;
                let lookup_id = r.varint()?;
                r.expect_end()?;
                Ok(MgmtBody::DirLookupResponse {
                    name: m.obj_name.clone(),
                    addr,
                    version,
                    lookup_id,
                })
            }
            _ => Err(WireError::Invalid("mgmt op/class")),
        }
    }

    /// Encode straight to bytes (CDAP envelope included).
    pub fn encode(self, invoke_id: u32, result: i32) -> Bytes {
        self.into_cdap(invoke_id, result).encode()
    }

    /// Encode a [`MgmtBody::RibDeltaResponse`] directly from
    /// *pre-encoded* objects, byte-identical to the typed path. The
    /// flooding hot path encodes each object once and reuses the bytes
    /// across every port's batch instead of cloning whole `RibObject`s
    /// fan-out times.
    pub fn encode_delta_batch(subtree: &str, encoded: &[Bytes]) -> Bytes {
        let mut w = Writer::with_capacity(8 + encoded.iter().map(|e| e.len() + 4).sum::<usize>());
        w.varint(encoded.len() as u64);
        for e in encoded {
            w.bytes(e);
        }
        CdapMsg {
            op: OpCode::ReadR,
            invoke_id: 0,
            obj_class: class::RIB_SYNC.to_string(),
            obj_name: subtree.to_string(),
            result: 0,
            value: w.finish(),
        }
        .encode()
    }
}

/// Borrowed view of the object batch a received
/// [`MgmtBody::RibDeltaResponse`] carries, validated whole before
/// anything is applied: the receive path walks it in place instead of
/// decoding every object up front.
#[derive(Debug)]
pub(crate) struct RibBatchView<'a> {
    /// The CDAP value.
    value: &'a [u8],
    /// Offset of the first object's length prefix.
    start: usize,
    /// Number of objects.
    count: u64,
}

impl<'a> RibBatchView<'a> {
    /// The batch of `m` if it is a [`MgmtBody::RibDeltaResponse`]
    /// (`None` for any other message).
    pub(crate) fn of(m: &'a CdapMsg) -> Option<Result<Self, WireError>> {
        (m.op == OpCode::ReadR && m.obj_class == class::RIB_SYNC).then(|| Self::peek(&m.value))
    }

    /// Validate a batch value: every object must pass
    /// [`RibObjectView::peek`] and nothing may trail. Accepts exactly
    /// what [`MgmtBody::from_cdap`] accepts, so one malformed object
    /// rejects the whole batch.
    pub(crate) fn peek(value: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(value);
        let count = r.varint()?;
        let start = value.len() - r.remaining();
        for _ in 0..count {
            RibObjectView::peek(r.bytes()?)?;
        }
        r.expect_end()?;
        Ok(RibBatchView { value, start, count })
    }

    /// Byte ranges of the encoded objects within the value, in order.
    pub(crate) fn spans(&self) -> impl Iterator<Item = Range<usize>> + 'a {
        let (value, start) = (self.value, self.start);
        let mut r = Reader::new(value.get(start..).unwrap_or_default());
        (0..self.count).map_while(move |_| {
            let len = r.bytes().ok()?.len();
            let end = value.len() - r.remaining();
            Some(end - len..end)
        })
    }
}

fn cep(v: u64) -> Result<CepId, WireError> {
    CepId::try_from(v).map_err(|_| WireError::Invalid("cep id"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(body: MgmtBody) {
        let cd = body.clone().into_cdap(42, 0);
        let b = cd.encode();
        let back = CdapMsg::decode(&b).unwrap();
        assert_eq!(back.invoke_id, 42);
        assert_eq!(MgmtBody::from_cdap(&back).unwrap(), body);
    }

    fn table() -> DigestTable {
        DigestTable::from_entries(vec![
            ("/dir".into(), 3, 0xAB),
            ("/lsa".into(), 12, 0xDEAD_BEEF_CAFE_F00D),
        ])
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(MgmtBody::Hello { name: AppName::new("net.r1"), addr: 7, digests: table() });
        roundtrip(MgmtBody::Hello {
            name: AppName::with_instance("net", "2"),
            addr: 0,
            digests: DigestTable::default(),
        });
    }

    #[test]
    fn enroll_roundtrip() {
        roundtrip(MgmtBody::EnrollRequest {
            name: AppName::new("net.h1"),
            credential: "s3cret".into(),
            proposed_addr: 4,
            proposed_block: (4, 9),
            digests: table(),
        });
        roundtrip(MgmtBody::EnrollResponse {
            addr: 9,
            block: (9, 14),
            retry_after_ms: 0,
            snapshot: vec![RibObject {
                name: "/dir/a".into(),
                class: "dir".into(),
                value: Bytes::from_static(b"\x07"),
                version: 3,
                origin: 1,
                deleted: false,
            }],
        });
        roundtrip(MgmtBody::EnrollResponse {
            addr: 0,
            block: (0, 0),
            retry_after_ms: 0,
            snapshot: vec![],
        });
    }

    /// Regression pin for the wave-parallel enrollment fields: subtree
    /// prefix blocks on both directions and the admission-window backoff
    /// hint on busy responses must survive the codec byte-exactly.
    #[test]
    fn enroll_admission_and_prefix_fields_roundtrip() {
        // A dynamic joiner proposes nothing; blocks stay (0, 0) and the
        // digest table is empty (fresh RIB).
        roundtrip(MgmtBody::EnrollRequest {
            name: AppName::new("net.dyn"),
            credential: String::new(),
            proposed_addr: 0,
            proposed_block: (0, 0),
            digests: DigestTable::default(),
        });
        // A planned joiner proposes the block its subtree will occupy; a
        // retrying joiner also advertises what it already synced.
        roundtrip(MgmtBody::EnrollRequest {
            name: AppName::new("net.h9"),
            credential: "k".into(),
            proposed_addr: 17,
            proposed_block: (17, 40),
            digests: table(),
        });
        // Busy sponsor: no address, no block, an explicit backoff hint.
        roundtrip(MgmtBody::EnrollResponse {
            addr: 0,
            block: (0, 0),
            retry_after_ms: 120,
            snapshot: vec![],
        });
        // Large block bounds exercise multi-byte varints.
        roundtrip(MgmtBody::EnrollResponse {
            addr: 1 << 40,
            block: (1 << 40, (1 << 41) - 1),
            retry_after_ms: u32::MAX,
            snapshot: vec![],
        });
    }

    #[test]
    fn flow_roundtrip() {
        roundtrip(MgmtBody::FlowRequest {
            src_app: AppName::new("client"),
            dst_app: AppName::new("server"),
            spec: QosSpec::reliable(),
            src_addr: 3,
            src_cep: 11,
        });
        roundtrip(MgmtBody::FlowResponse { dst_cep: 12, qos_id: 1 });
        roundtrip(MgmtBody::FlowTeardown { cep: 12 });
    }

    #[test]
    fn rib_update_roundtrip() {
        roundtrip(MgmtBody::RibUpdate(RibObject {
            name: "/lsa/4".into(),
            class: "lsa".into(),
            value: Bytes::from_static(b"\x01\x02\x03"),
            version: 8,
            origin: 4,
            deleted: false,
        }));
    }

    /// Codec pins for the incremental-sync messages: subtree, name-range
    /// chunk bounds, version summaries, and batched objects must survive
    /// the wire byte-exactly.
    #[test]
    fn rib_delta_roundtrip() {
        roundtrip(MgmtBody::RibDeltaRequest {
            subtree: "/lsa".into(),
            from: String::new(),
            upto: String::new(),
            summary: vec![],
        });
        roundtrip(MgmtBody::RibDeltaRequest {
            subtree: "/dir".into(),
            from: "/dir/b".into(),
            upto: "/dir/k".into(),
            summary: vec![
                ObjVer { name: "/dir/b".into(), version: 3, origin: 9 },
                ObjVer { name: "/dir/c".into(), version: 1 << 40, origin: u64::MAX },
            ],
        });
        roundtrip(MgmtBody::RibDeltaResponse { subtree: "/lsa".into(), objects: vec![] });
        roundtrip(MgmtBody::RibDeltaResponse {
            subtree: "/members".into(),
            objects: vec![
                RibObject {
                    name: "/members/net.a".into(),
                    class: "member".into(),
                    value: Bytes::from_static(b"\x05"),
                    version: 2,
                    origin: 1,
                    deleted: false,
                },
                RibObject {
                    name: "/members/net.b".into(),
                    class: "member".into(),
                    value: Bytes::new(),
                    version: 7,
                    origin: 3,
                    deleted: true,
                },
            ],
        });
    }

    /// Codec pins for the on-demand directory resolution pair: the RIB
    /// name rides the CDAP `obj_name`, and the correlation id plus the
    /// owner's version (stale-response guard) must survive byte-exactly.
    #[test]
    fn dir_lookup_roundtrip() {
        roundtrip(MgmtBody::DirLookupRequest {
            name: "/dir/echo.h3".into(),
            origin: 7,
            lookup_id: 1,
        });
        // Multi-byte varints on every numeric field.
        roundtrip(MgmtBody::DirLookupRequest {
            name: "/dir/ping.h1.h2".into(),
            origin: 1 << 40,
            lookup_id: u64::MAX,
        });
        roundtrip(MgmtBody::DirLookupResponse {
            name: "/dir/echo.h3".into(),
            addr: 19,
            version: 4,
            lookup_id: 1,
        });
        // Negative answer: no live entry at the owner.
        roundtrip(MgmtBody::DirLookupResponse {
            name: "/dir/gone".into(),
            addr: 0,
            version: 0,
            lookup_id: 9,
        });
        roundtrip(MgmtBody::DirLookupResponse {
            name: "/dir/far".into(),
            addr: (1 << 41) - 1,
            version: 1 << 33,
            lookup_id: 1 << 50,
        });
    }

    /// The `dir-lookup` class must not shadow the `rib-sync` arms that
    /// share its opcodes: dispatch is on `(op, class)` pairs.
    #[test]
    fn dir_lookup_class_does_not_collide_with_rib_sync() {
        let req = MgmtBody::DirLookupRequest { name: "/dir/x".into(), origin: 2, lookup_id: 3 }
            .into_cdap(1, 0);
        assert_eq!(req.obj_class, class::DIR);
        let sync = MgmtBody::RibDeltaRequest {
            subtree: "/dir/x".into(),
            from: String::new(),
            upto: String::new(),
            summary: vec![],
        }
        .into_cdap(1, 0);
        assert_eq!(sync.obj_class, class::RIB_SYNC);
        assert_eq!(req.op, sync.op);
        assert!(matches!(MgmtBody::from_cdap(&req).unwrap(), MgmtBody::DirLookupRequest { .. }));
        assert!(matches!(MgmtBody::from_cdap(&sync).unwrap(), MgmtBody::RibDeltaRequest { .. }));
    }

    /// The pre-encoded fast path must be byte-identical to the typed
    /// encoder — a divergence would be an undecodable flood batch.
    #[test]
    fn delta_batch_fast_path_matches_typed_encoding() {
        let objs = vec![
            RibObject {
                name: "/lsa/3".into(),
                class: "lsa".into(),
                value: Bytes::from_static(b"\x01\x02"),
                version: 4,
                origin: 3,
                deleted: false,
            },
            RibObject {
                name: "/dir/echo".into(),
                class: "dir".into(),
                value: Bytes::new(),
                version: 1,
                origin: 9,
                deleted: true,
            },
        ];
        let encs: Vec<Bytes> = objs.iter().map(|o| o.encode()).collect();
        let fast = MgmtBody::encode_delta_batch("/lsa", &encs);
        let typed =
            MgmtBody::RibDeltaResponse { subtree: "/lsa".into(), objects: objs }.encode(0, 0);
        assert_eq!(fast, typed);
    }

    #[test]
    fn unknown_combination_rejected() {
        let m = CdapMsg::request(OpCode::Stop, 1, "bogus", "/x", Bytes::new());
        assert!(MgmtBody::from_cdap(&m).is_err());
    }

    proptest::proptest! {
        /// The batch peek accepts exactly the values the typed decoder
        /// accepts, and its spans are the same objects, in order: on
        /// encoder output, truncated, with one byte changed, and with
        /// an extra object tacked on unannounced.
        #[test]
        fn prop_batch_view_agrees_with_from_cdap(
            n in 0usize..4,
            cut in proptest::prelude::any::<usize>(),
            flip_at in proptest::prelude::any::<usize>(),
            flip_to in proptest::prelude::any::<u8>(),
        ) {
            let objs: Vec<RibObject> = (0..n as u64)
                .map(|i| RibObject {
                    name: format!("/lsa/{i}"),
                    class: "lsa".into(),
                    value: Bytes::from(vec![i as u8; i as usize]),
                    version: i + 1,
                    origin: i,
                    deleted: i == 2,
                })
                .collect();
            let encs: Vec<Bytes> = objs.iter().map(|o| o.encode()).collect();
            let good = CdapMsg::decode(&MgmtBody::encode_delta_batch("/lsa", &encs)).unwrap();
            let mut variants = vec![good.value.to_vec()];
            variants.push(good.value[..cut % (good.value.len() + 1)].to_vec());
            let mut flipped = good.value.to_vec();
            let i = flip_at % flipped.len();
            flipped[i] = flip_to;
            variants.push(flipped);
            let mut extra = good.value.to_vec();
            extra.extend_from_slice(&good.value);
            variants.push(extra);
            for value in variants {
                let m = CdapMsg { value: Bytes::from(value), ..good.clone() };
                let typed = MgmtBody::from_cdap(&m);
                let batch = RibBatchView::of(&m).expect("a delta response");
                proptest::prop_assert_eq!(batch.is_ok(), typed.is_ok());
                if let (Ok(batch), Ok(MgmtBody::RibDeltaResponse { objects, .. })) = (batch, typed) {
                    let viewed: Vec<RibObject> = batch
                        .spans()
                        .map(|r| RibObject::decode(&m.value[r]).unwrap())
                        .collect();
                    proptest::prop_assert_eq!(viewed, objects);
                }
            }
        }
    }

    #[test]
    fn batch_view_ignores_other_messages() {
        let hello = MgmtBody::Hello { name: AppName::new("a"), addr: 1, digests: table() };
        assert!(RibBatchView::of(&hello.into_cdap(0, 0)).is_none());
        let req = MgmtBody::RibDeltaRequest {
            subtree: "/lsa".into(),
            from: String::new(),
            upto: String::new(),
            summary: vec![],
        };
        assert!(RibBatchView::of(&req.into_cdap(0, 0)).is_none());
    }
}
