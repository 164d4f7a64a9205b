//! W1 fixture: the RIB receive path. `RibObjectView::peek` (a borrowed,
//! read-only walk on a `*View` type, pinned to `RibObject::decode` by
//! proptest) is a sanctioned peek; `RibObject::peek`, the same walk on
//! the owned type, is flagged. `RibObject`'s paired encode/decode stays
//! clean.

pub struct RibObject {
    pub name: String,
    pub version: u64,
    pub deleted: bool,
}

impl RibObject {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.string(&self.name).varint(self.version).boolean(self.deleted);
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let name = r.string()?.to_string();
        let version = r.varint()?;
        let deleted = r.boolean()?;
        r.expect_end()?;
        Ok(RibObject { name, version, deleted })
    }

    pub fn peek(buf: &[u8]) -> Result<u64, WireError> {
        let mut r = Reader::new(buf);
        r.string()?;
        r.varint()
    }
}

pub struct RibObjectView<'a> {
    pub name: &'a str,
    pub version: u64,
    pub deleted: bool,
    wire_len: usize,
}

impl<'a> RibObjectView<'a> {
    pub fn peek(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let name = r.string()?;
        let version = r.varint()?;
        let deleted = r.boolean()?;
        r.expect_end()?;
        Ok(RibObjectView { name, version, deleted, wire_len: buf.len() })
    }
}
