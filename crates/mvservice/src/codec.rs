//! Wire codecs: line-delimited JSON and length-prefixed binary frames.
//!
//! Both codecs carry the same [`protocol`](crate::protocol) payloads —
//! JSON values — and a connection picks one at connect time by its
//! first byte:
//!
//! - `{` (or any non-magic byte) ⇒ **line codec**: one JSON object per
//!   `\n`-terminated line, human-typeable, kept for debuggability;
//! - [`FRAME_MAGIC`] (`0xB1`, a UTF-8 continuation byte that can never
//!   start valid JSON text) ⇒ **frame codec**: `magic · u32-le payload
//!   length · payload`, where the payload is a compact tagged binary
//!   encoding of the same JSON value ([`encode_value`] /
//!   [`decode_value`]) — no text parsing or string escaping on the hot
//!   path.
//!
//! Either way a request/reply is one *frame*, and the shared size cap
//! [`MAX_FRAME`] bounds a line's byte length and a binary frame's
//! declared payload length alike. [`FrameBuf`] is the incremental
//! decoder both ends share: push raw socket bytes in, pull complete
//! payloads out, with partial frames surviving arbitrary read splits.

use crate::protocol::MAX_FRAME;
use serde_json::{Map, Value};

/// First byte of every binary frame. `0xB1` is a UTF-8 continuation
/// byte: it can never begin a JSON text, so sniffing is unambiguous.
pub const FRAME_MAGIC: u8 = 0xB1;

/// Bytes of frame header: magic + u32-le payload length.
pub const FRAME_HEADER: usize = 5;

/// Which codec a connection (or client) speaks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecKind {
    /// Newline-delimited JSON text.
    Line,
    /// Length-prefixed binary frames.
    Frame,
}

impl CodecKind {
    pub fn as_str(self) -> &'static str {
        match self {
            CodecKind::Line => "line",
            CodecKind::Frame => "binary",
        }
    }
}

impl std::str::FromStr for CodecKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "line" | "json" => Ok(CodecKind::Line),
            "binary" | "frame" => Ok(CodecKind::Frame),
            other => Err(format!("unknown codec `{other}` (expected line or binary)")),
        }
    }
}

/// Server-side accept policy: which codecs incoming connections may
/// negotiate (the default `Auto` sniffs per connection).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CodecAccept {
    /// First-byte sniff per connection: magic ⇒ frames, else lines.
    #[default]
    Auto,
    /// Line-JSON only; binary connections are refused.
    LineOnly,
    /// Binary frames only; line connections are refused.
    FrameOnly,
}

impl CodecAccept {
    pub fn as_str(self) -> &'static str {
        match self {
            CodecAccept::Auto => "auto",
            CodecAccept::LineOnly => "line",
            CodecAccept::FrameOnly => "binary",
        }
    }
}

impl std::str::FromStr for CodecAccept {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(CodecAccept::Auto),
            "line" | "json" => Ok(CodecAccept::LineOnly),
            "binary" | "frame" => Ok(CodecAccept::FrameOnly),
            other => Err(format!(
                "unknown codec policy `{other}` (expected auto, line or binary)"
            )),
        }
    }
}

/// One complete inbound frame, already split per codec.
#[derive(Clone, PartialEq, Debug)]
pub enum Payload {
    /// A line-codec frame: the line text, `\r\n`/`\n` stripped.
    Line(String),
    /// A binary-codec frame: the decoded payload value.
    Frame(Value),
}

/// Why a byte stream stopped decoding. After an error the [`FrameBuf`]
/// is poisoned — the transport replies (or not) and closes.
#[derive(Clone, PartialEq, Debug)]
pub enum FrameError {
    /// A line or declared frame payload exceeds [`MAX_FRAME`].
    Oversized { len: usize, kind: CodecKind },
    /// Mid-stream binary frame not starting with [`FRAME_MAGIC`].
    BadMagic(u8),
    /// Binary payload bytes that don't decode to a value.
    BadPayload(String),
    /// Line bytes that aren't UTF-8.
    BadUtf8,
    /// The sniffed codec is outside this endpoint's accept policy.
    Refused(CodecKind),
}

impl FrameError {
    /// The structured-error message shipped back on the wire. Both
    /// oversized variants say "exceeds", matching what the fuzzer and
    /// docs promise.
    pub fn message(&self) -> String {
        match self {
            FrameError::Oversized {
                len,
                kind: CodecKind::Line,
            } => format!("request line exceeds {MAX_FRAME} bytes (got {len})"),
            FrameError::Oversized { len, .. } => {
                format!("request frame exceeds {MAX_FRAME} bytes (declared {len})")
            }
            FrameError::BadMagic(b) => {
                format!("expected frame magic 0x{FRAME_MAGIC:02x}, got 0x{b:02x}")
            }
            FrameError::BadPayload(e) => format!("invalid binary request payload: {e}"),
            FrameError::BadUtf8 => "request line is not valid UTF-8".to_string(),
            FrameError::Refused(got) => {
                format!("this endpoint does not accept the {} codec", got.as_str())
            }
        }
    }
}

/// Incremental dual-codec frame decoder.
///
/// Push raw bytes with [`push`](FrameBuf::push); pull complete
/// payloads with [`next_payload`](FrameBuf::next_payload). The first
/// meaningful byte sniffs the codec (unless pinned with
/// [`with_kind`](FrameBuf::with_kind)); blank lines between line
/// frames are skipped. `Ok(None)` means "need more bytes" — partial
/// frames persist across pushes, so arbitrary read splits are fine.
#[derive(Debug)]
pub struct FrameBuf {
    accept: CodecAccept,
    kind: Option<CodecKind>,
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
    /// A decoder that sniffs (subject to `accept`). Server side.
    pub fn new(accept: CodecAccept) -> Self {
        FrameBuf {
            accept,
            kind: None,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// A decoder pinned to a known codec. Client side (the client
    /// picked the codec, so replies arrive on the same one).
    pub fn with_kind(kind: CodecKind) -> Self {
        FrameBuf {
            accept: CodecAccept::Auto,
            kind: Some(kind),
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Appends freshly read socket bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The codec this stream resolved to, once sniffed.
    pub fn kind(&self) -> Option<CodecKind> {
        self.kind
    }

    /// Bytes buffered but not yet consumed (the partial-frame tail).
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when an incomplete frame is sitting in the buffer — the
    /// transport's stall-timeout clock keys off this.
    pub fn has_partial(&self) -> bool {
        self.pending_len() > 0
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > (1 << 16) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    fn sniff(&mut self, first: u8) -> Result<CodecKind, FrameError> {
        let kind = if first == FRAME_MAGIC {
            CodecKind::Frame
        } else {
            CodecKind::Line
        };
        match (self.accept, kind) {
            (CodecAccept::LineOnly, CodecKind::Frame) => Err(FrameError::Refused(kind)),
            (CodecAccept::FrameOnly, CodecKind::Line) => Err(FrameError::Refused(kind)),
            _ => {
                self.kind = Some(kind);
                Ok(kind)
            }
        }
    }

    /// Decodes the next complete payload, or `Ok(None)` if more bytes
    /// are needed. Errors poison the stream: the caller must stop
    /// decoding and close after (optionally) replying.
    pub fn next_payload(&mut self) -> Result<Option<Payload>, FrameError> {
        loop {
            // Between line frames (and before sniffing), skip bare
            // newlines so `\r\n` and blank keep-alive lines are free.
            if self.kind != Some(CodecKind::Frame) {
                while self.pos < self.buf.len()
                    && (self.buf[self.pos] == b'\n' || self.buf[self.pos] == b'\r')
                {
                    self.pos += 1;
                }
            }
            self.compact();
            if self.pos >= self.buf.len() {
                return Ok(None);
            }
            let kind = match self.kind {
                Some(k) => k,
                None => self.sniff(self.buf[self.pos])?,
            };
            match kind {
                CodecKind::Line => match self.next_line()? {
                    // Whitespace-only line: skip and keep scanning.
                    Some(line) if line.trim().is_empty() => continue,
                    other => return Ok(other.map(Payload::Line)),
                },
                CodecKind::Frame => return self.next_frame(),
            }
        }
    }

    fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        let tail = &self.buf[self.pos..];
        match tail.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if nl > MAX_FRAME {
                    return Err(FrameError::Oversized {
                        len: nl,
                        kind: CodecKind::Line,
                    });
                }
                let mut raw = &tail[..nl];
                if raw.last() == Some(&b'\r') {
                    raw = &raw[..raw.len() - 1];
                }
                let line = std::str::from_utf8(raw)
                    .map_err(|_| FrameError::BadUtf8)?
                    .to_string();
                self.pos += nl + 1;
                Ok(Some(line))
            }
            None if tail.len() > MAX_FRAME => Err(FrameError::Oversized {
                len: tail.len(),
                kind: CodecKind::Line,
            }),
            None => Ok(None),
        }
    }

    fn next_frame(&mut self) -> Result<Option<Payload>, FrameError> {
        let tail = &self.buf[self.pos..];
        if tail[0] != FRAME_MAGIC {
            return Err(FrameError::BadMagic(tail[0]));
        }
        if tail.len() < FRAME_HEADER {
            return Ok(None);
        }
        let plen = u32::from_le_bytes([tail[1], tail[2], tail[3], tail[4]]) as usize;
        if plen > MAX_FRAME {
            return Err(FrameError::Oversized {
                len: plen,
                kind: CodecKind::Frame,
            });
        }
        if tail.len() < FRAME_HEADER + plen {
            return Ok(None);
        }
        let payload = &tail[FRAME_HEADER..FRAME_HEADER + plen];
        let value = decode_value(payload).map_err(FrameError::BadPayload)?;
        self.pos += FRAME_HEADER + plen;
        Ok(Some(Payload::Frame(value)))
    }

    /// How much more inbound data the peer is known to be mid-way
    /// through sending when `err` was raised. Closing the socket while
    /// that data is still in flight turns the close into an RST that
    /// can destroy the structured error reply before the peer reads
    /// it; the transport swallows the remainder first so the close is
    /// a clean FIN (bounded by the caller's stall timeout).
    pub fn drain_plan(&self, err: &FrameError) -> DrainPlan {
        match err {
            FrameError::Oversized {
                kind: CodecKind::Line,
                ..
            } => {
                if self.buf[self.pos..].contains(&b'\n') {
                    DrainPlan::UntilEof
                } else {
                    DrainPlan::UntilNewline
                }
            }
            FrameError::Oversized {
                kind: CodecKind::Frame,
                len,
            } => DrainPlan::Bytes((FRAME_HEADER + len).saturating_sub(self.pending_len())),
            // Every framing error closes the connection, and the peer
            // may still be mid-pipeline — a bad line can sit between
            // two valid ones already in flight. Even when the codec's
            // own framing is re-synchronized, closing with those bytes
            // unread RSTs the socket and can destroy the structured
            // error reply before the peer reads it: wait for the
            // peer's EOF (bounded by the caller's deadline) instead.
            _ => DrainPlan::UntilEof,
        }
    }

    /// Consumes the final unterminated line at EOF (line codec only —
    /// a binary frame cut short by EOF is a clean drop, there is
    /// nothing safe to parse from it).
    pub fn eof_residual(&mut self) -> Result<Option<Payload>, FrameError> {
        if self.kind == Some(CodecKind::Frame) {
            return Ok(None);
        }
        let tail = &self.buf[self.pos..];
        if tail.is_empty() {
            return Ok(None);
        }
        if self.kind.is_none() {
            // Never sniffed: bytes arrived but no frame completed.
            self.sniff(tail[0])?;
            if self.kind == Some(CodecKind::Frame) {
                return Ok(None);
            }
        }
        let tail = &self.buf[self.pos..];
        if tail.len() > MAX_FRAME {
            return Err(FrameError::Oversized {
                len: tail.len(),
                kind: CodecKind::Line,
            });
        }
        let line = std::str::from_utf8(tail)
            .map_err(|_| FrameError::BadUtf8)?
            .trim()
            .to_string();
        self.pos = self.buf.len();
        self.compact();
        if line.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Payload::Line(line)))
        }
    }
}

/// What [`FrameBuf::drain_plan`] tells the transport to swallow
/// before closing an errored connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainPlan {
    /// Nothing known to be in flight — close now.
    None,
    /// An oversized line is still streaming in: discard until its
    /// terminating `\n` (or EOF / stall timeout).
    UntilNewline,
    /// An oversized frame declared this many still-unread payload
    /// bytes: discard exactly that many (or EOF / stall timeout).
    Bytes(usize),
    /// A poisoned frame stream: discard everything until the peer's
    /// EOF (or the stall timeout).
    UntilEof,
}

/// Encodes one outbound payload (`value`) in the given codec,
/// appending to `out`: JSON text plus `\n` for lines, a binary frame
/// for frames.
pub fn encode_payload(kind: CodecKind, value: &Value, out: &mut Vec<u8>) {
    match kind {
        CodecKind::Line => {
            let text = serde_json::to_string(value).expect("serializing a Value cannot fail");
            out.extend_from_slice(text.as_bytes());
            out.push(b'\n');
        }
        CodecKind::Frame => {
            let header_at = out.len();
            out.push(FRAME_MAGIC);
            out.extend_from_slice(&[0; 4]);
            let body_at = out.len();
            encode_value(value, out);
            let plen = (out.len() - body_at) as u32;
            out[header_at + 1..header_at + 5].copy_from_slice(&plen.to_le_bytes());
        }
    }
}

/// Wraps raw payload bytes in a frame header without value-encoding
/// them. Test/fuzz helper: lets probes construct frames with exact
/// payload lengths (including lengths no real value encodes to).
pub fn encode_raw_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.push(FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

// Binary value encoding: one tag byte, then tag-specific bytes. All
// integers little-endian; counts and string lengths are u32.
const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_POS_INT: u8 = 0x03;
const TAG_NEG_INT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// Nesting bound for [`decode_value`]: hostile payloads can't recurse
/// the stack away. Far above anything the protocol produces.
const MAX_DEPTH: u32 = 96;

/// Appends the compact binary encoding of `value` to `out`.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Number(n) => {
            if let Some(u) = n.as_u64() {
                out.push(TAG_POS_INT);
                out.extend_from_slice(&u.to_le_bytes());
            } else if let Some(i) = n.as_i64() {
                out.push(TAG_NEG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            } else {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&n.as_f64().to_le_bytes());
            }
        }
        Value::String(s) => {
            out.push(TAG_STR);
            encode_str(s, out);
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(map) => {
            out.push(TAG_OBJECT);
            out.extend_from_slice(&(map.len() as u32).to_le_bytes());
            for (k, v) in map.iter() {
                encode_str(k, out);
                encode_value(v, out);
            }
        }
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Streams the bytes [`encode_value`] gives a value tree, piece by
/// piece, for writers that encode straight from their own types without
/// building the tree. A container header is followed by exactly `len`
/// entries; an object entry is [`Encoder::key`] and then one value.
pub(crate) struct Encoder<'a>(pub(crate) &'a mut Vec<u8>);

impl Encoder<'_> {
    pub(crate) fn object(&mut self, len: usize) {
        self.0.push(TAG_OBJECT);
        self.0.extend_from_slice(&(len as u32).to_le_bytes());
    }

    pub(crate) fn array(&mut self, len: usize) {
        self.0.push(TAG_ARRAY);
        self.0.extend_from_slice(&(len as u32).to_le_bytes());
    }

    pub(crate) fn key(&mut self, key: &str) {
        encode_str(key, self.0);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.0.push(TAG_STR);
        encode_str(s, self.0);
    }

    pub(crate) fn u64(&mut self, n: u64) {
        self.0.push(TAG_POS_INT);
        self.0.extend_from_slice(&n.to_le_bytes());
    }

    pub(crate) fn null(&mut self) {
        self.0.push(TAG_NULL);
    }

    pub(crate) fn value(&mut self, value: &Value) {
        encode_value(value, self.0);
    }
}

/// Decodes one value from `bytes`, requiring the payload to be exactly
/// one value (trailing bytes are an error — a frame carries one value).
pub fn decode_value(bytes: &[u8]) -> Result<Value, String> {
    let mut cur = Cursor { bytes, at: 0 };
    let v = cur.value(0)?;
    if cur.at != bytes.len() {
        return Err(format!(
            "{} trailing bytes after value",
            bytes.len() - cur.at
        ));
    }
    Ok(v)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.bytes.len() - self.at < n {
            return Err(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len() - self.at
            ));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| "string is not valid UTF-8".to_string())
    }

    fn value(&mut self, depth: u32) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        let tag = self.take(1)?[0];
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_POS_INT => {
                let b = self.take(8)?;
                Ok(Value::from(u64::from_le_bytes(b.try_into().unwrap())))
            }
            TAG_NEG_INT => {
                let b = self.take(8)?;
                Ok(Value::from(i64::from_le_bytes(b.try_into().unwrap())))
            }
            TAG_FLOAT => {
                let b = self.take(8)?;
                Ok(Value::from(f64::from_le_bytes(b.try_into().unwrap())))
            }
            TAG_STR => Ok(Value::String(self.string()?)),
            TAG_ARRAY => {
                let count = self.u32()? as usize;
                // Each element costs ≥ 1 byte; an honest count never
                // exceeds what's left, so a hostile one can't make us
                // pre-allocate unbounded memory.
                let remaining = self.bytes.len() - self.at;
                if count > remaining {
                    return Err(format!("array count {count} exceeds remaining bytes"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            TAG_OBJECT => {
                let count = self.u32()? as usize;
                let remaining = self.bytes.len() - self.at;
                // Each entry costs ≥ 5 bytes (key length + value tag).
                if count > remaining / 5 + 1 {
                    return Err(format!("object count {count} exceeds remaining bytes"));
                }
                let mut map = Map::new();
                for _ in 0..count {
                    let k = self.string()?;
                    let v = self.value(depth + 1)?;
                    map.insert(k, v);
                }
                Ok(Value::Object(map))
            }
            other => Err(format!("unknown value tag 0x{other:02x}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        decode_value(&buf).expect("decode")
    }

    #[test]
    fn scalar_values_round_trip() {
        for v in [
            Value::Null,
            json!(true),
            json!(false),
            json!(0u64),
            json!(u64::MAX),
            json!(-1i64),
            json!(i64::MIN),
            json!(1.5f64),
            json!(""),
            json!("päyload → ünïcode"),
        ] {
            assert_eq!(roundtrip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v: Value = serde_json::from_str(
            r#"{"op":"register","txn":"T1: R[x] W[y]","req_id":77,
                "nested":{"a":[1,2,{"deep":null}],"b":[true,false]},
                "empty_arr":[],"empty_obj":{}}"#,
        )
        .expect("literal parses");
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn framebuf_sniffs_line_then_stays_line() {
        let mut fb = FrameBuf::new(CodecAccept::Auto);
        fb.push(b"{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\n");
        assert_eq!(
            fb.next_payload().unwrap(),
            Some(Payload::Line("{\"op\":\"ping\"}".to_string()))
        );
        assert_eq!(fb.kind(), Some(CodecKind::Line));
        assert_eq!(
            fb.next_payload().unwrap(),
            Some(Payload::Line("{\"op\":\"stats\"}".to_string()))
        );
        assert_eq!(fb.next_payload().unwrap(), None);
        assert!(!fb.has_partial());
    }

    #[test]
    fn framebuf_decodes_frames_split_across_pushes() {
        let v = json!({"op": "register", "txn": "T9: W[q]"});
        let mut wire = Vec::new();
        encode_payload(CodecKind::Frame, &v, &mut wire);
        let mut fb = FrameBuf::new(CodecAccept::Auto);
        for b in &wire[..wire.len() - 1] {
            fb.push(&[*b]);
            assert_eq!(fb.next_payload().unwrap(), None, "complete frame too early");
            assert!(fb.has_partial());
        }
        fb.push(&wire[wire.len() - 1..]);
        assert_eq!(fb.next_payload().unwrap(), Some(Payload::Frame(v)));
        assert!(!fb.has_partial());
    }

    #[test]
    fn oversized_declared_length_errors_before_payload_arrives() {
        let mut fb = FrameBuf::new(CodecAccept::Auto);
        let mut header = vec![FRAME_MAGIC];
        header.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        fb.push(&header);
        match fb.next_payload() {
            Err(FrameError::Oversized { len, .. }) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("expected oversized, got {other:?}"),
        }
    }

    #[test]
    fn oversized_unterminated_line_errors() {
        let mut fb = FrameBuf::new(CodecAccept::Auto);
        fb.push(&vec![b'a'; MAX_FRAME + 1]);
        assert!(matches!(
            fb.next_payload(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn accept_policy_refuses_the_other_codec() {
        let mut fb = FrameBuf::new(CodecAccept::FrameOnly);
        fb.push(b"{\"op\":\"ping\"}\n");
        assert!(matches!(
            fb.next_payload(),
            Err(FrameError::Refused(CodecKind::Line))
        ));
        let mut fb = FrameBuf::new(CodecAccept::LineOnly);
        fb.push(&[FRAME_MAGIC, 1, 0, 0, 0, TAG_NULL]);
        assert!(matches!(
            fb.next_payload(),
            Err(FrameError::Refused(CodecKind::Frame))
        ));
    }

    #[test]
    fn eof_residual_parses_final_unterminated_line() {
        let mut fb = FrameBuf::new(CodecAccept::Auto);
        fb.push(b"{\"op\":\"ping\"}");
        assert_eq!(fb.next_payload().unwrap(), None);
        assert_eq!(
            fb.eof_residual().unwrap(),
            Some(Payload::Line("{\"op\":\"ping\"}".to_string()))
        );
        // A binary frame cut by EOF is silent.
        let v = json!({"op":"ping"});
        let mut wire = Vec::new();
        encode_payload(CodecKind::Frame, &v, &mut wire);
        let mut fb = FrameBuf::new(CodecAccept::Auto);
        fb.push(&wire[..wire.len() - 2]);
        assert_eq!(fb.next_payload().unwrap(), None);
        assert_eq!(fb.eof_residual().unwrap(), None);
    }

    #[test]
    fn bad_magic_mid_stream_errors() {
        let v = json!({"op":"ping"});
        let mut wire = Vec::new();
        encode_payload(CodecKind::Frame, &v, &mut wire);
        wire.push(0x42); // next "frame" starts with junk
        let mut fb = FrameBuf::new(CodecAccept::Auto);
        fb.push(&wire);
        assert!(matches!(fb.next_payload(), Ok(Some(Payload::Frame(_)))));
        assert!(matches!(fb.next_payload(), Err(FrameError::BadMagic(0x42))));
    }

    #[test]
    fn hostile_counts_and_tags_error_cleanly() {
        // Declared array count far beyond the payload.
        let mut payload = vec![TAG_ARRAY];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_value(&payload).is_err());
        // Unknown tag.
        assert!(decode_value(&[0x77]).is_err());
        // Trailing bytes.
        assert!(decode_value(&[TAG_NULL, TAG_NULL]).is_err());
        // Empty payload.
        assert!(decode_value(&[]).is_err());
        // Deep nesting stops at the depth bound instead of overflowing.
        let mut deep = Vec::new();
        for _ in 0..10_000 {
            deep.push(TAG_ARRAY);
            deep.extend_from_slice(&1u32.to_le_bytes());
        }
        deep.push(TAG_NULL);
        assert!(decode_value(&deep).is_err());
    }
}
