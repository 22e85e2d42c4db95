//! Deterministic binary codec for state-machine snapshots.
//!
//! Raft snapshotting (DESIGN.md §4.11) needs every replica to serialize
//! the same applied state to the same bytes: catch-up correctness tests
//! compare snapshot images across replicas byte for byte, and chaos seeds
//! must reproduce identical snapshot sizes. This hand-rolled fixed-layout
//! codec (little-endian integers, length-prefixed strings) guarantees that
//! as long as implementors iterate their state in a sorted order; a serde
//! format would tie byte identity to derive internals and map iteration
//! order.
//!
//! Snapshot *images* are wrapped in a checksummed frame
//! ([`frame`]/[`unframe`]): a truncated or torn image fails checksum
//! validation instead of being restored, which is what lets recovery fall
//! back to the previous snapshot after a crash mid-write.

/// Builds a snapshot image. All integers are little-endian fixed-width.
#[derive(Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends length-prefixed raw bytes (e.g. a nested snapshot image).
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// The finished image.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads a snapshot image produced by [`SnapshotWriter`].
///
/// Readers only ever see checksum-validated frames (see [`unframe`]), so
/// truncation here is a logic error and panics.
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> i64 {
        i64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().expect("2 bytes"))
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> String {
        let n = self.u64() as usize;
        String::from_utf8(self.take(n).to_vec()).expect("snapshot strings are UTF-8")
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> &'a [u8] {
        let n = self.u64() as usize;
        self.take(n)
    }

    /// Whether the whole image has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

/// FNV-1a over `bytes`; the frame checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Wraps a snapshot image in a `[len u64][fnv1a u64][payload]` frame.
pub fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates a frame and returns the payload, or `None` when the frame is
/// truncated or corrupt (a torn snapshot write).
pub fn unframe(framed: &[u8]) -> Option<&[u8]> {
    if framed.len() < 16 {
        return None;
    }
    let len = usize::try_from(u64::from_le_bytes(framed[..8].try_into().ok()?)).ok()?;
    let sum = u64::from_le_bytes(framed[8..16].try_into().ok()?);
    let payload = &framed[16..];
    if payload.len() != len || fnv1a(payload) != sum {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapshotWriter::new();
        w.u64(7);
        w.i64(-42);
        w.u32(9);
        w.u16(3);
        w.u8(1);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let img = w.finish();
        let mut r = SnapshotReader::new(&img);
        assert_eq!(r.u64(), 7);
        assert_eq!(r.i64(), -42);
        assert_eq!(r.u32(), 9);
        assert_eq!(r.u16(), 3);
        assert_eq!(r.u8(), 1);
        assert_eq!(r.str(), "héllo");
        assert_eq!(r.bytes(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn frame_validates_and_rejects_truncation() {
        let framed = frame(vec![9; 100]);
        assert_eq!(unframe(&framed), Some(&[9u8; 100][..]));
        // A torn write: any prefix of the frame fails validation.
        for cut in [0, 8, 16, 50, framed.len() - 1] {
            assert_eq!(unframe(&framed[..cut]), None, "cut at {cut}");
        }
        // Bit rot in the payload fails the checksum.
        let mut rotten = framed.clone();
        rotten[20] ^= 0xff;
        assert_eq!(unframe(&rotten), None);
        // A corrupt length field: one that overflows `16 + len`, and one a
        // byte past the payload.
        let mut huge = vec![0xff; 8];
        huge.extend_from_slice(&[0; 8]);
        assert_eq!(unframe(&huge), None);
        let mut long = framed.clone();
        long[..8].copy_from_slice(&101u64.to_le_bytes());
        assert_eq!(unframe(&long), None);
    }

    #[test]
    fn empty_payload_frames() {
        let framed = frame(Vec::new());
        assert_eq!(unframe(&framed), Some(&[][..]));
    }
}
