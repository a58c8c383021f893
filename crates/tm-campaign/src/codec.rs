//! Little-endian binary primitives for the `bench::runlog` run-log format.
//!
//! The format follows one discipline: a fixed magic + version header,
//! then **length-prefixed records** so a reader can skip or stop cleanly
//! at a record boundary. Everything is little-endian and hand-rolled (the
//! hermetic-workspace rule: zero external dependencies). Floats are
//! stored as their IEEE-754 bit patterns ([`f64::to_bits`]), never as
//! decimal text, so a replayed or resumed run re-aggregates
//! **byte-identically** after a round trip.
//!
//! The reader side is total: every accessor returns `Option`, a truncated
//! or corrupt buffer yields `None` instead of a panic, and the run-log
//! turns that into "stop at the last complete record".

/// Appends a `u32` in little-endian byte order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian byte order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a UTF-8 string as `u32 length + bytes`.
///
/// Lengths are clamped at `u32::MAX` bytes; campaign strings (scenario
/// names, axis labels, panic causes) are nowhere near that.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
    put_u32(buf, len);
    buf.extend_from_slice(bytes.get(..len as usize).unwrap_or(bytes));
}

/// A bounds-checked reader over an encoded buffer.
///
/// Every accessor advances the cursor on success and returns `None` on
/// underrun or malformed data — no accessor can panic, which is what
/// makes truncated-file recovery a non-event for the callers.
#[derive(Clone, Copy, Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Whether the cursor has consumed the whole buffer.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let bytes = self.bytes(4)?;
        Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let bytes = self.bytes(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Some(u64::from_le_bytes(raw))
    }

    /// Reads an `f64` stored as its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u32 length + bytes` UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that
    /// do not fit the platform (corrupt data on 32-bit targets).
    pub fn len(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::INFINITY);
        put_f64(&mut buf, 1.000000000000002);
        put_str(&mut buf, "topology=fat-tree-8 stack=topoguard-plus");
        put_str(&mut buf, "");

        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32(), Some(0xDEAD_BEEF));
        assert_eq!(c.u64(), Some(u64::MAX - 7));
        assert_eq!(c.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(c.f64(), Some(f64::INFINITY));
        assert_eq!(
            c.f64().map(f64::to_bits),
            Some(1.000000000000002f64.to_bits())
        );
        assert_eq!(
            c.str().as_deref(),
            Some("topology=fat-tree-8 stack=topoguard-plus")
        );
        assert_eq!(c.str().as_deref(), Some(""));
        assert!(c.is_empty());
    }

    #[test]
    fn truncation_yields_none_not_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        for cut in 0..buf.len() {
            let mut c = Cursor::new(&buf[..cut]);
            assert!(c.str().is_none(), "cut at {cut} must fail cleanly");
        }
        // A length prefix pointing past the end fails too.
        let mut lying = Vec::new();
        put_u32(&mut lying, 1000);
        lying.extend_from_slice(b"abc");
        assert!(Cursor::new(&lying).str().is_none());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Cursor::new(&buf).str().is_none());
    }
}
