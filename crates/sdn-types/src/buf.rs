//! In-house byte-buffer helpers (the workspace's replacement for the
//! `bytes` crate).
//!
//! The simulation only ever builds wire images append-only and then reads
//! them as `&[u8]`, so one small type covers every use: [`BytesMut`], a
//! growable big-endian append buffer (`put_u8`/`put_u16`/`put_u32`/
//! `put_slice`). It derefs to `[u8]`, so parsers take plain `&[u8]` and
//! stay agnostic, and [`BytesMut::into_vec`] hands a finished image over
//! as a plain `Vec<u8>`.

use std::ops::Deref;

/// A growable append-only buffer with big-endian integer writers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// Creates an empty buffer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Appends a `u16` big-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32` big-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// The written bytes as a plain vector, without copying them.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_writers_round_trip() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(0xab);
        buf.put_u16(0x1234);
        buf.put_u32(0xdead_beef);
        buf.put_slice(&[9, 10]);
        let bytes = buf.into_vec();
        assert_eq!(
            &bytes[..],
            &[0xab, 0x12, 0x34, 0xde, 0xad, 0xbe, 0xef, 9, 10]
        );
        assert_eq!(bytes.len(), 9);
    }

    #[test]
    fn deref_lets_parsers_take_slices() {
        fn parse(bytes: &[u8]) -> usize {
            bytes.len()
        }
        let mut buf = BytesMut::new();
        buf.put_u32(7);
        assert_eq!(parse(&buf), 4);
    }
}
