//! In-house byte-buffer helpers (the workspace's replacement for the
//! `bytes` crate).
//!
//! The simulation only ever builds wire images append-only and then reads
//! them as `&[u8]`, so two small types cover every use:
//!
//! * [`BytesMut`] — a growable big-endian append buffer
//!   (`put_u8`/`put_u16`/`put_u32`/`put_slice`);
//! * [`Bytes`] — a frozen, cheaply-cloneable immutable byte string.
//!
//! Both deref to `[u8]`, so parsers take plain `&[u8]` and stay agnostic.

use std::ops::Deref;
use std::sync::Arc;

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

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes into an immutable, cheaply-cloneable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: Arc::from(self.data.into_boxed_slice()),
        }
    }

    /// The written bytes as a plain vector copy.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
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

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// An immutable byte string; clones share the allocation.
#[derive(Clone, Debug)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Creates from a vector of bytes.
    pub fn from_vec(data: Vec<u8>) -> Self {
        Bytes {
            data: Arc::from(data.into_boxed_slice()),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The bytes as a plain vector copy.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes::from_vec(data)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data[..] == other.data[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.data[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.data[..] == other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.data[..] == other[..]
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
        let bytes = buf.freeze();
        assert_eq!(
            &bytes[..],
            &[0xab, 0x12, 0x34, 0xde, 0xad, 0xbe, 0xef, 9, 10]
        );
        assert_eq!(bytes.len(), 9);
    }

    #[test]
    fn frozen_bytes_compare_and_share() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"hello");
        let a = buf.freeze();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, b"hello".to_vec());
        assert_eq!(a, *b"hello");
    }

    #[test]
    fn deref_lets_parsers_take_slices() {
        fn parse(bytes: &[u8]) -> usize {
            bytes.len()
        }
        let mut buf = BytesMut::new();
        buf.put_u32(7);
        assert_eq!(parse(&buf), 4);
        assert_eq!(parse(&buf.freeze()), 4);
    }
}
