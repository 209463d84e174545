//! A minimal immutable byte buffer with zero-copy views.
//!
//! Stand-in for the `bytes` crate's `Bytes`: a cheaply clonable,
//! reference-counted, immutable byte slice. A `Bytes` is a shared
//! `Arc<[u8]>` plus the offset and length of the bytes it shows, so
//! [`Bytes::slice`] narrows a view without copying. That is what lets a
//! decoded packet's payload point into the frame it came in (see
//! [`crate::ip::IpPacket::decode`]): a packet is copied only when a hop
//! encodes a new one. Equality, ordering and hashing look at the viewed
//! bytes only, never at the buffer around them.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted view of a byte buffer. Cloning and
/// slicing are O(1).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: u32,
    len: u32,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static byte string.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(Arc::<[u8]>::from(bytes))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of `range` of these bytes, sharing the buffer.
    ///
    /// # Panics
    ///
    /// Where indexing the bytes with `range` would.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let view = &self[(range.start_bound().cloned(), range.end_bound().cloned())];
        // A view of `data` starts at its distance from the buffer's start;
        // both it and its length fit in u32 because the buffer does.
        let start = (view.as_ptr() as usize - self.data.as_ptr() as usize) as u32;
        let (data, len) = (Arc::clone(&self.data), view.len() as u32);
        Bytes { data, start, len }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        let start = self.start as usize;
        &self.data[start..start + self.len as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

/// The whole of a shared buffer.
///
/// # Panics
///
/// If the buffer holds 4 GiB or more.
impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Self {
        let (start, len) = (0, u32::try_from(data.len()).expect("under 4 GiB"));
        Bytes { data, start, len }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from(Arc::<[u8]>::from(v.into_boxed_slice()))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_reads() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(Bytes::new().is_empty());
        assert_eq!(&Bytes::from_static(b"hi")[..], b"hi");
        assert_eq!(&Bytes::copy_from_slice(&[9, 9])[..], &[9, 9]);
        assert_eq!(Bytes::default(), Bytes::new());
    }

    #[test]
    fn slices_share_the_buffer_and_compare_by_content() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let mid = b.slice(1..5);
        assert_eq!(&mid[..], &[1, 2, 3, 4]);
        assert_eq!(mid.as_ptr(), b[1..].as_ptr());
        let inner = mid.slice(1..=2);
        assert_eq!(&inner[..], &[2, 3]);
        assert_eq!(inner, Bytes::copy_from_slice(&[2, 3]));
        assert!(b.slice(6..).is_empty() && b.slice(..0).is_empty());
        assert!(b.slice(..2) < b.slice(2..));
    }

    #[test]
    #[should_panic(expected = "range end index 7 out of range for slice of length 4")]
    fn slice_past_the_end_panics() {
        Bytes::from(vec![0u8; 6]).slice(2..).slice(..7);
    }

    #[test]
    fn debug_escapes_non_printables() {
        let b = Bytes::from(vec![b'a', 0x00]);
        assert_eq!(format!("{b:?}"), "b\"a\\x00\"");
        assert_eq!(
            format!("{:?}", Bytes::from_static(b"xay").slice(1..2)),
            "b\"a\""
        );
    }
}
