//! The little-endian frame layout the control planes share: explicit u8 /
//! u32 / u64 words and u32-length-prefixed UTF-8 strings, written with
//! [`put_str`] and `extend_from_slice(&word.to_le_bytes())`, read back with
//! a [`FrameReader`]. Both ends agree on bytes without a serialisation
//! framework, and the encoding is bit-stable for the determinism suite.
//!
//! Each decoder maps a [`FrameError`] into its own error type and ends with
//! [`FrameReader::finish`], so a frame with trailing bytes is rejected.

use std::fmt;

/// What is wrong with a frame's bytes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame ends inside the field starting at this byte.
    Truncated(usize),
    /// A string field is not UTF-8.
    NotUtf8,
    /// This many bytes follow the frame's last field.
    Trailing(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated(at) => write!(f, "truncated at byte {at}"),
            FrameError::NotUtf8 => write!(f, "string is not UTF-8"),
            FrameError::Trailing(n) => write!(f, "has {n} trailing bytes"),
        }
    }
}

/// Append `s` as a u32 length followed by its bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Cursor-style decoder over a frame's bytes.
#[derive(Debug)]
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> FrameReader<'a> {
    /// A reader positioned at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> FrameReader<'a> {
        FrameReader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.bytes.len() - self.at < n {
            return Err(FrameError::Truncated(self.at));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian u32.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// The next little-endian u64.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// The next length-prefixed string.
    pub fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::NotUtf8)
    }

    /// Check that every byte was read.
    pub fn finish(self) -> Result<(), FrameError> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            trailing => Err(FrameError::Trailing(trailing)),
        }
    }
}
