//! An in-memory sink that counts and hashes what a serializer writes,
//! so timed phases never touch the filesystem.

use std::io::{self, Write};

const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Counts bytes and hashes them 32 at a time over four independent
/// lanes (fast enough to stay a small share of any timed serializer).
/// The digest depends only on the byte stream, not on how it was split
/// into writes.
pub struct HashSink {
    bytes: u64,
    lanes: [u64; 4],
    pending: [u8; 32],
    pending_len: usize,
}

impl HashSink {
    pub fn new() -> HashSink {
        HashSink { bytes: 0, lanes: [1, 2, 3, 4], pending: [0; 32], pending_len: 0 }
    }

    fn mix(&mut self, block: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(29);
        }
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Digest of everything written so far.
    pub fn digest(&self) -> u64 {
        let mut h = self.bytes.wrapping_mul(K);
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(K).rotate_left(31);
        }
        for &b in &self.pending[..self.pending_len] {
            h = (h ^ u64::from(b)).wrapping_mul(K);
        }
        h
    }
}

impl Write for HashSink {
    fn write(&mut self, mut buf: &[u8]) -> io::Result<usize> {
        let n = buf.len();
        self.bytes += n as u64;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(buf.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&buf[..take]);
            self.pending_len += take;
            buf = &buf[take..];
            if self.pending_len < 32 {
                return Ok(n);
            }
            let block = self.pending;
            self.mix(&block);
            self.pending_len = 0;
        }
        let blocks = buf.chunks_exact(32);
        let rest = blocks.remainder();
        for block in blocks {
            self.mix(block);
        }
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serializes through an 8 KiB `BufWriter` — the same buffering the
/// repository's file savers use — into a fresh [`HashSink`], returning
/// `(bytes, digest)`.
pub fn serialize(
    write: impl FnOnce(&mut io::BufWriter<HashSink>) -> io::Result<()>,
) -> io::Result<(u64, u64)> {
    let mut w = io::BufWriter::new(HashSink::new());
    write(&mut w)?;
    let sink = w.into_inner().map_err(|e| e.into_error())?;
    Ok((sink.bytes(), sink.digest()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_write_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut whole = HashSink::new();
        whole.write_all(&data).unwrap();
        for split in [1, 5, 31, 32, 33, 999] {
            let mut parts = HashSink::new();
            for chunk in data.chunks(split) {
                parts.write_all(chunk).unwrap();
            }
            assert_eq!(parts.digest(), whole.digest(), "split {split}");
        }
        let mut other = HashSink::new();
        other.write_all(&data[1..]).unwrap();
        assert_ne!(other.digest(), whole.digest());
    }
}
