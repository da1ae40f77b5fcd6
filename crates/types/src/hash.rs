//! 64-bit FNV-1a: the one hash behind every digest and signature in the
//! workspace (end-state digests, report content hashes, VSF and config
//! bundle signatures). Every caller defines its digest as a byte stream
//! folded through [`Fnv1a`], so committed digests stay comparable.

const OFFSET: u64 = 0xcbf29ce484222325;
const PRIME: u64 = 0x100000001b3;

/// Running FNV-1a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The standard FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// A keyed state: the offset basis XOR `key` (the signing schemes).
    pub const fn keyed(key: u64) -> Self {
        Fnv1a(key ^ OFFSET)
    }

    #[inline]
    pub fn write(&mut self, data: &[u8]) {
        for b in data {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Fold `v` as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a of one byte string.
#[inline]
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        let mut h = Fnv1a::new();
        h.write_u64(1);
        assert_eq!(h.finish(), fnv1a(&1u64.to_le_bytes()));
        assert_eq!(Fnv1a::keyed(0).finish(), Fnv1a::new().finish());
    }
}
