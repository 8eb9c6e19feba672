//! A seedless 128-bit hasher for content fingerprints.
//!
//! The engine keys its caches on the *structure* of a kernel and a
//! target, hashed through their `std::hash::Hash` impls, and derives
//! artifact filenames from the same keys. Filenames outlive the
//! process, so the hash must give the same value in every process:
//! `RandomState` and any other seeded hasher are out. It must also be
//! cheap, because every request pays it once, cache hits included.
//!
//! [`StableHasher`] absorbs every integer as one 64-bit word, whatever
//! width the `Hash` impl wrote it at, and byte strings eight bytes at a
//! time behind a length word. Each word enters two independent
//! xor-multiply-rotate lanes. A lane step is a bijection of the lane
//! state, so two word streams that differ in exactly one word always end
//! in different states. A murmur3 finalizer folds the lanes and the
//! word count into the 128-bit result.
//!
//! The hasher is stable; the streams it is fed are not promised to be.
//! They come from std's and `#[derive(Hash)]`'s impls (a `str` as its
//! bytes plus a `0xff` terminator, a slice behind its length, an enum
//! behind its discriminant), which Rust may change between toolchain
//! versions. Such a change renames every artifact: each stored one
//! becomes a cold miss, never a wrong hit. The golden-value test in
//! `engine.rs` is what notices, so a failure there is an artifact-format
//! change, not just a constant to refresh.

use std::hash::{Hash, Hasher};

const K0: u64 = 0x9e37_79b9_7f4a_7c15;
const K1: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// The seedless word-at-a-time hasher (see the module docs).
#[derive(Debug)]
pub(crate) struct StableHasher {
    a: u64,
    b: u64,
    words: u64,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
            words: 0,
        }
    }
}

impl StableHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(K0).rotate_left(31);
        self.b = (self.b ^ w.rotate_left(32))
            .wrapping_mul(K1)
            .rotate_left(27);
        self.words += 1;
    }

    /// The 128-bit digest of everything written so far.
    pub(crate) fn finish128(&self) -> u128 {
        let lo = fmix64(self.a ^ self.words);
        let hi = fmix64(self.b ^ lo);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// The murmur3 64-bit finalizer: every output bit depends on every
/// input bit.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.word(v.into());
    }

    fn write_u16(&mut self, v: u16) {
        self.word(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.word(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    fn write_u128(&mut self, v: u128) {
        self.word(v as u64);
        self.word((v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    fn write_i8(&mut self, v: i8) {
        self.word(i64::from(v) as u64);
    }

    fn write_i16(&mut self, v: i16) {
        self.word(i64::from(v) as u64);
    }

    fn write_i32(&mut self, v: i32) {
        self.word(i64::from(v) as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.word(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.word(v as u64);
    }

    fn finish(&self) -> u64 {
        self.finish128() as u64
    }
}

/// The stable 128-bit fingerprint of a value's `Hash` stream.
pub(crate) fn fingerprint<T: Hash + ?Sized>(value: &T) -> u128 {
    let mut h = StableHasher::default();
    value.hash(&mut h);
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_width_does_not_change_the_stream() {
        let mut a = StableHasher::default();
        let mut b = StableHasher::default();
        a.write_u8(7);
        b.write_u64(7);
        a.write_i32(-3);
        b.write_isize(-3);
        assert_eq!(a.finish128(), b.finish128());
    }

    #[test]
    fn byte_strings_are_length_delimited() {
        // Zero padding of the last chunk must not merge "a" and "a\0".
        assert_ne!(fingerprint("a"), fingerprint("a\0"));
        assert_ne!(fingerprint(&[0u8; 8][..]), fingerprint(&[0u8; 9][..]));
        assert_ne!(fingerprint(&("ab", "c")), fingerprint(&("a", "bc")));
    }

    #[test]
    fn one_word_changes_the_digest() {
        let base: Vec<u64> = (0..64).collect();
        let fp = fingerprint(&base);
        for i in 0..base.len() {
            for bit in [0, 31, 63] {
                let mut v = base.clone();
                v[i] ^= 1 << bit;
                assert_ne!(fingerprint(&v), fp, "word {i} bit {bit}");
            }
        }
    }
}
