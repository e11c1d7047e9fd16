//! Allocation-free 64-bit structural signatures.
//!
//! [`PlanNode::signature`](crate::PlanNode::signature) builds a `String` per
//! call, which is fine for ordering plans by content but far too slow for
//! the optimizer loop, where every sub-plan of every candidate is looked up
//! in the subtree-state cache (the representation memory pool).
//! [`SigHasher`] streams the same structural content (operator, tables,
//! columns, predicate tree, children) through a word-at-a-time mixer with a
//! splitmix64 finalizer, producing a `u64` key with no heap traffic.
//!
//! # The mixer
//!
//! The step is the wyhash/foldhash folded multiply: `fold(a, b)` is the XOR
//! of the two halves of the 128-bit product `a * b`.  Each
//! [`SigHasher::write`] takes 16-byte blocks while more than 16 bytes
//! remain, one fold per block, then reads the last 1–16 bytes with loads
//! that may overlap: two `u64` for 8–16 bytes (`a` and `b`), two `u32` for
//! 4–7, and bytes `0`, `n/2` and `n-1` for 1–3 (both packed into `a`, with
//! `b = 0`, so the length never overlaps data bits of a short tail).  One
//! fold mixes that tail with the write's length,
//! `h = fold(h ^ a ^ K1, b ^ K2 ^ len) ^ h.rotate_left(29)`, so a write
//! costs one multiply per 16 bytes instead of one per byte.  The old
//! state also enters outside the multiply, so no input can zero it.  The
//! length mix separates `("ab", "c")` from `("a", "bc")` and an empty write
//! from none, so strings need no terminator.  `write_u8`, `write_u64` and
//! `write_f64` are one fold each and hash exactly like `write` of their
//! little-endian bytes.  The constants are fixed: signatures are equal
//! across processes, and no seed is drawn.
//!
//! The splitmix64 finalizer stays.  The sharded caches select shards from
//! the middle bits of the key and hashbrown probes with the top bits, so
//! every bit range must be well mixed, even between keys that differ in one
//! tag byte; the finalizer gives each key a whole-word avalanche whatever
//! the last fold left.  It runs once per key, so it costs one step per
//! sub-plan, not one per write.  The same avalanche lets every map keyed by
//! finished keys use [`IdentityHasher`] instead of re-hashing each key.
//!
//! # Collision posture
//!
//! Signatures are 64-bit *hashes*, not canonical encodings, so distinct
//! sub-plans collide with birthday probability `n^2 / 2^65`: for one million
//! distinct sub-plans that is ~3e-8 — far below any operational concern, and
//! a collision's only effect is one sub-plan borrowing another's cached
//! entry (the caches are advisory, never load-bearing for correctness of
//! training).  `signature_collision_free_over_1e5_subplans` (in `plan.rs`)
//! pins the posture in practice: ≥1e5 structurally distinct generated
//! sub-plans must produce pairwise-distinct signatures.

use std::hash::Hasher;

/// Streaming word-at-a-time hasher with a splitmix64 finalizer.
#[derive(Debug, Clone, Copy)]
pub struct SigHasher(u64);

/// Initial state.
const SEED: u64 = 0x5899_65cc_7537_4cc3;
/// Mixed into the left operand of every fold.
const K1: u64 = 0xa076_1d64_78bd_642f;
/// Mixed into the right operand of every fold.
const K2: u64 = 0xe703_7ed1_a0b4_28db;
/// Marks a full 16-byte block, so a block never folds like a tail.
const BLOCK: u64 = 0x8ebc_6af0_9c88_c6e3;

/// The folded multiply: XOR of the high and low halves of `a * b`.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = (a as u128) * (b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// One step of the mixer: fold two input words into the state `h`.
#[inline(always)]
fn mix(h: u64, a: u64, b: u64) -> u64 {
    fold(h ^ a ^ K1, b ^ K2) ^ h.rotate_left(29)
}

#[inline(always)]
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte window"))
}

#[inline(always)]
fn read_u32(bytes: &[u8], at: usize) -> u64 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte window")) as u64
}

impl SigHasher {
    /// A fresh hasher.
    #[inline]
    pub fn new() -> Self {
        SigHasher(SEED)
    }

    /// Feed raw bytes: one fold per 16-byte block, then one for the last
    /// 0–16 bytes and the length.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut rest = bytes;
        while rest.len() > 16 {
            h = mix(h, read_u64(rest, 0), read_u64(rest, 8) ^ BLOCK);
            rest = &rest[16..];
        }
        let n = rest.len();
        let (a, b) = if n >= 8 {
            (read_u64(rest, 0), read_u64(rest, n - 8))
        } else if n >= 4 {
            (read_u32(rest, 0) | read_u32(rest, n - 4) << 32, 0)
        } else if n > 0 {
            (rest[0] as u64 | (rest[n / 2] as u64) << 8 | (rest[n - 1] as u64) << 16, 0)
        } else {
            (0, 0)
        };
        self.0 = mix(h, a, b ^ bytes.len() as u64);
    }

    /// Feed a single tag byte (enum discriminants, structural markers).
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        // `write(&[v])`: bytes 0, n/2 and n-1 are all `v`.
        self.0 = mix(self.0, v as u64 * 0x01_0101, 1);
    }

    /// Feed a `u64` (e.g. a child sub-signature).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        // `write(&v.to_le_bytes())`: both 8-byte loads read `v`.
        self.0 = mix(self.0, v, v ^ 8);
    }

    /// Feed an `f64` by bit pattern (`-0.0` and `0.0` hash differently; the
    /// generators never emit `-0.0`, and NaN payloads are preserved).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feed a string.  The length mix keeps `("ab", "c")` and `("a", "bc")`
    /// apart without a terminator.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Finalize: splitmix64 over the mixer state for full avalanche.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

impl Default for SigHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Pass-through [`Hasher`] for maps keyed by finished [`SigHasher`] keys
/// (`HashMap<u64, V, BuildHasherDefault<IdentityHasher>>`): the finalizer
/// already mixed every bit range, so the key is its own hash.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher is only for u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_inputs_hash_differently() {
        let mut a = SigHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = SigHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hashing_is_deterministic() {
        let run = || {
            let mut h = SigHasher::new();
            h.write_str("hash join");
            h.write_f64(1995.0);
            h.write_u64(42);
            h.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn finalizer_spreads_shard_and_tag_bits() {
        // Sequential inputs must not collapse onto a few values in either
        // the middle bits (shard selection) or the top bits (hashbrown's
        // probe tag).
        let mut shard_bits = std::collections::HashSet::new();
        let mut top_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            let mut h = SigHasher::new();
            h.write_u64(i);
            let key = h.finish();
            shard_bits.insert((key >> 32) & 0xf);
            top_bits.insert(key >> 60);
        }
        assert!(shard_bits.len() > 8, "middle bits not well distributed: {} values", shard_bits.len());
        assert!(top_bits.len() > 8, "top bits not well distributed: {} values", top_bits.len());
    }

    /// Forty bytes: two full blocks plus every tail length on the way.
    const INPUT: &[u8; 40] = b"movie_companies.company_type_id <= 1995;";

    fn hash_writes(writes: &[&[u8]]) -> u64 {
        let mut h = SigHasher::new();
        for w in writes {
            h.write(w);
        }
        h.finish()
    }

    #[test]
    fn lengths_and_splits_hash_apart() {
        let s: &[u8] = INPUT;
        let mut keys: Vec<(String, u64)> = Vec::new();
        for i in 0..=s.len() {
            keys.push((format!("split at {i}"), hash_writes(&[&s[..i], &s[i..]])));
        }
        for n in 1..=s.len() {
            keys.push((format!("prefix of {n}"), hash_writes(&[&s[..n]])));
        }
        keys.push(("empty write".into(), hash_writes(&[&[]])));
        keys.push(("no write".into(), hash_writes(&[])));
        let mut seen = std::collections::HashMap::new();
        for (label, key) in &keys {
            if let Some(other) = seen.insert(*key, label) {
                panic!("{label} and {other} hash alike");
            }
        }

        // Short tails pad their reads with zeros, so at some lengths only
        // the length mix tells a trailing zero byte apart.
        for n in 0..=s.len() {
            let padded = [&s[..n], &[0u8][..]].concat();
            assert_ne!(hash_writes(&[&s[..n]]), hash_writes(&[&padded]), "a trailing zero vanished at length {n}");
        }
    }

    #[test]
    fn every_input_bit_reaches_the_key_on_every_tail_path() {
        for n in 1..=INPUT.len() {
            let base = &INPUT[..n];
            let key = hash_writes(&[base]);
            let mut flipped_bits = 0u32;
            for bit in 0..n * 8 {
                let mut input = base.to_vec();
                input[bit / 8] ^= 1 << (bit % 8);
                let diff = key ^ hash_writes(&[&input]);
                assert_ne!(diff, 0, "flipping input bit {bit} of {n} bytes left the key unchanged");
                flipped_bits += diff.count_ones();
            }
            let mean = flipped_bits as f64 / (n * 8) as f64;
            assert!(
                (24.0..=40.0).contains(&mean),
                "length {n}: a flipped input bit flips {mean:.1} key bits on average"
            );
        }
    }

    #[test]
    fn typed_writes_hash_like_their_bytes() {
        for v in [0u64, 1, 0xff, 42, 1 << 63, u64::MAX, 0x0123_4567_89ab_cdef] {
            let mut typed = SigHasher::new();
            typed.write_u64(v);
            assert_eq!(typed.finish(), hash_writes(&[&v.to_le_bytes()]), "write_u64({v:#x})");
            let x = f64::from_bits(v);
            let mut typed = SigHasher::new();
            typed.write_f64(x);
            assert_eq!(typed.finish(), hash_writes(&[&v.to_le_bytes()]), "write_f64({x})");
        }
        for v in 0..=u8::MAX {
            let mut typed = SigHasher::new();
            typed.write_u8(v);
            assert_eq!(typed.finish(), hash_writes(&[&[v]]), "write_u8({v})");
        }
        let mut typed = SigHasher::new();
        typed.write_str("title");
        assert_eq!(typed.finish(), hash_writes(&[b"title"]));
    }
}
