//! Allocation-free 64-bit structural signatures.
//!
//! [`PlanNode::signature`](crate::PlanNode::signature) builds a `String` per
//! call, which is fine for debugging but far too slow for the optimizer loop
//! where every sub-plan of every candidate is looked up in the subtree-state
//! cache (the representation memory pool).  [`SigHasher`] streams the same
//! structural content (operator, tables, columns, predicate tree, children)
//! through an FNV-1a accumulator with a splitmix64 finalizer, producing a
//! `u64` key with no heap traffic.
//!
//! # Collision posture
//!
//! Signatures are 64-bit *hashes*, not canonical encodings, so distinct
//! sub-plans collide with birthday probability `n^2 / 2^65`: for one million
//! distinct sub-plans that is ~3e-8 — far below any operational concern, and
//! a collision's only effect is one sub-plan briefly borrowing another's
//! cached estimate (the caches are advisory, never load-bearing for
//! correctness of training).  The splitmix64 finalizer restores the
//! whole-word avalanche plain FNV-1a lacks, so every bit range of the key —
//! the sharded caches select shards from the middle bits — is well mixed.
//! `signature_collision_free_over_1e5_subplans` (in `plan.rs`) pins the
//! posture in practice: ≥1e5 structurally distinct generated sub-plans must
//! produce pairwise-distinct signatures.

/// Streaming FNV-1a hasher with a splitmix64 finalizer.
#[derive(Debug, Clone, Copy)]
pub struct SigHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl SigHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        SigHasher(FNV_OFFSET)
    }

    /// Feed raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Feed a single tag byte (enum discriminants, structural markers).
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Feed a `u64` (e.g. a child sub-signature).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feed an `f64` by bit pattern (`-0.0` and `0.0` hash differently; the
    /// generators never emit `-0.0`, and NaN payloads are preserved).
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Feed a string with a terminator so `("ab", "c")` and `("a", "bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write_u8(0xff);
    }

    /// Finalize: splitmix64 over the FNV accumulator for full avalanche.
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
}
