//! The live pipeline's two hashes: a stable one that decides where flows
//! live and what a daemon is called, and an internal one for the
//! per-packet maps.
//!
//! * **Stable — FNV-1a, byte at a time** ([`FnvHasher`], [`cell_of`]).
//!   [`cell_of`] folds the 12 key bytes (server address and port, client
//!   address and port, in that order) into a virtual cell, the
//!   shard-count-independent unit of ownership the parallel front end is
//!   built on: cell placement decides shed victims and quota denials, so
//!   it shows in the reports. [`crate::live::DaemonId::derived_from_path`]
//!   names a daemon by FNV-1a over its capture path, and every report
//!   carries that name. Neither may change without changing output; the
//!   tests pin both to fixed values.
//! * **Internal — a folded multiply per word** ([`FoldHasher`],
//!   [`FoldState`]). Every packet probes the flow map (and the dead map on
//!   the miss path). [`tcp_trace::flow::FlowKey`] hashes as two words, and
//!   this hasher mixes each with one 64×64→128-bit multiply whose halves
//!   are xor-ed. Only the maps see these values and nothing iterates
//!   them, so the function can change freely. Neither hash resists
//!   crafted collisions, which the live pipeline does not need: the keys
//!   come from a capture the operator already controls, and the maps are
//!   bounded by `max_flows` anyway.

use std::hash::{BuildHasherDefault, Hasher};

use tcp_trace::flow::FlowKey;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a, byte-at-a-time (the inputs hashed here are short).
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// Multiplier of [`FoldHasher`]'s fold: 2^64 over the golden ratio, odd.
const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The map hasher: each 64-bit word is xor-ed into the state, which is
/// then replaced by the two halves of its 128-bit product with
/// [`FOLD_MUL`], xor-ed together (both halves, so the low bits a table
/// indexes by depend on every input bit).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldHasher(u64);

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher(FNV_OFFSET)
    }
}

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * u128::from(FOLD_MUL);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    /// Any other input, eight bytes (zero-padded) at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// `BuildHasher` plugging [`FoldHasher`] into `std` maps:
/// `HashMap<K, V, FoldState>`.
pub(crate) type FoldState = BuildHasherDefault<FoldHasher>;

/// Stable (hasher-independent) cell placement: FNV-1a over the key bytes,
/// modulo the cell count. A flow's cell depends only on its 4-tuple and
/// the (shard-count-independent) cell count, and a shard owns cell `c`
/// iff `c % shards == shard` — so every cross-flow decision made within
/// one cell (LRU shed victims, quota denials) is identical at any shard
/// count.
pub fn cell_of(key: &FlowKey, ncells: usize) -> usize {
    let mut h: u64 = FNV_OFFSET;
    let eat = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(FNV_PRIME);
    for b in key.server_ip {
        h = eat(h, b);
    }
    for b in key.server_port.to_be_bytes() {
        h = eat(h, b);
    }
    for b in key.client_ip {
        h = eat(h, b);
    }
    for b in key.client_port.to_be_bytes() {
        h = eat(h, b);
    }
    (h % ncells as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn known_fnv1a_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = FnvHasher::default();
            h.write(bytes);
            h.finish()
        };
        // Reference vectors from the FNV specification.
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn usable_as_map_hasher() {
        let mut m: HashMap<u64, u32, FoldState> = HashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i as u32);
        }
        assert_eq!(m.get(&977), Some(&977));
        assert_eq!(m.len(), 1000);
        let mut keys: HashMap<FlowKey, u32, FoldState> = HashMap::default();
        for i in 0..1000 {
            keys.insert(FlowKey::synthetic(i * 4099), i);
        }
        assert!((0..1000).all(|i| keys[&FlowKey::synthetic(i * 4099)] == i));
    }

    #[test]
    fn flow_keys_that_differ_anywhere_hash_apart() {
        // One flipped bit anywhere in the key moves the low bits a table
        // indexes by, and nearly always the top seven bits its control
        // bytes hold (each of 128 values is equally likely).
        let state = FoldState::default();
        let mut top_moved = 0;
        let base = FlowKey {
            server_ip: [10, 0, 0, 1],
            server_port: 443,
            client_ip: [192, 168, 7, 9],
            client_port: 50_000,
        };
        let h0 = state.hash_one(base);
        for bit in 0..96 {
            let mut bytes = [0u8; 12];
            bytes[..4].copy_from_slice(&base.server_ip);
            bytes[4..6].copy_from_slice(&base.server_port.to_be_bytes());
            bytes[6..10].copy_from_slice(&base.client_ip);
            bytes[10..].copy_from_slice(&base.client_port.to_be_bytes());
            bytes[bit / 8] ^= 1 << (bit % 8);
            let k = FlowKey {
                server_ip: bytes[..4].try_into().unwrap(),
                server_port: u16::from_be_bytes([bytes[4], bytes[5]]),
                client_ip: bytes[6..10].try_into().unwrap(),
                client_port: u16::from_be_bytes([bytes[10], bytes[11]]),
            };
            let h = state.hash_one(k);
            assert_ne!(h & 0xffff, h0 & 0xffff, "bit {bit}: low bits");
            top_moved += usize::from(h >> 57 != h0 >> 57);
        }
        assert!(top_moved >= 90, "top bits moved for {top_moved} of 96");
        // The key hashes as exactly two words.
        let mut two = FoldHasher::default();
        two.write_u64(0x0100_000a_0907_a8c0);
        two.write_u64(443 << 16 | 50_000);
        let mut h = FoldHasher::default();
        base.hash(&mut h);
        assert_eq!(h.finish(), two.finish());
    }

    #[test]
    fn cell_placement_is_stable_and_spread() {
        let k = FlowKey::synthetic(123);
        assert_eq!(cell_of(&k, 64), cell_of(&k, 64));
        assert_eq!(cell_of(&k, 1), 0);
        // Distribution sanity: 256 keys over 8 cells leaves none empty.
        let mut counts = [0usize; 8];
        for i in 0..256 {
            counts[cell_of(&FlowKey::synthetic(i), 8)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "degenerate spread: {counts:?}"
        );
        // Cell placement decides shed victims and quota denials, so it is
        // part of the output: these values are FNV-1a over the key bytes
        // and must never move.
        for (id, cells64, cells7) in [
            (0, 59, 3),
            (1, 48, 1),
            (123, 2, 1),
            (65_537, 35, 4),
            (0xdead_beef, 61, 4),
        ] {
            let k = FlowKey::synthetic(id);
            assert_eq!(cell_of(&k, 64), cells64, "synthetic({id}) of 64");
            assert_eq!(cell_of(&k, 7), cells7, "synthetic({id}) of 7");
        }
        let k = FlowKey {
            server_ip: [203, 0, 113, 9],
            server_port: 443,
            client_ip: [198, 51, 100, 200],
            client_port: 61_000,
        };
        assert_eq!(cell_of(&k, 64), 21);
        assert_eq!(cell_of(&k, 1000), 85);
    }
}
