//! Shard identity and the consistent-hash ring the router places
//! robots on.
//!
//! A *shard* is an ordinary [`Server`] — its own warmed engine, worker
//! pools, and event loops — plus an operator-assigned name announced in
//! hello (handshake) frames. The ring maps each robot name to its
//! owning shard with classic consistent hashing: every shard projects
//! [`VNODES_PER_SHARD`] virtual points onto a `u64` circle and a robot
//! belongs to the first point clockwise of its own hash. Adding or
//! removing one shard therefore remaps only ~1/N of the robots (the
//! hash-ring stability test pins this), which is what keeps per-shard
//! artifact stores warm across fleet resizes.
//!
//! Failover order is the ring walk: [`HashRing::preference`] yields the
//! owner first, then each distinct next shard clockwise — the router
//! tries them in order until it finds one alive.

use crate::engine::Engine;
use crate::server::{Server, ServerOptions};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

/// Virtual points each shard projects onto the ring. 64 keeps the
/// owner distribution within a few percent of uniform for small fleets
/// while the ring stays tiny (N×64 entries).
pub const VNODES_PER_SHARD: usize = 64;

/// The ring's hash: FNV-1a 64-bit with a 64-bit finalizer. Stable
/// across processes and runs (no `RandomState`), so router and tests
/// agree on ownership. Raw FNV-1a has weak high-bit avalanche on short
/// keys that share a prefix — exactly what robot and vnode names look
/// like — which clumps points on the circle; the finalizer (Murmur3's
/// fmix64) spreads them uniformly.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = roboshape_obs::hash::fnv1a64(bytes);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// One shard as the router's configuration lists it: the name hashed
/// onto the ring plus the address to dial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Operator-assigned shard name (ring identity).
    pub name: String,
    /// TCP address of the shard's serve port.
    pub addr: SocketAddr,
}

/// A consistent-hash ring over shard indices `0..n`.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard index)` sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring from shard names (typically the operator-assigned
    /// names in config order). Names, not indices, are hashed, so a
    /// fleet keeps its assignment when the config file reorders.
    pub fn new(shard_names: &[String]) -> HashRing {
        let mut points = Vec::with_capacity(shard_names.len() * VNODES_PER_SHARD);
        for (index, name) in shard_names.iter().enumerate() {
            for vnode in 0..VNODES_PER_SHARD {
                points.push((fnv64(format!("{name}#{vnode}").as_bytes()), index));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            shards: shard_names.len(),
        }
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards
    }

    /// `true` when built over zero shards.
    pub fn is_empty(&self) -> bool {
        self.shards == 0
    }

    /// The shard owning `key` (a robot name).
    ///
    /// # Panics
    ///
    /// If the ring is empty.
    pub fn owner(&self, key: &str) -> usize {
        self.preference(key)[0]
    }

    /// Every shard in failover order for `key`: the owner, then each
    /// distinct shard walking the ring clockwise. Always length
    /// [`HashRing::len`].
    ///
    /// # Panics
    ///
    /// If the ring is empty.
    pub fn preference(&self, key: &str) -> Vec<usize> {
        assert!(!self.points.is_empty(), "preference on an empty ring");
        let h = fnv64(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h) % self.points.len();
        let mut order = Vec::with_capacity(self.shards);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }
}

/// A named shard process: a [`Server`] plus its ring identity. The
/// in-process form the cluster tests use; `roboshape-cli serve --shard
/// NAME` is the same thing behind a TCP port.
pub struct Shard {
    name: String,
    server: Server,
}

impl Shard {
    /// Starts a shard named `name` serving `engine` on `addr`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start(
        name: impl Into<String>,
        engine: Engine,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Shard> {
        let name = name.into();
        let server = Server::start_with(
            engine,
            addr,
            ServerOptions {
                shard_name: name.clone(),
                loops: 1,
            },
        )?;
        Ok(Shard { name, server })
    }

    /// The shard's operator-assigned name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.server.port()
    }

    /// The engine behind this shard.
    pub fn engine(&self) -> &Engine {
        self.server.engine()
    }

    /// Orderly stop (drains in-flight requests).
    pub fn shutdown(self) {
        self.server.shutdown();
    }

    /// Crash-style stop: drops connections and in-flight work, exactly
    /// like a SIGKILL — what the cluster soak uses to exercise router
    /// failover.
    pub fn abort(self) {
        self.server.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard-{i}")).collect()
    }

    #[test]
    fn ring_owners_are_pinned() {
        // Routers and shards in different builds must agree on ownership,
        // so the ring hash is part of the wire contract.
        let ring = HashRing::new(&names(3));
        let owners: Vec<usize> = [
            "iiwa", "HyQ", "baxter", "jaco2", "jaco3", "hyq_arm", "snake",
        ]
        .iter()
        .map(|robot| ring.owner(robot))
        .collect();
        assert_eq!(owners, vec![2, 1, 2, 1, 1, 0, 0]);
        assert_eq!(fnv64(b"iiwa"), 0x13ab_874a_8b89_25d8);
    }

    #[test]
    fn ownership_is_deterministic_and_total() {
        let ring = HashRing::new(&names(3));
        for robot in ["iiwa", "HyQ", "atlas", "minitaur", "baxter", "snake"] {
            let a = ring.owner(robot);
            let b = ring.owner(robot);
            assert_eq!(a, b);
            assert!(a < 3);
        }
    }

    #[test]
    fn preference_lists_every_shard_once_owner_first() {
        let ring = HashRing::new(&names(4));
        let pref = ring.preference("iiwa");
        assert_eq!(pref.len(), 4);
        assert_eq!(pref[0], ring.owner("iiwa"));
        let mut sorted = pref.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn keys_spread_across_shards() {
        let ring = HashRing::new(&names(3));
        let mut counts = [0usize; 3];
        for i in 0..600 {
            counts[ring.owner(&format!("robot-{i}"))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (100..=340).contains(&count),
                "shard {shard} owns {count}/600 keys — far from uniform"
            );
        }
    }

    #[test]
    fn adding_a_shard_moves_about_one_over_n_keys() {
        let keys: Vec<String> = (0..2000).map(|i| format!("robot-{i}")).collect();
        let before = HashRing::new(&names(4));
        let mut grown = names(4);
        grown.push("shard-4".to_string());
        let after = HashRing::new(&grown);
        let moved = keys
            .iter()
            .filter(|k| before.owner(k) != after.owner(k))
            .count();
        // Ideal is 1/5 = 400 of 2000; allow generous slack for vnode
        // variance but rule out both "nothing moved" and "everything
        // rehashed" (a modulo hash would move ~80%).
        assert!(
            (200..=700).contains(&moved),
            "{moved}/2000 keys moved; consistent hashing should move ~400"
        );
        // Keys that didn't move kept their owner *name* (index equal
        // because the new shard was appended).
        for key in keys.iter().take(50) {
            if before.owner(key) == after.owner(key) {
                assert!(after.owner(key) < 5);
            }
        }
    }

    #[test]
    fn removing_the_owner_promotes_the_next_preference() {
        let ring = HashRing::new(&names(3));
        let pref = ring.preference("HyQ");
        // Rebuild the ring without the owner: the new owner must be the
        // old second preference (by name).
        let survivors: Vec<String> = names(3)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != pref[0])
            .map(|(_, n)| n)
            .collect();
        let reduced = HashRing::new(&survivors);
        let new_owner_name = survivors[reduced.owner("HyQ")].clone();
        assert_eq!(new_owner_name, format!("shard-{}", pref[1]));
    }
}
