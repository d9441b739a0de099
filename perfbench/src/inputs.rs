//! Seeded inputs for every workload.
//!
//! The program under test sees only what these functions generate. Each
//! workload draws from its own stream of the seed, so adding a workload
//! never changes another one's inputs. Where an input's cost depends on
//! a property drawn from a distribution (payload size, where an event
//! lands), every seed gets the distribution's exact shares in its own
//! order, so that seeds differ in order and content, not in how much
//! work a script holds.

use clam_windows::{InputEvent, MouseButton, Point, Rect};

/// Length of every per-client input script; loops cycle through it.
pub const SCRIPT_LEN: usize = 4096;

/// SplitMix64: a small, fast, well-mixed generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream named `tag` of `seed`.
    #[must_use]
    pub fn stream(seed: u64, tag: u64) -> SplitMix64 {
        let mut s = SplitMix64(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffle `items` in place (Fisher–Yates).
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64) as usize);
        }
    }

    /// `n` stratified draws in `[0, 1)`, the `j`-th inside `[j/n, (j+1)/n)`,
    /// in ascending order.
    fn strata(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| (j as f64 + self.unit()) / n as f64)
            .collect()
    }
}

/// `n` items in a seeded order, each `(item, share)` making up `share`
/// parts of the shares' sum (rounded down; the last item fills the
/// remainder).
fn exact_mix<T: Copy>(rng: &mut SplitMix64, n: usize, shares: &[(T, usize)]) -> Vec<T> {
    let total: usize = shares.iter().map(|s| s.1).sum();
    let mut out = Vec::with_capacity(n);
    for &(item, share) in shares {
        out.extend(std::iter::repeat(item).take(n * share / total));
    }
    let last = shares.last().expect("at least one share").0;
    out.resize(n, last);
    rng.shuffle(&mut out);
    out
}

// ---------------------------------------------------------------------
// rpc_sync
// ---------------------------------------------------------------------

/// Echo arguments for `client` (0 or 1). The low bit names the client,
/// so the server-side handler knows whose call it is serving.
#[must_use]
pub fn echo_args(seed: u64, client: u32) -> Vec<u32> {
    let mut rng = SplitMix64::stream(seed, 1 + u64::from(client));
    (0..SCRIPT_LEN)
        .map(|_| (rng.next_u64() as u32 & !1) | (client & 1))
        .collect()
}

// ---------------------------------------------------------------------
// rpc_batched
// ---------------------------------------------------------------------

/// Pool of argument payloads for the batched sink: nine in ten are
/// 4–64 bytes (uniform), the rest log-uniform from 65 bytes up to 4 KiB.
/// Sizes are stratified draws, so every seed's pool holds the same
/// amount of each size band; the seed picks sizes within the bands,
/// their order and the bytes.
#[must_use]
pub fn payloads(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::stream(seed, 10);
    let tail = SCRIPT_LEN / 10;
    let mut lens: Vec<u64> = rng
        .strata(SCRIPT_LEN - tail)
        .into_iter()
        .map(|u| 4 + (u * 61.0) as u64)
        .collect();
    // 2^(6..12], uniform in the exponent.
    lens.extend(
        rng.strata(tail)
            .into_iter()
            .map(|u| (2f64.powf(6.0 + u * 6.0) as u64).clamp(65, 4096)),
    );
    rng.shuffle(&mut lens);
    lens.into_iter()
        .map(|len| (0..len).map(|_| rng.next_u64() as u8).collect())
        .collect()
}

/// A cheap word-wise hash of a payload, used by the sink and the client
/// to agree on what was delivered.
#[must_use]
pub fn payload_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fold one delivered call into an order-sensitive running checksum.
#[must_use]
pub fn fold_checksum(acc: u64, seq: u64, hash: u64) -> u64 {
    (acc ^ hash ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(7)
}

// ---------------------------------------------------------------------
// upcall_input
// ---------------------------------------------------------------------

/// Window A, registered by client 0.
pub const WINDOW_A: Rect = Rect {
    origin: Point { x: 20, y: 20 },
    size: clam_windows::Size {
        width: 180,
        height: 160,
    },
};
/// Window B, registered by client 1.
pub const WINDOW_B: Rect = Rect {
    origin: Point { x: 230, y: 20 },
    size: clam_windows::Size {
        width: 180,
        height: 160,
    },
};
/// The shared window S, registered by both clients.
pub const WINDOW_S: Rect = Rect {
    origin: Point { x: 440, y: 20 },
    size: clam_windows::Size {
        width: 180,
        height: 160,
    },
};
/// Bare desktop, below every window: events here are unclaimed.
const DESKTOP: Rect = Rect {
    origin: Point { x: 10, y: 240 },
    size: clam_windows::Size {
        width: 620,
        height: 230,
    },
};

/// Where a scripted event lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hit {
    /// Window A: one upcall, to client 0.
    A,
    /// Window B: one upcall, to client 1.
    B,
    /// Window S: two upcalls, one to each client.
    Shared,
    /// No window: queued as unclaimed, no upcall.
    Nothing,
}

impl Hit {
    /// Upcalls `Desktop::inject` performs for an event landing here.
    #[must_use]
    pub fn deliveries(self) -> u32 {
        match self {
            Hit::A | Hit::B => 1,
            Hit::Shared => 2,
            Hit::Nothing => 0,
        }
    }

    /// Whether client `c`'s handler is upcalled for this event.
    #[must_use]
    pub fn reaches(self, c: usize) -> bool {
        matches!((self, c), (Hit::A, 0) | (Hit::B, 1) | (Hit::Shared, _))
    }
}

/// One scripted input event and where it lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scripted {
    /// The raw event handed to `Desktop::inject`.
    pub event: InputEvent,
    /// Where it lands.
    pub hit: Hit,
}

/// The injecting client of a scripted event: the parity of its `y`.
#[must_use]
pub fn injector_of(event: &InputEvent) -> usize {
    event.position().map_or(0, |p| (p.y & 1) as usize)
}

/// `client`'s event script: exactly 30% window A, 30% B, 25% S, 15%
/// bare desktop; 60% moves, 20% presses, 20% releases, each in a seeded
/// order. Every point's `y` has the client's parity, so an upcall
/// handler can tell who injected it.
#[must_use]
pub fn event_script(seed: u64, client: u32) -> Vec<Scripted> {
    let mut rng = SplitMix64::stream(seed, 20 + u64::from(client));
    let hits = exact_mix(
        &mut rng,
        SCRIPT_LEN,
        &[
            (Hit::A, 30),
            (Hit::B, 30),
            (Hit::Shared, 25),
            (Hit::Nothing, 15),
        ],
    );
    let kinds = exact_mix(&mut rng, SCRIPT_LEN, &[(0u8, 20), (1, 20), (2, 60)]);
    hits.into_iter()
        .zip(kinds)
        .map(|(hit, kind)| {
            let rect = match hit {
                Hit::A => WINDOW_A,
                Hit::B => WINDOW_B,
                Hit::Shared => WINDOW_S,
                Hit::Nothing => DESKTOP,
            };
            let x = rect.origin.x + 4 + rng.range(0, u64::from(rect.size.width) - 8) as i32;
            let half = (rect.size.height - 8) / 2;
            let y = rect.origin.y + 4 + 2 * rng.range(0, u64::from(half) - 1) as i32;
            let p = Point::new(x, y + (client & 1) as i32);
            let event = match kind {
                0 => InputEvent::MouseDown(p, MouseButton::Left),
                1 => InputEvent::MouseUp(p, MouseButton::Left),
                _ => InputEvent::MouseMove(p),
            };
            Scripted { event, hit }
        })
        .collect()
}

// ---------------------------------------------------------------------
// cluster_forward
// ---------------------------------------------------------------------

/// Increments for `Counter::incr`, each in `1..=16`.
#[must_use]
pub fn incr_amounts(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::stream(seed, 30);
    (0..SCRIPT_LEN).map(|_| rng.range(1, 16)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(echo_args(7, 0), echo_args(7, 0));
        assert_eq!(payloads(7), payloads(7));
        assert_eq!(event_script(7, 1), event_script(7, 1));
        assert_eq!(incr_amounts(7), incr_amounts(7));
    }

    #[test]
    fn other_seed_other_inputs() {
        assert_ne!(echo_args(7, 0), echo_args(8, 0));
        assert_ne!(payloads(7), payloads(8));
        assert_ne!(event_script(7, 0), event_script(8, 0));
        assert_ne!(incr_amounts(7), incr_amounts(8));
        assert_ne!(event_script(7, 0), event_script(7, 1));
    }

    #[test]
    fn echo_args_carry_the_client() {
        assert!(echo_args(3, 0).iter().all(|x| x & 1 == 0));
        assert!(echo_args(3, 1).iter().all(|x| x & 1 == 1));
    }

    #[test]
    fn payload_sizes_have_the_promised_shape() {
        let p = payloads(11);
        assert!(p.iter().all(|b| (4..=4096).contains(&b.len())));
        let small = p.iter().filter(|b| b.len() <= 64).count();
        assert_eq!(small, SCRIPT_LEN - SCRIPT_LEN / 10);
        assert!(p.iter().any(|b| b.len() > 2048));
    }

    #[test]
    fn seeds_share_the_amount_of_work() {
        let bytes = |seed| payloads(seed).iter().map(Vec::len).sum::<usize>() as f64;
        let hits = |seed| {
            let mut n = [0usize; 4];
            for s in event_script(seed, 0) {
                n[s.hit as usize] += 1;
            }
            n
        };
        for seed in 1..8 {
            assert!((bytes(seed) / bytes(0) - 1.0).abs() < 0.01);
            assert_eq!(hits(seed), hits(0));
        }
        assert_eq!(hits(0), [1228, 1228, 1024, 616]);
    }

    #[test]
    fn events_land_where_the_script_says() {
        for client in 0..2 {
            for s in event_script(5, client) {
                let p = s.event.position().unwrap();
                assert_eq!(injector_of(&s.event), client as usize);
                let inside = |r: Rect| r.contains(p);
                let landed = [
                    (Hit::A, inside(WINDOW_A)),
                    (Hit::B, inside(WINDOW_B)),
                    (Hit::Shared, inside(WINDOW_S)),
                ]
                .into_iter()
                .find(|(_, hit)| *hit)
                .map_or(Hit::Nothing, |(h, _)| h);
                assert_eq!(landed, s.hit);
            }
        }
    }

    #[test]
    fn hash_and_checksum_see_every_byte_and_order() {
        assert_ne!(payload_hash(&[1, 2, 3]), payload_hash(&[1, 2, 4]));
        assert_ne!(payload_hash(&[0]), payload_hash(&[0, 0]));
        let a = fold_checksum(fold_checksum(0, 1, 10), 2, 20);
        let b = fold_checksum(fold_checksum(0, 2, 20), 1, 10);
        assert_ne!(a, b);
    }
}
