//! Generated inputs: a seeded generator, a Zipf sampler and
//! self-describing records.
//!
//! Everything the program under test sees is made here from the
//! `--seed` argument, so one seed always yields the same op streams and
//! the same bytes.

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `lane` separates independent streams of one
    /// seed (one per client, one per purpose).
    pub fn new(seed: u64, lane: u64) -> Rng {
        Rng(mix(seed ^ mix(lane.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf(θ) over `n` items. Rank 0 is the most popular; a seeded
/// permutation maps ranks to item indices so the hot set is spread over
/// the whole file (and so over every device of the stripe).
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<u64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64, rng: &mut Rng) -> Zipf {
        assert!(n > 0, "Zipf needs at least one item");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut items: Vec<u64> = (0..n).collect();
        for i in (1..items.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
        Zipf { cdf, items }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.items[rank]
    }
}

const WORD_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fill `buf` with a self-describing record: word 0 is `tag`, word 1 is
/// `version`, and every later word is derived from both, the run's
/// `salt` and the word's position, so a record that was misplaced,
/// torn, stale from another run or shifted within itself fails
/// [`check`].
pub fn fill(buf: &mut [u8], tag: u64, version: u64, salt: u64) {
    assert!(
        buf.len() >= 16 && buf.len().is_multiple_of(8),
        "record size"
    );
    let base = payload_base(tag, version, salt);
    for (i, w) in buf.chunks_exact_mut(8).enumerate() {
        let v = match i {
            0 => tag,
            1 => version,
            _ => base.wrapping_add((i as u64).wrapping_mul(WORD_STEP)),
        };
        w.copy_from_slice(&v.to_le_bytes());
    }
}

/// Verify a record written by [`fill`] and return its `(tag, version)`.
pub fn check(buf: &[u8], salt: u64) -> Result<(u64, u64), String> {
    let word = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[i * 8..i * 8 + 8]);
        u64::from_le_bytes(b)
    };
    let (tag, version) = (word(0), word(1));
    let base = payload_base(tag, version, salt);
    for i in 2..buf.len() / 8 {
        let want = base.wrapping_add((i as u64).wrapping_mul(WORD_STEP));
        if word(i) != want {
            return Err(format!(
                "record tag {tag:#x} version {version:#x}: word {i} is {:#x}, expected {want:#x}",
                word(i)
            ));
        }
    }
    Ok((tag, version))
}

fn payload_base(tag: u64, version: u64, salt: u64) -> u64 {
    mix(tag ^ mix(version ^ mix(salt)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_and_catch_damage() {
        let mut buf = vec![0u8; 4096];
        fill(&mut buf, 42, 7, 99);
        assert_eq!(check(&buf, 99), Ok((42, 7)));
        assert!(check(&buf, 98).is_err(), "another run's salt");
        let mut torn = buf.clone();
        torn[2048] ^= 1;
        assert!(check(&torn, 99).is_err(), "flipped bit");
        let mut other = vec![0u8; 4096];
        fill(&mut other, 43, 7, 99);
        torn[2048..].copy_from_slice(&other[2048..]);
        torn[2048] = buf[2048];
        assert!(check(&torn, 99).is_err(), "half of another record");
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(5, 1), Rng::new(5, 1));
        let mut c = Rng::new(5, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(1, 0);
        let z = Zipf::new(1000, 0.99, &mut rng);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let hottest = z.items[0] as usize;
        assert!(counts[hottest] > 10 * counts[z.items[500] as usize].max(1));
        assert!(counts[hottest] > 8_000, "rank 0 holds ~13% of draws");
    }
}
