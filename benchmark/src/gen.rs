//! The benchmark's own input generator: splitmix64, a zipf CDF, a random
//! payload pool and the op stream.
//!
//! Nothing here calls into the program under test (`rain_sim::DetRng`,
//! `rain_storage::ZipfSampler`, ...), so no change to the program can alter
//! the inputs a `(workload, seed)` pair produces.

/// splitmix64: the whole state is one `u64`, every output passes BigCrush.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for every `n`
    /// the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The splitmix64 finaliser, also used as a stand-alone hash.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Rank `r` (0-based) drawn with probability proportional to
    /// `1 / (r + 1)^theta`; key id = rank.
    Zipf(f64),
}

/// Inverse-CDF sampler over `n` keys.
#[derive(Debug, Clone)]
pub struct KeySampler {
    n: u64,
    /// Cumulative zipf weights, empty for the uniform distribution.
    cdf: Vec<f64>,
}

impl KeySampler {
    pub fn new(dist: KeyDist, n: u32) -> Self {
        let cdf = match dist {
            KeyDist::Uniform => Vec::new(),
            KeyDist::Zipf(theta) => {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (0..n)
                    .map(|r| {
                        acc += 1.0 / ((r + 1) as f64).powf(theta);
                        acc
                    })
                    .collect();
                for c in &mut cdf {
                    *c /= acc;
                }
                cdf
            }
        };
        KeySampler { n: n as u64, cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        if self.cdf.is_empty() {
            return rng.below(self.n) as u32;
        }
        let u = rng.next_f64();
        (self.cdf.partition_point(|&c| c <= u) as u64).min(self.n - 1) as u32
    }
}

/// 4 MiB of seeded random bytes; an object's payload is the slice at an
/// offset hashed from `(key, version)`, so the oracle needs no copy of
/// anything it wrote.
#[derive(Debug)]
pub struct PayloadPool {
    bytes: Vec<u8>,
}

pub const POOL_BYTES: usize = 4 << 20;

impl PayloadPool {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x706f_6f6c);
        let mut bytes = Vec::with_capacity(POOL_BYTES);
        while bytes.len() < POOL_BYTES {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        PayloadPool { bytes }
    }

    /// The `len` bytes version `version` of key `key` holds.
    pub fn slice(&self, key: u32, version: u32, len: usize) -> &[u8] {
        let span = (self.bytes.len() - len + 1) as u64;
        let off = (mix64(((key as u64) << 32) | version as u64) % span) as usize;
        &self.bytes[off..off + len]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Put,
    Get,
    Del,
}

/// One client request. `version` is what a put writes and what a get must
/// read back; a delete carries the version it removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u32,
    pub version: u32,
}

/// Shares of the op mix, in percent; they add to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Get of a key drawn from the distribution.
    pub get: u32,
    /// Put over a key drawn from the distribution.
    pub overwrite: u32,
    /// Put of a key drawn uniformly (about half of them dead, so the live
    /// set settles where births balance the deletes).
    pub new_put: u32,
    /// Delete of a key drawn from the distribution.
    pub delete: u32,
}

/// The op stream of one workload phase. It keeps its own liveness model
/// (`version 0` = dead), so the stream is a pure function of the seed: a
/// get or delete that draws a dead key becomes a put of that key, and no
/// generated op can fail.
#[derive(Debug)]
pub struct OpGen {
    rng: SplitMix64,
    sampler: KeySampler,
    mix: Mix,
    /// Current version per key, 0 for a dead key.
    versions: Vec<u32>,
    /// Highest version a key ever had, so a re-created key never repeats a
    /// payload its previous life held.
    next_version: Vec<u32>,
    digest: u64,
}

impl OpGen {
    pub fn new(seed: u64, dist: KeyDist, keyspace: u32, mix: Mix) -> Self {
        assert_eq!(mix.get + mix.overwrite + mix.new_put + mix.delete, 100);
        OpGen {
            rng: SplitMix64::new(seed),
            sampler: KeySampler::new(dist, keyspace),
            mix,
            versions: vec![0; keyspace as usize],
            next_version: vec![1; keyspace as usize],
            digest: 0,
        }
    }

    /// Switch to another mix, keeping the model (a later phase of the same
    /// workload).
    pub fn set_mix(&mut self, mix: Mix) {
        assert_eq!(mix.get + mix.overwrite + mix.new_put + mix.delete, 100);
        self.mix = mix;
    }

    fn put(&mut self, key: u32) -> Op {
        let version = self.next_version[key as usize];
        self.next_version[key as usize] += 1;
        self.versions[key as usize] = version;
        Op {
            kind: OpKind::Put,
            key,
            version,
        }
    }

    /// The put that loads key `key` before the measured phase.
    pub fn preload(&mut self, key: u32) -> Op {
        let op = self.put(key);
        self.absorb(op);
        op
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100) as u32;
        let m = self.mix;
        let op = if roll < m.get {
            let key = self.sampler.sample(&mut self.rng);
            match self.versions[key as usize] {
                0 => self.put(key),
                version => Op {
                    kind: OpKind::Get,
                    key,
                    version,
                },
            }
        } else if roll < m.get + m.overwrite {
            let key = self.sampler.sample(&mut self.rng);
            self.put(key)
        } else if roll < m.get + m.overwrite + m.new_put {
            let key = self.rng.below(self.versions.len() as u64) as u32;
            self.put(key)
        } else {
            let key = self.sampler.sample(&mut self.rng);
            match std::mem::take(&mut self.versions[key as usize]) {
                0 => self.put(key),
                version => Op {
                    kind: OpKind::Del,
                    key,
                    version,
                },
            }
        };
        self.absorb(op);
        op
    }

    fn absorb(&mut self, op: Op) {
        let word = ((op.kind as u64) << 62) ^ ((op.key as u64) << 30) ^ op.version as u64;
        self.digest = mix64(self.digest ^ word);
    }

    /// 64-bit digest of every op generated so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// `(key, version)` of every live key, ascending by key.
    pub fn live(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.versions
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(k, &v)| (k as u32, v))
    }
}
