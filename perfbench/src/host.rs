//! The host's speed, measured next to every repetition.
//!
//! The benchmark runs on shared hardware whose speed drifts in phases
//! lasting from seconds to minutes, through cache and memory contention
//! from other tenants. A fixed reference kernel, which runs no
//! repository code, is timed between repetitions. Each repetition's
//! times are divided by the kernel's slowdown against its quiet-host
//! time, so a run that falls inside a slow phase reads about as it
//! would on a quiet host.
//!
//! The kernel touches the memory hierarchy the way the workloads do:
//! point lookups in an ordered map, a scan over many small per-node
//! lists with a lookup into a shared flag table, and a dependent
//! arithmetic chain. Everything it touches is built once and it
//! allocates nothing while timed, so the heap the workloads leave
//! behind cannot change its speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the baseline host in a quiet phase: the lower
/// quartile of 600 back-to-back timings on a 2-vCPU Intel Xeon at
/// 2.1 GHz. It only sets the scale: on that host, an adjusted time reads
/// like a wall time measured in a quiet phase.
pub const QUIET_S: f64 = 0.086;

const TREE_KEYS: usize = 1 << 17;
const LOOKUPS: usize = 400_000;
const LISTS: usize = 1000;
const FLAGS: usize = 1 << 20;
const SCANS: usize = 12;
const CHAIN: u64 = 10_000_000;

/// A splitmix64 stream, so the kernel's inputs never change.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The reference kernel's inputs.
pub struct Reference {
    tree: BTreeMap<u64, u64>,
    lists: Vec<Vec<(u32, Option<u64>)>>,
    flags: Vec<bool>,
}

impl Reference {
    /// Builds the inputs and runs the kernel once, untimed.
    pub fn new() -> Self {
        let mut s = Stream(0x5EED);
        let tree = (0..TREE_KEYS as u64).map(|i| (s.next() >> 24, i)).collect();
        let lists = (0..LISTS)
            .map(|_| {
                let len = 50 + (s.next() % 100) as usize;
                (0..len)
                    .map(|_| {
                        let x = s.next();
                        (x as u32, (x % 3 == 0).then_some(x))
                    })
                    .collect()
            })
            .collect();
        let flags = (0..FLAGS).map(|_| s.next() % 50 == 0).collect();
        let reference = Reference { tree, lists, flags };
        // Once untimed, so the first timing does not find the inputs
        // fresh in cache from their construction.
        reference.time();
        reference
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn time(&self) -> f64 {
        let started = Instant::now();
        let mut acc = 0u64;
        let mut probes = Stream(0x9E57);
        for _ in 0..LOOKUPS {
            if let Some((_, v)) = self.tree.range(..=probes.next() >> 24).next_back() {
                acc = acc.wrapping_add(*v);
            }
        }
        for _ in 0..SCANS {
            for list in &self.lists {
                for &(key, stamp) in list {
                    match stamp {
                        Some(t) => acc = acc.wrapping_add(t),
                        None if !self.flags[key as usize % FLAGS] => acc = acc.wrapping_add(1),
                        None => {}
                    }
                }
            }
        }
        let mut x = acc | 1;
        for _ in 0..CHAIN {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407)
                ^ (x >> 13);
        }
        black_box(x);
        started.elapsed().as_secs_f64()
    }
}
