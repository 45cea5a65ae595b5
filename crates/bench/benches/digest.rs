//! Benches for the FNV-1a kernels behind the integrity pass that `fsck`,
//! `serve`'s boot and `/reload`, `explain` and `build` run over a data
//! directory: the two-state update over one 16 MiB buffer (one file's two
//! digests), and the lockstep kernel over two (two files' four digests
//! per loop step). FNV-1a is one dependent xor-multiply per byte, so a
//! step costs its multiply's latency however many independent chains it
//! advances; the `per file byte` rows show what the pass's two lanes save.

use std::hint::black_box;

use p2o_bench::timing::{bench, group};
use p2o_util::digest::{fnv1a_64_lockstep, fnv1a_64_update2, FNV1A_INIT};

const BUFFER: usize = 16 << 20;

fn buffer(seed: u64) -> Vec<u8> {
    (0..BUFFER as u64)
        .map(|i| (i.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect()
}

fn main() {
    let (x, y) = (buffer(1), buffer(2));
    group("fnv1a");
    let one = bench("update2_16MiB", || {
        fnv1a_64_update2(black_box([FNV1A_INIT; 2]), black_box(&x))
    });
    let two = bench("lockstep_2x16MiB", || {
        fnv1a_64_lockstep(
            black_box([[FNV1A_INIT; 2]; 2]),
            [black_box(&x), black_box(&y)],
        )
    });
    let per_byte = |ns: f64, bytes: usize| ns / bytes as f64;
    println!(
        "update2: {:.3} ns per file byte; lockstep: {:.3} ns per loop step, {:.3} ns per file byte",
        per_byte(one, BUFFER),
        per_byte(two, BUFFER),
        per_byte(two, 2 * BUFFER)
    );
}
