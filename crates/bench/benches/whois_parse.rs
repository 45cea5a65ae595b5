//! Benches for bulk-WHOIS parsing throughput: RPSL, ARIN, and LACNIC
//! flavours over generated dump text, plus delegation-tree build.

use std::hint::black_box;

use p2o_bench::timing::{bench, bench_throughput, group};
use p2o_synth::{World, WorldConfig};
use p2o_whois::{Registry, WhoisDb};

fn dumps() -> Vec<(Registry, String)> {
    let world = World::generate(WorldConfig::default_scale(0xBE7C));
    world
        .whois_dumps
        .iter()
        .map(|d| (d.registry, d.text.clone()))
        .collect()
}

fn bench_parse(dumps: &[(Registry, String)]) {
    group("whois_parse");
    for (registry, text) in dumps {
        bench_throughput(&format!("{registry}"), text.len() as u64, || {
            let mut db = WhoisDb::new();
            db.add_dump(black_box(text), *registry, 1);
            black_box(db.record_count())
        });
    }
}

fn bench_tree_build(dumps: &[(Registry, String)]) {
    group("whois_tree_build");
    bench("whois_tree_build", || {
        let mut db = WhoisDb::new();
        for (registry, text) in dumps {
            db.add_dump(text, *registry, 1);
        }
        let (tree, stats) = db.build();
        black_box((tree.len(), stats))
    });
}

fn main() {
    let dumps = dumps();
    bench_parse(&dumps);
    bench_tree_build(&dumps);
}
