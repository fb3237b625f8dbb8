//! Every ratchet key over eight seeds: `paper_scale.rs`'s 300-day
//! `harness all` at seed 1996 and at seeds 1 to 7. Per key, the mean,
//! standard deviation, minimum and maximum of `err_pct` over the eight
//! must equal `golden/fidelity_seeds.tsv` byte for byte, and the paper's
//! seven orderings (`paper_shapes.rs`) must hold on every seed. One seed
//! says little about a key that moves by less than its spread; a change
//! that means to move bytes compares its per-seed `err_pct` table,
//! printed under `--nocapture`, with its parent's, seed by seed.
//!
//! Ignored in the debug tier; CI `smoke` runs it in release, about 11 s
//! on two cores:
//! `cargo test --release -p harness --test seed_band -- --ignored --nocapture`.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use common::{err_pct, fidelity, files, measured, split, ORDERINGS};
use harness::ctx::Options;
use harness::driver::{self, EXHIBITS};

/// Seed 1996, the ratchet's, first.
const SEEDS: [u64; 8] = [1996, 1, 2, 3, 4, 5, 6, 7];

/// The files of a cold 300-day `harness all` at `seed`.
fn run(seed: u64) -> BTreeMap<String, String> {
    let name = format!("harness-seeds-{}-{seed}", std::process::id());
    let out = std::env::temp_dir().join(name);
    let o = Options {
        seed,
        out_dir: out.to_str().unwrap().to_string(),
        jobs: 2,
        no_cache: true,
        quiet: true,
        ..Options::default()
    };
    assert!(driver::run(&o, EXHIBITS).expect("driver runs").all_ok());
    let files = files(&out);
    let _ = fs::remove_dir_all(&out);
    files
}

/// The mean, sample standard deviation, minimum and maximum of `v`.
fn band(v: &[f64]) -> (f64, f64, f64, f64) {
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    let sd = (v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
    let min = v.iter().copied().fold(f64::MAX, f64::min);
    let max = v.iter().copied().fold(f64::MIN, f64::max);
    (mean, sd, min, max)
}

#[test]
#[ignore = "eight paper-scale runs: run in release with --ignored"]
fn every_key_over_eight_seeds() {
    // The keys and their paper values, in the ratchet's order.
    let keys: Vec<(&str, f64)> = split(fidelity())[1..]
        .iter()
        .map(|r| (r[0], r[1].parse().unwrap()))
        .collect();
    let mut errs: Vec<Vec<f64>> = vec![Vec::new(); keys.len()];
    let mut broken = Vec::new();
    for seed in SEEDS {
        let files = run(seed);
        for (name, _) in ORDERINGS {
            let b = common::broken(&files, name);
            broken.extend(b.into_iter().map(|b| format!("seed {seed}: {name}: {b}")));
        }
        let m = measured(&files);
        for (e, (key, paper)) in errs.iter_mut().zip(&keys) {
            e.push(err_pct(*m.get(key).expect(key), *paper));
        }
    }
    let seeds: Vec<_> = SEEDS.iter().map(u64::to_string).collect();
    println!("key\t{}", seeds.join("\t"));
    let mut table = "key\tmean\tsd\tmin\tmax\n".to_string();
    for (e, (key, _)) in errs.iter().zip(&keys) {
        let cells: Vec<_> = e.iter().map(|x| format!("{x:+.2}")).collect();
        println!("{key}\t{}", cells.join("\t"));
        let (mean, sd, min, max) = band(e);
        table += &format!("{key}\t{mean:+.2}\t{sd:.2}\t{min:+.2}\t{max:+.2}\n");
    }
    assert!(
        broken.is_empty(),
        "orderings broken:\n{}",
        broken.join("\n")
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fidelity_seeds.tsv");
    let committed = fs::read_to_string(path).unwrap_or_default();
    assert!(
        table == committed,
        "golden/fidelity_seeds.tsv differs; computed table:\n{table}"
    );
}
