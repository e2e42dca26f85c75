//! Criterion benches for the Reed–Solomon decoder at the two committee
//! sizes the benchmark of record runs the VSS coin at (c = 30 and 42,
//! t = ⌊(c − 1)/3⌋, k = t + 1): the table build, then one member's
//! reconstruction — c words through one [`Decoder`] — for honest words and
//! for words with 1, t/2 and t lies (errors placed from the front, so the
//! first k values are hit and the error-correcting path runs), and the
//! one-shot `decode` wrapper that rebuilds the tables per word.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pba_crypto::field::Fp;
use pba_crypto::poly::Polynomial;
use pba_crypto::prg::Prg;
use pba_crypto::reed_solomon::{decode, Decoder};

fn bench_decoder(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("reed_solomon");
    let mut prg = Prg::from_seed_bytes(b"bench-reed-solomon");
    for c in [30usize, 42] {
        let t = (c - 1) / 3;
        let k = t + 1;
        let xs: Vec<Fp> = (1..=c as u64).map(Fp::new).collect();
        group.bench_with_input(BenchmarkId::new("build", c), &xs, |b, xs| {
            b.iter(|| Decoder::new(xs, k).expect("distinct xs"));
        });

        let decoder = Decoder::new(&xs, k).expect("distinct xs");
        let clean: Vec<Vec<Fp>> = (0..c)
            .map(|_| {
                let poly = Polynomial::random_with_constant(Fp::random(&mut prg), t, &mut prg);
                xs.iter().map(|&x| poly.eval(x)).collect()
            })
            .collect();
        group.throughput(Throughput::Elements(c as u64));
        for (label, errors) in [
            ("clean", 0),
            ("errors_1", 1),
            ("errors_half_t", t / 2),
            ("errors_t", t),
        ] {
            let words: Vec<Vec<Fp>> = clean
                .iter()
                .map(|word| {
                    let mut word = word.clone();
                    for y in word.iter_mut().take(errors) {
                        *y += Fp::ONE;
                    }
                    word
                })
                .collect();
            group.bench_with_input(BenchmarkId::new(label, c), &words, |b, words| {
                b.iter(|| {
                    for word in words {
                        decoder.decode(word, t).expect("within the error budget");
                    }
                });
            });
        }

        let points: Vec<Vec<(Fp, Fp)>> = clean
            .iter()
            .map(|word| xs.iter().copied().zip(word.iter().copied()).collect())
            .collect();
        group.bench_with_input(BenchmarkId::new("one_shot", c), &points, |b, points| {
            b.iter(|| {
                for word in points {
                    decode(word, k, t).expect("clean codeword");
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decoder);
criterion_main!(benches);
