//! Criterion benches for the multi-lane batched SHA-256 engine: every
//! group times the scalar reference path against the batched path over
//! identical inputs, so regressions in either the lane core or the
//! batching glue show up as a ratio change.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pba_crypto::lamport::{LamportKeyPair, LamportParams};
use pba_crypto::merkle::{hash_leaf, hash_leaf_batch, MerkleTree};
use pba_crypto::prg::Prg;
use pba_crypto::sha256::{batch_digest, Backend, Digest, Sha256, DIGEST_LEN};
use rand::RngCore;

fn bench_batch_digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_digest");
    for count in [64usize, 1024] {
        let inputs: Vec<Vec<u8>> = (0..count as u64)
            .map(|i| {
                let mut v = i.to_le_bytes().to_vec();
                v.resize(DIGEST_LEN, 0x3c);
                v
            })
            .collect();
        let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(BenchmarkId::new("scalar", count), &refs, |b, refs| {
            b.iter(|| refs.iter().map(|i| Sha256::digest(i)).collect::<Vec<_>>());
        });
        group.bench_with_input(BenchmarkId::new("batched", count), &refs, |b, refs| {
            b.iter(|| batch_digest(refs));
        });
    }
    group.finish();
}

/// The portable cores called directly, whatever backend is active: the
/// scalar core one 32-byte message (the Lamport / Merkle shape) at a time
/// against the 8-lane core over the same messages.
fn bench_portable_cores(c: &mut Criterion) {
    let mut group = c.benchmark_group("portable_cores");
    let count = 1024usize;
    let messages: Vec<[u8; DIGEST_LEN]> = (0..count as u64)
        .map(|i| Sha256::digest(&i.to_le_bytes()).into_bytes())
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
    group.throughput(Throughput::Elements(count as u64));
    group.bench_with_input(BenchmarkId::new("scalar", count), &refs, |b, refs| {
        b.iter(|| {
            refs.iter()
                .map(|m| Backend::PORTABLE.digest(m))
                .collect::<Vec<_>>()
        });
    });
    group.bench_with_input(BenchmarkId::new("lanes", count), &refs, |b, refs| {
        b.iter(|| Backend::PORTABLE.batch_digest(refs));
    });
    group.finish();
}

fn bench_merkle_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle_build");
    for n in [256usize, 4096] {
        let digests: Vec<Digest> = (0..n as u64)
            .map(|i| Sha256::digest(&i.to_le_bytes()))
            .collect();
        group.bench_with_input(BenchmarkId::new("scalar", n), &digests, |b, digests| {
            b.iter(|| MerkleTree::from_leaf_digests_scalar(digests.clone()));
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &digests, |b, digests| {
            b.iter(|| MerkleTree::from_leaf_digests(digests.clone()));
        });
    }
    group.finish();
}

fn bench_leaf_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("leaf_hash");
    let n = 1024usize;
    let payloads: Vec<Vec<u8>> = (0..n as u64).map(|i| i.to_le_bytes().to_vec()).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::new("scalar", n), &refs, |b, refs| {
        b.iter(|| refs.iter().map(|p| hash_leaf(p)).collect::<Vec<_>>());
    });
    group.bench_with_input(BenchmarkId::new("batched", n), &refs, |b, refs| {
        b.iter(|| hash_leaf_batch(refs));
    });
    group.finish();
}

fn bench_lamport_keygen(c: &mut Criterion) {
    let mut group = c.benchmark_group("lamport_keygen");
    group.sample_size(20);
    let params = LamportParams::new(128);
    let count = 16usize;
    group.bench_function(BenchmarkId::new("scalar", count), |b| {
        b.iter(|| {
            let mut prg = Prg::from_seed_bytes(b"bench-keygen");
            (0..count)
                .map(|_| LamportKeyPair::generate_scalar(&params, &mut prg))
                .collect::<Vec<_>>()
        });
    });
    group.bench_function(BenchmarkId::new("batched", count), |b| {
        b.iter(|| {
            let mut prg = Prg::from_seed_bytes(b"bench-keygen");
            LamportKeyPair::generate_many(&params, &mut prg, count)
        });
    });
    group.finish();
}

fn bench_prg_expand(c: &mut Criterion) {
    let mut group = c.benchmark_group("prg_expand");
    let bytes = 1usize << 20;
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("scalar", |b| {
        let mut out = vec![0u8; bytes];
        b.iter(|| {
            let mut prg = Prg::from_seed_bytes(b"bench-prg");
            prg.fill_bytes_scalar(&mut out);
        });
    });
    group.bench_function("batched", |b| {
        let mut out = vec![0u8; bytes];
        b.iter(|| {
            let mut prg = Prg::from_seed_bytes(b"bench-prg");
            prg.fill_bytes(&mut out);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_digest,
    bench_portable_cores,
    bench_merkle_build,
    bench_leaf_hash,
    bench_lamport_keygen,
    bench_prg_expand
);
criterion_main!(benches);
