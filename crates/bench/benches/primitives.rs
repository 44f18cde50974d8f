//! X3/X4: the communication primitives — Lemma 2.4 broadcast and
//! Lemma 5.5 k-source h-hop BFS — benchmarked for simulation wall-clock,
//! with their round counts checked against the paper bounds on the fly.

use congest::bfs_tree::build_bfs_tree;
use congest::broadcast::broadcast;
use congest::multi_bfs::{default_budget, multi_source_bfs, MultiBfsConfig};
use congest::Network;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::gen::random_digraph;

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("lemma2.4_broadcast");
    group.sample_size(10);
    for &(n, m_items) in &[(256usize, 200usize), (512, 400), (1024, 800)] {
        let g = random_digraph(n, 3 * n, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_M{m_items}")),
            &(n, m_items),
            |b, &(n, m_items)| {
                b.iter(|| {
                    let mut net = Network::new(&g);
                    let (tree, _) = build_bfs_tree(&mut net, 0).expect("connected");
                    let items: Vec<Vec<u64>> = (0..n)
                        .map(|v| if v < m_items { vec![v as u64] } else { vec![] })
                        .collect();
                    let (stream, stats) = broadcast(&mut net, &tree, items, |_| 16, "bc");
                    // Lemma 2.4: O(M + D) rounds.
                    assert!(stats.rounds <= 3 * (m_items as u64 + tree.height) + 8);
                    stream.len()
                });
            },
        );
    }
    group.finish();
}

fn bench_multi_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("lemma5.5_multi_bfs");
    group.sample_size(10);
    for &(n, k, h) in &[(256usize, 8usize, 40u64), (512, 16, 60), (1024, 32, 80)] {
        let g = random_digraph(n, 4 * n, 9);
        let sources: Vec<usize> = (0..k).map(|i| (i * 31) % n).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_k{k}_h{h}")),
            &h,
            |b, &h| {
                b.iter(|| {
                    let cfg = MultiBfsConfig {
                        sources: &sources,
                        max_dist: h,
                        reverse: false,
                        delays: None,
                    };
                    let mut net = Network::new(&g);
                    let (dist, stats) =
                        multi_source_bfs(&mut net, &cfg, |_| true, "mbfs", default_budget(k, h))
                            .expect("quiesces");
                    // Lemma 5.5: O(k + h) rounds.
                    assert!(stats.rounds <= 2 * (k as u64 + h) + 16);
                    dist.len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_broadcast, bench_multi_bfs);
criterion_main!(benches);
