//! Cost of the group search (Algorithm 2): exact-cover enumeration over
//! the cyclic supports of Eq. 6 plus pairwise-disjoint pruning.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgc::{Allocation, ClusterSpec, SupportMatrix};
use hetgc_coding::{find_all_groups, prune_groups};

fn support_for(cluster: &ClusterSpec, s: usize) -> SupportMatrix {
    let c = cluster.throughputs();
    let k = hetgc_coding::suggest_partition_count(&c, s, cluster.len(), 6 * cluster.len());
    let alloc = Allocation::balanced(&c, k, s).expect("feasible");
    SupportMatrix::cyclic(&alloc).expect("cyclic support")
}

fn bench_find_groups(c: &mut Criterion) {
    let mut group = c.benchmark_group("groups/find");
    for cluster in ClusterSpec::table2() {
        let support = support_for(&cluster, 1);
        group.bench_with_input(
            BenchmarkId::from_parameter(cluster.name().to_owned()),
            &support,
            |b, support| {
                b.iter(|| find_all_groups(support));
            },
        );
    }
    group.finish();
}

fn bench_prune_groups(c: &mut Criterion) {
    let mut group = c.benchmark_group("groups/prune");
    for cluster in [ClusterSpec::cluster_b(), ClusterSpec::cluster_c()] {
        let support = support_for(&cluster, 1);
        let groups = find_all_groups(&support);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}_{}groups", cluster.name(), groups.len())),
            &groups,
            |b, groups| {
                b.iter(|| prune_groups(groups.clone()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_find_groups, bench_prune_groups);
criterion_main!(benches);
