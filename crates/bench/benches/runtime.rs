//! Criterion bench for the serving layer: end-to-end mixed-workload
//! throughput through the runtime under both scheduling policies.

use atlantis_apps::jobs::JobSpec;
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{JobRequest, Runtime, RuntimeConfig, SchedPolicy};
use criterion::{criterion_group, criterion_main, Criterion};

fn serve_batch(policy: SchedPolicy, jobs: u64) -> u64 {
    let system = AtlantisSystem::builder().with_acbs(2).build();
    let config = RuntimeConfig {
        policy,
        queue_capacity: jobs as usize + 1,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::serve(system, config).expect("serve");
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            rt.submit(JobRequest::new(0, JobSpec::mixed(i)))
                .expect("submit")
        })
        .collect();
    let mut acc = 0u64;
    for h in handles {
        acc ^= h.wait().expect("job completes").checksum;
    }
    rt.shutdown();
    acc
}

fn bench_runtime(c: &mut Criterion) {
    c.bench_function("runtime_mixed_64_jobs_fifo", |b| {
        b.iter(|| serve_batch(SchedPolicy::Fifo, 64));
    });

    c.bench_function("runtime_mixed_64_jobs_reconfig_aware", |b| {
        b.iter(|| serve_batch(SchedPolicy::default(), 64));
    });
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
