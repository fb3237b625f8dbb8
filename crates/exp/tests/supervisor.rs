//! Chaos test for the supervised engine: one DAG where jobs panic and
//! fail at once. The supervisor must (a) complete
//! every independent job, (b) type every failure, and (c) produce
//! byte-identical records for any worker count.

use aging::{generate, replay, AgingConfig, ReplayOptions};
use exp::{run_jobs, EngineRun, JobError, JobOutcome, JobSpec};
use ffs::AllocPolicy;
use ffs_types::FsParams;

fn chaos_dag() -> Vec<JobSpec<u64>> {
    vec![
        // A healthy root and its healthy consumer: must complete no
        // matter what the rest of the graph does.
        JobSpec::new("root", &[], |_| Ok(1)),
        JobSpec::new("healthy", &["root"], |c| Ok(c.dep("root")? + 1)),
        // A panicking job and a transitive chain under it.
        JobSpec::new("bomb", &["root"], |_| -> Result<u64, JobError> {
            panic!("chaos: boom")
        }),
        JobSpec::new("bomb-child", &["bomb"], |c| Ok(*c.dep("bomb")?)),
        JobSpec::new("bomb-grandchild", &["bomb-child"], |c| {
            Ok(*c.dep("bomb-child")?)
        }),
        // A replay the file system rejects (a workload generated for one
        // group too many): its `FsError` is typed as a failure. The
        // rejection comes from the group-count check, before day 0 is
        // replayed.
        JobSpec::new("misfit", &[], |_| {
            let params = FsParams::small_test();
            let config = AgingConfig::small_test(10, 42);
            let w = generate(&config, params.ncg + 1, params.data_capacity_bytes());
            let result = replay(&w, &params, AllocPolicy::Realloc, ReplayOptions::default())?;
            Ok(result.daily.len() as u64)
        }),
        JobSpec::new("after-misfit", &["misfit"], |c| Ok(*c.dep("misfit")?)),
    ]
}

/// The worker-count-independent projection of a run: everything except
/// wall time.
fn fingerprint(run: &EngineRun<u64>) -> String {
    run.records
        .iter()
        .map(|r| format!("{}|{:?}|{}|{:?}\n", r.job, r.deps, r.status, r.error))
        .collect()
}

#[test]
fn chaos_dag_is_contained_and_deterministic() {
    let single = run_jobs(chaos_dag(), 1).expect("supervisor survives the chaos DAG");
    let pooled = run_jobs(chaos_dag(), 4).expect("supervisor survives the chaos DAG");

    for run in [&single, &pooled] {
        // (a) Every independent job completed.
        assert_eq!(run.outcomes["root"].ok(), Some(&1));
        assert_eq!(run.outcomes["healthy"].ok(), Some(&2));

        // The panic is typed and contained; its chain is skipped with
        // causes that name the culprit.
        match &run.outcomes["bomb"] {
            JobOutcome::Panicked(msg) => assert!(msg.contains("chaos: boom"), "{msg}"),
            other => panic!("expected Panicked, got {:?}", other.status()),
        }
        match &run.outcomes["bomb-child"] {
            JobOutcome::Skipped(why) => assert!(why.contains("\"bomb\""), "{why}"),
            other => panic!("expected Skipped, got {:?}", other.status()),
        }
        assert!(matches!(
            run.outcomes["bomb-grandchild"],
            JobOutcome::Skipped(_)
        ));

        // The rejected replay failed with the file system's message.
        match &run.outcomes["misfit"] {
            JobOutcome::Failed(msg) => assert!(msg.contains("invalid argument"), "{msg}"),
            other => panic!("expected Failed, got {:?}", other.status()),
        }
        match &run.outcomes["after-misfit"] {
            JobOutcome::Skipped(why) => assert!(why.contains("failed"), "{why}"),
            other => panic!("expected Skipped, got {:?}", other.status()),
        }
    }

    // (b) Outcomes, errors, and skip causes are byte-identical across
    // worker counts.
    assert_eq!(fingerprint(&single), fingerprint(&pooled));
}
