//! Chaos test for the supervised engine: one DAG where jobs panic and
//! exceed their deadline at once. The supervisor must (a) complete
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
        // A replay that blows through its op budget: cancelled at a day
        // boundary, typed as a timeout.
        JobSpec {
            deadline_ops: 50,
            ..JobSpec::new("runaway", &[], |c| {
                let params = FsParams::small_test();
                let config = AgingConfig::small_test(10, 42);
                let w = generate(&config, params.ncg, params.data_capacity_bytes());
                let result = replay(
                    &w,
                    &params,
                    AllocPolicy::Realloc,
                    ReplayOptions {
                        cancel: Some(c.cancel_token()),
                        ..ReplayOptions::default()
                    },
                )
                .map_err(|e| JobError::from_fs(&e))?;
                Ok(result.daily.len() as u64)
            })
        },
        JobSpec::new("after-runaway", &["runaway"], |c| Ok(*c.dep("runaway")?)),
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

        // The runaway replay was cancelled at a day boundary.
        match &run.outcomes["runaway"] {
            JobOutcome::TimedOut(msg) => assert!(msg.contains("budget 50"), "{msg}"),
            other => panic!("expected TimedOut, got {:?}", other.status()),
        }
        match &run.outcomes["after-runaway"] {
            JobOutcome::Skipped(why) => assert!(why.contains("deadline"), "{why}"),
            other => panic!("expected Skipped, got {:?}", other.status()),
        }
    }

    // (b) Outcomes, errors, and skip causes are byte-identical across
    // worker counts.
    assert_eq!(fingerprint(&single), fingerprint(&pooled));
}
