//! The public-call replica must reproduce the sweep driver's cells bit
//! for bit, or the traced run's spans would describe another program.

mod common;

use helios_core::{DvfsKnob, ShardSpec, SweepDriver};
use helios_perfbench::replica::{check_spec, run_cell, same_cells};
use helios_perfbench::span::Tracer;
use helios_perfbench::workloads::{load_spec, paper_grid, resilient_store};

fn replica_matches_driver(spec_path: &str, shard: ShardSpec) -> Vec<helios_core::CellResult> {
    let ctx = common::ctx("replica", 0);
    let spec = load_spec(&ctx, spec_path).expect("spec loads");
    let driver = SweepDriver::new(1)
        .run_shard(&spec, shard)
        .expect("driver sweep")
        .cells;
    let mut t = Tracer::on();
    let replica: Vec<_> = spec
        .expand()
        .expect("spec expands")
        .iter()
        .filter(|c| shard.owns(c.index))
        .map(|c| run_cell(&spec, c, &mut t).expect("replica cell"))
        .collect();
    assert!(!driver.is_empty());
    assert!(
        same_cells(&replica, &driver),
        "replica differs from the sweep driver on {spec_path}"
    );
    driver
}

#[test]
fn replica_reproduces_a_paper_grid_shard() {
    let cells = replica_matches_driver(paper_grid::SPEC, ShardSpec::new(3, 37).unwrap());
    let mut schedulers: Vec<_> = cells.iter().map(|c| c.scheduler.as_str()).collect();
    schedulers.sort_unstable();
    schedulers.dedup();
    assert_eq!(schedulers.len(), 12, "the shard covers every scheduler");
    assert!(
        cells.iter().any(|c| !c.completed),
        "the shard covers an infeasible cell"
    );
}

#[test]
fn replica_reproduces_a_resilient_store_shard() {
    let cells = replica_matches_driver(resilient_store::SPEC, ShardSpec::new(2, 50).unwrap());
    assert!(cells.iter().any(|c| c.failures > 0 && c.retries > 0));
}

#[test]
fn replica_refuses_knobs_it_cannot_reproduce() {
    let ctx = common::ctx("replica-knobs", 0);
    let mut spec = load_spec(&ctx, paper_grid::SPEC).unwrap();
    spec.dvfs = DvfsKnob::Powersave;
    assert!(check_spec(&spec).is_err());
}
