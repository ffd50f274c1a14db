//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment is a function taking a [`Scale`] (how big a run: quick /
//! default / full paper scale) and an [`Outputs`] sink (stdout tables plus
//! CSV files). The `experiments` binary dispatches on experiment id:
//!
//! ```text
//! experiments all            # every table and figure at the default scale
//! experiments fig10 --quick  # one experiment, small scale
//! experiments table3 --full  # paper scale (1024x768, 411/525 frames)
//! ```
//!
//! | id | paper artefact |
//! |----|----------------|
//! | `fig3` | expected working set W(R, d, utilization) |
//! | `table1` | workload statistics and expected working sets |
//! | `fig4` | per-frame minimum memory: push vs L2 tile sizes |
//! | `fig5` | total vs new L2 memory per frame (16×16) |
//! | `fig6` | minimum L1 download bandwidth, total vs new |
//! | `fig9`/`table2` | L1 miss rates / hit rates by cache size |
//! | `fig10`/`table3` | download bandwidth with and without L2 |
//! | `table4` | sizes of the L2 implementation structures |
//! | `table5_6` | measured L1/L2 hit rates (Village, City) |
//! | `table7` | fractional advantage f of L2 caching |
//! | `fig11`/`table8` | texture page-table TLB hit rates |
//! | `fig12` | workload snapshots (PPM) |
//! | `ablate-replacement` | clock vs LRU vs FIFO L2 replacement |
//! | `ablate-zprepass` | z-buffer-before-texture (paper §6) |
//! | `ablate-sector` | sector mapping on/off |
//! | `future-workloads` | §6's "workloads of the future" scaling study |
//! | `ablate-storage` | tiled vs linear texture storage (§2.3) |
//! | `ablate-traversal` | scanline vs tiled rasterization order (§2.3) |
//! | `l2-tile-sweep` | L2 tile sizes 8/16/32 (§5.3.2's "similar results") |
//! | `l1-assoc-sweep` | L1 associativity (Hakura's 2-way argument) |
//! | `fault` | host-link fault sweep: pull vs multi-level degradation |
//! | `latency` | MSHRs x host latency x lookahead: non-blocking hierarchy |
//! | `explore` | one-pass analytic model vs the replayed conformance matrix |

mod exp_ablate;
mod exp_analytic;
mod exp_cache;
mod exp_explore;
mod exp_extended;
mod exp_fault;
mod exp_latency;
mod exp_stats;
mod exp_tlb;
mod exp_visual;
mod matrix;
mod multiclient;
mod outputs;
mod runner;
mod scale;
mod store;

pub use exp_ablate::{ablate_replacement, ablate_sector, ablate_zprepass, future_workloads};
pub use exp_analytic::{fig3, table4};
pub use exp_cache::{
    fig10, fig9, host_bytes_by_architecture, perf_model, table2, table3, table5_6, table7,
};
pub use exp_explore::{capture_profile, design_point_for, explore, instrumented_config};
pub use exp_extended::{ablate_storage, ablate_traversal, l1_assoc_sweep, l2_tile_sweep};
pub use exp_fault::exp_fault;
pub use exp_latency::exp_latency;
pub use exp_stats::{calibrate, fig4, fig5, fig6, table1};
pub use exp_tlb::{fig11, table8};
pub use exp_visual::fig12;
pub use matrix::conformance_matrix;
pub use multiclient::{
    collect_frames, experiment_service_config, multiclient, run_multi_client,
    set_multiclient_clients, set_multiclient_partition, solo_baseline, solo_baseline_scalar,
    ClientReport, ClientSpec, MultiClientConfig, MultiClientReport,
};
pub use outputs::{Outputs, TextTable};
pub use runner::{
    engine_run, engine_run_all, engine_run_traversal, engine_run_traversal_all, max_replay_jobs,
    replay_path, replay_run, set_max_replay_jobs, set_replay_path, stats_run, ReplayPath, RunError,
};
pub use scale::Scale;
pub use store::{
    StatsBundle, StoreStats, TraceHandle, TraceKey, TraceSet, TraceStore, DEFAULT_MEM_BUDGET,
};

/// An experiment entry point. Experiments report run failures instead of
/// panicking so a suite run can record the failure and move on. The
/// [`TraceStore`] supplies (and memoizes) every rendered trace.
pub type ExperimentFn = fn(&Scale, &Outputs, &TraceStore) -> Result<(), RunError>;

/// Every experiment id in run order, with its runner.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig3", fig3),
    ("table1", table1),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig9", fig9),
    ("table2", table2),
    ("fig10", fig10),
    ("table3", table3),
    ("table4", table4),
    ("table5_6", table5_6),
    ("table7", table7),
    ("fig11", fig11),
    ("table8", table8),
    ("fig12", fig12),
    ("ablate-replacement", ablate_replacement),
    ("ablate-zprepass", ablate_zprepass),
    ("ablate-sector", ablate_sector),
    ("future-workloads", future_workloads),
    ("ablate-storage", ablate_storage),
    ("ablate-traversal", ablate_traversal),
    ("l2-tile-sweep", l2_tile_sweep),
    ("l1-assoc-sweep", l1_assoc_sweep),
    ("fault", exp_fault),
    ("latency", exp_latency),
    ("multiclient", multiclient),
    ("perf-model", perf_model),
    ("calibrate", calibrate),
    ("explore", explore),
];

/// Looks an experiment up by id.
pub fn find_experiment(id: &str) -> Option<ExperimentFn> {
    EXPERIMENTS.iter().find(|(n, _)| *n == id).map(|(_, f)| *f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_every_paper_artifact() {
        for id in [
            "fig3", "table1", "fig4", "fig5", "fig6", "fig9", "table2", "fig10", "table3",
            "table4", "table5_6", "table7", "fig11", "table8", "fig12",
        ] {
            assert!(find_experiment(id).is_some(), "missing experiment {id}");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(find_experiment("fig99").is_none());
    }
}
