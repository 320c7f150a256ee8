//! # hcg-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4) from
//! the three generators and the VM cost models. The `repro` binary prints
//! paper-formatted tables; the Criterion benches under `benches/` time the
//! same pipelines.

#![warn(missing_docs)]

pub mod cli;
pub mod consistency;
pub mod experiments;
pub mod fleet;
pub mod incremental;
pub mod obsbench;
pub mod profile;
pub mod search;
pub mod serve;
pub mod verify;

pub use cli::{parse_args, CommonArgs};
pub use consistency::{check_consistency, Consistency};
pub use experiments::*;
pub use fleet::{run_fleet, run_fleet_sequential, FleetJob, FleetOutcome, FleetRun};
pub use incremental::{
    incremental_json, overall_speedup, param_edit, run_incremental_bench, IncrementalBenchConfig,
    IncrementalRow,
};
pub use obsbench::{
    obs_bench_json, record_cost_ns_per_request, render_obs_bench, run_obs_bench, ObsBenchConfig,
    ObsBenchReport, ObsLayerResult,
};
pub use profile::{cycle_profile_json, profile_json, profile_matrix, ProfileEntry};
pub use search::{render_search, run_search, search_json, SearchReport, SearchRow};
pub use serve::{run_serve_bench, run_serve_smoke, ServeBenchConfig, ServeBenchReport};
pub use verify::{verify_json, VerifyRow};
