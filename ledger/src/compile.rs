//! One cold compile, XML bytes to C text — untimed plain form and the
//! traced form that opens a span around each public call into a layer.

use crate::alloc;
use crate::trace::Tracer;
use hcg_core::batch::{form_regions_indexed, plan_region_indexed};
use hcg_core::emit::to_c_source;
use hcg_core::{BatchOptions, CompileSession, Dispatch, GenContext, HcgGen};
use hcg_isa::{sets, Arch};
use hcg_kernels::Autotuner;
use hcg_model::parser::model_from_xml;
use hcg_model::PortRef;
use std::time::{Duration, Instant};

/// The compile as users and hcg-serve run it: parse, a fresh session and a
/// fresh generator, generate, emit.
pub fn plain(xml: &str, arch: Arch) -> Result<String, String> {
    let model = model_from_xml(xml).map_err(|e| format!("parse: {e}"))?;
    let session = CompileSession::new(model);
    let program = session
        .generate(&HcgGen::new(), arch)
        .map_err(|e| format!("generate: {e}"))?;
    Ok(to_c_source(&program))
}

/// Work counts summed over traced compiles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    pub actors: u64,
    pub regions: u64,
    pub instrs_selected: u64,
    pub nodes_fused: u64,
    pub precalcs: u64,
    pub history_hits: u64,
    pub c_bytes: u64,
}

/// A traced compile whose region-formation and mapping allocations are
/// still to be replayed (see [`Pending::settle`]).
pub struct Pending {
    session: CompileSession,
    arch: Arch,
    generate_allocs: (u64, u64),
}

/// The compile with a span around each layer call. `core.regions`,
/// `core.mapping` and `core.compose` have no entry point of their own
/// inside `generate_with_report`, so their spans are the stage records of
/// the `StageReport` it returns (whole microseconds, as the pipeline
/// measures them). Algorithm 1 runs in `kernels.autotune` on a fresh tuner
/// whose history is loaded into the generator, so compose only replays it.
pub fn traced(
    t: &mut Tracer,
    xml: &str,
    arch: Arch,
    work: &mut Work,
) -> Result<(String, Pending), String> {
    let model = t
        .layer("model.parser", || model_from_xml(xml))
        .map_err(|e| format!("parse: {e}"))?;
    let session = CompileSession::new(model);
    t.layer("model.frontend", || session.front_end().map(|_| ()))
        .map_err(|e| format!("front end: {e}"))?;
    let dispatch = t
        .layer("core.dispatch", || session.dispatch())
        .map_err(|e| format!("dispatch: {e}"))?;
    let generator = HcgGen::new();
    t.layer("kernels.autotune", || {
        autotune(&session, dispatch, &generator, work)
    })?;

    let start = Instant::now();
    let a0 = alloc::snapshot();
    let (program, report) = session
        .generate_with_report(&generator, arch)
        .map_err(|e| format!("generate: {e}"))?;
    let a1 = alloc::snapshot();
    let mut at = start;
    for stage in &report.stages {
        let layer = match stage.name {
            "region-formation" => "core.regions",
            "instruction-mapping" => "core.mapping",
            "compose" => "core.compose",
            _ => {
                at += Duration::from_micros(stage.micros);
                continue;
            }
        };
        t.stage(layer, at, stage.micros as f64);
        at += Duration::from_micros(stage.micros);
    }
    let totals = report.totals();
    work.actors += totals.actors_dispatched;
    work.regions += totals.regions_formed;
    work.instrs_selected += totals.instructions_selected;
    work.nodes_fused += totals.nodes_fused;

    let c = t.layer("core.emit", || to_c_source(&program));
    work.c_bytes += c.len() as u64;
    let pending = Pending {
        session,
        arch,
        generate_allocs: (a1.0 - a0.0, a1.1 - a0.1),
    };
    Ok((c, pending))
}

/// Algorithm 1 for every intensive actor on a fresh tuner, then hand the
/// selections to the generator.
fn autotune(
    session: &CompileSession,
    dispatch: &[Dispatch],
    generator: &HcgGen,
    work: &mut Work,
) -> Result<(), String> {
    let model = session.model();
    let types = &session.front_end().map_err(|e| e.to_string())?.types;
    let mut tuner = Autotuner::new(generator.options.meter);
    for (actor, d) in model.actors.iter().zip(dispatch) {
        let Dispatch::Intensive { size } = d else {
            continue;
        };
        let input = model
            .driver(PortRef::new(actor.id, 0))
            .ok_or("unconnected intensive input")?;
        let dtype = types.output(input.actor, input.port).dtype;
        let (_, from_history) = tuner
            .select(generator.library(), actor.kind, dtype, size)
            .map_err(|e| format!("autotune: {e}"))?;
        if from_history {
            work.history_hits += 1;
        } else {
            work.precalcs += 1;
        }
    }
    generator.load_history(&tuner.history_to_text());
    Ok(())
}

impl Pending {
    /// Attribute the allocations of `generate_with_report`: replay
    /// `form_regions_indexed` and `plan_region_indexed` outside the op to
    /// count theirs, and charge the rest to `core.compose` (which therefore
    /// includes the pass manager's bookkeeping).
    pub fn settle(self, t: &mut Tracer) -> Result<(), String> {
        let err = |e: hcg_core::GenError| format!("replay: {e}");
        let fe = self.session.front_end().map_err(err)?;
        let dispatch = self.session.dispatch().map_err(err)?;
        let ctx = GenContext::with_artifacts(
            self.session.model(),
            &fe.types,
            &fe.schedule,
            self.arch,
            "hcg",
        )
        .map_err(err)?;
        let (set, index) = sets::shared_indexed(self.arch, None);
        let a0 = alloc::snapshot();
        let regions = form_regions_indexed(&ctx, dispatch, set, index);
        let a1 = alloc::snapshot();
        for region in &regions {
            plan_region_indexed(&ctx, region, set, index, BatchOptions::default()).map_err(err)?;
        }
        let a2 = alloc::snapshot();
        let regions_allocs = (a1.0 - a0.0, a1.1 - a0.1);
        let mapping_allocs = (a2.0 - a1.0, a2.1 - a1.1);
        let (g0, g1) = self.generate_allocs;
        t.add("core.regions", 0.0, regions_allocs);
        t.add("core.mapping", 0.0, mapping_allocs);
        t.add(
            "core.compose",
            0.0,
            (
                g0.saturating_sub(regions_allocs.0 + mapping_allocs.0),
                g1.saturating_sub(regions_allocs.1 + mapping_allocs.1),
            ),
        );
        Ok(())
    }
}
