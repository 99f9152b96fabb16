//! The serve-layer probe: a closed loop from one thread in which each of
//! four tenants keeps one small campaign outstanding, driven through the
//! calls the daemon's HTTP handler makes (`ServeEngine::start`, `submit`,
//! `run_next`).

use crate::{put, quantile, toy, Metrics};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::journal::{Journal, LEDGER_FILE};
use pos::sched::CompletionOutcome;
use pos::serve::{ServeEngine, ServeOptions, StepOutcome, SubmitRequest, SubmitResponse};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tenants in the mix.
const TENANTS: usize = 4;
/// Engine starts timed.
const STARTS: usize = 5;

/// Campaigns in the loop: enough that p90 has at least 10 samples beyond
/// it.
fn campaigns() -> usize {
    if toy() {
        8
    } else {
        120
    }
}

/// Tenant `k`'s small campaign: 2 sizes × 2 low rates, 100 ms runs,
/// under its own user so each tenant's trees live apart. Packet
/// simulation is negligible; the per-run and per-campaign fixed costs
/// dominate.
fn tenant_spec(k: usize) -> ExperimentSpec {
    let mut spec = linux_router_experiment("vriga", "vtartu", 2, 1);
    spec.user = format!("tenant{k}");
    let base = 10_000 + 5_000 * k as i64;
    spec.loop_vars = spec.loop_vars.with("pkt_rate", vec![base, base + 10_000]);
    spec.global_vars = spec.global_vars.with("run_secs", 0.1);
    spec
}

fn start_engine(dir: &Path, seed: u64) -> Result<(f64, ServeEngine), String> {
    let mut opts = ServeOptions::new(dir.join("state"), dir.join("results"));
    opts.seed = seed;
    let t = Instant::now();
    let engine = ServeEngine::start(opts).map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), engine))
}

/// Wall seconds of each call, and the failures seen.
#[derive(Default)]
struct LoopResult {
    /// Each `submit` call.
    submit: Vec<f64>,
    /// Submit ack → start of the `run_next` call that ran the campaign.
    queue_wait: Vec<f64>,
    /// Each `run_next` call.
    run_next: Vec<f64>,
    /// Submissions plus campaigns.
    attempted: u64,
    /// Submissions not accepted plus campaigns not completed.
    failed: u64,
}

impl LoopResult {
    fn submit(
        &mut self,
        engine: &ServeEngine,
        spec: &Path,
        pending: &mut BTreeMap<u64, (usize, Instant)>,
        tenant: usize,
    ) -> Result<(), String> {
        let req = SubmitRequest {
            user: None,
            experiment: spec.display().to_string(),
            priority: 1,
            token: None,
        };
        self.attempted += 1;
        let t = Instant::now();
        let ack = engine.submit(&req).map_err(|e| e.to_string())?;
        let acked = Instant::now();
        self.submit.push((acked - t).as_secs_f64());
        if let SubmitResponse::Accepted { id } = ack {
            pending.insert(id, (tenant, acked));
        } else {
            eprintln!("posbench: tenant {tenant} submission not accepted: {ack:?}");
            self.failed += 1;
        }
        Ok(())
    }
}

/// Every tenant submits; then `run_next` runs campaigns and each tenant
/// whose campaign finished submits again, until `total` campaigns have
/// been submitted and all have finished.
fn closed_loop(
    engine: &ServeEngine,
    specs: &[PathBuf],
    total: usize,
) -> Result<LoopResult, String> {
    let mut res = LoopResult::default();
    let mut pending = BTreeMap::new();
    for (tenant, spec) in specs.iter().enumerate() {
        res.submit(engine, spec, &mut pending, tenant)?;
    }
    let mut finished = 0;
    while !pending.is_empty() {
        let started = Instant::now();
        let step = engine.run_next().map_err(|e| e.to_string())?;
        res.run_next.push(started.elapsed().as_secs_f64());
        let StepOutcome::Finished { id, outcome, .. } = step else {
            return Err(format!(
                "run_next returned {step:?} with {} outstanding",
                pending.len()
            ));
        };
        let (tenant, acked) = pending
            .remove(&id)
            .ok_or_else(|| format!("run_next finished unknown id {id}"))?;
        finished += 1;
        res.attempted += 1;
        if outcome != CompletionOutcome::Completed {
            eprintln!("posbench: campaign {id} finished {outcome}");
            res.failed += 1;
        }
        res.queue_wait.push((started - acked).as_secs_f64());
        if finished + specs.len() <= total {
            res.submit(engine, &specs[tenant], &mut pending, tenant)?;
        }
    }
    Ok(res)
}

/// Engine starts on fresh state, then the closed loop. Returns the
/// operations attempted and failed.
pub fn probe(seed: u64, work: &Path, m: &mut Metrics) -> Result<(u64, u64), String> {
    let mut starts = Vec::with_capacity(STARTS);
    for i in 0..STARTS {
        let (secs, engine) = start_engine(&work.join(format!("start-{i}")), seed)?;
        engine.shutdown().map_err(|e| e.to_string())?;
        starts.push(secs);
    }
    let specs = (0..TENANTS)
        .map(|k| {
            let dir = work.join("specs").join(format!("tenant{k}"));
            tenant_spec(k).to_dir(&dir).map_err(|e| e.to_string())?;
            Ok(dir)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (_, engine) = start_engine(&work.join("loop"), seed)?;
    let res = closed_loop(&engine, &specs, campaigns())?;
    engine.shutdown().map_err(|e| e.to_string())?;
    let ledger = Journal::replay(&work.join("loop").join("state").join(LEDGER_FILE))
        .map_err(|e| e.to_string())?;

    let ms = |xs: &[f64], q: f64| quantile(xs, q) * 1e3;
    put(m, "serve.start_ms", ms(&starts, 0.5), "ms");
    put(m, "serve.submit_us_p50", ms(&res.submit, 0.5) * 1e3, "us");
    put(m, "serve.submit_us_p90", ms(&res.submit, 0.9) * 1e3, "us");
    put(m, "serve.run_next_ms_p50", ms(&res.run_next, 0.5), "ms");
    put(m, "serve.queue_wait_ms_p50", ms(&res.queue_wait, 0.5), "ms");
    put(
        m,
        "serve.ledger_records",
        ledger.records.len() as f64,
        "count",
    );
    Ok((res.attempted, res.failed))
}
