//! The engine workloads (`paper_50`, `stress_20000`) and the engine half
//! of every traced run.
//!
//! Everything here drives the engine through its public API and times
//! the calls from outside: `Engine::new`, `Engine::step_epoch`, the
//! constructors `Engine::new` calls, and the engine's own
//! `enable_phase_timing`/`phase_timings` accumulator.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use dirq_analytic::TopologyCosts;
use dirq_core::{
    CompletedQuery, DirqMessage, Engine, PhaseTimings, RadioSpec, ScenarioConfig, TreeKind,
};
use dirq_data::sensor::SensorAssignment;
use dirq_data::{SensorCatalog, SensorWorld, WorldConfig};
use dirq_lmac::LmacNetwork;
use dirq_net::placement::Placement;
use dirq_net::radio::UnitDisk;
use dirq_net::{NodeId, SpanningTree, Topology};
use dirq_sim::RngFactory;

use crate::report::{median, peak_rss_mib, quantile, Outcome};

/// Worker count of every sharded pool in `stress_20000` (`lmac.workers`,
/// `world_workers`, `dispatch_workers`, `upkeep_workers`), matching the
/// 2-vCPU reference host.
pub const POOL_WORKERS: usize = 2;

/// The fixed scenario seeds of `paper_50`: the figure binaries' default
/// seed (42) and the next four. Fixed so that every run measures the
/// same five deployments and query streams.
pub const PAPER_SEEDS: [u64; 5] = [42, 43, 44, 45, 46];

/// Engine constructions timed per `stress_20000` run.
const STRESS_SETUPS: usize = 3;

/// Epochs per traced `stress_20000` engine run.
const STRESS_TRACE_EPOCHS: u64 = 100;

/// The registry preset behind `stress_20000`.
pub const STRESS_PRESET: &str = "stress_20000";

/// Set all four sharded pools from one worker count.
pub fn with_workers(mut cfg: ScenarioConfig, workers: usize) -> ScenarioConfig {
    cfg.lmac.workers = workers;
    cfg.world_workers = workers;
    cfg.dispatch_workers = workers;
    cfg.upkeep_workers = workers;
    cfg
}

/// The engine configuration of a registry preset, resolved the way
/// `dirqd` resolves a `deploy` (preset's first scheme, full budget).
pub fn preset_config(preset: &str, seed: u64) -> ScenarioConfig {
    let (spec, scheme) = dirqd::protocol::resolve_deployment(preset, 1.0, None)
        .unwrap_or_else(|e| panic!("preset {preset}: {e}"));
    spec.config(scheme, seed)
}

/// The `paper_50` scenario seeds in the order a workload seed runs
/// them: the fixed list rotated by the seed.
pub fn paper_seeds(seed: u64) -> Vec<u64> {
    let mut seeds = PAPER_SEEDS.to_vec();
    seeds.rotate_left((seed % PAPER_SEEDS.len() as u64) as usize);
    seeds
}

/// The paper's evaluation setup, or its 2 000-epoch variant in smoke mode.
fn paper_config(seed: u64, smoke: bool) -> ScenarioConfig {
    if smoke {
        ScenarioConfig::paper_small(seed)
    } else {
        ScenarioConfig::paper(seed)
    }
}

/// The engine seed of a registry preset: the preset's own, so every run
/// measures the deployment the registry documents.
pub fn preset_seed(preset: &str) -> u64 {
    dirq_scenario::preset(preset).unwrap_or_else(|| panic!("unknown preset {preset}")).seed
}

/// Wall-clock record of one timed stepping loop: `ends[i]` is the end of
/// the `i`-th stepped epoch, in seconds since the loop began.
struct Clock {
    first_epoch: u64,
    ends: Vec<f64>,
}

impl Clock {
    fn wall(&self) -> f64 {
        self.ends.last().copied().unwrap_or(0.0)
    }

    fn epochs(&self) -> u64 {
        self.ends.len() as u64
    }

    fn start_of(&self, epoch: u64) -> Option<f64> {
        let i = epoch.checked_sub(self.first_epoch)? as usize;
        match i {
            0 => Some(0.0),
            _ => self.ends.get(i - 1).copied(),
        }
    }

    fn end_of(&self, epoch: u64) -> Option<f64> {
        self.ends.get(epoch.checked_sub(self.first_epoch)? as usize).copied()
    }

    /// Epochs per second in consecutive windows of at least `width_s`
    /// (the trailing partial window is dropped unless it is the only one).
    fn window_rates(&self, width_s: f64) -> Vec<f64> {
        let mut rates = Vec::new();
        let (mut start_i, mut start_t) = (0, 0.0);
        for (i, &t) in self.ends.iter().enumerate() {
            if t - start_t >= width_s {
                rates.push((i + 1 - start_i) as f64 / (t - start_t));
                (start_i, start_t) = (i + 1, t);
            }
        }
        if rates.is_empty() {
            rates.push(self.epochs() as f64 / self.wall());
        }
        rates
    }

    /// Host response time (ms) of every query answered inside the loop,
    /// from the start of its injection epoch to the end of its
    /// finalisation epoch, plus the finalisation instants (s).
    fn answered(&self, done: &[CompletedQuery]) -> (Vec<f64>, Vec<f64>) {
        let mut latency_ms = Vec::new();
        let mut finished = Vec::new();
        for q in done {
            if let (Some(t0), Some(t1)) =
                (self.start_of(q.outcome.epoch), self.end_of(q.answered_epoch))
            {
                latency_ms.push((t1 - t0) * 1e3);
                finished.push(t1);
            }
        }
        (latency_ms, finished)
    }
}

/// Per-epoch phase rows of a traced loop: the nine
/// [`PhaseTimings`] fields then the epoch's wall time, all seconds.
type PhaseRow = [f64; 10];

const PHASES: [&str; 9] =
    ["world", "churn", "repair", "ehr", "sampling", "injection", "mac", "dispatch", "finalize"];

fn phase_array(t: &PhaseTimings) -> [f64; 9] {
    [t.world, t.churn, t.repair, t.ehr, t.sampling, t.injection, t.mac, t.dispatch, t.finalize]
}

/// Step `engine` while `more(stepped, elapsed_s)` holds, timing every
/// epoch. With `rows`, phase timing must be on and one row per epoch is
/// appended.
fn step_timed(
    engine: &mut Engine,
    mut more: impl FnMut(u64, f64) -> bool,
    mut rows: Option<&mut Vec<PhaseRow>>,
) -> Clock {
    let mut clock = Clock { first_epoch: engine.epoch(), ends: Vec::new() };
    let mut last = engine.phase_timings().map(|t| phase_array(&t)).unwrap_or_default();
    let t0 = Instant::now();
    let mut prev = 0.0;
    while more(clock.epochs(), prev) {
        engine.step_epoch();
        let now = t0.elapsed().as_secs_f64();
        if let Some(rows) = rows.as_deref_mut() {
            let cur = phase_array(&engine.phase_timings().expect("phase timing enabled"));
            let mut row = [0.0; 10];
            for i in 0..9 {
                row[i] = cur[i] - last[i];
            }
            row[9] = now - prev;
            rows.push(row);
            last = cur;
        }
        clock.ends.push(now);
        prev = now;
    }
    clock
}

/// Finalised queries per host second across one loop: the spacing of
/// its first and last answers (a rate, so it does not jump by whole
/// queries between runs).
fn answer_rate(finished: &[f64]) -> Option<(f64, f64)> {
    let (first, last) = (finished.first()?, finished.last()?);
    (finished.len() >= 2 && last > first).then(|| ((finished.len() - 1) as f64, last - first))
}

/// The workload's result-level output checks on one finished run.
fn check_run(out: &mut Outcome, label: &str, r: &dirq_core::RunResult) {
    let ratio = r.cost_ratio_vs_flooding();
    out.check(ratio.is_some_and(|x| x > 0.0 && x < 1.0), || {
        format!("{label}: DirQ cost per query is not below analytic flooding (ratio {ratio:?})")
    });
    let categories = r.metrics.total_cost();
    out.check(r.mac_data_cost >= categories && categories > 0.0, || {
        format!("{label}: MAC data ledger {} below category tallies {categories}", r.mac_data_cost)
    });
}

/// The ledger cross-check with no warm-up window: the protocol's
/// category tallies count a data message when it is queued, the MAC data
/// ledger when it is sent, so the two differ by exactly the messages
/// still queued when the run stops — never negative, and at most a
/// handful per node.
fn check_ledger_identity(out: &mut Outcome, cfg: &ScenarioConfig, epochs: u64) {
    let r = Engine::new(ScenarioConfig { epochs, measure_from_epoch: 0, ..cfg.clone() }).run();
    let queued = r.metrics.total_cost() - r.mac_data_cost;
    out.check(queued >= 0.0 && queued <= r.n_nodes as f64, || {
        format!(
            "seed {}: MAC data ledger {} vs category tallies {} (difference outside [0, nodes])",
            cfg.seed,
            r.mac_data_cost,
            r.metrics.total_cost()
        )
    });
}

/// End-to-end figures of the engine workloads; each metric is the median
/// over its samples. Rates are sampled per `paper_50` run or per
/// one-second window of the `stress_20000` loop, so a host stall confined
/// to a few samples does not move the median; latencies are sampled per
/// `paper_50` pass or over the whole `stress_20000` loop.
#[derive(Default)]
struct LoopStats {
    setup_s: Vec<f64>,
    epochs_per_s: Vec<f64>,
    qps: Vec<f64>,
    p50_ms: Vec<f64>,
    epochs: u64,
}

impl LoopStats {
    /// Add one sample: the host response times of the queries answered
    /// in a timed stretch, and their answer rate `(answers, seconds)`.
    fn sample(&mut self, out: &mut Outcome, latency_ms: &[f64], answers: (f64, f64)) {
        out.check(latency_ms.len() >= 2, || {
            "fewer than two queries answered in a timed loop".into()
        });
        self.qps.push(answers.0 / answers.1);
        self.p50_ms.push(quantile(latency_ms, 0.5));
    }

    fn publish(self, out: &mut Outcome) {
        out.attempted += self.epochs;
        out.put("setup_s", median(&self.setup_s), "s");
        out.put("epochs_per_s", median(&self.epochs_per_s), "1/s");
        out.put("peak_rss_mib", peak_rss_mib(None), "MiB");
        out.put("serve_qps", median(&self.qps), "1/s");
        out.put("serve_p50_ms", median(&self.p50_ms), "ms");
    }
}

/// `paper_50`: the paper's evaluation (`ScenarioConfig::paper`, 50
/// nodes, full epoch budget) over the [`PAPER_SEEDS`], serially, pass
/// after pass until the time budget is spent (at least two passes, so
/// every fingerprint is checked against a repeat).
pub fn paper_50(seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let mut out = Outcome::default();
    let seeds = if smoke { paper_seeds(seed)[..2].to_vec() } else { paper_seeds(seed) };
    let cfgs: Vec<ScenarioConfig> = seeds.iter().map(|&s| paper_config(s, smoke)).collect();
    let epochs = cfgs[0].epochs;
    let mut fingerprints: Vec<Option<u64>> = vec![None; cfgs.len()];
    let mut stats = LoopStats::default();
    let mut latency = Vec::new();
    let started = Instant::now();
    let mut pass_s = 0.0;
    let mut passes = 0;
    while passes < 2 || started.elapsed().as_secs_f64() + pass_s <= seconds {
        let mut answers = (0.0, 0.0);
        latency.clear();
        for (cfg, fp) in cfgs.iter().zip(fingerprints.iter_mut()) {
            let t = Instant::now();
            let mut engine = Engine::new(cfg.clone());
            stats.setup_s.push(t.elapsed().as_secs_f64());
            engine.enable_completed_log();
            let clock = step_timed(&mut engine, |n, _| n < epochs, None);
            let (run_latency, finished) = clock.answered(&engine.take_completed());
            latency.extend(run_latency);
            if let Some((n, dt)) = answer_rate(&finished) {
                answers.0 += n;
                answers.1 += dt;
            }
            stats.epochs += clock.epochs();
            stats.epochs_per_s.push(clock.epochs() as f64 / clock.wall());
            let result = engine.run();
            let label = format!("paper seed {}", cfg.seed);
            check_run(&mut out, &label, &result);
            let f = result.stable_fingerprint();
            let first = *fp.get_or_insert(f);
            out.check(first == f, || {
                format!("{label}: fingerprint {f:016x} differs from repeat {first:016x}")
            });
        }
        stats.sample(&mut out, &latency, answers);
        passes += 1;
        pass_s = started.elapsed().as_secs_f64() / passes as f64;
    }
    check_ledger_identity(&mut out, &cfgs[0], epochs / 10);
    out.note(format!("passes={passes} seeds={seeds:?} epochs_per_run={epochs}"));
    stats.publish(&mut out);
    out
}

/// `stress_20000`: the 20 000-node preset with every pool at
/// [`POOL_WORKERS`]. Times [`STRESS_SETUPS`] constructions (their state
/// fingerprints must agree), then steps the last engine until the time
/// budget is spent and enough queries have been answered to time them.
pub fn stress_20000(seconds: f64, smoke: bool) -> Outcome {
    let mut out = Outcome::default();
    let preset = if smoke { "grid_2000" } else { STRESS_PRESET };
    let cfg = with_workers(preset_config(preset, preset_seed(preset)), POOL_WORKERS);
    let mut stats = LoopStats::default();
    let mut engine = None;
    let mut first_fp = None;
    for _ in 0..if smoke { 2 } else { STRESS_SETUPS } {
        drop(engine.take());
        let t = Instant::now();
        let e = Engine::new(cfg.clone());
        stats.setup_s.push(t.elapsed().as_secs_f64());
        let f = e.state_fingerprint();
        let first = *first_fp.get_or_insert(f);
        out.check(first == f, || {
            format!("{preset}: setup fingerprint {f:016x} differs from {first:016x}")
        });
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one setup");
    engine.enable_completed_log();
    // Enough epochs for four queries to cross the completion window.
    let min_epochs = cfg.completion_window + 4 * cfg.query_period + 2;
    let clock = step_timed(&mut engine, |n, t| n < min_epochs || t < seconds, None);
    let (latency, finished) = clock.answered(&engine.take_completed());
    let answers = answer_rate(&finished).unwrap_or((0.0, f64::NAN));
    stats.sample(&mut out, &latency, answers);
    stats.epochs = clock.epochs();
    stats.epochs_per_s = clock.window_rates(1.0);
    out.note(format!(
        "preset={preset} engine_seed={} workers={POOL_WORKERS} epochs={}",
        cfg.seed,
        clock.epochs()
    ));
    stats.publish(&mut out);
    out
}

/// Phase totals of one traced loop.
struct Traced {
    phases: [f64; 9],
    wall: f64,
    epochs: u64,
}

impl Traced {
    fn upkeep(&self) -> f64 {
        // churn + repair + ehr + sampling + injection: PhaseTimings::protocol.
        self.phases[1..6].iter().sum()
    }
}

/// Accumulates the engine half of a traced run over several scenario
/// runs.
#[derive(Default)]
struct Profile {
    base: Vec<Traced>,
    alt: Vec<Traced>,
    untraced: (u64, f64),
    injected: u64,
    finalised: u64,
    delivered: u64,
    collisions: u64,
    cost_ratio: Vec<f64>,
    engine_new: Vec<f64>,
}

fn sum_phase(v: &[Traced], f: impl Fn(&Traced) -> f64) -> f64 {
    v.iter().map(f).sum()
}

/// Run one scenario three ways for `epochs` epochs: untimed phases at
/// the workload's worker count, traced at that count and traced at the
/// other count (1 <-> [`POOL_WORKERS`]). The traced runs' fingerprints
/// must agree; their per-epoch rows go to `rows`.
fn profile_scenario(
    p: &mut Profile,
    out: &mut Outcome,
    cfg: &ScenarioConfig,
    base_workers: usize,
    epochs: u64,
    rows: &mut Vec<(String, PhaseRow)>,
) {
    let alt_workers = if base_workers == 1 { POOL_WORKERS } else { 1 };
    // A traced run may be shorter than the scenario's budget; keep its
    // measurement window inside the run so the cost ratio is defined.
    let measure_from_epoch = cfg.measure_from_epoch.min(epochs / 5);
    let cfg = ScenarioConfig { epochs, measure_from_epoch, ..cfg.clone() };
    let build = |workers: usize, p: &mut Profile| {
        let t = Instant::now();
        let e = Engine::new(with_workers(cfg.clone(), workers));
        p.engine_new.push(t.elapsed().as_secs_f64());
        e
    };

    let mut plain = build(base_workers, p);
    let clock = step_timed(&mut plain, |n, _| n < epochs, None);
    p.untraced.0 += clock.epochs();
    p.untraced.1 += clock.wall();
    drop(plain);

    let mut fingerprint = None;
    for workers in [base_workers, alt_workers] {
        let mut engine = build(workers, p);
        engine.enable_phase_timing();
        engine.enable_completed_log();
        let mut run_rows = Vec::new();
        let clock = step_timed(&mut engine, |n, _| n < epochs, Some(&mut run_rows));
        let traced = Traced {
            phases: phase_array(&engine.phase_timings().expect("phase timing enabled")),
            wall: clock.wall(),
            epochs: clock.epochs(),
        };
        let finalised = engine.take_completed().len() as u64;
        let result = engine.run();
        let label = format!("seed {} at {workers} workers", cfg.seed);
        let f = result.stable_fingerprint();
        let first = *fingerprint.get_or_insert(f);
        out.check(first == f, || {
            format!("{label}: fingerprint {f:016x} differs from {first:016x}")
        });
        if workers == base_workers {
            let tag = format!("seed{}", cfg.seed);
            rows.extend(run_rows.into_iter().map(|r| (tag.clone(), r)));
            p.injected += result.queries_injected as u64;
            p.finalised += finalised;
            p.delivered += result.mac_stats.delivered;
            p.collisions += result.mac_stats.collisions;
            if let Some(r) = result.cost_ratio_vs_flooding() {
                p.cost_ratio.push(r);
            }
            p.base.push(traced);
        } else {
            p.alt.push(traced);
        }
    }
}

impl Profile {
    fn publish(&self, out: &mut Outcome, base_workers: usize) {
        let wall = sum_phase(&self.base, |t| t.wall);
        let phase = |i: usize| sum_phase(&self.base, |t| t.phases[i]);
        let attributed: f64 = (0..9).map(phase).sum();
        let unattributed = wall - attributed;
        out.check(unattributed >= 0.0, || {
            format!("phase rows ({attributed} s) exceed the epoch wall time ({wall} s)")
        });
        let epochs = sum_phase(&self.base, |t| t.epochs as f64);
        out.attempted += epochs as u64 + self.untraced.0;
        out.put("lmac.mac_s", phase(6), "s");
        out.put("lmac.ns_per_delivery", phase(6) * 1e9 / self.delivered.max(1) as f64, "ns");
        out.put("data.world_s", phase(0), "s");
        out.put("core.dispatch_s", phase(7), "s");
        out.put("core.sampling_s", phase(4), "s");
        out.put("core.repair_s", phase(2), "s");
        out.put("core.injection_s", phase(5), "s");
        out.put("core.ehr_s", phase(3), "s");
        out.put("core.churn_s", phase(1), "s");
        out.put("core.finalize_s", phase(8), "s");
        out.put("core.unattributed_s", unattributed, "s");
        out.put("core.epoch_wall_s", wall, "s");
        // Speedup of each layer at 2 workers over 1 worker.
        let (one, two) =
            if base_workers == 1 { (&self.base, &self.alt) } else { (&self.alt, &self.base) };
        let speedup = |f: &dyn Fn(&Traced) -> f64| sum_phase(one, f) / sum_phase(two, f);
        out.put("lmac.mac_speedup_2w", speedup(&|t| t.phases[6]), "x");
        out.put("data.world_speedup_2w", speedup(&|t| t.phases[0]), "x");
        out.put("core.dispatch_speedup_2w", speedup(&|t| t.phases[7]), "x");
        out.put("core.upkeep_speedup_2w", speedup(&Traced::upkeep), "x");
        let traced_eps = epochs / wall;
        let untraced_eps = self.untraced.0 as f64 / self.untraced.1;
        out.put("core.traced_epochs_per_s", traced_eps, "1/s");
        out.put("core.untraced_epochs_per_s", untraced_eps, "1/s");
        out.put("core.trace_overhead_pct", (untraced_eps / traced_eps - 1.0) * 100.0, "%");
        out.put("core.queries_injected", self.injected as f64, "count");
        out.put("core.queries_finalised", self.finalised as f64, "count");
        out.put("lmac.delivered", self.delivered as f64, "count");
        out.put("lmac.collisions", self.collisions as f64, "count");
        out.put("core.cost_ratio_vs_flooding", median(&self.cost_ratio), "ratio");
        out.put("setup.engine_new_s", median(&self.engine_new), "s");
    }
}

/// Constructor times of one replayed `Engine::new`, in call order.
#[derive(Clone, Copy, Default)]
struct SetupSplit {
    deploy: f64,
    tree: f64,
    slot_assign: f64,
    world_init: f64,
    costs: f64,
}

/// Replay the constructors `Engine::new` calls for `cfg`, in its order
/// and with its RNG streams, timing each. Covers the single-sink
/// unit-disk deployments with no initially offline nodes, which every
/// benchmarked scenario is; the replayed topology and tree are checked
/// against the engine's own.
fn replay_setup(cfg: &ScenarioConfig, out: &mut Outcome, engine: &Engine) -> SetupSplit {
    assert!(matches!(cfg.radio, RadioSpec::UnitDisk) && cfg.extra_sinks == 0);
    let mut s = SetupSplit::default();
    let factory = RngFactory::new(cfg.seed);

    let t = Instant::now();
    let placement = cfg.placement.clone().unwrap_or(Placement::UniformRandom { side: cfg.side });
    let topo = Topology::deploy_connected(
        cfg.n_nodes,
        &placement,
        cfg.sink,
        &UnitDisk::new(cfg.radio_range),
        &mut factory.stream("deploy"),
        500,
    )
    .expect("connected deployment");
    s.deploy = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tree = match cfg.tree {
        TreeKind::Bfs => SpanningTree::bfs_filtered(&topo, NodeId::ROOT, |_| true),
        TreeKind::BoundedRandom { k, d } => {
            let mut rng = factory.stream("tree");
            (0..100)
                .find_map(|_| SpanningTree::bounded_random(&topo, NodeId::ROOT, k, d, &mut rng))
                .expect("bounded tree")
        }
        TreeKind::CompleteKary { .. } => unreachable!("no benchmarked scenario uses k-ary trees"),
    };
    s.tree = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut mac = LmacNetwork::<DirqMessage>::new(cfg.lmac, topo.clone());
    mac.assign_slots_greedy();
    s.slot_assign = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let world_cfg = cfg.world.clone().unwrap_or_else(|| WorldConfig::environmental(cfg.side));
    let catalog = SensorCatalog::environmental();
    let assignment = SensorAssignment::heterogeneous(
        topo.len(),
        catalog.len(),
        cfg.sensor_coverage,
        &mut factory.stream("assignment"),
    );
    let mut world = SensorWorld::new(&world_cfg, catalog, assignment, &topo, &factory);
    world.set_workers(cfg.world_workers.max(1));
    s.world_init = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let costs = TopologyCosts::compute(&topo, &tree);
    s.costs = t.elapsed().as_secs_f64();

    let engine_tree = engine.protocol_tree();
    let same_tree = engine.topology().positions() == topo.positions()
        && topo.nodes().all(|v| engine_tree.parent(v) == tree.parent(v));
    out.check(same_tree && costs.n == topo.len() as u64, || {
        format!("seed {}: replayed setup diverges from Engine::new", cfg.seed)
    });
    drop((mac, world));
    s
}

/// Time `Engine::new` and its replayed constructors `reps` times per
/// configuration; publish the medians (summed over configurations).
fn profile_setup(out: &mut Outcome, cfgs: &[ScenarioConfig], reps: usize) {
    let mut totals: Vec<(SetupSplit, f64)> = Vec::new();
    for _ in 0..reps {
        let mut split = SetupSplit::default();
        let mut new_s = 0.0;
        for cfg in cfgs {
            let t = Instant::now();
            let engine = Engine::new(cfg.clone());
            new_s += t.elapsed().as_secs_f64();
            let s = replay_setup(cfg, out, &engine);
            drop(engine);
            split.deploy += s.deploy;
            split.tree += s.tree;
            split.slot_assign += s.slot_assign;
            split.world_init += s.world_init;
            split.costs += s.costs;
        }
        totals.push((split, new_s));
    }
    let med =
        |f: &dyn Fn(&(SetupSplit, f64)) -> f64| median(&totals.iter().map(f).collect::<Vec<_>>());
    let deploy = med(&|t| t.0.deploy);
    let tree = med(&|t| t.0.tree);
    let slots = med(&|t| t.0.slot_assign);
    let world = med(&|t| t.0.world_init);
    let costs = med(&|t| t.0.costs);
    let whole = med(&|t| t.1);
    out.put("net.deploy_s", deploy, "s");
    out.put("net.tree_s", tree, "s");
    out.put("lmac.slot_assign_s", slots, "s");
    out.put("data.world_init_s", world, "s");
    out.put("analytic.costs_s", costs, "s");
    out.put("setup.unattributed_s", whole - (deploy + tree + slots + world + costs), "s");
}

/// Write the per-epoch phase rows of the workload-configuration traced
/// runs as CSV, in integer nanoseconds.
fn write_rows(path: &Path, rows: &[(String, PhaseRow)]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(f, "run,epoch")?;
    for p in PHASES {
        write!(f, ",{p}_ns")?;
    }
    writeln!(f, ",wall_ns")?;
    let mut epoch = 0;
    let mut last_tag = "";
    for (tag, row) in rows {
        if tag != last_tag {
            epoch = 0;
            last_tag = tag;
        }
        write!(f, "{tag},{epoch}")?;
        for v in row {
            write!(f, ",{}", (v * 1e9).round() as i64)?;
        }
        writeln!(f)?;
        epoch += 1;
    }
    f.flush()
}

/// Which scenario a traced engine profile covers.
pub enum EngineScenario {
    Paper,
    Stress,
    /// A registry preset at one worker (the dirqd_serve deployment).
    Preset(&'static str),
}

/// The engine half of a traced run: per-epoch phase rows (written to
/// `trace_csv`), layer totals, 1-vs-2-worker speedups, tracing
/// overhead, determinism counters and the setup split.
pub fn trace(scenario: EngineScenario, seed: u64, smoke: bool, trace_csv: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (cfgs, base_workers, epochs, setup_reps) = match scenario {
        EngineScenario::Paper => {
            let seeds = paper_seeds(seed);
            let seeds = if smoke { &seeds[..1] } else { &seeds[..] };
            let cfgs: Vec<_> = seeds.iter().map(|&s| paper_config(s, smoke)).collect();
            let epochs = cfgs[0].epochs;
            (cfgs, 1, epochs, 9)
        }
        EngineScenario::Stress => {
            let preset = if smoke { "grid_2000" } else { STRESS_PRESET };
            let cfg = preset_config(preset, preset_seed(preset));
            let epochs = if smoke { 60 } else { STRESS_TRACE_EPOCHS };
            (vec![cfg], POOL_WORKERS, epochs, 1)
        }
        EngineScenario::Preset(name) => {
            let cfg = preset_config(name, preset_seed(name));
            let epochs = if smoke { 400 } else { cfg.epochs };
            (vec![cfg], 1, epochs, 9)
        }
    };
    let mut profile = Profile::default();
    let mut rows = Vec::new();
    for cfg in &cfgs {
        profile_scenario(&mut profile, &mut out, cfg, base_workers, epochs, &mut rows);
    }
    profile.publish(&mut out, base_workers);
    let setup_cfgs: Vec<_> = cfgs.iter().map(|c| with_workers(c.clone(), base_workers)).collect();
    profile_setup(&mut out, &setup_cfgs, setup_reps);
    if let Err(e) = write_rows(trace_csv, &rows) {
        out.check(false, || format!("writing {}: {e}", trace_csv.display()));
    }
    out.note(format!("phase_rows={} trace_csv={}", rows.len(), trace_csv.display()));
    out
}
