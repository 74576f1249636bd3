//! Traced run of one benchmark workload.
//!
//! `perfbench-trace run <sweep flags> --out <artifact> --spans <file>`
//! replays the campaign that `iadm-cli sweep <sweep flags>` runs, but
//! drives the public API of the workspace crates step by step and records
//! a span (name, start, end, parent, run index) around every call into a
//! layer. Spans stay in memory until the campaign ends and are then
//! written as one JSON file; the artifact is written exactly as the CLI
//! writes it, so its statistics can be checked against the untraced run.
//!
//! `perfbench-trace probe <sweep flags>` times single components in
//! isolation (route-table entry and refresh, REROUTE, TSDT trace, SSDT
//! route, queue push/pop, lane reserve/release, Bernoulli draws, the
//! arrival scan, destination draws, histogram record) on inputs taken from
//! the workload's own network size, load, queue depth, lane count and
//! blockage map, and prints one JSON object of nanoseconds per operation.
//!
//! Nothing here adds tracing inside the program: every span and probe
//! wraps a public function from the outside.

use iadm_core::{reroute, route::trace_tsdt, ssdt, NetworkState, RouteLut, TsdtTag};
use iadm_fault::BlockageMap;
use iadm_rng::{Rng, StdRng};
use iadm_sim::{
    LatencyHistogram, Packet, QueueArena, ReservationTable, SimConfig, Simulator, SwitchingMode,
};
use iadm_sweep::{
    campaign_json, CampaignResult, RunBases, RunRecord, RunSpec, SweepSpec, FAULT_SEED_STREAM,
    TIMELINE_SEED_STREAM,
};
use iadm_topology::{Link, Size};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: perfbench-trace run|probe --n <N> --loads <p> --queues <q> \
--policies <policy> [--patterns <pattern>] [--modes <mode>] [--faults <scenario>] \
--cycles <c> [--warmup <w>] --seed <s> [--out <artifact> --spans <file>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench-trace: {msg}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    let flags = Flags::parse(rest)?;
    let spec = sweep_spec(&flags)?;
    match command.as_str() {
        "run" => traced_campaign(&spec, flags.require("out")?, flags.require("spans")?),
        "probe" => {
            let probes = probe_components(&spec)?;
            let body: Vec<String> = probes
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            println!("{{{}}}", body.join(", "));
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

/// `--key value` pairs, restricted to the sweep flags the benchmark uses.
struct Flags(HashMap<String, String>);

impl Flags {
    const KNOWN: [&'static str; 12] = [
        "n", "loads", "queues", "policies", "patterns", "modes", "faults", "cycles", "warmup",
        "seed", "out", "spans",
    ];

    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| Self::KNOWN.contains(k))
                .ok_or_else(|| format!("unknown flag {flag}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let text = self.require(key)?;
        text.parse().map_err(|_| format!("bad --{key} {text:?}"))
    }
}

/// Builds the campaign `iadm-cli sweep` builds from the same flags: the
/// axes the benchmark names are set, every other field keeps the single
/// default value the CLI's own spec uses.
fn sweep_spec(flags: &Flags) -> Result<SweepSpec, String> {
    let list = |key: &str, default: &str| -> Vec<String> {
        flags
            .get(key)
            .unwrap_or(default)
            .split(',')
            .map(|s| s.trim().to_string())
            .collect()
    };
    let mut spec = SweepSpec::smoke();
    spec.name = "custom".into();
    spec.sizes = list("n", "")
        .iter()
        .map(|n| n.parse().map_err(|_| format!("bad --n {n:?}")))
        .collect::<Result<_, _>>()?;
    spec.loads = iadm_sweep::parse_loads(flags.require("loads")?)?;
    spec.queue_capacities = list("queues", "4")
        .iter()
        .map(|q| q.parse().map_err(|_| format!("bad --queues {q:?}")))
        .collect::<Result<_, _>>()?;
    spec.policies = list("policies", "ssdt")
        .iter()
        .map(|p| iadm_sweep::parse_policy(p))
        .collect::<Result<_, _>>()?;
    spec.patterns = list("patterns", "uniform")
        .iter()
        .map(|p| iadm_sweep::parse_pattern(p))
        .collect::<Result<_, _>>()?;
    spec.modes = list("modes", "sf")
        .iter()
        .map(|m| iadm_sweep::parse_mode(m))
        .collect::<Result<_, _>>()?;
    spec.scenarios = list("faults", "none")
        .iter()
        .map(|s| iadm_sweep::parse_scenario(s))
        .collect::<Result<_, _>>()?;
    spec.cycles = flags.number("cycles")?;
    spec.warmup = match flags.get("warmup") {
        Some(_) => flags.number("warmup")?,
        None => spec.cycles / 5,
    };
    spec.converge = None;
    spec.campaign_seed = flags.number("seed")?;
    Ok(spec)
}

const NO_PARENT: usize = usize::MAX;
const NO_RUN: usize = usize::MAX;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: usize,
    run: usize,
}

/// In-memory span recorder; times are nanoseconds since the recorder was
/// made.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: usize, run: usize) -> usize {
        let start = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed().as_nanos() as u64;
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let err = |e: std::io::Error| format!("cannot write {path}: {e}");
        let file = std::fs::File::create(path).map_err(err)?;
        let mut out = std::io::BufWriter::new(file);
        let signed = |v: usize| if v == usize::MAX { -1 } else { v as i64 };
        writeln!(out, "{{\"clock\": \"ns\", \"spans\": [").map_err(err)?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \"run\": {}}}{sep}",
                s.name,
                s.start,
                s.end,
                signed(s.parent),
                signed(s.run)
            )
            .map_err(err)?;
        }
        writeln!(out, "]}}").map_err(err)?;
        out.flush().map_err(err)
    }
}

/// Realizes `run`'s scenario and builds its route table as
/// [`RunBases::realize`] does, with the two layers timed apart.
fn traced_bases(tr: &mut Tracer, run: &RunSpec, parent: usize, run_index: usize) -> RunBases {
    let span = tr.open("fault.realize", parent, run_index);
    let blockages = Arc::new(
        run.scenario
            .realize(run.size, iadm_rng::mix(run.seed, FAULT_SEED_STREAM)),
    );
    tr.close(span);
    let span = tr.open("core.lut_build", parent, run_index);
    let lut = Arc::new(RouteLut::new(run.size, &blockages));
    tr.close(span);
    let faults = blockages.blocked_count();
    RunBases {
        blockages,
        lut,
        faults,
    }
}

/// The campaign executor on one thread, as `iadm-sweep` runs it: shared
/// bases for scenarios whose realization ignores the seed, per-run bases
/// otherwise, then per run the fault timeline, the simulator, every
/// `step` and `finish`; last the artifact encode, validation and write.
fn traced_campaign(spec: &SweepSpec, out: &str, spans_path: &str) -> Result<(), String> {
    let cycles_total = spec.grid_len() * spec.cycles;
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::with_capacity(cycles_total + spec.grid_len() * 8 + 16),
    };
    let root = tr.open("sweep.campaign", NO_PARENT, NO_RUN);

    let span = tr.open("sweep.expand", root, NO_RUN);
    let runs = spec.expand()?;
    tr.close(span);

    let bases_span = tr.open("sweep.bases", root, NO_RUN);
    let mut shared: HashMap<(usize, String), RunBases> = HashMap::new();
    for run in &runs {
        if run.scenario.realization_is_seeded() {
            continue;
        }
        shared
            .entry((run.size.n(), run.scenario.label()))
            .or_insert_with(|| traced_bases(&mut tr, run, bases_span, NO_RUN));
    }
    tr.close(bases_span);

    let mut records = Vec::with_capacity(runs.len());
    for run in &runs {
        let i = run.index;
        let run_span = tr.open("sweep.run", root, i);
        let owned;
        let bases = if run.scenario.realization_is_seeded() {
            owned = traced_bases(&mut tr, run, run_span, i);
            &owned
        } else {
            &shared[&(run.size.n(), run.scenario.label())]
        };

        let span = tr.open("fault.timeline", run_span, i);
        let timeline = run.scenario.timeline(
            run.size,
            iadm_rng::mix(run.seed, TIMELINE_SEED_STREAM),
            run.cycles as u64,
        );
        tr.close(span);

        let span = tr.open("sim.build", run_span, i);
        let config = SimConfig {
            size: run.size,
            queue_capacity: run.queue_capacity,
            cycles: run.cycles,
            warmup: run.warmup,
            offered_load: run.offered_load,
            seed: run.seed,
            engine: run.engine,
        };
        let mut sim = Simulator::with_shared_lut(
            config,
            run.policy,
            run.pattern.clone(),
            bases.blockages.clone(),
            bases.lut.clone(),
            timeline,
        )
        .with_switching_mode(run.mode);
        tr.close(span);

        for _ in 0..run.cycles {
            let span = tr.open("sim.step", run_span, i);
            sim.step();
            tr.close(span);
        }

        let span = tr.open("sim.finish", run_span, i);
        let stats = sim.finish();
        tr.close(span);
        records.push(RunRecord {
            spec: run.clone(),
            faults: bases.faults,
            stats,
        });
        tr.close(run_span);
    }

    let span = tr.open("sweep.emit", root, NO_RUN);
    let result = CampaignResult {
        name: spec.name.clone(),
        campaign_seed: spec.campaign_seed,
        runs: records,
    };
    let text = campaign_json(&result).encode();
    iadm_bench::json::assert_round_trip(&text)
        .map_err(|e| format!("campaign JSON failed validation: {e}"))?;
    std::fs::write(out, text + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
    tr.close(span);
    tr.close(root);
    tr.write(spans_path)
}

/// Median nanoseconds per operation of `op` over `batches` timed batches
/// of `ops` calls each (after one untimed warm-up batch).
fn ns_per_op(ops: usize, batches: usize, mut op: impl FnMut(usize) -> u64) -> f64 {
    let mut samples = Vec::with_capacity(batches);
    for batch in 0..=batches {
        let started = Instant::now();
        let mut acc = 0u64;
        for i in 0..ops {
            acc = acc.wrapping_add(op(black_box(i)));
        }
        black_box(acc);
        if batch > 0 {
            samples.push(started.elapsed().as_nanos() as f64 / ops as f64);
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Random inputs cycled through by the probes (a power-of-two count, so
/// `i & MASK` picks one without a division).
const INPUTS: usize = 4096;
const MASK: usize = INPUTS - 1;
const BATCHES: usize = 15;

fn probe_components(spec: &SweepSpec) -> Result<Vec<(&'static str, f64)>, String> {
    let runs = spec.expand()?;
    let run = &runs[0];
    let size: Size = run.size;
    let n = size.n();
    let stages = size.stages();
    let p = run.offered_load;
    let lanes = match run.mode {
        SwitchingMode::Wormhole { lanes, .. } => lanes as usize,
        SwitchingMode::StoreForward => 1,
    };
    // The blockage map the workload meets: its realized static faults
    // with every fault event of its timeline applied.
    let initial = run
        .scenario
        .realize(size, iadm_rng::mix(run.seed, FAULT_SEED_STREAM));
    let blockages: BlockageMap = run
        .scenario
        .timeline(
            size,
            iadm_rng::mix(run.seed, TIMELINE_SEED_STREAM),
            run.cycles as u64,
        )
        .final_map(&initial);

    let mut rng = StdRng::seed_from_u64(spec.campaign_seed ^ 0x9B0B);
    let pairs: Vec<(usize, usize)> = (0..INPUTS)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let switches: Vec<(usize, usize, usize)> = (0..INPUTS)
        .map(|_| {
            (
                rng.gen_range(0..stages),
                rng.gen_range(0..n),
                rng.gen_range(0..2),
            )
        })
        .collect();
    let links: Vec<usize> = (0..INPUTS)
        .map(|_| rng.gen_range(0..Link::slot_count(size)))
        .collect();
    let latencies: Vec<u64> = (0..INPUTS)
        .map(|_| (stages + rng.gen_range(0..4 * stages)) as u64)
        .collect();

    let mut out = Vec::new();

    let mut lut = RouteLut::new(size, &blockages);
    out.push((
        "core.lut_entry_ns",
        ns_per_op(1 << 20, BATCHES, |i| {
            let (stage, sw, t) = switches[i & MASK];
            let e = lut.entry(stage, sw, t);
            u64::from(e.c_free()) + u64::from(e.cbar_free()) + e.c_kind().index() as u64
        }),
    ));
    out.push((
        "core.lut_refresh_ns",
        ns_per_op(1 << 16, BATCHES, |i| {
            let (stage, sw, _) = switches[i & MASK];
            lut.refresh_switch(stage, sw, &blockages);
            1
        }),
    ));
    black_box(&lut);
    drop(lut);

    out.push((
        "core.reroute_ns",
        ns_per_op(1 << 14, BATCHES, |i| {
            let (s, d) = pairs[i & MASK];
            reroute(size, &blockages, s, d).map_or(0, |tag| tag.raw() as u64)
        }),
    ));
    out.push((
        "core.tsdt_trace_ns",
        ns_per_op(1 << 15, BATCHES, |i| {
            let (s, d) = pairs[i & MASK];
            trace_tsdt(size, s, &TsdtTag::new(size, d)).len() as u64
        }),
    ));
    let mut state = NetworkState::all_c(size);
    out.push((
        "core.ssdt_route_ns",
        ns_per_op(1 << 14, BATCHES, |i| {
            let (s, d) = pairs[i & MASK];
            ssdt::route(size, &blockages, &mut state, s, d).map_or(0, |r| r.repairs.len() as u64)
        }),
    ));
    drop(state);

    let mut queues = QueueArena::new(Link::slot_count(size), run.queue_capacity);
    out.push((
        "queue.push_pop_ns",
        ns_per_op(1 << 20, BATCHES, |i| {
            let q = links[i & MASK];
            queues.push(q, Packet::new(pairs[i & MASK].1, i as u64));
            queues.pop(q).map_or(0, |pkt| u64::from(pkt.dest))
        }),
    ));
    drop(queues);

    let mut table = ReservationTable::new(Link::slot_count(size), lanes);
    out.push((
        "lanes.reserve_release_ns",
        ns_per_op(1 << 20, BATCHES, |i| {
            match table.reserve(links[i & MASK], i as u32) {
                Some(slot) => {
                    table.release(slot);
                    slot as u64
                }
                None => 0,
            }
        }),
    ));
    drop(table);

    let mut draws = StdRng::seed_from_u64(run.seed);
    out.push((
        "rng.gen_bool_ns",
        ns_per_op(1 << 20, BATCHES, |_| u64::from(draws.gen_bool(p))),
    ));
    // One cycle's arrival scan: a Bernoulli draw per source at the
    // workload's per-port load, reported in microseconds per scan.
    let scans = ((1usize << 21) / n).max(1);
    let scan_ns = ns_per_op(scans, BATCHES, |_| {
        (0..n).filter(|_| draws.gen_bool(p)).count() as u64
    });
    out.push(("workload.arrival_scan_us", scan_ns / 1000.0));
    out.push((
        "workload.destination_ns",
        ns_per_op(1 << 20, BATCHES, |i| {
            run.pattern.destination(size, pairs[i & MASK].0, &mut draws) as u64
        }),
    ));

    let mut hist = LatencyHistogram::new();
    out.push((
        "histogram.record_ns",
        ns_per_op(1 << 20, BATCHES, |i| {
            hist.record(latencies[i & MASK]);
            1
        }),
    ));
    black_box(hist.count());
    Ok(out)
}
