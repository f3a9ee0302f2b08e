//! The MCCS benchmark: one command, one process, one simulation thread.
//!
//! ```text
//! cargo run --release --manifest-path mccsbench/Cargo.toml -- \
//!     --workload <hyperscale_churn|service_local|service_reconfig> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every repetition does identical work from a fresh fabric and a fresh
//! cluster; one untimed warm-up repetition runs first; repetitions repeat
//! until `--seconds` have passed, and every host-time metric is the median
//! over them. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones (spans written to `.bench_trace/<workload>.tsv`). The
//! last stdout line is the JSON result. See `README.md` beside this file.

mod alloc;
mod replay;
mod schema;
mod spans;
mod stats;
mod workload;

use schema::{Metrics, END_TO_END, PER_LAYER};
use spans::{SpanStats, Tracer};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{run_rep, Inputs, Rep, Workload};

#[global_allocator]
static ALLOCATOR: alloc::PeakAlloc = alloc::PeakAlloc;

/// Timed repetitions (or traced cycles) a run makes even when one of them
/// outlasts `--seconds`.
const MIN_REPS: usize = 3;

/// Setups timed per timed repetition: the repetition's own and this many
/// more set-up-only ones. A setup takes milliseconds, so `setup_s` needs
/// many more samples than the run phase to be as steady.
const SETUPS_PER_REP: usize = 10;

/// Observable digests of the default configuration, per workload and seed.
/// A change that moves one has changed the simulated model.
const PINNED_DIGESTS: &[(&str, u64, u64)] = &[
    ("service_local", 1, 0x4f4a8d99751053d2),
    ("service_local", 2, 0xc52ddabdc5342443),
    ("service_local", 3, 0xbc4e7fca87cc4ebb),
    ("service_local", 4, 0xe5a47163e0aed794),
    ("service_local", 5, 0x3f4b2099a025e8b4),
    ("service_local", 6, 0x73638f2cf7eac506),
    ("service_local", 7, 0x0b41520e729e0ccb),
    ("service_local", 8, 0x2a910ca6d49fca34),
    ("service_local", 9, 0x86baa325e1c4dd86),
    ("service_local", 10, 0x395887e2613cab56),
    ("service_reconfig", 1, 0x1dfba85897f7665a),
    ("service_reconfig", 2, 0xb8c750935591a094),
    ("service_reconfig", 3, 0x3dc6aef8780014b6),
    ("service_reconfig", 4, 0x4b071457bb8df4db),
    ("service_reconfig", 5, 0x39c193b261a56c50),
    ("service_reconfig", 6, 0x93a024e27559a3c7),
    ("service_reconfig", 7, 0x9f8f1a0cad5d854e),
    ("service_reconfig", 8, 0x2d4880353e6987fb),
    ("service_reconfig", 9, 0x98214acd893f643a),
    ("service_reconfig", 10, 0xbe971127a175f358),
    ("hyperscale_churn", 1, 0x9543a9bbb8663b85),
    ("hyperscale_churn", 2, 0xea45b51e89137980),
    ("hyperscale_churn", 3, 0x6c0c5bc66010d83b),
    ("hyperscale_churn", 4, 0x8f9cef1aca439618),
    ("hyperscale_churn", 5, 0x505a1aa4b030a798),
    ("hyperscale_churn", 6, 0x35b036c3cc8675ff),
    ("hyperscale_churn", 7, 0x746f9bf162b3c24d),
    ("hyperscale_churn", 8, 0x1adb5f7deadb7720),
    ("hyperscale_churn", 9, 0x36a3e7a3f9f19a04),
    ("hyperscale_churn", 10, 0x44a6020beaa657a6),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark measures the default configuration only: simulator
/// knobs set in the environment would silently change what is measured.
fn refuse_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MCCS_SIM_") || k.starts_with("MCCS_NETSIM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with simulator knobs set: {}",
            set.join(", ")
        ))
    }
}

fn main() {
    let args = match refuse_knobs().and_then(|()| parse_args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mccsbench: {e}");
            std::process::exit(2);
        }
    };
    println!("freed heap kept in process: {}", alloc::keep_freed_memory());
    let inp = Inputs::generate(args.workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let (correct, attempted, failed, metrics) = if args.trace {
        traced_run(&inp, budget)
    } else {
        untraced_run(&inp, budget)
    };
    println!("{}", metrics.to_json(correct, attempted, failed));
}

/// Print one metric with the per-repetition values behind it.
fn report(name: &str, unit: &str, value: f64, per_rep: &[f64]) {
    let reps: Vec<String> = per_rep.iter().map(|v| format!("{v:.6}")).collect();
    println!(
        "{name:<34} {value:>16.6} {unit:<8} reps [{}]",
        reps.join(" ")
    );
}

/// Correctness across repetitions of the same inputs: each outcome is
/// clean, and every repetition (warm-up and traced ones included) produced
/// the same digest, latencies and counts; the digest matches its pin.
fn check(inp: &Inputs, reps: &[&Rep]) -> bool {
    let mut ok = true;
    let first = reps[0];
    for (i, r) in reps.iter().enumerate() {
        for e in &r.errors {
            println!("INCORRECT rep {i}: {e}");
            ok = false;
        }
        if r.digest != first.digest {
            println!(
                "INCORRECT rep {i}: digest {:#018x} != {:#018x}",
                r.digest, first.digest
            );
            ok = false;
        }
        if r.latencies_ns != first.latencies_ns {
            println!("INCORRECT rep {i}: simulated latencies differ from rep 0");
            ok = false;
        }
        let mut c = r.counts.clone();
        c.peak_live_flows = first.counts.peak_live_flows;
        if c != first.counts {
            println!("INCORRECT rep {i}: counts {c:?} != {:?}", first.counts);
            ok = false;
        }
    }
    let name = inp.workload.name();
    match PINNED_DIGESTS
        .iter()
        .find(|(w, s, _)| *w == name && *s == inp.seed)
    {
        Some(&(_, _, pin)) if pin != first.digest => {
            println!(
                "INCORRECT digest {:#018x}, pinned {pin:#018x}",
                first.digest
            );
            ok = false;
        }
        Some(_) => println!("digest {:#018x} (pinned)", first.digest),
        None => println!("digest {:#018x} (seed not pinned)", first.digest),
    }
    println!(
        "sim_workers {} sim_shards {}",
        first.counts.sim_workers, first.counts.sim_shards
    );
    ok
}

fn totals(reps: &[&Rep]) -> (u64, u64) {
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let completed: u64 = reps.iter().map(|r| r.completed).sum();
    (attempted, attempted - completed)
}

fn untraced_run(inp: &Inputs, budget: Duration) -> (bool, u64, u64, Metrics) {
    let mut tr = Tracer::off();
    let warm = run_rep(inp, &mut tr);
    let start = Instant::now();
    let (mut reps, mut setups) = (Vec::new(), Vec::new());
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let mut these: Vec<f64> = (1..SETUPS_PER_REP)
            .map(|_| workload::setup_only(inp))
            .collect();
        let rep = run_rep(inp, &mut tr);
        these.push(rep.setup_s);
        setups.push(these);
        reps.push(rep);
    }
    let all: Vec<&Rep> = std::iter::once(&warm).chain(&reps).collect();
    let correct = check(inp, &all);
    let timed: Vec<&Rep> = reps.iter().collect();
    let (attempted, failed) = totals(&timed);

    let mut m = Metrics::new(END_TO_END);
    let mut put = |name: &'static str, per_rep: Vec<f64>, value: f64| {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .expect("schema")
            .1;
        report(name, unit, value, &per_rep);
        m.set(name, value);
    };
    let rate: Vec<f64> = reps.iter().map(|r| r.completed as f64 / r.run_s).collect();
    put("collectives_per_s", rate.clone(), median(&rate));
    let all_setups: Vec<f64> = setups.concat();
    let setup_meds: Vec<f64> = setups.iter().map(|s| median(s)).collect();
    put("setup_s", setup_meds, median(&all_setups));
    let heap: Vec<f64> = reps
        .iter()
        .map(|r| r.peak_heap_bytes as f64 / (1024.0 * 1024.0))
        .collect();
    put("peak_heap_mib", heap.clone(), median(&heap));
    let ok: Vec<f64> = reps
        .iter()
        .map(|r| r.completed as f64 / r.attempted as f64)
        .collect();
    put(
        "collectives_ok_frac",
        ok,
        (attempted - failed) as f64 / attempted as f64,
    );
    // Simulated latency is deterministic: identical in every repetition
    // (checked above), so the first repetition's samples stand for all.
    let lat: Vec<f64> = reps[0]
        .latencies_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let p99 = percentile(&lat, 0.99).unwrap_or_else(|| {
        panic!(
            "{} collectives per repetition leave fewer than 10 beyond p99",
            lat.len()
        )
    });
    put("sim_collective_p50_ms", Vec::new(), median(&lat));
    put("sim_collective_p99_ms", Vec::new(), p99);
    println!(
        "{} timed repetitions of {} collectives each",
        reps.len(),
        inp.attempted()
    );
    (correct, attempted, failed, m)
}

fn traced_run(inp: &Inputs, budget: Duration) -> (bool, u64, u64, Metrics) {
    let mut off = Tracer::off();
    let mut tr = Tracer::on();
    let warm = run_rep(inp, &mut off);
    let start = Instant::now();
    let (mut plain, mut traced, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    let mut route_pairs = 0;
    // One cycle: an untraced repetition, a traced one, then the replays.
    // The traced repetition and replays share one repetition id; only the
    // first cycle's spans are kept for the span file.
    while traced.len() < MIN_REPS || start.elapsed() < budget {
        plain.push(run_rep(inp, &mut off));
        traced.push(run_rep(inp, &mut tr));
        route_pairs = replay::replay(inp, &mut tr);
        cycles.push(tr.finish_rep(cycles.is_empty()));
    }
    let all: Vec<&Rep> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let correct = check(inp, &all);
    let measured: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let (attempted, failed) = totals(&measured);

    // A statistic of one span name per cycle (cycles where it ran), and
    // their median; 0 when the layer never ran on this workload.
    let per_cycle = |name: &str, f: &dyn Fn(&SpanStats) -> f64| -> (f64, Vec<f64>) {
        let xs: Vec<f64> = cycles.iter().filter_map(|c| c.get(name)).map(f).collect();
        (if xs.is_empty() { 0.0 } else { median(&xs) }, xs)
    };
    let p50 = |name: &str, scale: f64| per_cycle(name, &|s| s.median_us * scale);
    let plain_run_s = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_run_s = median(&traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let cold_share = per_cycle("topology.route_cold", &|s| {
        s.total_ns as f64 / 1e9 / plain_run_s
    });
    let step_p99 = per_cycle("sim.step", &|s| {
        s.p99_us.unwrap_or_else(|| {
            panic!(
                "{} steps per repetition leave fewer than 10 beyond p99",
                s.count
            )
        })
    });
    let c = &traced[0].counts;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let count = |v: u64| (v as f64, Vec::new());

    let values: Vec<(&'static str, (f64, Vec<f64>))> = vec![
        ("topology.build_s", p50("topology.build", 1e-6)),
        ("topology.route_pairs", count(route_pairs as u64)),
        (
            "topology.route_cold_us_p50",
            p50("topology.route_cold", 1.0),
        ),
        ("topology.route_cold_share", cold_share),
        ("sim.steps", count(c.steps)),
        ("sim.polls", count(c.polls)),
        ("sim.wasted_polls", count(c.wasted_polls)),
        ("sim.wakes", count(c.wakes)),
        (
            "sim.useful_poll_frac",
            (ratio(c.polls - c.wasted_polls, c.polls), Vec::new()),
        ),
        ("sim.step_us_p50", p50("sim.step", 1.0)),
        ("sim.step_us_p99", step_p99),
        (
            "netsim.remap_hit_frac",
            (ratio(c.remap.0, c.remap.0 + c.remap.1), Vec::new()),
        ),
        ("netsim.peak_live_flows", count(c.peak_live_flows)),
        ("netsim.start_flow_us_p50", p50("netsim.start_flow", 1.0)),
        ("netsim.advance_us_p50", p50("netsim.advance", 1.0)),
        (
            "collectives.schedule_ring_us_p50",
            p50("collectives.schedule_ring", 1.0),
        ),
        ("core.schedule_cache_hits", count(c.schedule_cache.0)),
        ("core.schedule_cache_misses", count(c.schedule_cache.1)),
        (
            "control.optimal_rings_us_p50",
            p50("control.optimal_rings", 1.0),
        ),
        ("control.ffa_ms", p50("control.ffa", 1e-3)),
        (
            "control.optimize_cluster_ms",
            p50("control.optimize_cluster", 1e-3),
        ),
        ("core.add_app_us_p50", p50("core.add_app", 1.0)),
        ("core.reconfigure_us_p50", p50("core.reconfigure", 1.0)),
        ("core.gossip_resends", count(c.gossip_resends)),
        ("core.reconfig_rejects", count(c.reconfig_rejects)),
        ("core.recoveries", count(c.recoveries)),
        ("core.flow_retries", count(c.flow_retries)),
        ("core.collectives_failed", count(c.collectives_failed)),
        ("baseline.spawn_us_p50", p50("baseline.spawn", 1.0)),
        (
            "trace.spans",
            count(cycles[0].values().map(|s| s.count).sum()),
        ),
        (
            "trace.overhead_frac",
            (traced_run_s / plain_run_s - 1.0, Vec::new()),
        ),
    ];
    let mut m = Metrics::new(PER_LAYER);
    for (name, (value, reps)) in values {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .expect("schema")
            .1;
        report(name, unit, value, &reps);
        m.set(name, value);
    }

    println!("\nself time by span over {} traced cycles:", cycles.len());
    println!(
        "{:<34} {:>10} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (name, s) in cycles.iter().flatten() {
        let e = summary.entry(name).or_default();
        *e = (e.0 + s.count, e.1 + s.total_ns, e.2 + s.self_ns);
    }
    for (name, (n, total, own)) in summary {
        println!(
            "{name:<34} {n:>10} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}.tsv", inp.workload.name()));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_tsv())) {
        Ok(()) => println!("first cycle's spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
    (correct, attempted, failed, m)
}
