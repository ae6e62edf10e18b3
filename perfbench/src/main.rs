//! End-to-end and per-layer benchmark of the Oasis simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_day|fig8_sweep|dc_day|micro_lab> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --pin
//! ```
//!
//! An untraced run (`--trace 0`) runs the workload's fixed unit list
//! once in ten chunks, timing every unit and checking every unit's
//! outputs, and sets the workload up once before each chunk; it reports
//! medians. A traced run (`--trace 1`) times part of the unit list with and without
//! spans, then runs every per-layer probe (see `layers.rs`). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--pin` regenerates `data/pins.txt`.
//!
//! See `METHODOLOGY.md` for what each metric means and how steady it is.

mod alloc;
mod check;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use oasis_bench::timing::wall;
use oasis_bench::Reporter;
use oasis_mem::ByteSize;
use oasis_sim::pool::WorkerPool;
use oasis_telemetry::Telemetry;

use check::{Delays, Pins};
use spans::Recorder;
use stats::{beyond, quantile};
use workloads::{run_batch, Kind, Outcome, Unit};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Chunks the timed part of an untraced run is cut into. The workload
/// is set up once before each chunk, and `setup_s` is the median.
const CHUNKS: usize = 10;

/// A tail percentile is reported only with at least this many samples
/// beyond it.
const TAIL_SAMPLES: usize = 10;

/// Settings the program would otherwise read from the environment. The
/// benchmark measures the default paths on explicitly sized pools.
const CLEARED_ENV: [&str; 3] = ["OASIS_ENGINE", "OASIS_FIDELITY", "OASIS_JOBS"];

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 8] =
    ["bench", "pool", "cluster", "shard", "trace", "core", "migration", "mem"];

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// `Ok(None)` asks for `--pin`.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--pin"] {
        return Ok(None);
    }
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let name = get("workload")?;
    Ok(Some(Args {
        workload: Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
    }))
}

fn main() -> ExitCode {
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let out = Reporter::with_telemetry("perfbench", Telemetry::disabled());
    match parse_args(&argv) {
        Ok(Some(args)) => run(&out, &args),
        Ok(None) => pin(&out),
        Err(e) => {
            out.line(&format!("error: {e}"));
            ExitCode::from(2)
        }
    }
}

/// What one run measured.
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Metrics for the final JSON line: (name, value, unit).
    metrics: Vec<(String, f64, &'static str)>,
}

fn run(out: &Reporter, args: &Args) -> ExitCode {
    let kind = args.workload;
    let units = kind.units(args.seed, args.seconds);
    let pins = Pins::load();
    let load_before = loadavg();
    out.line(&format!(
        "perfbench {} seed={} units={} trace={}",
        kind.name(),
        args.seed,
        units.len(),
        u8::from(args.trace)
    ));
    let result = if args.trace {
        traced(out, args, &units, &pins)
    } else {
        untraced(out, kind, &units, &pins)
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.line(&format!(
        "context {{\"available_parallelism\":{parallelism},\"workers\":{},\"profile\":\"{}\",\
         \"loadavg_before\":\"{load_before}\",\"loadavg_after\":\"{}\"}}",
        kind.workers(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        loadavg()
    ));
    for p in result.problems.iter().take(20) {
        out.line(&format!("FAILED {p}"));
    }
    let failed = result.failed;
    let finite = result.metrics.iter().all(|m| m.1.is_finite());
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0 && finite;
    out.line(&format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        result.attempted.max(1),
        metrics.join(",")
    ));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Sets up `kind` once: an empty trace-corpus cache, the pools, and one
/// warm-up unit, the same one whatever the seed. Returns the set-up
/// seconds.
fn setup(kind: Kind, pins: &Pins) -> f64 {
    let warm_up = kind.pool_units()[0];
    wall(|| {
        oasis_trace::clear_trace_cache();
        let pool = WorkerPool::new(kind.workers());
        let racks = WorkerPool::new(1);
        std::hint::black_box(run_batch(&pool, &[warm_up], &racks, pins, None, 0, 0));
    })
    .1
}

/// Outcomes of a list of units, with the wall seconds of each unit and
/// the summed wall seconds of the batches.
struct Timed {
    outcomes: Vec<Outcome>,
    unit_secs: Vec<f64>,
    batch_secs: f64,
}

/// Runs `units` batch by batch on the workload's pool.
fn run_units(kind: Kind, units: &[Unit], pins: &Pins, rec: Option<&Recorder>, first: u32) -> Timed {
    let pool = WorkerPool::new(kind.workers());
    let racks = WorkerPool::new(1);
    let mut t = Timed {
        outcomes: Vec::with_capacity(units.len()),
        unit_secs: Vec::with_capacity(units.len()),
        batch_secs: 0.0,
    };
    for (b, batch) in units.chunks(kind.batch_len()).enumerate() {
        let uid = first + (b * kind.batch_len()) as u32;
        let (results, secs) = spans::maybe(rec, "pool.map", 0, uid, |sweep| {
            run_batch(&pool, batch, &racks, pins, rec, sweep, uid)
        });
        t.batch_secs += secs;
        for (o, s) in results {
            t.outcomes.push(o);
            t.unit_secs.push(s);
        }
    }
    t
}

fn untraced(out: &Reporter, kind: Kind, units: &[Unit], pins: &Pins) -> Run {
    // The timed part is cut into CHUNKS runs of whole batches, and the
    // set-ups are spread between them, so that the medians below draw on
    // the whole run rather than on one stretch of it.
    let batches = units.len() / kind.batch_len();
    let chunk_len = batches.div_ceil(CHUNKS) * kind.batch_len();
    let mut setups = Vec::with_capacity(CHUNKS);
    let mut rates = Vec::with_capacity(CHUNKS);
    let mut ms = Vec::with_capacity(units.len());
    let mut peak = 0;
    let mut delays = Delays::new();
    let mut problems = Vec::new();
    let (mut network, mut savings, mut cluster_units, mut failed_units) = (0u64, 0.0, 0u32, 0);
    for (c, chunk) in units.chunks(chunk_len).enumerate() {
        setups.push(setup(kind, pins));
        alloc::reset_peak();
        let t = run_units(kind, chunk, pins, None, 1 + (c * chunk_len) as u32);
        peak = peak.max(alloc::peak_bytes());
        rates.push(chunk.len() as f64 / t.batch_secs);
        ms.extend(t.unit_secs.iter().map(|s| s * 1e3));
        for o in t.outcomes {
            check::pool(&mut delays, &o.delays);
            network += o.network_bytes;
            if let Some(s) = o.savings {
                savings += s;
                cluster_units += 1;
            }
            failed_units += usize::from(!o.problems.is_empty());
            problems.extend(o.problems);
        }
    }
    let peak = ByteSize::bytes(peak);

    let n = ms.len();
    let units_per_s = quantile(&rates, 0.5);
    let p50 = quantile(&ms, 0.5);
    let setup_s = quantile(&setups, 0.5);
    let peak_mib = peak.as_mib_f64();
    out.line(&format!(
        "units_per_s = {units_per_s:.3} 1/s  (host, median over {} chunks of {n} units: {rates:.3?})",
        rates.len()
    ));
    out.line(&format!("unit_ms_p50 = {p50:.3} ms  (host, n={n})"));
    if beyond(n, 0.9) >= TAIL_SAMPLES {
        out.line(&format!(
            "unit_ms_p90 = {:.3} ms  (host, n={n}, {} beyond)",
            quantile(&ms, 0.9),
            beyond(n, 0.9)
        ));
    } else {
        out.line(&format!(
            "unit_ms_p90 not reported: {n} units leave fewer than {TAIL_SAMPLES} beyond it"
        ));
    }
    out.line(&format!(
        "setup_s = {setup_s:.4} s  (host, median of {}: {setups:.4?})",
        setups.len()
    ));
    out.line(&format!("peak_heap_mib = {peak_mib:.2} MiB  (host)"));
    out.line(&format!("failed_share = {} fraction  (host)", failed_units as f64 / n as f64));
    if cluster_units > 0 {
        out.line(&format!(
            "energy_savings_pct = {:.4} %  (sim, mean of {cluster_units})",
            savings / f64::from(cluster_units) * 100.0
        ));
    }
    out.line(&format!(
        "network_gib_per_unit = {:.6} GiB  (sim)",
        ByteSize::bytes(network).as_gib_f64() / n as f64
    ));
    out.line(&format!(
        "resume_delay_p99_s = {:.3} s  (sim, {} delays pooled)",
        check::delay_quantile(&delays, 0.99).unwrap_or(0.0),
        delays.values().sum::<u64>()
    ));

    Run {
        attempted: n as u64,
        failed: failed_units as u64,
        problems,
        // The unit-time percentiles above are printed, not gated: on a
        // shared 2-vCPU box they move by more than a quarter between
        // identical runs (see METHODOLOGY.md).
        metrics: vec![
            ("units_per_s".into(), units_per_s, "1/s"),
            ("setup_s".into(), setup_s, "s"),
            ("peak_heap_mib".into(), peak_mib, "MiB"),
        ],
    }
}

/// Batches of the workload timed with and without spans in a traced run.
fn traced_batches(kind: Kind) -> usize {
    match kind {
        Kind::PaperDay => 40,
        Kind::Fig8Sweep => 2,
        Kind::DcDay => 4,
        Kind::MicroLab => 10,
    }
}

fn traced(out: &Reporter, args: &Args, units: &[Unit], pins: &Pins) -> Run {
    let kind = args.workload;
    setup(kind, pins);
    let rec = Recorder::new(1 << 16);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let batches = units.chunks(kind.batch_len()).take(traced_batches(kind));
    for (b, batch) in batches.enumerate() {
        let first = 1 + (b * kind.batch_len()) as u32;
        // Alternate which side runs first, so neither always runs warm.
        for traced_side in [b % 2 == 1, b % 2 == 0] {
            let t = run_units(kind, batch, pins, traced_side.then_some(&rec), first);
            let ms = if traced_side { &mut traced_ms } else { &mut plain_ms };
            ms.extend(t.unit_secs.iter().map(|s| s * 1e3));
            attempted += t.outcomes.len() as u64;
            for o in t.outcomes {
                failed += u64::from(!o.problems.is_empty());
                problems.extend(o.problems);
            }
        }
    }

    let mut probes = layers::Probes::new(&rec, pins, args.seed);
    probes.run_probes();
    let layers::Probes { metrics: probe_metrics, attempted: a, failed: f, problems: p, .. } =
        probes;
    attempted += a;
    failed += f;
    problems.extend(p);

    let spans = rec.into_spans();
    let unit_spans: Vec<spans::Span> =
        spans.iter().filter(|s| s.unit < layers::PROBE_UNIT_BASE).cloned().collect();
    let coverage = spans::coverage(&unit_spans, "bench.unit");
    let self_secs = spans::self_secs_by_layer(&spans);
    let overhead = quantile(&traced_ms, 0.5) - quantile(&plain_ms, 0.5);

    let file = format!("spans-{}-seed{}.jsonl", kind.name(), args.seed);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(&file);
    if let Err(e) = spans::write_jsonl(&path, &spans) {
        problems.push(format!("writing perfbench/out/{file}: {e}"));
        failed += 1;
    }
    out.line(&format!("spans: {} written to perfbench/out/{file}", spans.len()));

    let mut all: Vec<(String, f64, &'static str)> = vec![
        ("trace.untraced_unit_ms_p50".into(), quantile(&plain_ms, 0.5), "ms"),
        ("trace.overhead_ms".into(), overhead, "ms"),
        ("trace.span_coverage_min".into(), quantile(&coverage, 0.0), "fraction"),
    ];
    for layer in LAYERS {
        let secs = self_secs.get(layer).copied().unwrap_or(0.0);
        all.push((format!("self_ms.{layer}"), secs * 1e3, "ms"));
    }
    all.extend(probe_metrics.into_iter().map(|m| (m.name, m.value, m.unit)));
    for (name, value, unit) in &all {
        out.line(&format!("{name} = {value} {unit}"));
    }
    Run { attempted, failed, problems, metrics: all }
}

/// `/proc/loadavg`, or `unavailable` where there is none.
fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unavailable".into())
}

/// Regenerates `data/pins.txt` from every pooled unit, run one at a
/// time on one worker.
fn pin(out: &Reporter) -> ExitCode {
    let racks = WorkerPool::new(1);
    let mut lines = vec![
        "# Pinned digests of every unit the benchmark can draw: <workload> <unit> <digest>."
            .to_string(),
        "# Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --pin"
            .into(),
    ];
    let mut bad = 0;
    for kind in Kind::ALL {
        for unit in kind.pool_units() {
            let raw = workloads::execute(unit, &racks, workloads::Trace::OFF);
            let o = workloads::check_unit(unit, raw, None);
            for p in &o.problems {
                out.line(&format!("FAILED {} {}: {p}", kind.name(), unit.key()));
                bad += 1;
            }
            lines.push(check::pin_line(kind.name(), &unit.key(), o.digest));
        }
        out.line(&format!("pinned {}", kind.name()));
    }
    if bad > 0 {
        return ExitCode::FAILURE;
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data").join("pins.txt");
    match std::fs::write(&path, lines.join("\n") + "\n") {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            out.line(&format!("error: writing {}: {e}", path.display()));
            ExitCode::FAILURE
        }
    }
}
