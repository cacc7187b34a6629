//! Whole-stack benchmark driver for ACFC.
//!
//! ```text
//! acfc-benchmark run --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!                    [--bless] [--out <file>]
//! acfc-benchmark compare <a.json> <b.json>
//! acfc-benchmark spec
//! ```
//!
//! `run` executes one workload in this process — a closed loop with one
//! client on one driving thread — checks its outputs, prints every
//! metric by name with its unit and ends with one JSON line. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ledger
//! (and writes `out/trace-<workload>.json`). `compare` applies the
//! bounds to two result files. `spec` prints `BENCHMARK.json`.

mod backends;
mod compare;
mod gen;
mod harness;
mod json;
mod parts;
mod spec;

use harness::{bench_dir, median, peak_rss_mb, timed, Digests, Ledger, Ops, Storage, Tracer};
use parts::{Ctx, Metrics, Part};
use std::process::ExitCode;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: harness::DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        bless: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => run.trace = value()? == "1",
            "--traced" => run.trace = true,
            "--bless" => run.bless = true,
            "--out" => run.out = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parts::native(&run.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !(run.seconds.is_finite() && run.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(run)
}

type Built = Vec<Box<dyn Part>>;

/// Sets `names` up (input generation, compilation, pre-filled stores)
/// [`SETUPS`] times and keeps the last; returns the parts and the
/// median set-up seconds.
fn set_up(names: &[&'static str], seed: u64, store: &Storage, ops: &mut Ops) -> (Built, f64) {
    let mut secs = Vec::new();
    let mut built = Built::new();
    for _ in 0..SETUPS {
        built.clear();
        let (parts, dt) = timed(|| {
            names
                .iter()
                .map(|&name| parts::setup(name, seed, store, ops))
                .collect()
        });
        built = parts;
        secs.push(dt);
    }
    (built, median(secs))
}

const SETUPS: usize = 3;

/// Rounds every run makes at least: every cycled jitter seed twice.
const MIN_ROUNDS: usize = 2 * parts::sim::SEED_CYCLE as usize;

/// Seconds of native work for every second of filler work.
const NATIVE_PER_FILLER: f64 = 1.0;

/// The parts that fill in the end-to-end metrics `native` does not
/// produce: for each such metric, the first part in `PARTS` order that
/// does.
fn fillers_for(native: &[&'static str]) -> Vec<&'static str> {
    let mut chosen: Vec<&'static str> = Vec::new();
    for m in &spec::END_TO_END {
        let produced =
            |parts: &[&'static str]| parts.iter().any(|p| parts::provides(p).contains(&m.name));
        if produced(native) || produced(&chosen) {
            continue;
        }
        if let Some(part) = parts::PARTS
            .iter()
            .find(|p| parts::provides(p).contains(&m.name))
        {
            chosen.push(part);
        }
    }
    chosen
}

/// Untraced run. Repetitions of the native parts and of the fillers
/// alternate for `--seconds`, so every metric's samples are spread over
/// the whole run and a slow second of the machine lands on one sample
/// of each, not on every sample of one.
fn run_plain(args: &RunArgs, ctx: &mut Ctx) -> Metrics {
    let native = parts::native(&args.workload).expect("validated workload");
    let (mut natives, native_setup_s) = set_up(native, args.seed, ctx.store, &mut ctx.ops);
    for part in &mut natives {
        part.check(ctx);
    }
    // Memory is the workload's own: read before the fillers exist.
    let peak_rss_mb = peak_rss_mb();

    let (mut fillers, filler_setup_s) =
        set_up(&fillers_for(native), args.seed, ctx.store, &mut ctx.ops);
    for part in &mut fillers {
        part.check(ctx);
    }
    let start = std::time::Instant::now();
    let (mut native_s, mut filler_s) = (0.0, 0.0);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        for part in &mut fillers {
            filler_s += timed(|| part.rep(ctx)).1;
        }
        loop {
            for part in &mut natives {
                native_s += timed(|| part.rep(ctx)).1;
            }
            if native_s >= NATIVE_PER_FILLER * filler_s {
                break;
            }
        }
        rounds += 1;
    }
    // A second checked execution must reproduce the first one's digests.
    for part in &mut natives {
        part.check(ctx);
    }

    let mut metrics = Metrics::new();
    for part in natives.iter().chain(&fillers) {
        for (name, value) in part.metrics() {
            metrics.entry(name).or_insert(value);
        }
    }
    metrics.insert("peak_rss_mb", peak_rss_mb);
    metrics.insert("setup_s", native_setup_s + filler_setup_s);
    metrics
}

fn run_traced(args: &RunArgs, ctx: &mut Ctx) -> Metrics {
    let native = parts::native(&args.workload).expect("validated workload");
    let (mut natives, _) = set_up(native, args.seed, ctx.store, &mut ctx.ops);
    let mut tracer = Tracer::new();
    let mut ledger = Ledger::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for part in &mut natives {
        part.check(ctx);
        // The quickest of a few untraced repetitions is the base the
        // traced one is compared with.
        plain_s += (0..MIN_ROUNDS)
            .map(|_| timed(|| part.rep(ctx)).1)
            .fold(f64::INFINITY, f64::min);
        traced_s += part.traced(ctx, &mut tracer, &mut ledger);
    }
    ledger.set(
        "bench.trace_overhead_pct",
        (traced_s / plain_s - 1.0) * 100.0,
    );
    parts::micro::machine(&mut ledger);
    let seed = args.seed;
    match args.workload.as_str() {
        "analysis_scale" => {
            parts::micro::cli("cli.analyze_ms", seed, ctx.store, &mut ctx.ops, &mut ledger);
        }
        "sim_msg_bound" => parts::micro::sim_structures(seed, &mut ledger),
        "sweep_matrix" => {
            parts::micro::cli(
                "cli.compare_sweep_ms",
                seed,
                ctx.store,
                &mut ctx.ops,
                &mut ledger,
            );
        }
        "ckpt_write" => {
            parts::micro::codec(seed, &mut ctx.ops, &mut ledger);
            parts::micro::disk(seed, &mut ctx.ops, &mut ledger);
        }
        "kill_recover" => {
            parts::micro::codec(seed, &mut ctx.ops, &mut ledger);
            parts::micro::cli(
                "cli.run_real_ms",
                seed,
                ctx.store,
                &mut ctx.ops,
                &mut ledger,
            );
        }
        _ => {}
    }
    let path = bench_dir()
        .join("out")
        .join(format!("trace-{}.json", args.workload));
    let written = std::fs::create_dir_all(path.parent().expect("out/"))
        .and_then(|()| std::fs::write(&path, tracer.render(&args.workload)));
    ctx.ops.ok(&format!("write {}", path.display()), written);
    spec::PER_LAYER
        .iter()
        .map(|m| (m.name, ledger.0.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

fn run(args: &RunArgs) -> ExitCode {
    // Built on first use, so the build lands in the first run of a
    // checkout and not in a later traced one.
    let cli_built = parts::micro::acfc_binary();
    let store = Storage::create();
    let mut ctx = Ctx {
        store: &store,
        ops: Ops::default(),
        digests: Digests::new(args.seed, args.bless),
    };
    ctx.ops.ok("acfc binary", cli_built);
    let mut metrics = if args.trace {
        run_traced(args, &mut ctx)
    } else {
        run_plain(args, &mut ctx)
    };
    let digests = ctx.digests.settle(&mut ctx.ops);
    for (name, value) in &mut metrics {
        if !value.is_finite() {
            ctx.ops
                .check(false, || format!("{name} is not a finite number"));
            *value = 0.0;
        }
    }

    println!(
        "workload={} seed={} trace={} storage={} ops_attempted={} ops_failed={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        store.kind,
        ctx.ops.attempted,
        ctx.ops.failed
    );
    for why in &ctx.ops.reasons {
        println!("failed: {why}");
    }
    for (key, value) in &digests {
        println!("digest {key} {value}");
    }
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            println!("{name:44} {value:>18.6} {unit}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.ops.failed == 0,
        ctx.ops.attempted.max(1),
        ctx.ops.failed,
        rows.join(", ")
    );
    if let Some(out) = &args.out {
        let digests: Vec<String> = digests
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"storage\": \"{}\", \
             \"digests\": {{{}}}, \"result\": {result}}}\n",
            args.workload,
            args.seed,
            u8::from(args.trace),
            store.kind,
            digests.join(", ")
        );
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("{out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: acfc-benchmark run --workload <name> --seed <u64> --seconds <n> \
                 --trace <0|1> [--bless] [--out <file>] | compare <a.json> <b.json> | spec";
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(run_args) => run(&run_args),
            Err(e) => {
                eprintln!("{e}\n{usage}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
    }
}
