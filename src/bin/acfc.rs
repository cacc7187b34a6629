//! The `acfc` command-line tool.
//!
//! ```text
//! acfc check   <file.mpsl> [--nprocs N]          # parse, validate, check Condition 1
//! acfc analyze <file.mpsl> [--nprocs N] [--failure-rate L] [--emit] [--dot]
//!              [--profile out.json] [--folded out.folded]
//! acfc run     <file.mpsl> [--nprocs N] [--seed S] [--analyze [--failure-rate L]]
//!              [--input V]... [--trace] [--profile out.json]
//! acfc run     <file.mpsl> --real [--det] [--protocol P] [--backend mem|file|log]
//!              [--backend-dir DIR] [--kill p@t]... [--interval-us N] [--jsonl out.jsonl]
//! acfc report  <file.mpsl> [--nprocs N] [--seed S] [--failure-rate L] [--serve ADDR]
//! acfc mpmd    <name> <file.mpsl@FIRST[-LAST]>... # combine MPMD roles into SPMD
//! acfc figures                                    # regenerate EXPERIMENTS.md's tables
//! acfc compare <file.mpsl>... [--nprocs N] [--seed S] [--failure-rate L]...
//!              [--sweep] [--ns 2,4,8,16] [--seeds K] [--cic index,bcs,hmnr,lazy]
//!              [--telemetry] [--jsonl out.jsonl] [--json out.json] [--profile out.json]
//!              [--folded out.folded] [--serve ADDR]
//! ```
//!
//! `check` reports whether the program's checkpoint placement already
//! guarantees recovery lines; `analyze` runs the full three-phase
//! pipeline and prints the report (`--emit` prints the transformed
//! source, `--dot` the extended CFG in Graphviz form); `run` executes
//! on the simulator and verifies every straight cut.
//!
//! `run --real` executes on the real checkpointing runtime instead:
//! one OS thread per worker over live channels, snapshots committed to
//! an actual [`StateBackend`](acfc::sim::StateBackend) (`--backend mem`
//! in-memory, `file` one CRC-framed file per snapshot with atomic
//! rename, `log` a single append-only log), `--kill p@t` crashing
//! worker `p` at virtual time `t` µs with stop-the-world recovery from
//! the latest consistent cut read back out of the backend. `--det`
//! swaps the free-running threads for the deterministic virtual-time
//! scheduler (same trace as the simulator); `--protocol` picks the
//! coordinator (`appl-driven`, `uncoordinated`, `SaS`, `C-L`,
//! `CIC-index|bcs|hmnr|lazy`); `--jsonl` writes the machine-readable
//! event transcript; `--trace` prints it.
//!
//! `--profile` writes a Chrome-trace-format JSON file loadable in
//! <https://ui.perfetto.dev>: for `run`, a **simulated-time** timeline
//! (one track per process with compute/blocked/checkpoint slices,
//! message flow arrows, and a marker per recovery line — the paper's
//! Fig. 4 as an interactive view); for `analyze`, the **wall-clock**
//! spans of the analysis pipeline. `--folded` writes the same
//! wall-span forest as folded stack lines (`inferno`/flamegraph.pl
//! input) plus a sibling `.speedscope.json` loadable at
//! <https://www.speedscope.app>. `report` runs analysis + simulation
//! with full instrumentation on and prints the counter table;
//! `--serve ADDR` then keeps the process alive exposing the registry
//! at `http://ADDR/metrics` in Prometheus text format.
//!
//! `compare` runs the same program under every checkpointing protocol
//! (app-driven, uncoordinated, SaS, Chandy–Lamport, CIC) and tabulates
//! the measured counters — forced checkpoints, control messages,
//! coordination stalls — plus message-latency percentile bounds.
//! `--sweep` executes a full replicated evaluation matrix instead:
//! `--ns` process counts × `--failure-rate` grid × positional workload
//! files (`--cic` narrows the protocol axis to the named CIC variants
//! next to the four baselines), with `--seeds` trials per cell
//! aggregated into
//! mean ± stddev ± 95% CI rows that stream to stdout as cells finish
//! (progress/ETA on stderr). `--jsonl` streams one JSON object per
//! aggregate row (`--telemetry` appends a machine-readable
//! `sweep_telemetry` trailer line after the rows); `--json` writes the
//! buffered artifact; `--profile` writes a merged Perfetto timeline
//! with one track group per protocol; `--folded` captures the sweep's
//! wall spans as a flamegraph; `--serve ADDR` exposes live metrics for
//! the duration of the sweep. Rows are bit-identical at any
//! `ACFC_THREADS`.
//!
//! `figures` prints every deterministic table of `EXPERIMENTS.md`, each
//! as the fenced section the doc carries between its generated-block
//! markers. A flag that the chosen subcommand does not read is an
//! error, not silently ignored.

use acfc::cfg::build_cfg;
use acfc::core::{
    analyze, analyze_iddep, check_condition1, compute_attrs, index_checkpoints, match_send_recv,
    AnalysisConfig, ExtendedCfg, LoopPolicy, MatchingMode,
};
use acfc::mpsl::{parse, to_source, validate};
use acfc::perfmodel::{
    figure8, figure8_default_ns, figure9, figure9_default_wms, to_tsv, ModelParams,
};
use acfc::protocols::{ConfigError, RowSink, SweepPlan, TableSink};
use acfc::sim::{compile, consistency, run, run_observed, SimConfig, SimObs};
use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

struct Args {
    positional: Vec<String>,
    nprocs: usize,
    seed: u64,
    emit: bool,
    dot: bool,
    do_analyze: bool,
    inputs: Vec<i64>,
    failure_rates: Vec<f64>,
    trace: bool,
    profile: Option<String>,
    sweep: bool,
    ns: Option<Vec<usize>>,
    seeds: u64,
    json: Option<String>,
    jsonl: Option<String>,
    folded: Option<String>,
    serve: Option<String>,
    telemetry: bool,
    cic: Option<Vec<String>>,
    real: bool,
    det: bool,
    protocol: Option<String>,
    backend: String,
    backend_dir: Option<String>,
    kills: Vec<String>,
    interval_us: u64,
    /// Every flag given, in order (`-n` as `--nprocs`).
    flags: Vec<String>,
}

impl Args {
    /// Rejects the first flag given that `cmd` does not read, so a
    /// misplaced flag fails instead of being silently ignored.
    fn only(&self, cmd: &str, reads: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|f| !reads.contains(&f.as_str())) {
            Some(flag) => Err(format!("`{cmd}` does not read {flag}")),
            None => Ok(()),
        }
    }

    /// Rejects flag values that no subcommand can run with, so each
    /// subcommand reports them as an error instead of panicking deep
    /// in the analysis or the simulator.
    fn check_values(&self) -> Result<(), ConfigError> {
        if self.nprocs == 0 {
            return Err(ConfigError::ZeroProcs);
        }
        match self
            .failure_rates
            .iter()
            .find(|r| !(r.is_finite() && **r >= 0.0))
        {
            Some(&rate) => Err(ConfigError::BadFailureRate(rate)),
            None => Ok(()),
        }
    }
}

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let _ = argv.next();
    let cmd = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        positional: Vec::new(),
        nprocs: 4,
        seed: 0xACFC,
        emit: false,
        dot: false,
        do_analyze: false,
        inputs: Vec::new(),
        failure_rates: Vec::new(),
        trace: false,
        profile: None,
        sweep: false,
        ns: None,
        seeds: 3,
        json: None,
        jsonl: None,
        folded: None,
        serve: None,
        telemetry: false,
        cic: None,
        real: false,
        det: false,
        protocol: None,
        backend: "mem".to_string(),
        backend_dir: None,
        kills: Vec::new(),
        interval_us: 60_000,
        flags: Vec::new(),
    };
    let mut it = argv.peekable();
    while let Some(a) = it.next() {
        if a.starts_with('-') {
            args.flags.push(if a == "-n" {
                "--nprocs".into()
            } else {
                a.clone()
            });
        }
        match a.as_str() {
            "--nprocs" | "-n" => {
                args.nprocs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--nprocs needs a number")?;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--input" => {
                args.inputs.push(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--input needs a number")?,
                );
            }
            "--failure-rate" => {
                args.failure_rates.push(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--failure-rate needs a number (per second)")?,
                );
            }
            "--ns" => {
                let list = it.next().ok_or("--ns needs a comma-separated list")?;
                let ns: Result<Vec<usize>, _> = list.split(',').map(|v| v.trim().parse()).collect();
                args.ns = Some(ns.map_err(|_| format!("--ns: bad process count in `{list}`"))?);
            }
            "--seeds" => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seeds needs a number")?;
            }
            "--jsonl" => {
                args.jsonl = Some(it.next().ok_or("--jsonl needs an output path")?);
            }
            "--profile" => {
                args.profile = Some(it.next().ok_or("--profile needs an output path")?);
            }
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs an output path")?);
            }
            "--folded" => {
                args.folded = Some(it.next().ok_or("--folded needs an output path")?);
            }
            "--serve" => {
                args.serve = Some(it.next().ok_or("--serve needs an address (host:port)")?);
            }
            "--cic" => {
                let list = it.next().ok_or("--cic needs a comma-separated list")?;
                args.cic = Some(list.split(',').map(|v| v.trim().to_string()).collect());
            }
            "--protocol" => {
                args.protocol = Some(it.next().ok_or("--protocol needs a protocol name")?);
            }
            "--backend" => {
                args.backend = it.next().ok_or("--backend needs mem, file, or log")?;
            }
            "--backend-dir" => {
                args.backend_dir = Some(it.next().ok_or("--backend-dir needs a directory")?);
            }
            "--kill" => {
                args.kills
                    .push(it.next().ok_or("--kill needs a proc@vtime_us spec")?);
            }
            "--interval-us" => {
                args.interval_us = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--interval-us needs a number (µs)")?;
            }
            "--real" => args.real = true,
            "--det" => args.det = true,
            "--telemetry" => args.telemetry = true,
            "--sweep" => args.sweep = true,
            "--emit" => args.emit = true,
            "--dot" => args.dot = true,
            "--trace" => args.trace = true,
            "--analyze" => args.do_analyze = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a),
        }
    }
    Ok((cmd, args))
}

fn usage() -> String {
    "usage: acfc <check|analyze|run|report|mpmd|figures|compare> [file.mpsl]... [--nprocs N] \
     [--seed S] [--emit] [--dot] [--trace] [--analyze] [--sweep] [--ns 2,4,8] [--seeds K] \
     [--cic index,bcs,hmnr,lazy] [--input V]... [--failure-rate L]... [--json out.json] \
     [--jsonl out.jsonl] [--telemetry] \
     [--profile out.json] [--folded out.folded] [--serve host:port] \
     [--real] [--det] [--protocol P] [--backend mem|file|log] [--backend-dir DIR] \
     [--kill p@t]... [--interval-us N]"
        .to_string()
}

/// The one program file of a subcommand that reads one.
fn load(args: &Args) -> Result<acfc::mpsl::Program, String> {
    match args.positional.as_slice() {
        [] => Err("missing program file argument".into()),
        [path] => load_path(path),
        [_, extra, ..] => Err(format!(
            "`{extra}`: this subcommand reads one program file (`compare --sweep` reads several)"
        )),
    }
}

fn cmd_check(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    args.only("check", &["--nprocs"])?;
    let program = load(args)?;
    acfc::core::check_nprocs(args.nprocs).map_err(|e| e.to_string())?;
    let (cfg, lowered) = build_cfg(&program);
    let iddep = analyze_iddep(&cfg, &lowered);
    let attrs = compute_attrs(&cfg, args.nprocs, &iddep);
    let matching = match_send_recv(&cfg, &attrs, &iddep, MatchingMode::FifoOrdered);
    let index = index_checkpoints(&cfg, &lowered);
    let g = ExtendedCfg::build(cfg, &matching);
    let violations = check_condition1(&g, &index, LoopPolicy::Optimized);
    let verdict = if violations.is_empty() {
        Ok(())
    } else {
        Err("placement is unsafe")
    };
    report_then(verdict, || {
        writeln!(
            out,
            "{}: {} checkpoint statement(s), {} message edge(s) at n={}",
            program.name,
            program.checkpoint_ids().len(),
            g.message_edges.len(),
            args.nprocs
        )?;
        if violations.is_empty() {
            writeln!(
                out,
                "OK: every straight cut of checkpoints is a recovery line (Condition 1 holds)"
            )?;
        } else {
            let found = violations.len();
            writeln!(out, "UNSAFE: {found} Condition-1 violation(s):")?;
            write!(out, "{}", acfc::core::explain_violations(&g, &violations))?;
            writeln!(out, "run `acfc analyze` to relocate the checkpoints")?;
        }
        Ok(())
    })
}

/// Writes a command's report, then returns its verdict. A failed
/// verdict outranks a failed write, so a reader that left early does
/// not turn an unsafe placement or an incomplete run into exit 0.
fn report_then(
    verdict: Result<(), &'static str>,
    report: impl FnOnce() -> Result<(), Box<dyn Error>>,
) -> Result<(), Box<dyn Error>> {
    let written = report();
    verdict?;
    written
}

fn analysis_config(args: &Args) -> AnalysisConfig {
    let mut cfg = AnalysisConfig::for_nprocs(args.nprocs);
    // The Phase-I insertion interval follows Young's formula from the
    // failure rate (per second → per cost unit, 1 unit = 1 ms);
    // `analyze` rejects a rate that gives no interval.
    if let (Some(&rate), Some(ic)) = (args.failure_rates.first(), &mut cfg.insertion) {
        ic.failure_rate_per_unit = rate / 1000.0;
    }
    cfg
}

/// Writes the captured wall-span forest as folded stack lines (the
/// flamegraph.pl / `inferno` input format) plus a sibling speedscope
/// JSON document next to it; returns the line that reports both.
fn write_folded(path: &str, spans: &[acfc::obs::WallSpan]) -> Result<String, String> {
    let labels = acfc::obs::thread_labels();
    std::fs::write(path, acfc::obs::folded_lines(spans, &labels))
        .map_err(|e| format!("{path}: {e}"))?;
    let base = path.strip_suffix(".folded").unwrap_or(path);
    let ss_path = format!("{base}.speedscope.json");
    let name = std::path::Path::new(path)
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("acfc");
    std::fs::write(&ss_path, acfc::obs::speedscope_json(spans, &labels, name))
        .map_err(|e| format!("{ss_path}: {e}"))?;
    Ok(format!(
        "wrote {} wall-clock span(s) as folded stacks to {path} (flamegraph.pl/inferno) \
         and {ss_path} (load in https://www.speedscope.app)",
        spans.len()
    ))
}

fn cmd_analyze(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    args.only(
        "analyze",
        &[
            "--nprocs",
            "--failure-rate",
            "--emit",
            "--dot",
            "--profile",
            "--folded",
        ],
    )?;
    let program = load(args)?;
    let capture = args.profile.is_some() || args.folded.is_some();
    if capture {
        acfc::obs::set_enabled(true);
        let _ = acfc::obs::take_wall_spans(); // start from a clean log
    }
    let analysis = analyze(&program, &analysis_config(args)).map_err(|e| e.to_string())?;
    // The profile files are written before the report, so a reader that
    // leaves early can only cut the text on stdout.
    let mut notes = Vec::new();
    if capture {
        acfc::obs::set_enabled(false);
        let spans = acfc::obs::take_wall_spans();
        if let Some(path) = &args.profile {
            let tb = acfc::obs::perfetto::wall_spans_trace(&spans);
            tb.validate()
                .map_err(|e| format!("profile trace invalid: {e}"))?;
            std::fs::write(path, tb.render()).map_err(|e| format!("{path}: {e}"))?;
            notes.push(format!(
                "wrote {} wall-clock span(s) to {path} (load in https://ui.perfetto.dev)",
                spans.len()
            ));
        }
        if let Some(path) = &args.folded {
            notes.push(write_folded(path, &spans)?);
        }
    }
    write!(out, "{}", analysis.report())?;
    if args.emit {
        writeln!(out, "--- transformed program ---")?;
        write!(out, "{}", to_source(&analysis.program))?;
    }
    if args.dot {
        writeln!(out, "--- extended CFG (Graphviz) ---")?;
        write!(out, "{}", analysis.to_dot())?;
    }
    for note in notes {
        writeln!(out, "{note}")?;
    }
    Ok(())
}

/// `acfc run --real` — execute on the checkpointing runtime: live
/// OS-thread workers (or the deterministic scheduler with `--det`),
/// snapshots committed to a real backend, kills injected at virtual
/// times, recovery restored from the backend's committed set.
fn cmd_run_real(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use acfc::protocols::ProtocolKind;
    use acfc::runtime::{
        backend_for, coordinator_for, run_det, run_free, FailureInjector, FreeConfig, RunEvent,
    };
    use acfc::sim::Outcome;
    args.only(
        "run --real",
        &[
            "--real",
            "--det",
            "--nprocs",
            "--seed",
            "--input",
            "--protocol",
            "--backend",
            "--backend-dir",
            "--kill",
            "--interval-us",
            "--trace",
            "--jsonl",
        ],
    )?;
    let program = load(args)?;
    let kind: ProtocolKind = args
        .protocol
        .as_deref()
        .unwrap_or("appl-driven")
        .parse()
        .map_err(|e| format!("--protocol: {e}"))?;
    let mut injector = FailureInjector::none();
    for spec in &args.kills {
        let (at, p) = FailureInjector::parse_spec(spec).map_err(|e| format!("--kill: {e}"))?;
        if p >= args.nprocs {
            return Err(
                format!("--kill {spec}: proc {p} out of range for n={}", args.nprocs).into(),
            );
        }
        injector.push(at, p);
    }
    let mut prep = coordinator_for(
        kind,
        &program,
        args.nprocs,
        args.interval_us,
        args.interval_us / 3,
        Default::default(),
    )
    .map_err(|e| format!("--protocol {kind}: {e}"))?;
    let dir = match &args.backend_dir {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("acfc-run-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut backend = backend_for(&args.backend, &dir).map_err(|e| format!("--backend: {e}"))?;
    let cfg = SimConfig::new(args.nprocs)
        .with_seed(args.seed)
        .with_inputs(args.inputs.clone());
    let report = if args.det {
        run_det(
            &prep.compiled,
            &cfg,
            prep.coordinator.as_mut(),
            backend.as_mut(),
            injector.plan(),
        )
        .into_report(kind.name(), backend.name())
    } else {
        run_free(
            &prep.compiled,
            &cfg,
            prep.coordinator.as_mut(),
            backend.as_mut(),
            &injector,
            &FreeConfig::default(),
        )
    };
    // The event log is written before the report, so a reader that
    // leaves early can only cut the text on stdout.
    if let Some(path) = &args.jsonl {
        std::fs::write(path, report.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    let verdict = if report.outcome == Outcome::Completed {
        Ok(())
    } else {
        Err("run did not complete")
    };
    report_then(verdict, || {
        writeln!(
            out,
            "{}: n={} mode={} protocol={} backend={} -> {} in {:.4}s virtual",
            report.program,
            report.nprocs,
            report.mode,
            report.coordinator,
            report.backend,
            acfc::runtime::outcome_name(&report.outcome),
            report.vtime_us as f64 / 1e6,
        )?;
        let mut ckpts = vec![0u64; args.nprocs];
        for e in &report.events {
            match e {
                RunEvent::Checkpoint { proc, .. } => ckpts[*proc] += 1,
                RunEvent::Kill { proc, vtime_us } => {
                    let at = *vtime_us as f64 / 1e6;
                    writeln!(out, "kill: P{proc} crashed at {at:.4}s")?;
                }
                RunEvent::Recovery {
                    killed,
                    vtime_us,
                    restored,
                    redelivered,
                    lost_us,
                } => {
                    let line: Vec<String> = restored
                        .iter()
                        .map(|r| r.map_or_else(|| "initial".into(), |s| s.to_string()))
                        .collect();
                    writeln!(
                        out,
                        "recovery: P{killed}'s crash rolled back to cut [{}] at {:.4}s \
                         ({redelivered} message(s) re-delivered, {:.1} ms of work lost)",
                        line.join(", "),
                        *vtime_us as f64 / 1e6,
                        *lost_us as f64 / 1000.0,
                    )?;
                }
                _ => {}
            }
        }
        writeln!(
            out,
            "checkpoints committed per process: {ckpts:?}; {} still live in the backend",
            backend.committed().map_err(|e| e.to_string())?.len()
        )?;
        if args.trace {
            write!(out, "{}", report.to_jsonl())?;
        }
        if let Some(path) = &args.jsonl {
            writeln!(
                out,
                "wrote {} event(s) to {path} (one JSON object per line)",
                report.events.len()
            )?;
        }
        Ok(())
    })
}

fn cmd_run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    if args.real {
        return cmd_run_real(args, out);
    }
    let mut reads = vec![
        "--nprocs",
        "--seed",
        "--input",
        "--analyze",
        "--trace",
        "--profile",
    ];
    // The rate sets Phase I's checkpoint interval; without the analysis
    // nothing reads it.
    if args.do_analyze {
        reads.push("--failure-rate");
    }
    args.only("run", &reads)?;
    let mut program = load(args)?;
    if args.do_analyze {
        let analysis = analyze(&program, &analysis_config(args)).map_err(|e| e.to_string())?;
        program = analysis.program;
    }
    let cfg = SimConfig::new(args.nprocs)
        .with_seed(args.seed)
        .with_inputs(args.inputs.clone());
    let compiled = compile(&program);
    let mut obs = args.profile.as_ref().map(|_| SimObs::timeline());
    let trace = match obs.as_mut() {
        Some(o) => run_observed(&compiled, &cfg, o),
        None => run(&compiled, &cfg),
    };
    let bad = if trace.completed() {
        consistency::straight_cut_failures(&trace)
    } else {
        Vec::new()
    };
    // The profile is written before the report, so a reader that leaves
    // early can only cut the text on stdout.
    let profiled = match (&args.profile, obs.as_ref()) {
        (Some(path), Some(o)) => {
            let tb = acfc::sim::timeline(&trace, o);
            tb.validate()
                .map_err(|e| format!("profile trace invalid: {e}"))?;
            std::fs::write(path, tb.render()).map_err(|e| format!("{path}: {e}"))?;
            Some(format!(
                "wrote simulated-time timeline ({} process track(s), {} message arrow(s), \
                 {} recovery line(s)) to {path} (load in https://ui.perfetto.dev)",
                trace.nprocs,
                trace
                    .live_messages()
                    .filter(|m| m.recv_at.is_some())
                    .count(),
                trace.aligned_depth()
            ))
        }
        _ => None,
    };
    let verdict = if !trace.completed() {
        Err("run did not complete")
    } else if !bad.is_empty() {
        Err("inconsistent straight cuts")
    } else {
        Ok(())
    };
    report_then(verdict, || {
        writeln!(
            out,
            "{}: n={} seed={} -> {:?} in {:.4}s simulated",
            program.name,
            args.nprocs,
            args.seed,
            trace.outcome,
            trace.makespan_secs()
        )?;
        writeln!(
            out,
            "messages: {} ({} bits); checkpoints per process: {:?}",
            trace.metrics.app_messages,
            trace.metrics.app_bits,
            trace.checkpoint_counts()
        )?;
        if args.trace {
            writeln!(out, "--- summary ---\n{}", acfc::sim::summary(&trace))?;
            let diagram = acfc::sim::spacetime(&trace);
            writeln!(out, "--- space-time diagram ---\n{diagram}")?;
        }
        if let Some(note) = &profiled {
            writeln!(out, "{note}")?;
        }
        if !bad.is_empty() {
            writeln!(out, "straight cuts {bad:?} are NOT recovery lines")?;
        } else if trace.completed() {
            let depth = trace.aligned_depth();
            writeln!(out, "every straight cut (1..={depth}) is a recovery line")?;
        }
        Ok(())
    })
}

/// `acfc report` — run the full pipeline (analysis + simulation) with
/// instrumentation on and print the registry counter/histogram table
/// plus the per-run simulator summary.
fn cmd_report(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    args.only(
        "report",
        &["--nprocs", "--failure-rate", "--seed", "--input", "--serve"],
    )?;
    let program = load(args)?;
    let config = analysis_config(args);
    acfc::obs::reset();
    acfc::obs::set_enabled(true);
    let analysis = analyze(&program, &config).map_err(|e| e.to_string())?;
    let cfg = SimConfig::new(args.nprocs)
        .with_seed(args.seed)
        .with_inputs(args.inputs.clone());
    let mut obs = SimObs::counters();
    let trace = run_observed(&compile(&analysis.program), &cfg, &mut obs);
    obs.publish();
    acfc::obs::set_enabled(false);
    writeln!(
        out,
        "{}: n={} seed={} -> {:?} in {:.4}s simulated",
        analysis.program.name,
        args.nprocs,
        args.seed,
        trace.outcome,
        trace.makespan_secs()
    )?;
    writeln!(out, "\n--- simulator ---")?;
    writeln!(
        out,
        "events processed: {} | run-ahead hits: {} | messages delivered: {}",
        obs.events_processed, obs.run_ahead_hits, obs.messages_delivered
    )?;
    for (p, t) in obs.per_proc.iter().enumerate() {
        writeln!(
            out,
            "P{p}: compute {:.1} ms, blocked {:.1} ms, checkpoint stall {:.1} ms",
            t.compute_us as f64 / 1000.0,
            t.blocked_us as f64 / 1000.0,
            t.ckpt_us as f64 / 1000.0
        )?;
    }
    let snap = acfc::obs::snapshot();
    writeln!(out, "\n--- metrics registry ---")?;
    write!(out, "{}", acfc::obs::render(&snap))?;
    if let Some(addr) = &args.serve {
        let server = acfc::obs::serve(addr).map_err(|e| format!("--serve {addr}: {e}"))?;
        writeln!(
            out,
            "\nserving metrics at http://{}/metrics (Prometheus text format; Ctrl-C to stop)",
            server.local_addr()
        )?;
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    Ok(())
}

/// `acfc mpmd <name> <file@spec>...` — combine per-role programs
/// (the paper's §3 MPMD remark) and print the resulting SPMD program.
/// A spec is `FIRST` (single rank), `FIRST-LAST`, or `FIRST-` (rest).
fn cmd_mpmd(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use acfc::mpsl::mpmd::{combine, Role};
    args.only("mpmd", &[])?;
    let name = args
        .positional
        .first()
        .ok_or("missing output program name")?;
    if args.positional.len() < 3 {
        return Err("need at least two role files (file.mpsl@SPEC)".into());
    }
    let mut roles = Vec::new();
    for spec in &args.positional[1..] {
        let (path, ranks) = spec
            .split_once('@')
            .ok_or_else(|| format!("role `{spec}` must be file.mpsl@FIRST[-LAST]"))?;
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let program = parse(&src).map_err(|e| format!("{path}:{e}"))?;
        let role = match ranks.split_once('-') {
            None => {
                let first: i64 = ranks.parse().map_err(|_| format!("bad rank in `{spec}`"))?;
                Role::new(program, first, first)
            }
            Some((first, "")) => Role::rest(
                program,
                first.parse().map_err(|_| format!("bad rank in `{spec}`"))?,
            ),
            Some((first, last)) => Role::new(
                program,
                first.parse().map_err(|_| format!("bad rank in `{spec}`"))?,
                last.parse().map_err(|_| format!("bad rank in `{spec}`"))?,
            ),
        };
        roles.push(role);
    }
    let combined = combine(name, roles).map_err(|e| e.to_string())?;
    let errors = validate(&combined);
    if !errors.is_empty() {
        let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        return Err(format!("combined program invalid: {}", msgs.join("; ")).into());
    }
    write!(out, "{}", to_source(&combined))?;
    Ok(())
}

/// Reads, parses and validates one `.mpsl` file.
fn load_path(path: &str) -> Result<acfc::mpsl::Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = parse(&src).map_err(|e| format!("{path}:{e}"))?;
    let errors = validate(&program);
    if !errors.is_empty() {
        let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        return Err(format!("{path}: {}", msgs.join("; ")));
    }
    Ok(program)
}

/// Loads every positional `.mpsl` file (the compare workload matrix).
fn load_all(args: &Args) -> Result<Vec<acfc::mpsl::Program>, String> {
    if args.positional.is_empty() {
        return Err("missing program file argument".into());
    }
    args.positional.iter().map(|path| load_path(path)).collect()
}

/// `acfc compare --sweep` — the replicated evaluation matrix: process
/// counts × failure rates × workloads, `--seeds` trials per cell,
/// aggregate rows (mean ± 95% CI) streaming to `out` as cells finish.
fn cmd_compare_sweep(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use acfc::protocols::{
        render_agg_json, run_sweep, CicVariant, CollectSink, JsonlSink, ProgressSink,
        TelemetrySink, Workload,
    };
    args.only(
        "compare --sweep",
        &[
            "--sweep",
            "--ns",
            "--seeds",
            "--seed",
            "--failure-rate",
            "--cic",
            "--jsonl",
            "--telemetry",
            "--json",
            "--folded",
            "--serve",
        ],
    )?;
    let programs = load_all(args)?;
    let mut builder = SweepPlan::builder()
        .ns(args.ns.clone().unwrap_or_else(|| vec![2, 4, 8]))
        .seeds_per_cell(args.seeds)
        .failure_rates(if args.failure_rates.is_empty() {
            vec![0.0] // no --failure-rate ⇒ a failure-free matrix
        } else {
            args.failure_rates.clone()
        })
        .seed(args.seed);
    if let Some(list) = &args.cic {
        let variants: Result<Vec<CicVariant>, String> = list
            .iter()
            .map(|v| v.parse::<CicVariant>().map_err(|e| format!("--cic: {e}")))
            .collect();
        builder = builder.cic_variants(variants?);
    }
    for program in programs {
        let name = program.name.clone();
        builder = builder.workload(Workload::new(name, move |_| program.clone()));
    }
    let plan = builder.build().map_err(|e| e.to_string())?;

    // --serve: expose the live registry for the duration of the sweep.
    let server = match &args.serve {
        Some(addr) => {
            let s = acfc::obs::serve(addr).map_err(|e| format!("--serve {addr}: {e}"))?;
            eprintln!(
                "serving metrics at http://{}/metrics for the duration of the sweep",
                s.local_addr()
            );
            Some(s)
        }
        None => None,
    };
    let capture = args.folded.is_some() || server.is_some();
    if capture {
        acfc::obs::set_enabled(true);
        let _ = acfc::obs::take_wall_spans(); // start from a clean log
    }

    let mut table = TableSink::new(TableOut {
        out: &mut *out,
        ends_sweep: args.jsonl.is_none() && args.json.is_none() && args.folded.is_none(),
        closed: false,
    });
    let mut progress = ProgressSink::new(std::io::stderr());
    let mut collect = CollectSink::default();
    let mut jsonl = None;
    let mut telemetry = None;
    if let Some(path) = &args.jsonl {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        if args.telemetry {
            // Shares the fd, so the trailer written in `finish()` lands
            // after every row the JsonlSink has streamed.
            let clone = file.try_clone().map_err(|e| format!("{path}: {e}"))?;
            telemetry = Some(TelemetrySink::new(clone));
        }
        jsonl = Some(JsonlSink::new(file));
    } else if args.telemetry {
        return Err("--telemetry needs --jsonl (the trailer appends to the row stream)".into());
    }
    let mut sinks: Vec<&mut dyn RowSink> = vec![&mut table, &mut progress, &mut collect];
    if let Some(sink) = jsonl.as_mut() {
        sinks.push(sink);
    }
    if let Some(sink) = telemetry.as_mut() {
        sinks.push(sink);
    }
    run_sweep(&plan, &mut sinks)?;

    // Every file is written before the lines that report them, so a
    // reader that leaves early can only cut the text on stdout.
    let mut notes = Vec::new();
    if capture {
        acfc::obs::set_enabled(false);
        let spans = acfc::obs::take_wall_spans();
        if let Some(path) = &args.folded {
            notes.push(write_folded(path, &spans)?);
        }
    }
    if let Some(s) = server {
        s.shutdown();
    }
    if let Some(path) = &args.jsonl {
        notes.push(format!(
            "wrote {} aggregate row(s) ({} seeds/cell){} to {path}",
            collect.rows.len(),
            plan.seeds_per_cell(),
            if args.telemetry {
                " + a sweep_telemetry trailer"
            } else {
                ""
            }
        ));
    }
    if let Some(path) = &args.json {
        std::fs::write(path, render_agg_json(&collect.rows)).map_err(|e| format!("{path}: {e}"))?;
        notes.push(format!(
            "wrote comparison JSON ({} aggregate row(s)) to {path}",
            collect.rows.len()
        ));
    }
    for note in notes {
        writeln!(out, "{note}")?;
    }
    Ok(())
}

/// The sweep table's stdout. A reader that leaves early ends the sweep
/// when the table is its only output; when the sweep also writes files,
/// it runs on to complete them and only the printing stops.
struct TableOut<'a> {
    out: &'a mut dyn Write,
    ends_sweep: bool,
    closed: bool,
}

impl Write for TableOut<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        match self.out.write(buf) {
            Err(e) if !self.ends_sweep && e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(buf.len())
            }
            written => written,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        self.out.flush()
    }
}

/// `acfc compare` — the protocol-comparison dashboard: one table (and
/// optionally one JSON artifact and one merged Perfetto timeline) with
/// every protocol's measured coordination cost on the same workload.
fn cmd_compare(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use acfc::protocols::{
        compare_all, render_table, run_protocol_timeline, CompareConfig, ProtocolKind,
    };
    use acfc::sim::{FailurePlan, MergedRun, SimTime};
    use acfc::util::bench::Json;
    if args.sweep {
        return cmd_compare_sweep(args, out);
    }
    args.only(
        "compare",
        &[
            "--nprocs",
            "--ns",
            "--seed",
            "--input",
            "--failure-rate",
            "--json",
            "--profile",
        ],
    )?;
    let program = load(args)?;
    let ns: Vec<usize> = args.ns.clone().unwrap_or_else(|| vec![args.nprocs]);
    // One flat stats object per (n, protocol) run, each on one line.
    let mut runs: Vec<String> = Vec::new();
    for &n in &ns {
        let mut cc = CompareConfig::builder(n)
            .seed(args.seed)
            .build()
            .map_err(|e| e.to_string())?;
        cc.sim = cc.sim.with_inputs(args.inputs.clone());
        if let Some(&rate) = args.failure_rates.first() {
            if rate > 0.0 {
                // Size the failure horizon from a bare probe run, like
                // the empirical sweep (expected failures ∝ n·rate).
                let probe = run(&compile(&program), &cc.sim);
                let horizon = SimTime(probe.finished_at.as_micros().max(1));
                cc.failures = FailurePlan::exponential(n, rate, horizon, args.seed ^ n as u64);
            }
        }
        let stats = compare_all(&program, &cc);
        writeln!(out, "== {} at n = {n} ==", program.name)?;
        write!(out, "{}", render_table(&stats))?;
        runs.extend(
            stats
                .iter()
                .map(|s| s.json(n).render().lines().collect::<Vec<_>>().join(" ")),
        );
    }
    if let Some(path) = &args.json {
        let artifact = Json::new()
            .str("workload", &program.name)
            .raw("runs", format!("[\n  {}\n  ]", runs.join(",\n  ")))
            .render();
        std::fs::write(path, artifact).map_err(|e| format!("{path}: {e}"))?;
        let count = runs.len();
        writeln!(out, "wrote comparison JSON ({count} run(s)) to {path}")?;
    }
    if let Some(path) = &args.profile {
        // Merge one timeline run per protocol at the largest n into a
        // single document: one pid (track group) per protocol.
        let n = *ns.iter().max().expect("ns nonempty");
        let mut cc = CompareConfig::builder(n)
            .seed(args.seed)
            .build()
            .map_err(|e| e.to_string())?;
        cc.sim = cc.sim.with_inputs(args.inputs.clone());
        let runs: Vec<(ProtocolKind, _, _)> = ProtocolKind::all()
            .into_iter()
            .map(|kind| {
                let (trace, obs) = run_protocol_timeline(&program, kind, &cc);
                (kind, trace, obs)
            })
            .collect();
        let merged: Vec<MergedRun> = runs
            .iter()
            .map(|(kind, trace, obs)| MergedRun {
                label: kind.name(),
                trace,
                obs,
            })
            .collect();
        let json = acfc::sim::merged_timeline_json(&merged);
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            out,
            "wrote merged timeline ({} protocol track group(s) at n={n}) to {path} \
             (load in https://ui.perfetto.dev)",
            merged.len()
        )?;
    }
    Ok(())
}

/// `acfc figures` — every deterministic table of `EXPERIMENTS.md`, each
/// printed as the fenced section the doc carries between the same
/// generated-block markers (`tests/experiments_doc.rs` compares the two
/// byte for byte).
fn cmd_figures(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use acfc::perfmodel::{
        gamma_closed_form, optimal_k, simulate_interval, single_level_ratio,
        twolevel_ratio_analytic, IntervalParams, ModelProtocol, TwoLevelParams,
    };
    use acfc::protocols::{
        compare_all, domino_report, domino_stream, render_table, run_sweep, uncoordinated_picker,
        AppDriven, CheckpointCoordinator, CompareConfig,
    };
    use acfc::sim::{run_with_failures, FailurePlan, NoHooks, SimTime};
    use std::fmt::Write as _;
    args.only("figures", &[])?;
    let mut section = |id: &str, title: String, body: &str| {
        writeln!(
            out,
            "<!-- generated: {id} -->\n```text\n# {title}\n{body}```\n<!-- end generated -->\n"
        )
    };
    let params = ModelParams::default();

    section(
        "fig8",
        "Figure 8 — overhead ratio vs. number of processes".into(),
        &to_tsv("n", &figure8(&params, &figure8_default_ns())),
    )?;
    let n = 64;
    section(
        "fig9",
        format!("Figure 9 — overhead ratio vs. w_m (n = {n})"),
        &to_tsv("w_m", &figure9(&params, n, &figure9_default_wms())),
    )?;

    let mut body = String::from("n\tM(SaS)\tM(C-L)\tM(appl-driven)\n");
    for n in [2usize, 8, 32, 128] {
        writeln!(
            body,
            "{n}\t{:.4}\t{:.4}\t{:.4}",
            params.message_overhead(ModelProtocol::SyncAndStop, n),
            params.message_overhead(ModelProtocol::ChandyLamport, n),
            params.message_overhead(ModelProtocol::AppDriven, n),
        )?;
    }
    section(
        "message-overhead",
        "per-checkpoint protocol message overhead M (model, seconds)".into(),
        &body,
    )?;
    // E2: the request/reply zigzag as written (uncoordinated), then
    // after the offline analysis, under the same failure.
    let (rounds, n, fail_ms) = (10, 2, 80);
    let program = domino_stream(rounds);
    let plan = FailurePlan::at(vec![(SimTime::from_millis(fail_ms), 1)]);
    let ad = AppDriven::prepare(&program, 4)?;
    let written = compile(&program);
    let cfg = SimConfig::new(n);
    let as_written = run_with_failures(
        &written,
        &cfg,
        &mut NoHooks,
        plan.clone(),
        uncoordinated_picker(),
    );
    let analysed = run_with_failures(&ad.compiled, &cfg, &mut NoHooks, plan, NoHooks.picker());
    let mut body =
        String::from("placement\tmax consistent line\tdiscarded\tfull restart\tlost (ms)\n");
    for (name, compiled, failed) in [
        ("as written (uncoordinated)", &written, &as_written),
        ("after the offline analysis", &ad.compiled, &analysed),
    ] {
        let rep = domino_report(&run(compiled, &cfg));
        writeln!(
            body,
            "{name}\t{:?}\t{:?}\t{}\t{:.1}",
            rep.line,
            rep.depths,
            rep.full_restart,
            failed.failures[0].lost_us as f64 / 1000.0
        )?;
    }
    section(
        "e2-domino",
        format!("E2 — request/reply zigzag, {rounds} rounds, n = {n}, failure at t = {fail_ms} ms"),
        &body,
    )?;

    let (trials, seed) = (100_000, 0xACFC);
    let mut body = String::from("lambda\tanalytic Γ\tMC mean\tMC stderr\trel.err\n");
    for lambda in [1e-5, 1e-4, 1e-3] {
        let p = IntervalParams {
            lambda,
            t: 300.0,
            o_total: params.o,
            l_total: params.l,
            r_recovery: params.r_recovery,
        };
        let exact = gamma_closed_form(&p);
        let est = simulate_interval(&p, trials, seed);
        writeln!(
            body,
            "{lambda:.0e}\t{exact:.4}\t{:.4}\t{:.4}\t{:.2e}",
            est.mean,
            est.std_err,
            (est.mean - exact).abs() / exact
        )?;
    }
    section(
        "e3-monte-carlo",
        format!("E3 — interval model vs. Monte-Carlo, {trials} trials per λ, seed {seed:#X}"),
        &body,
    )?;

    let (n, seed, fail_ms) = (4, 7, 250);
    let cc = CompareConfig::builder(n)
        .seed(seed)
        .failures(FailurePlan::at(vec![(SimTime::from_millis(fail_ms), 0)]))
        .build()?;
    section(
        "e4-single-run",
        format!("E4 — jacobi(8), n = {n}, seed {seed}, P0 fails at {fail_ms} ms"),
        &render_table(&compare_all(&acfc::mpsl::programs::jacobi(8), &cc)),
    )?;

    // The plan `acfc compare --sweep programs/jacobi.mpsl --ns 2,4,8,16
    // --seeds 3 --failure-rate 0.8` runs; its last line reports wall
    // time, so it is not part of the section.
    let rate = 0.8;
    let plan = SweepPlan::builder()
        .ns([2usize, 4, 8, 16])
        .seeds_per_cell(3)
        .failure_rates([rate])
        .build()?;
    let mut table = TableSink::new(Vec::new());
    run_sweep(&plan, &mut [&mut table as &mut dyn RowSink])?;
    let text = String::from_utf8(table.into_inner())?;
    let rows = text
        .trim_end()
        .rsplit_once('\n')
        .map_or("", |(rows, _)| rows);
    section(
        "e4-scaling",
        format!(
            "E4 scaling — jacobi(10), failures ~ Exp(n · {rate}/s of simulated time), {} seeds per cell",
            plan.seeds_per_cell()
        ),
        &format!("{rows}\n"),
    )?;

    let tl = TwoLevelParams {
        lambda_single: 5e-5,
        lambda_cat: 1e-6,
        t: 300.0,
        o1: 0.2,
        o2: params.o,
        r1: 0.5,
        r2: params.r_recovery,
        k: 8,
    };
    let (k_star, best) = optimal_k(&tl, 256);
    let body = format!(
        "scheme\tk\toverhead ratio\n\
         single-level (all stable storage)\t-\t{:.6e}\n\
         two-level\t{}\t{:.6e}\n\
         two-level, optimal k*\t{k_star}\t{best:.6e}\n",
        single_level_ratio(&tl),
        tl.k,
        twolevel_ratio_analytic(&tl),
    );
    section(
        "e6-two-level",
        format!(
            "E6 — two-level recovery: o1 = {} s, o2 = {} s, λ1 = {:e}/s, λ2 = {:e}/s",
            tl.o1, tl.o2, tl.lambda_single, tl.lambda_cat
        ),
        &body,
    )?;

    Ok(())
}

/// Runs a command that writes its report to a locked stdout. A reader
/// that stops early (`acfc figures | head -1`) closes the pipe, which
/// ends the command quietly instead of failing it.
fn to_stdout(cmd: impl FnOnce(&mut dyn Write) -> Result<(), Box<dyn Error>>) -> Result<(), String> {
    match cmd(&mut io::stdout().lock()) {
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            Ok(())
        }
        result => result.map_err(|e| e.to_string()),
    }
}

fn main() -> ExitCode {
    let (cmd, args) = match parse_args(std::env::args()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = args
        .check_values()
        .map_err(|e| e.to_string())
        .and_then(|()| match cmd.as_str() {
            "check" => to_stdout(|out| cmd_check(&args, out)),
            "analyze" => to_stdout(|out| cmd_analyze(&args, out)),
            "run" => to_stdout(|out| cmd_run(&args, out)),
            "report" => to_stdout(|out| cmd_report(&args, out)),
            "mpmd" => to_stdout(|out| cmd_mpmd(&args, out)),
            "compare" => to_stdout(|out| cmd_compare(&args, out)),
            "figures" => to_stdout(|out| cmd_figures(&args, out)),
            other => Err(format!("unknown command `{other}`\n{}", usage())),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
