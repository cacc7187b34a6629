//! `analysis_scale`: source text → parse → validate → `analyze` →
//! `compile`, one program at a time, over the generated corpus.

use crate::gen::{analysis_corpus, Source};
use crate::harness::{timed, windowed_quantile, Fnv, Ledger, Tracer, Units};
use crate::parts::{Ctx, Metrics, Part};
use acfc::cfg::{build_cfg, dominators, loop_info_with, Reach};
use acfc::core::{
    analyze, analyze_iddep, check_condition1, compute_attrs, ensure_recovery_lines,
    equalize_checkpoints, index_checkpoints, insert_checkpoints, match_send_recv, AnalysisConfig,
    ExtendedCfg, Phase3Config,
};
use acfc::mpsl::{lex, parse, to_source, validate};
use acfc::sim::compile;
use std::hint::black_box;
use std::time::Instant;

pub struct Analysis {
    corpus: Vec<Source>,
    /// One unit per program: its statements and pipeline latency.
    programs: Units,
}

/// One pass over the corpus: per program its statements and pipeline
/// latency in seconds, and (when asked) the digest of every result.
struct Pass {
    programs: Vec<(usize, f64)>,
    digest: Option<u64>,
}

impl Analysis {
    pub fn setup(seed: u64) -> Analysis {
        Analysis {
            corpus: analysis_corpus(seed),
            programs: Units::default(),
        }
    }

    fn pass(&self, ctx: &mut Ctx, with_digest: bool) -> Pass {
        let mut programs = Vec::with_capacity(self.corpus.len());
        let mut digest = Fnv::new();
        for src in &self.corpus {
            let config = AnalysisConfig::for_nprocs(src.nprocs);
            let (result, dt) = timed(|| {
                let program = parse(&src.text).map_err(|e| e.to_string())?;
                let errors = validate(&program);
                if !errors.is_empty() {
                    return Err(format!("{} validation error(s)", errors.len()));
                }
                let analysis = analyze(&program, &config).map_err(|e| e.to_string())?;
                let compiled = compile(&analysis.program);
                Ok((program.stmt_count(), analysis, compiled))
            });
            let Some((stmts, analysis, compiled)) = ctx.ops.ok(&src.name, result) else {
                programs.push((0, dt));
                continue;
            };
            programs.push((stmts, dt));
            if with_digest {
                digest.str(&src.name);
                digest.u64(analysis.moves.len() as u64);
                for m in &analysis.moves {
                    digest.u64(u64::from(m.index));
                    digest.str(&m.description);
                }
                for e in &analysis.extended.message_edges {
                    digest.u64(e.send.index() as u64);
                    digest.u64(e.recv.index() as u64);
                }
                digest.str(&to_source(&analysis.program));
                digest.u64(compiled.len() as u64);
            }
        }
        Pass {
            programs,
            digest: with_digest.then(|| digest.finish()),
        }
    }
}

impl Part for Analysis {
    fn check(&mut self, ctx: &mut Ctx) {
        let pass = self.pass(ctx, true);
        let digest = pass.digest.expect("digest requested");
        ctx.digest("analysis_scale", "analysis.results", digest);
    }

    fn rep(&mut self, ctx: &mut Ctx) {
        let pass = self.pass(ctx, false);
        for (unit, &(stmts, secs)) in pass.programs.iter().enumerate() {
            self.programs.record(unit, stmts as f64, secs);
        }
    }

    fn metrics(&self) -> Metrics {
        let latency_s = self.programs.best();
        Metrics::from([
            ("analyze_stmts_per_s", self.programs.rate()),
            ("analyze_p50_ms", windowed_quantile(&latency_s, 0.5) * 1e3),
            ("analyze_p90_ms", windowed_quantile(&latency_s, 0.9) * 1e3),
        ])
    }

    /// Stage by stage, as `acfc check` and `analyze` call the crates.
    fn traced(&mut self, ctx: &mut Ctx, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let from = tracer.spans.len();
        let start = Instant::now();
        for src in &self.corpus {
            let config = AnalysisConfig::for_nprocs(src.nprocs);
            ledger.add("mpsl.src_bytes", src.text.len() as f64);
            black_box(tracer.span("mpsl.lex_s", |_| lex(&src.text)).is_ok());
            let Some(program) = ctx
                .ops
                .ok(&src.name, tracer.span("mpsl.parse_s", |_| parse(&src.text)))
            else {
                ledger.add("core.rejected", 1.0);
                continue;
            };
            ledger.add("mpsl.stmts", program.stmt_count() as f64);
            black_box(tracer.span("mpsl.validate_s", |_| validate(&program)));

            let (cfg, lowered) = tracer.span("cfg.build_s", |_| build_cfg(&program));
            let dom = tracer.span("cfg.dominators_s", |_| dominators(&cfg));
            black_box(tracer.span("cfg.loops_s", |_| loop_info_with(&cfg, &dom)));
            let succs: Vec<Vec<usize>> = cfg
                .node_ids()
                .map(|n| cfg.succs(n).iter().map(|(m, _)| m.index()).collect())
                .collect();
            ledger.add("cfg.nodes", cfg.len() as f64);
            ledger.add(
                "cfg.edges",
                succs.iter().map(Vec::len).sum::<usize>() as f64,
            );
            black_box(tracer.span("cfg.reach_s", |_| Reach::compute(&succs)));

            let iddep = tracer.span("core.iddep_s", |_| analyze_iddep(&cfg, &lowered));
            let attrs = tracer.span("core.attrs_s", |_| compute_attrs(&cfg, src.nprocs, &iddep));
            let matching = tracer.span("core.matching_s", |_| {
                match_send_recv(&cfg, &attrs, &iddep, config.matching)
            });
            let violations = tracer.span("core.condition1_s", |_| {
                let index = index_checkpoints(&cfg, &lowered);
                let extended = ExtendedCfg::build(cfg, &matching);
                check_condition1(&extended, &index, config.policy).len()
            });
            ledger.add("core.violations", violations as f64);

            let mut prepared = lowered;
            tracer.span("core.phase1_s", |_| {
                if let Some(insertion) = &config.insertion {
                    insert_checkpoints(&mut prepared, insertion);
                }
                equalize_checkpoints(&mut prepared);
            });
            let phase3 = Phase3Config {
                nprocs: config.nprocs,
                matching: config.matching,
                policy: config.policy,
                max_iterations: config.max_iterations,
                incremental: config.incremental,
            };
            black_box(
                tracer
                    .span("core.phase3_s", |_| {
                        ensure_recovery_lines(&prepared, &phase3)
                    })
                    .is_ok(),
            );
            let analysis = tracer.span("core.analyze_s", |_| analyze(&program, &config));
            match ctx.ops.ok(&src.name, analysis) {
                Some(analysis) => {
                    ledger.add("core.phase3_moves", analysis.moves.len() as f64);
                    ledger.add(
                        "core.message_edges",
                        analysis.extended.message_edges.len() as f64,
                    );
                    black_box(tracer.span("sim.compile_s", |_| compile(&analysis.program)));
                }
                None => ledger.add("core.rejected", 1.0),
            }
        }
        let wall = start.elapsed().as_secs_f64();
        ledger.busy(
            tracer,
            from,
            &[
                "mpsl.lex_s",
                "mpsl.parse_s",
                "mpsl.validate_s",
                "cfg.build_s",
                "cfg.dominators_s",
                "cfg.loops_s",
                "cfg.reach_s",
                "core.iddep_s",
                "core.attrs_s",
                "core.matching_s",
                "core.condition1_s",
                "core.phase1_s",
                "core.phase3_s",
                "core.analyze_s",
                "sim.compile_s",
            ],
        );
        let src_mb = ledger.0["mpsl.src_bytes"] / 1e6;
        ledger.set("mpsl.parse_mb_per_s", src_mb / ledger.0["mpsl.parse_s"]);
        wall
    }
}
