//! `fisql` — the interactive FISQL console, evaluator, and daemon.
//!
//! A terminal rendition of the paper's tool (Figures 3-4): ask questions
//! against the bundled AEP-like marketing database (or your own `.sql`
//! schema file), read the Assistant's four outputs, and steer it with
//! plain-language feedback.
//!
//! ```text
//! fisql [path/to/schema.sql]
//!
//! you> how many audiences were created in January?
//! ...assistant answers...
//! you> feedback: we are in 2024
//! ...assistant revises the SQL...
//! you> :sql        show the current SQL
//! you> :run SELECT COUNT(*) FROM hkg_dim_segment
//! you> :schema     print the schema
//! you> :quit
//! ```
//!
//! Three non-interactive entry points share the console's pipeline:
//!
//! - `fisql --eval` runs the sharded correction evaluation (collect →
//!   annotate → correct) on the bundled corpora; flags parse into
//!   [`EvalConfig`].
//! - `fisql serve` hosts the session API as a long-lived multi-session
//!   TCP daemon ([`ServeConfig`]): length-prefixed JSON frames,
//!   admission control with backpressure, per-connection resilience, and
//!   a journal-backed session store that replays sessions bit-identically
//!   across restarts (`--store PATH`).
//! - `fisql load` drives a daemon with seeded deterministic session
//!   scripts ([`LoadConfig`]) and reports throughput, latency
//!   percentiles, and the order-insensitive transcript digest;
//!   `--shutdown` asks the daemon to drain afterwards.
//!
//! The backing model is the simulated LLM, so "asking a question" means
//! picking the bundled corpus question closest to yours (by embedding
//! similarity) and answering it — good enough to drive the whole feedback
//! pipeline interactively.

#![forbid(unsafe_code)]

use fisql::prelude::*;
use fisql_core::serve::{run_load, Server};
use fisql_core::{chaos_stack, Assistant, EvalConfig, LoadConfig, ServeConfig};
use fisql_llm::Embedding;
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().collect();

    match args.get(1).map(String::as_str) {
        Some("serve") => return run_serve(&args[2..]),
        Some("load") => return run_load_cli(&args[2..]),
        _ if args.iter().any(|a| a == "--eval") => return run_eval(&args),
        _ => {}
    }

    // Corpus + database: bundled AEP-like by default; a schema file makes
    // a custom database (questions then run through :run only).
    let corpus = build_aep(&AepConfig {
        n_examples: 120,
        seed: 0xC11,
    });
    let custom_db = args.get(1).map(|path| {
        let sql = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        fisql::fisql_engine::load_script("custom", &sql).unwrap_or_else(|e| {
            eprintln!("error: cannot load {path}: {e}");
            std::process::exit(2);
        })
    });
    let db = custom_db.as_ref().unwrap_or(&corpus.databases[0]);

    let llm = SimLlm::new(LlmConfig::default());
    let assistant = Assistant::for_corpus(&corpus, llm.clone(), 3);
    let strategy = Strategy::Fisql {
        routing: true,
        highlighting: false,
    };
    let mut session = fisql_core::Session::new(db, assistant, strategy);

    // Question embeddings for nearest-question matching.
    let embeddings: Vec<Embedding> = corpus
        .examples
        .iter()
        .map(|e| Embedding::embed(&e.question))
        .collect();
    let mut current_example: Option<Example> = None;

    println!("fisql — Feedback-Infused SQL console (database: {db})");
    println!("type a question, `feedback: <text>`, `:sql`, `:run <SQL>`, `:explain <SQL>`, `:schema`, `:examples`, or `:quit`\n");

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("you> ");
        std::io::stdout().flush().ok();
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        match input {
            ":quit" | ":q" | "exit" => break,
            ":schema" => {
                println!("{}", db.schema_text());
                continue;
            }
            ":sql" => {
                match session.events().iter().rev().find_map(|e| match e {
                    SessionEvent::Assistant { sql, .. } => Some(sql.clone()),
                    _ => None,
                }) {
                    Some(sql) => println!("{sql}"),
                    None => println!("(ask a question first)"),
                }
                continue;
            }
            ":examples" => {
                for e in corpus.examples.iter().take(10) {
                    println!("  - {}", e.question);
                }
                continue;
            }
            _ => {}
        }
        if let Some(sql) = input.strip_prefix(":run ") {
            match execute_sql(db, sql) {
                Ok(rs) => println!("{rs}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(sql) = input.strip_prefix(":explain ") {
            match parse_query(sql) {
                Ok(q) => println!("{}", fisql::fisql_engine::explain(db, &q)),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if input.starts_with(':') {
            println!(
                "(unknown command `{input}` — try :sql, :run, :explain, :schema, :examples, :quit)"
            );
            continue;
        }
        if let Some(feedback) = input
            .strip_prefix("feedback:")
            .or_else(|| input.strip_prefix("fb:"))
        {
            let Some(example) = &current_example else {
                println!("(ask a question before giving feedback)");
                continue;
            };
            let turn = session.give_feedback(&llm, example, feedback.trim(), None);
            println!("{}", Assistant::render_turn(&turn));
            continue;
        }

        // A question: find the nearest bundled question and answer it.
        if custom_db.is_some() {
            println!("(custom databases support `:run <SQL>`; questions need the bundled corpus)");
            continue;
        }
        let q = Embedding::embed(input);
        let best = embeddings
            .iter()
            .enumerate()
            .max_by(|a, b| {
                q.cosine(a.1)
                    .partial_cmp(&q.cosine(b.1))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let example = corpus.examples[best].clone();
        if !example.question.eq_ignore_ascii_case(input) {
            println!("(interpreting as: {})", example.question);
        }
        let turn = session.ask(&example);
        println!("{}", Assistant::render_turn(&turn));
        current_example = Some(example);
    }
    println!("bye.");
}

/// `fisql serve [--host H] [--port P] [--max-sessions N] [--queue-depth
/// Q] [--queue-wait-ms MS] [--store PATH] [--fsync never|each|batch]
/// [--idle-timeout MS] [--compact-every N] [--disk-fault-rate R]
/// [--strategy S] [--fault-rate R] [--retry-budget B] [--seed S]
/// [--examples N] [--no-semantic-cache] [--repl-listen ADDR]
/// [--replica-of ADDR] [--repl-ack none|quorum] [--repl-ack-timeout MS]
/// [--no-auto-promote]`: the long-lived multi-session daemon.
///
/// Connections speak the length-prefixed JSON protocol
/// (`fisql_core::serve::protocol`). Up to `--max-sessions` sessions run
/// concurrently; `--queue-depth` more connections wait (bounded) and
/// everything beyond is rejected with a typed backpressure response.
/// With `--store PATH` every session operation is journaled write-ahead,
/// and a restarted daemon replays stored sessions bit-identically
/// (clients resume with `Hello { resume: <id> }`). A `Shutdown` request
/// (`fisql load --shutdown`) drains the daemon gracefully.
///
/// Survivability: `--idle-timeout MS` reaps sessions that complete no
/// frame for that long (typed `Reaped` farewell, slot returned);
/// `--compact-every N` rewrites the store after every N closed sessions,
/// keeping only live sessions; `--disk-fault-rate R` (or the
/// `FISQL_DISK_FAULT_RATE` env var) injects deterministic store faults —
/// an affected session degrades to memory-only instead of dying.
///
/// Replication: `--repl-listen ADDR` makes this daemon a primary that
/// ships every journal record to attached followers; `--replica-of
/// ADDR` makes it a follower of that primary's replication listener
/// (read-only until promoted). `--repl-ack quorum` holds each write's
/// response until a follower confirms durability (released after
/// `--repl-ack-timeout` with the timeout counted); the default
/// (`none`) ships asynchronously. A follower that loses its primary
/// self-promotes by bumping the persisted fencing epoch — pass
/// `--no-auto-promote` to require an explicit admin `Promote` instead.
/// A deposed primary fences itself and answers writes with a typed
/// `Fenced` response.
fn run_serve(args: &[String]) {
    let config = ServeConfig::from_args(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let server = Server::bind(config.clone()).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {}: {e}", config.addr());
        std::process::exit(1);
    });
    let addr = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| config.addr());
    println!(
        "fisql serve: listening on {addr} ({} session slot(s), queue {}, store {})",
        config.max_sessions,
        config.queue_depth,
        config
            .store
            .as_ref()
            .map_or("none".to_string(), |p| p.display().to_string()),
    );
    // The replication listener's resolved address on its own line, so
    // scripts (and the CI smoke job) binding port 0 can read it back.
    if let Some(repl_addr) = server.repl_addr() {
        println!(
            "  replication listening on {repl_addr} (ack {})",
            config.repl_ack
        );
    }
    if let Some(primary) = &config.replica_of {
        println!(
            "  replicating from {primary} (auto-promote {})",
            if config.auto_promote { "on" } else { "off" },
        );
        if config.auto_promote {
            println!(
                "  note: auto-promote cannot distinguish a dead primary from a network \
                 partition; where partitions are plausible, prefer --no-auto-promote \
                 and an explicit admin Promote"
            );
        }
    }
    let recovered = server.recovered_sessions();
    if !recovered.is_empty() {
        println!(
            "  recovered {} unclosed session(s) from the store: {recovered:?}",
            recovered.len()
        );
    }
    match server.serve() {
        Ok(summary) => {
            let a = &summary.admission;
            println!(
                "fisql serve: drained — {} session(s) opened, {} resumed, {} question(s), \
                 {} feedback round(s), {} contained panic(s)",
                summary.sessions_opened,
                summary.sessions_resumed,
                summary.questions_served,
                summary.rounds_served,
                summary.contained_panics,
            );
            println!(
                "  admission: {} direct, {} queued, {} rejected ({} full / {} timeout / {} closed), peak {}",
                a.admitted_direct,
                a.admitted_queued,
                a.rejected(),
                a.rejected_full,
                a.rejected_timeout,
                a.rejected_closed,
                a.peak_active,
            );
            let s = &summary.store;
            println!(
                "  survivability: {} reaped, {} degraded, store gen {} ({} op(s), {} compaction(s), \
                 {} append fault(s), writable {}, epoch {}), final active {} / queued {}",
                a.reaped,
                summary.sessions_degraded,
                s.generation,
                s.ops,
                s.compactions,
                s.append_faults,
                s.writable,
                s.epoch,
                summary.final_active,
                summary.final_queued,
            );
        }
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `fisql load [--addr A] [--sessions N] [--concurrency C] [--rounds R]
/// [--seed S] [--corpus-seed S] [--examples N] [--connect-retry-ms MS]
/// [--shutdown]`: the deterministic load generator.
///
/// Drives a running daemon with seeded session scripts and prints
/// sessions/s, rounds/s, latency percentiles, and the order-insensitive
/// transcript digest (stable across runs at any concurrency).
/// `--shutdown` sends a graceful `Shutdown` after the load completes.
///
/// `--addr` takes a comma-separated endpoint list (`primary,follower`):
/// each scripted client holds the whole list and, when its endpoint
/// dies mid-session, re-attaches by session id to the next one — riding
/// a failover without losing its place. The report then includes the
/// failover count, any lost rounds, and re-attach latency percentiles.
fn run_load_cli(args: &[String]) {
    let config = LoadConfig::from_args(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let report = run_load(&config).unwrap_or_else(|e| {
        eprintln!("error: load run failed: {e}");
        std::process::exit(1);
    });
    println!(
        "fisql load: {} session(s) completed, {} rejected, {} failed in {:.1} s",
        report.sessions_completed,
        report.sessions_rejected,
        report.sessions_failed,
        report.wall_ms as f64 / 1000.0,
    );
    println!(
        "  {:.1} sessions/s, {:.1} rounds/s ({} question(s), {} round(s))",
        report.sessions_per_sec(),
        report.rounds_per_sec(),
        report.questions,
        report.rounds,
    );
    println!(
        "  latency p50 {} us, p99 {} us over {} request(s)",
        report.latency_percentile_us(50.0),
        report.latency_percentile_us(99.0),
        report.latencies_us.len(),
    );
    println!("  transcript digest {:#018x}", report.digest);
    if report.failovers > 0 || report.lost_rounds > 0 {
        println!(
            "  failover: {} re-attach(es), {} lost round(s), re-attach p50 {} us / p99 {} us",
            report.failovers,
            report.lost_rounds,
            report.failover_percentile_us(50.0),
            report.failover_percentile_us(99.0),
        );
    }
    if let Some(stats) = &report.stats {
        println!(
            "  daemon: {} opened / {} resumed / {} reaped / {} degraded, store gen {} \
             ({} op(s), {} compaction(s)), uptime {:.1} s",
            stats.sessions_opened,
            stats.sessions_resumed,
            stats.admission.reaped,
            stats.sessions_degraded,
            stats.store.generation,
            stats.store.ops,
            stats.store.compactions,
            stats.uptime_ms as f64 / 1000.0,
        );
        println!(
            "  replication: role {:?}, epoch {}, lag {} record(s), {} follower(s), \
             {} shipped, {} retained, {} ack timeout(s), ack degraded {} ({} entry(ies))",
            stats.role,
            stats.epoch,
            stats.replication_lag_records,
            stats.repl_followers,
            stats.repl_records_shipped,
            stats.repl_log_retained,
            stats.repl_ack_timeouts,
            if stats.repl_ack_degraded { "yes" } else { "no" },
            stats.repl_ack_degraded_entries,
        );
    }
    if report.sessions_failed > 0 {
        std::process::exit(1);
    }
}

/// `fisql --eval [--strategy S] [--workers N] [--fault-rate R]
/// [--retry-budget B] [--no-static-oracle] [--no-semantic-cache]
/// [--conformance-gate] [--journal PATH] [--resume]
/// [--case-deadline MS] [--fsync P]`: the
/// sharded correction evaluation on the bundled SPIDER-like and AEP-like
/// corpora. Flags parse and validate through [`EvalConfig`]; see its
/// docs for each knob's meaning.
fn run_eval(args: &[String]) {
    let config = EvalConfig::from_args(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let spider = build_spider(&SpiderConfig {
        n_databases: 12,
        n_examples: 96,
        seed: 0xC11,
    });
    let aep = build_aep(&AepConfig {
        n_examples: 60,
        seed: 0xC11 ^ 0xAE9,
    });
    let llm = SimLlm::new(LlmConfig::default());
    let user = SimUser::new(UserConfig::default());
    // The chaos stack: faults injected under the simulated model, retries
    // and breaker on top — the same stack `fisql serve` builds per
    // connection.
    let chaos = chaos_stack(&llm, config.fault_rate, config.retry_budget);

    for corpus in [&spider, &aep] {
        // Error collection runs the Assistant front end (SimLlm-specific);
        // the correction loop proper runs through the chaos stack.
        let collect = CorrectionRun::new(corpus, &llm, &user)
            .demos_k(3)
            .rounds(2)
            .workers(config.workers);
        let errors = collect.collect_errors();
        let cases = collect.annotate(&errors);
        // One journal file per corpus: both corpora share the --journal
        // prefix but must not share a fingerprinted case list.
        let journal_path = config
            .journal
            .as_ref()
            .map(|p| std::path::PathBuf::from(format!("{}.{}", p.display(), corpus.name)));
        let mut run = CorrectionRun::new(corpus, &chaos, &user)
            .strategy(config.strategy)
            .demos_k(3)
            .rounds(2)
            .workers(config.workers)
            .static_oracle(config.static_oracle)
            .semantic_cache(config.semantic_cache)
            .conformance_gate(config.conformance_gate)
            .case_deadline_ms(config.case_deadline_ms)
            .resume(config.resume)
            .fsync(config.fsync);
        if let Some(path) = &journal_path {
            run = run.journal(path);
        }
        let report = match run.try_run(&cases) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: run journal I/O failed: {e}");
                std::process::exit(1);
            }
        };
        let m = &report.metrics;
        println!(
            "{} [{}]: {} errors, {} annotated; corrected after r1/r2: {:.1}%/{:.1}%",
            corpus.name,
            config.strategy.name(),
            errors.len(),
            cases.len(),
            report.pct_after(1),
            report.pct_after(2),
        );
        println!(
            "  {} worker(s), {:.1} ms, {:.1} cases/s, {} engine executions, cache hit rate {:.0}%",
            m.workers,
            m.wall_ms,
            m.cases_per_sec,
            m.engine_executions,
            100.0 * m.cache_hit_rate(),
        );
        if config.static_oracle {
            println!(
                "  static oracle: {} execution(s) skipped",
                report.executions_skipped_static,
            );
        }
        if config.semantic_cache {
            println!(
                "  semantic cache: {} execution(s) skipped, hit rate {:.0}%",
                m.executions_skipped_cache,
                100.0 * m.semantic_cache_hit_rate(),
            );
        }
        if config.conformance_gate {
            println!(
                "  conformance: {} agreed / {} disagreed, {} re-prompt(s)",
                report.router_realized_agreements,
                report.router_realized_disagreements,
                report.conformance_retries,
            );
        }
        if let Some(path) = &journal_path {
            println!(
                "  journal: {} ({} policy){}",
                path.display(),
                config.fsync,
                if config.resume { ", resumed" } else { "" },
            );
        }
        if report.cases_crashed > 0 || report.cases_timed_out > 0 {
            println!(
                "  robustness: {} case(s) crashed, {} timed out",
                report.cases_crashed, report.cases_timed_out,
            );
        }
        if config.fault_rate > 0.0 {
            let r = &m.resilience;
            println!(
                "  faults: rate {:.0}%, {} attempts / {} calls, {} retries, {} breaker trips, \
                 {} rounds degraded in {} case(s)",
                100.0 * config.fault_rate,
                r.attempts,
                r.calls,
                r.retries,
                r.breaker_trips,
                report.degraded_rounds,
                report.cases_degraded,
            );
        }
    }
}
