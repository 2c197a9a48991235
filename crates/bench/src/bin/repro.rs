//! `repro` — regenerate the tables and figures of the StegFS paper
//! (`repro --help` lists the options).
//!
//! With no arguments (or `--all`) the tables, every figure, the space
//! summary and the survival and attribution sweeps are produced.  The
//! default scale is a 64 MB volume with proportionally scaled files, which
//! reproduces the *shapes* of every figure in a couple of minutes; `--full`
//! switches to the paper's 1 GB / 100 × (1–2 MB) configuration (expect a
//! long run).
//!
//! Everything is printed; nothing is recorded.  The exit status is non-zero
//! if any selected artefact failed to produce.

use stegfs_bench::{attribution, survival};
use stegfs_sim::experiments::{
    figure6, figure7, figure8, figure9, render_access_rows, render_figure6, render_space_summary,
    space_summary, tables,
};
use stegfs_sim::WorkloadParams;

#[derive(Default)]
struct Options {
    full: bool,
    smoke: bool,
    tables: bool,
    figures: Vec<u32>,
    space: bool,
    survival: bool,
    scavenge_demo: bool,
    attribution: bool,
    trace_export: Option<String>,
}

impl Options {
    /// What `--all` (and an empty command line) selects.
    fn select_all(&mut self) {
        self.tables = true;
        self.figures = vec![6, 7, 8, 9];
        self.space = true;
        self.survival = true;
        self.attribution = true;
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut any_selection = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        // `--full` and `--smoke` change the scale; everything else selects.
        any_selection |= !matches!(arg.as_str(), "--full" | "--smoke");
        match arg.as_str() {
            "--full" => opts.full = true,
            "--smoke" => opts.smoke = true,
            "--all" => opts.select_all(),
            "--tables" => opts.tables = true,
            "--fig" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n @ 6..=9) => opts.figures.push(n),
                _ => usage("--fig requires a figure number (6-9)"),
            },
            "--space-summary" => opts.space = true,
            "--survival" => opts.survival = true,
            "--scavenge" => opts.scavenge_demo = true,
            "--attribution" => opts.attribution = true,
            "--trace-export" => {
                // Optional PATH operand; defaults to TRACE.json.
                let path = args.next_if(|p| !p.starts_with("--"));
                opts.trace_export = Some(path.unwrap_or_else(|| "TRACE.json".to_string()));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !any_selection {
        opts.select_all();
    }
    opts
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: repro [--full] [--smoke] [--all] [--tables] [--fig N]... [--space-summary]\n\
         \t[--survival] [--scavenge] [--attribution] [--trace-export [PATH]]\n\
         \n\
         Regenerates the tables and figures of 'StegFS: A Steganographic File\n\
         System' (Pang, Tan, Zhou — ICDE 2003).  Default scale is a 64 MB\n\
         volume; --full uses the paper's 1 GB configuration; --smoke shrinks\n\
         the survival and attribution sweeps to a seconds-long CI-sized run\n\
         and adds the k-of-n boundary check to --survival.  Exits non-zero if\n\
         anything selected fails."
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

fn main() {
    let opts = parse_args();
    let mut failures: Vec<String> = Vec::new();

    let (params, fig6_volume_mb, fig6_trials, space_volume_mb) = if opts.full {
        (WorkloadParams::paper_defaults(), 1024, 3, 1024)
    } else {
        (WorkloadParams::scaled_quick(), 128, 2, 64)
    };

    println!(
        "StegFS reproduction — {} scale",
        if opts.full {
            "paper (1 GB)"
        } else {
            "scaled (64-128 MB)"
        }
    );
    println!("================================================================");
    println!();

    if opts.tables {
        println!("{}", tables());
    }

    // Figure 8's file sizes scale with the volume: the paper sweeps
    // 200..2000 KB on a 1 GB volume.
    let fig8_sizes_kb: &[u64] = if opts.full {
        &[200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000]
    } else {
        &[64, 128, 192, 256, 320, 384, 448, 512]
    };
    let access_table = |title, x_label, rows: Result<Vec<_>, String>, normalized| {
        rows.map(|rows| render_access_rows(title, x_label, &rows, normalized))
    };
    for &fig in &opts.figures {
        let seed = params.seed;
        let rendered = match fig {
            6 => Ok(render_figure6(&figure6(fig6_volume_mb, fig6_trials, seed))),
            7 => access_table(
                "Figure 7: multiple concurrent users",
                "users",
                figure7(&params, &[1, 2, 4, 8, 16, 32]),
                false,
            ),
            8 => access_table(
                "Figure 8: sensitivity to file size (8 users)",
                "file size (KB)",
                figure8(&params, fig8_sizes_kb, 8),
                true,
            ),
            9 => access_table(
                "Figure 9: serial file operations (1 user)",
                "block size (KB)",
                figure9(&params, &[512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]),
                false,
            ),
            _ => unreachable!("parse_args admits figures 6-9 only"),
        };
        match rendered {
            Ok(text) => println!("{text}"),
            Err(e) => failures.push(format!("figure {fig}: {e}")),
        }
    }

    if opts.space {
        match space_summary(space_volume_mb, params.seed) {
            Ok(rows) => println!("{}", render_space_summary(&rows)),
            Err(e) => failures.push(format!("space summary: {e}")),
        }
    }

    if opts.survival {
        // The smoke variant first pins the exact k-of-n boundary (destroy
        // n-m shares per group -> byte-identical; one more -> fail closed).
        if opts.smoke {
            match survival::smoke() {
                Ok(()) => println!("survival smoke: k-of-n boundary holds (recover at n-m losses, fail closed beyond)"),
                Err(e) => failures.push(format!("survival smoke: {e}")),
            }
        }
        let (files, file_kb, damage_frac) = if opts.smoke {
            (2, 4, 0.12)
        } else if opts.full {
            (12, 64, 0.15)
        } else {
            (6, 32, 0.15)
        };
        // Randomized share damage then scavenge, per policy; metadata damage
        // healed by a keyed scavenge pass and checked by a second.
        let points = survival::run_sweep(files, file_kb, damage_frac, 0x5743_2003);
        println!("{}", survival::render(&points));
        let meta_points = survival::run_metadata_sweep(files, file_kb, 0x4d45_5441);
        println!("{}", survival::render_metadata(&meta_points));
    }

    if opts.attribution {
        // Where each request type's latency went, phase by phase, on a
        // journaled write-back volume behind the engine.
        let (clients, ops_per_client, workers) = if opts.smoke {
            (4, 8, 4)
        } else if opts.full {
            (12, 96, 8)
        } else {
            (12, 48, 8)
        };
        let run = attribution::run(clients, ops_per_client, workers);
        println!("{}", attribution::render(&run));
    }

    if let Some(path) = &opts.trace_export {
        // The attribution workload again with the whole-tree capture buffer
        // active; the file loads into chrome://tracing or ui.perfetto.dev.
        let (clients, ops_per_client, workers) = if opts.smoke { (4, 8, 4) } else { (8, 24, 8) };
        let (json, dropped) = attribution::trace_export(clients, ops_per_client, workers, 65536);
        match std::fs::write(path, &json) {
            Ok(()) => println!(
                "wrote chrome trace to {path} ({} bytes, {} events dropped)",
                json.len(),
                dropped
            ),
            Err(e) => failures.push(format!("could not write {path}: {e}")),
        }
    }

    if opts.scavenge_demo {
        // Damage a coded volume, repair it in place, print the report.
        println!("{}", survival::scavenge_demo());
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
