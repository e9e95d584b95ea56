//! `gvfs-bench [--small] <name>...` runs the named experiments and
//! prints their tables; `--small` shrinks the workloads. It writes
//! nothing.
//!
//! `gvfs-bench gate` runs every experiment at full size and writes each
//! document to `results/<file>`. Both forms print each experiment's
//! wall time and the total, and a failed built-in assertion panics
//! under the header of the experiment that raised it.

use gvfs_bench::experiments::{Experiment, EXPERIMENTS};
use gvfs_bench::save_json;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args == ["gate"];
    let small = args.iter().any(|a| a == "--small");
    let picked: Option<Vec<&Experiment>> = if gate {
        Some(EXPERIMENTS.iter().collect())
    } else {
        let names = args.iter().filter(|a| *a != "--small");
        names.map(|name| EXPERIMENTS.iter().find(|e| e.name == name)).collect()
    };
    let Some(picked) = picked.filter(|p| !p.is_empty()) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("usage: gvfs-bench [--small] <name>...  |  gvfs-bench gate");
        eprintln!("experiments: {}", names.join(" "));
        return ExitCode::from(2);
    };
    let start = Instant::now();
    for e in &picked {
        println!("\n##### {} #####", e.name);
        let t = Instant::now();
        let doc = (e.run)(small);
        if gate {
            save_json(e.file, &doc);
        }
        println!("[{}: {:.1} s wall]", e.name, t.elapsed().as_secs_f64());
    }
    println!("\n{} experiments: {:.1} s wall", picked.len(), start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
