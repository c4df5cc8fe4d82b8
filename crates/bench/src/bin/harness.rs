//! The experiment harness: regenerates every table and figure of the
//! EDMStream paper (see the README's quickstart for how to run it).
//!
//! ```text
//! harness <experiment|all> [--scale f] [--out dir]
//! ```

use std::path::PathBuf;

use edm_bench::experiments::{self, Ctx, ALL};

fn usage() -> ! {
    eprintln!(
        "usage: harness <experiment|all> [--scale f] [--out dir]\n\
         experiments: {}\n\
         --scale  stream length relative to Table 2 (default 0.05)\n\
         --out    directory for CSV outputs (default results/)",
        ALL.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp: Option<String> = None;
    let mut scale = 0.05f64;
    let mut out: Option<PathBuf> = Some(PathBuf::from("results"));
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--no-out" => out = None,
            "--help" | "-h" => usage(),
            name if exp.is_none() && !name.starts_with('-') => exp = Some(name.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let exp = exp.unwrap_or_else(|| "all".to_string());
    if !(0.0..=1.0).contains(&scale) || scale <= 0.0 {
        eprintln!("scale must be in (0, 1]");
        std::process::exit(2);
    }
    let ctx = Ctx { scale, out };
    let started = std::time::Instant::now();
    let names: Vec<&str> = if exp == "all" { ALL.to_vec() } else { vec![exp.as_str()] };
    for name in names {
        println!("\n################ {name} (scale {scale}) ################");
        let t = std::time::Instant::now();
        match experiments::run(name, &ctx) {
            Ok(true) => println!("[{name} done in {:.1}s]", t.elapsed().as_secs_f64()),
            Ok(false) => {
                eprintln!("unknown experiment: {name}");
                usage();
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("\nall requested experiments finished in {:.1}s", started.elapsed().as_secs_f64());
}
