//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <build_full|serve_exact|fabric_knn>
//!           --seed N --seconds S --trace <0|1> --coconut <path to coconut>
//!           [--scale full|tiny] [--work-dir DIR] [--out-dir DIR]
//!           [--source-rev REV] [--corrupt-oracle]
//! ```
//!
//! Every input is generated from `--seed`. Every answer is checked against
//! an oracle outside the timed window. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). A run record with the host fingerprint and sample counts
//! goes to `<out-dir>/<workload>-seed<N>.json`, and a traced run's spans to
//! `<out-dir>/<workload>-seed<N>.spans.jsonl`.
//!
//! Exit codes: 0 on a correct run, 1 when an answer was wrong (the result
//! line is still printed, with `"correct": false`), 2 when the run could
//! not be carried out (no result line).

mod loadgen;
mod oracle;
mod probes;
mod proc;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

use report::{json_str, Host, Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Why a run failed.
#[derive(Debug)]
pub struct Fail {
    /// True when the program answered wrongly (as opposed to the run not
    /// being possible at all).
    pub wrong: bool,
    pub msg: String,
}

impl Fail {
    pub fn setup(msg: impl Into<String>) -> Self {
        Fail {
            wrong: false,
            msg: msg.into(),
        }
    }

    pub fn wrong(msg: impl Into<String>) -> Self {
        Fail {
            wrong: true,
            msg: msg.into(),
        }
    }
}

/// Input sizes. `Full` is the benchmark; `Tiny` is for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    fn full(self) -> bool {
        self == Scale::Full
    }

    pub fn series_len(self) -> usize {
        if self.full() {
            256
        } else {
            64
        }
    }

    pub fn build_series(self) -> u64 {
        if self.full() {
            400_000
        } else {
            3_000
        }
    }

    /// The external sort's memory budget for `build_full`.
    pub fn build_budget(self) -> u64 {
        if self.full() {
            32 << 20
        } else {
            64 << 10
        }
    }

    pub fn serve_series(self) -> u64 {
        if self.full() {
            200_000
        } else {
            3_000
        }
    }

    pub fn fabric_series(self) -> u64 {
        if self.full() {
            50_000
        } else {
            2_000
        }
    }

    /// Distinct queries in the serving workloads' pools: enough that the
    /// mix of easy and hard queries is about the same for every seed.
    pub fn serve_pool(self) -> usize {
        if self.full() {
            512
        } else {
            16
        }
    }

    /// Distinct queries in `fabric_knn`'s pool (its latency depends little
    /// on the query).
    pub fn fabric_pool(self) -> usize {
        if self.full() {
            128
        } else {
            8
        }
    }

    /// Queries the traced run's in-process probes time.
    pub fn probe_queries(self) -> usize {
        if self.full() {
            64
        } else {
            4
        }
    }

    /// Exact searches on the tree `build_full` builds, checked against
    /// brute force (each takes a few hundred milliseconds at full scale).
    pub fn build_queries(self) -> usize {
        if self.full() {
            8
        } else {
            4
        }
    }

    /// How many times a run sets up its workload (`setup_s` and the
    /// serving workloads' `build_s` are medians over them). Writing
    /// `build_full`'s 400 MiB input is its set-up, so it repeats less.
    pub fn setups(self, workload_writes_input: bool) -> usize {
        if workload_writes_input {
            3
        } else {
            31
        }
    }

    pub fn warmup(self) -> Duration {
        Duration::from_millis(if self.full() { 1000 } else { 100 })
    }
}

/// Everything a workload needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub coconut: PathBuf,
    pub work: PathBuf,
    pub corrupt_oracle: bool,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (measured in both modes; printed untraced).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers, one line each.
    pub wrong: Vec<String>,
    /// JSON object describing the inputs.
    pub inputs: String,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    coconut: PathBuf,
    work: PathBuf,
    out: PathBuf,
    source_rev: String,
    corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        coconut: PathBuf::new(),
        work: PathBuf::from(".bench_work"),
        out: PathBuf::from(".bench_out"),
        source_rev: "unknown".into(),
        corrupt_oracle: false,
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--corrupt-oracle" {
            a.corrupt_oracle = true;
            continue;
        }
        let val = argv
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => seed = Some(val.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|_| "--seconds wants a number")?)
            }
            "--trace" => trace = Some(val == "1"),
            "--scale" => {
                a.scale = match val.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale is full or tiny".into()),
                }
            }
            "--coconut" => a.coconut = PathBuf::from(val),
            "--work-dir" => a.work = PathBuf::from(val),
            "--out-dir" => a.out = PathBuf::from(val),
            "--source-rev" => a.source_rev = val,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    a.seed = seed.ok_or("--seed is required")?;
    a.seconds = seconds.ok_or("--seconds is required")?;
    a.trace = trace.ok_or("--trace is required")?;
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if !a.coconut.is_file() {
        return Err(format!(
            "--coconut {} is not a file (build coconut-cli first)",
            a.coconut.display()
        ));
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        coconut: args.coconut.clone(),
        work: args.work.clone(),
        corrupt_oracle: args.corrupt_oracle,
        tracer: Tracer::new(args.trace),
    };
    let result = match args.workload.as_str() {
        "build_full" => workloads::build_full::run(&ctx),
        "serve_exact" => workloads::serve_exact::run(&ctx),
        "fabric_knn" => workloads::fabric_knn::run(&ctx),
        other => Err(Fail::setup(format!("unknown workload {other:?}"))),
    };
    let out = match result {
        Ok(out) => out,
        Err(f) => {
            eprintln!(
                "perfbench: {}: {}",
                if f.wrong { "WRONG ANSWER" } else { "error" },
                f.msg
            );
            if f.wrong {
                println!(
                    "{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}"
                );
            }
            std::process::exit(if f.wrong { 1 } else { 2 });
        }
    };
    if let Err(e) = finish(&args, &ctx, out) {
        eprintln!("perfbench: error: {e}");
        std::process::exit(2);
    }
}

/// Validate, record and print the result; exit 1 on wrong answers.
fn finish(args: &Args, ctx: &Ctx, mut out: Outcome) -> Result<(), String> {
    for (name, _) in END_TO_END {
        let v = out
            .e2e
            .get(name)
            .ok_or_else(|| format!("{} did not measure {name}", args.workload))?;
        if !v.is_finite() || v == 0.0 {
            return Err(format!("{name} = {v}: end-to-end metrics are never 0"));
        }
    }
    let mut not_exercised = Vec::new();
    if ctx.trace {
        for (name, _) in PER_LAYER {
            if out.layers.get(name).is_none() {
                not_exercised.push(*name);
                out.layers.set(name, 0.0, 0);
            }
        }
    }
    for w in &out.wrong {
        eprintln!("perfbench: WRONG ANSWER: {w}");
    }
    let correct = out.wrong.is_empty();
    let (section, printed, names) = if ctx.trace {
        ("traced", &out.layers, PER_LAYER)
    } else {
        ("untraced", &out.e2e, END_TO_END)
    };
    let host = Host::detect(&args.source_rev);
    let header = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"scale\": {}, \"host\": {}, \"inputs\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        json_str(if args.scale == Scale::Full { "full" } else { "tiny" }),
        host.to_json(),
        if out.inputs.is_empty() { "{}" } else { &out.inputs }
    );
    let mut body = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}",
        out.attempted,
        out.failed,
        out.e2e.to_json(END_TO_END, true)
    );
    if !out.layers.0.is_empty() {
        body.push_str(&format!(
            ", \"per_layer\": {}",
            out.layers.to_json(PER_LAYER, true)
        ));
    }
    if ctx.trace {
        let ne: Vec<String> = not_exercised.iter().map(|n| json_str(n)).collect();
        body.push_str(&format!(
            ", \"not_exercised\": [{}], \"spans\": {}",
            ne.join(", "),
            ctx.tracer.len()
        ));
    }
    if args.workload == "build_full" {
        let d: Vec<String> = report::DETERMINISTIC.iter().map(|n| json_str(n)).collect();
        body.push_str(&format!(", \"deterministic_counters\": [{}]", d.join(", ")));
    }
    body.push('}');
    let stem = format!("{}-seed{}", args.workload, args.seed);
    report::write_record(
        &args.out.join(format!("{stem}.json")),
        &header,
        section,
        &body,
    )
    .map_err(|e| format!("write run record: {e}"))?;
    if ctx.trace {
        ctx.tracer
            .write(&args.out.join(format!("{stem}.spans.jsonl")))
            .map_err(|e| format!("write spans: {e}"))?;
        // The traced run's own end-to-end numbers, to set beside an
        // untraced run's: the difference is the tracing overhead.
        println!("traced_end_to_end {}", out.e2e.to_json(END_TO_END, false));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        printed.to_json(names, false)
    );
    if !correct {
        std::process::exit(1);
    }
    Ok(())
}
