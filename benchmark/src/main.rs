//! The repo benchmark. See `benchmark/README.md` for what is measured and why.
//!
//! One invocation runs one workload: set-up (repeated, median reported), timed
//! reps for `--seconds` with the host calibration loop either side of each,
//! one rep under the counting allocator, the end-of-run checks, and — with
//! `--trace 1` — the per-layer probes. Every metric is printed by name with
//! its unit; the last line of standard output is the JSON result.

mod cal;
mod json;
mod probes;
mod sample;
mod stats;
mod trace;
mod workloads;

use cal::{normalise, Cal, CalSample, Shares};
use json::Json;
use stats::{iqr_frac, median};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Checks, Rep, Workload};

#[global_allocator]
static GLOBAL: sample::CountingAlloc = sample::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Set-up generates random data (compute) and lays it out in pages (memory)
/// in about equal parts on every workload.
const SETUP_SHARES: Shares = Shares {
    compute: 0.5,
    io: 0.0,
};

/// End-to-end metrics, printed by `--trace 0`. Names and units match
/// `BENCHMARK.json` (a unit test holds them together).
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("norm_rows_per_s", "1/s"),
    ("norm_stmt_p50_ms", "ms"),
    ("norm_cpu_us_per_row", "us"),
    ("peak_rss_mb", "MiB"),
    ("allocs_per_row", "count"),
    ("alloc_bytes_per_row", "B"),
    ("device_bytes_per_row", "B"),
    ("stored_bytes_per_user_byte", "B/B"),
];

/// Per-layer metrics, printed by `--trace 1`.
const PER_LAYER: [(&str, &str); 38] = [
    ("data.gen_us_per_row", "us"),
    ("storage.decode_us_per_row", "us"),
    ("storage.decode_gb_per_s", "GB/s"),
    ("storage.decode_allocs_per_row", "count"),
    ("storage.wal_append_p50_ms", "ms"),
    ("storage.wal_bytes_per_frame", "B"),
    ("storage.wal_fsyncs_per_stmt", "count"),
    ("storage.append_rows_us_per_row", "us"),
    ("storage.snapshot_us_at_1x", "us"),
    ("storage.snapshot_us_at_4x", "us"),
    ("storage.file_block_read_us_per_row", "us"),
    ("shuffle.epoch_us_per_row", "us"),
    ("shuffle.hd_sample_ms", "ms"),
    ("ml.sgd_us_per_row", "us"),
    ("ml.sgd_gflops", "GFLOP/s"),
    ("ml.sgd_gb_per_s", "GB/s"),
    ("ml.predict_us_per_row", "us"),
    ("core.trainer_us_per_row", "us"),
    ("db.parse_us_per_stmt", "us"),
    ("db.parse_insert_us_per_row", "us"),
    ("db.plan_us_per_stmt", "us"),
    ("db.train_residual_us_per_row", "us"),
    ("db.train_parts_over_whole", "ratio"),
    ("db.double_buffer_wall_ratio", "ratio"),
    ("db.double_buffer_cpu_ratio", "ratio"),
    ("db.fuse_wall_ratio", "ratio"),
    ("db.catalog_append_us_at_1x", "us"),
    ("db.catalog_append_us_at_4x", "us"),
    ("db.insert_p99_ms", "ms"),
    ("db.recovery_ms", "ms"),
    ("db.serving_cold_first_ms", "ms"),
    ("db.serving_warm_p50_ms", "ms"),
    ("telemetry.overhead_frac", "ratio"),
    ("bench.cal_ms_p50", "ms"),
    ("bench.cal_iqr_frac", "ratio"),
    ("bench.wall_rows_per_s", "1/s"),
    ("bench.mem_stream_gb_per_s", "GB/s"),
    ("bench.trace_overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value("--workload")?,
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => a.out = PathBuf::from(value("--out")?),
            "--quick" => a.quick = true,
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if a.seconds.is_nan() || a.seconds < 0.0 {
        return Err("--seconds must be non-negative".into());
    }
    Ok(a)
}

/// One rep with the calibration loops that bracket it.
struct Sample {
    rep: Rep,
    cal_before: CalSample,
    cal_after: CalSample,
    traced: bool,
}

/// Set the workload up (data, table, engine, warm-up rep); wall seconds.
fn set_up(args: &Args, tr: &mut Tracer, ck: &mut Checks) -> (Box<dyn Workload>, f64) {
    let t0 = Instant::now();
    let w = tr.scope("setup", 0, |tr| {
        let mut w = workloads::setup(&args.workload, args.seed, &args.out, tr)
            .expect("workload name was checked");
        w.prepare_rep();
        tr.scope("setup:warmup_rep", 0, |tr| w.rep(tr, ck));
        w
    });
    (w, t0.elapsed().as_secs_f64())
}

/// Reps until `budget` has passed (at least `min_reps`), a calibration loop
/// either side of each. In a traced run every other rep records spans, so
/// traced and untraced reps share the same stretch of host time.
fn measure(
    w: &mut dyn Workload,
    cal: &mut Cal,
    tr: &mut Tracer,
    ck: &mut Checks,
    budget: Duration,
    min_reps: usize,
    trace: bool,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed() < budget {
        let prepared = w.prepare_rep();
        let cal_before = match samples.last() {
            Some(prev) if !prepared => prev.cal_after,
            _ => cal.run(),
        };
        let traced = trace && samples.len() % 2 == 1;
        tr.set_on(traced);
        let rep = tr.scope("rep", 0, |tr| w.rep(tr, ck));
        tr.set_on(trace);
        let cal_after = cal.run();
        println!(
            "rep {} wall_s {} cpu_s {} cal_before {cal_before:?} cal_after {cal_after:?} traced {traced}",
            samples.len(),
            rep.wall_s,
            rep.cpu_s
        );
        samples.push(Sample {
            rep,
            cal_before,
            cal_after,
            traced,
        });
    }
    samples
}

fn metric(name: &str, value: f64, units: &[(&str, &str)]) -> (String, Json) {
    let unit = units
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unregistered metric {name}"))
        .1;
    println!("{name} {value} {unit}");
    (
        name.to_string(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ]),
    )
}

fn run(args: &Args, tr: &mut Tracer) -> (Checks, Vec<(String, Json)>) {
    let mut ck = Checks::default();
    let mut cal = Cal::new(&args.out).expect("set up the calibration loop");
    cal.run(); // first touch of the calibration buffers is not a measurement
    let setups = if args.quick || args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut workload = None;
    let mut cal_before = cal.run();
    for _ in 0..setups {
        // Release the previous set-up first: peak RSS is one set-up's, not two.
        drop(workload.take());
        let (w, s) = set_up(args, tr, &mut ck);
        let cal_after = cal.run();
        println!("setup wall_s {s} cal_before {cal_before:?} cal_after {cal_after:?}");
        setup_s.push(normalise(s, cal_before, cal_after, SETUP_SHARES));
        cal_before = cal_after;
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    let rows = w.rows_per_rep() as f64;

    let (budget, min_reps) = match (args.quick, args.trace) {
        (true, false) => (Duration::ZERO, 1),
        (true, true) => (Duration::ZERO, 2),
        (false, false) => (Duration::from_secs_f64(args.seconds), 3),
        // The probes need the rest of a traced run's time.
        (false, true) => (Duration::from_secs_f64(args.seconds * 0.4), 4),
    };
    let samples = measure(
        w.as_mut(),
        &mut cal,
        tr,
        &mut ck,
        budget,
        min_reps,
        args.trace,
    );

    w.prepare_rep();
    let (_, allocs, alloc_bytes) =
        sample::count_allocs(|| tr.scope("count_rep", 0, |tr| w.rep(tr, &mut ck)));
    let (stored, user) = tr.scope("finish", 0, |_| w.finish(&mut ck));

    let shares = w.shares();
    let norm = |s: &Sample, seconds: f64| normalise(seconds, s.cal_before, s.cal_after, shares);
    let norm_rep_s: Vec<f64> = samples.iter().map(|s| norm(s, s.rep.wall_s)).collect();
    let wall: Vec<f64> = samples.iter().map(|s| s.rep.wall_s).collect();
    println!(
        "workload {} seed {} reps {} rows_per_rep {rows}",
        args.workload,
        args.seed,
        samples.len()
    );

    let mut out = Vec::new();
    if !args.trace {
        let norm_cpu_s: Vec<f64> = samples
            .iter()
            .map(|s| normalise(s.rep.cpu_s, s.cal_before, s.cal_after, shares.without_io()))
            .collect();
        let norm_stmt_s: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.rep.stmt_s.iter().map(move |x| norm(s, *x)))
            .collect();
        let device_bytes: u64 = samples.iter().map(|s| s.rep.device_bytes).sum();
        let e2e = [
            ("setup_s", median(&setup_s)),
            ("norm_rows_per_s", rows / median(&norm_rep_s)),
            ("norm_stmt_p50_ms", median(&norm_stmt_s) * 1e3),
            ("norm_cpu_us_per_row", median(&norm_cpu_s) / rows * 1e6),
            ("peak_rss_mb", sample::peak_rss_mib()),
            ("allocs_per_row", allocs as f64 / rows),
            ("alloc_bytes_per_row", alloc_bytes as f64 / rows),
            (
                "device_bytes_per_row",
                device_bytes as f64 / (rows * samples.len() as f64),
            ),
            ("stored_bytes_per_user_byte", stored as f64 / user as f64),
        ];
        out.extend(e2e.map(|(n, v)| metric(n, v, &END_TO_END)));
        println!(
            "raw wall rows/s {} (not end-to-end: it does not repeat on a shared host)",
            rows / median(&wall)
        );
        return (ck, out);
    }

    let layers = tr.scope("probes", 0, |tr| {
        probes::run(w.as_mut(), args.seed, &args.out, tr)
    });
    out.extend(layers.into_iter().map(|(n, v)| metric(n, v, &PER_LAYER)));
    let cals: Vec<f64> = samples
        .iter()
        .flat_map(|s| [s.cal_before.total_s(), s.cal_after.total_s()])
        .collect();
    let of = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| norm(s, s.rep.wall_s))
            .collect()
    };
    let (traced_s, untraced_s) = (median(&of(true)), median(&of(false)));
    println!("base bench.trace_overhead_frac: traced rep {traced_s} s over untraced rep {untraced_s} s (host-normalised)");
    let bench = [
        ("bench.cal_ms_p50", median(&cals) * 1e3),
        ("bench.cal_iqr_frac", iqr_frac(&cals)),
        ("bench.wall_rows_per_s", rows / median(&wall)),
        ("bench.trace_overhead_frac", traced_s / untraced_s - 1.0),
    ];
    out.extend(bench.map(|(n, v)| metric(n, v, &PER_LAYER)));
    (ck, out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let (ck, metrics) = tr.scope(&format!("workload:{}", args.workload), 0, |tr| {
        run(&args, tr)
    });
    if args.trace {
        std::fs::create_dir_all(&args.out).expect("create out dir");
        let path = args.out.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, tr.to_json().render()).expect("write trace file");
        println!("trace {} spans -> {}", tr.spans().len(), path.display());
    }
    for note in &ck.notes {
        println!("FAILED {note}");
    }
    let correct = ck.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(ck.attempted)),
            ("failed", Json::Int(ck.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the harness must name the same metrics with the
    /// same units, or the driver refuses the run.
    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics too"
        );
        for w in workloads::NAMES {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
    }
}
