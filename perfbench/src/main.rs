//! The repository benchmark: seeded workloads driven through the public
//! APIs of `gps-core`, `gps-engine` and `gps-serve`, with output checks.
//!
//! ```text
//! perfbench --workload <instream-hk|retro-rmat> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick] [--trace-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the layer
//! arms with spans and prints the per-layer metrics. The last line of
//! standard output is one JSON object. See README.md for the definitions.

mod alloc;
mod layers;
mod openloop;
mod passes;
mod setup;
mod spans;
mod stats;

use layers::{LayerSamples, STAGES};
use passes::{Samples, Tally};
use setup::{Input, Spec};
use spans::{Layer, Recorder};
use stats::{median, over_ops, percentile, summarize, tail_percentile, Best, Summary, QUIET};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting::new();

/// Set-ups per run; `setup_s` is their median. The first comes before the
/// first timed pass and the rest are spread over the run, between rounds,
/// so the median samples the machine at several moments: one set-up lasts
/// under a second, and a neighbour's burst could otherwise cover them all.
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    trace_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        quick: false,
        trace_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-dir" => a.trace_dir = Some(value()?),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One metric of the result line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        note: String::new(),
    }
}

fn summary_metrics(out: &mut Vec<Metric>, p50: &str, tail: &str, unit: &'static str, s: Summary) {
    out.push(Metric {
        note: format!(
            "p{QUIET} of the medians of {}-sample windows; n={} (median {})",
            stats::P50_WINDOW.min(s.samples),
            s.samples,
            s.p50_typical
        ),
        ..metric(p50, unit, s.p50)
    });
    out.push(Metric {
        note: format!(
            "median of the p{} of {} windows of {}; n={}",
            s.tail_q,
            s.windows,
            stats::WINDOW.min(s.samples),
            s.samples
        ),
        ..metric(tail, unit, s.tail)
    });
}

/// End-to-end latency metrics: median and tail over a pass's operations of
/// each operation's best time in the run.
fn ops_metrics(
    out: &mut Vec<Metric>,
    p50: &str,
    tail: &str,
    unit: &'static str,
    best: &Best,
    t: &mut Tally,
) {
    let Some(o) = over_ops(best) else {
        t.fail(format!("no {p50} samples"));
        out.push(metric(p50, unit, 0.0));
        out.push(metric(tail, unit, 0.0));
        return;
    };
    out.push(Metric {
        note: format!("median over {} operations of each one's best pass", o.ops),
        ..metric(p50, unit, o.p50)
    });
    out.push(Metric {
        note: format!(
            "p{} over {} operations of each one's best pass",
            o.tail_q, o.ops
        ),
        ..metric(tail, unit, o.tail)
    });
}

fn summarize_or_fail(name: &str, v: &[f64], t: &mut Tally) -> Summary {
    if v.is_empty() {
        t.fail(format!("no {name} samples"));
        return summarize(&[0.0]);
    }
    summarize(v)
}

fn median_or_fail(name: &str, v: &[f64], t: &mut Tally) -> f64 {
    if v.is_empty() {
        t.fail(format!("no {name} samples"));
        return 0.0;
    }
    median(v)
}

/// Runs `f` and counts a panic as one failed operation.
fn guarded(t: &mut Tally, what: &str, f: impl FnOnce(&mut Tally)) {
    if catch_unwind(AssertUnwindSafe(|| f(t))).is_err() {
        t.attempted += 1;
        t.fail(format!("{what} panicked"));
    }
}

/// Set-up timings: stream generation, exact truth, construction and one
/// untimed warm-up pass (ingest without the queries).
#[derive(Default)]
struct SetUps {
    total_s: Vec<f64>,
    gen_s: Vec<f64>,
    exact_s: Vec<f64>,
}

impl SetUps {
    /// Sets up once and returns the inputs.
    fn run(&mut self, spec: &Spec, seed: u64, t: &mut Tally) -> Input {
        let t0 = Instant::now();
        let inp = setup::build(spec, seed);
        let mut off = Recorder::new(false);
        passes::closed(
            spec,
            &inp,
            seed,
            false,
            &mut off,
            &mut Samples::default(),
            t,
        );
        self.total_s.push(t0.elapsed().as_secs_f64());
        self.gen_s.push(inp.gen_s);
        self.exact_s.push(inp.exact_s);
        inp
    }

    /// Runs the set-ups due once `done` (0 to 1) of the run has passed:
    /// the k-th at k / [`SETUPS`], and at 1 every one still missing.
    fn catch_up(&mut self, done: f64, spec: &Spec, seed: u64, t: &mut Tally) {
        while self.total_s.len() < SETUPS && self.total_s.len() as f64 <= done * SETUPS as f64 {
            self.run(spec, seed, t);
        }
    }
}

/// Share of the time budget spent since `start`.
fn done(start: Instant, budget: Duration) -> f64 {
    start.elapsed().as_secs_f64() / budget.as_secs_f64()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload, args.quick) else {
        eprintln!(
            "perfbench: unknown workload '{}' (one of {:?})",
            args.workload,
            setup::WORKLOADS
        );
        std::process::exit(2);
    };
    let mut t = Tally::default();
    let mut setups = SetUps::default();
    let mut inp = setups.run(&spec, args.seed, &mut t);
    if args.trace {
        inp.reference = Some(setup::reference(&spec, &inp, args.seed));
    }
    println!(
        "workload {} seed {}: {} arrivals, m = {}, open-loop rate {} arrivals/s, exact triangles {} wedges {}",
        spec.name,
        args.seed,
        inp.edges.len(),
        spec.capacity,
        spec.rate,
        inp.truth.triangles,
        inp.truth.wedges
    );
    let budget = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        traced(&spec, &inp, &args, budget, &mut setups, &mut t)
    } else {
        untraced(&spec, &inp, args.seed, budget, &mut setups, &mut t)
    };
    report(&metrics, &t);
}

/// The end-to-end run: closed-loop pass, queries and open-loop pass,
/// repeated until the time budget is spent.
fn untraced(
    spec: &Spec,
    inp: &Input,
    seed: u64,
    budget: Duration,
    setups: &mut SetUps,
    t: &mut Tally,
) -> Vec<Metric> {
    let mut s = Samples::default();
    let mut off = Recorder::new(false);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < budget {
        guarded(t, "pass", |t| {
            passes::closed(spec, inp, seed, true, &mut off, &mut s, t);
            passes::open(spec, inp, seed, &mut off, &mut s, t);
        });
        rounds += 1;
        setups.catch_up(done(start, budget), spec, seed, t);
    }
    setups.catch_up(1.0, spec, seed, t);
    println!(
        "{rounds} rounds; 95% intervals covering the exact count: triangles {}/{}, wedges {}/{} (reported, not gated)",
        s.ci_triangles.0, s.ci_triangles.1, s.ci_wedges.0, s.ci_wedges.1
    );
    if !s.late_ns.is_empty() {
        let late: Vec<f64> = s.late_ns.iter().map(|x| x / 1e6).collect();
        let q = tail_percentile(late.len()).unwrap_or(50.0);
        println!(
            "load generator lateness: median {:.4} ms, p{q} {:.4} ms, max {:.4} ms over {} offers",
            median(&late),
            percentile(&late, q),
            percentile(&late, 100.0),
            late.len()
        );
    }
    let eps = median_or_fail("ingest", &s.edges_per_s, t);
    let fastest = s.edges_per_s.iter().copied().fold(eps, f64::max);
    let best = s.ingest_ns.times();
    let arrivals = inp.edges.len() as f64;
    let mut m = vec![Metric {
        note: format!(
            "arrivals over the sum of {} chunks' best passes (fastest pass {fastest:.0}, median pass {eps:.0})",
            best.len()
        ),
        ..metric("edges_per_s", "1/s", arrivals * 1e9 / best.iter().sum::<f64>().max(1.0))
    }];
    for (p50, tail, unit, v) in [
        ("query_p50_ms", "query_tail_ms", "ms", &s.query_ms),
        ("fresh_p50_ms", "fresh_tail_ms", "ms", &s.fresh_ms),
        ("read_p50_ns", "read_tail_ns", "ns", &s.read_ns),
    ] {
        ops_metrics(&mut m, p50, tail, unit, v, t);
    }
    m.push(metric(
        "held_mb",
        "MB",
        median_or_fail("held", &s.held_bytes, t) / 1e6,
    ));
    m.push(Metric {
        note: format!("median of {SETUPS} set-ups spread over the run"),
        ..metric("setup_s", "s", median(&setups.total_s))
    });
    m
}

/// Percentile `q` of a log2-bucketed histogram: the upper bound of the
/// bucket holding that rank.
fn histogram_percentile(h: &gps_telemetry::HistogramSample, q: f64) -> f64 {
    let rank = ((q / 100.0) * h.count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (b, &c) in h.buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return gps_telemetry::bucket_upper_bound(b) as f64;
        }
    }
    0.0
}

/// The traced run: the workload's own passes with and without spans (the
/// difference is the tracing overhead), then each stacked layer on its own.
fn traced(
    spec: &Spec,
    inp: &Input,
    args: &Args,
    budget: Duration,
    setups: &mut SetUps,
    t: &mut Tally,
) -> Vec<Metric> {
    let seed = args.seed;
    let mut untraced = Samples::default();
    let mut tracedp = Samples::default();
    let mut l = LayerSamples::default();
    let mut off = Recorder::new(false);
    let mut primary = Recorder::new(true);
    let mut arms = Recorder::new(true);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < budget {
        guarded(t, "traced round", |t| {
            passes::closed(spec, inp, seed, true, &mut off, &mut untraced, t);
            primary.next_pass();
            let root = primary.begin("pass", Layer::Driver);
            passes::closed(spec, inp, seed, true, &mut primary, &mut tracedp, t);
            passes::open(spec, inp, seed, &mut primary, &mut tracedp, t);
            primary.end(root);
            for arm in [
                layers::alg1,
                layers::alg3,
                layers::serve_closed,
                layers::serve_open,
            ] {
                arms.next_pass();
                let root = arms.begin("arm", Layer::Driver);
                arm(spec, inp, seed, &mut arms, &mut l, t);
                arms.end(root);
            }
        });
        rounds += 1;
        setups.catch_up(done(start, budget), spec, seed, t);
    }
    setups.catch_up(1.0, spec, seed, t);
    if let Some(dir) = &args.trace_dir {
        write_spans(dir, spec.name, seed, "primary", &primary);
        write_spans(dir, spec.name, seed, "arms", &arms);
    }

    let alg1 = median_or_fail("alg1", &l.alg1_ns_per_edge, t);
    let alg3 = median_or_fail("alg3", &l.alg3_ns_per_edge, t);
    let serve = median_or_fail("serve", &l.serve_ns_per_edge, t);
    let eps_off = median_or_fail("untraced ingest", &untraced.edges_per_s, t);
    let eps_on = median_or_fail("traced ingest", &tracedp.edges_per_s, t);
    let shares = self_shares(&primary);

    println!("{rounds} traced rounds");
    println!(
        "layer ledger, {} (ns per arrival, median of {} passes per arm):",
        spec.name,
        l.alg1_ns_per_edge.len()
    );
    println!("  Alg 1         gps_core::reservoir      {alg1:10.1}");
    println!(
        "  Alg 3         gps_core::in_stream      {alg3:10.1}  +{:.1} over Alg 1 ({:.2}x)",
        alg3 - alg1,
        alg3 / alg1
    );
    println!(
        "  engine+board  gps_engine + gps_serve   {serve:10.1}  +{:.1} over Alg 3 (S = 1, push_batch + finish)",
        serve - alg3
    );
    println!(
        "  self time per layer (ms, share) in the workload's traced passes | in the layer arms:"
    );
    for ((layer, ns, share), (_, arm_ns, arm_share)) in shares.iter().zip(self_shares(&arms)) {
        println!(
            "    {:<28} {:10.1} {:6.2}% | {:10.1} {:6.2}%",
            layer.module(),
            *ns as f64 / 1e6,
            share * 100.0,
            arm_ns as f64 / 1e6,
            arm_share * 100.0
        );
    }
    println!(
        "  tracing overhead: untraced {eps_off:.0} arrivals/s, traced {eps_on:.0} arrivals/s ({:+.2}%)",
        (eps_on - eps_off) / eps_off * 100.0
    );

    let st = l.stats;
    let mut m = vec![
        metric("sampler.ns_per_edge", "ns", alg1),
        metric("sampler.inserts", "count", st.inserts as f64),
        metric("sampler.evictions", "count", st.evictions as f64),
        metric("sampler.rejections", "count", st.rejections as f64),
        metric("sampler.duplicates", "count", st.duplicates as f64),
        metric("sampler.slab_spills", "count", st.slab_spills as f64),
        metric(
            "sampler.insert_ratio",
            "ratio",
            st.inserts as f64 / st.arrivals.max(1) as f64,
        ),
        metric("in_stream.ns_per_edge", "ns", alg3),
        metric("in_stream.added_ns_per_edge", "ns", alg3 - alg1),
        metric("in_stream.x_sampler", "ratio", alg3 / alg1),
    ];
    let q = summarize_or_fail("alg2", &l.query_ms, t);
    summary_metrics(
        &mut m,
        "post_stream.query_p50_ms",
        "post_stream.query_tail_ms",
        "ms",
        q,
    );
    m.push(metric(
        "post_stream.ns_per_sampled_edge",
        "ns",
        median_or_fail("alg2", &l.query_ns_per_sampled_edge, t),
    ));
    m.push(metric(
        "graph.tri_probe_ns",
        "ns",
        median_or_fail("probe", &l.tri_probe_ns, t),
    ));
    m.push(metric(
        "graph.wedge_probe_ns",
        "ns",
        median_or_fail("probe", &l.wedge_probe_ns, t),
    ));
    m.push(metric(
        "graph.bytes_per_edge",
        "B",
        median_or_fail("held", &l.bytes_per_edge, t),
    ));
    m.push(metric(
        "persist.save_ms",
        "ms",
        median_or_fail("save", &l.save_ms, t),
    ));
    m.push(metric(
        "persist.bytes_per_edge",
        "B",
        median_or_fail("save", &l.save_bytes_per_edge, t),
    ));
    m.push(metric("engine.ns_per_edge", "ns", serve));
    m.push(metric("engine.added_ns_per_edge", "ns", serve - alg3));
    let p = summarize_or_fail("push", &l.push_ns, t);
    summary_metrics(&mut m, "engine.push_p50_ns", "engine.push_tail_ns", "ns", p);
    m.push(metric(
        "engine.push_blocked_frac",
        "ratio",
        median_or_fail("push", &l.push_blocked_frac, t),
    ));
    m.push(metric(
        "engine.finish_ms",
        "ms",
        median_or_fail("finish", &l.finish_ms, t),
    ));
    m.push(metric("engine.batches", "count", l.batches as f64));
    m.push(metric(
        "engine.queue_highwater",
        "count",
        l.queue_highwater as f64,
    ));
    m.push(metric("engine.checkpoints", "count", l.checkpoints as f64));
    m.push(metric(
        "engine.checkpoint_bytes",
        "B",
        l.checkpoint_bytes as f64,
    ));
    let f = summarize_or_fail("fresh", &l.fresh_ms, t);
    summary_metrics(&mut m, "serve.fresh_p50_ms", "serve.fresh_tail_ms", "ms", f);
    m.push(metric(
        "serve.read_ns",
        "ns",
        median_or_fail("read", &l.serve_read_ns, t),
    ));
    m.push(metric("serve.epochs", "count", l.epochs as f64));
    m.push(metric("serve.edges_per_epoch", "count", l.edges_per_epoch));
    for st in STAGES {
        let v = &l.stages[st];
        let p50 = format!("serve.{st}_p50_ns");
        let tail = format!("serve.{st}_tail_ns");
        if v.is_empty() && st == "first_observation" {
            // The board stores an epoch's trace after publishing it, so a
            // fast reader can leave no stage to read (README, "Known
            // readings"). On a short run that may be every epoch; it is the
            // program's reading, not a failed operation of the benchmark.
            let note = "no epoch had its first observation stamped".to_string();
            for name in [p50, tail] {
                m.push(Metric {
                    note: note.clone(),
                    ..metric(name, "ns", 0.0)
                });
            }
            continue;
        }
        let s = summarize_or_fail(st, v, t);
        summary_metrics(&mut m, &p50, &tail, "ns", s);
    }
    m.push(metric("serve.traces_lost", "count", l.traces_lost as f64));
    match &l.staleness {
        Some(h) if h.count > 0 => {
            let q = tail_percentile(h.count as usize).unwrap_or(50.0);
            m.push(Metric {
                note: format!("log2 bucket bound; n={}", h.count),
                ..metric(
                    "serve.publish_staleness_p50_ns",
                    "ns",
                    histogram_percentile(h, 50.0),
                )
            });
            m.push(Metric {
                note: format!("p{q} log2 bucket bound; n={}", h.count),
                ..metric(
                    "serve.publish_staleness_tail_ns",
                    "ns",
                    histogram_percentile(h, q),
                )
            });
        }
        _ => {
            t.fail("no publish-staleness histogram".into());
            m.push(metric("serve.publish_staleness_p50_ns", "ns", 0.0));
            m.push(metric("serve.publish_staleness_tail_ns", "ns", 0.0));
        }
    }
    m.push(metric("stream.gen_s", "s", median(&setups.gen_s)));
    m.push(metric("truth.exact_s", "s", median(&setups.exact_s)));
    m.push(metric("trace.untraced_edges_per_s", "1/s", eps_off));
    m.push(metric("trace.traced_edges_per_s", "1/s", eps_on));
    m.push(metric(
        "trace.overhead_frac",
        "ratio",
        (eps_off - eps_on) / eps_off,
    ));
    let mut late: Vec<f64> = tracedp
        .late_ns
        .iter()
        .chain(&l.late_ns)
        .map(|x| x / 1e6)
        .collect();
    if late.is_empty() {
        late.push(0.0);
    }
    let ls = summarize(&late);
    summary_metrics(
        &mut m,
        "loadgen.late_p50_ms",
        "loadgen.late_tail_ms",
        "ms",
        ls,
    );
    for (layer, _, share) in shares {
        m.push(metric(
            format!("share.{}", share_name(layer)),
            "ratio",
            share,
        ));
    }
    m
}

fn share_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Driver => "driver",
        Layer::Idle => "idle",
        Layer::Reservoir => "reservoir",
        Layer::InStream => "in_stream",
        Layer::PostStream => "post_stream",
        Layer::Compact => "compact",
        Layer::Persist => "persist",
        Layer::Engine => "engine",
        Layer::Serve => "serve",
    }
}

/// Self time per layer over the recorder's spans, in ns and as a share.
fn self_shares(rec: &Recorder) -> Vec<(Layer, u64, f64)> {
    let st = rec.self_time();
    let total: u64 = st.iter().map(|(_, ns)| ns).sum();
    st.into_iter()
        .map(|(layer, ns)| (layer, ns, ns as f64 / total.max(1) as f64))
        .collect()
}

fn write_spans(dir: &str, workload: &str, seed: u64, what: &str, rec: &Recorder) {
    let path = std::path::Path::new(dir).join(format!("{workload}-seed{seed}-{what}.tsv"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| rec.write_tsv(std::io::BufWriter::new(f)));
    match written {
        Ok(()) => println!("spans: {} ({} spans)", path.display(), rec.spans().len()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn report(metrics: &[Metric], t: &Tally) {
    for m in metrics {
        println!("  {:<36} {:>18} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for n in &t.notes {
        println!("check failed: {n}");
    }
    println!(
        "failed_frac {} ({} failed of {} attempted)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    let mut json = String::from("{\"metrics\": {");
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let failed = t.failed + metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
    json.push_str(&format!(
        "}}, \"correct\": {}, \"attempted\": {}, \"failed\": {failed}}}",
        failed == 0,
        t.attempted.max(1)
    ));
    println!("{json}");
}
