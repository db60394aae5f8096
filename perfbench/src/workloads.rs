//! The three closed-loop workloads. The main thread issues every call and
//! waits for it; the only other threads are the program's own `workpool`
//! workers behind `ingest_parallel`.

use crate::checks::{
    rect_rows, tolerance, Checker, Counts1D, Counts2D, Range, Rect, WindowCounts, ADDITIVITY_TOL,
    DENSITY_BOUND_1D, DENSITY_BOUND_2D, EDGES_1D, EDGES_2D,
};
use crate::inputs::{case2_expanding_map, case3_noncausal_ma, noisy_diagonal_pairs, Rng};
use crate::stats::ms;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;
use wavedens_core::{
    CoefficientSketch, CompactionPolicy, TensorSketch, ThresholdRule, WindowPolicy, WindowedSketch,
    DEFAULT_CDF_POINTS,
};
use wavedens_engine::{RefreshedJoint, RefreshedSynopsis, SynopsisCatalog, SynopsisConfig};

/// Shards per synopsis: the host's two cores.
pub const SHARDS: usize = 2;
/// Thresholding rule of every synopsis (the engine default, STCV).
pub const RULE: ThresholdRule = ThresholdRule::Soft;
/// Per-axis CDF grid of a joint synopsis (the engine's cap).
pub const JOINT_CDF_POINTS: usize = 257;
/// Queries per timed block.
pub const QUERY_BLOCK: usize = 4096;

/// Which workload, with its fixed shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkLoad,
    FreshServe,
    JointPairs,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "bulk_load" => Some(Self::BulkLoad),
            "fresh_serve" => Some(Self::FreshServe),
            "joint_pairs" => Some(Self::JointPairs),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::BulkLoad => "bulk_load",
            Self::FreshServe => "fresh_serve",
            Self::JointPairs => "joint_pairs",
        }
    }
}

// bulk_load: Case 2, one landmark attribute sized for 2^20 rows.
pub const BULK_ROWS: usize = 1 << 20;
pub const BULK_BATCH: usize = 1 << 15;
pub const BULK_CHECKPOINTS: usize = 4;
pub const BULK_SWEEP_BLOCKS: usize = 4;
pub const BULK_SETUPS: usize = 3;

// fresh_serve: Case 3, a landmark and a sliding-window attribute, 2^16.
pub const FRESH_EXPECTED: usize = 1 << 16;
pub const FRESH_SLICES: usize = 8;
pub const FRESH_BATCH: usize = 512;
/// Batches per window slice (`m`): an advance every 16 batches.
pub const FRESH_ADVANCE_EVERY: usize = 16;
/// Batches between ships (`k`).
pub const FRESH_SHIP_EVERY: usize = 8;
pub const FRESH_SLICE_ROWS: usize = FRESH_BATCH * FRESH_ADVANCE_EVERY;
/// Base load: the window's completed slices (the landmark gets the same rows).
pub const FRESH_BASE_SLICES: usize = FRESH_SLICES - 1;
pub const FRESH_BATCHES: usize = 32;

// joint_pairs: `y = x + noise mod 1` over a Case 3 `x`, one pair at 2^17.
pub const JOINT_EXPECTED: usize = 1 << 17;
pub const JOINT_BASE: usize = 1 << 16;
pub const JOINT_BATCH: usize = 4096;
pub const JOINT_BATCHES: usize = 16;
pub const JOINT_SHIP_EVERY: usize = 4;
pub const JOINT_NOISE: f64 = 0.05;

/// The generated inputs of one run.
pub struct Inputs {
    pub rows: Vec<f64>,
    pub pairs: Vec<(f64, f64)>,
    pub ranges: Vec<Range>,
    pub rects: Vec<Rect>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (rows, pairs) = match workload {
            Workload::BulkLoad => (case2_expanding_map(BULK_ROWS, &mut rng), Vec::new()),
            Workload::FreshServe => {
                let n = FRESH_BASE_SLICES * FRESH_SLICE_ROWS + FRESH_BATCHES * FRESH_BATCH;
                (case3_noncausal_ma(n, &mut rng), Vec::new())
            }
            Workload::JointPairs => {
                let n = JOINT_BASE + JOINT_BATCHES * JOINT_BATCH;
                (Vec::new(), noisy_diagonal_pairs(n, JOINT_NOISE, &mut rng))
            }
        };
        let ranges = (0..QUERY_BLOCK)
            .map(|_| {
                let a = rng.below(EDGES_1D + 1);
                let mut b = rng.below(EDGES_1D);
                if b >= a {
                    b += 1;
                }
                Range {
                    lo: a.min(b),
                    hi: a.max(b),
                }
            })
            .collect();
        let side = |rng: &mut Rng| {
            let a = rng.below(EDGES_2D + 1);
            let mut b = rng.below(EDGES_2D);
            if b >= a {
                b += 1;
            }
            (a.min(b), a.max(b))
        };
        let rects = (0..QUERY_BLOCK)
            .map(|_| {
                let (x0, x1) = side(&mut rng);
                let (y0, y1) = side(&mut rng);
                Rect { x0, x1, y0, y1 }
            })
            .collect();
        Self {
            rows,
            pairs,
            ranges,
            rects,
        }
    }

    /// Bytes of generated input handed to the program (rows and queries).
    pub fn bytes(&self) -> usize {
        self.rows.len() * 8 + self.pairs.len() * 16 + self.ranges.len() * 16 + self.rects.len() * 32
    }

    /// FNV-1a digest of the generated values, so two runs can show they
    /// received the same inputs.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        self.rows.iter().for_each(|x| eat(x.to_bits()));
        for &(x, y) in &self.pairs {
            eat(x.to_bits());
            eat(y.to_bits());
        }
        for r in &self.ranges {
            eat(r.lo as u64);
            eat(r.hi as u64);
        }
        for r in &self.rects {
            [r.x0, r.x1, r.y0, r.y1]
                .into_iter()
                .for_each(|i| eat(i as u64));
        }
        hash
    }
}

/// Raw samples of one run; the end-to-end metrics are their medians.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Rows per second of each ingest step (the rows handed to ingest
    /// calls over the time inside them).
    pub ingest_rows_per_s: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub freshness_ms: Vec<f64>,
    pub replica_freshness_ms: Vec<f64>,
    pub query_ns: Vec<f64>,
    pub frame_bytes: usize,
    pub rounds: usize,
    /// Contiguous spans of the replica path at ship steps, one list per
    /// entry of [`REPLICA_STAGES`], in ms.
    pub replica_stages: [Vec<f64>; REPLICA_STAGES.len()],
}

/// The spans `replica_freshness_ms` is made of, in order.
pub const REPLICA_STAGES: [&str; 7] = [
    "ingest",
    "refresh",
    "first query",
    "ship",
    "from_bytes",
    "replica build",
    "replica query",
];

impl Samples {
    fn replica_spans(&mut self, spans: [f64; REPLICA_STAGES.len()]) {
        for (values, span) in self.replica_stages.iter_mut().zip(spans) {
            values.push(span);
        }
    }
}

/// Everything a run produces.
pub struct Outcome {
    pub samples: Samples,
    pub check: Checker,
}

/// Runs whole rounds of `workload` until `seconds` have passed (at least
/// one round).
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let mut out = Outcome {
        samples: Samples::default(),
        check: Checker::default(),
    };
    let start = Instant::now();
    while out.samples.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        let tracer = tracer.as_deref_mut();
        let result = match workload {
            Workload::BulkLoad => bulk_load_round(inputs, &mut out, tracer),
            Workload::FreshServe => fresh_serve_round(inputs, &mut out, tracer),
            Workload::JointPairs => joint_pairs_round(inputs, &mut out, tracer),
        };
        if let Err(message) = result {
            out.check.error(message);
        }
        out.samples.rounds += 1;
    }
    out
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn since(t: Instant) -> f64 {
    ms(t.elapsed())
}

/// Times one block of cached catalog queries and returns ns per query.
fn query_block_1d(
    catalog: &SynopsisCatalog,
    name: &str,
    ranges: &[Range],
    answers: &mut Vec<f64>,
) -> Result<f64, String> {
    answers.clear();
    let t = Instant::now();
    for r in ranges {
        let (lo, hi) = r.bounds();
        let answer = catalog
            .selectivity_cached(black_box(name), black_box(lo), black_box(hi))
            .map_err(err("selectivity_cached"))?
            .ok_or("selectivity_cached: no snapshot after refresh")?;
        answers.push(black_box(answer));
    }
    Ok(t.elapsed().as_nanos() as f64 / ranges.len() as f64)
}

/// Checks one block of 1-D answers against exact shares and additivity.
fn check_block_1d(
    check: &mut Checker,
    what: &str,
    ranges: &[Range],
    answers: &[f64],
    counts: &Counts1D,
    cdf_points: usize,
) {
    let prefix = counts.prefix();
    let tol = tolerance(counts.rows, cdf_points, DENSITY_BOUND_1D);
    for (r, &answer) in ranges.iter().zip(answers) {
        check.answer(answer, prefix[r.hi] - prefix[r.lo], counts.rows, tol, what);
    }
}

/// Exact additivity over abutting ranges: the buckets of the 1-D grid
/// partition `[0, 1]`, so their answers must sum to the whole range's.
fn check_additivity_1d(
    check: &mut Checker,
    what: &str,
    answer: impl Fn(f64, f64) -> Result<f64, String>,
) -> Result<(), String> {
    let whole = answer(0.0, 1.0)?;
    let mut sum = 0.0;
    for i in 0..EDGES_1D {
        let lo = crate::checks::edge(i, EDGES_1D);
        let hi = crate::checks::edge(i + 1, EDGES_1D);
        let part = answer(lo, hi)?;
        check.op((0.0..=1.0).contains(&part), || {
            format!("{what}: bucket answer {part}")
        });
        sum += part;
    }
    check.op((sum - whole).abs() <= ADDITIVITY_TOL, || {
        format!("{what}: buckets sum to {sum}, whole range answers {whole}")
    });
    Ok(())
}

fn check_bitwise(check: &mut Checker, what: &str, primary: &[f64], replica: &[f64]) {
    for (&p, &r) in primary.iter().zip(replica) {
        check.op(p.to_bits() == r.to_bits(), || {
            format!("{what}: replica answered {r}, primary {p}")
        });
    }
}

/// The configuration of every synopsis: `expected` rows, [`SHARDS`]
/// shards, [`RULE`].
pub fn config(expected: usize) -> SynopsisConfig {
    SynopsisConfig::default()
        .with_expected_rows(expected)
        .with_shards(SHARDS)
        .with_rule(RULE)
}

fn bulk_load_round(
    inputs: &Inputs,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    const NAME: &str = "bulk.x";
    let s = &mut out.samples;
    let check = &mut out.check;
    // Set-up is registration only here, a few tens of ms: repeat it so
    // the run's median rests on several samples.
    let mut catalog = SynopsisCatalog::new();
    for _ in 0..BULK_SETUPS {
        drop(catalog);
        let t = Instant::now();
        catalog = SynopsisCatalog::new();
        catalog
            .register(NAME, config(BULK_ROWS))
            .map_err(err("register"))?;
        s.setup_s.push(t.elapsed().as_secs_f64());
    }
    if let Some(tr) = tracer.as_deref_mut() {
        tr.begin_round();
    }

    let batches: Vec<&[f64]> = inputs.rows.chunks(BULK_BATCH).collect();
    let per_checkpoint = batches.len() / BULK_CHECKPOINTS;
    let mut counts = Counts1D::new();
    let mut answers = Vec::with_capacity(QUERY_BLOCK);
    let mut replica_answers = Vec::with_capacity(QUERY_BLOCK);
    for (b, batch) in batches.iter().enumerate() {
        let t0 = Instant::now();
        catalog
            .ingest_parallel(NAME, batch)
            .map_err(err("ingest_parallel"))?;
        let ingest = since(t0);
        s.ingest_rows_per_s
            .push(batch.len() as f64 / (ingest / 1e3));
        counts.add(batch);
        check.op(true, String::new);
        if (b + 1) % per_checkpoint != 0 {
            if let Some(tr) = tracer.as_deref_mut() {
                tr.on_step(batch, &[], false, false);
            }
            continue;
        }
        // Checkpoint: refresh, first cached answer, ship, replica answer.
        let t1 = Instant::now();
        catalog.refresh(NAME).map_err(err("refresh"))?;
        let refresh = since(t1);
        s.refresh_ms.push(refresh);
        let (lo, hi) = inputs.ranges[0].bounds();
        let t2 = Instant::now();
        let first = catalog
            .selectivity_cached(NAME, lo, hi)
            .map_err(err("selectivity_cached"))?
            .ok_or("no snapshot after refresh")?;
        let first_query = since(t2);
        s.freshness_ms.push(since(t0));
        let t3 = Instant::now();
        let frame = catalog
            .ship(NAME, CompactionPolicy::InactiveTail)
            .map_err(err("ship"))?;
        let ship = since(t3);
        let t4 = Instant::now();
        let restored = CoefficientSketch::from_bytes(&frame).map_err(err("from_bytes"))?;
        let decode = since(t4);
        let t5 = Instant::now();
        let replica = RefreshedSynopsis::build(&restored, RULE, DEFAULT_CDF_POINTS)
            .map_err(err("replica build"))?;
        let build = since(t5);
        let t6 = Instant::now();
        let replica_first = black_box(replica.selectivity(lo, hi));
        let replica_query = since(t6);
        s.replica_freshness_ms.push(since(t0));
        s.frame_bytes = frame.len();
        s.replica_spans([
            ingest,
            refresh,
            first_query,
            ship,
            decode,
            build,
            replica_query,
        ]);
        check.op(restored.count() as u64 == counts.rows, || {
            format!(
                "restored frame holds {} rows, {} ingested",
                restored.count(),
                counts.rows
            )
        });
        check.op(first.to_bits() == replica_first.to_bits(), || {
            format!("replica first answer {replica_first} vs primary {first}")
        });
        if let Some(tr) = tracer.as_deref_mut() {
            tr.on_step(batch, &[], true, true);
        }
        // Query sweep on primary and replica.
        for _ in 0..BULK_SWEEP_BLOCKS {
            s.query_ns.push(query_block_1d(
                &catalog,
                NAME,
                &inputs.ranges,
                &mut answers,
            )?);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.on_query_block(&catalog, NAME, &inputs.ranges);
            }
        }
        check_block_1d(
            check,
            "primary",
            &inputs.ranges,
            &answers,
            &counts,
            DEFAULT_CDF_POINTS,
        );
        replica_answers.clear();
        replica_answers.extend(inputs.ranges.iter().map(|r| {
            let (lo, hi) = r.bounds();
            replica.selectivity(lo, hi)
        }));
        check_bitwise(check, "landmark replica", &answers, &replica_answers);
        check_additivity_1d(check, "primary", |lo, hi| {
            catalog
                .selectivity_cached(NAME, lo, hi)
                .map_err(err("selectivity_cached"))?
                .ok_or_else(|| "no snapshot".to_string())
        })?;
    }
    Ok(())
}

/// The replica side of the sliding window: completed slices in a ring
/// mirroring the primary's, plus the latest shipped copy of the slice
/// still filling.
struct ReplicaWindow {
    ring: WindowedSketch,
    pending: Option<CoefficientSketch>,
    policy: WindowPolicy,
}

impl ReplicaWindow {
    fn new(policy: WindowPolicy) -> Result<Self, String> {
        let template = CoefficientSketch::sized_for(FRESH_EXPECTED).map_err(err("sized_for"))?;
        Ok(Self {
            ring: WindowedSketch::from_policy(&template, policy).map_err(err("window ring"))?,
            pending: None,
            policy,
        })
    }

    /// Restores a shipped current slice; it replaces the previous copy.
    fn receive(&mut self, frame: &[u8]) -> Result<u64, String> {
        let (slice, meta) =
            CoefficientSketch::from_bytes_with_window(frame).map_err(err("slice from_bytes"))?;
        let meta = meta.ok_or("slice frame without window metadata")?;
        if meta.advances != self.ring.advances() {
            return Err(format!(
                "slice from advance {} reached a replica at advance {}",
                meta.advances,
                self.ring.advances()
            ));
        }
        let rows = slice.count() as u64;
        self.pending = Some(slice);
        Ok(rows)
    }

    /// Mirrors the primary's advance: the shipped slice is complete.
    fn advance(&mut self) -> Result<(), String> {
        if let Some(slice) = self.pending.take() {
            self.ring
                .merge_into_current(&slice)
                .map_err(err("replica merge"))?;
        }
        self.ring.advance();
        Ok(())
    }

    fn build(&self) -> Result<(RefreshedSynopsis, u64), String> {
        let mut merged = self
            .ring
            .merged_window(self.policy)
            .map_err(err("replica window"))?;
        if let Some(slice) = &self.pending {
            merged.merge(slice).map_err(err("replica merge"))?;
        }
        let rows = merged.count() as u64;
        let built = RefreshedSynopsis::build(&merged, RULE, DEFAULT_CDF_POINTS)
            .map_err(err("replica build"))?;
        Ok((built, rows))
    }
}

fn fresh_serve_round(
    inputs: &Inputs,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    const LANDMARK: &str = "fresh.landmark";
    const WINDOW: &str = "fresh.window";
    let policy = WindowPolicy::SlidingSlices(FRESH_SLICES);
    let s = &mut out.samples;
    let check = &mut out.check;
    let base_rows = FRESH_BASE_SLICES * FRESH_SLICE_ROWS;
    let (base, stream) = inputs.rows.split_at(base_rows);

    // Set-up: registration, base load (the window's completed slices,
    // shipped to the replica as they close) and the first refresh.
    let t = Instant::now();
    let catalog = SynopsisCatalog::new();
    catalog
        .register(LANDMARK, config(FRESH_EXPECTED))
        .map_err(err("register"))?;
    catalog
        .register(WINDOW, config(FRESH_EXPECTED).with_window(policy))
        .map_err(err("register"))?;
    let mut replica_window = ReplicaWindow::new(policy)?;
    catalog
        .ingest_parallel(LANDMARK, base)
        .map_err(err("ingest_parallel"))?;
    for slice in base.chunks(FRESH_SLICE_ROWS) {
        catalog
            .ingest_parallel(WINDOW, slice)
            .map_err(err("ingest_parallel"))?;
        let frame = catalog
            .ship_window_slice(WINDOW)
            .map_err(err("ship_window_slice"))?;
        replica_window.receive(&frame)?;
        catalog.advance(WINDOW).map_err(err("advance"))?;
        replica_window.advance()?;
    }
    catalog.refresh(LANDMARK).map_err(err("refresh"))?;
    catalog.refresh(WINDOW).map_err(err("refresh"))?;
    s.setup_s.push(t.elapsed().as_secs_f64());
    if let Some(tr) = tracer.as_deref_mut() {
        tr.begin_round();
        tr.on_base_load(base);
    }

    let mut landmark_counts = Counts1D::new();
    landmark_counts.add(base);
    let mut window_counts = WindowCounts::new(FRESH_SLICES);
    for slice in base.chunks(FRESH_SLICE_ROWS) {
        window_counts.add(slice);
        window_counts.advance();
    }
    let mut landmark_answers = Vec::with_capacity(QUERY_BLOCK);
    let mut window_answers = Vec::with_capacity(QUERY_BLOCK);
    let (lo0, hi0) = inputs.ranges[0].bounds();
    for (b, batch) in stream.chunks(FRESH_BATCH).enumerate() {
        let t0 = Instant::now();
        catalog.ingest(LANDMARK, batch).map_err(err("ingest"))?;
        catalog.ingest(WINDOW, batch).map_err(err("ingest"))?;
        let ingest = since(t0);
        s.ingest_rows_per_s
            .push(2.0 * batch.len() as f64 / (ingest / 1e3));
        landmark_counts.add(batch);
        window_counts.add(batch);
        check.op(true, String::new);
        check.op(true, String::new);

        let t1 = Instant::now();
        catalog.refresh(LANDMARK).map_err(err("refresh"))?;
        catalog.refresh(WINDOW).map_err(err("refresh"))?;
        let refresh = since(t1);
        s.refresh_ms.push(refresh);
        let t2 = Instant::now();
        let first_landmark = catalog
            .selectivity_cached(LANDMARK, lo0, hi0)
            .map_err(err("selectivity_cached"))?
            .ok_or("no snapshot after refresh")?;
        let first_window = catalog
            .selectivity_cached(WINDOW, lo0, hi0)
            .map_err(err("selectivity_cached"))?
            .ok_or("no snapshot after refresh")?;
        let first_query = since(t2);
        s.freshness_ms.push(since(t0));

        let window_live = window_counts.live();
        let window_rows = catalog.attribute(WINDOW).map(|a| a.rows()).unwrap_or(0) as u64;
        check.op(window_rows == window_live.rows, || {
            format!(
                "window rows() = {window_rows}, live rows tracked = {}",
                window_live.rows
            )
        });

        let shipped = if (b + 1) % FRESH_SHIP_EVERY == 0 {
            let t3 = Instant::now();
            let frame = catalog
                .ship(LANDMARK, CompactionPolicy::InactiveTail)
                .map_err(err("ship"))?;
            let slice_frame = catalog
                .ship_window_slice(WINDOW)
                .map_err(err("ship_window_slice"))?;
            let ship = since(t3);
            let t4 = Instant::now();
            let restored = CoefficientSketch::from_bytes(&frame).map_err(err("from_bytes"))?;
            let slice_rows = replica_window.receive(&slice_frame)?;
            let decode = since(t4);
            let t5 = Instant::now();
            let replica = RefreshedSynopsis::build(&restored, RULE, DEFAULT_CDF_POINTS)
                .map_err(err("replica build"))?;
            let (replica_w, replica_w_rows) = replica_window.build()?;
            let build = since(t5);
            let t6 = Instant::now();
            let first_replica = black_box(replica.selectivity(lo0, hi0));
            black_box(replica_w.selectivity(lo0, hi0));
            let replica_query = since(t6);
            s.replica_freshness_ms.push(since(t0));
            s.frame_bytes = frame.len();
            s.replica_spans([
                ingest,
                refresh,
                first_query,
                ship,
                decode,
                build,
                replica_query,
            ]);
            check.op(restored.count() as u64 == landmark_counts.rows, || {
                format!(
                    "restored landmark frame holds {} rows, {} ingested",
                    restored.count(),
                    landmark_counts.rows
                )
            });
            check.op(slice_rows == window_counts.current_rows(), || {
                format!(
                    "restored slice holds {slice_rows} rows, {} ingested into it",
                    window_counts.current_rows()
                )
            });
            check.op(replica_w_rows == window_live.rows, || {
                format!(
                    "replica window holds {replica_w_rows} rows, {} live",
                    window_live.rows
                )
            });
            check.op(first_replica.to_bits() == first_landmark.to_bits(), || {
                format!("replica first answer {first_replica} vs primary {first_landmark}")
            });
            Some((replica, replica_w))
        } else {
            None
        };
        black_box(first_window);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.on_step(batch, &[], true, shipped.is_some());
        }

        s.query_ns.push(query_block_1d(
            &catalog,
            LANDMARK,
            &inputs.ranges,
            &mut landmark_answers,
        )?);
        s.query_ns.push(query_block_1d(
            &catalog,
            WINDOW,
            &inputs.ranges,
            &mut window_answers,
        )?);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.on_query_block(&catalog, LANDMARK, &inputs.ranges);
        }
        check_block_1d(
            check,
            "landmark",
            &inputs.ranges,
            &landmark_answers,
            &landmark_counts,
            DEFAULT_CDF_POINTS,
        );
        check_block_1d(
            check,
            "window",
            &inputs.ranges,
            &window_answers,
            &window_live,
            DEFAULT_CDF_POINTS,
        );
        if let Some((replica, replica_w)) = shipped {
            let replica_answers: Vec<f64> = inputs
                .ranges
                .iter()
                .map(|r| {
                    let (lo, hi) = r.bounds();
                    replica.selectivity(lo, hi)
                })
                .collect();
            check_bitwise(
                check,
                "landmark replica",
                &landmark_answers,
                &replica_answers,
            );
            let replica_w_answers: Vec<f64> = inputs
                .ranges
                .iter()
                .map(|r| {
                    let (lo, hi) = r.bounds();
                    replica_w.selectivity(lo, hi)
                })
                .collect();
            check_block_1d(
                check,
                "window replica",
                &inputs.ranges,
                &replica_w_answers,
                &window_live,
                DEFAULT_CDF_POINTS,
            );
            check_additivity_1d(check, "landmark", |lo, hi| {
                catalog
                    .selectivity_cached(LANDMARK, lo, hi)
                    .map_err(err("selectivity_cached"))?
                    .ok_or_else(|| "no snapshot".to_string())
            })?;
            check_additivity_1d(check, "window", |lo, hi| {
                catalog
                    .selectivity_cached(WINDOW, lo, hi)
                    .map_err(err("selectivity_cached"))?
                    .ok_or_else(|| "no snapshot".to_string())
            })?;
        }

        if (b + 1) % FRESH_ADVANCE_EVERY == 0 {
            catalog.advance(WINDOW).map_err(err("advance"))?;
            replica_window.advance()?;
            window_counts.advance();
            check.op(true, String::new);
        }
    }
    Ok(())
}

fn joint_pairs_round(
    inputs: &Inputs,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    const X: &str = "pairs.x";
    const Y: &str = "pairs.y";
    let s = &mut out.samples;
    let check = &mut out.check;
    let (base, stream) = inputs.pairs.split_at(JOINT_BASE);

    let t = Instant::now();
    let catalog = SynopsisCatalog::new();
    let pair = catalog
        .register_pair(X, Y, config(JOINT_EXPECTED))
        .map_err(err("register_pair"))?;
    catalog
        .ingest_pair_parallel(X, Y, base)
        .map_err(err("ingest_pair_parallel"))?;
    pair.refreshed().map_err(err("refreshed"))?;
    s.setup_s.push(t.elapsed().as_secs_f64());
    if let Some(tr) = tracer.as_deref_mut() {
        tr.begin_round();
        tr.on_base_pairs(base);
    }

    let mut counts = Counts2D::new();
    counts.add(base);
    let mut answers = Vec::with_capacity(QUERY_BLOCK);
    let (x0, y0) = inputs.rects[0].bounds();
    for (b, batch) in stream.chunks(JOINT_BATCH).enumerate() {
        let t0 = Instant::now();
        catalog
            .ingest_pair_parallel(X, Y, batch)
            .map_err(err("ingest_pair_parallel"))?;
        let ingest = since(t0);
        s.ingest_rows_per_s
            .push(batch.len() as f64 / (ingest / 1e3));
        counts.add(batch);
        check.op(true, String::new);

        let t1 = Instant::now();
        pair.refreshed().map_err(err("refreshed"))?;
        let refresh = since(t1);
        s.refresh_ms.push(refresh);
        let t2 = Instant::now();
        let first = catalog
            .joint_selectivity(X, Y, x0, y0)
            .map_err(err("joint_selectivity"))?;
        let first_query = since(t2);
        s.freshness_ms.push(since(t0));

        let replica = if (b + 1) % JOINT_SHIP_EVERY == 0 {
            let t3 = Instant::now();
            let frame = catalog
                .ship_pair(X, Y, CompactionPolicy::InactiveTail)
                .map_err(err("ship_pair"))?;
            let ship = since(t3);
            let t4 = Instant::now();
            let restored = TensorSketch::from_bytes(&frame).map_err(err("from_bytes"))?;
            let decode = since(t4);
            let t5 = Instant::now();
            let replica = RefreshedJoint::build(&restored, RULE, JOINT_CDF_POINTS)
                .map_err(err("replica build"))?;
            let build = since(t5);
            let t6 = Instant::now();
            let replica_first = black_box(replica.selectivity(x0, y0));
            let replica_query = since(t6);
            s.replica_freshness_ms.push(since(t0));
            s.frame_bytes = frame.len();
            s.replica_spans([
                ingest,
                refresh,
                first_query,
                ship,
                decode,
                build,
                replica_query,
            ]);
            check.op(restored.count() as u64 == counts.rows, || {
                format!(
                    "restored pair frame holds {} rows, {} ingested",
                    restored.count(),
                    counts.rows
                )
            });
            check.op(first.to_bits() == replica_first.to_bits(), || {
                format!("replica first answer {replica_first} vs primary {first}")
            });
            Some(replica)
        } else {
            None
        };
        if let Some(tr) = tracer.as_deref_mut() {
            tr.on_step(&[], batch, true, replica.is_some());
        }

        answers.clear();
        let t = Instant::now();
        for r in &inputs.rects {
            let (xr, yr) = r.bounds();
            let answer = catalog
                .joint_selectivity(black_box(X), black_box(Y), black_box(xr), black_box(yr))
                .map_err(err("joint_selectivity"))?;
            answers.push(black_box(answer));
        }
        s.query_ns
            .push(t.elapsed().as_nanos() as f64 / inputs.rects.len() as f64);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.on_pair_query_block(&catalog, X, Y, &inputs.rects);
        }

        let prefix = counts.prefix();
        let tol = tolerance(counts.rows, JOINT_CDF_POINTS, DENSITY_BOUND_2D);
        for (r, &answer) in inputs.rects.iter().zip(&answers) {
            check.answer(answer, rect_rows(&prefix, r), counts.rows, tol, "joint");
        }
        // Exact additivity: a rectangle split at an interior x edge.
        for r in inputs.rects.iter().take(256) {
            if r.x1 - r.x0 < 2 {
                continue;
            }
            let mid = (r.x0 + r.x1) / 2;
            let whole = answers_for(&catalog, X, Y, r)?;
            let left = answers_for(&catalog, X, Y, &Rect { x1: mid, ..*r })?;
            let right = answers_for(&catalog, X, Y, &Rect { x0: mid, ..*r })?;
            check.op((left + right - whole).abs() <= ADDITIVITY_TOL, || {
                format!("joint: split rectangle answers {left} + {right}, whole {whole}")
            });
        }
        if let Some(replica) = replica {
            let replica_answers: Vec<f64> = inputs
                .rects
                .iter()
                .map(|r| {
                    let (xr, yr) = r.bounds();
                    replica.selectivity(xr, yr)
                })
                .collect();
            check_bitwise(check, "pair replica", &answers, &replica_answers);
        }
    }
    Ok(())
}

fn answers_for(catalog: &SynopsisCatalog, x: &str, y: &str, r: &Rect) -> Result<f64, String> {
    let (xr, yr) = r.bounds();
    catalog
        .joint_selectivity(x, y, xr, yr)
        .map_err(err("joint_selectivity"))
}
