//! The traced run: shadow objects of every layer, fed the same batches as
//! the end-to-end loop, whose public calls are timed one by one. Spans
//! are recorded from the benchmark's side of each call; the program
//! itself is not instrumented.

use crate::checks::{Range, Rect};
use crate::stats::{median, ms};
use crate::workloads::{
    config, Workload, BULK_BATCH, BULK_ROWS, FRESH_BATCH, FRESH_EXPECTED, FRESH_SLICES,
    FRESH_SLICE_ROWS, JOINT_BATCH, JOINT_CDF_POINTS, JOINT_EXPECTED, RULE, SHARDS,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wavedens_core::wavelets::kernels::{self, Backend};
use wavedens_core::{
    CoefficientSketch, CompactionPolicy, CumulativeEstimate, CvCache, DenseEvalCache, TensorSketch,
    WaveletDensityEstimate, WindowPolicy, DEFAULT_CDF_POINTS,
};
use wavedens_engine::{
    AttributeSynopsis, JointSynopsis, RefreshedSynopsis, ShardedIngest, SynopsisCatalog,
};

/// Every per-layer metric: name, unit, the end-to-end metric it should
/// move, and the workloads where its layer works / idles.
pub const LAYER_METRICS: &[(&str, &str, &str, &str)] = &[
    ("wavelets.basis_tabulate_ms", "ms", "setup_s", "all"),
    (
        "kernels.rows_per_s.scalar",
        "1/s",
        "ingest_rows_per_s",
        "bulk_load, fresh_serve / joint_pairs",
    ),
    (
        "kernels.rows_per_s.lanes",
        "1/s",
        "ingest_rows_per_s",
        "bulk_load, fresh_serve / joint_pairs",
    ),
    (
        "sketch.push_batch_rows_per_s",
        "1/s",
        "ingest_rows_per_s",
        "bulk_load, fresh_serve / joint_pairs",
    ),
    (
        "sketch.merge_ms",
        "ms",
        "ingest_rows_per_s, refresh_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "sketch.compact_ms",
        "ms",
        "replica_freshness_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "sketch.to_bytes_us",
        "us",
        "replica_freshness_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "sketch.from_bytes_us",
        "us",
        "replica_freshness_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "sharded.ingest_batch_us",
        "us",
        "ingest_rows_per_s",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "sharded.ingest_parallel_rows_per_s",
        "1/s",
        "ingest_rows_per_s",
        "bulk_load / fresh_serve",
    ),
    (
        "sharded.merge_into_ms",
        "ms",
        "refresh_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "workpool.speedup_2_over_1",
        "ratio",
        "ingest_rows_per_s",
        "bulk_load, joint_pairs / fresh_serve",
    ),
    (
        "cv.cached_ms",
        "ms",
        "refresh_ms, freshness_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "cv.full_ms",
        "ms",
        "replica_freshness_ms",
        "bulk_load, fresh_serve / joint_pairs",
    ),
    (
        "cv.surviving_coefficients",
        "count",
        "refresh_ms, replica_freshness_ms",
        "all",
    ),
    (
        "dense.cdf_build_cached_ms",
        "ms",
        "refresh_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "dense.cdf_build_ms",
        "ms",
        "replica_freshness_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "dense.cdf_lookup_ns",
        "ns",
        "query_ns",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "synopsis.refresh_ms",
        "ms",
        "refresh_ms, freshness_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "synopsis.snapshot_load_ns",
        "ns",
        "query_ns",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "synopsis.ship_ms",
        "ms",
        "replica_freshness_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "synopsis.replica_build_ms",
        "ms",
        "replica_freshness_ms",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    ("catalog.register_ms", "ms", "setup_s", "all"),
    (
        "catalog.lookup_ns",
        "ns",
        "query_ns",
        "fresh_serve, bulk_load / joint_pairs",
    ),
    (
        "catalog.pair_lookup_ns",
        "ns",
        "query_ns",
        "joint_pairs / others",
    ),
    (
        "window.advance_us",
        "us",
        "freshness_ms",
        "fresh_serve / others",
    ),
    (
        "window.refresh_ms",
        "ms",
        "refresh_ms, freshness_ms",
        "fresh_serve / others",
    ),
    (
        "window.ship_slice_us",
        "us",
        "replica_freshness_ms",
        "fresh_serve / others",
    ),
    (
        "tensor.push_pairs_rows_per_s",
        "1/s",
        "ingest_rows_per_s",
        "joint_pairs / others",
    ),
    (
        "tensor.merge_ms",
        "ms",
        "refresh_ms",
        "joint_pairs / others",
    ),
    (
        "tensor.thresholded_ms",
        "ms",
        "refresh_ms",
        "joint_pairs / others",
    ),
    (
        "tensor.cumulative_ms",
        "ms",
        "refresh_ms",
        "joint_pairs / others",
    ),
    ("tensor.query_ns", "ns", "query_ns", "joint_pairs / others"),
    (
        "tensor.compact_ms",
        "ms",
        "replica_freshness_ms",
        "joint_pairs / others",
    ),
    (
        "tensor.to_bytes_us",
        "us",
        "replica_freshness_ms",
        "joint_pairs / others",
    ),
    (
        "tensor.from_bytes_us",
        "us",
        "replica_freshness_ms",
        "joint_pairs / others",
    ),
    (
        "joint.snapshot_load_ns",
        "ns",
        "query_ns",
        "joint_pairs / others",
    ),
    (
        "synopsis.frame_bytes",
        "bytes",
        "replica_freshness_ms",
        "all",
    ),
];

/// Reported besides [`LAYER_METRICS`] when the AVX2 backend is built
/// (`simd-intrinsics`) and the CPU supports it.
pub const INTRINSICS_METRIC: (&str, &str, &str, &str) = (
    "kernels.rows_per_s.intrinsics",
    "1/s",
    "ingest_rows_per_s",
    "bulk_load, fresh_serve / joint_pairs",
);

/// Timed calls per query-path block.
const LOOKUP_BLOCK: usize = 4096;
/// Pairs per batch fed to the 2-D shadows of a 1-D workload (a lag-1
/// sample of the batch; the 2-D layers are idle there).
const IDLE_PAIRS_PER_BATCH: usize = 4096;

/// Shape of the shadows: the workload's own sizes where it exercises a
/// layer, modest ones where the layer is idle.
struct Shape {
    workload: Workload,
    /// Expected rows of the 1-D sketches.
    n1: usize,
    /// Expected pairs of the 2-D sketches.
    n2: usize,
}

impl Shape {
    fn of(workload: Workload) -> Self {
        match workload {
            Workload::BulkLoad => Self {
                workload,
                n1: BULK_ROWS,
                n2: FRESH_EXPECTED,
            },
            Workload::FreshServe => Self {
                workload,
                n1: FRESH_EXPECTED,
                n2: FRESH_EXPECTED,
            },
            Workload::JointPairs => Self {
                workload,
                n1: FRESH_EXPECTED,
                n2: JOINT_EXPECTED,
            },
        }
    }

    fn native_1d(&self) -> bool {
        self.workload != Workload::JointPairs
    }

    fn batch(&self) -> usize {
        match self.workload {
            Workload::BulkLoad => BULK_BATCH,
            Workload::FreshServe => FRESH_BATCH,
            Workload::JointPairs => JOINT_BATCH,
        }
    }
}

const X: &str = "trace.x";
const W: &str = "trace.window";
const PX: &str = "trace.px";
const PY: &str = "trace.py";

/// One round's shadow objects.
struct Shadows {
    sketch: CoefficientSketch,
    merge_target: CoefficientSketch,
    sharded: ShardedIngest,
    scratch: Option<CoefficientSketch>,
    cv: CvCache,
    dense: DenseEvalCache,
    density: Option<WaveletDensityEstimate>,
    catalog: SynopsisCatalog,
    attribute: Arc<AttributeSynopsis>,
    window: Arc<AttributeSynopsis>,
    window_rows: usize,
    /// Idle-layer input buffered until the next ship step.
    pending_rows: Vec<f64>,
    pending_pairs: Vec<(f64, f64)>,
    tensor: TensorSketch,
    tensor_sharded: ShardedIngest<TensorSketch>,
    tensor_scratch: Option<TensorSketch>,
    pair: Arc<JointSynopsis>,
}

/// Collects the per-layer samples of a traced run.
pub struct Tracer {
    shape: Shape,
    shadows: Option<Shadows>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

fn lag_pairs(rows: &[f64], limit: usize) -> Vec<(f64, f64)> {
    rows.windows(2).take(limit).map(|w| (w[0], w[1])).collect()
}

impl Tracer {
    pub fn new(workload: Workload) -> Self {
        Self {
            shape: Shape::of(workload),
            shadows: None,
            samples: BTreeMap::new(),
        }
    }

    pub fn record(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn shadows(&mut self) -> &mut Shadows {
        self.shadows
            .as_mut()
            .expect("begin_round builds the shadows")
    }

    /// Fresh shadows for a new round; times basis tabulation and
    /// registration.
    pub fn begin_round(&mut self) {
        self.shadows = None;
        let (n1, n2) = (self.shape.n1, self.shape.n2);
        let t = Instant::now();
        let sketch = CoefficientSketch::sized_for(n1).expect("1-D sketch");
        let tensor = TensorSketch::sized_for_pairs(n2).expect("2-D sketch");
        self.record("wavelets.basis_tabulate_ms", ms(t.elapsed()));
        let catalog = SynopsisCatalog::new();
        let t = Instant::now();
        let attribute = catalog.register(X, config(n1)).expect("register");
        self.record("catalog.register_ms", ms(t.elapsed()));
        let window = catalog
            .register(
                W,
                config(FRESH_EXPECTED).with_window(WindowPolicy::SlidingSlices(FRESH_SLICES)),
            )
            .expect("register window");
        let pair = catalog
            .register_pair(PX, PY, config(n2))
            .expect("register pair");
        self.shadows = Some(Shadows {
            merge_target: sketch.clone(),
            sharded: ShardedIngest::new(&sketch, SHARDS).expect("sharded"),
            sketch,
            scratch: None,
            cv: CvCache::new(),
            dense: DenseEvalCache::new(),
            density: None,
            catalog,
            attribute,
            window,
            window_rows: 0,
            pending_rows: Vec::new(),
            pending_pairs: Vec::new(),
            tensor_sharded: ShardedIngest::new(&tensor, SHARDS).expect("sharded pairs"),
            tensor,
            tensor_scratch: None,
            pair,
        });
    }

    /// Feeds a 1-D base load (untimed): the window receives it slice by
    /// slice, advancing after each.
    pub fn on_base_load(&mut self, base: &[f64]) {
        let pairs = lag_pairs(base, base.len());
        let sh = self.shadows();
        sh.sketch.push_batch(base);
        sh.sharded.ingest_parallel(base);
        sh.attribute.ingest_parallel(base);
        for slice in base.chunks(FRESH_SLICE_ROWS) {
            sh.window.ingest_parallel(slice);
            sh.window.advance();
        }
        sh.tensor.push_pairs(&pairs);
        sh.tensor_sharded.ingest_parallel(&pairs);
        sh.pair.ingest_parallel(&pairs);
        self.settle();
    }

    /// Feeds a 2-D base load (untimed); the 1-D shadows get its `x`.
    pub fn on_base_pairs(&mut self, base: &[(f64, f64)]) {
        let xs: Vec<f64> = base.iter().map(|&(x, _)| x).collect();
        let sh = self.shadows();
        sh.tensor.push_pairs(base);
        sh.tensor_sharded.ingest_parallel(base);
        sh.pair.ingest_parallel(base);
        sh.sketch.push_batch(&xs);
        sh.sharded.ingest_parallel(&xs);
        sh.attribute.ingest_parallel(&xs);
        for slice in xs.chunks(FRESH_SLICE_ROWS) {
            sh.window.ingest_parallel(slice);
            sh.window.advance();
        }
        self.settle();
    }

    /// Untimed refresh of every shadow after a base load.
    fn settle(&mut self) {
        let sh = self.shadows();
        sh.attribute.refresh().expect("refresh");
        sh.window.refresh().expect("refresh");
        sh.pair.refreshed().expect("refresh");
        self.refresh_1d(false);
        self.refresh_2d(false);
    }

    /// One step of the end-to-end loop, after its timed part: the batch
    /// goes into the workload's own layers at once (timed) and, buffered,
    /// into the idle layers at ship steps; refresh and ship steps time
    /// their calls.
    pub fn on_step(&mut self, rows: &[f64], pairs: &[(f64, f64)], refresh: bool, ship: bool) {
        if self.shape.native_1d() {
            self.feed_1d(rows);
            let lagged = lag_pairs(rows, IDLE_PAIRS_PER_BATCH);
            self.shadows().pending_pairs.extend_from_slice(&lagged);
        } else {
            self.feed_2d(pairs);
            let xs = pairs.iter().map(|&(x, _)| x);
            self.shadows().pending_rows.extend(xs);
        }
        if refresh {
            if self.shape.native_1d() {
                self.refresh_1d(true);
            } else {
                self.refresh_2d(true);
            }
        }
        if ship {
            if self.shape.native_1d() {
                let pairs = std::mem::take(&mut self.shadows().pending_pairs);
                self.feed_2d(&pairs);
                self.refresh_2d(true);
            } else {
                let rows = std::mem::take(&mut self.shadows().pending_rows);
                self.feed_1d(&rows);
                self.refresh_1d(true);
            }
            self.ship();
        }
    }

    /// Timed pushes of a 1-D batch into every 1-D ingest layer.
    fn feed_1d(&mut self, rows: &[f64]) {
        if rows.is_empty() {
            return;
        }
        let sh = self.shadows.as_mut().expect("shadows");
        let t = Instant::now();
        sh.sketch.push_batch(rows);
        let push = t.elapsed().as_secs_f64();
        let t = Instant::now();
        sh.sharded.ingest(rows);
        let sharded = t.elapsed().as_secs_f64();
        sh.attribute.ingest(rows);
        sh.window.ingest(rows);
        sh.window_rows += rows.len();
        let advance = if sh.window_rows >= FRESH_SLICE_ROWS {
            sh.window_rows = 0;
            let t = Instant::now();
            sh.window.advance();
            Some(t.elapsed().as_secs_f64())
        } else {
            None
        };
        self.record("sketch.push_batch_rows_per_s", rows.len() as f64 / push);
        self.record("sharded.ingest_batch_us", sharded * 1e6);
        if let Some(advance) = advance {
            self.record("window.advance_us", advance * 1e6);
        }
    }

    /// Timed push of a pair batch into the 2-D ingest layers.
    fn feed_2d(&mut self, pairs: &[(f64, f64)]) {
        if pairs.is_empty() {
            return;
        }
        let sh = self.shadows.as_mut().expect("shadows");
        let t = Instant::now();
        sh.tensor.push_pairs(pairs);
        let push_pairs = t.elapsed().as_secs_f64();
        sh.tensor_sharded.ingest(pairs);
        sh.pair.ingest(pairs);
        self.record(
            "tensor.push_pairs_rows_per_s",
            pairs.len() as f64 / push_pairs,
        );
    }

    /// The 1-D refresh stages on the shadow pipeline (merge, CV, CDF).
    fn refresh_1d(&mut self, timed: bool) {
        let sh = self.shadows.as_mut().expect("shadows");
        let t = Instant::now();
        match sh.scratch.as_mut() {
            Some(scratch) => sh.sharded.merge_into(scratch).expect("merge_into"),
            None => sh.scratch = Some(sh.sharded.merged().expect("merged")),
        }
        let merge = ms(t.elapsed());
        let scratch = sh.scratch.as_ref().expect("scratch");
        let t = Instant::now();
        let density = scratch
            .estimate_with_cache(RULE, &mut sh.cv)
            .expect("estimate");
        let cv = ms(t.elapsed());
        let t = Instant::now();
        let cdf = black_box(density.cumulative_cached(DEFAULT_CDF_POINTS, &mut sh.dense));
        let cdf_ms = ms(t.elapsed());
        drop(cdf);
        sh.density = Some(density);
        let t = Instant::now();
        sh.attribute.refresh().expect("refresh");
        let refresh = ms(t.elapsed());
        let t = Instant::now();
        sh.window.refresh().expect("window refresh");
        let window_refresh = ms(t.elapsed());
        if timed {
            self.record("sharded.merge_into_ms", merge);
            self.record("cv.cached_ms", cv);
            self.record("dense.cdf_build_cached_ms", cdf_ms);
            self.record("synopsis.refresh_ms", refresh);
            self.record("window.refresh_ms", window_refresh);
        }
    }

    /// The 2-D refresh stages (merge, threshold, joint CDF grid).
    fn refresh_2d(&mut self, timed: bool) {
        let sh = self.shadows.as_mut().expect("shadows");
        let t = Instant::now();
        match sh.tensor_scratch.as_mut() {
            Some(scratch) => sh.tensor_sharded.merge_into(scratch).expect("merge_into"),
            None => sh.tensor_scratch = Some(sh.tensor_sharded.merged().expect("merged")),
        }
        let merge = ms(t.elapsed());
        let scratch = sh.tensor_scratch.as_ref().expect("scratch");
        let t = Instant::now();
        let estimate = scratch.thresholded(RULE).expect("thresholded");
        let thresholded = ms(t.elapsed());
        let t = Instant::now();
        black_box(estimate.cumulative(JOINT_CDF_POINTS, JOINT_CDF_POINTS));
        let cumulative = ms(t.elapsed());
        sh.pair.refreshed().expect("pair refresh");
        if timed {
            self.record("tensor.merge_ms", merge);
            self.record("tensor.thresholded_ms", thresholded);
            self.record("tensor.cumulative_ms", cumulative);
        }
    }

    /// Timed ship, compact and codec calls plus full (uncached) CV and
    /// CDF builds on the shadows' current state.
    fn ship(&mut self) {
        let mut rec: Vec<(&'static str, f64)> = Vec::new();
        let sh = self.shadows.as_mut().expect("shadows");
        let t = Instant::now();
        let frame = sh
            .attribute
            .ship(CompactionPolicy::InactiveTail)
            .expect("ship");
        rec.push(("synopsis.ship_ms", ms(t.elapsed())));
        let t = Instant::now();
        let restored = CoefficientSketch::from_bytes(&frame).expect("from_bytes");
        rec.push(("sketch.from_bytes_us", t.elapsed().as_secs_f64() * 1e6));
        let t = Instant::now();
        black_box(RefreshedSynopsis::build(&restored, RULE, DEFAULT_CDF_POINTS).expect("build"));
        rec.push(("synopsis.replica_build_ms", ms(t.elapsed())));
        let scratch = sh.scratch.as_ref().expect("scratch");
        let t = Instant::now();
        let compacted = scratch
            .compact(CompactionPolicy::InactiveTail, RULE)
            .expect("compact");
        rec.push(("sketch.compact_ms", ms(t.elapsed())));
        let t = Instant::now();
        black_box(compacted.to_bytes());
        rec.push(("sketch.to_bytes_us", t.elapsed().as_secs_f64() * 1e6));
        let t = Instant::now();
        let density = scratch.estimate(RULE).expect("estimate");
        rec.push(("cv.full_ms", ms(t.elapsed())));
        let t = Instant::now();
        black_box(CumulativeEstimate::from_estimate(
            &density,
            DEFAULT_CDF_POINTS,
        ));
        rec.push(("dense.cdf_build_ms", ms(t.elapsed())));
        let t = Instant::now();
        sh.merge_target.merge(&sh.sketch).expect("merge");
        rec.push(("sketch.merge_ms", ms(t.elapsed())));
        let t = Instant::now();
        black_box(sh.window.ship_window_slice().expect("ship slice"));
        rec.push(("window.ship_slice_us", t.elapsed().as_secs_f64() * 1e6));
        let tensor = sh.tensor_scratch.as_ref().expect("tensor scratch");
        let t = Instant::now();
        let compacted = tensor
            .compact(CompactionPolicy::InactiveTail, RULE)
            .expect("tensor compact");
        rec.push(("tensor.compact_ms", ms(t.elapsed())));
        let t = Instant::now();
        let bytes = compacted.to_bytes();
        rec.push(("tensor.to_bytes_us", t.elapsed().as_secs_f64() * 1e6));
        let t = Instant::now();
        black_box(TensorSketch::from_bytes(&bytes).expect("tensor from_bytes"));
        rec.push(("tensor.from_bytes_us", t.elapsed().as_secs_f64() * 1e6));
        for (name, value) in rec {
            self.record(name, value);
        }
    }

    /// After an end-to-end 1-D query block: the query path split into
    /// registry lookup, snapshot load and CDF lookup, each in a block.
    pub fn on_query_block(&mut self, catalog: &SynopsisCatalog, name: &str, ranges: &[Range]) {
        let attribute = catalog.attribute(name).expect("registered");
        let (lookup, load, cdf) = time_1d_path(catalog, name, &attribute, ranges);
        self.record("catalog.lookup_ns", lookup);
        self.record("synopsis.snapshot_load_ns", load);
        self.record("dense.cdf_lookup_ns", cdf);
        let sh = self.shadows.as_ref().expect("shadows");
        let (lookup, load, query) = time_2d_path(&sh.catalog, PX, PY, &sh.pair, &rects_of(ranges));
        self.record("catalog.pair_lookup_ns", lookup);
        self.record("joint.snapshot_load_ns", load);
        self.record("tensor.query_ns", query);
    }

    /// After an end-to-end rectangle block (the joint workload).
    pub fn on_pair_query_block(
        &mut self,
        catalog: &SynopsisCatalog,
        x: &str,
        y: &str,
        rects: &[Rect],
    ) {
        let pair = catalog.pair(x, y).expect("registered pair");
        let (lookup, load, query) = time_2d_path(catalog, x, y, &pair, rects);
        self.record("catalog.pair_lookup_ns", lookup);
        self.record("joint.snapshot_load_ns", load);
        self.record("tensor.query_ns", query);
        let sh = self.shadows.as_ref().expect("shadows");
        let attribute = Arc::clone(&sh.attribute);
        let (lookup, load, cdf) = time_1d_path(&sh.catalog, X, &attribute, &ranges_of(rects));
        self.record("catalog.lookup_ns", lookup);
        self.record("synopsis.snapshot_load_ns", load);
        self.record("dense.cdf_lookup_ns", cdf);
    }

    /// One-off probes after the traced loop: kernel backends, parallel
    /// ingest and its 2-over-1 shard speed-up, fed the workload's rows in
    /// its batch size. `rows` is the workload's 1-D column.
    pub fn probe(&mut self, rows: &[f64]) {
        let batch = self.shape.batch();
        let take = (8 * batch).clamp(16_384, 131_072).min(rows.len());
        let rows = &rows[..take];
        let template = CoefficientSketch::sized_for(self.shape.n1).expect("sketch");
        let mut backends = vec![Backend::Scalar, Backend::Lanes];
        if kernels::intrinsics_available() {
            backends.push(Backend::Intrinsics);
        }
        const REPS: usize = 3;
        let mut kernel_rates = vec![Vec::new(); backends.len()];
        let mut parallel_rates = [Vec::new(), Vec::new()];
        for _ in 0..REPS {
            for (i, &backend) in backends.iter().enumerate() {
                kernels::set_backend_override(Some(backend));
                let mut sketch = template.clone();
                let t = Instant::now();
                for chunk in rows.chunks(batch) {
                    sketch.push_batch(chunk);
                }
                kernel_rates[i].push(rows.len() as f64 / t.elapsed().as_secs_f64());
                black_box(&sketch);
            }
            kernels::set_backend_override(None);
            for (i, shards) in [1, SHARDS].into_iter().enumerate() {
                let sharded = ShardedIngest::new(&template, shards).expect("sharded");
                let t = Instant::now();
                for chunk in rows.chunks(batch) {
                    sharded.ingest_parallel(chunk);
                }
                parallel_rates[i].push(rows.len() as f64 / t.elapsed().as_secs_f64());
                black_box(&sharded);
            }
        }
        for (backend, rates) in backends.iter().zip(&kernel_rates) {
            let name = match backend {
                Backend::Scalar => "kernels.rows_per_s.scalar",
                Backend::Lanes => "kernels.rows_per_s.lanes",
                Backend::Intrinsics => INTRINSICS_METRIC.0,
            };
            self.record(name, median(rates));
        }
        let one = median(&parallel_rates[0]);
        let two = median(&parallel_rates[1]);
        self.record("sharded.ingest_parallel_rows_per_s", two);
        self.record("workpool.speedup_2_over_1", two / one);
        if let Some(density) = self.shadows.as_ref().and_then(|sh| sh.density.as_ref()) {
            let surviving = density.surviving_detail_coefficients() as f64;
            self.record("cv.surviving_coefficients", surviving);
        }
    }

    /// Median of each per-layer metric (NaN when never sampled).
    pub fn medians(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut out: Vec<(&'static str, f64, &'static str)> = LAYER_METRICS
            .iter()
            .map(|&(name, unit, _, _)| {
                let value = self.samples.get(name).map_or(f64::NAN, |v| median(v));
                (name, value, unit)
            })
            .collect();
        let (name, unit, _, _) = INTRINSICS_METRIC;
        if let Some(v) = self.samples.get(name) {
            out.push((name, median(v), unit));
        }
        out
    }

    pub fn median_of(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(f64::NAN, |v| median(v))
    }
}

fn rects_of(ranges: &[Range]) -> Vec<Rect> {
    ranges
        .iter()
        .map(|r| Rect {
            x0: r.lo * crate::checks::EDGES_2D / crate::checks::EDGES_1D,
            x1: (r.hi * crate::checks::EDGES_2D).div_ceil(crate::checks::EDGES_1D),
            y0: r.lo * crate::checks::EDGES_2D / crate::checks::EDGES_1D,
            y1: (r.hi * crate::checks::EDGES_2D).div_ceil(crate::checks::EDGES_1D),
        })
        .collect()
}

fn ranges_of(rects: &[Rect]) -> Vec<Range> {
    let scale = crate::checks::EDGES_1D / crate::checks::EDGES_2D;
    rects
        .iter()
        .map(|r| Range {
            lo: r.x0 * scale,
            hi: r.x1 * scale,
        })
        .collect()
}

/// ns per call of registry lookup, snapshot load and CDF lookup.
fn time_1d_path(
    catalog: &SynopsisCatalog,
    name: &str,
    attribute: &AttributeSynopsis,
    ranges: &[Range],
) -> (f64, f64, f64) {
    let n = LOOKUP_BLOCK.min(ranges.len());
    let t = Instant::now();
    for _ in 0..n {
        black_box(catalog.attribute(black_box(name)));
    }
    let lookup = t.elapsed().as_nanos() as f64 / n as f64;
    let t = Instant::now();
    for _ in 0..n {
        black_box(attribute.cached());
    }
    let load = t.elapsed().as_nanos() as f64 / n as f64;
    let snapshot = attribute.cached().expect("a snapshot");
    let t = Instant::now();
    for r in &ranges[..n] {
        let (lo, hi) = r.bounds();
        black_box(snapshot.selectivity(black_box(lo), black_box(hi)));
    }
    let cdf = t.elapsed().as_nanos() as f64 / n as f64;
    (lookup, load, cdf)
}

/// ns per call of pair lookup, joint snapshot load and rectangle lookup.
fn time_2d_path(
    catalog: &SynopsisCatalog,
    x: &str,
    y: &str,
    pair: &JointSynopsis,
    rects: &[Rect],
) -> (f64, f64, f64) {
    let n = LOOKUP_BLOCK.min(rects.len());
    let t = Instant::now();
    for _ in 0..n {
        black_box(catalog.pair(black_box(x), black_box(y)));
    }
    let lookup = t.elapsed().as_nanos() as f64 / n as f64;
    let t = Instant::now();
    for _ in 0..n {
        black_box(pair.refreshed().expect("refreshed"));
    }
    let load = t.elapsed().as_nanos() as f64 / n as f64;
    let snapshot = pair.refreshed().expect("refreshed").expect("a snapshot");
    let t = Instant::now();
    for r in &rects[..n] {
        let (xr, yr) = r.bounds();
        black_box(snapshot.selectivity(black_box(xr), black_box(yr)));
    }
    let query = t.elapsed().as_nanos() as f64 / n as f64;
    (lookup, load, query)
}
