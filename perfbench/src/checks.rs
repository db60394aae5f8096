//! Output checks computed apart from the program: exact row shares
//! counted from the benchmark's own copy of the inputs, and properties
//! the method documents (answers in `[0, 1]`, exact additivity of
//! abutting ranges, lossless `InactiveTail` shipping).

use std::collections::VecDeque;

/// Query endpoints lie on `EDGES_1D + 1` equally spaced edges of `[0, 1]`,
/// so the exact share of rows in any query range is a sum of bucket
/// counts.
pub const EDGES_1D: usize = 64;
/// Rectangle corners lie on a `EDGES_2D × EDGES_2D` cell grid.
pub const EDGES_2D: usize = 16;

/// Bucket index of a value on a grid of `cells` equal cells of `[0, 1]`,
/// with the half-open `[lo, hi)` convention (1.0 joins the last cell).
fn cell(x: f64, cells: usize) -> usize {
    ((x * cells as f64) as usize).min(cells - 1)
}

/// Edge coordinate `i / cells`.
pub fn edge(i: usize, cells: usize) -> f64 {
    i as f64 / cells as f64
}

/// Row counts per 1-D bucket.
#[derive(Clone, Default)]
pub struct Counts1D {
    pub buckets: Vec<u64>,
    pub rows: u64,
}

impl Counts1D {
    pub fn new() -> Self {
        Self {
            buckets: vec![0; EDGES_1D],
            rows: 0,
        }
    }

    pub fn add(&mut self, values: &[f64]) {
        for &x in values {
            self.buckets[cell(x, EDGES_1D)] += 1;
        }
        self.rows += values.len() as u64;
    }

    pub fn add_counts(&mut self, other: &Counts1D) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.rows += other.rows;
    }

    /// Prefix sums: `prefix[i]` rows below edge `i`.
    pub fn prefix(&self) -> Vec<u64> {
        let mut prefix = Vec::with_capacity(EDGES_1D + 1);
        let mut running = 0;
        prefix.push(0);
        for &count in &self.buckets {
            running += count;
            prefix.push(running);
        }
        prefix
    }
}

/// The live rows of a sliding window of `slices` time slices, tracked
/// slice by slice the way the synopsis retires them.
pub struct WindowCounts {
    slices: usize,
    ring: VecDeque<Counts1D>,
}

impl WindowCounts {
    pub fn new(slices: usize) -> Self {
        let mut ring = VecDeque::new();
        ring.push_back(Counts1D::new());
        Self { slices, ring }
    }

    pub fn add(&mut self, values: &[f64]) {
        self.ring.back_mut().expect("a current slice").add(values);
    }

    /// Closes the current slice; the oldest leaves once the ring is full.
    pub fn advance(&mut self) {
        self.ring.push_back(Counts1D::new());
        if self.ring.len() > self.slices {
            self.ring.pop_front();
        }
    }

    pub fn current_rows(&self) -> u64 {
        self.ring.back().expect("a current slice").rows
    }

    pub fn live(&self) -> Counts1D {
        let mut total = Counts1D::new();
        for slice in &self.ring {
            total.add_counts(slice);
        }
        total
    }
}

/// Row counts per 2-D cell, row-major in `x`.
pub struct Counts2D {
    cells: Vec<u64>,
    pub rows: u64,
}

impl Counts2D {
    pub fn new() -> Self {
        Self {
            cells: vec![0; EDGES_2D * EDGES_2D],
            rows: 0,
        }
    }

    pub fn add(&mut self, pairs: &[(f64, f64)]) {
        for &(x, y) in pairs {
            self.cells[cell(x, EDGES_2D) * EDGES_2D + cell(y, EDGES_2D)] += 1;
        }
        self.rows += pairs.len() as u64;
    }

    /// 2-D prefix sums over `(EDGES_2D + 1)²` corners.
    pub fn prefix(&self) -> Vec<u64> {
        let side = EDGES_2D + 1;
        let mut prefix = vec![0u64; side * side];
        for i in 0..EDGES_2D {
            for j in 0..EDGES_2D {
                prefix[(i + 1) * side + j + 1] = self.cells[i * EDGES_2D + j]
                    + prefix[i * side + j + 1]
                    + prefix[(i + 1) * side + j]
                    - prefix[i * side + j];
            }
        }
        prefix
    }
}

/// Rows inside the rectangle of corner indices `[x0, x1) × [y0, y1)`.
pub fn rect_rows(prefix: &[u64], r: &Rect) -> u64 {
    let side = EDGES_2D + 1;
    prefix[r.x1 * side + r.y1] + prefix[r.x0 * side + r.y0]
        - prefix[r.x0 * side + r.y1]
        - prefix[r.x1 * side + r.y0]
}

/// A range query between two 1-D edge indices, `lo < hi`.
#[derive(Clone, Copy, Debug)]
pub struct Range {
    pub lo: usize,
    pub hi: usize,
}

impl Range {
    pub fn bounds(&self) -> (f64, f64) {
        (edge(self.lo, EDGES_1D), edge(self.hi, EDGES_1D))
    }
}

/// A rectangle query between 2-D corner indices.
#[derive(Clone, Copy, Debug)]
pub struct Rect {
    pub x0: usize,
    pub x1: usize,
    pub y0: usize,
    pub y1: usize,
}

impl Rect {
    pub fn bounds(&self) -> ((f64, f64), (f64, f64)) {
        (
            (edge(self.x0, EDGES_2D), edge(self.x1, EDGES_2D)),
            (edge(self.y0, EDGES_2D), edge(self.y1, EDGES_2D)),
        )
    }
}

/// Largest error the synopsis may show against the exact share of `n`
/// live rows, for a CDF table of `cdf_points` points per axis on `[0, 1]`
/// and inputs whose density never exceeds `density_bound`; the README
/// derives it. Each answer is a difference of two CDF values, so the
/// sampling and grid terms count twice.
pub fn tolerance(n: u64, cdf_points: usize, density_bound: f64) -> f64 {
    let n = n.max(1) as f64;
    let step = 1.0 / (cdf_points.max(2) - 1) as f64;
    // How far a CDF estimated from n dependent rows strays from the
    // sample's own cdf: the DKW band at level ALPHA, widened by the
    // standard-deviation inflation of the paper's dependent processes.
    let sampling = DEPENDENCE_INFLATION * ((2.0 / ALPHA).ln() / (2.0 * n)).sqrt();
    // Linear interpolation between table nodes misplaces at most one
    // grid step of mass at the density's bound.
    let grid = density_bound * step;
    2.0 * (sampling + grid) + SMOOTHING_ALLOWANCE
}

/// Level of the DKW band.
const ALPHA: f64 = 1e-6;
/// Standard-deviation inflation of the dependent processes relative to
/// iid rows: the Case 3 moving average `Σ a_j ξ_{t−j}` has long-run
/// variance `(Σ a_j)² / Σ a_j² = 27/5` times its variance, and
/// √5.4 ≈ 2.32.
const DEPENDENCE_INFLATION: f64 = 2.4;
/// Allowance for the smoothing of the sine–uniform marginal's jump (and
/// the wrap of the noisy diagonal) by the thresholded projection.
const SMOOTHING_ALLOWANCE: f64 = 0.01;
/// Density bound of the 1-D inputs: the sine–uniform marginal peaks at
/// 0.7 + 0.3·π/1.4 ≈ 1.37.
pub const DENSITY_BOUND_1D: f64 = 1.4;
/// Density bound of the pairs: `y` is uniform within ±0.05 of `x`, and
/// `x` is uniform, so the joint density is at most 1/0.1.
pub const DENSITY_BOUND_2D: f64 = 10.0;

/// Counts operations and their failures. A failed check marks its
/// operation as failed; `mismatches` are the failures that were wrong
/// outputs rather than errors returned by the program.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    notes: Vec<String>,
    /// Largest `|answer − exact share| / tolerance` seen.
    pub worst_ratio: f64,
}

impl Checker {
    /// One operation whose output passed (`ok`) or failed its checks.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += 1;
            self.note(what());
        }
    }

    /// One operation that returned an error.
    pub fn error(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(what);
    }

    fn note(&mut self, what: String) {
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// One answer checked against the exact share of `rows` of `n`.
    pub fn answer(&mut self, answer: f64, rows: u64, n: u64, tol: f64, what: &str) {
        let exact = rows as f64 / n.max(1) as f64;
        let err = (answer - exact).abs();
        self.worst_ratio = self.worst_ratio.max(err / tol);
        let ok = (0.0..=1.0).contains(&answer) && err <= tol;
        self.op(ok, || {
            format!("{what}: answer {answer} vs exact share {exact} (tolerance {tol})")
        });
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Tolerance of exact additivity checks (floating-point rounding only).
pub const ADDITIVITY_TOL: f64 = 1e-9;
