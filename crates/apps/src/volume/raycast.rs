//! The functional ray caster with the paper's two algorithmic
//! optimizations: empty-space skipping and early ray termination.
//!
//! The caster is instrumented to report exactly the quantities §3.4
//! quotes: the number of sample points as a fraction of candidate
//! positions, and per-ray sample counts, which feed the FPGA pipeline
//! model in [`pipeline`](super::pipeline).

use super::classify::Classifier;
use super::image::GrayImage;
use super::phantom::DensityField;

/// Edge length of the skip blocks (8³ voxels per block).
pub const BLOCK: u32 = 8;

/// The three viewing directions of §3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewDirection {
    /// Along +z (axial).
    AxisZ,
    /// Along +x (lateral).
    AxisX,
    /// The (1, 1, 1) diagonal.
    Diagonal,
}

impl ViewDirection {
    /// All three directions.
    pub fn all() -> [ViewDirection; 3] {
        [
            ViewDirection::AxisZ,
            ViewDirection::AxisX,
            ViewDirection::Diagonal,
        ]
    }

    /// Unit direction vector.
    pub fn dir(self) -> [f32; 3] {
        match self {
            ViewDirection::AxisZ => [0.0, 0.0, 1.0],
            ViewDirection::AxisX => [1.0, 0.0, 0.0],
            ViewDirection::Diagonal => {
                let k = 1.0 / 3f32.sqrt();
                [k, k, k]
            }
        }
    }
}

/// Parallel or perspective projection (§3.4: “Perspective views reduce
/// the rendering speed by a factor of about 2”).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// Orthographic.
    Parallel,
    /// Pin-hole perspective.
    Perspective,
}

/// Statistics of one rendered frame.
#[derive(Debug, Clone, Default)]
pub struct RenderStats {
    /// Rays cast (image pixels).
    pub rays: u64,
    /// Tri-linear sample points actually evaluated.
    pub samples: u64,
    /// Sample positions skipped by empty-space skipping.
    pub skipped: u64,
    /// Sample positions avoided by early ray termination.
    pub terminated_early_saved: u64,
    /// Candidate sample positions (full traversal, no optimizations).
    pub candidates: u64,
    /// Rays that terminated early.
    pub early_terminations: u64,
    /// Per-ray evaluated-sample counts (input to the pipeline model).
    pub samples_per_ray: Vec<u32>,
}

impl RenderStats {
    /// Sample points as a fraction of candidate positions — the §3.4
    /// “number of sample points varies between …% of all voxels” metric.
    pub fn sample_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.samples as f64 / self.candidates as f64
        }
    }

    /// Fraction of work avoided by the two optimizations together.
    pub fn work_avoided(&self) -> f64 {
        1.0 - self.sample_fraction()
    }
}

/// Min/max block table for empty-space skipping.
#[derive(Debug, Clone)]
pub struct BlockTable {
    bx: u32,
    by: u32,
    bz: u32,
    max: Vec<u8>,
}

impl BlockTable {
    /// Precompute block maxima for a field (a preprocessing pass the
    /// renderer hardware would run once per data set).
    pub fn build(field: &dyn DensityField) -> Self {
        let (nx, ny, nz) = field.dims();
        let bx = nx.div_ceil(BLOCK);
        let by = ny.div_ceil(BLOCK);
        let bz = nz.div_ceil(BLOCK);
        let mut max = vec![0u8; (bx * by * bz) as usize];
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let d = field.at(x as i32, y as i32, z as i32);
                    let idx = (((z / BLOCK) * by + y / BLOCK) * bx + x / BLOCK) as usize;
                    if d > max[idx] {
                        max[idx] = d;
                    }
                }
            }
        }
        BlockTable { bx, by, bz, max }
    }

    /// Maximum density in the block containing voxel `(x, y, z)`
    /// (positions outside the volume report 0).
    pub fn max_at(&self, x: f32, y: f32, z: f32) -> u8 {
        if x < 0.0 || y < 0.0 || z < 0.0 {
            return 0;
        }
        let (bx, by, bz) = (x as u32 / BLOCK, y as u32 / BLOCK, z as u32 / BLOCK);
        if bx >= self.bx || by >= self.by || bz >= self.bz {
            return 0;
        }
        self.max[((bz * self.by + by) * self.bx + bx) as usize]
    }
}

/// The renderer.
pub struct RayCaster<'a> {
    field: &'a dyn DensityField,
    classifier: Classifier,
    blocks: BlockTable,
    /// Sampling step along the ray in voxels.
    pub step: f32,
    /// Early-termination threshold on remaining transmittance
    /// (“processing is aborted as soon as the remaining intensity drops
    /// under an adjustable threshold”).
    pub termination: f32,
    /// Ablation switch: disable empty-space skipping (every in-volume
    /// position is sampled).
    pub enable_skipping: bool,
    /// Ablation switch: disable early ray termination.
    pub enable_termination: bool,
}

impl<'a> RayCaster<'a> {
    /// A caster over `field` with the given classification.
    pub fn new(field: &'a dyn DensityField, classifier: Classifier) -> Self {
        let blocks = BlockTable::build(field);
        RayCaster {
            field,
            classifier,
            blocks,
            step: 1.0,
            termination: 0.05,
            enable_skipping: true,
            enable_termination: true,
        }
    }

    /// The unoptimized baseline renderer: no skipping, no termination —
    /// “volume rendering without algorithmic optimizations” (§3.2).
    pub fn unoptimized(field: &'a dyn DensityField, classifier: Classifier) -> Self {
        let mut c = Self::new(field, classifier);
        c.enable_skipping = false;
        c.enable_termination = false;
        c
    }

    /// The classifier in use.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Render a `width × height` image from a view direction.
    pub fn render(
        &self,
        width: u32,
        height: u32,
        view: ViewDirection,
        projection: Projection,
    ) -> (GrayImage, RenderStats) {
        let (nx, ny, nz) = self.field.dims();
        let dims = [nx as f32, ny as f32, nz as f32];
        let centre = [dims[0] / 2.0, dims[1] / 2.0, dims[2] / 2.0];
        let d = view.dir();
        // An orthonormal basis (u, v) perpendicular to d.
        let up = if d[2].abs() < 0.9 {
            [0.0, 0.0, 1.0]
        } else {
            [0.0, 1.0, 0.0]
        };
        let u = normalize(cross(up, d));
        let v = cross(d, u);
        let diag = (dims[0] * dims[0] + dims[1] * dims[1] + dims[2] * dims[2]).sqrt();
        // Frame the image tightly: the plane spans the volume's projected
        // extent along each image axis, so rays are not wasted on empty
        // screen (the hardware's view setup does the same).
        let extent = |axis: [f32; 3]| {
            axis[0].abs() * dims[0] + axis[1].abs() * dims[1] + axis[2].abs() * dims[2]
        };
        let su = extent(u) / width as f32;
        let sv = extent(v) / height as f32;
        let eye_dist = 1.6 * diag;

        let mut img = GrayImage::new(width, height);
        let mut stats = RenderStats {
            samples_per_ray: Vec::with_capacity((width * height) as usize),
            ..Default::default()
        };

        for py in 0..height {
            for px in 0..width {
                let fu = (px as f32 + 0.5 - width as f32 / 2.0) * su;
                let fv = (py as f32 + 0.5 - height as f32 / 2.0) * sv;
                let (origin, dir) = match projection {
                    Projection::Parallel => {
                        let o = [
                            centre[0] + fu * u[0] + fv * v[0] - d[0] * diag,
                            centre[1] + fu * u[1] + fv * v[1] - d[1] * diag,
                            centre[2] + fu * u[2] + fv * v[2] - d[2] * diag,
                        ];
                        (o, d)
                    }
                    Projection::Perspective => {
                        let eye = [
                            centre[0] - d[0] * eye_dist,
                            centre[1] - d[1] * eye_dist,
                            centre[2] - d[2] * eye_dist,
                        ];
                        // Image plane at the volume centre, framed like
                        // the parallel view.
                        let target = [
                            centre[0] + 0.9 * (fu * u[0] + fv * v[0]),
                            centre[1] + 0.9 * (fu * u[1] + fv * v[1]),
                            centre[2] + 0.9 * (fu * u[2] + fv * v[2]),
                        ];
                        let dir =
                            normalize([target[0] - eye[0], target[1] - eye[1], target[2] - eye[2]]);
                        (eye, dir)
                    }
                };
                let value = self.cast(origin, dir, dims, &mut stats);
                img.set(px, py, value);
            }
        }
        stats.rays = (width * height) as u64;
        (img, stats)
    }

    /// Cast one ray; returns the composited intensity.
    fn cast(&self, o: [f32; 3], d: [f32; 3], dims: [f32; 3], stats: &mut RenderStats) -> f32 {
        let Some((t0, t1)) = slab_clip(o, d, dims) else {
            stats.samples_per_ray.push(0);
            return 0.0;
        };
        let candidates = ((t1 - t0) / self.step).max(0.0) as u64;
        stats.candidates += candidates;

        let mut t = t0;
        let mut trans = 1.0f32;
        let mut colour = 0.0f32;
        let mut samples_this_ray = 0u32;
        while t < t1 {
            let p = [o[0] + d[0] * t, o[1] + d[1] * t, o[2] + d[2] * t];
            // Empty-space skipping at block granularity.
            let bmax = self.blocks.max_at(p[0], p[1], p[2]);
            if self.enable_skipping && self.classifier.region_empty(bmax as f32) {
                let t_exit = block_exit(p, d, t);
                let skipped = ((t_exit - t) / self.step).max(1.0) as u64;
                stats.skipped += skipped.min(candidates);
                t += skipped as f32 * self.step;
                continue;
            }
            let density = self.field.sample(p[0], p[1], p[2]);
            let grad = self
                .field
                .gradient_mag(p[0] as i32, p[1] as i32, p[2] as i32);
            stats.samples += 1;
            samples_this_ray += 1;
            let op = self.classifier.opacity(density);
            if op > 0.0 {
                colour += trans * op * self.classifier.emission(density, grad);
                trans *= 1.0 - op;
                if self.enable_termination && trans < self.termination {
                    stats.early_terminations += 1;
                    let remaining = ((t1 - t) / self.step).max(0.0) as u64;
                    stats.terminated_early_saved += remaining;
                    break;
                }
            }
            t += self.step;
        }
        stats.samples_per_ray.push(samples_this_ray);
        colour.clamp(0.0, 1.0)
    }
}

fn cross(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn normalize(a: [f32; 3]) -> [f32; 3] {
    let n = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
    [a[0] / n, a[1] / n, a[2] / n]
}

/// Clip a ray against the volume bounding box; returns `(t_entry, t_exit)`.
fn slab_clip(o: [f32; 3], d: [f32; 3], dims: [f32; 3]) -> Option<(f32, f32)> {
    let mut t0 = 0.0f32;
    let mut t1 = f32::INFINITY;
    for axis in 0..3 {
        if d[axis].abs() < 1e-6 {
            if o[axis] < 0.0 || o[axis] > dims[axis] {
                return None;
            }
            continue;
        }
        let inv = 1.0 / d[axis];
        let (mut a, mut b) = ((0.0 - o[axis]) * inv, (dims[axis] - o[axis]) * inv);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        t0 = t0.max(a);
        t1 = t1.min(b);
    }
    (t0 < t1).then_some((t0, t1))
}

/// The ray parameter at which the ray leaves the skip block containing
/// the point at parameter `t`.
fn block_exit(p: [f32; 3], d: [f32; 3], t: f32) -> f32 {
    let mut t_exit = f32::INFINITY;
    for axis in 0..3 {
        if d[axis].abs() < 1e-6 {
            continue;
        }
        let b = (p[axis] / BLOCK as f32).floor() * BLOCK as f32;
        let bound = if d[axis] > 0.0 { b + BLOCK as f32 } else { b };
        let dt = (bound - p[axis]) / d[axis];
        if dt > 0.0 {
            t_exit = t_exit.min(t + dt);
        }
    }
    if t_exit.is_finite() {
        t_exit
    } else {
        t + 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::classify::OpacityLevel;
    use crate::volume::phantom::HeadPhantom;

    fn small_render(level: OpacityLevel) -> (GrayImage, RenderStats) {
        let phantom = HeadPhantom::with_dims(64, 64, 32);
        let caster = RayCaster::new(&phantom, Classifier::new(level));
        caster.render(64, 32, ViewDirection::AxisZ, Projection::Parallel)
    }

    #[test]
    fn renders_something_nonzero() {
        let (img, stats) = small_render(OpacityLevel::Opaque);
        assert!(stats.samples > 0);
        let lit = img.pixels().iter().filter(|&&p| p > 0.05).count();
        assert!(lit > 50, "the skull must be visible: {lit} lit pixels");
    }

    #[test]
    fn corners_are_dark_centre_is_lit() {
        let (img, _) = small_render(OpacityLevel::Opaque);
        assert!(img.get(0, 0) < 0.01, "empty corner");
        assert!(img.get(32, 16) > 0.0, "head centre pixel");
    }

    #[test]
    fn skipping_avoids_most_empty_space_at_opaque_level() {
        let (_, stats) = small_render(OpacityLevel::Opaque);
        let frac = stats.sample_fraction();
        // The 8³ skip blocks are coarse relative to this 64×64×32 test
        // volume; at the paper's 256×256×128 the fraction is ~0.10
        // (asserted in the integration tests and the table harness).
        assert!(
            frac < 0.55,
            "optimizations must avoid most work on hard-surface data: {frac:.2}"
        );
        assert!(stats.skipped > 0, "space skipping engaged");
        assert!(stats.early_terminations > 0, "early termination engaged");
    }

    #[test]
    fn transparency_increases_sample_counts() {
        let (_, opaque) = small_render(OpacityLevel::Opaque);
        let (_, semi) = small_render(OpacityLevel::SemiTransparent);
        let (_, most) = small_render(OpacityLevel::MostlyTransparent);
        assert!(semi.samples > opaque.samples);
        // At this miniature scale the two transparent levels may both
        // traverse fully; strict separation is asserted at paper scale.
        assert!(most.samples >= semi.samples);
        assert!(most.early_terminations <= semi.early_terminations);
    }

    #[test]
    fn samples_per_ray_sums_to_samples() {
        let (_, stats) = small_render(OpacityLevel::SemiTransparent);
        let sum: u64 = stats.samples_per_ray.iter().map(|&s| s as u64).sum();
        assert_eq!(sum, stats.samples);
        assert_eq!(stats.samples_per_ray.len() as u64, stats.rays);
    }

    #[test]
    fn slab_clip_basics() {
        let dims = [10.0, 10.0, 10.0];
        let hit = slab_clip([-5.0, 5.0, 5.0], [1.0, 0.0, 0.0], dims).unwrap();
        assert!((hit.0 - 5.0).abs() < 1e-4);
        assert!((hit.1 - 15.0).abs() < 1e-4);
        assert!(slab_clip([-5.0, 50.0, 5.0], [1.0, 0.0, 0.0], dims).is_none());
    }

    #[test]
    fn block_exit_advances() {
        let t = block_exit([3.0, 4.0, 5.0], [1.0, 0.0, 0.0], 0.0);
        assert!((t - 5.0).abs() < 1e-4, "exit +x face of block [0,8): {t}");
        let t = block_exit([3.0, 4.0, 5.0], [-1.0, 0.0, 0.0], 0.0);
        assert!((t - 3.0).abs() < 1e-4, "exit -x face: {t}");
    }

    #[test]
    fn perspective_casts_more_or_equal_work() {
        let phantom = HeadPhantom::with_dims(64, 64, 32);
        let caster = RayCaster::new(&phantom, Classifier::new(OpacityLevel::SemiTransparent));
        let (_, par) = caster.render(64, 32, ViewDirection::Diagonal, Projection::Parallel);
        let (_, per) = caster.render(64, 32, ViewDirection::Diagonal, Projection::Perspective);
        assert!(per.samples > 0 && par.samples > 0);
    }

    #[test]
    fn ablations_restore_full_traversal() {
        let phantom = HeadPhantom::with_dims(64, 64, 32);
        let cls = Classifier::new(OpacityLevel::Opaque);
        let optimized = RayCaster::new(&phantom, cls);
        let naive = RayCaster::unoptimized(&phantom, cls);
        let (img_o, s_o) = optimized.render(64, 32, ViewDirection::AxisZ, Projection::Parallel);
        let (img_n, s_n) = naive.render(64, 32, ViewDirection::AxisZ, Projection::Parallel);
        assert_eq!(s_n.samples, s_n.candidates, "naive samples every candidate");
        assert!(s_o.samples < s_n.samples / 2, "optimizations save >2×");
        assert_eq!(s_n.skipped, 0);
        assert_eq!(s_n.early_terminations, 0);
        // Early termination changes only invisible tail contributions:
        // images agree closely where the optimized one is lit.
        let mut max_err = 0.0f32;
        for y in 0..32 {
            for x in 0..64 {
                max_err = max_err.max((img_o.get(x, y) - img_n.get(x, y)).abs());
            }
        }
        assert!(
            max_err < 0.06,
            "visual agreement within the termination threshold: {max_err}"
        );
    }

    #[test]
    fn single_ablations_are_between_the_extremes() {
        let phantom = HeadPhantom::with_dims(64, 64, 32);
        let cls = Classifier::new(OpacityLevel::Opaque);
        let mut no_skip = RayCaster::new(&phantom, cls);
        no_skip.enable_skipping = false;
        let mut no_term = RayCaster::new(&phantom, cls);
        no_term.enable_termination = false;
        let full = RayCaster::new(&phantom, cls);
        let naive = RayCaster::unoptimized(&phantom, cls);
        let run = |c: &RayCaster| {
            c.render(64, 32, ViewDirection::AxisZ, Projection::Parallel)
                .1
                .samples
        };
        let (s_full, s_ns, s_nt, s_naive) = (run(&full), run(&no_skip), run(&no_term), run(&naive));
        assert!(s_full <= s_ns && s_ns <= s_naive);
        assert!(s_full <= s_nt && s_nt <= s_naive);
    }

    #[test]
    fn all_views_render() {
        let phantom = HeadPhantom::with_dims(32, 32, 16);
        let caster = RayCaster::new(&phantom, Classifier::new(OpacityLevel::Opaque));
        for view in ViewDirection::all() {
            let (_, stats) = caster.render(32, 16, view, Projection::Parallel);
            assert!(stats.samples > 0, "{view:?}");
        }
    }
}
