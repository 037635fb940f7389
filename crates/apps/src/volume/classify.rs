//! Classification: density → opacity and emission.
//!
//! §3.4: the CT data set “is viewed from three different viewing
//! directions and three different levels of opacity for soft tissue is
//! applied”. Bone (the skull shell) is always nearly opaque; the three
//! levels vary how much the soft tissue contributes — which controls how
//! deep rays penetrate, and with it every statistic of Table E3/E4.

/// The three soft-tissue opacity levels of §3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpacityLevel {
    /// Soft tissue fully transparent: only hard surfaces render
    /// (“opaque objects”, the fast end of the range).
    Opaque,
    /// Soft tissue mildly visible.
    SemiTransparent,
    /// Soft tissue barely attenuates: rays traverse nearly the whole
    /// head (the slow end, ~20 Hz).
    MostlyTransparent,
}

impl OpacityLevel {
    /// All three levels, in the order §3.4 sweeps them.
    pub fn all() -> [OpacityLevel; 3] {
        [
            OpacityLevel::Opaque,
            OpacityLevel::SemiTransparent,
            OpacityLevel::MostlyTransparent,
        ]
    }
}

/// A transfer function mapping density (and gradient) to optical
/// properties.
#[derive(Debug, Clone, Copy)]
pub struct Classifier {
    level: OpacityLevel,
    /// Density at which bone starts.
    pub bone_threshold: f32,
    /// Density at which soft tissue starts.
    pub tissue_threshold: f32,
}

impl Classifier {
    /// The classifier for one of the paper's levels.
    pub fn new(level: OpacityLevel) -> Self {
        Classifier {
            level,
            bone_threshold: 180.0,
            tissue_threshold: 50.0,
        }
    }

    /// The level in effect.
    pub fn level(&self) -> OpacityLevel {
        self.level
    }

    /// Per-sample opacity in `[0, 1]`.
    ///
    /// The three levels scale the whole transfer function: at the opaque
    /// setting bone is a hard surface; at the transparent settings rays
    /// see *through* the anatomy (the paper's semi-transparent renderings
    /// show interior structure), so both bone and tissue attenuate less.
    pub fn opacity(&self, density: f32) -> f32 {
        if density >= self.bone_threshold {
            match self.level {
                OpacityLevel::Opaque => 0.92,
                OpacityLevel::SemiTransparent => 0.28,
                OpacityLevel::MostlyTransparent => 0.08,
            }
        } else if density >= self.tissue_threshold {
            match self.level {
                OpacityLevel::Opaque => 0.0,
                OpacityLevel::SemiTransparent => 0.050,
                OpacityLevel::MostlyTransparent => 0.012,
            }
        } else {
            0.0
        }
    }

    /// Emission (shading input) per sample: brighter for denser material,
    /// modulated by gradient magnitude so surfaces pop (§3.2's
    /// “reflectivity according to gray values and gradient magnitude”).
    pub fn emission(&self, density: f32, gradient_mag: f32) -> f32 {
        let base = (density / 255.0).clamp(0.0, 1.0);
        let surface = (gradient_mag / 128.0).clamp(0.0, 1.0);
        0.4 * base + 0.6 * surface
    }

    /// True when a region whose maximum density is `max_density` can be
    /// skipped outright — the empty-space criterion. The block table is
    /// precomputed per *data set*, not per transfer function, so the
    /// criterion is density-based: only genuinely empty space (below the
    /// tissue threshold) is skippable.
    pub fn region_empty(&self, max_density: f32) -> bool {
        max_density < self.tissue_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bone_opacity_orders_the_levels() {
        let o = Classifier::new(OpacityLevel::Opaque).opacity(220.0);
        let s = Classifier::new(OpacityLevel::SemiTransparent).opacity(220.0);
        let m = Classifier::new(OpacityLevel::MostlyTransparent).opacity(220.0);
        assert!(o > 0.9, "hard surface at the opaque level");
        assert!(
            o > s && s > m && m > 0.0,
            "levels scale bone too: {o} {s} {m}"
        );
    }

    #[test]
    fn air_contributes_nothing() {
        for level in OpacityLevel::all() {
            let c = Classifier::new(level);
            assert_eq!(c.opacity(0.0), 0.0);
            assert!(c.region_empty(10.0));
        }
    }

    #[test]
    fn tissue_opacity_orders_the_levels() {
        let o = Classifier::new(OpacityLevel::Opaque).opacity(90.0);
        let s = Classifier::new(OpacityLevel::SemiTransparent).opacity(90.0);
        let m = Classifier::new(OpacityLevel::MostlyTransparent).opacity(90.0);
        assert_eq!(o, 0.0, "opaque level ignores soft tissue");
        assert!(s > m && m > 0.0, "semi {s} > mostly {m} > 0");
    }

    #[test]
    fn only_true_empty_space_is_skippable() {
        for level in OpacityLevel::all() {
            let c = Classifier::new(level);
            assert!(c.region_empty(30.0), "air/cavity skippable at {level:?}");
            assert!(
                !c.region_empty(100.0),
                "tissue never skippable at {level:?}"
            );
        }
    }

    #[test]
    fn emission_rewards_gradients() {
        let c = Classifier::new(OpacityLevel::Opaque);
        let flat = c.emission(200.0, 0.0);
        let edge = c.emission(200.0, 120.0);
        assert!(edge > flat);
        assert!(edge <= 1.0);
    }
}
