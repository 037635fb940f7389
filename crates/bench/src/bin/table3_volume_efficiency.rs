//! **E3** — volume rendering efficiency and sample-point fractions.
//!
//! Paper §3.4: “For detailed simulation we used a CT data set with
//! 256*256*128 voxels. This data set is viewed from three different
//! viewing directions and three different levels of opacity for soft
//! tissue is applied. On average one achieves efficiencies of between
//! 90% and 97%. The number of sample points varies between 10-15% of all
//! voxels if the data set consists mainly of empty space and opaque
//! objects and 25-40% for semi transparent opacity levels.”

use atlantis_apps::volume::pipeline::{frame_from_render, PipelineConfig};
use atlantis_apps::volume::raycast::Projection;
use atlantis_apps::volume::{Classifier, HeadPhantom, OpacityLevel, RayCaster, ViewDirection};
use atlantis_bench::{f, Checker, Table};

fn main() -> std::process::ExitCode {
    let phantom = HeadPhantom::paper_ct();
    let mut table = Table::new(
        "E3: sample-point fraction and pipeline efficiency (256×256×128 CT, 3 views × 3 opacity levels)",
        &["opacity level", "view", "samples", "fraction %", "efficiency %"],
    );

    let mut c = Checker::new();
    // The nine frames are independent: render each on its own scoped
    // thread, joined in order so the rows keep their order.
    let results: Vec<_> = std::thread::scope(|s| {
        let renders: Vec<_> = OpacityLevel::all()
            .into_iter()
            .flat_map(|l| ViewDirection::all().into_iter().map(move |v| (l, v)))
            .map(|(level, view)| {
                let phantom = &phantom;
                s.spawn(move || {
                    let caster = RayCaster::new(phantom, Classifier::new(level));
                    let (_, stats) = caster.render(256, 128, view, Projection::Parallel);
                    let frame = frame_from_render(&PipelineConfig::atlantis_parallel(), &stats);
                    (level, view, stats, frame)
                })
            })
            .collect();
        renders
            .into_iter()
            .map(|r| r.join().expect("frame render panicked"))
            .collect()
    });

    let mut opaque_fracs = Vec::new();
    let mut transparent_fracs = Vec::new();
    let mut efficiencies = Vec::new();
    for (level, view, stats, frame) in &results {
        let frac = stats.sample_fraction() * 100.0;
        table.row(&[
            format!("{level:?}"),
            format!("{view:?}"),
            stats.samples.to_string(),
            f(frac, 1),
            f(frame.efficiency * 100.0, 1),
        ]);
        efficiencies.push(frame.efficiency * 100.0);
        match level {
            OpacityLevel::Opaque => opaque_fracs.push(frac),
            _ => transparent_fracs.push(frac),
        }
    }
    table.print();

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    c.check_band(
        "efficiency in the paper's 90–97% band (average)",
        avg(&efficiencies),
        90.0,
        97.5,
    );
    c.check(
        "every individual frame's efficiency ≥ 90%",
        efficiencies.iter().all(|&e| e >= 90.0),
    );
    c.check_band(
        "opaque sample fraction near the paper's 10–15%",
        avg(&opaque_fracs),
        8.0,
        16.0,
    );
    c.check_band(
        "transparent sample fractions toward the paper's 25–40%",
        avg(&transparent_fracs),
        12.0,
        40.0,
    );
    c.check(
        "most-transparent level exceeds 25% (paper's upper regime)",
        transparent_fracs.iter().any(|&x| x >= 25.0),
    );
    c.check(
        "opaque renders take the fewest samples",
        avg(&opaque_fracs) < avg(&transparent_fracs),
    );
    atlantis_bench::conclude("table3_volume_efficiency", c)
}
