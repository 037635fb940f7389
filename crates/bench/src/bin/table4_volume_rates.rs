//! **E4** — volume rendering frame rates.
//!
//! Paper §3.4: “The above results correspond to rendering rates from
//! 20 Hz on semi-transparent data sets to 138 Hz for opaque objects and
//! parallel projection. The results are achieved from images of size
//! 256*128. Perspective views reduce the rendering speed by a factor of
//! about 2.” FPGA clock “>25 MHz”.

use atlantis_apps::volume::pipeline::{frame_from_render, PipelineConfig};
use atlantis_apps::volume::raycast::Projection;
use atlantis_apps::volume::{Classifier, HeadPhantom, OpacityLevel, RayCaster, ViewDirection};
use atlantis_bench::{f, Checker, Table};

fn main() -> std::process::ExitCode {
    let phantom = HeadPhantom::paper_ct();
    let mut table = Table::new(
        "E4: rendering rates at 25 MHz, 256×128 images (paper: 20 Hz semi-transparent … 138 Hz opaque/parallel; perspective ≈2× slower)",
        &["opacity level", "view", "projection", "cycles", "rate (Hz)"],
    );

    let mut best_opaque: f64 = 0.0;
    let mut worst_transparent = f64::INFINITY;
    // Nine independent frames: render each on its own scoped thread,
    // joined in order so the rows keep their order.
    let frames: Vec<_> = std::thread::scope(|s| {
        let renders: Vec<_> = OpacityLevel::all()
            .into_iter()
            .flat_map(|l| ViewDirection::all().into_iter().map(move |v| (l, v)))
            .map(|(level, view)| {
                let phantom = &phantom;
                s.spawn(move || {
                    let caster = RayCaster::new(phantom, Classifier::new(level));
                    let (_, stats) = caster.render(256, 128, view, Projection::Parallel);
                    (
                        level,
                        view,
                        frame_from_render(&PipelineConfig::atlantis_parallel(), &stats),
                    )
                })
            })
            .collect();
        renders
            .into_iter()
            .map(|r| r.join().expect("frame render panicked"))
            .collect()
    });
    let mut rates = Vec::new();
    for (level, view, frame) in &frames {
        table.row(&[
            format!("{level:?}"),
            format!("{view:?}"),
            "parallel".into(),
            frame.cycles.to_string(),
            f(frame.frame_rate, 1),
        ]);
        rates.push((*level, frame.frame_rate));
        if *level == OpacityLevel::Opaque {
            best_opaque = best_opaque.max(frame.frame_rate);
        }
        if *level == OpacityLevel::MostlyTransparent {
            worst_transparent = worst_transparent.min(frame.frame_rate);
        }
    }

    // Perspective at the opaque level, diagonal view.
    let caster = RayCaster::new(&phantom, Classifier::new(OpacityLevel::Opaque));
    let (_, par) = caster.render(256, 128, ViewDirection::Diagonal, Projection::Parallel);
    let (_, per) = caster.render(256, 128, ViewDirection::Diagonal, Projection::Perspective);
    let f_par = frame_from_render(&PipelineConfig::atlantis_parallel(), &par);
    let f_per = frame_from_render(&PipelineConfig::atlantis_perspective(), &per);
    table.row(&[
        "Opaque".into(),
        "Diagonal".into(),
        "perspective".into(),
        f_per.cycles.to_string(),
        f(f_per.frame_rate, 1),
    ]);
    table.print();

    let mut c = Checker::new();
    c.check_band(
        "fastest opaque/parallel rate near the paper's 138 Hz",
        best_opaque,
        90.0,
        230.0,
    );
    c.check_band(
        "slowest transparent rate near the paper's 20 Hz",
        worst_transparent,
        15.0,
        45.0,
    );
    c.check(
        "the paper's dynamic range (≈7×) between settings is reproduced",
        best_opaque / worst_transparent >= 4.0,
    );
    c.check_band(
        "perspective is about 2× slower",
        f_par.frame_rate / f_per.frame_rate,
        1.5,
        2.5,
    );
    // For each view, increasing transparency must decrease the rate.
    // rates is ordered [level-major][view-minor] with 3 views.
    let per_view_ordered = (0..3).all(|v| {
        let opq = rates[v].1;
        let semi = rates[3 + v].1;
        let most = rates[6 + v].1;
        opq > semi && semi > most
    });
    c.check(
        "rates fall with transparency within every view",
        per_view_ordered,
    );
    atlantis_bench::conclude("table4_volume_rates", c)
}
