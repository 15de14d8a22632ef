//! Fluid-model phase portrait (the Figure 3 analysis) rendered as ASCII:
//! trajectories of (window, inflight) for the three control-law families.
//!
//! ```sh
//! cargo run --release --example fluid_phase
//! ```

use fluid_model::{analytic_equilibrium, inflight, phase_portrait_grid, FluidParams, Law, State};

/// Render trajectories on a log-log grid of (window, inflight).
fn render(law: Law, p: &FluidParams) {
    const W: usize = 64;
    const H: usize = 20;
    let (lo, hi) = (3.5f64, 6.5f64); // log10 bytes: ~3 KB .. ~3 MB
    let mut grid = vec![vec![' '; W]; H];
    let to_cell = |w: f64, inf: f64| -> Option<(usize, usize)> {
        let x = (w.log10() - lo) / (hi - lo);
        let y = (inf.log10() - lo) / (hi - lo);
        if !(0.0..1.0).contains(&x) || !(0.0..1.0).contains(&y) {
            return None;
        }
        Some((
            ((1.0 - y) * (H - 1) as f64).round() as usize,
            (x * (W - 1) as f64).round() as usize,
        ))
    };
    // BDP line (inflight == BDP).
    if let Some((row, _)) = to_cell(p.bdp(), p.bdp()) {
        for c in grid[row].iter_mut() {
            *c = '·';
        }
    }
    let starts = [
        State {
            w: 12_500.0,
            q: 0.0,
        },
        State {
            w: 75_000.0,
            q: 250_000.0,
        },
        State {
            w: 500_000.0,
            q: 0.0,
        },
        State {
            w: 1_000_000.0,
            q: 500_000.0,
        },
    ];
    for (t, s0) in phase_portrait_grid(law, p, &starts).into_iter().zip(starts) {
        for &(w, inf) in &t.points {
            if let Some((r, c)) = to_cell(w, inf) {
                grid[r][c] = '*';
            }
        }
        if let Some((r, c)) = to_cell(s0.w, inflight(p, s0)) {
            grid[r][c] = 'o';
        }
        if let Some((r, c)) = to_cell(t.end.w, inflight(p, t.end)) {
            grid[r][c] = 'X';
        }
    }
    println!("\n== {} ==  (o = start, X = end, · = BDP line)", law.name());
    for row in grid {
        println!("  {}", row.into_iter().collect::<String>());
    }
}

fn main() {
    let p = FluidParams::paper_example();
    let eq = analytic_equilibrium(&p);
    println!(
        "100 Gbps bottleneck, τ = 20 µs, BDP = {:.0} KB; analytic equilibrium w = {:.0} KB, q = {:.0} KB",
        p.bdp() / 1e3,
        eq.w / 1e3,
        eq.q / 1e3
    );
    for law in [Law::QueueLength, Law::RttGradient, Law::Power] {
        render(law, &p);
    }
    println!(
        "\nExpected shape (paper Fig. 3): voltage law — one X but trajectories \
         dip below the BDP line;\ngradient law — multiple X endpoints; power law \
         — every start converges straight to one X."
    );
}
