//! A data-center scenario (§3.1): how much energy does SUIT save across a
//! fleet, and how much aging guardband can be borrowed over a server's
//! real deployment life?
//!
//! ```sh
//! cargo run --release -p suit --example datacenter_fleet
//! ```

use suit::exec::Threads;
use suit::hw::guardband::{aging_guardband_mv, AgingModel};
use suit::hw::{CpuModel, DvfsCurve, UndervoltLevel};
use suit::sim::engine::{simulate_mixed, SimConfig};
use suit::sim::experiment::{run_row, table6_rows};
use suit::sim::fleet::{FleetConfig, FleetSim};
use suit::trace::profile;

fn main() {
    // --- Borrowable aging guardband over a 5-year deployment ------------
    let aging = AgingModel::default();
    let curve = DvfsCurve::i9_9900k();
    println!(
        "Aging guardband of the modelled CPU: {:.0} mV (§5.6: 137 mV)\n",
        aging_guardband_mv(&curve)
    );
    println!(
        "{:>6} {:>10} {:>16} {:>22}",
        "year", "temp (C)", "unused fraction", "borrowable (80% reserve)"
    );
    for year in [0.0, 1.0, 3.0, 5.0] {
        let unused = aging.unused_fraction(year, 60.0);
        let borrow = aging.borrowable_mv(&curve, year, 60.0, 0.8);
        println!(
            "{year:>6} {:>10} {:>15.1}% {:>21.1} mV",
            60,
            unused * 100.0,
            borrow
        );
    }
    println!(
        "\nAWS-style 5-year deployments at controlled temperatures never consume\n\
         the 10-year worst-case guardband, which funds the extra −27 mV of the\n\
         paper's −97 mV offset.\n"
    );

    // --- Fleet-level energy accounting -----------------------------------
    // A room of Xeon 4208 racks under the discrete-event fleet engine:
    // per-rack cooling and age shape each rack's realized Vmin curve,
    // and the thermal governors re-decide the safe offset every epoch.
    let fleet = FleetSim::new(FleetConfig {
        racks: 8,
        domains_per_rack: 8,
        cores_per_domain: 4,
        epochs: 6,
        epoch_insts: 50_000_000,
        rack_age_years: vec![0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        workloads: vec!["502.gcc".into(), "557.xz".into(), "520.omnetpp".into()],
        ..FleetConfig::default()
    })
    .expect("valid fleet scenario");
    let result = fleet.run(Threads::Auto);
    print!("{}", result.render());

    const SERVERS: f64 = 1_000.0;
    const WATTS_PER_SERVER: f64 = 85.0; // Xeon 4208 TDP
    const HOURS_PER_YEAR: f64 = 8_766.0;
    let baseline_mwh = SERVERS * WATTS_PER_SERVER * HOURS_PER_YEAR / 1e6;
    let saved_mwh = baseline_mwh * (-result.power());

    println!(
        "\nScaled to {SERVERS:.0} {} servers:",
        CpuModel::xeon_4208().name
    );
    println!("  baseline energy:       {baseline_mwh:.0} MWh/year");
    println!("  energy saved by SUIT:  {saved_mwh:.0} MWh/year");

    // The consolidation knob: parking domains cools the racks, which
    // deepens the undervolt the governors allow on what remains.
    println!("\nConsolidation (utilization sweep, same fleet):");
    for util in [1.0, 0.75, 0.5, 0.25] {
        let sim = FleetSim::new(FleetConfig {
            utilization: util,
            ..fleet.config().clone()
        })
        .expect("valid");
        let r = sim.run(Threads::Auto);
        let deep: u64 = r.racks.iter().map(|x| x.deep_slices).sum();
        let slices: u64 = r.racks.iter().map(|x| x.slices).sum();
        println!(
            "  util {:>4.0}%: {:>4} active domains, eff {:+.2}%, deep-offset slices {:>3.0}%",
            util * 100.0,
            r.active_domains,
            r.efficiency() * 100.0,
            100.0 * deep as f64 / slices.max(1) as f64
        );
    }

    // The paper's Table 6 gmean for the same machine class, as the
    // per-workload cross-check of the fleet numbers above.
    let spec = &table6_rows()[5]; // C-inf fV
    let row = run_row(
        spec,
        UndervoltLevel::Mv97,
        Some(2_000_000_000),
        Threads::Auto,
    );
    let g = row.spec_gmean();
    println!(
        "\nTable 6 cross-check (C fV, SPEC gmean): perf {:+.1}%  power {:+.1}%  eff {:+.1}%",
        g.perf * 100.0,
        g.power * 100.0,
        g.eff * 100.0
    );

    // Multi-core consolidation caveat (§6.4): on a single shared DVFS
    // domain the gain shrinks with utilised cores.
    println!("\nShared-domain caveat (i9-9900K class, fV at -97 mV):");
    for (label, idx) in [("1 core", 0usize), ("4 cores", 1)] {
        let row = run_row(
            &table6_rows()[idx],
            UndervoltLevel::Mv97,
            Some(1_000_000_000),
            Threads::Auto,
        );
        println!(
            "  {:>7}: efficiency {:+.1} % (residency {:.0} %)",
            label,
            row.spec_gmean().eff * 100.0,
            row.spec_residency_mean() * 100.0
        );
    }
    println!("\nPer-core DVFS domains (CPU C) keep the full gain — the paper's hardware\nrecommendation for SUIT.");

    // --- Consolidated workload mixes on one shared domain -----------------
    println!("\nConsolidation mixes on the i9-9900K's shared domain (fV, -97 mV):");
    let cpu = CpuModel::i9_9900k();
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(1_000_000_000);
    for name in profile::MIX_NAMES {
        let workloads = profile::mix(name).expect("known mix");
        let m = simulate_mixed(&cpu, &workloads, &cfg);
        println!(
            "  {:<10} residency {:>5.1}%  power {:+.1}%  eff {:+.1}%",
            name,
            m.domain.residency() * 100.0,
            m.domain.power() * 100.0,
            m.domain.efficiency() * 100.0
        );
    }
    println!("\nMixes with a bursty member (webserver's Nginx/omnetpp) drag the shared\ndomain conservative; homogeneous quiet mixes keep most of the gain.");
}
