//! A bottom-up tour of the CQLA machine: from individual trapped ions to a
//! running modular addition.
//!
//! ```text
//! cargo run --example machine_tour
//! ```

use cqla_repro::core::{HierarchyConfig, HierarchyStudy};
use cqla_repro::ecc::{AncillaFactory, Code};
use cqla_repro::iontrap::{TechnologyParams, TileFloorplan};
use cqla_repro::workloads::ModularAdder;

fn main() {
    let tech = TechnologyParams::projected();

    println!("== 1. The tile: ions on a trap grid ==\n");
    let plan = TileFloorplan::steane_level1();
    println!("{plan}");
    println!(
        "worst ancilla-to-data distance: {} hops; weight-7 syndrome chain: {}\n",
        plan.max_interaction_distance(),
        plan.syndrome_shuttle_cycles(7)
    );

    println!("== 2. The ancilla factories feeding error correction ==\n");
    for code in Code::ALL {
        let factory = AncillaFactory::new(code, &tech);
        println!("{factory}");
        println!(
            "  lines to feed one 9-qubit compute block: {:.1}\n",
            factory.lines_for_compute_block(9)
        );
    }

    println!("== 3. The arithmetic the machine exists to run ==\n");
    let modadd = ModularAdder::new(16, 40_503);
    println!(
        "16-bit modular adder (N = 40503): {} over {} qubits",
        modadd.circuit_ref().counts(),
        modadd.circuit_ref().num_qubits()
    );
    println!(
        "  check: (31000 + 30000) mod 40503 = {}\n",
        modadd.compute(31_000, 30_000)
    );

    println!("== 4. One 256-bit addition through the level-1 pipeline (Table 5) ==\n");
    let study = HierarchyStudy::new(&tech);
    for par_xfer in [10u32, 5, 2] {
        let r = study.evaluate(HierarchyConfig::new(Code::Steane713, 256, par_xfer, 36));
        println!(
            "{par_xfer:>2} transfer channels: L1 adder {} (compute {}, transfers {}), \
             {} fetches, hit rate {:.0}%",
            r.l1_adder_time,
            r.l1_compute_time,
            r.l1_transfer_time,
            r.fetches_per_addition,
            r.cache_hit_rate * 100.0
        );
    }
}
