"""Multi-chip tiling: the 4x4 (16-chip) TrueNorth array board.

Demonstrates Section VII of the paper: chips tile seamlessly into 2D
arrays through merge/split boundary links.  A network is placed across
multiple (small, for demo purposes) chips; spikes route across chip
boundaries; boundary-link traffic and board/rack power projections are
reported.

Run:  python examples/multichip_tiling.py
"""

import numpy as np

from repro.analysis.report import render_table
from repro.core.builders import poisson_inputs, random_network
from repro.core.chip import ChipGeometry, Placement
from repro.experiments.future_systems import (
    BoardModel,
    human1pct_energy_ratio,
    human_scale_system,
    rat_scale_energy_ratio,
    tier_table,
)
from repro.hardware.simulator import TrueNorthSimulator
from repro.noc.mesh import board_4x4


def main() -> None:
    # --- 1. A network spanning a 2x2 array of (4x4-core demo) chips -------
    geometry = ChipGeometry(cores_x=4, cores_y=4)
    net = random_network(n_cores=64, n_axons=16, n_neurons=16,
                         connectivity=0.4, seed=3)
    strip = Placement.grid(64, geometry)
    # Re-tile the linear chip strip into a 2x2 array.
    placement = Placement(chip_x=strip.chip_x % 2, chip_y=strip.chip_x // 2,
                          x=strip.x, y=strip.y, geometry=geometry)
    sim = TrueNorthSimulator(net, placement=placement)
    ins = poisson_inputs(net, 40, 300.0, seed=9)
    rec = sim.run(40, ins)
    print(f"2x2 chip array: {net.n_cores} cores, {rec.n_spikes} spikes, "
          f"{rec.counters.hops} mesh hops, "
          f"{sim.boundary_crossings} chip-boundary crossings")

    # --- 2. Merge/split link accounting on the real 4x4 board geometry ----
    board = board_4x4()
    print(f"\n4x4 board capacity: {board.n_chips} chips = "
          f"{board.n_neurons / 1e6:.0f}M neurons, "
          f"{board.n_synapses / 1e9:.1f}B synapses (paper: 16M / 4B)")
    board.begin_tick()
    rng = np.random.default_rng(0)
    crossings = 0
    for _ in range(500):
        src = (rng.integers(0, 256), rng.integers(0, 256))
        dst = (rng.integers(0, 256), rng.integers(0, 256))
        _, c = board.deliver(tuple(map(int, src)), tuple(map(int, dst)))
        crossings += c
    traffic = board.boundary_traffic()
    print(f"500 random long-range packets: {crossings} boundary crossings, "
          f"{len(traffic)} chips carried boundary traffic")

    # --- 3. Power: the measured board and the projected hierarchy ---------
    model = BoardModel()
    print(f"\n16-chip board power: array {model.array_power_w():.2f} W + "
          f"support {model.support_power_w} W = {model.total_power_w():.2f} W "
          "(paper: 2.5 + 4.7 = 7.2 W)")

    rows = [
        [r["tier"], r["chips"], f"{r['neurons']:,}", f"{r['synapses']:,}",
         r["power_w"]]
        for r in tier_table()
    ]
    print("\n" + render_table(
        ["tier", "chips", "neurons", "synapses", "power (W)"], rows,
        title="projected system hierarchy (paper Fig. 1(h-j)):",
    ))
    print(f"\nrat-scale energy-to-solution advantage:      "
          f"{rat_scale_energy_ratio():8.0f}x (paper: 6,400x)")
    print(f"1%-human-scale energy-to-solution advantage: "
          f"{human1pct_energy_ratio():8.0f}x (paper: 128,000x)")
    h = human_scale_system()
    print(f"human-scale: {h['racks']} racks, {h['n_synapses']:.1e} synapses, "
          f"{h['power_w'] / 1e3:.0f} kW")


if __name__ == "__main__":
    main()
