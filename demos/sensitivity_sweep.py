"""Reproduce the protocol-comparison sensitivity maps.

Sweeps per-voxel sensitivity over readout intensity and MW duration at a
fixed light-sheet intensity, writes the grid as CSV plus P2 graymaps, and
prints the headline ratios.  If matplotlib is importable a PNG heatmap is
saved as well.
"""

import numpy as np

from qdmsim import default_config, evaluate_point, sweep, time_reduction_factor


def run_demo():
    cfg = default_config()
    spec = cfg.sweep_spec()
    print(f"sweeping {len(spec.i_conf_grid)} intensities x "
          f"{len(spec.t_mw_grid)} MW durations, I_LS = {spec.i_ls} mW/um^2, "
          f"t1 = {spec.t1:.0f} us")
    grid = sweep(spec)

    with open("sweep.csv", "w") as fh:
        fh.write(grid.to_csv())
    with open("sweep_ratio_conv_lc.pgm", "w") as fh:
        fh.write(grid.to_pgm("conv_lc"))
    print("wrote sweep.csv and sweep_ratio_conv_lc.pgm")

    n_lc_wins = int(np.sum(grid.eta_lcqdm < grid.eta_conventional))
    print(f"light-sheet beats conventional in {n_lc_wins}/{grid.n_valid} cells")

    # corners of the experimentally interesting region
    for i_conf, t_mw in ((1.0, 1000.0), (1.0, 10.0), (0.0712, 100.0)):
        cell = evaluate_point(cfg.model(), i_conf, t_mw, spec.i_ls,
                              spec.t1, spec.t_d)
        gain = time_reduction_factor(cell.ratio_conv_over_lc)
        print(f"I_conf = {i_conf:7.4f} mW/um^2, t_mw = {t_mw:6.1f} us: "
              f"eta_lc = {cell.eta_lcqdm:7.3f} sqrt(us), "
              f"conv/lc = {cell.ratio_conv_over_lc:5.2f} "
              f"({gain:6.1f}x less measurement time)")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping PNG")
        return
    ratios = np.log10(grid.ratio_conv_over_lc)  # invalid cells stay nan
    fig, ax = plt.subplots(figsize=(5, 4))
    im = ax.pcolormesh(spec.i_conf_grid, spec.t_mw_grid, ratios, shading="auto")
    ax.set_xscale("log")
    ax.set_yscale("log")
    ax.set_xlabel("readout intensity (mW/um$^2$)")
    ax.set_ylabel("MW duration (us)")
    fig.colorbar(im, ax=ax, label="log10(eta_conv / eta_lc)")
    fig.tight_layout()
    fig.savefig("sweep_ratio_conv_lc.png", dpi=150)
    print("wrote sweep_ratio_conv_lc.png")


if __name__ == "__main__":
    run_demo()
