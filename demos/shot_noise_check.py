"""Shot-noise Monte Carlo versus the closed-form sensitivity expressions.

Runs the photon-counting simulator for each protocol and tabulates the
empirical per-voxel sensitivity against the paper's closed form and the
exact cycle accounting.  The paper's prefactor 2/(1+1/e) averages the
first and last readout SNR, while the simulator averages every readout
equally, and the mean of the decaying amplitude over readouts that fill t1
is 1-1/e.  The recurrent protocols therefore sit about 8% above the paper's
forms (the ratio (1+1/e)/(2(1-1/e)) = 1.0820 in the limit of many
readouts) and within their standard error of eta_exact.
"""

from qdmsim import (CONVENTIONAL, LCQDM, LEIBOLD, PhotophysicsModel,
                    ProtocolParams, SimConfig, eta_conventional, eta_exact,
                    eta_lcqdm, eta_leibold, init_time, readout_time,
                    simulate_protocol)

ANALYTIC = {LCQDM: eta_lcqdm, LEIBOLD: eta_leibold, CONVENTIONAL: eta_conventional}


def run_demo():
    model = PhotophysicsModel()
    n_trials = 20_000
    print(f"{n_trials} trials per point, master seed 417\n")
    print(f"{'protocol':<14}{'I_conf':>8}{'t_mw':>8}{'N':>6}"
          f"{'eta_mc':>10}{'stderr':>9}{'eta_formula':>13}{'gap':>8}"
          f"{'eta_exact':>11}{'z':>7}")
    for protocol, i_conf, t_mw in [
            (LCQDM, 1.0, 100.0), (LCQDM, 0.0712, 1000.0),
            (LEIBOLD, 1.0, 100.0), (LEIBOLD, 0.1, 10.0),
            (CONVENTIONAL, 7.12, 1000.0)]:
        p = ProtocolParams(t_init_ls=init_time(model, 0.2),
                           t_init_conf=init_time(model, i_conf),
                           t_ro_conf=readout_time(model, i_conf),
                           t_mw=t_mw, t_d=0.1, t1=5000.0)
        cfg = SimConfig(params=p, model=model, i_conf=i_conf,
                        n_trials=n_trials, master_seed=417)
        out = simulate_protocol(cfg, protocol)
        analytic = ANALYTIC[protocol](p)
        gap = (out.eta_empirical - analytic) / analytic
        exact = eta_exact(p, protocol)
        z = (out.eta_empirical - exact) / out.eta_stderr
        print(f"{protocol:<14}{i_conf:>8.4f}{t_mw:>8.1f}"
              f"{out.readouts_per_cycle:>6}{out.eta_empirical:>10.4f}"
              f"{out.eta_stderr:>9.4f}{analytic:>13.4f}{gap:>+8.1%}"
              f"{exact:>11.4f}{z:>+7.2f}")

    print("\nstandard error shrinks as 1/sqrt(trials):")
    p = ProtocolParams(t_init_ls=init_time(model, 0.2),
                       t_init_conf=init_time(model, 1.0),
                       t_ro_conf=readout_time(model, 1.0),
                       t_mw=100.0, t_d=0.1, t1=5000.0)
    for n in (500, 5_000, 50_000):
        cfg = SimConfig(params=p, model=model, i_conf=1.0, n_trials=n,
                        master_seed=417)
        out = simulate_protocol(cfg, LCQDM)
        print(f"  n = {n:>6}: eta = {out.eta_empirical:.4f} "
              f"+/- {out.eta_stderr:.4f}")


if __name__ == "__main__":
    run_demo()
