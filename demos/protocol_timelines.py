"""Walk through the pulse-sequence timelines of the three protocols.

Builds one measurement cycle per protocol from a shared parameter set,
prints the event timelines, and compares readout duty cycles.
"""

from qdmsim import (LCQDM, LEIBOLD, ProtocolParams, build_calibration_sequence,
                    build_conventional_cycle, build_lcqdm_cycle,
                    build_leibold_cycle, cycle_layout, duty_cycle,
                    validate_sequence)


def run_demo():
    # Short t1 so the full timelines stay printable; realistic ratios.
    p = ProtocolParams(t_init_ls=20.0, t_init_conf=20.0, t_ro_conf=5.0,
                       t_mw=100.0, t_d=0.1, t1=40.0)
    print(f"readouts per light-sheet cycle : {cycle_layout(LCQDM, p)[0]}")
    print(f"readouts per reinit cycle      : {cycle_layout(LEIBOLD, p)[0]}")
    print()

    cycles = {
        "light-sheet recurrent (LCQDM)": build_lcqdm_cycle(p),
        "readout+reinit (Leibold)": build_leibold_cycle(p),
        "conventional single-voxel": build_conventional_cycle(p),
    }
    for label, seq in cycles.items():
        report = validate_sequence(seq, p)
        print(f"--- {label}: span {seq.span():.1f} us, "
              f"duty {duty_cycle(seq):.3f}, valid={report.ok}")
        print(seq.to_text())

    # With a realistic t1 the duty-cycle gap between protocols opens wide.
    p_long = ProtocolParams(t_init_ls=20.0, t_init_conf=20.0, t_ro_conf=5.0,
                            t_mw=100.0, t_d=0.1, t1=5000.0)
    print("duty cycles at t1 = 5 ms:")
    print(f"  LCQDM        {duty_cycle(build_lcqdm_cycle(p_long)):.4f}")
    print(f"  Leibold      {duty_cycle(build_leibold_cycle(p_long)):.4f}")
    print(f"  conventional {duty_cycle(build_conventional_cycle(p_long)):.4f}")

    print("\ncalibration sequence at t_sweep = 2 us:")
    print(build_calibration_sequence(p, 2.0).to_text())


if __name__ == "__main__":
    run_demo()
