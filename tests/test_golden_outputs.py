"""Every CLI output file pinned by its sha256.

The hashes were taken before the CSV writers became column-wise; a
writer change that moves one byte of any file, or of a manifest, fails
here and names the file.  Two configs: the built-in default, and a
40 x 40 x 4 grid with focus steps (t_z_step), whose conventional plan
has 6400 cycles and whose cycle durations take three distinct values.

One file was changed on purpose since: simulate_trials.csv used to print
each eta as repr of a numpy scalar, "np.float64(3.31...)" under numpy 2,
and now prints the float itself, "3.31...".  Its hashes and those of the
simulate manifests are the new ones.  The calibrate manifests changed too,
when calibrate's inputs digest took in --intensity and --mode.  Every
other hash is the old one.
"""

import hashlib

import numpy as np
import pytest

from qdmsim import (PhotophysicsModel, default_config_text, init_time,
                    simulate_calibration, trace_to_csv)
from qdmsim.cli import main


def _grid40_text():
    text = default_config_text()
    for old, new in (("grid_nx = 100", "grid_nx = 40"),
                     ("grid_ny = 100", "grid_ny = 40"),
                     ("grid_nz = 1", "grid_nz = 4")):
        assert old in text
        text = text.replace(old, new)
    return text + "t_z_step = 50 us\n"


def _trace_text(config):
    """The calibrate input: noiseless for the default config, seeded noisy
    for the other."""
    model = PhotophysicsModel()
    if config == "default":
        trace = simulate_calibration(model, 1.0, np.linspace(0.0, 12.0, 400),
                                     1, seed=3, noiseless=True)
    else:
        grid = np.linspace(0.0, 1.25 * init_time(model, 0.5), 300)
        trace = simulate_calibration(model, 0.5, grid, 2000, seed=9)
    return trace_to_csv(trace)


COMMANDS = {
    "eval": ["eval"],
    "sweep": ["sweep", "--pgm"],
    "plan_lcqdm": ["plan", "--protocol", "lcqdm"],
    "plan_leibold": ["plan", "--protocol", "leibold"],
    "plan_conventional": ["plan", "--protocol", "conventional"],
    "calibrate": ["calibrate", "--trace", "TRACE", "--intensity", "INTENSITY"],
    "simulate_lcqdm": ["simulate", "--protocol", "lcqdm", "--trials", "500",
                       "--dump-trials"],
    "simulate_leibold": ["simulate", "--protocol", "leibold", "--trials", "500",
                         "--dump-trials"],
    "simulate_conventional": ["simulate", "--protocol", "conventional",
                              "--trials", "500", "--dump-trials"],
}
INTENSITY = {"default": "1.0", "grid40_tz": "0.5"}


def output_hashes(tmp_path, config, command):
    """{file name: sha256} of one command's output directory."""
    head = []
    if config != "default":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_grid40_text())
        head = ["--config", str(cfg)]
    trace = tmp_path / "trace.csv"
    trace.write_text(_trace_text(config))
    subs = {"TRACE": str(trace), "INTENSITY": INTENSITY[config]}
    argv = [subs.get(a, a) for a in COMMANDS[command]]
    out = tmp_path / "out"
    assert main([*head, *argv, "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


GOLDEN = {
    "default": {
        "calibrate": {
            "calibrate_report.txt":
                "7833ed2e803ccbf8743fbef176dd59e14f492c20778a1df2b5514690a19eb6ed",
            "manifest.txt":
                "e614e79adfac5d8cf755f6f1caf8d55228c844fd939f9fa5f561a06ae865a2c4",
        },
        "eval": {
            "eval_report.txt":
                "efdc31a52ef0e3353df4be03e040602965c3480ff969fdcd40504b00e83e83ba",
            "manifest.txt":
                "0d8c056de8aff0fd98e006c4d677a73ebefa34f4af226db75b4f2db8b6a52a30",
        },
        "plan_conventional": {
            "manifest.txt":
                "2c92e0aac2522d8577a585ce4d3d436d4e8e8ae5a3a2fbb27f0eca1ae14c8c85",
            "plan_cycles.csv":
                "332a43f8ce69911cf3b805111249b067958e7397a850a2395d0f1407e9576a9c",
            "plan_report.txt":
                "374ebd105afa08744a18b4acd24c9cf83bb89491690a320c3cfb4e8f79b14459",
            "plan_rf.csv":
                "cdce1cc6af54fc94e36c14e93910fa0f559c34a547f797d6d80de3d9b43541f0",
        },
        "plan_lcqdm": {
            "manifest.txt":
                "9465b9a188dcaec87154b11977065e4b97335cfacabec2c3d41f4ea7617acdf6",
            "plan_cycles.csv":
                "071cf2093cf8691fec881ee8a65941f36c0fac47b3b771c26395cb925a912ae2",
            "plan_report.txt":
                "75175d1cb540c87ae0fb0a34012ee7cb76dfcbea65b9ebb8a668ae21fc41a3f1",
            "plan_rf.csv":
                "cdce1cc6af54fc94e36c14e93910fa0f559c34a547f797d6d80de3d9b43541f0",
        },
        "plan_leibold": {
            "manifest.txt":
                "361ee6cc1ac3ee87e5b4c6afebe3b94657eecf8cd31b017eb3abdee1c5e2e1ee",
            "plan_cycles.csv":
                "80f69cd5b481420e1367e94907ada7813cfcf79c3a60ccae4ac7f14736d9bee2",
            "plan_report.txt":
                "5ba9bd2ad7129bbf02bf40442703dd0f68f5da9af18b849366e059c58b765882",
            "plan_rf.csv":
                "cdce1cc6af54fc94e36c14e93910fa0f559c34a547f797d6d80de3d9b43541f0",
        },
        "simulate_conventional": {
            "manifest.txt":
                "d20fa26082ab7b9fcc467b030d89ff08b3e94efca00bc0dbdcc9bf3e33091f8b",
            "simulate_report.txt":
                "69598093beac81da633ea673c4830b1ff50bbf2764197bde099db53264d34349",
            "simulate_trials.csv":
                "b2964b45163309667e0d660b054b6a0ad764657b4a0590228edbb7d362961756",
        },
        "simulate_lcqdm": {
            "manifest.txt":
                "be9a4a08e848c690ecc079bb3b794c0342c7fe2de139ee49235a6d32888ad080",
            "simulate_report.txt":
                "49ce31a27789924e02fdbcff31f4dac5947e64ed5601b3a2440a5d02011265a4",
            "simulate_trials.csv":
                "8ecbe62efdf077b71d00094f8b8b9a5b10ea796fb9d9a873ef8f39e438af0903",
        },
        "simulate_leibold": {
            "manifest.txt":
                "1db8ad935d2df9b64f86bcc9f70038b38a3873b11bf2f10566f75f6c5c3f6289",
            "simulate_report.txt":
                "c69b948f800eacba5ff225265a4958fa387a7558fc9c5e021196e9c4178980d3",
            "simulate_trials.csv":
                "4ffa5c1b17f2a9c61ad4e17317a6430e2ed304fd5cee9f468459ab590a33c2cd",
        },
        "sweep": {
            "manifest.txt":
                "0b06dbef0e8e39a732d18fe6312d840607aa16686d0272579ab0589d06932903",
            "sweep.csv":
                "201f9c3a4d3bed303d707ea8daf9c372a9b33bedbd720c892180f67d1d5d0a24",
            "sweep_ratio_conv_lc.pgm":
                "2e991e93ecd3ba84632a575048d49ddd3755831bd155bf6a4c487df15958253b",
            "sweep_ratio_leibold_lc.pgm":
                "837d6b8a14ebe69e6bc99d265fe6dfda2f80013f71129f43898b23d06e2c72c5",
        },
    },
    "grid40_tz": {
        "calibrate": {
            "calibrate_report.txt":
                "aa269521173f26dd618a6a9ece9bb055dcdea78fcae79d7f3bd22a611f8e4dd9",
            "manifest.txt":
                "e05132e99f72c5d10407236faed297258cade71f93d07d50f940e17de46a6db6",
        },
        "eval": {
            "eval_report.txt":
                "efdc31a52ef0e3353df4be03e040602965c3480ff969fdcd40504b00e83e83ba",
            "manifest.txt":
                "7e41c1a3d06810c564632dc8af6316d58e240e3eaf45c45c3f944160df03a44e",
        },
        "plan_conventional": {
            "manifest.txt":
                "915828d3163addc0d9632305405a3a152bf13f1287a5ce2ed9d5d1a931dac839",
            "plan_cycles.csv":
                "9866594f1963dd3bd1419e015af4fad3db9837fe2c641cb670d9a63a272be49e",
            "plan_report.txt":
                "c7987282c224fb3f4db33d58918bf20a05daaac7d3b8c3213002f489641ff20f",
            "plan_rf.csv":
                "b8619c2823a1b9fdd5d12335c6f84bdc498bf4eea5ec538e06e429a663a9b440",
        },
        "plan_lcqdm": {
            "manifest.txt":
                "63890fb0643b6081850aa51369f3cd4509f4fcdc2b1df593f470da92e0430740",
            "plan_cycles.csv":
                "3f7ac13caedfff707f34d069137e8f74c28b3a34dd02e2a8559d4ccba80b0ef1",
            "plan_report.txt":
                "3c219ccccc1bbbf203e4598951631842ccc58b059d399a17dccc94439646c705",
            "plan_rf.csv":
                "b8619c2823a1b9fdd5d12335c6f84bdc498bf4eea5ec538e06e429a663a9b440",
        },
        "plan_leibold": {
            "manifest.txt":
                "a9554e6606dc8fe1a0191a4a7d6b09edee810afe1ede887ba28c3e44cabdc51e",
            "plan_cycles.csv":
                "0a727b1eda2d014e5c2da9ea201847d691f4a47b5474279a929c4ea3b3a07dd3",
            "plan_report.txt":
                "9c2eb9b5f14ff23e10d59ad920fbbcd51015f942da3c1ddcaa4794784de4078f",
            "plan_rf.csv":
                "b8619c2823a1b9fdd5d12335c6f84bdc498bf4eea5ec538e06e429a663a9b440",
        },
        "simulate_conventional": {
            "manifest.txt":
                "1cabf8cc9c8dc2332986359f29f4726243a165b06b130071381f50218746588c",
            "simulate_report.txt":
                "69598093beac81da633ea673c4830b1ff50bbf2764197bde099db53264d34349",
            "simulate_trials.csv":
                "b2964b45163309667e0d660b054b6a0ad764657b4a0590228edbb7d362961756",
        },
        "simulate_lcqdm": {
            "manifest.txt":
                "78907420889fa199fec7ccf0fde386a46eed94965492f9df77e9c28e73b6019c",
            "simulate_report.txt":
                "49ce31a27789924e02fdbcff31f4dac5947e64ed5601b3a2440a5d02011265a4",
            "simulate_trials.csv":
                "8ecbe62efdf077b71d00094f8b8b9a5b10ea796fb9d9a873ef8f39e438af0903",
        },
        "simulate_leibold": {
            "manifest.txt":
                "4559b706c33129d6f176f0aa2a7f67a1f0e598c09fc17d602e5d1172b1f14725",
            "simulate_report.txt":
                "c69b948f800eacba5ff225265a4958fa387a7558fc9c5e021196e9c4178980d3",
            "simulate_trials.csv":
                "4ffa5c1b17f2a9c61ad4e17317a6430e2ed304fd5cee9f468459ab590a33c2cd",
        },
        "sweep": {
            "manifest.txt":
                "e25e4c121f3308acbfe858841b7efc4de9794894fafdd7f4910896a82abd1bfa",
            "sweep.csv":
                "201f9c3a4d3bed303d707ea8daf9c372a9b33bedbd720c892180f67d1d5d0a24",
            "sweep_ratio_conv_lc.pgm":
                "2e991e93ecd3ba84632a575048d49ddd3755831bd155bf6a4c487df15958253b",
            "sweep_ratio_leibold_lc.pgm":
                "837d6b8a14ebe69e6bc99d265fe6dfda2f80013f71129f43898b23d06e2c72c5",
        },
    },
}


@pytest.mark.parametrize("config", sorted(INTENSITY))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_bytes_pinned(tmp_path, config, command):
    assert output_hashes(tmp_path, config, command) == GOLDEN[config][command]
