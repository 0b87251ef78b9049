"""Fixed-seed CLI outputs pinned by SHA-256 digest.

Every output here is deterministic in its config and seed, so a change that
claims byte-identical output is checked by this test.  A deliberate output
change re-records the digests and declares which outputs moved.  The digests
were recorded with 64-bit CPython and numpy's own float64 routines; another
platform's libm may move the last digit of a report field.
"""

import hashlib
from dataclasses import replace

from wmqkd import harness
from wmqkd.cli import main
from wmqkd.config import parse_config_text
from wmqkd.estimation import write_signal_log
from wmqkd.harness import run_protocol

RUN = "[run]\nn_signals = 200000\nmaster_seed = 7\n"
RUN_CASES = {
    "honest": "",
    "intercept_resend": "[attack]\nstrategy = intercept_resend\np_basis = 0.5\n",
    "fake_wm_strategy1": "[attack]\nstrategy = fake_wm_strategy1\np_h = 0.9\nalpha = 1.0\n",
    "fake_wm_strategy2": ("[attack]\nstrategy = fake_wm_strategy2\np_basis = 0.9\np_h = 0.9\n"
                          "alpha_x = 1.1\nalpha_z = 1.1\n"),
    "biased_observables": ("[attack]\nstrategy = biased_observables\np_h = 0.8\n"
                           "phi = 0.1\nphi_prime = -0.05\n"),
}

DIGESTS = {
    "run.honest.report": "fb137e8e21d69b51693f5633b4989eef7c67078783f6ccb0f533e446f25f895e",
    "run.honest.csv": "cbe9eab2445ed4003b42311e873738df036b19b05f6e57079543d28273d9871a",
    "attack.intercept_resend.report": "e29d5f4d5fcbbadc80bafb38afd9ce7aa249550bcf5a37790c4756817ab209b5",
    "attack.intercept_resend.csv": "5d11f93276f99387bab8f6f95b59bfe88586d230fad19767924784b4b71c3b4f",
    "attack.fake_wm_strategy1.report": "32d1b09cbd54a8004b0ddb976da0ca1575feb857d18a34055cab5d03f5da8d23",
    "attack.fake_wm_strategy1.csv": "218efe1a4ab602f95fa440ddda4e02135199dd87193a50f89b5c37338076aea0",
    "attack.fake_wm_strategy2.report": "dc164cb6e88c98a2db7170d3a5c2cfb8c1c05a96ce5ea213d72d50f95685f681",
    "attack.fake_wm_strategy2.csv": "5d5043bed0fb183635f29f8b6abe7b8368b6bb9ff7b2427c6b01996e0cdf6dae",
    "attack.biased_observables.report": "94ff3d5355c9e259b2bbcf3672ef494d2d21bf08078f9799e92ba5e7fee4c320",
    "attack.biased_observables.csv": "9e6310ea65655d42ff722dcc86a9652ccd5f9cc9bcb49b0a60748083ede6e8c6",
    "keep_log": "3089752064d4b2263100cf5c89c04c20cea1909b1f09d6328db49a39ba555d4c",
    "verify.report": "35913246ca82289ff37175fee4370033a160bd1f307c33e57f1f6eb74ae8c8dd",
    "sweep.channel.depolarizing_prob": "aa715ad6fab9df991b210abc5e9204c351a9921efe9f44e129018a9cf8bc9bcf",
    "figures.fig3": "c1ba97b57ae53c0a1004d0d17fb32fc8fcb050c265f84318c5a8f8df59b68c5a",
    "figures.fig5": "b4310de6973227b35de681f7348c7c295f2be77ffabcab33eda4623f608ad609",
    "figures.fig6": "6b88a0ea38021e8ca0ea6e00fc83a5582e06de8dcaa059aba8e062a532e49061",
    "run.no_decoy.report": "43262b37f8eb6a0ad6a305e2f3f93622c9994b61ae0a7acb468da1dd97c00929",
    "sweep.system.distance_km": "86f14114648528267afa7b25ace8b0e720df7f582c8c75bf2cb5197e1201e5b9",
    "sweep.attack.p_h": "0bcb65cbf73c8d6d9a034774596ba69c9e9b9f1133ea7e7b635bbced25643065",
    "sweep.attack.phi": "444fe4e063a726b55ea8bd97843f03050bd4cb80e26023a9c3ac38ddf9b664ae",
}

# exact-statistics sweeps whose abort column flips: on the g^2/4 branch
# allowance (p_h) and on the 1e-12 nonnegativity tolerance (phi)
EXACT_SWEEPS = {
    "attack.p_h": ("[attack]\nstrategy = fake_wm_strategy1\np_h = 0.9\nalpha = 1.0\n",
                   "0.55,0.7,0.9,0.99,1"),
    "attack.phi": ("[attack]\nstrategy = biased_observables\np_h = 1.0\n", "-0.3,-0.1,0,0.1,0.3"),
}


def produce_outputs(tmp_path):
    """Run every pinned invocation; returns {output name: file path}."""
    outputs = {}
    for name, text in RUN_CASES.items():
        config = tmp_path / f"{name}.ini"
        config.write_text(RUN + text)
        command = "run" if name == "honest" else "attack"
        for fmt, filename in (("report", "run_report.txt"), ("csv", "run_summary.csv")):
            out = tmp_path / name / fmt
            main(["--config", str(config), "--out", str(out), "--format", fmt, command])
            outputs[f"{command}.{name}.{fmt}"] = out / filename
    log_path = tmp_path / "kept_log.csv"
    cfg = replace(parse_config_text(RUN), n_signals=100_000)
    write_signal_log(log_path, run_protocol(cfg, keep_log=True).log)
    outputs["keep_log"] = log_path
    main(["--out", str(tmp_path / "verify"), "verify", str(log_path)])
    outputs["verify.report"] = tmp_path / "verify" / "verify_report.txt"
    main(["--out", str(tmp_path / "sweep"), "sweep", "--axis", "channel.depolarizing_prob",
          "--values", "0,0.02,0.05,0.1,0.2"])
    outputs["sweep.channel.depolarizing_prob"] = tmp_path / "sweep" / "sweep.csv"
    # no decoy pulses: the run's key rate takes the idealized fallback
    no_decoy = tmp_path / "no_decoy.ini"
    no_decoy.write_text(RUN + "[source]\np_signal = 0.9\np_decoy = 0\np_vacuum = 0.1\n")
    main(["--config", str(no_decoy), "--out", str(tmp_path / "no_decoy"), "run"])
    outputs["run.no_decoy.report"] = tmp_path / "no_decoy" / "run_report.txt"
    # the lossy system's decoy rates reach 0 before the last distance
    lossy = tmp_path / "lossy.ini"
    lossy.write_text("[system]\neta_d = 0.145\n")
    main(["--config", str(lossy), "--out", str(tmp_path / "sweep_km"), "sweep",
          "--axis", "system.distance_km", "--values", "0,20,80,160,250"])
    outputs["sweep.system.distance_km"] = tmp_path / "sweep_km" / "sweep.csv"
    for axis, (text, values) in EXACT_SWEEPS.items():
        config = tmp_path / f"{axis}.ini"
        config.write_text(text)
        main(["--config", str(config), "--out", str(tmp_path / axis), "sweep",
              "--axis", axis, f"--values={values}"])
        outputs[f"sweep.{axis}"] = tmp_path / axis / "sweep.csv"
    for which in ("fig3", "fig5", "fig6"):
        main(["--out", str(tmp_path / "figures"), "figures", "--which", which])
        outputs[f"figures.{which}"] = tmp_path / "figures" / f"{which}.csv"
    return outputs


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def check_pinned_digests(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(harness, "_WORKERS", workers)
    got = {name: digest(path) for name, path in produce_outputs(tmp_path).items()}
    assert sorted(got) == sorted(DIGESTS)
    differ = [name for name in DIGESTS if got[name] != DIGESTS[name]]
    assert not differ, f"outputs differ from their pinned digests: {', '.join(differ)}"


def test_fixed_seed_outputs_match_pinned_digests(tmp_path, monkeypatch):
    # blocks on the caller plus one helper thread
    check_pinned_digests(tmp_path, monkeypatch, workers=2)


def test_one_worker_outputs_match_pinned_digests(tmp_path, monkeypatch):
    check_pinned_digests(tmp_path, monkeypatch, workers=1)
