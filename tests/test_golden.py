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
    "run.honest.report": "c5ca01f69aeb60811d97eb416f8d61b8a64374e35663191e2d19f2c1eda54162",
    "run.honest.csv": "bc88dc4e05ed314ad9c9969030cc2b4bdf70a80586308c055a09cbdb2617d48e",
    "attack.intercept_resend.report": "8707a0b314958831def5315eb206e916315c2552ed095b8837c14b7a9271ae29",
    "attack.intercept_resend.csv": "1af94753ef4dd159e83dd5028af551a2ed3120a2e08ef9d7edbdadc348620ad6",
    "attack.fake_wm_strategy1.report": "2107c68ade700cf7d63893a8c274952e609ff21ffce9f7aca9b52ee1949f5212",
    "attack.fake_wm_strategy1.csv": "055e1f200f9971ab870ba3b2da773f22d42232b35fee16e87afd44c991884c30",
    "attack.fake_wm_strategy2.report": "e79e59aa001157ec6827909a87ab635ffe58d448682fcd7a721dd9dcc0684afc",
    "attack.fake_wm_strategy2.csv": "8bf3d0bdf73f094f6c8c05449abde348a2f15d520fd2294860521b94abef7e94",
    "attack.biased_observables.report": "b416b104aad73c60615fe446c872a65d752d9361284b06c5fe304a5da8e6d260",
    "attack.biased_observables.csv": "893c3a2a267f3d40a5774a4ac15e2697fdd1d60d9ed310a1cca6a7410c02a903",
    "keep_log": "8af3e4b1988524a391cc1abb1edf4e173d74db913fd5401bcff4f3177c7f2ea4",
    "verify.report": "407f7c23568af4b277e775e2adbf2974cd8bcec923fc7d859f16743b73615cc1",
    "sweep.channel.depolarizing_prob": "aa715ad6fab9df991b210abc5e9204c351a9921efe9f44e129018a9cf8bc9bcf",
    "figures.fig3": "c1ba97b57ae53c0a1004d0d17fb32fc8fcb050c265f84318c5a8f8df59b68c5a",
    "figures.fig5": "b4310de6973227b35de681f7348c7c295f2be77ffabcab33eda4623f608ad609",
    "figures.fig6": "6b88a0ea38021e8ca0ea6e00fc83a5582e06de8dcaa059aba8e062a532e49061",
    "run.no_decoy.report": "485cf17064d3adfbac09912ea3a37532c08b54534c7c1ee33f696ef4fb4396ea",
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
