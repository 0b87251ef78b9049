"""Fixed-seed CLI outputs pinned by SHA-256 digest.

Every output here is deterministic in its config and seed, so a change that
claims byte-identical output is checked by this test.  A deliberate output
change re-records the digests and declares which outputs moved.  The digests
were recorded with 64-bit CPython and numpy's own float64 routines; another
platform's libm may move the last digit of a report field.

Every digest here pins the Philox streams too, so the module is marked
`pins_streams`: a run under `--stream-salt` deselects it.
"""

import hashlib
from dataclasses import replace

import pytest

from wmqkd import harness
from wmqkd.bloch import ChannelModel
from wmqkd.cli import main
from wmqkd.config import parse_config_text
from wmqkd.estimation import write_signal_log
from wmqkd.harness import channel_estimation_log, run_protocol
from wmqkd.pointer import PointerConfig

pytestmark = pytest.mark.pins_streams

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
    "sweep.monte_carlo.channel.depolarizing_prob":
        "6c3874f087832401b405585f075f3c84d2a07beaf1435ab0816f21e39441c566",
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
    # the Monte Carlo sweep's rows, the last of them an abort
    main(["--config", str(tmp_path / "honest.ini"), "--out", str(tmp_path / "sweep_mc"), "sweep",
          "--axis", "channel.depolarizing_prob", "--values", "0,0.05,0.3", "--mode", "monte_carlo"])
    outputs["sweep.monte_carlo.channel.depolarizing_prob"] = tmp_path / "sweep_mc" / "sweep.csv"
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


def assert_pinned(got, pinned):
    assert sorted(got) == sorted(pinned)
    differ = [name for name in pinned if got[name] != pinned[name]]
    assert not differ, f"outputs differ from their pinned digests: {', '.join(differ)}"


def check_pinned_digests(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(harness, "_WORKERS", workers)
    assert_pinned({name: digest(path) for name, path in produce_outputs(tmp_path).items()}, DIGESTS)


def test_fixed_seed_outputs_match_pinned_digests(tmp_path, monkeypatch):
    # blocks on the caller plus one helper thread
    check_pinned_digests(tmp_path, monkeypatch, workers=2)


def test_one_worker_outputs_match_pinned_digests(tmp_path, monkeypatch):
    check_pinned_digests(tmp_path, monkeypatch, workers=1)


# The runs above are all lossless at n <= 2e5 with an ideal pointer, so none
# draws a dark click, groups several blocks into one task or adds angle noise.
# This matrix pins those paths: every strategy on four systems, at one partial
# block and at seven full blocks plus a partial one, each run with and without
# its log, on a noisy, biased pointer and a depolarizing, rotating channel.
MATRIX_DEVICE = ("[pointer]\nsigma_phi = 0.2\nbias_phi = 0.01\n"
                 "[channel]\ndepolarizing_prob = 0.03\nrotation_theta = 0.05\n")
MATRIX_SYSTEMS = {
    "lossless": "[system]\neta_d = 1\ndistance_km = 0\n",
    "20km": "[system]\neta_d = 0.145\ndistance_km = 20\n",
    "y0": "[system]\neta_d = 1\ndistance_km = 0\ny0 = 0.05\n",
    "60km": "[system]\neta_d = 0.145\ndistance_km = 60\n",
}
MATRIX_N = (1000, 7 * 2**16 + 77)

MATRIX_DIGESTS = {
    "honest.lossless.n1000": "7d15e50b3f028dcd784e3d0b32dacf76a3000381e0d30420a55e58c868f9859f",
    "honest.lossless.n458829": "ffc19d60650c243f6c7ced7a8dc75f433ec66c846a5a4ad934d43b7c48958468",
    "honest.20km.n1000": "faff58fec207c83c3719120e0dd427a0aa504090a4499cf749760b5118ea07e1",
    "honest.20km.n458829": "ea2b2259bf98c6ff9a62f97a56a41090a8d68652c1ede3581f34eeda67f941ff",
    "honest.y0.n1000": "368e572f49f97035c4c93a5f0f5c386fc41b8cdcf290e78587534f48209d9558",
    "honest.y0.n458829": "045aa764c554c4a8c9436227cd076e5b73d1680528dffae0052807861266d928",
    "honest.60km.n1000": "c5215ed96862d938c5ec31b59f5d081631369f2a492be0bd9a15b02d7a21f537",
    "honest.60km.n458829": "a97856bd7c35b09869e3709661bccad6177694a1b605e2c170f653b9a5b93f93",
    "intercept_resend.lossless.n1000": "1ef75fc37a977278f23f561ca59e9f847afa84a7d27f1f2b50ff569e91202ad1",
    "intercept_resend.lossless.n458829": "65dae4be0938d856c0803af4ee744e385af4288ec086b5cb687575cdcf30d0b3",
    "intercept_resend.20km.n1000": "f9a59b95a693fd0b0cc5e66629fb463dc659307cbe5888e459037d268236a1ff",
    "intercept_resend.20km.n458829": "1a0a9271b7471b46382ddfbb5c75c73cf5efd1c1179fd830113e5691ea6a8e0c",
    "intercept_resend.y0.n1000": "08b2ab7233737ef9b0522652c5a2a3098eee3c851c409537f3ed8f2679cd8b16",
    "intercept_resend.y0.n458829": "7d9ec0b2224c4b6b1a7425cfb4caef73d687324bd68c2d47955761099275a7f9",
    "intercept_resend.60km.n1000": "67d243bf598029ab85087c7082b2d83e5c7c643d0f89a8b65dfc67d1718b5b86",
    "intercept_resend.60km.n458829": "560f9232ad3477fb002f1302bf4e12bfc1f44fbc3d3c8c0be3e3375773506f77",
    "fake_wm_strategy1.lossless.n1000": "5ac7b0404a214a60f45ab619fd3213610bad73063f8211599408e677492a1754",
    "fake_wm_strategy1.lossless.n458829": "085a4fb67afe6d89f8544591b1bba33b043bc822febd1b2e5875bfab7e0af681",
    "fake_wm_strategy1.20km.n1000": "cf6fa97d237cda305005997bee5dd6ba71c61c3dc85d174f3d0da4cefa8806f2",
    "fake_wm_strategy1.20km.n458829": "bcedf85f2b507bc4c287b1317e0f2e3306cc9e13e2260aa9687716e3dd21e204",
    "fake_wm_strategy1.y0.n1000": "d1260887cb4da834fa4a7c83c41e6c69258b346426116ac616c9cc0f5b659290",
    "fake_wm_strategy1.y0.n458829": "4526e66caaddcbcddaa4bd654e1a4a0b74f7bbf8ed9923603e23bbc9d8a61249",
    "fake_wm_strategy1.60km.n1000": "209b2538331e3a5d8ad82902d4d4b88e7028bcb0ce8634a15032079e51a916ea",
    "fake_wm_strategy1.60km.n458829": "a9d30bcb7628598355c6e7d20346e8911537d64330c56028521a7b3d14499f9c",
    "fake_wm_strategy2.lossless.n1000": "4f1d82d67233b4a583f3b0120816be4df70ef5e4aa09cd0c5a74375d878156db",
    "fake_wm_strategy2.lossless.n458829": "7be7973bb833858bc72a7cad049b11f43727781932a7b2ff159d474eefadd5ea",
    "fake_wm_strategy2.20km.n1000": "e80bcdd6a46fac08899953ae54b41617c7b997a95ab33943cc1f8c5cb95e2fae",
    "fake_wm_strategy2.20km.n458829": "2ed9419ef54823a9f31003dc68dee81c8e31011274e5115ab67bbd0a3edaaba5",
    "fake_wm_strategy2.y0.n1000": "792f9d7a53b108526b32b3f61d0af1408aadeef124f8d38b7507be8217903468",
    "fake_wm_strategy2.y0.n458829": "e6b799a0cc23024324701e58a49cad5a0d7dc6133caa6f09d88368209c72cd6b",
    "fake_wm_strategy2.60km.n1000": "4f91e5b0073ea8459f4e5ea5cd5474922b001a4e385d1c02df5042cb9751951f",
    "fake_wm_strategy2.60km.n458829": "810d3d8d7c48e1a7160910dcc617d2e610fb762987f796398f177748bcf6a237",
    "biased_observables.lossless.n1000": "77f88fa678245d7bcf5cad22649689d580158686a2140f4af8dfa7b6842553fd",
    "biased_observables.lossless.n458829": "59319bc2dc8cfd3445e799c06e3db8c7e9f263f665e165772ed8aca9bf3e3cc2",
    "biased_observables.20km.n1000": "78e34cbcac3754dee8ac0568ba18fbbeb4abd3647e6da961e5f0bd8a0e19914c",
    "biased_observables.20km.n458829": "ca1c1127be43e05a862f55a0950ed133367a452d80235f48c46319b0a0df99cf",
    "biased_observables.y0.n1000": "47a83a214c287fb33e0be2856b3e452d45f8f27f5b55d34da48d0a4e36f579a3",
    "biased_observables.y0.n458829": "d5e3dcda43dda084298c11928815c59b82481253372cbb3c61ed206af0c100f2",
    "biased_observables.60km.n1000": "bb171533af69b3699c43f8630b83cf0b1b0238476d36f915513f37118ddc5639",
    "biased_observables.60km.n458829": "57ecad2ed744b62d2855c4de926fca55f05e11df2ef4babdac887b7792b49e1f",
    "channel_estimation_log": "c85aa37b42c6925639a218400370e695f774c52722439ce464fb7197914e2a2b",
}


def update_with_log(digest, log):
    """Add a signal log's column bytes to a running digest."""
    for column in vars(log).values():
        digest.update(column.tobytes())


def matrix_digests():
    """{case: SHA-256 of its report without the log, its report with the log and the kept log}."""
    got = {}
    for strategy, attack in RUN_CASES.items():
        for system, params in MATRIX_SYSTEMS.items():
            for n in MATRIX_N:
                cfg = parse_config_text(f"[run]\nn_signals = {n}\nmaster_seed = 11\n"
                                        + params + MATRIX_DEVICE + attack)
                digest = hashlib.sha256(run_protocol(cfg).report.to_text().encode())
                kept = run_protocol(cfg, keep_log=True)
                digest.update(kept.report.to_text().encode())
                update_with_log(digest, kept.log)
                got[f"{strategy}.{system}.n{n}"] = digest.hexdigest()
    pointer = PointerConfig(g=0.05, sigma_md=1.0, sigma_phi=0.2, bias_phi=0.01)
    log = channel_estimation_log(ChannelModel(0.03, 0.05), pointer, MATRIX_N[1], master_seed=11)
    digest = hashlib.sha256()
    update_with_log(digest, log)
    got["channel_estimation_log"] = digest.hexdigest()
    return got


@pytest.mark.parametrize("workers", [1, 2])
def test_matrix_outputs_match_pinned_digests(monkeypatch, workers):
    monkeypatch.setattr(harness, "_WORKERS", workers)
    assert_pinned(matrix_digests(), MATRIX_DIGESTS)
