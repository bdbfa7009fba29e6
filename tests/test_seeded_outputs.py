"""Seeded Monte Carlo outputs pinned by SHA-256 digest.

Each case runs a seeded engine and hashes a canonical JSON form of its
output (array dtype, shape and values; floats by their shortest repr), so
any change in the draws, their order or the law they feed shows up here.
A digest may change only with a stated reason for the new output.
"""

import hashlib
import json

import numpy as np
import pytest

from groupwalks import cli
from groupwalks import diagnostics as dg
from groupwalks.chains import OneColumnWalk, PaPraWalk, TransvectionWalk, pa_pra_batch


def _canon(x):
    if isinstance(x, np.ndarray):
        return {"dtype": str(x.dtype), "shape": list(x.shape), "data": x.tolist()}
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.generic):
        return x.item()
    return x


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(_canon(obj), sort_keys=True).encode()).hexdigest()


def _burnin(walk, spec, grid, trials, seed):
    return lambda: dg.burnin_occupancy(walk, spec, grid, trials, seed)


def _pa_pra_states(r, p, m, trials, grid, seed, laziness):
    def run():
        sv, sz = dg.canonical_start(r, p, m)
        got = {}
        pa_pra_batch(r, p, m, trials, grid, seed,
                     lambda t, v, z: got.__setitem__(t, (v.copy(), z.copy())),
                     start_v=sv, start_z=sz, laziness=laziness)
        return got
    return run


def _walk_states(walk, trials, grid, seed):
    def run():
        got = {}
        walk.batch(trials, grid, seed, lambda t, codes: got.__setitem__(t, codes.copy()))
        return got
    return run


def _simulate_csv(tmp_path, argv, walk="pa-pra"):
    def run():
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--walk", walk, *argv, "--out", str(out)]) == 0
        return out.read_bytes().decode()
    return run


def _fibres_json(tmp_path, argv):
    def run():
        out = tmp_path / "fibres.json"
        assert cli.main(["spectrum", "--walk", "pa-pra", "--fibres-only", *argv, "--out", str(out)]) == 0
        return out.read_bytes().decode()
    return run


def _cases(tmp_path):
    ts16 = dg.transvection_good_set(16, 1)
    return {
        "burnin one-column r=16": _burnin(OneColumnWalk(16, 2), ts16, [0, 5, 20, 60, 120], 300, 11),
        "burnin one-column r=16 lazy": _burnin(OneColumnWalk(16, 2, 0.25), ts16, [0, 7, 50, 150], 300, 12),
        "burnin transvection n=8 k=2": _burnin(TransvectionWalk(8, 2), dg.transvection_good_set(8, 2),
                                               [0, 3, 10, 40, 90], 300, 13),
        "burnin transvection n=8 k=2 lazy": _burnin(TransvectionWalk(8, 2, 0.25),
                                                    dg.transvection_good_set(8, 2), [0, 10, 90], 300, 14),
        "burnin pa-pra r=6 p=3 m=1": _burnin(PaPraWalk(6, 3, 1), dg.heisenberg_good_set(6, 3, 1, 0.75),
                                             [0, 4, 20, 80], 300, 15),
        "burnin pa-pra r=6 p=3 m=1 lazy": _burnin(PaPraWalk(6, 3, 1, 0.25),
                                                  dg.heisenberg_good_set(6, 3, 1, 0.75), [0, 9, 80], 300, 16),
        "burnin pa-pra r=7 p=5 m=1": _burnin(PaPraWalk(7, 5, 1), dg.heisenberg_good_set(7, 5, 1, 0.6),
                                             [0, 10, 60], 200, 17),
        "burnin pa-pra r=6 p=3 m=2": _burnin(PaPraWalk(6, 3, 2), dg.heisenberg_good_set(6, 3, 2, 0.7),
                                             [0, 10, 60], 200, 18),
        "pa_pra_batch r=8 p=3 m=3": _pa_pra_states(8, 3, 3, 5, [0, 1, 17, 200], 19, 0.0),
        "pa_pra_batch r=4 p=13 m=1 lazy": _pa_pra_states(4, 13, 1, 5, [0, 1, 17, 200], 20, 0.25),
        "good measure transvection n=8 k=2": lambda: dg.good_set_measure(
            dg.transvection_good_set(8, 2), "monte_carlo", 3000, 21),
        "good measure transvection n=12 k=3": lambda: dg.good_set_measure(
            dg.transvection_good_set(12, 3), "monte_carlo", 3000, 22),
        "good measure heisenberg r=6 p=3 m=1": lambda: dg.good_set_measure(
            dg.heisenberg_good_set(6, 3, 1, 0.75), "monte_carlo", 3000, 23),
        "good measure heisenberg r=5 p=3 m=2": lambda: dg.good_set_measure(
            dg.heisenberg_good_set(5, 3, 2, 0.7), "monte_carlo", 3000, 24),
        "good measure heisenberg r=4 p=5 m=1": lambda: dg.good_set_measure(
            dg.heisenberg_good_set(4, 5, 1, 0.6), "monte_carlo", 3000, 25),
        "bd_hitting_mc r=16 p=3": lambda: dg.bd_hitting_mc(1, 12, dg.BDParams(16, 3), 500, 26),
        "bd_hitting_mc r=32 p=2": lambda: dg.bd_hitting_mc(2, 20, dg.BDParams(32, 2), 500, 27),
        "bd_hitting_mc unfinished": lambda: dg.bd_hitting_mc(1, 12, dg.BDParams(16, 3), 300, 28,
                                                             max_steps=150),
        "embedded_crossing_mc r=16 p=3": lambda: dg.embedded_crossing_mc(
            3, 2, 8, dg.BDParams(16, 3), 500, 29),
        "embedded_crossing_mc r=32 p=2": lambda: dg.embedded_crossing_mc(
            4, 3, 12, dg.BDParams(32, 2), 500, 30),
        "support frequencies r=16 p=3": lambda: dg.support_transition_frequencies(16, 3, 4000, 31),
        "support frequencies r=12 p=2": lambda: dg.support_transition_frequencies(12, 2, 4000, 32, chains=8),
        "simulate pa-pra p=3 m=1": _simulate_csv(tmp_path, ["-r", "5", "-p", "3", "-m", "1", "--steps", "300",
                                                            "--trials", "3", "--record-every", "10",
                                                            "--seed", "33"]),
        "simulate pa-pra p=5 m=1 lazy": _simulate_csv(tmp_path, ["-r", "4", "-p", "5", "-m", "1",
                                                                 "--steps", "300", "--trials", "2",
                                                                 "--record-every", "7", "--seed", "34",
                                                                 "--laziness", "0.25"]),
        "simulate pa-pra p=3 m=2": _simulate_csv(tmp_path, ["-r", "6", "-p", "3", "-m", "2", "--steps", "200",
                                                            "--trials", "2", "--record-every", "10",
                                                            "--seed", "35"]),
        # F_2 runs at the edges of the packed-word layout: 64 bits (one-column
        # r = 64, transvection n = 32 k = 2) and 65 bits (n = 13 k = 5, pinned
        # by its states: its good set is almost empty, so burn-in reads 1)
        "mc_tv_curve one-column r=64": lambda: dg.mc_tv_curve_one_column(
            64, 200, [0, 40, 150, 400, 900], 36),
        "burnin transvection n=32 k=2 lazy": _burnin(TransvectionWalk(32, 2, 0.25),
                                                     dg.transvection_good_set(32, 2),
                                                     [0, 30, 120, 400], 100, 37),
        "transvection states n=13 k=5": _walk_states(TransvectionWalk(13, 5), 100, [0, 20, 80, 250], 38),
        "simulate transvection n=8 k=2": _simulate_csv(tmp_path, ["-n", "8", "-k", "2", "--steps", "300",
                                                                  "--trials", "80", "--record-every", "10",
                                                                  "--seed", "39"], walk="transvection"),
        # the balanced-fibre report: the fibres workload's three configs, a
        # longer loop and one m = 2 group
        "spectrum fibres r=8 p=3": _fibres_json(tmp_path, ["-r", "8", "-p", "3", "-m", "1",
                                                           "--fibre-trials", "2", "--seed", "40"]),
        "spectrum fibres r=16 p=3": _fibres_json(tmp_path, ["-r", "16", "-p", "3", "-m", "1",
                                                            "--fibre-trials", "2", "--seed", "41"]),
        "spectrum fibres r=8 p=5": _fibres_json(tmp_path, ["-r", "8", "-p", "5", "-m", "1",
                                                           "--fibre-trials", "1", "--seed", "42"]),
        "spectrum fibres r=16 p=3 200 trials": _fibres_json(tmp_path, ["-r", "16", "-p", "3", "-m", "1",
                                                                       "--fibre-trials", "200", "--seed", "43"]),
        "spectrum fibres r=16 p=3 m=2": _fibres_json(tmp_path, ["-r", "16", "-p", "3", "-m", "2",
                                                                "--fibre-trials", "3", "--seed", "44"]),
    }


DIGESTS = {
    # bd_hitting_mc runs the jump chain with geometric holds: two uniforms
    # per jump instead of one per walk step, so its three digests were re-pinned.
    # Each move is one uint16 (or uint32) code, decoded to its pair, exponent
    # and side, instead of three int32 draws, so every burnin, pa_pra_batch,
    # simulate, support frequencies, mc_tv_curve and walk-states digest was
    # re-pinned; so were the Heisenberg good measures, whose rows are one
    # uniform value code each instead of 2m uniform digits.  The
    # bd_hitting_mc, embedded_crossing_mc and transvection good-measure
    # digests draw as before and did not change.  The batch cells' dtype
    # follows the alphabet (uint8 up to 256 codes per coordinate), so the
    # transvection n=13 k=5 states are uint8: their canonical JSON differs
    # from the int64 one in "dtype" alone, and with "int64" written back it
    # hashes to the old digest d3c5a72c...280dc6.
    "bd_hitting_mc r=16 p=3":
        "ab1a831026ecd88e405b3cd272e7e36de2db24083b2b20d7f9f24ee6aef7469e",
    "bd_hitting_mc r=32 p=2":
        "55f06c6ce0dd9b96f6b307bcbb61389cecdcc5547c4fc8618df596a179a5bf72",
    "bd_hitting_mc unfinished":
        "fb97e8990bc9b3352cf1919235b624f173c5279d3568b69275f72c1b4e9b2ea8",
    "burnin one-column r=16":
        "21a2c12582cf7da0bb05c678c113ddbc4e344fd455b54eeea63abd74fdb32436",
    "burnin one-column r=16 lazy":
        "7a385199dfc20c577c2f30f502d2712dd398eb1d5f786d163f8546d15d2d1f87",
    "burnin pa-pra r=6 p=3 m=1":
        "873eba127dff959654b94fc94cdc64cba86373b5eba750f951cc825d53f04aec",
    "burnin pa-pra r=6 p=3 m=1 lazy":
        "37f8046b2aedad95d432af56b83de017f6ea74ecfaacfe3c91fbc00974813f37",
    "burnin pa-pra r=6 p=3 m=2":
        "dd6bb0d4690d1ae66cdddadeba2259cc5b19a94fd561dae2a95c1aa5b312de54",
    "burnin pa-pra r=7 p=5 m=1":
        "5507313c3dd780b1c29c9ca7afc2e90ec7112ab0f2e29fd679c017b228842d73",
    "burnin transvection n=32 k=2 lazy":
        "c6332f5f57410c48e6fb4307d32bb0906d781069c08b03024788744f0d7f9a81",
    "burnin transvection n=8 k=2":
        "0dca577e8d183bd1315beb66a30bef72d37538876fec91bc152e5591c3fd8163",
    "burnin transvection n=8 k=2 lazy":
        "cf40e93ab37b5a25dba6cf8654f5d8bc4e0ae66c88e779ded7092fbe00df57d0",
    "embedded_crossing_mc r=16 p=3":
        "6a49dafc13cb8ce12e3ba5367d4401f8ed372e391b3e19b7fa2116c5fe5da3ea",
    "embedded_crossing_mc r=32 p=2":
        "e204ef665ab0b2b17ea2e5084b23bc1e6baa7b1ada025f7ad8967bd141da2e8d",
    "good measure heisenberg r=4 p=5 m=1":
        "5f17a84ae22fa6576259f0b435c96a9a5e828903db7bd3f98f3a64c380b60b7e",
    "good measure heisenberg r=5 p=3 m=2":
        "dc49e237977e63256aaac7f080aa43b0312c93719877ce7bb452bf4d14945b2e",
    "good measure heisenberg r=6 p=3 m=1":
        "8d6a6a950690c7409a40c7df194743320cc5bff5e0a66e38f5fb7320527324a1",
    "good measure transvection n=12 k=3":
        "bc371b2922a2ca38197d50d97865d33c1420bd82a7c6769e2b1f6dfe70ed07d4",
    "good measure transvection n=8 k=2":
        "9c5ea8b8cf3caad4e1e27db2e4f7a553654294b0c23f8b2bf396b7292432fd6f",
    "mc_tv_curve one-column r=64":
        "3fe8f5ed8fac988d9b7e9aa5f0eba8e9412ce9277dee3828bfbae2aaa3f42152",
    "pa_pra_batch r=4 p=13 m=1 lazy":
        "570ab17f8f60ce4b1938aaf6968cc55c5e59ec02dd2e3906d63d218eba8034aa",
    "pa_pra_batch r=8 p=3 m=3":
        "dae72395965c2288981c3338e8d39ff3d8db4ba80b9c0fe006a270de0673983b",
    "simulate pa-pra p=3 m=1":
        "f77a19342f108b8cc1b39d116da9df74baf9dfef4a75363665ee3f11146d02db",
    "simulate pa-pra p=3 m=2":
        "cc8ef114e5de89657dc656a16ad781fae3f41328ccb030295ab5eab82e91d881",
    "simulate pa-pra p=5 m=1 lazy":
        "c8dc9695ffee4a4f1d966e6acc5728480f637d1285b37941cbf89b029be585e9",
    "simulate transvection n=8 k=2":
        "3636058d6a7d46182eb4a6e5949f1954fbc0516efd0d9fb1a3cf4964fd154727",
    # pinned while the fibre kernels were still built from HeisenbergElement
    # objects, so the code-row builder is checked byte for byte against them
    "spectrum fibres r=16 p=3":
        "b636b6bd4fa6d8cb37a266bf92f205e78d4bfb62d1747dd70c282aa352a44d80",
    "spectrum fibres r=16 p=3 200 trials":
        "46f96195afbded484d020dc8bb956182590d8174a2c791bd917232efbe1a1151",
    "spectrum fibres r=16 p=3 m=2":
        "869a5437dc49278c57e7083cbf350ab1961bc884bef1aebcbb5e5586e0f16838",
    "spectrum fibres r=8 p=3":
        "4bd111333be72f7b24616d4f39436c382a3d6f01bfbadd8ce61b594d61fbf44b",
    "spectrum fibres r=8 p=5":
        "b4991385c785186059c156098eec9bb0ad6424aff9d07ac7e68ba4125c42315e",
    "support frequencies r=12 p=2":
        "4f877b93144405f816151c8ef367813c301d1ead16405ca4bb53c2421cfdd9b8",
    "support frequencies r=16 p=3":
        "c87a902cd362c50bd31680d8d11b0e8ea3116cc37cb1b23cc6232af0618f045c",
    "transvection states n=13 k=5":
        "8fa087cfdd1043da8c3325507dd1fabc441494276eb497b10a066df58cd77fc0",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_seeded_output_digest(tmp_path, case):
    assert _digest(_cases(tmp_path)[case]()) == DIGESTS[case]


def test_every_case_is_pinned(tmp_path):
    assert sorted(_cases(tmp_path)) == sorted(DIGESTS)
