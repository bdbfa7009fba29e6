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
    }


DIGESTS = {
    # bd_hitting_mc runs the jump chain with geometric holds: two uniforms
    # per jump instead of one per walk step, so its three digests were re-pinned
    "bd_hitting_mc r=16 p=3":
        "ab1a831026ecd88e405b3cd272e7e36de2db24083b2b20d7f9f24ee6aef7469e",
    "bd_hitting_mc r=32 p=2":
        "55f06c6ce0dd9b96f6b307bcbb61389cecdcc5547c4fc8618df596a179a5bf72",
    "bd_hitting_mc unfinished":
        "fb97e8990bc9b3352cf1919235b624f173c5279d3568b69275f72c1b4e9b2ea8",
    "burnin one-column r=16":
        "bff5a24365bad051137e2368343c017b33c977b2730824143cc0f1a5138c0e97",
    "burnin one-column r=16 lazy":
        "fa92281b74d8a110a9779f2443ccd688e231f81999f85220ed698af4f5c8957f",
    "burnin pa-pra r=6 p=3 m=1":
        "b122c7b75f0388a0da91b45ec052a4d1ec968e2bbacb909d01ffb831bd114d72",
    "burnin pa-pra r=6 p=3 m=1 lazy":
        "9b901fa19821bbe365b086ca2e639f08f2e5373ebfc12883eda7732a9ae70704",
    "burnin pa-pra r=6 p=3 m=2":
        "7c1b99f64b755411d0c2015fe720fce478c60d09a19a5c87cb53df2f1428e978",
    "burnin pa-pra r=7 p=5 m=1":
        "e810033a8e439e911ca63a4685dc0176aab04ec6d5c5ceb093dd4533e1810176",
    "burnin transvection n=32 k=2 lazy":
        "fae18b52349696fdf34009d3f21aed1d0711db130e2eb28b3297a3adc8345f6d",
    "burnin transvection n=8 k=2":
        "e617d63af0914e0c961253ebd4945b97ced2ced685c03847c467d722b4b9d08c",
    "burnin transvection n=8 k=2 lazy":
        "fe9b4770f9f9ab36ff6d2845e838a7d4255bc33a7eb86d9de0512f4675bac1a5",
    "embedded_crossing_mc r=16 p=3":
        "6a49dafc13cb8ce12e3ba5367d4401f8ed372e391b3e19b7fa2116c5fe5da3ea",
    "embedded_crossing_mc r=32 p=2":
        "e204ef665ab0b2b17ea2e5084b23bc1e6baa7b1ada025f7ad8967bd141da2e8d",
    "good measure heisenberg r=4 p=5 m=1":
        "4dbebb73b1b8bc08cb727c490f3a45a1260c293ee54f2c516d153a6392628a85",
    "good measure heisenberg r=5 p=3 m=2":
        "3335f13dfaea8099dd76fee35c8f86434889398274f608de9f2c27ab65d9c209",
    "good measure heisenberg r=6 p=3 m=1":
        "e8c4ccca3fddd75d3c3554e732b6fadf9aebc1db94687ad832c258d92089d6e1",
    "good measure transvection n=12 k=3":
        "bc371b2922a2ca38197d50d97865d33c1420bd82a7c6769e2b1f6dfe70ed07d4",
    "good measure transvection n=8 k=2":
        "9c5ea8b8cf3caad4e1e27db2e4f7a553654294b0c23f8b2bf396b7292432fd6f",
    "mc_tv_curve one-column r=64":
        "7b62f9f8b5a17740b7a5ddd064ef03dd0b9a231bdf24c5892cffc249efedc47a",
    "pa_pra_batch r=4 p=13 m=1 lazy":
        "3ee5a9c71fe6f2ac8d80ebbc318c29c725ffb6403467659371577152af9684d3",
    "pa_pra_batch r=8 p=3 m=3":
        "8bd66a4b682eba177708eb64ea74aaa5313c9d9233e38c61c12cdcfe74d0f22a",
    "simulate pa-pra p=3 m=1":
        "a8d2233cf102dcc55059357b31e911afaacc97c7641e71382b69bdd3af26332a",
    "simulate pa-pra p=3 m=2":
        "1fed53e10420490b0a922fb1c1918ea0fb5f97a74f53baad840548cbd9adb355",
    "simulate pa-pra p=5 m=1 lazy":
        "65f8a0820091eef585babeb12692dc799db7a422dda5af21f72357494f64da81",
    "simulate transvection n=8 k=2":
        "7bbfac2977c65d9d0a91deead45e77e04fc06f445194de5b25201125395fbf51",
    "support frequencies r=12 p=2":
        "c7da1d7e9235543b9a1fb992260c9a37cb70ca811907117dd3853f5c6bac7f92",
    "support frequencies r=16 p=3":
        "d7feb456543beff63064732922232de4548887a196c8888b7493805a6cc4d42f",
    "transvection states n=13 k=5":
        "f7bde01acefecf5a6d3ed6df9137d44b6d04da12a61009d5547f58d9e86651b6",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_seeded_output_digest(tmp_path, case):
    assert _digest(_cases(tmp_path)[case]()) == DIGESTS[case]


def test_every_case_is_pinned(tmp_path):
    assert sorted(_cases(tmp_path)) == sorted(DIGESTS)
