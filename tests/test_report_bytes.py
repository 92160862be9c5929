"""Byte identity of `analyze` reports across changes to the report path.

Each case is a seeded spec with planted orbits.  The table holds the exit
code and the sha256 of stdout for `analyze` as JSON, as `--text` and, for
specs within the oracle size guards, with `--oracle`.  The digests were
taken before the generator labels and the JSON writer gained their bulk
paths, so any change to the bytes of a report fails here.  The cases cover
all four families, rotation orbits of more than 100 letters, agent orbits
of 20 letters or more, drift pairs, markov initial distributions, a chain
with every rate frozen and the agent space dimension.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from ctrlperm.cli import main
from helpers import shuffled, spanning_tree_pairs

# id: (family, n, block sizes, seed, drift, initial distribution, agent_space_dim)
CASES = {
    "so_n-2": ("so_n", 2, [2], 1, False, False, None),
    "so_n-5": ("so_n", 5, [5], 2, False, False, None),
    "so_n-9": ("so_n", 9, [3, 4], 3, False, False, None),
    "so_n-12": ("so_n", 12, [12], 4, True, False, None),
    "so_n-40": ("so_n", 40, [10, 10, 5], 5, False, False, None),
    "so_n-120": ("so_n", 120, [110], 6, False, False, None),
    "so_n-150": ("so_n", 150, [101, 30, 2], 7, True, False, None),
    "so_n-300": ("so_n", 300, [300], 8, False, False, None),
    "sphere-6": ("sphere", 6, [2, 2, 2], 9, True, False, None),
    "sphere-30": ("sphere", 30, [30], 10, False, False, None),
    "sphere-64": ("sphere", 64, [8] * 8, 11, False, False, None),
    "sphere-140": ("sphere", 140, [120, 15], 12, True, False, None),
    "multi_agent-4": ("multi_agent", 4, [4], 13, False, False, 3),
    "multi_agent-8": ("multi_agent", 8, [3, 4], 14, True, False, None),
    "multi_agent-25": ("multi_agent", 25, [20], 15, False, False, None),
    "multi_agent-30": ("multi_agent", 30, [30], 16, False, False, None),
    "multi_agent-45": ("multi_agent", 45, [22, 13, 6], 17, True, False, 2),
    "multi_agent-70": ("multi_agent", 70, [10] * 5, 18, False, False, None),
    "markov-3": ("markov", 3, [], 19, False, True, None),
    "markov-5": ("markov", 5, [2, 2], 20, False, True, None),
    "markov-8": ("markov", 8, [8], 21, True, True, None),
    "markov-24": ("markov", 24, [20], 22, False, True, None),
    "markov-40": ("markov", 40, [21, 12], 23, True, False, None),
    "markov-60": ("markov", 60, [25, 25], 24, False, True, None),
}

GUARDS = {"so_n": 12, "sphere": 12, "multi_agent": 8, "markov": 8}

# case id -> variant -> (exit code, sha256 of stdout)
DIGESTS = {
    "so_n-2": {
        "json": (0, "3661ec847ae47f00a59b9f11dd03ce05240b8d336181b9fe669ce4503f0fff57"),
        "text": (0, "3368a02a01ccd695772dfc6928e070f9b579c7e17785d2d08e0da7051f8b9d0c"),
        "oracle": (0, "6eaa5feb530eb3699ad5c528e5da5d6872ebac52633cec7ff89120f425f54831"),
    },
    "so_n-5": {
        "json": (0, "780a2b5ac4c933308fade5b90a33af2e3b5a3654baf338ac1e39956270b12bf1"),
        "text": (0, "4b17e2ace37a6571dda9e97eaa46c2d98a7a36d9a99d84d216d32ba1ba9e4622"),
        "oracle": (0, "814ea5bd0dfce9b6b530de56a1b448cdc07fe3941d37d98763be960b432b7aca"),
    },
    "so_n-9": {
        "json": (1, "aeae4fb8f9d1d2e384bd31a2051ee532e8961056a409baeb326cf116902c5173"),
        "text": (1, "f47f8399daafe1ed6c532ba5693a59a262d1927a9a5e843d58926bb44ad57635"),
        "oracle": (1, "b5b69195bf9da21017eaab473be996059f6d775557738f60de1c273dcdd66b60"),
    },
    "so_n-12": {
        "json": (0, "9bf16bef26de0ee9a008b777bd6853541da38a79ba206e353cb12439ee9b3d9a"),
        "text": (0, "08eef2019a37ca6f96f4d70ac145b3ea84fc60dba4cbc371607045bd9c7d1ef4"),
        "oracle": (0, "1f39485a0a44cdf0fdbcc175f94d39fbabab4714e865555d5cf726d2df2e1152"),
    },
    "so_n-40": {
        "json": (1, "9aabb43f32f6ce44e5c8687191a4218af7864bdc18e76e9970158a398b92168c"),
        "text": (1, "b9a0117a7b85fceaea00328cceb950319a6dc17a110a0645ddfc62e90aa532e2"),
    },
    "so_n-120": {
        "json": (1, "f2d379ca65f42e764d3cab2b8cd8f3dba6dee8313b6acba3fc7236802785252c"),
        "text": (1, "57c8ace81743ebff401e97ae36df24072b51afa789d727c12fe043be08b4af6b"),
    },
    "so_n-150": {
        "json": (1, "b8200234d1d182615c29964cef755a1ee62b775d92e4dc354521694672da4c7f"),
        "text": (1, "0277436c99d64c0034ca4938fe4cb38dc7dc658ce5d31bda19f4b31d6d9eddff"),
    },
    "so_n-300": {
        "json": (0, "ef74732c6565754f5d414bd894e511bdf390194bb083dbdcde4303628eaf95b2"),
        "text": (0, "d89bf247fd6dce0cd4ec553a486c2c3c40a013c0fac91bde4ae6b5f9a569f1a6"),
    },
    "sphere-6": {
        "json": (1, "0bdb79016883f8bdce2d0cd8e251da9554b475cd2913506eeb4ad452473d299f"),
        "text": (1, "ae4dd6f6c9f7f7d4b1a498c5dd68bdc00a5144f66d0ba64deb18ab82d4c499df"),
        "oracle": (1, "72bcebb3dcccbbb1cac44bda9da94b71c2c0fcde6a331d239dfdf0080a670a09"),
    },
    "sphere-30": {
        "json": (0, "761477d9889660362e01979a2904c2023976b7febf76647a156108a3c3938ac2"),
        "text": (0, "3c8d062862aa93ce5ef3075a511a4308eb0fc3cd2fdf7841295ef9085508f943"),
    },
    "sphere-64": {
        "json": (1, "8a636a7ab7f2b55076f952dab4b3664c442a235b99687842a7e974c3eeb84ba7"),
        "text": (1, "dba9fe909cedb0893cac834bf8c6e8f076ec6434a8b4d572234898916219b6d5"),
    },
    "sphere-140": {
        "json": (1, "402e9f0fdb1e9502f945a96d17f69e7a5af3b322ab638f057cf6f165da1e6370"),
        "text": (1, "2a114cc0b21431459169e178edb14a154449df4179f10b226a04efd3ad5a28df"),
    },
    "multi_agent-4": {
        "json": (0, "8c3ca7e8d2fb11e1df6b8fe23582bb012820d2b6b213e07e33987c5cd644eac0"),
        "text": (0, "cc39c899912d16a2398eea22e76175137f11215b624429b804b2be743cf6075b"),
        "oracle": (0, "ed3e94a9739c80f1f9c24e33422408fbfa215fb999579743b5a985f36698d13a"),
    },
    "multi_agent-8": {
        "json": (1, "396b66f9a74ba94a578a7c64c0e7d87e2951eb194adfec85d92d4b4c616e4b48"),
        "text": (1, "044034e53ba4f0c412d65a06393061f2ea94506e73dd2b9c24c16f42b15e45aa"),
        "oracle": (1, "06d9a68ee9fed7dc700ede8c4aabd1a8b2046bc9b201190af58eecdc87aadca6"),
    },
    "multi_agent-25": {
        "json": (1, "a52579ed12479cb947c65e38520165ff80437aa47f478cd3b20760881f1820ae"),
        "text": (1, "00a71aadc703b748c73cde266382a767bac071494d1bf14861d222a2e035f183"),
    },
    "multi_agent-30": {
        "json": (0, "7d0d8ce363422638617ee0a245920521faf68a8e910bede1b7d928f54e97c507"),
        "text": (0, "be4a53786a86cbb5c70f96337c9cbe9626683277970c7184909b75e6753f82e4"),
    },
    "multi_agent-45": {
        "json": (1, "ea3277d9ff13d23deebc712455e7ff4fb61aaa7833c7fa73dcaf618dc99edbf1"),
        "text": (1, "3fe85e67a0e6bfdb60fe2b3859801a34534e4a8cbd864b96c6556f7ba26ee8a4"),
    },
    "multi_agent-70": {
        "json": (1, "848e10db18fbfdc8a3ed18fa2f54dc00554abb47fd3942698c81ea370ee38aa8"),
        "text": (1, "2395c5bedbed0bbff3ea150eac9bcbad02d002f64ab9c890e1860fe91dd72a6d"),
    },
    "markov-3": {
        "json": (1, "9a84de65ce9771fd42ff07fc28f73d63af7b586a2a785f92f8f1c7745779ea92"),
        "text": (1, "b1cb7425be333d8b86204971f45f1f23f95c30abafc948fb28429ffa5973c88a"),
        "oracle": (1, "419eb978a0f85d22c2d1f9fcf6bcdcec97f2a2797412270a04e365a8ca76f563"),
    },
    "markov-5": {
        "json": (1, "effa76532e7a15608604c3107fced68613176b71fa2ae650245848f677782fb8"),
        "text": (1, "e42b113fbe9a96353ae7fa0aa318af1c50a03cd68a763df624d80e3f9a29ad12"),
        "oracle": (1, "2e43137cece2291504de1d2bfbf28a100a3740605da54f08d5b348c8a984b6ba"),
    },
    "markov-8": {
        "json": (0, "fff67d33e92d96f0f62cd790cdd04c6619c406f6c461e297a5a147980d3d8483"),
        "text": (0, "7104c911ac5cc9e313c28827c2bbae3428bae55bbddfcfcc23592b61420bac73"),
        "oracle": (0, "4a57cc86f8ec97a63f8c501e30746faab8084ba0fc58f17a51fc8a58dc5a3c2f"),
    },
    "markov-24": {
        "json": (1, "3dd23bef32182e726c700947e0263aba0f5c5cf3b4fa870ab797e7165cd4344d"),
        "text": (1, "20bcc69994ec3af2d5d2069143fad0302dd0ca41c6bbe51e329f3d6b263dd151"),
    },
    "markov-40": {
        "json": (1, "b763543f5c2624c6830a7adf9a26e5195033e7116f2dbfc7b5a6e47909eada63"),
        "text": (1, "797de63414f9d1f030ec8b878c67af19e93dc91089bfe5e18c4a3990f94cc0cb"),
    },
    "markov-60": {
        "json": (1, "b49b64a016de908bfe67b0504c5dd101e685fe6b03f27b07e04aafe7127f3c66"),
        "text": (1, "d3c5c1326606acc15bc18ffe2319faabe644a2e49cc10af33c9addb47439fc22"),
    },
}


def spec_document(case):
    """The spec of ``case`` as a JSON document, pairs in drawing order."""
    family, n, blocks, seed, drift, dist, agent_space_dim = CASES[case]
    rng = random.Random(seed)
    letters = shuffled(rng, range(1, n + 1))
    pairs = []
    at = 0
    for size in blocks:
        block = letters[at : at + size]
        at += size
        pairs += spanning_tree_pairs(rng, block)
        for _ in range(size // 3):
            a, b = sorted(block[int(rng.random() * size)] for _ in range(2))
            if a != b and (a, b) not in pairs:
                pairs.append((a, b))
    doc = {"family": family, "n": n, "controls": [list(p) for p in pairs]}
    if drift:
        doc["drift"] = doc["controls"].pop()
    if dist:
        weights = [int(rng.random() * 6) for _ in range(n)]
        weights[0] += 1
        doc["initial_distribution"] = [str(Fraction(w, sum(weights))) for w in weights]
    if agent_space_dim is not None:
        doc["agent_space_dim"] = agent_space_dim
    return doc


def variants(case):
    family, n = CASES[case][:2]
    names = {"json": [], "text": ["--text"]}
    if n <= GUARDS[family]:
        names["oracle"] = ["--oracle"]
    return names


def run_analyze(path, flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", *flags, path])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_analyze_report_bytes_are_pinned(tmp_path, case):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_document(case)))
    got = {name: run_analyze(str(path), flags) for name, flags in variants(case).items()}
    assert got == DIGESTS[case]
