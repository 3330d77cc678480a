"""Golden digests of the ``rhs``, ``avcheck``, ``spectrum`` and ``verify``
reports.

Every committed scenario is run through ``rhs``, and every committed
flat-torus scenario through ``avcheck``, ``spectrum`` and ``verify``; the
exit code and the SHA-256 of the text report and of the ``--json`` file are
pinned.
Reports are deterministic byte for byte, so any change to a mode set, a
spectrum table, a heat trace or a fixed-orbit contribution (sphere conormal
determinants included) shows up here.  A digest may only be
refreshed together with a note in CHANGES.md saying why the report changed.
The orbit-class listing of the ``rhs`` reports is checked against the
per-orbit data of the localized side as well.
"""

import argparse
import hashlib
import io
import json
import pathlib

from fractions import Fraction

import pytest

from equilef import fixed_point_formula as fpf
from equilef import scenario_cli as cli
from equilef.errors import EquilefError
from equilef.geometry_models import FlatTorusModel

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# (command, scenario) -> (exit code, text sha256, json sha256 or None)
GOLDEN = {
    ("avcheck", "bad_float"): (64, "7fdbdabce88f3fd363149f259bd81a3ac58cc69e3ce73807849691e7d394d274", None),
    ("avcheck", "bad_matrix"): (0, "c0b7ab58e42a623592f1db70d2dbe598b4182b8953f59d9129c4737c8e6bf500", "319f6e6051af61ab955b974ab5a40170ce8bdddb85532d91047bdb66abed7ec9"),
    ("avcheck", "classical_t3"): (0, "220eef15f87bce71c36f8da0b685ee756d37b78fe8da34f6cb9e6cc3a03a50a1", "cc56dc40b153ac07e2bd314a1f84bd498940c0b8d3239bd02bc5f0e150c05173"),
    ("avcheck", "diag23_t3"): (0, "c657d31113a2b28d9ffb2547a9b57949dd0cdf660c19c0f11df28d7df8c5b358", "9a1ef38eb66a9c0de431310ef0914ed0fbc2fd6458c3fca11c6894a1ad1da2cd"),
    ("avcheck", "doubling_t3"): (0, "abcaaae9591255ae250e854e732e41d574bb65deeaf55eee7a6c7320ab91e143", "0b50207c8f46e15e608348ff050e9d60c74c17ccf9ce02e101bb0496d3256033"),
    ("avcheck", "identity_irrational_t2"): (0, "7c534d7ab3ec52268e1d453ba416f1f6e4c147430c2063d3c7d493fa3568c73c", "95f5a8169a083f7979aa0f1911c3ba5cfb17649fca6a5cd957acc83369b98e0e"),
    ("avcheck", "mollifier_doubling_t2"): (0, "e91e08d25ed87bdcb92b34869b58bb5bced44eb339cb261eaa93fdf803e07f38", "fb70f0487ebb7256313f0637e3c48769c3f9520e487c73050d4d55016f80d58f"),
    ("avcheck", "mollifier_tripling_t2"): (0, "336feeed3a567e9488b6b2197235522d7cb7960e3e0ccce65fdc9e52cc2b9e9a", "221fc34517481ed71ee4eae861962cbf3a22aa945b0520c60f637813ff2eaab4"),
    ("avcheck", "negation_t4"): (0, "0e41f001e8b6a3ff985b534fd6837b211e77a32debbf02c7bdb65f7353066659", "a350093a425f2d6a79b9e031856d0fb2b7d40d86c9e4cb1d1d5c58ec57df5b7e"),
    ("avcheck", "nofix_translation_t3"): (0, "c6e709814d0007f59eaa48f3b5adfe9bbe13aeac0c1c7c885df804c2048fd948", "36550033e32754b89610aaf2e90e6683c815b6e4dfb3dbc4b5612bfa9a6bb2e2"),
    ("avcheck", "shifted_classical_t3"): (0, "32eeda44e9fa6d0d5abb2e05130a6832d58ee45a3c5b64b6dbcd650d51f2bde7", "2db2d051f75a4e5c1333f8e48b11f6bc31840093880940ffbef13779c0470543"),
    ("avcheck", "translation_only_t3"): (0, "c3b4e03666b9dc6d48c696eefae661546420f886e0082a5eb78a3af68e9e5d81", "2b2473300f011e1cc1e34b47313a59f0346ba48dba81d517628aa4911c710419"),
    ("avcheck", "twisted_halfweight_t2"): (0, "42a2e45cacbe6fb89c5ca74ca77705d4940d85a424eb6801842cedc6534014c6", "4a8642d881f8e1d707b11263ffc144c9e4e33676db0869f88a744fb844d8ebb4"),
    ("avcheck", "twisted_unit_t3"): (0, "95954c978dbb869a170d47d1d8e7042a182b5d7f0c2be8f4a88b2e65ca7dd760", "7758f822777d2507ba662f13601c6686d117daf6a7ff188dae634e24e414f7b1"),
    ("rhs", "bad_float"): (64, "7fdbdabce88f3fd363149f259bd81a3ac58cc69e3ce73807849691e7d394d274", None),
    ("rhs", "bad_matrix"): (1, "4ea01ed8b3bd2d6468a02215d4b8f22414a05f8553a04298add00cff04da534d", None),
    ("rhs", "classical_t3"): (0, "00fd55d658d6a1e01530ee6ff2e261e1f48de033d2eb67f83853e185e2c1da7b", "7ab563c667fad5ee31dd7395eb152d7eca2ac347c28b90bdb445605c75d660cf"),
    ("rhs", "diag23_t3"): (0, "818a03dc1463b9d202ee24a4bc93f8901d9765162408d94066f66dcef51230b9", "87246ec34825cee0ddf02d7cf2a6934c0bcd34fa6f207628c3161bf17ee9bfb5"),
    ("rhs", "doubling_t3"): (0, "b62101005a23235706d1fb7b2995d587ed262c89575d877febd3332162e514c1", "edc5c530e85cd024611e148db1ef0b850328151f92d9d24afc0e7ea6456c5247"),
    ("rhs", "identity_irrational_t2"): (0, "2099b1cd792a1ae0e22b57e92834ba87e9f54363b245007a5c1312a11ac22bea", "7d03ff812603761664d5ee0645a2f5c9cd2de10454793a4ba9421c95bd52780f"),
    ("rhs", "mollifier_doubling_t2"): (0, "502c895e69ad69b5c511af3fec07da37a1b005c29be279f0758b2becd2db1a64", "e0f20f86ee310d9e64aaf8ea3543f82fdd62e2fc52e142be35993193ea35665a"),
    ("rhs", "mollifier_tripling_t2"): (0, "07a86e2fef34478551d624d6ca9fe34161c011762a509f976b4c0d527478ab06", "bf94d9fb48f050657f19afb221bf624fbea2e85c22253965351d12181eeb897c"),
    ("rhs", "negation_t4"): (0, "5f0c608b7fa679decaecf671870314a5e6272b888e377dc552b7bc45e4c58858", "3e3d71a8b9aac4103204410ac2820fa989617a5810b059fcd1212b171c6c998a"),
    ("rhs", "nofix_translation_t3"): (0, "b144f304d27ccc9b46d7c685aee37442418af240f4906830059cfca4f8460d82", "601fdf7e4ce7d4ca0724b8574cb20b5eb8cc604ac3d237e25edbc76c9db15d29"),
    ("rhs", "s3_rational"): (0, "3e7fdcaadf839d03847fa1f20a55dbcbe45cb1512b1b751ae253262170db55d7", "305d3be78202cf9406e7ec8e6a3e64344f248c392711a6224e251c1ac85534ec"),
    ("rhs", "s3_twisted"): (0, "f6b5fec908cc53b132f56fc337a632111b8ea31cc2150aac778ecbfcc0f1ec26", "d21fcc9d2d09a297bd6372beb186ca62ae3c5f37731c0fa907a095bd48b6e5a1"),
    ("rhs", "s5_irrational"): (2, "466728363f712d752e733b0d78b0f4e549cf095ada26cfe55d42667b4f78f167", None),
    ("rhs", "shifted_classical_t3"): (0, "620c686cd8adf4b5d15dd189d1d4e2f0fc89d22991c33cdc5b7f142c8c3548e4", "ec81bed76c4acce51a0c4dd0384c43236ee4cf05624945cf8f366091c619d857"),
    ("rhs", "translation_only_t3"): (2, "ad8ffc24fcfb3a13343a43abde2b4518f67acdd78b1fab9c0fff802e75006bdc", None),
    ("rhs", "twisted_halfweight_t2"): (0, "5610b2663437b16e14078a1a7d91cf9d29ae73088759cb06a2c81d0fde7d56f4", "7ccb3b5d2d888d7fdba9f0a50d4b7aa0a3be169f90f7888700e4bce1aee31a64"),
    ("rhs", "twisted_unit_t3"): (0, "0c7c11ce7c0e094481a94d66943bfc5eb8aca411e0dce42e8f01671b27c7d8f9", "ff46a6e8bb43a126e88736425bbfdff37eeca64b43893d0b9dab63da30513e26"),
    ("spectrum", "bad_float"): (64, "7fdbdabce88f3fd363149f259bd81a3ac58cc69e3ce73807849691e7d394d274", None),
    ("spectrum", "bad_matrix"): (0, "462991136f83fdfeb0863846973e9b98fe542d937e3dd9b8929ba5df1cd3c647", "e6ca70d63275d5a669bac99ec0c3be9dcedcc43991de5d64e06e10692e65d058"),
    ("spectrum", "classical_t3"): (0, "347dea043453d5096b15b6eadd95af88d299fb192edf04193c42a9e989637a63", "e0b9d855330a5469704733bdf1405038673c0ef9e6684b5c8e24dac60acbd59c"),
    ("spectrum", "diag23_t3"): (0, "efa0cc12cd2049b1c28f62c737eba07ca5b5b23c1c3697564dcb6916598a8151", "bfb87d0617eb93db23dea7602eb2d9088d428a98a81b2cc6715f781388e775ac"),
    ("spectrum", "doubling_t3"): (0, "edb5818da4b4bad91501fdaa303edbc9ec0546d1e21863f10b0d05b392ef6b2b", "33c954706a82e82f94361508f8f369bac925f9be957e199c00d02009196ec934"),
    ("spectrum", "identity_irrational_t2"): (0, "5d89a35e28ee0ea16d8ec9137b032d87b12e82c504ac0a1ae7284202ef9334d5", "e062a2b5cc91878a9c676d314fc0ceff40b825752ab717133de05075cf01cc4a"),
    ("spectrum", "mollifier_doubling_t2"): (0, "fd18c4a95b54836ab1bed1adb310514b6fbdf8b224519c5a06c440848aa2988b", "7a9a7fc59f8b5aaf6cbd94d5edc774ad32f9c5085089bb53e9f26efcd6deba12"),
    ("spectrum", "mollifier_tripling_t2"): (0, "fb4d51d8ebde96ffeb46338f093c07dabf5fdcfb91b32bffe56def24f10e0fa4", "762ed06c1cdcc576a62d89aea2b3521aa144ca683174345b97b1177c6708b1a0"),
    ("spectrum", "negation_t4"): (0, "eebea4c7bb9a4b478d6a49932ac9b0f4b6b249218ae3715a22b19a3d59d150bb", "9c927777665f90db62039488c28010471d495623047c88ec550cac9ef7a33022"),
    ("spectrum", "nofix_translation_t3"): (0, "15ebde95ad51f2f857fc4127020d5c9654b16087ca768872735b93710de8533e", "bfea0b6a4bd4ac805515cf92046f3c15a16348c160847a19164a36ff146ba1f6"),
    ("spectrum", "shifted_classical_t3"): (0, "18d3b745735f91ff15212274fb51a0b5ec39ff0bfbc3db89c0162b88eee81a68", "31c78b12e51b0c7c9941d8eccbe920d55b649af9920d6f158873fd89f423e85e"),
    ("spectrum", "translation_only_t3"): (0, "14212d4caba7f6ade910b92b5f54fb8f8ef4827e01c666dc6060f550d8d1f280", "f70589932c12f3567acacbbfe168e305c7937da33b071dab38a21a46aebc6293"),
    ("spectrum", "twisted_halfweight_t2"): (0, "0badbf4609c136343bd1cd053343d8a761ef279634f6f293571090b24203c9f6", "0d934193b0c1665ea2bf3dd847024072aad305819902bfc539bd2508a1800875"),
    ("spectrum", "twisted_unit_t3"): (0, "46b5701f8b721d0211dfde8083ddc24c0e4ebd72bb85ead0f36aac2dcdbc435b", "7db87ccaf87fc66a95668f12c3e93be8b936806d7343b5fa5bb20fea8a54b5d4"),
    ("verify", "bad_float"): (64, "7fdbdabce88f3fd363149f259bd81a3ac58cc69e3ce73807849691e7d394d274", None),
    ("verify", "bad_matrix"): (1, "4ea01ed8b3bd2d6468a02215d4b8f22414a05f8553a04298add00cff04da534d", None),
    ("verify", "classical_t3"): (0, "c87c3c70c930245cab18c0d6c1cc0fbfe5f8b0fa3551e10525df0c69e91277ad", "75a5f5cdab762b5a0496fac29b20dce842a6f70590258915437a4fd1f0ae2682"),
    ("verify", "diag23_t3"): (0, "7c5bbfc7c641be6733fd9c3190fa7b76382530963acb68e11c8d914fad61a583", "79f96ce37ada26a3d77bbe7fbd63def31f38db6a012d386979ed018003f7b940"),
    ("verify", "doubling_t3"): (0, "fc2e4e5670d22d6d0a6981b0b66297f733159b5231949f38a57ffd26f2676b57", "0f2c3144e4226d1a38743b85272606e3ee9f51ea61ef73bf41c710658961ddda"),
    ("verify", "identity_irrational_t2"): (0, "ccec05a0cdb8b19e5d0477622cd2155f255024a3a344c1db9c816836c0e4c205", "21828f834b73a4f4df1b7d57c657399cc24245306dcf14b3fca539ffb66afdb7"),
    ("verify", "mollifier_doubling_t2"): (0, "01e290f5d50d0b0be5eeb0cdaf2f54f7f7a12d00cb7a1b7d4f4eda2284cb386a", "7e0f591eea04153366dbe9e4b866ba301461ee7a60458518d3d26cc488e81e71"),
    ("verify", "mollifier_tripling_t2"): (0, "4a3f459c571bea3c5ed9485320bc020e3c9fb8e3b18217b3baffcb5fce33f8f6", "aa9cd9c86e446cccf8ca8b227c4a208d68ce9c8f7478946d214a7f85cda1f93b"),
    ("verify", "negation_t4"): (0, "c90aab5e6a6b9ce07d30af9338ff25ffe67f24ba68be44926ad948fc00937e87", "e325a0216a3a388d9a6090647bdc9790bc3896b55ecea01ca7e0d0e7e4bdf813"),
    ("verify", "nofix_translation_t3"): (0, "666f46b229a2e25ac113b328d66d8eb661a900f28270ca6f7182690872d9c0cf", "334e989b41be3c02eb9f0f4123c8b64f90635b002b913079726e5e4de42d4ede"),
    ("verify", "shifted_classical_t3"): (0, "a8baa1b97c613857254cc846fd1c01c38b371da4d5cb9ecd57741bd3246a5e01", "e10c277a786a0a8b5d08d6cf507c2fcfc6bd058089715c51efea47c5f63e711f"),
    ("verify", "translation_only_t3"): (2, "ad8ffc24fcfb3a13343a43abde2b4518f67acdd78b1fab9c0fff802e75006bdc", None),
    ("verify", "twisted_halfweight_t2"): (0, "e4dc0a8edfcc34ffc483d08bef8df3bb33e0c68d37bf5fd52a6dbb594ee065d9", "1fec1bc7c76d7f25e67a6f82af68ad59dcfc6739411ae2ff589bb58ae8768b72"),
    ("verify", "twisted_unit_t3"): (0, "a9c2bd85ebb9e8c9ad153b7f2c2dd21c93c60252d818c9200f556ef324ea5288", "a87767ed561fbfb8d01645c1a68312f445bdc1f51ff1308f12931bd26acfaae6"),
}


def flat_torus_scenarios():
    names = []
    for path in sorted(SCENARIOS.glob("*.scenario")):
        model = json.loads(path.read_text()).get("model", {})
        if model.get("type") == "flat_torus":
            names.append(path.stem)
    return names


def all_scenarios():
    return [path.stem for path in sorted(SCENARIOS.glob("*.scenario"))]


def report_digests(command, name, json_path):
    stream = io.StringIO()
    options = argparse.Namespace(cutoff=None, tolerance=None, grid=None,
                                 json_path=str(json_path))
    code = cli.run(command, str(SCENARIOS / f"{name}.scenario"), options, stream)
    text = hashlib.sha256(stream.getvalue().encode()).hexdigest()
    json_path = pathlib.Path(json_path)
    blob = (hashlib.sha256(json_path.read_bytes()).hexdigest()
            if json_path.exists() else None)
    return code, text, blob


def test_every_flat_torus_scenario_is_pinned():
    for command in ("avcheck", "spectrum", "verify"):
        pinned = {name for cmd, name in GOLDEN if cmd == command}
        assert pinned == set(flat_torus_scenarios())


def test_every_scenario_is_pinned_for_rhs():
    pinned = {name for cmd, name in GOLDEN if cmd == "rhs"}
    assert pinned == set(all_scenarios())


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_report_digest(command, name, tmp_path):
    got = report_digests(command, name, tmp_path / "report.json")
    assert got == GOLDEN[(command, name)]


def diag_doc(k):
    """T^3 with the flow along the last axis and A = diag(k, k, 1):
    (k - 1)^2 fixed orbits, all of one isotropy type and one term."""
    return {
        "schema": 1,
        "name": f"diag_{k}_{k}_1_t3",
        "model": {"type": "flat_torus", "n": 3, "v": ["0", "0", "1"]},
        "map": {"matrix": [[k, 0, 0], [0, k, 0], [0, 0, 1]],
                "translation": ["0", "0", "0"]},
        "cutoffs": {"modes": 3},
    }


# 100 orbits, pinned before the report writers shared the orbits' term
# entries and memoized repeated sub-objects; refreshed when ``fixed_orbits``
# became a list of orbit classes (one class here, its 100 member strings)
LARGE_GOLDEN = {
    "rhs": (0, "b47ed11894da0d861613ec07a163ea9c7529ba44265a41712e6a006cfaaec816", "723106fe7b88e4861861551ea9639e9471c2b2defa6eed1c5531ad34cd4a0138"),
    "verify": (0, "77207f64a0edb7b3c8b3e554bd510f561045a3573600cf6f87fb384c75c33274", "125cc2db93d0a7d0b812be883e63d9b8c2eeb991f8a56f91ca3681741e8aa7a7"),
}


def run_doc(command, doc, tmp_path):
    scenario = tmp_path / f"{doc['name']}.scenario"
    scenario.write_text(json.dumps(doc))
    json_path = tmp_path / f"{command}.json"
    stream = io.StringIO()
    options = argparse.Namespace(cutoff=None, tolerance=None, grid=None,
                                 json_path=str(json_path))
    code = cli.run(command, str(scenario), options, stream)
    return code, stream.getvalue(), json_path.read_bytes()


@pytest.mark.parametrize("command", sorted(LARGE_GOLDEN))
def test_large_orbit_report_digest(command, tmp_path):
    code, text, blob = run_doc(command, diag_doc(11), tmp_path)
    assert json.loads(blob)["rhs"]["orbit_count"] == 100
    assert (code, hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(blob).hexdigest()) == LARGE_GOLDEN[command]


def test_term_entries_are_built_per_distinct_term(monkeypatch, tmp_path):
    """Every orbit of diag(k, k, 1) has the same term, so the report builds
    its complex entries as often at 4 orbits as at 100."""
    calls = []
    original = cli._complex

    def counting(z):
        calls.append(z)
        return original(z)

    monkeypatch.setattr(cli, "_complex", counting)
    counts = {}
    for k in (3, 11):
        calls.clear()
        code, _, blob = run_doc("rhs", diag_doc(k), tmp_path)
        assert code == 0
        assert json.loads(blob)["rhs"]["orbit_count"] == (k - 1) ** 2
        counts[k] = len(calls)
    assert counts[3] == counts[11]


def class_listing_cases():
    """``(name, scenario document)`` of every committed scenario, of
    diag(k, k, 1) at k = 3 and 11, and of a twisted map whose three orbits
    share ``dim`` and isotropy but not their twist phase (three classes)."""
    cases = [(name, json.loads((SCENARIOS / f"{name}.scenario").read_text()))
             for name in all_scenarios()]
    twisted = {**diag_doc(2), "name": "twisted_phases_t3",
               "map": {"matrix": [[2, 0, 0], [0, 4, 0], [1, 1, 1]]},
               "twist": {"weight": "1/2"}}
    return cases + [(f"diag_{k}", diag_doc(k)) for k in (3, 11)] \
        + [("twisted_phases_t3", twisted)]


def test_orbit_classes_list_the_orbits_of_the_localized_side(tmp_path):
    """Each class's ``count`` and member lists agree with the report's
    totals, and its member strings are, in enumeration order, those of the
    orbits ``lefschetz_rhs`` lists with that class's data."""
    checked = 0
    for name, doc in class_listing_cases():
        scenario_path = tmp_path / f"{name}.scenario"
        scenario_path.write_text(json.dumps(doc))
        try:
            scenario = cli.load_scenario(scenario_path)
            torus = isinstance(scenario.model, FlatTorusModel)
            rhs = fpf.lefschetz_rhs(scenario.model, scenario.map,
                                    fibers="de_rham" if torus else "scalar",
                                    twist=scenario.twist)
        except EquilefError:
            continue        # a schema or gate failure lists no orbit
        code, _, blob = run_doc("rhs", doc, tmp_path)
        assert code == cli.EXIT_PASS
        report = json.loads(blob)["rhs"]
        classes = report["fixed_orbits"]
        assert sum(c["count"] for c in classes) == report["orbit_count"] \
            == len(rhs.contributions)
        for c in classes:
            assert all(len(column) == c["count"]
                       for column in c["members"].values())
        if report["exact"] is not None:
            assert sum(c["count"] * Fraction(c["contribution_exact"])
                       for c in classes) == Fraction(report["exact"])
        # each orbit takes the next member of the first class with its data
        taken = [0] * len(classes)
        for contrib in rhs.contributions:
            orbit = contrib.orbit
            i = next(i for i, c in enumerate(classes)
                     if taken[i] < c["count"]
                     and c["dim"] == orbit.dim
                     and c["isotropy_components"]
                     == orbit.isotropy.component_count
                     and c["contribution_exact"] == (
                         None if contrib.total_exact is None
                         else str(contrib.total_exact))
                     and complex(c["contribution"]["re"],
                                 c["contribution"]["im"])
                     == complex(float(f"{contrib.total.real:.12g}"),
                                float(f"{contrib.total.imag:.12g}")))
            if torus:
                expected = {"base_point": orbit.base_point}
            else:
                point = orbit.base_point
                expected = {"support": point.support,
                            "moduli_sq": point.moduli_sq,
                            "phases": point.phases}
            expected["g0"] = contrib.g0
            members = classes[i]["members"]
            assert list(members) == list(expected)
            for field, values in expected.items():
                assert members[field][taken[i]] == " ".join(map(str, values))
            taken[i] += 1
        assert taken == [c["count"] for c in classes]
        checked += 1
    # all but bad_float, bad_matrix, s5_irrational and translation_only_t3
    assert checked == 16


def test_orbits_with_the_same_data_are_one_class(tmp_path):
    """No two classes of a report hold the same shared fields: orbits that
    share ``dim``, ``isotropy_components`` and their term are listed as one
    class, so each report lists as few classes as the grouping allows."""
    checked = 0
    for name, doc in class_listing_cases():
        scenario_path = tmp_path / f"{name}.scenario"
        scenario_path.write_text(json.dumps(doc))
        json_path = tmp_path / f"{name}.json"
        options = argparse.Namespace(cutoff=None, tolerance=None, grid=None,
                                     json_path=str(json_path))
        if cli.run("rhs", str(scenario_path), options,
                   io.StringIO()) != cli.EXIT_PASS:
            continue        # a schema or gate failure lists no orbit
        classes = json.loads(json_path.read_text())["rhs"]["fixed_orbits"]
        shared = [json.dumps({k: v for k, v in c.items()
                              if k not in ("count", "members")},
                             sort_keys=True)
                  for c in classes]
        assert len(set(shared)) == len(shared), name
        checked += 1
    # all but bad_float, bad_matrix, s5_irrational and translation_only_t3
    assert checked == 16
