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

# (command, scenario) -> (exit code, text sha256, json sha256 or None); the
# JSON digests were refreshed when the JSON file became ``json.dumps(report)``
# on one line (same content, no indentation)
GOLDEN = {
    ("avcheck", "bad_float"): (64, "7fdbdabce88f3fd363149f259bd81a3ac58cc69e3ce73807849691e7d394d274", None),
    ("avcheck", "bad_matrix"): (0, "c0b7ab58e42a623592f1db70d2dbe598b4182b8953f59d9129c4737c8e6bf500", "ccc696a72f227b89e7de8a7428628f81d5351b24c7a6b58744ea5496b654c436"),
    ("avcheck", "classical_t3"): (0, "220eef15f87bce71c36f8da0b685ee756d37b78fe8da34f6cb9e6cc3a03a50a1", "b19b25213025efb4df1847906f057aa43e628fa811a999d9b3aed7afeb42ab39"),
    ("avcheck", "diag23_t3"): (0, "c657d31113a2b28d9ffb2547a9b57949dd0cdf660c19c0f11df28d7df8c5b358", "4ef76895570bb5f89f19002996b72da22d2d5adb18d88327f2272bd36daa5ea1"),
    ("avcheck", "doubling_t3"): (0, "abcaaae9591255ae250e854e732e41d574bb65deeaf55eee7a6c7320ab91e143", "3c0b3eed78220a267373ea18882b0f5b776ffa8eca392549a0173b2d297e5e1a"),
    ("avcheck", "identity_irrational_t2"): (0, "7c534d7ab3ec52268e1d453ba416f1f6e4c147430c2063d3c7d493fa3568c73c", "57158fb88e306be7774c071ddb2de8575e007dc7d0b05cdc32520d8140fbdcf0"),
    ("avcheck", "mollifier_doubling_t2"): (0, "e91e08d25ed87bdcb92b34869b58bb5bced44eb339cb261eaa93fdf803e07f38", "a6212b244c653969a2444dd41ec682c1a1e9a69ba5e1f51864440a08f39f83e0"),
    ("avcheck", "mollifier_tripling_t2"): (0, "336feeed3a567e9488b6b2197235522d7cb7960e3e0ccce65fdc9e52cc2b9e9a", "ae6bc630d8d0bbca3911036001c4efc65c704295dde690d76640a4fad8405914"),
    ("avcheck", "negation_t4"): (0, "0e41f001e8b6a3ff985b534fd6837b211e77a32debbf02c7bdb65f7353066659", "67d8a0a0e504cd6f8d5d6bd75f86d510f72349e4804aeff17cd5149a57fb9986"),
    ("avcheck", "nofix_translation_t3"): (0, "c6e709814d0007f59eaa48f3b5adfe9bbe13aeac0c1c7c885df804c2048fd948", "51bb4dcb4534c6c1a78a10b21a7cc451e4041aedc08fc7c72d1967c748d86325"),
    ("avcheck", "shifted_classical_t3"): (0, "32eeda44e9fa6d0d5abb2e05130a6832d58ee45a3c5b64b6dbcd650d51f2bde7", "636842eaca791f2a2c618acdcba2226d147ffcc835f14b396a3f3163b9ad0937"),
    ("avcheck", "translation_only_t3"): (0, "c3b4e03666b9dc6d48c696eefae661546420f886e0082a5eb78a3af68e9e5d81", "e80c2d55e3bdfebe2d6835b1138a749c7f7281e18916a7a79ff033ec8b98ea3c"),
    ("avcheck", "twisted_halfweight_t2"): (0, "42a2e45cacbe6fb89c5ca74ca77705d4940d85a424eb6801842cedc6534014c6", "8ea5b86177a1e3cbfa6f04b6e0e30362930f0c27c033c3d074b3dcc07f79231b"),
    ("avcheck", "twisted_unit_t3"): (0, "95954c978dbb869a170d47d1d8e7042a182b5d7f0c2be8f4a88b2e65ca7dd760", "8a713345740a88a4b88713a5a2a1795d15d49a1fa0b4e88082d767f88d206e5d"),
    ("rhs", "bad_float"): (64, "7fdbdabce88f3fd363149f259bd81a3ac58cc69e3ce73807849691e7d394d274", None),
    ("rhs", "bad_matrix"): (1, "4ea01ed8b3bd2d6468a02215d4b8f22414a05f8553a04298add00cff04da534d", None),
    ("rhs", "classical_t3"): (0, "00fd55d658d6a1e01530ee6ff2e261e1f48de033d2eb67f83853e185e2c1da7b", "ea69ce6fbafe9cb565cf110f686c758d2425545b04cc80e9b4258caf71457ca1"),
    ("rhs", "diag23_t3"): (0, "818a03dc1463b9d202ee24a4bc93f8901d9765162408d94066f66dcef51230b9", "99bb74612d4b79b53ba8607315c45df0e183a73aabe6a4ebd9b6162bbc5074d3"),
    ("rhs", "doubling_t3"): (0, "b62101005a23235706d1fb7b2995d587ed262c89575d877febd3332162e514c1", "35a048cde70a7d0ff2610f7252a3af252d356d58a8b5f67a955400c587725821"),
    ("rhs", "identity_irrational_t2"): (0, "2099b1cd792a1ae0e22b57e92834ba87e9f54363b245007a5c1312a11ac22bea", "b28d8e508b3c4c09dfd77af3ee03e0505619178e1134e5355de10fc2cbcca376"),
    ("rhs", "mollifier_doubling_t2"): (0, "502c895e69ad69b5c511af3fec07da37a1b005c29be279f0758b2becd2db1a64", "9d599cc62b97927980288b191931c624909b2b98e468756a51d0b53c3c9a35ed"),
    ("rhs", "mollifier_tripling_t2"): (0, "07a86e2fef34478551d624d6ca9fe34161c011762a509f976b4c0d527478ab06", "114200ff048f46957e256a053e44642bc00bbc0518f5d67d66e1d990c8e55ba8"),
    ("rhs", "negation_t4"): (0, "5f0c608b7fa679decaecf671870314a5e6272b888e377dc552b7bc45e4c58858", "6bd7c2c17b905f2b010bde85e1b08c7dc54302b58c175607c0e764ade8806054"),
    ("rhs", "nofix_translation_t3"): (0, "b144f304d27ccc9b46d7c685aee37442418af240f4906830059cfca4f8460d82", "d37d3340b74d869024c620cd3734c46a6ebcfe45148a493bc70798bc2929ff0d"),
    ("rhs", "s3_rational"): (0, "3e7fdcaadf839d03847fa1f20a55dbcbe45cb1512b1b751ae253262170db55d7", "d1651ebf720b75787f7f35e2a1ffa6f6e903dfe46eecd0f4009bf26cbcac629c"),
    ("rhs", "s3_twisted"): (0, "f6b5fec908cc53b132f56fc337a632111b8ea31cc2150aac778ecbfcc0f1ec26", "1e729948149b290e82f36711813624f41867f8f6167e01309bb17dc2353a331a"),
    ("rhs", "s5_irrational"): (2, "466728363f712d752e733b0d78b0f4e549cf095ada26cfe55d42667b4f78f167", None),
    ("rhs", "shifted_classical_t3"): (0, "620c686cd8adf4b5d15dd189d1d4e2f0fc89d22991c33cdc5b7f142c8c3548e4", "7247757ee6e3dc827c5687deff3ffd3f84b44a4b3324953374e19fa02ac62ef1"),
    ("rhs", "translation_only_t3"): (2, "ad8ffc24fcfb3a13343a43abde2b4518f67acdd78b1fab9c0fff802e75006bdc", None),
    ("rhs", "twisted_halfweight_t2"): (0, "5610b2663437b16e14078a1a7d91cf9d29ae73088759cb06a2c81d0fde7d56f4", "4af5ead59fb11548e1ddcdb800b898cf27839136b21ddb496aedbd1760a2f766"),
    ("rhs", "twisted_unit_t3"): (0, "0c7c11ce7c0e094481a94d66943bfc5eb8aca411e0dce42e8f01671b27c7d8f9", "c05a98e265c1fec5f8e911c49c600911d44f54f9c7814f169a1435cd4dfc5174"),
    ("spectrum", "bad_float"): (64, "7fdbdabce88f3fd363149f259bd81a3ac58cc69e3ce73807849691e7d394d274", None),
    ("spectrum", "bad_matrix"): (0, "462991136f83fdfeb0863846973e9b98fe542d937e3dd9b8929ba5df1cd3c647", "cca93312e4935697e326475a009aa159d5ae4da2d733c3d2c8e2303922a18993"),
    ("spectrum", "classical_t3"): (0, "347dea043453d5096b15b6eadd95af88d299fb192edf04193c42a9e989637a63", "98ce63ed6e7dd6f9a075f10bdf0ab7f91f7fdcc54cb4789927ac634b8b25a7f4"),
    ("spectrum", "diag23_t3"): (0, "efa0cc12cd2049b1c28f62c737eba07ca5b5b23c1c3697564dcb6916598a8151", "095324f46aab5a6561841d9029791c2fa89b2c9c3acbaf618a0000cb86f2d514"),
    ("spectrum", "doubling_t3"): (0, "edb5818da4b4bad91501fdaa303edbc9ec0546d1e21863f10b0d05b392ef6b2b", "e41f1e612acccff8f732c1c1e00095d782b2cd0b94761d608016f7a6424664a4"),
    ("spectrum", "identity_irrational_t2"): (0, "5d89a35e28ee0ea16d8ec9137b032d87b12e82c504ac0a1ae7284202ef9334d5", "395747f28e1b0a88f7e949ed9811095ce04d90a6be0051cfd8f322ad61fd8004"),
    ("spectrum", "mollifier_doubling_t2"): (0, "fd18c4a95b54836ab1bed1adb310514b6fbdf8b224519c5a06c440848aa2988b", "eaa8767f46c3e280557166728d2017bfe6ac1413e9a1f17f50e6cb018379c756"),
    ("spectrum", "mollifier_tripling_t2"): (0, "fb4d51d8ebde96ffeb46338f093c07dabf5fdcfb91b32bffe56def24f10e0fa4", "60f4e7856f6e6c3306a15c35ed02cd34f8a7547e4c133e9ddcfe00cf6eff33f5"),
    ("spectrum", "negation_t4"): (0, "eebea4c7bb9a4b478d6a49932ac9b0f4b6b249218ae3715a22b19a3d59d150bb", "1b7d22fa5d79fbb427a3fbb01a792b6fb62c5b02cb0883d2a42b250c9784b7ea"),
    ("spectrum", "nofix_translation_t3"): (0, "15ebde95ad51f2f857fc4127020d5c9654b16087ca768872735b93710de8533e", "f15bf0e60769274533038e765104ce7e5e6d4b66ddf3562b1396d4967ce8fced"),
    ("spectrum", "shifted_classical_t3"): (0, "18d3b745735f91ff15212274fb51a0b5ec39ff0bfbc3db89c0162b88eee81a68", "c6c28836e9997821065dc4c71e718cfb260f5fa3e5798c7bc53b04e8960eb9ca"),
    ("spectrum", "translation_only_t3"): (0, "14212d4caba7f6ade910b92b5f54fb8f8ef4827e01c666dc6060f550d8d1f280", "370ba0393c2e8fd4e4efeed6c5203301b57eeb67d5675f6d6813bfca26504baa"),
    ("spectrum", "twisted_halfweight_t2"): (0, "0badbf4609c136343bd1cd053343d8a761ef279634f6f293571090b24203c9f6", "96b89b6662f8f346e2be51d830687af7b62d37c0f61539c3c05918ed00d8eaba"),
    ("spectrum", "twisted_unit_t3"): (0, "46b5701f8b721d0211dfde8083ddc24c0e4ebd72bb85ead0f36aac2dcdbc435b", "2df7ad6fea7f5f1700e35013473b925558977bbf357ebafcc961d884eb694556"),
    ("verify", "bad_float"): (64, "7fdbdabce88f3fd363149f259bd81a3ac58cc69e3ce73807849691e7d394d274", None),
    ("verify", "bad_matrix"): (1, "4ea01ed8b3bd2d6468a02215d4b8f22414a05f8553a04298add00cff04da534d", None),
    ("verify", "classical_t3"): (0, "c87c3c70c930245cab18c0d6c1cc0fbfe5f8b0fa3551e10525df0c69e91277ad", "8d148b1f350222d245534d246b69b7022d805d776e613c6d3a41362f10ebc762"),
    ("verify", "diag23_t3"): (0, "7c5bbfc7c641be6733fd9c3190fa7b76382530963acb68e11c8d914fad61a583", "73910382ba7e35a5cb23a784c798bd4f675d7f6f3b7cacc0842bb0d4e0b112cb"),
    ("verify", "doubling_t3"): (0, "fc2e4e5670d22d6d0a6981b0b66297f733159b5231949f38a57ffd26f2676b57", "9f4d738f18ec1d7c65926695b66644b58f30d47eff84b83ea005006ab48f0401"),
    ("verify", "identity_irrational_t2"): (0, "ccec05a0cdb8b19e5d0477622cd2155f255024a3a344c1db9c816836c0e4c205", "c6e94f17ea170bb33bded54162a043743378e8b3a59e13050ae75d4df7c80c1e"),
    ("verify", "mollifier_doubling_t2"): (0, "01e290f5d50d0b0be5eeb0cdaf2f54f7f7a12d00cb7a1b7d4f4eda2284cb386a", "aa3db703972e67a9b01cdad8f0afc7c4ff6b78ab74a0a6f6ed5de49aec752a4e"),
    ("verify", "mollifier_tripling_t2"): (0, "4a3f459c571bea3c5ed9485320bc020e3c9fb8e3b18217b3baffcb5fce33f8f6", "e905623ba9d0468f408ef7fb36f25a4bba44e3270c10cab4ea9abc4b0c5b7cf8"),
    ("verify", "negation_t4"): (0, "c90aab5e6a6b9ce07d30af9338ff25ffe67f24ba68be44926ad948fc00937e87", "2dffb2d6f65c24640579a03a2cae423bbf9b7dfdef29b13b8f936a73148d3c8e"),
    ("verify", "nofix_translation_t3"): (0, "666f46b229a2e25ac113b328d66d8eb661a900f28270ca6f7182690872d9c0cf", "209c3db124d8e206ccec85a08aa05267b1004021be92c57936ad66e662a86f06"),
    ("verify", "shifted_classical_t3"): (0, "a8baa1b97c613857254cc846fd1c01c38b371da4d5cb9ecd57741bd3246a5e01", "116ba42b5b57d8f939c30b20b3d94141939742ace73a075a76203dd0bb73689e"),
    ("verify", "translation_only_t3"): (2, "ad8ffc24fcfb3a13343a43abde2b4518f67acdd78b1fab9c0fff802e75006bdc", None),
    ("verify", "twisted_halfweight_t2"): (0, "e4dc0a8edfcc34ffc483d08bef8df3bb33e0c68d37bf5fd52a6dbb594ee065d9", "1661163ceb1f7d7bfe4e67b5cba52f26b504e0226aa198dec8b3751cc4dd98bc"),
    ("verify", "twisted_unit_t3"): (0, "a9c2bd85ebb9e8c9ad153b7f2c2dd21c93c60252d818c9200f556ef324ea5288", "04d744f5096eaf6e9488fe1bf8325f9327df04f1f61c9d6f70b2b18b3503a5e0"),
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
# became a list of orbit classes (one class here, its 100 member strings),
# and the JSON digests again when the JSON file lost its indentation
LARGE_GOLDEN = {
    "rhs": (0, "b47ed11894da0d861613ec07a163ea9c7529ba44265a41712e6a006cfaaec816", "8c3b4fa4ff5c93380fb1365fd095359887d51b93df5a92a7f7302a179f271296"),
    "verify": (0, "77207f64a0edb7b3c8b3e554bd510f561045a3573600cf6f87fb384c75c33274", "729ad20e1c4807a24d4b23b48acc43aaaaa11b3d7d5f6d916dbb2e17648bad2c"),
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
