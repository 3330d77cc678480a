"""Golden digests of the ``spectrum`` and ``verify`` reports.

Every committed flat-torus scenario is run through both commands; the exit
code and the SHA-256 of the text report and of the ``--json`` file are
pinned.  Reports are deterministic byte for byte, so any change to a mode
set, a spectrum table or a heat trace shows up here.  A digest may only be
refreshed together with a note in CHANGES.md saying why the report changed.
"""

import argparse
import hashlib
import io
import json
import pathlib

import pytest

from equilef import scenario_cli as cli

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# (command, scenario) -> (exit code, text sha256, json sha256 or None)
GOLDEN = {
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
    ("verify", "classical_t3"): (0, "b43540798e831d923623bea13dfc412e77d8b375638a49072ba8a82370ea911a", "ce63d1d9760bb50d89be83e16d91b2ce1e20e88148bb643e1a68888b59439eee"),
    ("verify", "diag23_t3"): (0, "57bf4dd55a7dc89a411576b5e3a7f572545c81cc1f630bfcd23df97551d49a5c", "efa48f03c0cca1c474713db1042a70e046a20e2cd1e6774a8968d045275260e4"),
    ("verify", "doubling_t3"): (0, "103622e7905c3b3a0c5183b04b3a8fb9cf7add46e1b3b3f83e17ea0fbcf76746", "74e6ff70a2a3331d74d50f484bd80665237678bbc5678f35b63a3dbb52194435"),
    ("verify", "identity_irrational_t2"): (0, "9ef756ca3bca6d832a2a908cfde214dbee9476c935698923ba5c816e45b61684", "5a7c59973672eab682d3ee6efd262f0d7b1cc873f6eb2c58ff0924ea39f6a7b8"),
    ("verify", "mollifier_doubling_t2"): (0, "3917483a3cb4151c82361e38f5d524b5db427227cee644686e6269d7cbea0cbb", "bc18e2e9535203fd982c9319dd28749659f31d7aaaa47c5a82561f19bf567ff1"),
    ("verify", "mollifier_tripling_t2"): (0, "1c73aa730c2cf8f3c31cf3582bc556db5bd7082fcdc7681d8b43e5f06db8b4a2", "4cfe76a0e9a943fb17b2c45d40941b19782998efafb4b1f72af1323778074f74"),
    ("verify", "negation_t4"): (0, "cc284346deae8f525a5b7457b016157657d573d3d514a0a270cbdff5188522b5", "4bbb8374699621f7f3276eed9d5c904b30cb4c05e9f802721e5df33319bfdae3"),
    ("verify", "nofix_translation_t3"): (0, "2fb9ebe5192040aaea36dc03d6fbad17ebab29231c25ae24a2b39cc1940a80aa", "e1d714a61690316a231f1e3cd5a3be1dde62d42208d52a6360aeff7e11afd4e1"),
    ("verify", "shifted_classical_t3"): (0, "a4f994871bc13c36b95eaa61426e7df73ce8f05c7d724611db7fdaaf91b415ec", "b36a603bc02210e8a9c4d66c8784036812c1b0d701423a408bfecf9a0935acc8"),
    ("verify", "translation_only_t3"): (2, "ad8ffc24fcfb3a13343a43abde2b4518f67acdd78b1fab9c0fff802e75006bdc", None),
    ("verify", "twisted_halfweight_t2"): (0, "34637f7042bddc87c2a2363d45689bd96e928f86bdd83cc47e204e9b78af4a30", "fa8093b24adb552b78e56b93de9e5db606545595e6714f87d651703c14a8b2e6"),
    ("verify", "twisted_unit_t3"): (0, "e7340567fd2bc509af2ac098074a653a060c3224958807e973e5847bc6a8f94c", "b319302dc0378660d84a5f99de3355d993b48a091eca9d89758958795dd15d82"),
}


def flat_torus_scenarios():
    names = []
    for path in sorted(SCENARIOS.glob("*.scenario")):
        model = json.loads(path.read_text()).get("model", {})
        if model.get("type") == "flat_torus":
            names.append(path.stem)
    return names


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
    pinned = {name for _, name in GOLDEN}
    assert pinned == set(flat_torus_scenarios())


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_report_digest(command, name, tmp_path):
    got = report_digests(command, name, tmp_path / "report.json")
    assert got == GOLDEN[(command, name)]
