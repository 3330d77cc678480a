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
    ("rhs", "classical_t3"): (0, "449f2a0693e139447d1815507d880e0832e2811766bd02568572e7d44dcbe437", "8ab2255d42126a339a43554c3b28d8113dffd840bc7830241ef1f5fa56537927"),
    ("rhs", "diag23_t3"): (0, "2858093005df9927eaf66d1327baec0466f2ae4d7bd83199f298e8bda0313379", "c1387e4cfc7a67feb4b1021aa24309f383bfc921d7b56fb4b0988160878e733a"),
    ("rhs", "doubling_t3"): (0, "fbfcf62fc79fc45e938b4981e49750f20d714ddb66865e849668fb543ae8e3d4", "cd55ea9e253ea3aa34e263e9773b7f9828f5e4cb29650da1c627d0de41669762"),
    ("rhs", "identity_irrational_t2"): (0, "d11cdfab851121ff36c991f9bfd20592eb0b7b4edaa74d6a94ee1881f46263ba", "b5c0318d07b6266a1ccf61ddc6ae3d07d06d48fdd84864884c9d643218fe0041"),
    ("rhs", "mollifier_doubling_t2"): (0, "a40a9478e85597d758e0d19d8d429d76f1d18d32106dcea6abab6389bd00c3b1", "02e9e035f392996f9911f9b0c6ba039bd061de46e754c5f9126c69eb4f366119"),
    ("rhs", "mollifier_tripling_t2"): (0, "e659218317d2c255ba964f66a8ff30ca38c704c59cc426445113eae165997086", "ef1d7072d7249ef7da918ffdc966d9042b58ed58465110d191fb1df53b62600f"),
    ("rhs", "negation_t4"): (0, "8a4afe3ac3c22795820f95d4ed3dfb0680d3c131664c36cc95e1637e2a493dc8", "5376a57a0a33f045fdae533aacfa4a9c6a7dfa2506b840bcf9a850efe988eca1"),
    ("rhs", "nofix_translation_t3"): (0, "e4c617a5410bf9278d75aab874efa1d5e8d1927b4821900ee2c3befef0279b4a", "231634bdc381e4884bb7d1bf29035d566b8813c42f855d695f89fcfcf73d55ef"),
    ("rhs", "s3_rational"): (0, "afbe4c68905bb4cfd38b5b9eb834a965fd760491ea2c2619948acb34e282b9ab", "ecb830d151307a70a675aaaa251582c777f43c40fcb4c38ff53322b67217062b"),
    ("rhs", "s3_twisted"): (0, "48decb2a08b8638271b308956c34dc0d88270fd0e41d8906235ce76b13324813", "ccc171bae236c2db1db8da3ee65f342062e67539cc2898593682357ade35ba5a"),
    ("rhs", "s5_irrational"): (2, "466728363f712d752e733b0d78b0f4e549cf095ada26cfe55d42667b4f78f167", None),
    ("rhs", "shifted_classical_t3"): (0, "4960ab620aa540be26f285e1d3c59ed368013766c965a425ac9bfb34add1e418", "92a7d5205962ad3eb212f6582fb24023fb91650d7fad12700cab3ff1c47c93dc"),
    ("rhs", "translation_only_t3"): (2, "ad8ffc24fcfb3a13343a43abde2b4518f67acdd78b1fab9c0fff802e75006bdc", None),
    ("rhs", "twisted_halfweight_t2"): (0, "3fb27d5942bdf71331fa6ba36fccd1cf5340985c5f29fe778ae6917c7999d6e5", "468b1091e53c6f7c97a0b3b7741044754e91646a74b4cdacf9f4a61eddc3eb90"),
    ("rhs", "twisted_unit_t3"): (0, "a35475a6cdf70cc78c17cb96ba599749f7ca16364770d5e77abda5959796f525", "f9dffa9da150daa9bacee20ba896d560a9f1c7f278d769c79b455c7dad5568ff"),
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
    ("verify", "classical_t3"): (0, "ed5443764d91ec4fa60ce079a33e09ad415173bc73f858de269995b02ce10a55", "7212ac69ab8ebe0349bc61439bb17b6822bc70e105c9abfcf7e7d77873cc74ae"),
    ("verify", "diag23_t3"): (0, "ed8ab529bbd85431e56e7a745540afcdd9f4dd564c231326724ceab956cae09c", "1488a2b5ba1354c7bd254bc51e42796fc881b5f00ff1dd39c5de9850b14619f9"),
    ("verify", "doubling_t3"): (0, "774c01aa1400a2286f94e189e55fe8b99cfb2a5fa62e478bc25ee367a13d5270", "e5b31802b0938f04c46d85e732e1fc76eb07dc7265cc83cf5ee8f9e5486c9142"),
    ("verify", "identity_irrational_t2"): (0, "0878bc807814e34d85b951670761d2e2bd3aab3324b8a4838202596b85d246d1", "2ce504767e523fb45aed0ddb06f4375f86c0485ae8cd5902ac42d008631e9538"),
    ("verify", "mollifier_doubling_t2"): (0, "bc1421202e821ae62009761f50d2d540d2069d5b173146c2832a3ef0b8e10023", "00ad2599fa045a62c2910e0e126a1930e4e3ff857fcd369124230bad5d89060b"),
    ("verify", "mollifier_tripling_t2"): (0, "a3a4a822b758aca13e7c0be038f0f5fcd4ce40899ac81556045fe514b8add430", "8158c8e5c31e7d51c8c7197d1ed865fcac94b8536545a3497cda9a6e52f43a4d"),
    ("verify", "negation_t4"): (0, "7bd7f42e1d0ad608e993d2e227078cf85927955997a513ce9de8bcfab3e23f23", "a3c4dcea919f9ac259ea6b60bf44e2e8794b0a9db349ff9b65d0f5f543507942"),
    ("verify", "nofix_translation_t3"): (0, "de2b864cc93b5fbec2d51dd0b5eaa09f1b1487a522ed4c5400c7b0e1776a1998", "fd96a60d8ee6fd7f707827d4286ffaaf7bd83b8cd60dc2f283cdc754c35ac97e"),
    ("verify", "shifted_classical_t3"): (0, "42a8ead7ec9cc8c1423d2793b58601a1dce6598ce56499c9004184c2d7b58886", "9912353a038e52ee4e78d0d25ba79f5209f47c0013034c0e99e1d9f17975d9f7"),
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
# entries and memoized repeated sub-objects
LARGE_GOLDEN = {
    "rhs": (0, "120e6c181bf05647cfabf082de3222e14fd03830eacd4d9a0fad02f962756c3c", "da17f324cdaa82f1827469daf55219242366efae41e0d4781361994a162ce467"),
    "verify": (0, "955a5e036aa90048c55e89148a076ec0285c8b4ed7a55272a62ab0a72b8ab725", "dbf56350b6a8da89e02510ceff816999ab81d68991e412748c67f2378671b3a7"),
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
