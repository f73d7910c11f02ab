"""What the translators emit, pinned byte for byte.

Each row is the sha256 of ``export_document([t.process],
t.required_programs)``: the whole process in FDL, blocks included,
plus the PROGRAM section with every description.  The table was
recorded before the four translators shared one member list and one
compensation-block builder; a refactor of the translation layer must
leave every row as it is.  The export is stable across
``PYTHONHASHSEED`` values.
"""

import glob
import hashlib
import os

import pytest

from repro.core.contract import ContractSpec, ContractStep, translate_contract
from repro.core.flexible import FlexibleMember, FlexibleSpec
from repro.core.flexible_translator import translate_flexible
from repro.core.fmtm import translate
from repro.core.parallel_saga import translate_parallel_saga
from repro.core.saga_translator import translate_saga
from repro.core.sagas import SagaSpec, SagaStep
from repro.core.speclang import parse_spec
from repro.fdl.exporter import export_document
from repro.wfms.datatypes import DataType, VariableDecl
from repro.workloads.banking import fig3_spec
from repro.workloads.generator import random_flexible_spec

SPEC_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "specs"
)

DIAMOND = SagaSpec(
    "diamond",
    [SagaStep(n) for n in "abcd"],
    order=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
)

CONTRACT = ContractSpec(
    "order",
    context=[VariableDecl("Amount", DataType.LONG)],
    steps=[
        ContractStep("reserve"),
        ContractStep("insure", entry_condition="Amount > 100"),
        ContractStep("charge", entry_condition="Amount > 0", critical=True),
        ContractStep("ship"),
    ],
)

#: TestSharedMember's spec: d sits on both alternatives.
SHARED_MEMBER = FlexibleSpec(
    "shared",
    [FlexibleMember(n, compensatable=True) for n in "acdbx"]
    + [FlexibleMember("f"), FlexibleMember("e", retriable=True)],
    [list("acdf"), list("abxde")],
)


def _fig2(n):
    return SagaSpec("fig2_%d" % n, [SagaStep("t%d" % i) for i in range(1, n + 1)])


def _shipped(path):
    with open(path, "r", encoding="utf-8") as handle:
        return translate(parse_spec(handle.read()))


def _translations():
    rows = {}
    for path in sorted(glob.glob(os.path.join(SPEC_DIR, "*.fmtm"))):
        rows[os.path.basename(path)] = lambda p=path: _shipped(p)
    for n in range(1, 7):
        rows["fig2-n%d-dead-path" % n] = lambda n=n: translate_saga(_fig2(n))
        rows["fig2-n%d-guarded" % n] = (
            lambda n=n: translate_parallel_saga(_fig2(n))
        )
        rows["fig2-n%d-compensate-completed" % n] = (
            lambda n=n: translate_saga(_fig2(n), compensate_completed=True)
        )
    rows["fig3"] = lambda: translate_flexible(fig3_spec())
    rows["diamond"] = lambda: translate_parallel_saga(DIAMOND)
    rows["contract"] = lambda: translate_contract(CONTRACT)
    rows["shared-member"] = lambda: translate_flexible(SHARED_MEMBER)
    for seed in range(6):
        rows["random-flexible-s%d" % seed] = lambda seed=seed: translate_flexible(
            random_flexible_spec(branches=3, seed=seed)
        )
    return rows


TRANSLATIONS = _translations()

PINS = {
    "contract":
        "c4dc5aa34a00fc62651569dffbf42bc87d4069a201d860605b29904f1c6c502b",
    "dag_saga.fmtm":
        "139762c3f9fd2dc33d2fe44e5eb12e16b739b691c4e56b5a63a64b4458dfc483",
    "diamond":
        "139762c3f9fd2dc33d2fe44e5eb12e16b739b691c4e56b5a63a64b4458dfc483",
    "fig2-n1-compensate-completed":
        "e9254902cecea83c860ec96ce0dc3e4a6d27ffb73e7051cbdc82137ca6f7bc1c",
    "fig2-n1-dead-path":
        "de4cf02339512b0ffe78f75ba5dcf463867e21156ac995ce81b7065dd499e91b",
    "fig2-n1-guarded":
        "6d2b211f90fd4403afe80bb8ec193734726c21fe130bb5637e00f0466f221518",
    "fig2-n2-compensate-completed":
        "b26b90035b8a06fdc4f4178fa414a31004543dcc75f610444cc4d044f1dd504a",
    "fig2-n2-dead-path":
        "4269e0cce6ed720d3344b4b820d9823ce347ab2db742b3194f2a6c1d7e31174a",
    "fig2-n2-guarded":
        "b3eedbe8dd1d338d39fa4f585f6704f2659aac525e09f65d7ade330eb4be8d0e",
    "fig2-n3-compensate-completed":
        "df388399281e6bc816d5d208a88c86865212b9122bdda8a78aa7b54918a86bce",
    "fig2-n3-dead-path":
        "ab9bcd685b0a911712acd24df67a1857ccecbe8f1771854db50d372e1d4ca76e",
    "fig2-n3-guarded":
        "73a7ea8d5f15f0511d0785ea0b43422535c6a428162fcc77de26f22b1857b057",
    "fig2-n4-compensate-completed":
        "8bae8747a390317061001e64d5489d63522c8b323fe2b57ac9b552992313ac8a",
    "fig2-n4-dead-path":
        "3f069bb320f68431e66d2e93891e9580197812612d1e0e41805a0c5366d26608",
    "fig2-n4-guarded":
        "9a00c49368b5f3fd32d2843d807909b8b2eb211b6bb57fbfda916681eef204f1",
    "fig2-n5-compensate-completed":
        "98d6d88d3e53250d54125613e20daed618ef9a885895921491090c68ded9ae7c",
    "fig2-n5-dead-path":
        "ebaae00aa75df7c64ca3f9082c6806c53f08b2f4d6a49f9ee3ef4cb1047cbe7c",
    "fig2-n5-guarded":
        "7076cd3dbe1d50ac79c5be93d24c34a958da362fa9e35f41c47d5c6985ad0236",
    "fig2-n6-compensate-completed":
        "8f330b8204a7574805817db5720dd0f5f8b67c86bf48e61a548ccd2ec7961b5c",
    "fig2-n6-dead-path":
        "c4430f4b7bd5fa6a224fe67efb34f0d6b00601c92dfa80851c28ceb80c3416e4",
    "fig2-n6-guarded":
        "cdec2277fda84645c5c8fbda92cd29fb2ef3a68def784ac560689d8fc7f65eca",
    "fig3":
        "bca05ad4d2d6d660e0b4c343aca245a01f6ff36499f359b4f87e56b6dcf56b98",
    "fig3.fmtm":
        "bca05ad4d2d6d660e0b4c343aca245a01f6ff36499f359b4f87e56b6dcf56b98",
    "random-flexible-s0":
        "517dbfa7b21271562acff2f4b55830de64babfb41faff4ebe536f387dadbecd9",
    "random-flexible-s1":
        "2898200b674be4ec17e37f2841f6aac4010b16627ceca94ca75d356497e5fbd2",
    "random-flexible-s2":
        "96b39edada21c268058a25d196c6b34e9f8f888f2aad2543f1077fa1099bcb6e",
    "random-flexible-s3":
        "74fef16bebb41c2cb3dc2f23d9d7125a104c29246602073f8fa35de8f4c68d4f",
    "random-flexible-s4":
        "e45465ebcb1099e90cf06830fdd6d769f7061f3d78433a8072d0be81808b626b",
    "random-flexible-s5":
        "c4ba61807f1cc39ea7180bbd53c2bafd509248a838d96c32ff4eb6c241093e8f",
    "shared-member":
        "0e5f1c5e40fe0fffdc357d05162d2e1ce7971bacfdb363e6a4e5ffd56baa93ae",
    "shipping.fmtm":
        "74b3bae3ff723b4e6738a1510ec9568f7b23d725e49fc2c7e288a87f6dc35e48",
    "travel.fmtm":
        "1f767bb643afd9e2f3046d58fe5337ee6b7716d6fad448994cceb1bcbc6129ac",
}


def fdl_sha256(translation):
    text = export_document([translation.process], translation.required_programs)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_row_is_pinned():
    assert set(PINS) == set(TRANSLATIONS)


@pytest.mark.parametrize("label", sorted(TRANSLATIONS))
def test_translation_is_pinned(label):
    assert fdl_sha256(TRANSLATIONS[label]()) == PINS[label]
