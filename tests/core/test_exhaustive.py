"""Every reached outcome vector, native and workflow side by side
(``tests/exhaustive.py``).

Walked: every shipped ``examples/specs/*.fmtm`` (the diamond DAG saga
and the shipping contract among them, the contract also with a context
under which its critical step fails), Figure 2 sagas with n <= 6 under
the dead-path and the guarded construction (and n <= 4 with
``compensate_completed``), and ``TestSharedMember``'s flexible
transaction.  At every leaf both runs keep their model's guarantee and
agree on outcome, attempt order and final database, or differ in one
of the divergences EXPERIMENTS.md documents.  The leaf count of every
walk equals a count derived from the model alone, so a pruned branch
shows, and the digest of every leaf is pinned, so a changed translation
that still keeps the guarantee shows too.
"""

import glob
import os

import pytest

from repro.core.flexible import FlexibleMember, FlexibleSpec
from repro.core.fmtm import translate
from repro.core.parallel_saga import translate_parallel_saga
from repro.core.saga_translator import translate_saga
from repro.core.sagas import SagaSpec, SagaStep
from repro.core.speclang import parse_spec
from tests.exhaustive import (
    SHARED_DEAD,
    SHARED_RERUN,
    SIBLING_ORDER,
    SIBLINGS_FINISH,
    Case,
    digest,
    divergence,
    guarantee_violation,
    walk,
)

SPEC_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "specs"
)


def _shipped(filename):
    with open(os.path.join(SPEC_DIR, filename), "r", encoding="utf-8") as f:
        return parse_spec(f.read())


def _fig2(n):
    return SagaSpec("fig2_%d" % n, [SagaStep("t%d" % i) for i in range(1, n + 1)])


def _shared_member():
    # TestSharedMember (tests/core/test_flexible_translation.py): d sits
    # on both alternatives, after c on one and after x on the other.
    return FlexibleSpec(
        "shared",
        [FlexibleMember(n, compensatable=True) for n in "acdbx"]
        + [FlexibleMember("f"), FlexibleMember("e", retriable=True)],
        [list("acdf"), list("abxde")],
    )


# Leaf counts from the models alone.  A member or compensation decision
# doubles the leaves below it; a retriable member triples them (it
# commits after 0, 1 or 2 aborts).
#
# Linear saga of n steps: an abort at step j leaves j - 1 compensations,
# each committing or failing once, so the aborts give 2^0 + ... +
# 2^(n-1) = 2^n - 1 leaves, and the commit one more, or 2^n when it is
# compensated too.
def _linear(n, compensate_completed=False):
    return 2 ** (n + 1) - 1 if compensate_completed else 2 ** n


LEAVES = {
    "travel.fmtm": _linear(3),
    # a aborts: 1.  b and c commit: d commits (1) or aborts and a, b, c
    # are compensated (2^3).  Exactly one of b, c aborts: the other
    # still finishes, then it and a are compensated (2^2 each way).
    # Both abort: a is compensated (2).
    "dag_saga.fmtm": 1 + (1 + 2 ** 3) + 2 * 2 ** 2 + 2,
    # t1 aborts: 1.  t2 aborts: t1 compensated (2).  t4 aborts: t3
    # (3).  t5 aborts: t7 (3).  t6 aborts: t5 compensated, t7 (2 * 3).
    # t8 commits: 1; aborts: t6, t5 compensated, t7 (4 * 3).
    "fig3.fmtm": 1 + 2 + 3 + 3 + 2 * 3 + 1 + 4 * 3,
    # Weight 80, Priority 1: five steps run, as a linear saga.
    "shipping.fmtm": _linear(5),
    # Weight 0, Priority 0: pick, weigh and book_courier run, then the
    # critical dispatch fails: aborts give 2^3 - 1, the failure 2^3.
    "shipping.fmtm-critical-fails": (2 ** 3 - 1) + 2 ** 3,
    # a aborts: 1.  c aborts: the second alternative from a (S = 17:
    # b aborts, a compensated (2); x aborts, b and a (4); d aborts, x,
    # b, a (8); e (3)).  d aborts: c and a compensated natively (4),
    # while the workflow goes on with b, x and d again (1 + 2 + 4 + 3 =
    # 10 for each of those 4).  f commits: 1.  f aborts: c, and d in the
    # workflow, are compensated (4), then b aborts (a: 2), x aborts (b,
    # a: 4), or e runs natively (3) while the workflow's second d
    # commits (1) or aborts (x, b, a: 8).
    "shared-member": (
        1 + 17 + 4 * (1 + 2 + 4 + 3) + 1 + 4 * (2 + 4 + 3 * (1 + 8))
    ),
}
for _n in range(1, 7):
    LEAVES["fig2-n%d-dead-path" % _n] = _linear(_n)
    LEAVES["fig2-n%d-guarded" % _n] = _linear(_n)
for _n in range(1, 5):
    LEAVES["fig2-n%d-dead-path-compensate-completed" % _n] = _linear(_n, True)

#: The documented divergences each walk must show; every other walk
#: keeps exact parity on every leaf.
DIVERGENCES = {
    "dag_saga.fmtm": {SIBLINGS_FINISH, SIBLING_ORDER},
    "shared-member": {SHARED_RERUN, SHARED_DEAD},
}

#: sha256 over every leaf's digest (decisions, both runs' outcomes,
#: attempt logs and databases, the workflow's activity order), in
#: depth-first order, recorded before the four translators shared one
#: member list and one compensation-block builder.
DIGESTS = {
    "dag_saga.fmtm":
        "4947b2c03324166bbe48b94fdef4e09b13e3079c1316b79fb667c6369c8eaf7e",
    "fig3.fmtm":
        "7b11a3c1e8cca7a0b497fd742e148871706a2831c4c319a5c03a819295b5c6c7",
    "travel.fmtm":
        "b04b1661b2443b8b735dab91c06c448f03ad94c19d5fc4edd30931a1761cecc6",
    "shipping.fmtm":
        "f613b0332ff28c5233d19f57922d4552267300e42e10f15f0ccc3992e836c7b5",
    "shipping.fmtm-critical-fails":
        "bb3d9ba36a25bfa154513f62bac14e37cb8445d8ad785e45d01f6e1fe530fb75",
    "shared-member":
        "8d3de7794c6edabdcecb59a75912708b6dede3de08d75a84ccd44eea97fc3f60",
    "fig2-n1-dead-path":
        "8c18f6b1060dbd06ecc14e90a3aa93991b9e15f4a131a13bc938e85533d6a724",
    "fig2-n1-dead-path-compensate-completed":
        "ca9c2269a45fbb53d06ff08deae81e41622b29b3347c45c957a13ad940ceb78e",
    "fig2-n1-guarded":
        "88d3220ed4aecd086dc18791924066cf40e51b6c10d48ff9290cf5aca743455e",
    "fig2-n2-dead-path":
        "28bbe4b884b89e0c45f464cb701290963d1d2191b91ab891e7e2bf649b83572a",
    "fig2-n2-dead-path-compensate-completed":
        "18c89903137d090a06a561e6fea299a1ba81de7d7ba7c209f5be0c471bc6160d",
    "fig2-n2-guarded":
        "ecaf29d60abce8a448e34fbb3e1b2901f41d757794f7cf2adc6196f5b090c8b2",
    "fig2-n3-dead-path":
        "95b7aaf0cc438d7337e32dc939a63b5257647f55d5182640e03861e66c67e454",
    "fig2-n3-dead-path-compensate-completed":
        "c2adbcde7a39ca4a9089551b72d8a4630c40bd0a0cd2bdc2932b1ec654505f05",
    "fig2-n3-guarded":
        "2873c38984d5c340648384d275a7f5ee3064dda77a639afc16d9db1c0d2898f3",
    "fig2-n4-dead-path":
        "a99ec7195eb02a0e3957fe4cdb128ab8ad72e7d4ea2fe88d43123def9115bba6",
    "fig2-n4-dead-path-compensate-completed":
        "1c41e3f608200639c115bc285227a031d0bb03707919a500c587918cc2a27f24",
    "fig2-n4-guarded":
        "489425f99b5c4fe77d454b891079a5cc25a30d5d6cde6cf43802e2bd6b3cb8f4",
    "fig2-n5-dead-path":
        "b1bd8b610dca53077d83ee173666252b319165458863ded77e580f2d74ad124f",
    "fig2-n5-guarded":
        "01e9c1ff4f4099360f301a3eed7ef154edb614853c9ce4d196a6cd283ad7813d",
    "fig2-n6-dead-path":
        "dd55eb2c72c832fe4f414ad81d9ca55b24dd207f0c42bb813151f67fdb0724db",
    "fig2-n6-guarded":
        "784e56b73b5f37e68949ca3aa5aca4658ef8ef378510ba52255921ff28ee1664",
}


def _cases():
    cases = [
        Case(name, spec, translate(spec))
        for name, spec in (
            (name, _shipped(name))
            for name in ("dag_saga.fmtm", "fig3.fmtm", "travel.fmtm")
        )
    ]
    shipping = _shipped("shipping.fmtm")
    cases.append(
        Case("shipping.fmtm", shipping, translate(shipping),
             context={"Weight": 80, "Priority": 1})
    )
    cases.append(
        Case("shipping.fmtm-critical-fails", shipping, translate(shipping),
             context={"Weight": 0, "Priority": 0})
    )
    shared = _shared_member()
    cases.append(Case("shared-member", shared, translate(shared)))
    for n in range(1, 7):
        spec = _fig2(n)
        cases.append(Case("fig2-n%d-dead-path" % n, spec, translate_saga(spec)))
        cases.append(
            Case("fig2-n%d-guarded" % n, spec, translate_parallel_saga(spec))
        )
        if n <= 4:
            cases.append(
                Case(
                    "fig2-n%d-dead-path-compensate-completed" % n,
                    spec,
                    translate_saga(spec, compensate_completed=True),
                    compensate_completed=True,
                )
            )
    return cases


CASES = _cases()


def test_every_shipped_spec_is_walked():
    shipped = {os.path.basename(p) for p in glob.glob(
        os.path.join(SPEC_DIR, "*.fmtm"))}
    assert shipped <= {case.label for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[c.label for c in CASES])
def test_every_outcome_vector(case):
    leaves = walk(case)
    assert len(leaves) == LEAVES[case.label]
    seen = set()
    for leaf in leaves:
        for side in ("native", "workflow"):
            problem = guarantee_violation(case, getattr(leaf, side))
            assert problem is None, (side, problem, leaf.decisions)
        name = divergence(case, leaf)
        if name is not None:
            seen.add(name)
    assert seen == DIVERGENCES.get(case.label, set())
    assert digest(leaves) == DIGESTS[case.label]
