"""Seeded solver runs pinned to their exact results and work counters.

Each row is (seed, optimum, profile, witness, counters).  A witness is
written as each agent's vertices, 0-based and ascending, agents split by
"|"; the counters are stats["dp-cells"], ["profiles-stored"] and, for
convex, ["profile-ops"].  A clique-width row also pins the instance's full
profile set: its size and the first and last line of its dump.  A change
of how tables hold their cells keeps every row; one that only drops cells
a DP never needed may lower dp-cells and profiles-stored, and keeps every
other entry.  A change of the decomposition's shape, such as a trimmed
bag or another root, may move dp-cells and profiles-stored either way,
and witnesses with them, never optima or profile sets.  A quotient of DP keys, which unions the cells of keys with
the same future, may also move witnesses, profile-ops and FPTAS rows,
never optima or profile sets.  FPTAS rows pin the value, profile and
exact-solver calls of approx.fptas over solve_convex, which follow the
DP's step order.
Recognition rows pin the ordering file of find_convex_ordering: its first
eight A-ids and the SHA-256 of its text, so a new recognition algorithm
keeps every ordering.
"""
import hashlib
import random
from fractions import Fraction

import pytest

import support

from fairkdiv.approx import fptas
from fairkdiv.cliquewidth import cliquewidth_profile_set, solve_cliquewidth
from fairkdiv.convex import solve_convex
from fairkdiv.generators import gen_partial_ktree
from fairkdiv.profiles import profile_grid
from fairkdiv.recognition import find_convex_ordering, ordering_file_text
from fairkdiv.treeindep import solve_tin

COUNTERS = ("dp-cells", "profiles-stored", "profile-ops")

# gen_partial_ktree(13, 2, 2, 10, seed), solved pruned
TIN = [
    (0, 36, (36, 40), "0 4 5 6 12|2 3 7 8 9 10 11", (382, 878)),
    (1, 36, (36, 39), "1 3 8 9 11|4 5 6 7 10 12", (363, 655)),
    (2, 38, (38, 41), "3 4 6 8 9|1 7 10 11 12", (353, 530)),
    (3, 39, (40, 39), "0 4 8 9 10 11|1 3 5 12", (301, 640)),
    (4, 41, (41, 43), "2 3 4 10 12|5 6 7 8 9 11", (324, 625)),
    (5, 30, (30, 31), "2 4 8 9 12|0 5 7 10 11", (224, 444)),
    (6, 33, (33, 40), "3 4 6 7 8 12|0 5 9 10 11", (397, 862)),
    (7, 36, (36, 38), "3 4 5 8 9 10|0 1 6 11 12", (438, 787)),
    (8, 38, (40, 38), "0 3 7 10 11 12|4 5 6 8 9", (338, 609)),
    (9, 38, (39, 38), "0 3 6 10 12|1 2 8 9 11", (304, 738)),
    (10, 36, (36, 36), "0 3 5 6 9 10|4 7 8 11 12", (347, 780)),
    (11, 29, (32, 29), "1 7 9 12|0 3 4 5 6 8 10 11", (274, 744)),
]

# shuffled_convex_instance(Random(seed), CONVEX_PARTS, 2, 40), solved pruned
CONVEX_PARTS = [(4, 4), (3, 3), (2, 1)]
CONVEX = [
    (0, 187, (194, 187), "0 1 6 10 11 13 15 16|3 4 7 8 9 12 14", (143, 183, 87)),
    (1, 211, (211, 227), "0 1 4 7 8 12 13 16|2 3 5 6 9 10 11 15", (126, 182, 118)),
    (2, 218, (219, 218), "0 1 3 5 6 8 9 11 15|2 4 7 10 12 13 14 16", (117, 210, 186)),
    (3, 230, (232, 230), "0 1 2 4 5 11 12 13 15|3 6 7 8 9 10 14 16", (167, 214, 157)),
    (4, 193, (200, 193), "5 6 8 9 11 12 13 16|0 1 2 3 4 10 14 15", (136, 175, 95)),
    (5, 150, (157, 150), "4 6 10 11 12 13 14 15|0 1 3 5 7 8 9 16", (130, 161, 94)),
    (6, 218, (218, 221), "1 2 7 8 9 10 13 16|0 3 4 5 6 11 12 14 15", (148, 190, 101)),
    (7, 204, (204, 204), "0 2 3 10 11 13 14 16|1 4 5 6 7 9 12 15", (156, 184, 82)),
    (8, 199, (199, 200), "2 4 5 6 11 12 13 15|0 1 7 8 9 10 14", (166, 228, 164)),
    (9, 154, (154, 155), "1 2 5 6 8 14 15|3 4 7 9 10 13 16", (114, 149, 103)),
    (10, 211, (213, 211), "2 3 8 9 10 11 12 13 16|0 1 4 5 6 7 14 15", (118, 147, 88)),
    (11, 168, (168, 170), "0 3 8 9 10 11 12 16|1 2 4 5 6 7 13 14 15", (112, 133, 69)),
]

# shuffled_convex_instance(Random(seed), FPTAS_PARTS, 2, 1000), through
# fptas(inst, 1/4, solve_convex): (seed, value, profile, solver calls)
FPTAS_PARTS = [(6, 6)] * 3
FPTAS = [
    (0, 10022, (10022, 10191), 1),
    (1, 10382, (10382, 10594), 1),
    (2, 11926, (11926, 12028), 1),
    (3, 9783, (9939, 9783), 1),
    (4, 9944, (10100, 9944), 1),
    (5, 10409, (10409, 10755), 1),
    (6, 10529, (10783, 10529), 1),
    (7, 9800, (9800, 9848), 1),
    (8, 9873, (9873, 9942), 1),
    (9, 9679, (9801, 9679), 1),
    (10, 9252, (9252, 9727), 1),
    (11, 10145, (10197, 10145), 1),
]

# shuffled_convex_instance(Random(seed), RECOGNIZE_PARTS, 2, 10), recognized:
# (seed, first eight A-ids, first 32 hex digits of the ordering text's SHA-256)
RECOGNIZE_PARTS = [(20, 20)] * 10
RECOGNIZE = [
    (0, "123 73 279 230 47 42 164 261", "ca1bb062b504b81921b659eaf7633415"),
    (1, "37 43 9 232 8 194 255 72", "4dfcb422e600cf497183f9dde2a35666"),
    (2, "177 58 147 173 306 8 79 115", "06b94b1026b6473016128fb572d390c5"),
    (3, "90 360 55 163 212 397 261 32", "6c5445e87eab2bc0cdffd45fbcc3c93b"),
    (4, "1 189 194 208 290 324 119 163", "a65babf17b2f12ab54b5191a495e2241"),
    (5, "3 1 68 65 228 367 72 317", "b3c0e81250c52fa40b1f07b2252ac994"),
    (6, "129 210 48 186 172 46 218 313", "e1a2539c6ab98a17c8a68ecd2fff1692"),
    (7, "27 382 16 163 222 393 18 54", "cabc7627f27f6e81485784208ba4aad5"),
    (8, "175 362 62 290 180 84 248 94", "96fd30f2753d626dbeb123386591ab57"),
    (9, "110 114 341 222 1 10 169 323", "926ed9049b572799c4751be52ef01eaa"),
    (10, "35 116 59 102 287 14 1 49", "e4f9b50ac4e01965daebdfb15e27565f"),
    (11, "118 392 148 362 36 289 56 206", "ddf886a1f33974a756d8b67e6e950a21"),
]

# random_expression(Random(seed), 10, 2) and instance_for_expression(expr,
# same rng, 2, 6), solved pruned; then (size, first, last) of the profile set
CW = [
    (0, 11, (13, 11), "0 1 2 4|3 5 6", (80, 102), (180, "0 0", "15 9")),
    (1, 5, (6, 5), "1|0 2", (48, 55), (18, "0 0", "10 0")),
    (2, 0, (0, 6), "|0", (1, 2), (3, "0 0", "2 0")),
    (3, 3, (3, 8), "1|0 2", (75, 87), (20, "0 0", "4 3")),
    (4, 6, (6, 8), "1|0 2 3", (28, 35), (23, "0 0", "16 2")),
    (5, 12, (13, 12), "2 4 6|0 1 3 5 7", (202, 263), (315, "0 0", "28 10")),
    (6, 13, (13, 22), "3 4 6 8|1 2 5 7 9", (183, 261), (325, "0 0", "18 9")),
    (7, 9, (9, 11), "1 4 5|0 2 3", (28, 44), (126, "0 0", "15 5")),
    (8, 6, (6, 11), "1 2|0 3", (27, 40), (53, "0 0", "7 6")),
    (9, 14, (14, 15), "0 5 6 7|1 2 3 4", (127, 175), (303, "0 0", "23 0")),
    (10, 24, (24, 24), "2 3 4 5 8|0 1 6 7 9", (185, 227), (764, "0 0", "30 8")),
    (11, 13, (13, 15), "0 1 2 6|3 4 5 7", (38, 97), (376, "0 0", "25 1")),
]


def _row(seed, result, stats, counters):
    optimum, profile, witness = result
    text = "|".join(" ".join(map(str, sorted(members))) for members in witness)
    return seed, optimum, profile, text, tuple(stats.get(name, 0) for name in counters)


@pytest.mark.parametrize("row", TIN, ids=lambda row: f"seed{row[0]}")
def test_tin_pruned(row):
    inst, td = gen_partial_ktree(13, 2, 2, 10, row[0])
    stats: dict = {}
    assert _row(row[0], solve_tin(inst, td, stats=stats), stats, COUNTERS[:2]) == row


@pytest.mark.parametrize("row", CONVEX, ids=lambda row: f"seed{row[0]}")
def test_convex_pruned(row):
    inst = support.shuffled_convex_instance(random.Random(row[0]), CONVEX_PARTS, 2, 40)
    stats: dict = {}
    assert _row(row[0], solve_convex(inst, stats=stats), stats, COUNTERS) == row


@pytest.mark.parametrize("row", FPTAS, ids=lambda row: f"seed{row[0]}")
def test_fptas_convex(row):
    inst = support.shuffled_convex_instance(random.Random(row[0]), FPTAS_PARTS, 2, 1000)
    result = fptas(inst, Fraction(1, 4), solve_convex)
    assert (row[0], result.value, result.profile, result.solver_calls) == row


@pytest.mark.parametrize("row", RECOGNIZE, ids=lambda row: f"seed{row[0]}")
def test_recognized_ordering(row):
    inst = support.shuffled_convex_instance(random.Random(row[0]), RECOGNIZE_PARTS, 2, 10)
    text = ordering_file_text(find_convex_ordering(inst))
    digest = hashlib.sha256(text.encode()).hexdigest()[:32]
    assert (row[0], " ".join(text.split()[1:9]), digest) == row


@pytest.mark.parametrize("row", CW, ids=lambda row: f"seed{row[0]}")
def test_cliquewidth_pruned_and_profile_set(row):
    rng = random.Random(row[0])
    expr = support.random_expression(rng, 10, 2)
    inst = support.instance_for_expression(expr, rng, 2, 6)
    stats: dict = {}
    got = _row(row[0], solve_cliquewidth(inst, expr, stats=stats), stats, COUNTERS[:2])
    lines = cliquewidth_profile_set(inst, expr).dump().split("\n")
    assert got + ((len(lines), lines[0], lines[-1]),) == row


def test_tin_unpruned_walks_grid_cells():
    inst, td = gen_partial_ktree(13, 2, 2, 10, 12)
    assert profile_grid(inst.total_profits()) is not None
    stats: dict = {}
    got = _row(12, solve_tin(inst, td, prune=False, stats=stats), stats, COUNTERS[:2])
    assert got == (12, 34, (34, 37), "3 4 7 11 12|0 1 6 8 9 10", (376, 28293))
