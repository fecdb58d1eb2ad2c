from __future__ import annotations

import time

import pytest

from ternary_ecc.construct import ConstructionPlan, build_code
from ternary_ecc.core import Code
from ternary_ecc.library import (
    extended_hamming_8_4_4,
    nonlinear_5_4_3,
    repetition,
    single_parity_check,
    ternary_5_27_3,
    zero_code,
)
from ternary_ecc.search import build_unrestricted_graph, exact_clique, search_code


@pytest.fixture(scope="session")
def plan_5_21_3() -> ConstructionPlan:
    """Outer [5,4,3] code with inner codes {0}, {00,11}, and the even-weight [5,16,2]."""
    return ConstructionPlan(
        nonlinear_5_4_3(),
        {1: zero_code(1), 2: repetition(2), 5: single_parity_check(5)},
        dbmin=3,
    )


@pytest.fixture(scope="session")
def code_5_21_3(plan_5_21_3):
    return build_code(plan_5_21_3)


@pytest.fixture(scope="session")
def plan_8_241_4() -> ConstructionPlan:
    """Outer extended Hamming [8,4,4] with the zero word and even-weight inner codes."""
    return ConstructionPlan(
        extended_hamming_8_4_4(),
        {0: zero_code(0), 4: single_parity_check(4), 8: single_parity_check(8)},
        dbmin=4,
    )


@pytest.fixture(scope="session")
def code_8_241_4(plan_8_241_4):
    return build_code(plan_8_241_4)


@pytest.fixture(scope="session")
def mini_plan() -> ConstructionPlan:
    """Two antipodal outer words of weight 2, inner repetition pairs."""
    outer = Code.from_strings(2, ["1100", "0011"])
    return ConstructionPlan(outer, {2: repetition(2)}, dbmin=4)


@pytest.fixture(scope="session")
def code_5_27_3():
    return ternary_5_27_3()


@pytest.fixture(scope="session")
def unrestricted_optima_n5():
    """Exact unrestricted clique searches at length 5, with total runtime."""
    results = {}
    started = time.perf_counter()
    for dbmin in (2, 3, 4, 5):
        graph = build_unrestricted_graph(5, dbmin)
        results[dbmin] = exact_clique(graph)
    return results, time.perf_counter() - started


@pytest.fixture(scope="session")
def restricted_optima():
    """Exact restricted searches for the pinned cells, with total runtime."""
    started = time.perf_counter()
    results = {
        (5, 3): search_code(5, 3, "restricted"),
        (7, 7): search_code(7, 7, "restricted"),
    }
    return results, time.perf_counter() - started
