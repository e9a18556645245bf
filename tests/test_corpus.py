import hashlib

import numpy as np
import pytest

from conftest import product_oracle
from skewbracoid import corpus, groups, maps, ybe
from skewbracoid.errors import PreconditionError


def test_unknown_fixture_rejected():
    with pytest.raises(PreconditionError):
        corpus.load_fixture("nope")


def test_fixture_schema():
    for name in corpus.FIXTURE_NAMES:
        fx = corpus.load_fixture(name)
        assert fx["name"] == name
        assert fx["name"] in corpus._RUNNERS
        for entry in fx["expected"].values():
            assert entry["provenance"] in ("published", "derived")


@pytest.mark.parametrize("name", corpus.FIXTURE_NAMES)
def test_fixture_passes(name):
    result = corpus.run_fixture(name)
    bad = [c.to_jsonable() for c in result.checks if not c.ok]
    assert result.ok, f"failing checks: {bad}"


def test_result_serialization_shape():
    result = corpus.run_fixture("d4_psi")
    obj = result.to_jsonable()
    assert obj["ok"] is True
    assert {c["check"] for c in obj["checks"]} == set(
        corpus.load_fixture("d4_psi")["expected"])


@pytest.mark.parametrize("name", ["c8_s4", "gencase_generic"])
def test_product_digest_is_the_oracle_tables(name):
    """The digest that the product checks compare against is that of the
    general product formula, recomputed here from `product_oracle`; a
    solution with one cell changed does not match it."""
    fx = corpus.load_fixture(name)
    G1, G2 = groups.build_group(fx["g1"]), groups.build_group(fx["g2"])
    alpha = maps.make_map(G1, G2, fx["alpha"]["images"])
    beta = maps.make_map(G2, G1, fx["beta"]["images"])
    lam, rho = product_oracle(G1, G2, alpha, beta)
    want = hashlib.sha256(np.asarray(lam, "<i8").tobytes()
                          + np.asarray(rho, "<i8").tobytes()).hexdigest()
    assert fx["product_oracle_sha256"] == want
    sol = ybe.build_ybe_product(G1, G2, alpha, beta)
    assert corpus.tables_sha256(sol) == want
    rho = sol.rho.copy()
    rho[1, 2] = (rho[1, 2] + 1) % len(rho)
    assert corpus.tables_sha256(sol.with_tables(rho=rho)) != want
