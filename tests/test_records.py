"""The package's records: fields that cannot be reassigned, and parameters equal by value."""

import pickle

import numpy as np
import pytest

from nonlocal_sharp import (BoundaryRatio, EigenPair, HarnackReport, ProblemParams,
                            SemilinearSolution, SolverConfig, assemble, classify_bq, graded_mesh,
                            hls_ladder, nu_case_machine, predict_mu, spectral_mt_operator,
                            synthetic_k5)
from nonlocal_sharp.fitting import FitReport
from nonlocal_sharp.operators import BoundReport

PARAMS = ProblemParams(s=0.2, gamma=1.0)

# every record type of the package, built small and valid, with a field to assign to
RECORDS = {
    "ProblemParams": (lambda: PARAMS, "s"),
    "SolverConfig": (lambda: SolverConfig(p=0.5), "tol"),
    "ExponentPrediction": (lambda: predict_mu(0.2, 1.0, 0.5), "mu"),
    "BqClassification": (lambda: classify_bq(1, 0.2, 1.0, 1.0), "regime"),
    "HlsLadder": (lambda: hls_ladder(1, 0.5), "k_star"),
    "CaseLabel": (lambda: nu_case_machine(0.2, 1.0, 2.0), "label"),
    "FitReport": (lambda: FitReport(mu_hat=1.0, r2=1.0), "mu_hat"),
    "EigenPair": (lambda: EigenPair(index=1, mu=1.0, phi=np.ones(8), residual=0.0), "phi"),
    "BoundaryRatio": (lambda: BoundaryRatio(index=1, sup_ratio=1.0, inf_ratio=1.0), "index"),
    "SemilinearSolution": (lambda: SemilinearSolution(u=np.ones(8), residual=0.0, iterations=1,
                                                      bracket_gap=0.0), "u"),
    "HarnackReport": (lambda: HarnackReport(global_ratio=1.0, local_ratio=1.0), "local_ratio"),
    "GreenKernel": (lambda: synthetic_k5(PARAMS), "params"),
    "BoundReport": (lambda: BoundReport(c0_hat=1.0, c1_hat=1.0, violations=0, n_samples=100),
                    "violations"),
    "Grid": (lambda: graded_mesh(16, 3.0), "nodes"),
    "GreenOperator": (lambda: assemble(synthetic_k5(PARAMS), graded_mesh(16, 3.0)), "band"),
    "SpectralOperator": (lambda: spectral_mt_operator(0.3, graded_mesh(16, 1.0)), "symbol"),
}


@pytest.mark.parametrize("make, field", RECORDS.values(), ids=RECORDS)
def test_a_field_cannot_be_reassigned(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    assert getattr(record, field) is before


@pytest.mark.parametrize("make", [lambda: ProblemParams(s=0.2, gamma=0.5),
                                  lambda: SolverConfig(p=0.5, tol=1e-8)],
                         ids=["ProblemParams", "SolverConfig"])
def test_parameters_are_equal_and_hash_equal_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a  # unpickling runs the checks again, and passes

