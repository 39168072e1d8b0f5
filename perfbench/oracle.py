"""Checks of every workload output that do not go through the package.

Certificates are judged against the Gram candidate of the code they claim
exists: unit diagonal, alpha on the pairs the graph joins and beta on the
others for certify_alpha, the mirror image for certify_beta.  A verdict is
right when it says valid exactly when that matrix is positive semidefinite
(numpy.linalg.eigvalsh), and a valid verdict must name its numerical rank.
Each failure is returned as a short kind string; an empty list means the
item is correct.
"""

import csv
import io

import numpy as np

# Eigenvalues within this of zero count as zero.  Exact zeros of these
# small matrices come out near 1e-15; nonzero ones are far larger.
EIG_TOL = 1e-8
# A realized code must reproduce its Gram candidate to this accuracy.
GRAM_TOL = 1e-8


def gram(n, edges, on_edge, off_edge) -> np.ndarray:
    M = np.full((n, n), float(off_edge))
    for i, j in edges:
        M[i, j] = M[j, i] = float(on_edge)
    np.fill_diagonal(M, 1.0)
    return M


def psd_rank(M):
    vals = np.linalg.eigvalsh(M)
    return bool(vals[0] >= -EIG_TOL), int(np.sum(vals > EIG_TOL))


def check_item(n, edges, alpha, beta, out) -> list:
    """Failure kinds for one certify-* item outcome (see certify_load)."""
    if out["error"] is not None:
        return ["exception:%s:%s" % out["error"]]
    kinds = []
    G_a = gram(n, edges, alpha, beta)
    psd, rank = psd_rank(G_a)
    valid, rank_r = out["alpha"][:2]
    if valid != psd:
        kinds.append("alpha_validity")
    elif valid and rank_r != rank:
        kinds.append("alpha_rank")
    if out["beta"] is not None:
        b_psd, b_rank = psd_rank(gram(n, edges, beta, alpha))
        b_valid, b_rank_r = out["beta"][:2]
        if b_valid != b_psd:
            kinds.append("beta_validity")
        elif b_valid and b_rank_r != b_rank:
            kinds.append("beta_rank")
    # certify_beta runs exactly where alpha > 0; derived checks and a
    # realization exactly on valid verdicts
    if ((out["beta"] is not None) != (alpha > 0) or valid != (
            out["checks"] is not None and out["code"] is not None)):
        kinds.append("pipeline")
    if not valid or "pipeline" in kinds:
        return kinds
    for name, applicable, holds in out["checks"]:
        if not applicable or holds is not True:
            kinds.append("check_" + name)
    V = out["code"]
    if V.shape != (n, rank_r) or float(
            np.max(np.abs(V @ V.T - G_a))) > GRAM_TOL:
        kinds.append("realize_gram")
    if out["verify"] is not True:
        kinds.append("verify")
    return kinds


def check_command(expect, returncode, stdout) -> list:
    """Failure kinds for one search-cli command."""
    kind, value = expect
    if returncode != 0:
        return ["exit_code"]
    if kind == "crosscheck":
        return [] if stdout == value + "\n" else ["output"]
    rows = list(csv.reader(io.StringIO(stdout)))
    if (len(rows) != 2 or rows[0][:3] != ["query", "value", "exhaustive"]
            or rows[1][1:3] != [value, "yes"]):
        return ["output"]
    return []
