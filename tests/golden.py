"""Frozen expected values for the bundled three-mode system.

Balanced Gramian diagonals and reduced matrices as printed for this
system; reduced-matrix comparisons are gauge-sensitive, so the matcher
searches the per-mode +-1 diagonal similarity.
"""

import itertools

import numpy as np

PAPER_SIGMA = (
    (0.6174, 0.0816, 0.0419),
    (0.4183, 0.1514, 0.0138),
    (0.3311, 0.0948, 0.0172),
)

PAPER_BOUND_132 = 0.2471

# Certificate fields of the bundled system at the fixed slack, as the
# library computed them before the reach and obs sides moved to their
# Gramian series models; not printed in the paper.  Compare at rtol 1e-12.
PAPER_CERTIFICATES = {
    "dwell_obs": {
        "M": 0.03796955188112887,
        "gamma": 0.06607854999045676,
        "mu": 71.55499495384322,
    },
    "dwell_reach": {
        "M": 0.009782254752955204,
        "gamma": 0.10710350098755378,
        "mu": 228.3685785660419,
    },
    "stability": {
        "M": 0.021172862379842766,
        "K": 723.2370274773237,
        "gamma": 0.06607854999045676,
        "mu": 64.16022180922617,
    },
}

RED_A1 = np.array([[-1.4152]])
RED_B1 = np.array([[-1.3006]])
RED_C1 = np.array([[1.2875]])
RED_A2 = np.array([
    [-7.7330, -2.9578, -1.4537],
    [1.6867, -0.9066, -0.5297],
    [-0.5775, 1.1507, -8.3605],
])
RED_B2 = np.array([[-2.4972], [0.0221], [-0.0636]])
RED_C2 = np.array([[2.4992, 0.3182, 0.2538]])
RED_A3 = -np.array([[2.9416, 0.7103], [1.0000, 5.0427]])
RED_B3 = np.array([[1.2816], [0.2190]])
RED_C3 = np.array([[-1.2857, -0.5313]])
RED_K23 = np.array([
    [-0.6887, -0.5866, -0.1771],
    [-0.2778, -0.5806, -0.0555],
])
RED_K31 = np.array([[-0.3449, 0.1360]])


def reduced_matches_printed(red, atol=5e-4):
    """Match the reduced model against the printed matrices modulo signs."""
    support = {
        1: (RED_A1, RED_B1, RED_C1),
        2: (RED_A2, RED_B2, RED_C2),
        3: (RED_A3, RED_B3, RED_C3),
    }
    orders = (1, 3, 2)
    for signs in itertools.product(
        *[itertools.product([1.0, -1.0], repeat=r) for r in orders]
    ):
        D = {q: np.diag(signs[q - 1]) for q in (1, 2, 3)}
        ok = True
        for q in (1, 2, 3):
            A_ref, B_ref, C_ref = support[q]
            mode = red.mode(q)
            ok &= np.allclose(D[q] @ mode.A @ D[q], A_ref, atol=atol)
            ok &= np.allclose(D[q] @ mode.B, B_ref, atol=atol)
            ok &= np.allclose(mode.C @ D[q], C_ref, atol=atol)
            if not ok:
                break
        if ok:
            ok &= np.allclose(D[3] @ red.coupling(2, 3) @ D[2], RED_K23, atol=atol)
            ok &= np.allclose(D[1] @ red.coupling(3, 1) @ D[3], RED_K31, atol=atol)
        if ok:
            return True
    return False
