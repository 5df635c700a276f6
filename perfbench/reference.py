"""Reference data the benchmark checks outputs against.

Nothing here is computed by the library at run time, so no check calls
the code path it is checking.

* ``GAMMA_ROWS`` and ``GAMMA_TILDE_ROWS`` are the paper's rows of the
  connected, self-energy-free four-point function and of its flype
  quotient, through g^10 for h <= 5 (the same values as the series tests).
* ``F_ROWS`` are the free-energy coefficients F_h[n] for n <= 6, h <= 3.
* Everything named ``*_PINS`` is a regression pin: the output of the
  library at the commit that introduced this benchmark, recorded so that
  a later change that alters it shows.  They are not independent data.
"""

from fractions import Fraction as F

ORDER = 10
H_MAX = 5

GAMMA_ROWS = {
    0: [0, 1, 2, 6, 22, 91, 408, 1938, 9614, 49335, 260130],
    1: [0, 1, 8, 59, 420, 2940, 20384, 140479, 964184, 6598481, 45059872],
    2: [0, 0, 0, 17, 456, 7728, 104762, 1240518, 13406796, 135637190, 1305368592],
    3: [0, 0, 0, 0, 0, 1259, 62072, 1740158, 36316872, 627368680, 9484251920],
    4: [0, 0, 0, 0, 0, 0, 0, 200589, 14910216, 600547192, 17347802824],
    5: [0, 0, 0, 0, 0, 0, 0, 0, 0, 54766516, 5554165536],
}

GAMMA_TILDE_ROWS = {
    0: [0, 1, 2, 4, 10, 29, 98, 372, 1538, 6755, 30996],
    1: [0, 1, 8, 57, 384, 2512, 16158, 102837, 649862, 4086137, 25597900],
    2: [0, 0, 0, 17, 456, 7626, 100910, 1155636, 11987082, 115664638, 1056131412],
    3: [0, 0, 0, 0, 0, 1259, 62072, 1727568, 35546828, 601504150, 8854470134],
    4: [0, 0, 0, 0, 0, 0, 0, 200589, 14910216, 597738946, 17103622876],
    5: [0, 0, 0, 0, 0, 0, 0, 0, 0, 54766516, 5554165536],
}

# Free energy per genus: the sum of 1/|symmetry| over connected link
# diagrams with n crossings and genus h, self-energies included.
F_H_MAX = 3
F_ROWS = {
    0: [0, 1, F(9, 4), 9, F(189, 4), F(1458, 5), F(8019, 4)],
    1: [0, 0, F(1, 4), F(10, 3), F(307, 8), 428, F(28457, 6)],
    2: [0, 0, 0, 0, F(21, 8), F(483, 5), F(4659, 2)],
    3: [0, 0, 0, 0, 0, 0, F(495, 4)],
}


# -- regression pins, taken at the commit that introduced this benchmark ----

# Self-energy-free link diagrams and their flype classes per (n, genus).
LINK_COUNT_PINS = {
    (1, 0): 2,
    (2, 0): 1,
    (2, 1): 1,
    (3, 0): 2,
    (3, 1): 4,
    (4, 0): 3,
    (4, 1): 14,
    (4, 2): 3,
    (5, 0): 6,
    (5, 1): 58,
    (5, 2): 54,
    (6, 0): 16,
    (6, 1): 304,
    (6, 2): 685,
    (6, 3): 111,
}

LINK_CLASS_PINS = {
    (1, 0): 2,
    (2, 0): 1,
    (2, 1): 1,
    (3, 0): 2,
    (3, 1): 4,
    (4, 0): 3,
    (4, 1): 14,
    (4, 2): 3,
    (5, 0): 6,
    (5, 1): 54,
    (5, 2): 54,
    (6, 0): 13,
    (6, 1): 255,
    (6, 2): 669,
    (6, 3): 111,
}

# Order-free digests of the flype-class partition per crossing number
# (see workloads.partition_digest).
TANGLE_PARTITION_PINS = {
    1: '5780616569f278dd',
    2: 'b90de837e6de8de6',
    3: 'd88389c7b2b38f2c',
    4: '2ae1f2a8def79347',
}

LINK_PARTITION_PINS = {
    1: '384df4853b1fe45a',
    2: 'ea95bc75f77ada5d',
    3: 'a9a1bc91fa1bf678',
    4: '57e7de793b245300',
    5: '760a13e12069dae1',
    6: 'a1b49c7e208fa62c',
}

# Digest of each invariant record's separation_key, by representative code
# (see workloads.record_digest).
RECORD_DIGEST_PINS = {
    '1:0 1': '5cd6f29c1412274b',
    '1:1 0': '82cd75ff2fb7584d',
    '2:2 3 0 1': '28a3b35644125182',
    '2:2 3 1 0': '5514f4ae24406c64',
    '3:2 3 4 5 0 1': 'eeb5a42dc3c5d3be',
    '3:2 3 4 5 1 0': '756a32fb51cf2abb',
    '3:2 4 0 5 1 3': '065d98d9aa21d69a',
    '3:2 4 0 5 3 1': '8f3d286052f7f626',
    '3:2 4 1 5 3 0': 'b0873c16a14b3553',
    '3:2 4 5 1 3 0': '60e74f4beec7b138',
}
