#!/usr/bin/env python3
"""Locate the boundary of chaos for the one-plateau stunted family.

Walks the path xi(t) = (t), t in [1/2, 3/2], and prints as JSON the bracket
of width 2^-30 between a zero-entropy certificate and a positive-entropy
witness.  The bracket is read off the cylinder of the doubling-limit
kneading, the one cell of that width the boundary lies in, and only its two
ends and the path's are classified.  The run is exact: both certificates
re-verify in rational arithmetic.
"""

import json
import time
from fractions import Fraction

from chaos_edge import (build_base, locate_boundary, stunted_path,
                        verify_witness, verify_zero_certificate)


def main():
    base = build_base(1, 1)
    path = stunted_path(base, [Fraction(0)], [Fraction(1)],
                        Fraction(1, 2), Fraction(3, 2))
    t0 = time.time()
    res = locate_boundary(path, bound=64, resolution=Fraction(1, 2**30))
    elapsed = time.time() - t0
    report = res.as_dict()
    report["reverified"] = {
        "zero_side": verify_zero_certificate(path.map_at(res.zero_side[0]),
                                             res.zero_side[1]),
        "positive_side": verify_witness(path.map_at(res.positive_side[0]),
                                        res.positive_side[1]),
    }
    report["seconds"] = round(elapsed, 3)
    print(json.dumps(report, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
