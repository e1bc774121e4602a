#!/usr/bin/env python3
"""B-spline degree raising: the scalar smoothing factor in action.

Starting from the piecewise-constant splitting scheme with symbol 1 + z,
each application of the smoothing operator multiplies the symbol by
(1+z)/2 * z^-1 and raises the regularity of the limit curve by one.  The
derived scheme walks the chain back down.
"""

from subsmooth import catalog, certify_vector, derived, smooth_raw, stencil_norm


def main():
    mask = catalog.get("bspline0")
    print("degree  symbol" + " " * 42 + "norm   certificate")
    for degree in range(0, 7):
        cert = certify_vector(mask, 0) if degree >= 1 else None
        cert_txt = (f"L={cert.L}, |(S/2)^L|={cert.norm_value}"
                    if cert and hasattr(cert, "L") else "-")
        print(f"{degree:>6}  {str(mask.symbol[0, 0]):<47} "
              f"{str(stencil_norm(mask.symbol, 2)):<6} {cert_txt}")
        mask = smooth_raw(mask, 1)

    print("\nwalking back down with the derived scheme:")
    mask = catalog.get("bspline6")
    for degree in range(6, 0, -1):
        down = derived(mask, 1)
        print(f"der(bspline{degree}) == bspline{degree - 1}:",
              down == catalog.get(f"bspline{degree - 1}"))
        mask = catalog.get(f"bspline{degree - 1}")


if __name__ == "__main__":
    main()
