"""
Second-kind spectra and (k+alpha)-positivity profiles
=====================================================

The curvature operator of the second kind acts on traceless symmetric
2-tensors, a space of dimension N = (n-1)(n+2)/2. Its eigenvalues decide
the (k+alpha)-positivity conditions: sum the k smallest eigenvalues plus
alpha times the next one and ask for a positive total. This script
diagonalizes a few models and tabulates where each sits.
"""

import numpy as np

import curvop

# The unit sphere is the simplest case: the operator is the identity on
# traceless symmetric 2-tensors, so all N eigenvalues equal 1.
sphere = curvop.constant_curvature(4, 1.0)
spec = curvop.second_kind_spectrum(sphere)
print("unit S^4 eigenvalues:", np.round(spec.eigenvalues, 12))

# CP^2 mixes signs: three directions of eigenvalue -2 against six of +4.
# It is the boundary case for 4.5-positivity in dimension four.
cp2 = curvop.cp2_explicit()
spec = curvop.second_kind_spectrum(cp2)
print("CP^2 eigenvalues:    ", np.round(spec.eigenvalues, 12))

# alpha_star(k) asks: how much of the (k+1)-th eigenvalue must be added
# before the running sum turns positive? For CP^2 and k = 4 the answer
# is one half up to rounding - the sum of the four smallest is -2, and
# half of the next (+4) cancels it; the eigensolve's rounding shows in
# the last digits printed.
star = curvop.alpha_star(spec, 4)
print("CP^2 alpha_star(4) =", star)

# A unit S^(n-1) times a flat line is the other frozen boundary: its
# threshold at k = n lands on (n-2)/n.
for n in (4, 5, 6):
    t = curvop.models.product(curvop.constant_curvature(n - 1, 1.0), curvop.flat(1))
    s = curvop.second_kind_spectrum(t)
    print(f"S^{n-1} x R: alpha_star({n}) = {curvop.alpha_star(s, n):.6f}"
          f"   (n-2)/n = {(n - 2) / n:.6f}")

# The positivity profile sweeps every k at once and names the standard
# conditions along the way. It is the plain dict that `curvop analyze`
# prints. CP^2 is 4.5-nonnegative but not 4.5-positive: its sum
# sigma_4 + lambda_5/2 computes to about -2e-15, and each verdict weighs
# the sum against the rounding bound of its own spectrum, so it reads as
# the 0 it is.
profile = curvop.positivity_profile(curvop.second_kind_spectrum(cp2))
for row in profile["profile"]:
    print(f"  k={row['k']}  sigma_k={row['sigma']:+.6f}  alphaStar={row['alphaStar']}")
for name, verdict in profile["verdicts"].items():
    print(f"  {name}: {'yes' if verdict else 'no'}")

# The LAPACK eigensolve behind all of this reports the eigenpair residual
# max |M V - V diag(lambda)|, and the eigenvectors reconstruct the matrix
# to machine precision. The matrix is written in the standard basis
# s20_basis(n), which is built once per dimension and shared read-only.
m = curvop.second_kind_matrix(cp2)
full = curvop.eigen_sym(m)
recon = np.linalg.norm(m - (full.eigenvectors * full.eigenvalues) @ full.eigenvectors.T)
print("reconstruction error:", recon, " residual:", full.residual)
