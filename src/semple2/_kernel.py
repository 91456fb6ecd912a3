"""The degree recursion for the eight rows that
`semple2.recursion.RATIO_IDENTITIES` does not fill, one formula per row.

P, H, N, T, U, Q, V, W are the rows h2hd, hd2z, h2.h2, h2.hd2, h2.hdz,
hd2.hd2, hd2.hdz and hdz.hdz.  `degree_forms(e, v)` runs once per degree
e, on its column v, and returns N, T, U, the linear form alpha_R of each
row R, and beta_U, beta_V, beta_W (every other beta_R is 0).
`kernel(d, forms, row)` visits each split s + t = d, s <= t, once and adds
to each row R

    c0 N_t (t alpha_R(s) + beta_R(s)) + c2 N_s (s alpha_R(t) + beta_R(t)) + c1 G_R,

where G_R is bilinear in the N, T, U of s and of t, with weights in s, t
and d; in the code XY is c1 X_s Y_t.  The split factors c0, c1, c2 read
comb(3d-6, 3s-5..3s-1) off row, which holds comb(3d-6, k) for k < 3*(d//2)
only.  The README states the formulas; the self-test's `stencil-derivation`
check evaluates both functions, through `recursion_rhs`, against
`verify.stencil_rhs`.
"""


def degree_forms(e, v):
    P, H, N, T, U, Q, V, W = v[0], v[2], v[3], v[4], v[6], v[7], v[9], v[12]
    return (N, T, U, e * P, 3 * P + e * H, e * N, 2 * N + e * T, 9 * N + 3 * T + e * U,
            4 * T + e * Q, 6 * P + 9 * T + 2 * U + 3 * Q + e * V,
            45 * P + 18 * U + 6 * V + e * W, -6 * N, -6 * T, -36 * P - 12 * U)


def kernel(d, forms, row):
    row = [0, 0, *row]
    oP = oH = oN = oT = oU = oQ = oV = oW = 0
    for s in range(1, d // 2 + 1):
        t = d - s
        Ns, Ts, Us, aPs, aHs, aNs, aTs, aUs, aQs, aVs, aWs, bUs, bVs, bWs = forms[s]
        Nt, Tt, Ut, aPt, aHt, aNt, aTt, aUt, aQt, aVt, aWt, bUt, bVt, bWt = forms[t]
        r0, r1, r2, r3, r4 = row[3 * s - 3:3 * s + 2]
        st = s * t
        st2 = 2 * st
        if s < t:
            ss, tt = s * s, t * t
            c0 = st2 * r1 - ss * r2 - tt * r0
            c1 = st2 * r2 - ss * r3 - tt * r1
            c2 = st2 * r3 - ss * r4 - tt * r2
        else:
            c0, c1, c2 = st * (r1 - r2), st * (r2 - r3), st * (r3 - r4)
        x, y, n, m, u = c0 * Nt, c2 * Ns, c1 * Ns, c1 * Ts, c1 * Us
        tx, sy = t * x, s * y
        NN, NT, NU, TN, TT, TU = n * Nt, n * Tt, n * Ut, m * Nt, m * Tt, m * Ut
        UN, UT, UU = u * Nt, u * Tt, u * Ut
        a = NT + TN
        oP += tx * aPs + sy * aPt + 2 * NN
        oH += tx * aHs + sy * aHt + 3 * a
        oN += tx * aNs + sy * aNt + st2 * NN
        oT += tx * aTs + sy * aTt + 2 * d * NN + st * a
        oU += (x * (t * aUs + bUs) + y * (s * aUt + bUt) + (9 * d - 12) * NN
               + 3 * (s * NT + t * TN) + st * (NU + UN))
        oQ += tx * aQs + sy * aQt + 4 * (NN + t * NT + s * TN) + st2 * TT
        oV += (x * (t * aVs + bVs) + y * (s * aVt + bVt) + 12 * NN + 9 * (t * NT + s * TN)
               + 2 * (t * NU + s * UN) + 3 * d * TT + st * (TU + UT))
        oW += (x * (t * aWs + bWs) + y * (s * aWt + bWt) + 18 * (NN + TT) + 27 * a
               + (18 * t - 12) * NU + (18 * s - 12) * UN + 6 * (t * TU + s * UT) + st2 * UU)
    return oP, oH, oN, oT, oU, oQ, oV, oW
