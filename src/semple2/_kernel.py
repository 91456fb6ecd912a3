"""The stencil that `semple2.verify.derive_stencil` derives from the gluing
matrix, as straight-line code for the eight rows the recursion closes on:
its 92 weights that add to a row `semple2.recursion.RATIO_IDENTITIES` does
not fill.  `degree_forms(d, v)`, once per degree, computes the linear forms
of the column v that the terms share, which read only those eight rows;
`kernel(d, forms, row)` visits each unordered split of d once, multiplies
the forms, scaled by the binomial factors of both orientations read off
row = comb(3d-6, k), and returns h2hd, hd2z, h2.h2, h2.hd2, h2.hdz,
hd2.hd2, hd2.hdz and hdz.hdz.  The self-test's `stencil-derivation` check
evaluates it, through `recursion_rhs`, against `verify.stencil_rhs`.
"""
from semple2.recursion import DIVISOR_RULE

rule0 = DIVISOR_RULE["100"]
rule1 = DIVISOR_RULE["010"]


def degree_forms(d, v):
    m0 = rule0(d)
    m1 = rule1(d)
    return (
        m0*v[0],  # 0
        m0*v[3],  # 1
        2*v[3],  # 2
        v[3],  # 3
        6*v[3],  # 4
        3*v[0] + m0*v[2],  # 5
        3*v[4],  # 6
        3*v[3],  # 7
        v[4],  # 8
        m0*2*v[3],  # 9
        2*v[3] + m0*v[4],  # 10
        m0*v[4],  # 11
        3*v[3] + 3*v[4] + m0*v[6],  # 12
        m0*3*v[3] + m1*3*v[3],  # 13
        m0*3*v[3],  # 14
        m0*v[6],  # 15
        4*v[4] + m0*v[7],  # 16
        4*v[3] + m0*4*v[4],  # 17
        4*v[3] + m0*2*v[4],  # 18
        6*v[0] + 3*v[4] + 2*v[6] + 3*v[7] + m0*v[9],  # 19
        12*v[3] + 6*v[4] + m0*(3*v[4] + 2*v[6]) + m1*3*v[4],  # 20
        6*v[3] + m0*3*v[4],  # 21
        9*v[0] + 6*v[6] + 6*v[9] + m0*v[12],  # 22
        18*v[0] + 6*v[6],  # 23
        18*v[3] + 27*v[4] + m0*6*v[6] + m1*6*v[6],  # 24
        27*v[3] + 18*v[4] + m0*6*v[6],  # 25
        6*v[3] + 6*v[4] + m0*2*v[6],  # 26
        v[6],  # 27
    )


def kernel(d, forms, row):
    row = [0, *row, 0, 0]
    o0 = o1 = o2 = o3 = o4 = o5 = o6 = o7 = 0
    for d1 in range(1, d // 2 + 1):
        d2 = d - d1
        A = forms[d1]
        B = forms[d2]
        s0 = rule0(d1)
        s1 = rule1(d1)
        t0 = rule0(d2)
        t1 = rule1(d2)
        both = d1 * d2
        q = d1 * d1
        e = 3 * d1 - 3
        r0, r1, r2, r3 = row[e:e + 4]
        c0 = r0 * both - r1 * q
        c1 = r1 * both - r2 * q
        c2 = r2 * both - r3 * q
        if d1 != d2:
            q = d2 * d2
            e = 3 * d2 - 3
            r0, r1, r2, r3 = row[e:e + 4]
            c0 += r2 * both - r3 * q
            c1 += r1 * both - r2 * q
            c2 += r0 * both - r1 * q
        x0_1 = c0 * B[1]
        x0_3 = c0 * B[3]
        x1_1 = c1 * B[1]
        x1_3 = c1 * B[3]
        x1_8 = c1 * B[8]
        x1_11 = c1 * B[11]
        x1_15 = c1 * B[15]
        x1_27 = c1 * B[27]
        x2_1 = c2 * A[1]
        x2_3 = c2 * A[3]
        o0 += x0_1*A[0] + x1_3*A[2] + x2_1*B[0]
        o1 += x0_1*A[5] + x1_3*A[6] + x1_8*A[7] + x2_1*B[5]
        o2 += x0_1*A[1] + x1_1*A[9] + x2_1*B[1]
        o3 += x0_1*A[10] + x1_3*(A[9] + t0*A[10]) + x1_11*A[1] + x2_1*B[10]
        o4 += x0_3*(t0*A[12] + t1*A[7]) + x1_3*(A[13] + t0*A[12] + t1*A[7]) + x1_8*A[14] + x1_15*A[1] + x2_3*(s0*B[12] + s1*B[7])
        o5 += x0_1*A[16] + x1_3*A[17] + x1_11*A[18] + x2_1*B[16]
        o6 += x0_3*(t0*A[19] + t1*A[6]) + x1_3*A[20] + x1_8*(A[21] + t0*A[12] + t1*A[7]) + x1_15*A[10] + x2_3*(s0*B[19] + s1*B[6])
        o7 += x0_3*(t0*A[22] + t1*A[23]) + x1_3*A[24] + x1_8*A[25] + x1_27*(t0*A[26] + t1*A[4]) + x2_3*(s0*B[22] + s1*B[23])
    return o0, o1, o2, o3, o4, o5, o6, o7
