# Generated by semple2.verify.kernel_source from the stencil that
# semple2.verify.derive_stencil derives from the gluing matrix.
# Do not edit; from the repository root, regenerate with
#   PYTHONPATH=src python -c 'import semple2.verify as v; print(v.kernel_source(v.derive_stencil(v.build_gluing_matrix(2))), end="")' > src/semple2/_kernel.py
from math import comb

from semple2.recursion import DIVISOR_RULE

rule0 = DIVISOR_RULE["100"]
rule1 = DIVISOR_RULE["010"]


def kernel(d, columns):
    m = 3 * d - 6
    row = [0, *[comb(m, k) for k in range(m + 1)], 0, 0]
    o0 = o1 = o2 = o3 = o4 = o5 = o6 = o7 = o8 = o9 = o10 = o11 = o12 = 0
    for d1 in range(1, d // 2 + 1):
        d2 = d - d1
        a = columns[d1]
        b = columns[d2]
        s0 = rule0(d1)
        t0 = rule0(d2)
        s1 = rule1(d1)
        t1 = rule1(d2)
        both = d1 * d2
        e1 = 3 * d1 - 3
        c0 = row[e1 + 0] * both - row[e1 + 1] * d1 * d1
        c1 = row[e1 + 1] * both - row[e1 + 2] * d1 * d1
        c2 = row[e1 + 2] * both - row[e1 + 3] * d1 * d1
        if d1 != d2:
            e2 = 3 * d2 - 3
            c0 += row[e2 + 2] * both - row[e2 + 3] * d2 * d2
            c1 += row[e2 + 1] * both - row[e2 + 2] * d2 * d2
            c2 += row[e2 + 0] * both - row[e2 + 1] * d2 * d2
        p0_3 = a[0] * b[3]
        p1_3 = a[1] * b[3]
        p2_3 = a[2] * b[3]
        p3_0 = a[3] * b[0]
        p3_1 = a[3] * b[1]
        p3_2 = a[3] * b[2]
        p3_3 = a[3] * b[3]
        p3_4 = a[3] * b[4]
        p3_5 = a[3] * b[5]
        p3_6 = a[3] * b[6]
        p3_7 = a[3] * b[7]
        p3_8 = a[3] * b[8]
        p3_9 = a[3] * b[9]
        p3_10 = a[3] * b[10]
        p3_11 = a[3] * b[11]
        p3_12 = a[3] * b[12]
        p4_3 = a[4] * b[3]
        p4_4 = a[4] * b[4]
        p4_5 = a[4] * b[5]
        p4_6 = a[4] * b[6]
        p5_3 = a[5] * b[3]
        p5_4 = a[5] * b[4]
        p5_5 = a[5] * b[5]
        p5_6 = a[5] * b[6]
        p6_3 = a[6] * b[3]
        p6_4 = a[6] * b[4]
        p6_5 = a[6] * b[5]
        p6_6 = a[6] * b[6]
        p7_3 = a[7] * b[3]
        p8_3 = a[8] * b[3]
        p9_3 = a[9] * b[3]
        p10_3 = a[10] * b[3]
        p11_3 = a[11] * b[3]
        p12_3 = a[12] * b[3]
        o0 += c0*(s0*t0*(p0_3)) + c1*(2*p3_3) + c2*(s0*t0*(p3_0))
        o1 += c0*(s0*t0*(p1_3)) + c1*(6*p3_3) + c2*(s0*t0*(p3_1))
        o2 += c0*(t0*(3*p0_3) + s0*t0*(p2_3)) + c1*(3*p3_4 + 3*p4_3) + c2*(s0*(3*p3_0) + s0*t0*(p3_2))
        o3 += c0*(s0*t0*(p3_3)) + c1*(s0*t0*(2*p3_3)) + c2*(s0*t0*(p3_3))
        o4 += c0*(t0*(2*p3_3) + s0*t0*(p4_3)) + c1*(s0*(2*p3_3) + t0*(2*p3_3) + s0*t0*(p3_4 + p4_3)) + c2*(s0*(2*p3_3) + s0*t0*(p3_4))
        o5 += c0*(t0*(6*p3_3) + s0*t0*(p5_3)) + c1*(s0*(6*p3_3) + t0*(6*p3_3) + s0*t0*(p3_5 + p5_3)) + c2*(s0*(6*p3_3) + s0*t0*(p3_5))
        o6 += c0*(t0*(3*p3_3 + 3*p4_3) + t1*(3*p3_3) + s0*t0*(p6_3)) + c1*(s0*(3*p3_3 + 3*p3_4) + t0*(3*p3_3 + 3*p4_3) + t1*(3*p3_3) + s1*(3*p3_3) + s0*t0*(p3_6 + p6_3)) + c2*(s0*(3*p3_3 + 3*p3_4) + s1*(3*p3_3) + s0*t0*(p3_6))
        o7 += c0*(t0*(4*p4_3) + s0*t0*(p7_3)) + c1*(4*p3_3 + t0*(4*p3_4) + s0*(4*p4_3) + s0*t0*(2*p4_4)) + c2*(s0*(4*p3_4) + s0*t0*(p3_7))
        o8 += c0*(t0*(6*p4_3 + 2*p5_3) + s0*t0*(p8_3)) + c1*(12*p3_3 + t0*(6*p3_4 + 2*p3_5) + s0*(6*p4_3 + 2*p5_3) + s0*t0*(p4_5 + p5_4)) + c2*(s0*(6*p3_4 + 2*p3_5) + s0*t0*(p3_8))
        o9 += c0*(t0*(6*p0_3 + 3*p4_3 + 2*p6_3 + 3*p7_3) + t1*(3*p4_3) + s0*t0*(p9_3)) + c1*(12*p3_3 + 6*p3_4 + 6*p4_3 + t0*(3*p3_4 + 2*p3_6 + 3*p4_4) + t1*(3*p3_4) + s0*(3*p4_3 + 3*p4_4 + 2*p6_3) + s1*(3*p4_3) + s0*t0*(p4_6 + p6_4)) + c2*(s0*(6*p3_0 + 3*p3_4 + 2*p3_6 + 3*p3_7) + s1*(3*p3_4) + s0*t0*(p3_9))
        o10 += c0*(t0*(12*p5_3) + s0*t0*(p10_3)) + c1*(36*p3_3 + t0*(12*p3_5) + s0*(12*p5_3) + s0*t0*(2*p5_5)) + c2*(s0*(12*p3_5) + s0*t0*(p3_10))
        o11 += c0*(t0*(18*p0_3 + 3*p5_3 + 6*p6_3 + 3*p8_3) + t1*(3*p5_3) + s0*t0*(p11_3)) + c1*(36*p3_3 + 18*p3_4 + 18*p4_3 + t0*(3*p3_5 + 6*p3_6 + 3*p4_5) + t1*(3*p3_5) + s0*(3*p5_3 + 3*p5_4 + 6*p6_3) + s1*(3*p5_3) + s0*t0*(p5_6 + p6_5)) + c2*(s0*(18*p3_0 + 3*p3_5 + 6*p3_6 + 3*p3_8) + s1*(3*p3_5) + s0*t0*(p3_11))
        o12 += c0*(t0*(9*p0_3 + 6*p6_3 + 6*p9_3) + t1*(18*p0_3 + 6*p6_3) + s0*t0*(p12_3)) + c1*(18*p3_3 + 27*p3_4 + 27*p4_3 + 18*p4_4 + t0*(6*p3_6 + 6*p4_6) + t1*(6*p3_6) + s0*(6*p6_3 + 6*p6_4) + s1*(6*p6_3) + s0*t0*(2*p6_6)) + c2*(s0*(9*p3_0 + 6*p3_6 + 6*p3_9) + s1*(18*p3_0 + 6*p3_6) + s0*t0*(p3_12))
    return o0, o1, o2, o3, o4, o5, o6, o7, o8, o9, o10, o11, o12
