# Generated by semple2.verify.kernel_source from the stencil that
# semple2.verify.derive_stencil derives from the gluing matrix.
# Do not edit; from the repository root, regenerate with
#   PYTHONPATH=src python -c 'import semple2.verify as v; print(v.kernel_source(v.derive_stencil(v.build_gluing_matrix(2))), end="")' > src/semple2/_kernel.py
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
        m0*v[1],  # 4
        6*v[3],  # 5
        3*v[0] + m0*v[2],  # 6
        3*v[4],  # 7
        3*v[3],  # 8
        v[4],  # 9
        m0*2*v[3],  # 10
        2*v[3] + m0*v[4],  # 11
        m0*v[4],  # 12
        6*v[3] + m0*v[5],  # 13
        m0*6*v[3],  # 14
        m0*v[5],  # 15
        3*v[3] + 3*v[4] + m0*v[6],  # 16
        m0*3*v[3] + m1*3*v[3],  # 17
        m0*3*v[3],  # 18
        m0*v[6],  # 19
        4*v[4] + m0*v[7],  # 20
        4*v[3] + m0*4*v[4],  # 21
        4*v[3] + m0*2*v[4],  # 22
        6*v[4] + 2*v[5] + m0*v[8],  # 23
        12*v[3] + m0*(6*v[4] + 2*v[5]),  # 24
        6*v[0] + 3*v[4] + 2*v[6] + 3*v[7] + m0*v[9],  # 25
        12*v[3] + 6*v[4] + m0*(3*v[4] + 2*v[6]) + m1*3*v[4],  # 26
        6*v[3] + m0*3*v[4],  # 27
        12*v[5] + m0*v[10],  # 28
        36*v[3] + m0*12*v[5],  # 29
        12*v[3] + m0*2*v[5],  # 30
        18*v[0] + 3*v[5] + 6*v[6] + 3*v[8] + m0*v[11],  # 31
        3*v[5],  # 32
        36*v[3] + 18*v[4] + m0*(3*v[5] + 6*v[6]) + m1*3*v[5],  # 33
        18*v[3] + m0*3*v[5],  # 34
        v[5],  # 35
        9*v[0] + 6*v[6] + 6*v[9] + m0*v[12],  # 36
        18*v[0] + 6*v[6],  # 37
        18*v[3] + 27*v[4] + m0*6*v[6] + m1*6*v[6],  # 38
        27*v[3] + 18*v[4] + m0*6*v[6],  # 39
        6*v[3] + 6*v[4] + m0*2*v[6],  # 40
        v[6],  # 41
    )


def kernel(d, forms, row):
    row = [0, *row, 0, 0]
    o0 = o1 = o2 = o3 = o4 = o5 = o6 = o7 = o8 = o9 = o10 = o11 = o12 = 0
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
        x1_9 = c1 * B[9]
        x1_12 = c1 * B[12]
        x1_15 = c1 * B[15]
        x1_19 = c1 * B[19]
        x1_35 = c1 * B[35]
        x1_41 = c1 * B[41]
        x2_1 = c2 * A[1]
        x2_3 = c2 * A[3]
        o0 += x0_1*A[0] + x1_3*A[2] + x2_1*B[0]
        o1 += x0_1*A[4] + x1_3*A[5] + x2_1*B[4]
        o2 += x0_1*A[6] + x1_3*A[7] + x1_9*A[8] + x2_1*B[6]
        o3 += x0_1*A[1] + x1_1*A[10] + x2_1*B[1]
        o4 += x0_1*A[11] + x1_3*(A[10] + t0*A[11]) + x1_12*A[1] + x2_1*B[11]
        o5 += x0_1*A[13] + x1_3*(A[14] + t0*A[13]) + x1_15*A[1] + x2_1*B[13]
        o6 += x0_3*(t0*A[16] + t1*A[8]) + x1_3*(A[17] + t0*A[16] + t1*A[8]) + x1_9*A[18] + x1_19*A[1] + x2_3*(s0*B[16] + s1*B[8])
        o7 += x0_1*A[20] + x1_3*A[21] + x1_12*A[22] + x2_1*B[20]
        o8 += x0_1*A[23] + x1_3*A[24] + x1_12*A[13] + x1_15*A[11] + x2_1*B[23]
        o9 += x0_3*(t0*A[25] + t1*A[7]) + x1_3*A[26] + x1_9*(A[27] + t0*A[16] + t1*A[8]) + x1_19*A[11] + x2_3*(s0*B[25] + s1*B[7])
        o10 += x0_1*A[28] + x1_3*A[29] + x1_15*A[30] + x2_1*B[28]
        o11 += x0_3*(t0*A[31] + t1*A[32]) + x1_3*A[33] + x1_9*A[34] + x1_35*(t0*A[16] + t1*A[8]) + x1_19*A[13] + x2_3*(s0*B[31] + s1*B[32])
        o12 += x0_3*(t0*A[36] + t1*A[37]) + x1_3*A[38] + x1_9*A[39] + x1_41*(t0*A[40] + t1*A[5]) + x2_3*(s0*B[36] + s1*B[37])
    return o0, o1, o2, o3, o4, o5, o6, o7, o8, o9, o10, o11, o12
