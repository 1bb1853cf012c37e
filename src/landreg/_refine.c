/* Adam refinement of the nine transform parameters: the loss, its
 * gradient and the whole descent loop of landreg.refine.
 *
 * landreg.refine compiles this file on first use and calls it through
 * ctypes; every constant comes from there as an argument. Each expression
 * is evaluated in the order of the scalar Python loop kept as the oracle
 * in tests/test_refine.py, and floating-point contraction is off, so the
 * results are bit-identical to that loop's wherever sin, cos and pow come
 * from the libm that Python's math module calls.
 *
 * The arithmetic runs on vectors of doubles (GCC/Clang vector extensions),
 * and each lane rounds every operation as the scalar loop does. One call
 * refines one case, two cases with equal landmark counts on 2-double
 * vectors, or four such cases on 4-double vectors, one case per lane. All
 * three come from the same inline code, specialised for a constant lane
 * count: the vector code below is compiled once on each vector type.
 * With as many lanes as the vector has, vector j holds parameter j (and
 * its gradient and Adam moments) of every case. With one lane the loss is
 * computed with the parameters splatted across both lanes of a 2-double
 * vector, and Adam's vectors hold the nine parameters in order: vectors
 * 0-3 two each, and vector 4 parameter 8 in both lanes (the "Adam
 * layout").
 *
 * The refinement loop is exported twice: landreg_refine for the target
 * the compiler builds for, and on x86-64 landreg_refine_avx2, the same
 * code built for AVX2, where four lanes fill one register (it passes one-
 * and two-lane calls to landreg_refine); contraction stays off there too,
 * as AVX2 alone brings no fused multiply-add.
 * landreg_has_avx2 tells the caller whether the CPU runs the second.
 *
 * theta is (tx, ty, tz, rx, ry, rz, sx, sy, sz) per case; pairs holds n
 * rows of moving and fixed coordinates (px, py, pz, fx, fy, fz), each
 * coordinate given for every lane of the vector in turn: (px0, px1, py0,
 * py1, ...) for two cases, (px0, px0, py0, py0, ...) for one.
 */

#ifndef VEC

#include <math.h>
#include <stdint.h>
#include <string.h>

/* a lane's status; landreg.refine reads the same values */
enum { REFINE_OK = 0, REFINE_NONFINITE_LOSS = 1, REFINE_NONFINITE_ANGLE = 2 };

typedef double pair __attribute__((vector_size(2 * sizeof(double))));
typedef double quad __attribute__((vector_size(4 * sizeof(double))));

#define INLINE static inline __attribute__((always_inline))
/* the loops over lanes and parameters are short, of constant count */
#define UNROLLED _Pragma("GCC unroll 9")

/* The constants of one Adam step */
struct adam {
    double beta1, beta2, keep1, keep2, step_size, epsilon;
};

/* the vector code after #else, once for one or two lanes, once for four */
#define VEC pair
#include "_refine.c"
#undef VEC
#define VEC quad
#include "_refine.c"
#undef VEC

/* The loss and gradient of one case, for landreg.refine.loss and loss_gradient */
double landreg_loss_and_gradient(const double *theta, const double *pairs, int64_t n, double loss_epsilon,
                                 double *grad)
{
    pair x[5], g[5];
    UNROLLED for (int j = 0; j < 9; j++)
        set_pair(x, 1, j, 0, theta[j]);
    x[4][1] = theta[8];
    const pair value = loss_and_gradient_pair(1, x, pairs, n, loss_epsilon, g);
    UNROLLED for (int j = 0; j < 9; j++)
        grad[j] = get_pair(g, 1, j, 0);
    return value[0];
}

/* Adam's bias corrections 1 - beta^k for k = 1 .. count, into table.
 * Stops at the first k whose correction rounds to exactly 1.0 and returns
 * the number written: every later one is 1.0 too, as beta^k only falls. */
int64_t landreg_bias_corrections(double beta, int64_t count, double *table)
{
    for (int64_t k = 1; k <= count; k++) {
        const double correction = 1.0 - pow(beta, (double)k);
        if (correction == 1.0)
            return k - 1;
        table[k - 1] = correction;
    }
    return count;
}

#define REFINE_PARAMETERS                                                                                     \
    int64_t lanes, const double *pairs, int64_t n, double *theta, int64_t iterations, double step_size,      \
        double beta1, double beta2, double epsilon, double loss_epsilon, int64_t trace_stride,               \
        const double *corrections1, int64_t count1, const double *corrections2, int64_t count2,              \
        int64_t *trace_iterations, double *trace_losses, double *losses, int64_t *outcome
#define REFINE_ARGUMENTS                                                                                      \
    lanes, pairs, n, theta, iterations, step_size, beta1, beta2, epsilon, loss_epsilon, trace_stride,        \
        corrections1, count1, corrections2, count2, trace_iterations, trace_losses, losses, outcome

INLINE int64_t refine(REFINE_PARAMETERS)
{
    const struct adam a = {beta1, beta2, 1.0 - beta1, 1.0 - beta2, step_size, epsilon};
    if (lanes == 4)
        return refine_lanes_quad(4, pairs, n, theta, iterations, &a, loss_epsilon, trace_stride, corrections1,
                                 count1, corrections2, count2, trace_iterations, trace_losses, losses, outcome);
    if (lanes == 2)
        return refine_lanes_pair(2, pairs, n, theta, iterations, &a, loss_epsilon, trace_stride, corrections1,
                                 count1, corrections2, count2, trace_iterations, trace_losses, losses, outcome);
    return refine_lanes_pair(1, pairs, n, theta, iterations, &a, loss_epsilon, trace_stride, corrections1,
                             count1, corrections2, count2, trace_iterations, trace_losses, losses, outcome);
}

/* Bias-corrected Adam descent of the loss for `iterations` steps, of one
 * case or, with lanes == 2 or 4, of that many cases with n landmarks each.
 *
 * corrections1 and corrections2 hold the bias corrections 1 - beta1^k and
 * 1 - beta2^k for k = 1, 2, ..., count1 and count2 of them (as
 * landreg_bias_corrections writes them); past its end a correction is
 * exactly 1.0. theta holds lanes rows of 9 parameters: on entry the
 * starts, on return, for each lane that succeeded, the best iterate
 * inside the family (all scales positive, the start included).
 * trace_iterations receives iterations 0, 1, every trace_stride-th and
 * the last, and trace_losses (one row per iteration) each lane's loss
 * there; the return value is their number. losses (lanes rows) receives
 * each lane's (initial, best) loss, and outcome (lanes rows) its (status,
 * iteration): the best iteration, or on failure the iteration that
 * failed. A failed lane's theta, best loss and trace are left undefined.
 */
int64_t landreg_refine(REFINE_PARAMETERS)
{
    return refine(REFINE_ARGUMENTS);
}

#if defined(__x86_64__)
/* landreg_refine built for AVX2: call it only where landreg_has_avx2() is 1.
 * Only four lanes fill its registers, so one or two lanes run
 * landreg_refine's own loops, and the 2-double code is built once. */
__attribute__((target("avx2"))) int64_t landreg_refine_avx2(REFINE_PARAMETERS)
{
    if (lanes != 4)
        return landreg_refine(REFINE_ARGUMENTS);
    return refine(REFINE_ARGUMENTS);
}
#endif

/* 1 where landreg_refine_avx2 exists and this CPU (and its OS) runs AVX2, else 0 */
int landreg_has_avx2(void)
{
#if defined(__x86_64__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

#else /* VEC: the vector code, on vectors of VEC's type */

/* each name below gets the vector type's name appended: splat_pair, splat_quad, ... */
#define TYPED_(name, type) name##_##type
#define TYPED(name, type) TYPED_(name, type)
#define splat TYPED(splat, VEC)
#define sqrt_lanes TYPED(sqrt_lanes, VEC)
#define get TYPED(get, VEC)
#define set TYPED(set, VEC)
#define coordinate TYPED(coordinate, VEC)
#define loss_and_gradient TYPED(loss_and_gradient, VEC)
#define adam_update TYPED(adam_update, VEC)
#define angles_finite TYPED(angles_finite, VEC)
#define scales_positive TYPED(scales_positive, VEC)
#define refine_lanes TYPED(refine_lanes, VEC)
/* the vector width; a call has this many lanes, or one on a pair */
#define WIDTH ((int)(sizeof(VEC) / sizeof(double)))

INLINE VEC splat(double value)
{
    VEC out;
    UNROLLED for (int l = 0; l < WIDTH; l++)
        out[l] = value;
    return out;
}

INLINE VEC sqrt_lanes(VEC value)
{
    UNROLLED for (int l = 0; l < WIDTH; l++)
        value[l] = sqrt(value[l]);
    return value;
}

/* parameter j of lane l in the Adam layout */
INLINE double get(const VEC *x, int lanes, int j, int l)
{
    return lanes > 1 ? x[j][l] : x[j / 2][j % 2];
}

INLINE void set(VEC *x, int lanes, int j, int l, double value)
{
    if (lanes > 1)
        x[j][l] = value;
    else
        x[j / 2][j % 2] = value;
}

/* coordinate c of a pairs row, in every lane */
INLINE VEC coordinate(const double *row, int c)
{
    VEC value;
    memcpy(&value, row + WIDTH * c, sizeof value);
    return value;
}

/* Mean regularized distance at theta, per lane; its 9 partial derivatives
 * go to grad. theta and grad are in the Adam layout.
 *
 * With g_i the loss gradient at the i-th transformed point and p_i the
 * i-th moving point, the translation gradient is sum(g_i), and every
 * other derivative comes from the moment matrix H = sum(g_i p_i^T):
 * d/ds_j = sum_k R[k, j] H[k, j] and d/dr = <dR/dr, H diag(s)> with
 * dR/drx = R Gx, dR/dry = [Rz e_y]x R and dR/drz = Gz R, where G is the
 * generator of the rotation about an axis.
 */
INLINE VEC loss_and_gradient(int lanes, const VEC *theta, const double *pairs, int64_t n, double loss_epsilon,
                             VEC *grad)
{
    VEC p[9];
    UNROLLED for (int j = 0; j < 9; j++)
        p[j] = lanes > 1 ? theta[j] : splat(get(theta, 1, j, 0));
    const VEC tx = p[0], ty = p[1], tz = p[2];
    const VEC sx = p[6], sy = p[7], sz = p[8];
    VEC cx = splat(cos(p[3][0])), snx = splat(sin(p[3][0]));
    VEC cy = splat(cos(p[4][0])), sny = splat(sin(p[4][0]));
    VEC cz = splat(cos(p[5][0])), snz = splat(sin(p[5][0]));
    UNROLLED for (int l = 1; l < lanes; l++) {
        cx[l] = cos(p[3][l]), snx[l] = sin(p[3][l]);
        cy[l] = cos(p[4][l]), sny[l] = sin(p[4][l]);
        cz[l] = cos(p[5][l]), snz[l] = sin(p[5][l]);
    }
    /* landreg.core.rotation: Rz @ Ry @ Rx, row-major */
    const VEC r00 = cz * cy, r01 = cz * sny * snx - snz * cx, r02 = cz * sny * cx + snz * snx;
    const VEC r10 = snz * cy, r11 = snz * sny * snx + cz * cx, r12 = snz * sny * cx - cz * snx;
    const VEC r20 = -sny, r21 = cy * snx, r22 = cy * cx;
    /* linear part R @ diag(s) */
    const VEC a00 = r00 * sx, a01 = r01 * sy, a02 = r02 * sz;
    const VEC a10 = r10 * sx, a11 = r11 * sy, a12 = r12 * sz;
    const VEC a20 = r20 * sx, a21 = r21 * sy, a22 = r22 * sz;

    const VEC count = splat((double)n), epsilon = splat(loss_epsilon);
    VEC total = splat(0.0), gx = total, gy = total, gz = total;
    VEC h00 = total, h01 = total, h02 = total, h10 = total, h11 = total, h12 = total, h20 = total, h21 = total,
        h22 = total;
    for (int64_t i = 0; i < n; i++) {
        const double *row = pairs + 6 * WIDTH * i;
        const VEC px = coordinate(row, 0), py = coordinate(row, 1), pz = coordinate(row, 2);
        const VEC ex = coordinate(row, 3) - (a00 * px + a01 * py + a02 * pz + tx);
        const VEC ey = coordinate(row, 4) - (a10 * px + a11 * py + a12 * pz + ty);
        const VEC ez = coordinate(row, 5) - (a20 * px + a21 * py + a22 * pz + tz);
        const VEC dist = sqrt_lanes(ex * ex + ey * ey + ez * ez + epsilon);
        total += dist;
        /* d(loss)/d(predicted_i) = -resid_i / (n * dist_i) */
        const VEC nd = count * dist;
        const VEC uz = -ez / nd;
        if (lanes > 1) {
            const VEC ux = -ex / nd, uy = -ey / nd;
            gx += ux;
            gy += uy;
            h00 += ux * px;
            h01 += ux * py;
            h02 += ux * pz;
            h10 += uy * px;
            h11 += uy * py;
            h12 += uy * pz;
        } else {
            /* one case: its x and y terms share the lanes of gx, h00, h01 and h02 */
            const VEC uxy = -(VEC){ex[0], ey[0]} / nd;
            gx += uxy;
            h00 += uxy * px;
            h01 += uxy * py;
            h02 += uxy * pz;
        }
        gz += uz;
        h20 += uz * px;
        h21 += uz * py;
        h22 += uz * pz;
    }
    if (lanes == 1) {
        gy = splat(gx[1]), gx = splat(gx[0]);
        h10 = splat(h00[1]), h00 = splat(h00[0]);
        h11 = splat(h01[1]), h01 = splat(h01[0]);
        h12 = splat(h02[1]), h02 = splat(h02[0]);
    }

    /* M = H @ diag(s), the gradient with respect to R */
    const VEC m00 = h00 * sx, m01 = h01 * sy, m02 = h02 * sz;
    const VEC m10 = h10 * sx, m11 = h11 * sy, m12 = h12 * sz;
    const VEC m20 = h20 * sx, m21 = h21 * sy, m22 = h22 * sz;
    const VEC g[9] = {
        gx,
        gy,
        gz,
        (r02 * m01 + r12 * m11 + r22 * m21) - (r01 * m02 + r11 * m12 + r21 * m22),
        cz * (r20 * m00 + r21 * m01 + r22 * m02)
            + snz * (r20 * m10 + r21 * m11 + r22 * m12)
            - ((cz * r00 + snz * r10) * m20 + (cz * r01 + snz * r11) * m21 + (cz * r02 + snz * r12) * m22),
        (r00 * m10 + r01 * m11 + r02 * m12) - (r10 * m00 + r11 * m01 + r12 * m02),
        r00 * h00 + r10 * h10 + r20 * h20,
        r01 * h01 + r11 * h11 + r21 * h21,
        r02 * h02 + r12 * h12 + r22 * h22,
    };
    if (lanes > 1) {
        UNROLLED for (int j = 0; j < 9; j++)
            grad[j] = g[j];
    } else {
        /* whole vectors: a vector read back from two 8-byte stores stalls */
        UNROLLED for (int j = 0; j < 4; j++)
            grad[j] = (VEC){g[2 * j][0], g[2 * j + 1][0]};
        grad[4] = g[8];
    }
    return total / count;
}

/* One Adam update of the Adam layout's vectors. correction1 divides the
 * first moment only while `corrected`; once it is 1.0 the division is
 * left out, as m / 1.0 == m. */
INLINE void adam_update(const struct adam *a, int vectors, VEC *x, VEC *m, VEC *v, const VEC *grad,
                        double correction1, double correction2, int corrected)
{
    const VEC beta1 = splat(a->beta1), beta2 = splat(a->beta2), keep1 = splat(a->keep1), keep2 = splat(a->keep2);
    const VEC step_size = splat(a->step_size), epsilon = splat(a->epsilon);
    const VEC correction1_ = splat(correction1), correction2_ = splat(correction2);
    UNROLLED for (int j = 0; j < vectors; j++) {
        const VEC g = grad[j];
        m[j] = beta1 * m[j] + keep1 * g;
        v[j] = beta2 * v[j] + keep2 * g * g;
        VEC m_hat = m[j];
        if (corrected)
            m_hat = m_hat / correction1_;
        x[j] = x[j] - step_size * m_hat / (sqrt_lanes(v[j] / correction2_) + epsilon);
    }
}

/* Python's math.cos and math.sin raise on an infinite angle where libm
 * returns nan; a lane stops there with its own status instead. */
INLINE int angles_finite(const VEC *x, int lanes, int l)
{
    return !isinf(get(x, lanes, 3, l)) && !isinf(get(x, lanes, 4, l)) && !isinf(get(x, lanes, 5, l));
}

/* a reflected iterate may fit better but lies outside the family */
INLINE int scales_positive(const VEC *x, int lanes, int l)
{
    return get(x, lanes, 6, l) > 0 && get(x, lanes, 7, l) > 0 && get(x, lanes, 8, l) > 0;
}

/* landreg_refine for a constant lane count: 1 or WIDTH.
 *
 * A lane that fails stops being traced and taking best iterates; its
 * arithmetic runs on (on NaNs, as every gradient entry of a non-finite
 * loss is NaN) until the other lanes are done, and never touches theirs.
 */
INLINE int64_t refine_lanes(int lanes, const double *pairs, int64_t n, double *theta, int64_t iterations,
                            const struct adam *a, double loss_epsilon, int64_t trace_stride,
                            const double *corrections1, int64_t count1, const double *corrections2,
                            int64_t count2, int64_t *trace_iterations, double *trace_losses, double *losses,
                            int64_t *outcome)
{
    const int vectors = lanes > 1 ? 9 : 5, all = (1 << lanes) - 1;
    VEC x[9], best[9], grad[9], m[9], v[9];
    double best_loss[WIDTH];
    int64_t best_iteration[WIDTH];

    UNROLLED for (int l = 0; l < lanes; l++)
        UNROLLED for (int j = 0; j < 9; j++)
            set(x, lanes, j, l, theta[9 * l + j]);
    if (lanes == 1)
        x[4][1] = x[4][0];
    UNROLLED for (int j = 0; j < vectors; j++) {
        m[j] = v[j] = splat(0.0);
        best[j] = x[j];
    }

    /* a start is finite: refine takes it from validated parameters */
    VEC value = loss_and_gradient(lanes, x, pairs, n, loss_epsilon, grad);
    int live = 0; /* bit l: lane l is still descending */
    UNROLLED for (int l = 0; l < lanes; l++) {
        losses[2 * l] = best_loss[l] = value[l];
        best_iteration[l] = 0;
        outcome[2 * l] = REFINE_NONFINITE_LOSS;
        outcome[2 * l + 1] = 0;
        if (isfinite(value[l]))
            live |= 1 << l;
        trace_losses[l] = value[l];
    }
    trace_iterations[0] = 0;
    int64_t samples = 1, next_stride = trace_stride;

    for (int64_t k = 1; live && k <= iterations; k++) {
        const double correction2 = k <= count2 ? corrections2[k - 1] : 1.0;
        if (k <= count1)
            adam_update(a, vectors, x, m, v, grad, corrections1[k - 1], correction2, 1);
        else
            adam_update(a, vectors, x, m, v, grad, 1.0, correction2, 0);

        UNROLLED for (int l = 0; l < lanes; l++)
            if ((live >> l & 1) && !angles_finite(x, lanes, l)) {
                outcome[2 * l] = REFINE_NONFINITE_ANGLE;
                outcome[2 * l + 1] = k;
                live &= ~(1 << l);
            }
        if (!live)
            break;
        value = loss_and_gradient(lanes, x, pairs, n, loss_epsilon, grad);
        int improved = 0;
        UNROLLED for (int l = 0; l < lanes; l++) {
            if (!(live >> l & 1))
                continue;
            if (!isfinite(value[l])) {
                outcome[2 * l + 1] = k; /* outcome[2 * l] is REFINE_NONFINITE_LOSS */
                live &= ~(1 << l);
            } else if (value[l] < best_loss[l] && scales_positive(x, lanes, l)) {
                best_loss[l] = value[l];
                best_iteration[l] = k;
                improved |= 1 << l;
            }
        }
        if (improved == all) {
            UNROLLED for (int j = 0; j < vectors; j++)
                best[j] = x[j];
        } else if (improved) { /* some lanes of several */
            UNROLLED for (int l = 0; l < lanes; l++)
                if (improved >> l & 1)
                    UNROLLED for (int j = 0; j < 9; j++)
                        set(best, lanes, j, l, get(x, lanes, j, l));
        }
        /* iterations 1, every trace_stride-th and the last */
        const int stride = k == next_stride;
        if (k == 1 || stride || k == iterations) {
            trace_iterations[samples] = k;
            UNROLLED for (int l = 0; l < lanes; l++)
                trace_losses[lanes * samples + l] = value[l];
            samples++;
        }
        next_stride += stride ? trace_stride : 0;
    }

    UNROLLED for (int l = 0; l < lanes; l++) {
        if (!(live >> l & 1))
            continue;
        UNROLLED for (int j = 0; j < 9; j++)
            theta[9 * l + j] = get(best, lanes, j, l);
        losses[2 * l + 1] = best_loss[l];
        outcome[2 * l] = REFINE_OK;
        outcome[2 * l + 1] = best_iteration[l];
    }
    return samples;
}

#undef splat
#undef sqrt_lanes
#undef get
#undef set
#undef coordinate
#undef loss_and_gradient
#undef adam_update
#undef angles_finite
#undef scales_positive
#undef refine_lanes
#undef WIDTH

#endif /* VEC */
