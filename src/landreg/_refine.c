/* Adam refinement of the nine transform parameters: the loss, its
 * gradient and the whole descent loop of landreg.refine.
 *
 * landreg.refine compiles this file on first use and calls it through
 * ctypes; every constant comes from there as an argument. Each expression
 * is evaluated in the order of the scalar Python loop kept as the oracle
 * in tests/test_refine.py, and floating-point contraction is off, so the
 * results are bit-identical to that loop's wherever sin, cos and pow come
 * from the libm that Python's math module calls. The Adam update runs in
 * GCC/Clang vector extensions, two parameters a vector; each lane rounds
 * every operation as the scalar loop does.
 *
 * theta is (tx, ty, tz, rx, ry, rz, sx, sy, sz); pairs holds n rows
 * (px, py, pz, fx, fy, fz) of moving and fixed coordinates.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* landreg_refine's status; landreg.refine reads the same values */
enum { REFINE_OK = 0, REFINE_NONFINITE_LOSS = 1, REFINE_NONFINITE_ANGLE = 2 };

/* Mean regularized distance at theta; its 9 partial derivatives go to grad.
 *
 * With g_i the loss gradient at the i-th transformed point and p_i the
 * i-th moving point, the translation gradient is sum(g_i), and every
 * other derivative comes from the moment matrix H = sum(g_i p_i^T):
 * d/ds_j = sum_k R[k, j] H[k, j] and d/dr = <dR/dr, H diag(s)> with
 * dR/drx = R Gx, dR/dry = [Rz e_y]x R and dR/drz = Gz R, where G is the
 * generator of the rotation about an axis.
 */
double landreg_loss_and_gradient(const double *theta, const double *pairs, int64_t n,
                                 double loss_epsilon, double *grad)
{
    const double tx = theta[0], ty = theta[1], tz = theta[2];
    const double sx = theta[6], sy = theta[7], sz = theta[8];
    /* landreg.core.rotation: Rz @ Ry @ Rx, row-major */
    const double cx = cos(theta[3]), snx = sin(theta[3]);
    const double cy = cos(theta[4]), sny = sin(theta[4]);
    const double cz = cos(theta[5]), snz = sin(theta[5]);
    const double r00 = cz * cy, r01 = cz * sny * snx - snz * cx, r02 = cz * sny * cx + snz * snx;
    const double r10 = snz * cy, r11 = snz * sny * snx + cz * cx, r12 = snz * sny * cx - cz * snx;
    const double r20 = -sny, r21 = cy * snx, r22 = cy * cx;
    /* linear part R @ diag(s) */
    const double a00 = r00 * sx, a01 = r01 * sy, a02 = r02 * sz;
    const double a10 = r10 * sx, a11 = r11 * sy, a12 = r12 * sz;
    const double a20 = r20 * sx, a21 = r21 * sy, a22 = r22 * sz;

    double total = 0.0, gx = 0.0, gy = 0.0, gz = 0.0;
    double h00 = 0.0, h01 = 0.0, h02 = 0.0, h10 = 0.0, h11 = 0.0, h12 = 0.0, h20 = 0.0, h21 = 0.0, h22 = 0.0;
    for (int64_t i = 0; i < n; i++) {
        const double *row = pairs + 6 * i;
        const double px = row[0], py = row[1], pz = row[2];
        const double ex = row[3] - (a00 * px + a01 * py + a02 * pz + tx);
        const double ey = row[4] - (a10 * px + a11 * py + a12 * pz + ty);
        const double ez = row[5] - (a20 * px + a21 * py + a22 * pz + tz);
        const double dist = sqrt(ex * ex + ey * ey + ez * ez + loss_epsilon);
        total += dist;
        /* d(loss)/d(predicted_i) = -resid_i / (n * dist_i) */
        const double nd = n * dist;
        const double ux = -ex / nd, uy = -ey / nd, uz = -ez / nd;
        gx += ux;
        gy += uy;
        gz += uz;
        h00 += ux * px;
        h01 += ux * py;
        h02 += ux * pz;
        h10 += uy * px;
        h11 += uy * py;
        h12 += uy * pz;
        h20 += uz * px;
        h21 += uz * py;
        h22 += uz * pz;
    }

    /* M = H @ diag(s), the gradient with respect to R */
    const double m00 = h00 * sx, m01 = h01 * sy, m02 = h02 * sz;
    const double m10 = h10 * sx, m11 = h11 * sy, m12 = h12 * sz;
    const double m20 = h20 * sx, m21 = h21 * sy, m22 = h22 * sz;
    grad[0] = gx;
    grad[1] = gy;
    grad[2] = gz;
    grad[3] = (r02 * m01 + r12 * m11 + r22 * m21) - (r01 * m02 + r11 * m12 + r21 * m22);
    grad[4] = cz * (r20 * m00 + r21 * m01 + r22 * m02)
              + snz * (r20 * m10 + r21 * m11 + r22 * m12)
              - ((cz * r00 + snz * r10) * m20 + (cz * r01 + snz * r11) * m21 + (cz * r02 + snz * r12) * m22);
    grad[5] = (r00 * m10 + r01 * m11 + r02 * m12) - (r10 * m00 + r11 * m01 + r12 * m02);
    grad[6] = r00 * h00 + r10 * h10 + r20 * h20;
    grad[7] = r01 * h01 + r11 * h11 + r21 * h21;
    grad[8] = r02 * h02 + r12 * h12 + r22 * h22;
    return total / n;
}

/* Python's math.cos and math.sin raise on an infinite angle where libm
 * returns nan; the loop stops there with its own status instead. */
static int angles_finite(const double *theta)
{
    return !isinf(theta[3]) && !isinf(theta[4]) && !isinf(theta[5]);
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

typedef double pair __attribute__((vector_size(2 * sizeof(double))));

/* The constants of one Adam step */
struct adam {
    double beta1, beta2, keep1, keep2, step_size, epsilon;
};

static pair splat(double value)
{
    return (pair){value, value};
}

static pair sqrt_pair(pair value)
{
    return (pair){sqrt(value[0]), sqrt(value[1])};
}

/* One Adam update of the nine parameters: x[0..7] as four pairs, x[8]
 * alone. correction1 divides the first moment only while `corrected`;
 * once it is 1.0 the division is left out, as m / 1.0 == m. */
static inline void adam_update(const struct adam *a, double *x, pair *m, pair *v, double *m8, double *v8,
                               const double *grad, double correction1, double correction2, int corrected)
{
    const pair beta1 = splat(a->beta1), beta2 = splat(a->beta2), keep1 = splat(a->keep1), keep2 = splat(a->keep2);
    const pair step_size = splat(a->step_size), epsilon = splat(a->epsilon);
    const pair correction1_ = splat(correction1), correction2_ = splat(correction2);
    for (int j = 0; j < 4; j++) {
        pair g, xj;
        memcpy(&g, grad + 2 * j, sizeof g);
        memcpy(&xj, x + 2 * j, sizeof xj);
        m[j] = beta1 * m[j] + keep1 * g;
        v[j] = beta2 * v[j] + keep2 * g * g;
        pair m_hat = m[j];
        if (corrected)
            m_hat = m_hat / correction1_;
        xj = xj - step_size * m_hat / (sqrt_pair(v[j] / correction2_) + epsilon);
        memcpy(x + 2 * j, &xj, sizeof xj);
    }
    const double g = grad[8];
    *m8 = a->beta1 * *m8 + a->keep1 * g;
    *v8 = a->beta2 * *v8 + a->keep2 * g * g;
    double m_hat = *m8;
    if (corrected)
        m_hat = m_hat / correction1;
    x[8] = x[8] - a->step_size * m_hat / (sqrt(*v8 / correction2) + a->epsilon);
}

/* Bias-corrected Adam descent of the loss for `iterations` steps.
 *
 * corrections1 and corrections2 hold the bias corrections 1 - beta1^k and
 * 1 - beta2^k for k = 1, 2, ..., count1 and count2 of them (as
 * landreg_bias_corrections writes them); past its end a correction is
 * exactly 1.0. On entry theta is the start; on return it is the best
 * iterate inside the family (all scales positive, the start included).
 * losses receives (initial, best). trace_iterations and trace_losses
 * receive the samples at iterations 0, 1, every trace_stride-th and the
 * last; *trace_count their number. *at is the best iteration, or on
 * failure the iteration that failed.
 */
int landreg_refine(const double *pairs, int64_t n, double *theta, int64_t iterations,
                   double step_size, double beta1, double beta2, double epsilon,
                   double loss_epsilon, int64_t trace_stride,
                   const double *corrections1, int64_t count1,
                   const double *corrections2, int64_t count2,
                   int64_t *trace_iterations, double *trace_losses, int64_t *trace_count,
                   double *losses, int64_t *at)
{
    const struct adam a = {beta1, beta2, 1.0 - beta1, 1.0 - beta2, step_size, epsilon};
    double x[9], best[9], grad[9], m8 = 0.0, v8 = 0.0;
    pair m[4] = {{0.0}}, v[4] = {{0.0}};
    int64_t samples = 0;

    /* the start is finite: refine takes it from validated parameters */
    *at = 0;
    double value = landreg_loss_and_gradient(theta, pairs, n, loss_epsilon, grad);
    if (!isfinite(value))
        return REFINE_NONFINITE_LOSS;
    for (int i = 0; i < 9; i++)
        x[i] = best[i] = theta[i];
    double best_loss = value;
    int64_t best_iteration = 0;
    losses[0] = value;
    trace_iterations[samples] = 0;
    trace_losses[samples++] = value;

    for (int64_t k = 1; k <= iterations; k++) {
        const double correction2 = k <= count2 ? corrections2[k - 1] : 1.0;
        if (k <= count1)
            adam_update(&a, x, m, v, &m8, &v8, grad, corrections1[k - 1], correction2, 1);
        else
            adam_update(&a, x, m, v, &m8, &v8, grad, 1.0, correction2, 0);

        *at = k;
        if (!angles_finite(x))
            return REFINE_NONFINITE_ANGLE;
        value = landreg_loss_and_gradient(x, pairs, n, loss_epsilon, grad);
        if (!isfinite(value))
            return REFINE_NONFINITE_LOSS;
        /* a reflected iterate may fit better but lies outside the family */
        if (value < best_loss && x[6] > 0 && x[7] > 0 && x[8] > 0) {
            best_loss = value;
            for (int i = 0; i < 9; i++)
                best[i] = x[i];
            best_iteration = k;
        }
        if (k == 1 || k % trace_stride == 0 || k == iterations) {
            trace_iterations[samples] = k;
            trace_losses[samples++] = value;
        }
    }

    for (int i = 0; i < 9; i++)
        theta[i] = best[i];
    losses[1] = best_loss;
    *trace_count = samples;
    *at = best_iteration;
    return REFINE_OK;
}
