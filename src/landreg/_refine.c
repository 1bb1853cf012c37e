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
 * theta is (tx, ty, tz, rx, ry, rz, sx, sy, sz); pairs holds n rows
 * (px, py, pz, fx, fy, fz) of moving and fixed coordinates.
 */

#include <math.h>
#include <stdint.h>

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

/* Bias-corrected Adam descent of the loss for `iterations` steps.
 *
 * On entry theta is the start; on return it is the best iterate inside
 * the family (all scales positive, the start included). losses receives
 * (initial, best). trace_iterations and trace_losses receive the samples
 * at iterations 0, 1, every trace_stride-th and the last; *trace_count
 * their number. *at is the best iteration, or on failure the iteration
 * that failed.
 */
int landreg_refine(const double *pairs, int64_t n, double *theta, int64_t iterations,
                   double step_size, double beta1, double beta2, double epsilon,
                   double loss_epsilon, int64_t trace_stride,
                   int64_t *trace_iterations, double *trace_losses, int64_t *trace_count,
                   double *losses, int64_t *at)
{
    const double keep1 = 1.0 - beta1, keep2 = 1.0 - beta2;
    double x[9], best[9], grad[9], m[9] = {0.0}, v[9] = {0.0};
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
        const double correction1 = 1.0 - pow(beta1, (double)k);
        const double correction2 = 1.0 - pow(beta2, (double)k);
        for (int i = 0; i < 9; i++) {
            const double g = grad[i];
            m[i] = beta1 * m[i] + keep1 * g;
            v[i] = beta2 * v[i] + keep2 * g * g;
            x[i] = x[i] - step_size * (m[i] / correction1) / (sqrt(v[i] / correction2) + epsilon);
        }

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
