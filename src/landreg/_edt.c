/* One minimum pass of the exact Euclidean distance transform.
 *
 * landreg.landmarks compiles this file on first use and calls it through
 * ctypes. landreg_edt_pass replaces every line of f along one axis, in
 * place, by
 *
 *     out[p] = min over q of g[q] + dd[|p - q|],   dd[r] = (r * step)^2,
 *
 * where g is the line's input. dd is the table numpy builds from
 * ((p - q) * step) ** 2, and each output is one rounded sum
 * g[v] + dd[|p - v|], so the result is bit-identical to taking the
 * minimum of all n rounded candidates:
 *
 *   - rounding is monotone, so the smallest rounded candidate is the
 *     rounding of the smallest exact sum, and any v whose exact sum is
 *     smallest gives it;
 *   - for finite sites a < b the exact difference of their candidates,
 *     (g[b] + dd[|p - b|]) - (g[a] + dd[|p - a|]), falls by
 *     2 * step^2 * (b - a) per voxel, give or take four errors of dd of at
 *     most 3u (n - 1)^2 step^2 each (u = 2^-53). On an axis of at most
 *     2^25 voxels the errors cannot undo the fall, so b beats a (its
 *     candidate is at most a's) from one p on and never loses again, and
 *     the lower envelope of the candidates (Felzenszwalb & Huttenlocher
 *     2012) is exact when each such p is found exactly. The parabola
 *     formula finds it but for a voxel or so, and an exact comparison of
 *     the two sums settles that voxel. Comparing the rounded sums is not
 *     enough: two candidates can round to the same sum while the smaller
 *     one is needed further along.
 *
 * The caller guarantees: f is a C-contiguous (nz, ny, nx) float64 array of
 * non-negative values and +inf, no axis is longer than 2^25 voxels, step^2
 * is a normal float, and every finite g[q] + dd[n - 1] is finite.
 * Contraction into fused multiply-adds must be off: the exact comparison
 * and the error bounds rely on every operation being rounded on its own.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* lines gathered at once on a strided axis: PANEL adjacent lines share
 * each cache line they are read from */
#define PANEL 16

/* What every line of a pass shares. */
struct pass {
    int64_t n;        /* voxels per line */
    const double *dd; /* dd[r] = (r * step)^2 */
    double step2;     /* step^2, for the first guess of a crossing */
    double slack;     /* how far that guess may lie from where b beats a */
};

/* 1 if a + b <= c + d exactly. Equal rounded sums are told apart by their
 * rounding errors (Knuth's TwoSum), which are exact as no sum overflows. */
static int sum_le(double a, double b, double c, double d)
{
    const double s = a + b, t = c + d;
    if (s != t)
        return s < t;
    const double bs = s - a, bt = t - c;
    return (a - (s - bs)) + (b - bs) <= (c - (t - bt)) + (d - bt);
}

static int64_t distance(int64_t p, int64_t q)
{
    return p > q ? p - q : q - p;
}

/* 1 if site b, with value gb, beats site a at p */
static int beats(int64_t b, double gb, int64_t a, double ga, int64_t p, const double *dd)
{
    return sum_le(gb, dd[distance(p, b)], ga, dd[distance(p, a)]);
}

/* The first p in [0, n) where site b beats site a, a < b, or n if there
 * is none.
 *
 * The guess is x, where the two parabolas cross. Where b beats a starts
 * within 3u (n - 1)^2 of that crossing (the dd errors over the fall per
 * voxel), and x lies within 14un of it (the rounding of x, for |x| < 2n).
 * slack bounds both and the rounding of x +- slack, and stays below 1/2,
 * so every p below x - slack loses, every p from x + slack on beats, and
 * at most one p lies in between; one exact comparison settles that one.
 * A guess outside (-2n, 2n) is settled by exact steps from the nearer
 * end, one comparison in practice. */
static int64_t crossing(int64_t a, double ga, int64_t b, double gb, const struct pass *pass)
{
    const int64_t n = pass->n;
    const double x = ((gb - ga) / (pass->step2 * (double)(b - a)) + (double)(a + b)) * 0.5;
    int64_t p = 0;
    if (x > -2.0 * (double)n && x < 2.0 * (double)n) {
        const double lo = x - pass->slack;
        p = (int64_t)lo; /* ceil(lo), without a libm call */
        p += (double)p < lo;
        if (p < 0)
            return 0;
        if (p >= n)
            return n;
        if ((double)p < x + pass->slack)
            p += !beats(b, gb, a, ga, p, pass->dd);
        return p;
    }
    if (x > 0.0)
        p = n;
    while (p > 0 && beats(b, gb, a, ga, p - 1, pass->dd))
        p--;
    while (p < n && !beats(b, gb, a, ga, p, pass->dd))
        p++;
    return p;
}

/* The pass over one contiguous line, in place. The line's finite sites
 * are listed first, without a branch per value. v, gv and z then hold the
 * lower envelope: site v[k] with value gv[k] is the minimum from z[k] up
 * to z[k + 1]. A new site removes each last site that it beats from where
 * that site's part begins, and joins from where it beats the one left. A
 * line without a finite value stays as it is. */
static void envelope_line(double *line, const struct pass *pass,
                          int64_t *site, int64_t *v, double *gv, int64_t *z)
{
    const int64_t n = pass->n;
    const double *dd = pass->dd;
    int64_t m = 0;
    for (int64_t q = 0; q < n; q++) {
        site[m] = q;
        m += line[q] != INFINITY;
    }
    if (m == 0)
        return;
    int64_t k = 0;
    v[0] = site[0];
    gv[0] = line[site[0]];
    z[0] = 0;
    for (int64_t i = 1; i < m; i++) {
        const int64_t q = site[i];
        const double g = line[q];
        int64_t c = 0;
        while (k >= 0 && (c = crossing(v[k], gv[k], q, g, pass)) <= z[k])
            k--;
        if (k < 0)
            c = 0;
        if (c < n) {
            k++;
            v[k] = q;
            gv[k] = g;
            z[k] = c;
        }
    }
    z[k + 1] = n;
    for (int64_t j = 0; j <= k; j++) {
        const int64_t s = v[j], end = z[j + 1];
        const double g = gv[j];
        int64_t p = z[j];
        for (; p < end && p < s; p++)
            line[p] = g + dd[s - p];
        for (; p < end; p++)
            line[p] = g + dd[p - s];
    }
}

/* The minimum pass along axis (0 = z, 1 = y, 2 = x) of the C-contiguous
 * (nz, ny, nx) array f, in place. Returns 0, or 1 if the scratch cannot
 * be allocated, with f unchanged. Keeps no state between calls, so
 * threads may run it at once on different arrays. */
int landreg_edt_pass(double *f, int64_t nz, int64_t ny, int64_t nx, int axis, double step)
{
    /* f as (outer, n, inner): lines run along n, inner values apart */
    const int64_t n = axis == 0 ? nz : axis == 1 ? ny : nx;
    const int64_t inner = axis == 0 ? ny * nx : axis == 1 ? nx : 1;
    const int64_t outer = nz * ny * nx / (n * inner);
    const int64_t panel = inner == 1 ? 0 : inner < PANEL ? inner : PANEL;

    /* dd, gv and the gathered panel, then site, v and z (n + 1 values) */
    double *scratch = malloc((size_t)n * ((2 + panel) * sizeof(double) + 3 * sizeof(int64_t)) + sizeof(int64_t));
    if (scratch == NULL)
        return 1;
    double *dd = scratch, *gv = dd + n, *buf = gv + n;
    int64_t *site = (int64_t *)(buf + panel * n), *v = site + n, *z = v + n;
    for (int64_t r = 0; r < n; r++) {
        const double d = (double)r * step;
        dd[r] = d * d;
    }
    /* u (3.25 (n - 1)^2 + 20n + 8) covers 3u (n - 1)^2 + 14un and the
     * rounding of x +- slack; below 0.41 on the longest axis allowed */
    const double span = (double)(n - 1);
    const struct pass pass = {n, dd, step * step, 0x1p-53 * (3.25 * span * span + 20.0 * (double)n + 8.0)};

    for (int64_t o = 0; o < outer; o++) {
        double *slab = f + o * n * inner;
        if (inner == 1) {
            envelope_line(slab, &pass, site, v, gv, z);
            continue;
        }
        for (int64_t c0 = 0; c0 < inner; c0 += panel) {
            const int64_t w = inner - c0 < panel ? inner - c0 : panel;
            int finite[PANEL] = {0};
            int any = 0;
            for (int64_t q = 0; q < n; q++) {
                const double *row = slab + q * inner + c0;
                for (int64_t j = 0; j < w; j++) {
                    buf[j * n + q] = row[j];
                    finite[j] |= row[j] != INFINITY;
                }
            }
            for (int64_t j = 0; j < w; j++) {
                if (finite[j]) {
                    envelope_line(buf + j * n, &pass, site, v, gv, z);
                    any = 1;
                }
            }
            if (!any)
                continue;
            for (int64_t q = 0; q < n; q++) {
                double *row = slab + q * inner + c0;
                for (int64_t j = 0; j < w; j++)
                    row[j] = buf[j * n + q];
            }
        }
    }
    free(scratch);
    return 0;
}
