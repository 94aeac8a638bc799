/* The compiled kernels of ctburgers' collocation scheme, in C.
 *
 * march runs whole Crank-Nicolson steps on the state buffer of a
 * ctburgers.scheme._StepKernel.  Each step fills the four bands of the
 * step system from the current parameters and folds the phantom
 * parameters into the end rows with the statements of
 * _StepKernel.assemble in the same order, runs the Thomas sweep of
 * ctburgers.linalg.thomas_sweep and restores the phantoms as
 * _StepKernel.march does.
 *
 * fit solves the bandwidth-2 system of the initial spline fit with the
 * statements of ctburgers.linalg.banded_solve in the same order.
 *
 * Every expression has the operands of the Python code in its
 * left-to-right order, and the build turns off contraction and fast-math,
 * so the results are the Python path's to the bit.  scheme.py uses the
 * library only when both entry points end every one of a fixed set of
 * known-answer marches and fits with the Python path's zero-pivot row and
 * result bits (scheme._matches_python).
 *
 * Build: cc -O2 -std=c99 -ffp-contract=off -fno-fast-math -shared -fPIC
 */

#include <float.h>
#include <math.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double expressions must be evaluated in double precision"
#endif

/* bands: (4, n) row-major scratch for the rows lower, upper, diag, rhs
 *        of the n = N+1 collocation rows; lower[m] and upper[m] multiply
 *        the parameters m-1 and m+1 of row m.
 * delta: the n+2 parameters, advanced in place one step at a time.
 * k:     alpha1, alpha2, beta1, beta2, dt/2, lam gamma1, lam gamma2,
 *        alpha1 + dt/2 lam gamma1, alpha2 + dt/2 lam gamma2,
 *        boundary_left, boundary_right, pivot tolerance.
 * n:     number of rows, at least 2.
 * steps: number of steps to take, in one call however many: the run cap
 *        scheme.MAX_CELL_STEPS keeps it below 10^11, far inside 64 bits.
 *
 * Returns -1, or the row of the first pivot whose magnitude is below the
 * tolerance; delta then holds the parameters after the last completed
 * step.
 */
long march(double *bands, double *delta, const double *k, long n, long long steps)
{
    double *lower = bands, *upper = bands + n, *diag = bands + 2 * n, *rhs = bands + 3 * n;
    const double a1 = k[0], a2 = k[1], b1 = k[2], b2 = k[3], half_dt = k[4];
    const double lam_g1 = k[5], lam_g2 = k[6], rhs_outer = k[7], rhs_centre = k[8];
    const double bc_left = k[9], bc_right = k[10], tol = k[11];
    double d0, d1, d2, u, ux, a1_ux, first, last, piv, acc, m, x;
    long long s;
    long i;

    for (s = 0; s < steps; s++) {
        for (i = 0; i < n; i++) {
            d0 = delta[i];
            d1 = delta[i + 1];
            d2 = delta[i + 2];
            /* U = (a1 d0 + a2 d1) + a1 d2,  U_x = b1 d0 + b2 d2 */
            u = a1 * d0 + a2 * d1 + a1 * d2;
            ux = b1 * d0 + b2 * d2;
            /* lower, upper = a1 + dt/2 ((a1 U_x + beta U) - lam g1) */
            a1_ux = a1 * ux;
            lower[i] = a1 + half_dt * (a1_ux + b1 * u - lam_g1);
            upper[i] = a1 + half_dt * (a1_ux + b2 * u - lam_g1);
            /* diag = a2 + dt/2 (a2 U_x - lam g2) */
            diag[i] = a2 + half_dt * (a2 * ux - lam_g2);
            /* rhs = (a1 + dt/2 lam g1)(d0 + d2) + (a2 + dt/2 lam g2) d1 */
            rhs[i] = rhs_outer * (d0 + d2) + rhs_centre * d1;
        }

        /* delta_{-1} = (U_a - alpha2 d0 - alpha1 d1)/alpha1 */
        first = lower[0];
        diag[0] -= first * a2 / a1;
        upper[0] -= first;
        rhs[0] -= first * bc_left / a1;
        /* delta_{N+1} = (U_b - alpha1 d_{N-1} - alpha2 d_N)/alpha1 */
        last = upper[n - 1];
        diag[n - 1] -= last * a2 / a1;
        lower[n - 1] -= last;
        rhs[n - 1] -= last * bc_right / a1;

        /* Thomas sweep: sub[i-1] is lower[i], sup[i] is upper[i] */
        piv = diag[0];
        acc = rhs[0];
        for (i = 1; i < n; i++) {
            if (fabs(piv) < tol)
                return i - 1;
            m = lower[i] / piv;
            piv = diag[i] - m * upper[i - 1];
            acc = rhs[i] - m * acc;
            diag[i] = piv;
            rhs[i] = acc;
        }
        if (fabs(piv) < tol)
            return n - 1;
        x = acc / piv;
        delta[n] = x;
        for (i = n - 2; i >= 0; i--) {
            x = (rhs[i] - upper[i] * x) / diag[i];
            delta[i + 1] = x;
        }

        delta[0] = (bc_left - a2 * delta[1] - a1 * delta[2]) / a1;
        delta[n + 1] = (bc_right - a1 * delta[n - 1] - a2 * delta[n]) / a1;
    }
    return -1;
}

/* bands: (n, 5) row-major; column j of row i holds the coefficient of
 *        unknown i + j - 2, and entries outside the matrix are zero.
 *        Overwritten by the elimination.
 * rhs:   the n right-hand sides, overwritten by the elimination.
 * x:     the n unknowns, written on success.
 * n:     number of rows, at least 1.
 * tol:   pivot tolerance.
 *
 * Returns -1, or the row of the first pivot whose magnitude is below the
 * tolerance; x is then unspecified.
 */
long fit(double *bands, double *rhs, double *x, long n, double tol)
{
    double piv, p3, p4, b, m, *row, *r;
    long col, i;

    for (col = 0; col < n - 1; col++) {
        row = bands + 5 * col;
        piv = row[2];
        p3 = row[3];
        p4 = row[4];
        if (fabs(piv) < tol)
            return col;
        b = rhs[col];
        row = bands + 5 * (col + 1);
        if (row[1] != 0.0) {
            m = row[1] / piv;
            row[2] -= m * p3;
            row[3] -= m * p4; /* outside the matrix, and never read, in the last row */
            rhs[col + 1] -= m * b;
        }
        if (col + 2 < n) {
            row = bands + 5 * (col + 2);
            if (row[0] != 0.0) {
                m = row[0] / piv;
                row[1] -= m * p3;
                row[2] -= m * p4;
                rhs[col + 2] -= m * b;
            }
        }
    }
    if (fabs(bands[5 * (n - 1) + 2]) < tol)
        return n - 1;
    x[n - 1] = rhs[n - 1] / bands[5 * (n - 1) + 2];
    if (n > 1) {
        r = bands + 5 * (n - 2);
        x[n - 2] = (rhs[n - 2] - r[3] * x[n - 1]) / r[2];
    }
    for (i = n - 3; i >= 0; i--) {
        r = bands + 5 * i;
        x[i] = ((rhs[i] - r[3] * x[i + 1]) - r[4] * x[i + 2]) / r[2];
    }
    return -1;
}
