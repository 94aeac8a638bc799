/* The end of one Crank-Nicolson step of ctburgers' collocation scheme.
 *
 * ctburgers.scheme._StepKernel fills the four bands of the step system
 * with numpy; finish_step does the rest of the step that the Python path
 * does on float lists: it folds the phantom parameters into the end rows,
 * runs the Thomas sweep of ctburgers.linalg.thomas_sweep and restores the
 * phantoms.  Every expression has the operands of the Python code in its
 * left-to-right order, and the build turns off contraction and fast-math,
 * so the results are the Python path's to the bit.  scheme.py checks that
 * on a fixed set of systems before it uses the library.
 *
 * Build: cc -O2 -std=c99 -ffp-contract=off -fno-fast-math -shared -fPIC
 */

#include <float.h>
#include <math.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double expressions must be evaluated in double precision"
#endif

/* bands: (4, n) row-major, rows lower, upper, diag, rhs of the n = N+1
 *        collocation rows; lower[m] and upper[m] multiply the parameters
 *        m-1 and m+1 of row m.  Used as scratch: on return it holds the
 *        folded and eliminated system.
 * delta: the n+2 parameters of the step, overwritten with the new ones
 *        only when the sweep succeeds.
 * k:     alpha1, alpha2, boundary_left, boundary_right, pivot tolerance.
 * n:     number of rows, at least 2.
 *
 * Returns -1, or the row of the first pivot whose magnitude is below the
 * tolerance.
 */
long finish_step(double *bands, double *delta, const double *k, long n)
{
    double *lower = bands, *upper = bands + n, *diag = bands + 2 * n, *rhs = bands + 3 * n;
    const double a1 = k[0], a2 = k[1], bc_left = k[2], bc_right = k[3], tol = k[4];
    double first, last, piv, acc, m, x;
    long i;

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
    return -1;
}
